"""Arithmetic-block tests: exhaustive small widths, randomized larger,
and hypothesis properties."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.circuits import CircuitBuilder, bits_from_int, int_from_bits, simulate
from repro.circuits import arith


def run_binary(build, a, b, width, signed_out=False):
    bld = CircuitBuilder()
    xa = bld.add_alice_inputs(width)
    xb = bld.add_bob_inputs(width)
    out = build(bld, xa, xb)
    if isinstance(out, int):
        out = [out]
    bld.mark_output_bus(out)
    circuit = bld.build()
    mask = (1 << width) - 1
    bits = simulate(circuit, bits_from_int(a & mask, width), bits_from_int(b & mask, width))
    return int_from_bits(bits, signed=signed_out)


def signed(value, width):
    value &= (1 << width) - 1
    return value - (1 << width) if value >> (width - 1) else value


W4 = list(range(16))


class TestAdderExhaustive:
    @pytest.mark.parametrize("a", W4)
    @pytest.mark.parametrize("b", W4)
    def test_add_4bit(self, a, b):
        assert run_binary(arith.ripple_add, a, b, 4) == (a + b) & 15

    def test_add_with_carry_out(self):
        for a in (0, 7, 15):
            for b in (0, 9, 15):
                got = run_binary(
                    lambda bl, x, y: arith.ripple_add(bl, x, y, with_cout=True),
                    a, b, 4,
                )
                assert got == a + b

    def test_add_with_carry_in(self):
        # a zero addend makes it an increment
        for a, b in [(5, 6), (0, 0), (9, 0), (15, 0)]:
            got = run_binary(
                lambda bl, x, y: arith.ripple_add(bl, x, y, cin=bl.one), a, b, 4
            )
            assert got == (a + b + 1) & 15

    def test_adder_non_xor_is_width(self):
        bld = CircuitBuilder()
        a = bld.add_alice_inputs(16)
        b = bld.add_bob_inputs(16)
        bld.mark_output_bus(arith.ripple_add(bld, a, b))
        # paper Table 3: ADD has 16 non-XOR gates at 16 bits
        assert bld.build().counts().non_xor == 16


class TestSubNegAbs:
    @given(st.integers(0, 255), st.integers(0, 255))
    @example(0, 1)  # from zero: a negate
    @example(0, 255)
    @settings(max_examples=40, deadline=None)
    def test_sub_wraps(self, a, b):
        assert run_binary(arith.ripple_sub, a, b, 8) == (a - b) & 255

    @given(st.integers(-127, 127))
    @settings(max_examples=25, deadline=None)
    def test_absolute(self, a):
        got = run_binary(lambda bl, x, y: arith.absolute(bl, x), a, 0, 8, signed_out=True)
        assert got == abs(a)

    def test_borrow_flag(self):
        got = run_binary(
            lambda bl, x, y: arith.ripple_sub(bl, x, y, with_borrow=True), 3, 9, 4
        )
        assert got >> 4 == 1  # borrow set since 3 < 9
        got = run_binary(
            lambda bl, x, y: arith.ripple_sub(bl, x, y, with_borrow=True), 9, 3, 4
        )
        assert got >> 4 == 0


class TestComparisons:
    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=40, deadline=None)
    def test_unsigned_lt(self, a, b):
        assert run_binary(arith.less_than, a, b, 8) == int(a < b)

    @given(st.integers(-128, 127), st.integers(-128, 127))
    @settings(max_examples=40, deadline=None)
    def test_signed_lt(self, a, b):
        assert run_binary(arith.less_than_signed, a, b, 8) == int(a < b)

    @pytest.mark.parametrize("value", [0, 1, 77, 127, 128, 255])
    def test_equal_operands_are_not_less(self, value):
        assert run_binary(arith.less_than, value, value, 8) == 0
        assert run_binary(arith.less_than_signed, value, value, 8) == 0

    def test_comparator_non_xor_is_width(self):
        bld = CircuitBuilder()
        a = bld.add_alice_inputs(16)
        b = bld.add_bob_inputs(16)
        bld.mark_output(arith.less_than(bld, a, b))
        assert bld.build().counts().non_xor == 16


class TestConditionalOps:
    @given(st.integers(-127, 127), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_conditional_negate(self, a, sel):
        def build(bl, x, y):
            s = bl.one if sel else bl.zero
            return arith.conditional_negate(bl, s, x)

        got = run_binary(build, a, 0, 8, signed_out=True)
        assert got == (-a if sel else a)

    @given(st.integers(-100, 100), st.integers(-100, 100), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_conditional_add_sub(self, a, b, sub):
        def build(bl, x, y):
            s = bl.one if sub else bl.zero
            return arith.conditional_add_sub(bl, x, y, s)

        got = run_binary(build, a, b, 9, signed_out=True)
        assert got == signed(a - b if sub else a + b, 9)


class TestShifts:

    @given(st.integers(0, 255), st.integers(0, 10))
    @settings(max_examples=25, deadline=None)
    def test_shift_right_logical(self, a, k):
        got = run_binary(lambda bl, x, y: arith.shift_right_logic_const(bl, x, k), a, 0, 8)
        assert got == a >> k

    @given(st.integers(-128, 127), st.integers(0, 10))
    @settings(max_examples=25, deadline=None)
    def test_shift_right_arithmetic(self, a, k):
        got = run_binary(
            lambda bl, x, y: arith.shift_right_arith_const(bl, x, k), a, 0, 8,
            signed_out=True,
        )
        assert got == a >> k  # python >> is arithmetic on negatives

    def test_negative_shift_rejected(self):
        from repro.errors import CircuitError

        bld = CircuitBuilder()
        a = bld.add_alice_inputs(4)
        with pytest.raises(CircuitError):
            arith.shift_right_logic_const(bld, a, -1)


class TestMultipliers:
    @given(st.integers(0, 63), st.integers(0, 63))
    @settings(max_examples=40, deadline=None)
    def test_unsigned_full(self, a, b):
        assert run_binary(arith.multiply_unsigned, a, b, 6) == a * b

    @given(st.integers(-127, 127), st.integers(-127, 127))
    @settings(max_examples=40, deadline=None)
    def test_fixed_round_toward_zero(self, a, b):
        frac = 4
        got = run_binary(
            lambda bl, x, y: arith.multiply_fixed(bl, x, y, frac), a, b, 8,
            signed_out=True,
        )
        mag = (abs(a) * abs(b)) >> frac
        ref = -mag if (a < 0) != (b < 0) else mag
        assert got == signed(ref, 8)

    def test_max_width_trimming_exact_mod(self):
        for a, b in [(200, 255), (129, 130), (255, 255)]:
            got = run_binary(
                lambda bl, x, y: arith.multiply_unsigned(bl, x, y, max_width=8)[:8],
                a, b, 8,
            )
            assert got == (a * b) & 255


class TestSignMagnitude:
    @given(st.integers(-128, 127))
    @settings(max_examples=25, deadline=None)
    def test_full_range(self, a):
        def build(bl, x, y):
            magnitude, sign = arith.sign_magnitude(bl, x)
            assert len(magnitude) == 8
            return magnitude + [sign]

        got = run_binary(build, a, 0, 8)
        assert got & 255 == abs(a)
        assert got >> 8 == int(a < 0)

    @given(st.integers(-127, 127))
    @settings(max_examples=25, deadline=None)
    def test_symmetric_lane_drops_a_bit(self, a):
        def build(bl, x, y):
            magnitude, sign = arith.sign_magnitude(bl, x, symmetric=True)
            assert len(magnitude) == 7
            return magnitude + [sign]

        got = run_binary(build, a, 0, 8)
        assert got & 127 == abs(a)
        assert got >> 7 == int(a < 0)


class TestDividers:
    @given(st.integers(0, 255), st.integers(1, 255))
    @settings(max_examples=40, deadline=None)
    def test_unsigned_division(self, a, b):
        assert run_binary(arith.divide_unsigned, a, b, 8) == a // b

    @given(st.integers(0, 127), st.integers(1, 127))
    @settings(max_examples=20, deadline=None)
    def test_fractional_quotient_bits(self, a, b):
        frac = 3
        bld = CircuitBuilder()
        xa = bld.add_alice_inputs(7)
        xb = bld.add_bob_inputs(7)
        bld.mark_output_bus(arith.divide_unsigned(bld, xa, xb, n_frac=frac))
        circuit = bld.build()
        bits = simulate(circuit, bits_from_int(a, 7), bits_from_int(b, 7))
        assert int_from_bits(bits) == (a << frac) // b

    @pytest.mark.parametrize("a", [0, 1, 100, 255])
    def test_division_by_zero_is_all_ones(self, a):
        assert run_binary(arith.divide_unsigned, a, 0, 8) == 255


class TestSelectionOps:
    @given(st.integers(-128, 127))
    @settings(max_examples=25, deadline=None)
    def test_relu(self, a):
        got = run_binary(lambda bl, x, y: arith.relu(bl, x), a, 0, 8, signed_out=True)
        assert got == max(0, a)

    def test_relu_non_xor_count(self):
        bld = CircuitBuilder()
        a = bld.add_alice_inputs(16)
        bld.mark_output_bus(arith.relu(bld, a))
        # paper Table 3: 15 non-XOR at 16 bits
        assert bld.build().counts().non_xor == 15

    @given(st.integers(-100, 100), st.integers(-100, 100))
    @settings(max_examples=25, deadline=None)
    def test_maximum(self, a, b):
        assert run_binary(arith.maximum, a, b, 8, signed_out=True) == max(a, b)

    @given(st.integers(-4000, 4000))
    @settings(max_examples=25, deadline=None)
    def test_clamp_signed(self, a):
        got = run_binary(
            lambda bl, x, y: arith.clamp_signed(bl, x, 1000), a, 0, 13,
            signed_out=True,
        )
        assert got == max(-1000, min(1000, a))

    @given(st.integers(-2000, 2000))
    @settings(max_examples=25, deadline=None)
    def test_saturate_to_width(self, a):
        got = run_binary(
            lambda bl, x, y: arith.saturate_to_width(bl, x, 8), a, 0, 12,
            signed_out=True,
        )
        assert got == max(-127, min(127, a))

    @given(st.integers(-32, 31))
    @settings(max_examples=20, deadline=None)
    def test_saturate_narrow_word_sign_extends(self, a):
        got = run_binary(
            lambda bl, x, y: arith.saturate_to_width(bl, x, 8), a, 0, 6,
            signed_out=True,
        )
        assert got == a

    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=25, deadline=None)
    def test_maximum_unsigned(self, a, b):
        got = run_binary(lambda bl, x, y: arith.maximum(bl, x, y, signed=False), a, b, 8)
        assert got == max(a, b)

    def test_sign_extend_and_truncate(self):
        got = run_binary(
            lambda bl, x, y: arith.sign_extend(bl, x, 12), -5, 0, 8, signed_out=True
        )
        assert got == -5
        got = run_binary(
            lambda bl, x, y: arith.truncate(x, 4), 0b10110101, 0, 8
        )
        assert got == 0b0101


class TestMacCell:
    @given(
        st.integers(-100, 100), st.integers(-100, 100), st.integers(-1000, 1000)
    )
    @settings(max_examples=25, deadline=None)
    def test_multiply_accumulate(self, a, b, acc):
        frac = 4
        bld = CircuitBuilder()
        xa = bld.add_alice_inputs(8)
        xb = bld.add_bob_inputs(8)
        xacc = bld.add_state_inputs(16)
        out = arith.multiply_accumulate(bld, xacc, xa, xb, frac)
        bld.mark_output_bus(out)
        circuit = bld.build()
        bits = simulate(
            circuit,
            bits_from_int(a & 255, 8),
            bits_from_int(b & 255, 8),
            bits_from_int(acc & 0xFFFF, 16),
        )
        got = int_from_bits(bits, signed=True)
        mag = (abs(a) * abs(b)) >> frac
        prod = -mag if (a < 0) != (b < 0) else mag
        # the product enters at full precision, not wrapped to 8 bits
        assert got == acc + prod
