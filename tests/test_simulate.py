"""Tests for the plaintext simulator and bit conversions."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import (
    CircuitBuilder,
    bits_from_int,
    int_from_bits,
    simulate,
)


class TestBitConversions:
    @given(st.integers(0, 2 ** 16 - 1))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_unsigned(self, value):
        assert int_from_bits(bits_from_int(value, 16)) == value

    @given(st.integers(-(2 ** 15), 2 ** 15 - 1))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_signed(self, value):
        assert int_from_bits(bits_from_int(value, 16), signed=True) == value

    def test_lsb_first(self):
        assert bits_from_int(0b110, 4) == [0, 1, 1, 0]

    def test_empty(self):
        assert int_from_bits([]) == 0


class TestSimulate:
    def test_constants_available(self):
        bld = CircuitBuilder()
        a = bld.add_alice_inputs(1)
        bld.mark_output(bld.zero)
        bld.mark_output(bld.one)
        bld.mark_output(a[0])
        assert simulate(bld.build(), [1], []) == [0, 1, 1]

    def test_state_bits(self):
        bld = CircuitBuilder()
        a = bld.add_alice_inputs(1)
        s = bld.add_state_inputs(1)
        bld.mark_output(bld.emit_xor(a[0], s[0]))
        circuit = bld.build()
        assert simulate(circuit, [1], [], [1]) == [0]
        assert simulate(circuit, [1], [], [0]) == [1]

    def test_output_can_be_input_wire(self):
        bld = CircuitBuilder()
        a = bld.add_alice_inputs(2)
        bld.mark_output(a[1])
        bld.mark_output(bld.emit_and(a[0], a[1]))
        assert simulate(bld.build(), [1, 1], []) == [1, 1]


