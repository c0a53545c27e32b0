"""The carry-save dot-product unit against the integer reference, its
operand contract, and the shape ceilings that keep depth from creeping
back.  Sweeps run every input pattern at once: the gate functions are
bitwise, so a wire can carry a NumPy vector of patterns."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import CircuitBuilder, FixedPointFormat, arith
from repro.circuits.netlist import CONST_ONE, CONST_ZERO
from repro.compile import CompileOptions, compile_model, folded_mac_cell
from repro.compile.compiler import dot_unit
from repro.compile.gatecount import measured_component_costs
from repro.nn import Dense, QuantizedModel, Sequential, Tanh, fixed_mul, quantize
from repro.nn.quantize import saturate


def words(values, width):
    """``(word vector, width)`` per row of ``values``, for :func:`sweep`."""
    values = np.asarray(values, dtype=np.int64)
    return [(row, width) for row in values.reshape(-1, values.shape[-1])]


def sweep(circuit, alice, bob, signed_out, outputs=None):
    """The output word for every pattern at once.

    ``alice`` / ``bob``: the party's input words in wire order, each a
    ``(vector of patterns, width)`` pair; ``outputs``: the wires of the
    word to decode (default: all of the circuit's outputs)."""
    outputs = circuit.outputs if outputs is None else outputs
    n = len((alice + bob)[0][0])
    values = {
        CONST_ZERO: np.zeros(n, dtype=np.uint8),
        CONST_ONE: np.ones(n, dtype=np.uint8),
    }
    rows = [
        ((word >> i) & 1).astype(np.uint8)
        for word, width in alice + bob
        for i in range(width)
    ]
    inputs = list(circuit.alice_inputs) + list(circuit.bob_inputs)
    assert len(rows) == len(inputs)
    values.update(zip(inputs, rows))
    for gate in circuit.gates:
        if gate.b is None:
            values[gate.out] = gate.op.eval(values[gate.a])
        else:
            values[gate.out] = gate.op.eval(values[gate.a], values[gate.b])
    out = np.zeros(n, dtype=np.int64)
    for i, wire in enumerate(outputs):
        out |= values[wire].astype(np.int64) << i
    if signed_out:
        top = len(outputs) - 1
        out -= ((out >> top) & 1) << (top + 1)
    return out


@functools.lru_cache(maxsize=None)
def unit_circuit(fmt, fan_in, with_bias, symmetric=True):
    builder = CircuitBuilder()
    x = builder.add_alice_inputs(fan_in * fmt.width)
    w = builder.add_bob_inputs((fan_in + with_bias) * fmt.width)

    def split(bits, count):
        return [bits[k * fmt.width : (k + 1) * fmt.width] for k in range(count)]

    bias = split(w, fan_in + 1)[-1] if with_bias else None
    builder.mark_output_bus(
        dot_unit(
            builder, fmt, split(x, fan_in), split(w, fan_in), bias, symmetric
        )
    )
    return builder.build()


def reference(fmt, x, w, bias=None):
    total = fixed_mul(x, w, fmt.frac_bits).sum(axis=0)
    return saturate(total if bias is None else total + bias, fmt)


def run_unit(fmt, x, w, bias=None, symmetric=True):
    """``x``, ``w``: ``(fan_in, patterns)``; ``bias``: ``(patterns,)``."""
    circuit = unit_circuit(fmt, len(x), bias is not None, symmetric)
    bob = w if bias is None else np.vstack([w, bias[None, :]])
    return sweep(
        circuit, words(x, fmt.width), words(bob, fmt.width), signed_out=True
    )


class TestDotUnitProperty:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_the_integer_reference(self, data):
        width = data.draw(st.integers(4, 10), label="width")
        frac = data.draw(st.integers(0, width - 1), label="frac_bits")
        fan_in = data.draw(st.integers(1, 9), label="fan_in")
        with_bias = data.draw(st.booleans(), label="bias")
        fmt = FixedPointFormat(width - 1 - frac, frac)
        high = (1 << (width - 1)) - 1
        # every third word is a bound or zero, the rest uniform
        word = st.sampled_from([-high, 0, high]) | st.integers(-high, high)
        patterns = 24
        block = st.lists(
            st.lists(word, min_size=patterns, max_size=patterns),
            min_size=fan_in, max_size=fan_in,
        )
        x = np.array(data.draw(block, label="x"), dtype=np.int64)
        w = np.array(data.draw(block, label="w"), dtype=np.int64)
        # two patterns that push the sum as far as it goes, each way
        x[:, 0] = x[:, 1] = high
        w[:, 0], w[:, 1] = high, -high
        bias = None
        if with_bias:
            bias = np.array(
                data.draw(st.lists(word, min_size=patterns, max_size=patterns)),
                dtype=np.int64,
            )
            bias[0], bias[1] = high, -high
        expected = reference(fmt, x, w, bias)
        assert np.array_equal(run_unit(fmt, x, w, bias), expected)

    @pytest.mark.parametrize("frac", [0, 1, 2, 3])
    def test_saturates_at_both_bounds(self, frac):
        fmt = FixedPointFormat(3 - frac, frac)
        high = 7
        x = np.full((9, 2), high)
        w = np.stack([np.full(9, high), np.full(9, -high)], axis=1)
        assert list(run_unit(fmt, x, w)) == [high, -high]

    @pytest.mark.parametrize("frac", [0, 1, 2, 3])
    def test_exhaustive_at_width_four(self, frac):
        """Every operand pair, then every pair of pairs, under every bias."""
        fmt = FixedPointFormat(3 - frac, frac)
        span = np.arange(-7, 8)
        for fan_in in (1, 2):
            grid = np.array(
                list(itertools.product(span, repeat=2 * fan_in)), dtype=np.int64
            ).T
            x, w = grid[:fan_in], grid[fan_in:]
            assert np.array_equal(run_unit(fmt, x, w), reference(fmt, x, w))
            for bias in span:
                b = np.full(grid.shape[1], bias)
                assert np.array_equal(
                    run_unit(fmt, x, w, b), reference(fmt, x, w, b)
                )


class TestOperandContract:
    FMT = FixedPointFormat(2, 3)

    def test_full_range_lane_is_exact_at_the_minimum(self):
        """``symmetric=False`` keeps the top magnitude bit: the pattern
        ``-2**(width-1)`` multiplies as the number it is."""
        fmt = self.FMT
        low = -(1 << (fmt.width - 1))
        x = np.array([[low, low, low, 5]])
        w = np.array([[31, -31, 1, -31]])
        got = run_unit(fmt, x, w, symmetric=False)
        assert np.array_equal(got, reference(fmt, x, w))

    def test_minimum_reads_as_zero_on_a_symmetric_lane(self):
        """The documented behaviour outside the caller's statement: a
        narrowed lane drops the bit that tells ``-2**(width-1)`` from 0."""
        fmt = self.FMT
        low = -(1 << (fmt.width - 1))
        x = np.array([[low, low], [9, 9]])
        w = np.array([[31, -31], [8, 8]])
        zeroed = np.array([[0, 0], [9, 9]])
        assert np.array_equal(run_unit(fmt, x, w), reference(fmt, zeroed, w))
        # and a weight lane, which is always symmetric
        assert np.array_equal(
            run_unit(fmt, w, x, symmetric=False), reference(fmt, w, zeroed)
        )

    def test_activation_reaching_the_minimum_keeps_the_bit(self, monkeypatch):
        """A non-linearity whose table goes down to ``-2**(width-1)``
        fails the compiler's range check, so the layer that reads it
        multiplies full-width magnitudes and stays bit-exact."""
        fmt = FixedPointFormat(2, 4)
        low = -(1 << (fmt.width - 1))

        def floor_negative(builder, x, fmt):
            """``x`` if ``x >= 0`` else ``-2**(width-1)``."""
            return [builder.emit_andn(bit, x[-1]) for bit in x[:-1]] + [x[-1]]

        from repro.circuits.activations import VARIANT_CIRCUITS, VARIANTS

        monkeypatch.setitem(VARIANTS, "Floor", floor_negative)
        monkeypatch.setitem(
            VARIANT_CIRCUITS, "floor", {"tanh": "Floor", "sigmoid": "Floor"}
        )
        monkeypatch.setattr(
            quantize, "ACTIVATION_VARIANTS", quantize.ACTIVATION_VARIANTS + ("floor",)
        )
        monkeypatch.setattr(
            quantize, "_CIRCUIT_TABLE_VARIANTS",
            quantize._CIRCUIT_TABLE_VARIANTS + ("floor",),
        )
        monkeypatch.setattr(quantize, "_TABLE_CACHE", {})
        assert quantize.activation_table("tanh", fmt, "floor").min() == low

        model = Sequential([Dense(4), Tanh(), Dense(3)], input_shape=(5,), seed=3)
        quantized = QuantizedModel(model, fmt, activation_variant="floor")
        compiled = compile_model(
            quantized, CompileOptions(activation="floor", output="logits")
        )
        rng = np.random.default_rng(0)
        x = fmt.encode_array(rng.uniform(-3, 3, size=(40, 5)))
        hidden = quantized.steps[0][1].forward(x)
        assert (hidden < 0).any()  # the minimum does reach the second layer
        server = np.array(compiled.weight_values, dtype=np.int64)[:, None]
        expected = quantized.forward_fixed(x)
        for k in range(3):
            got = sweep(
                compiled.circuit,
                words(x.T, fmt.width),
                words(np.repeat(server, len(x), axis=1), fmt.width),
                signed_out=True,
                outputs=compiled.circuit.output_names[f"logit{k}"],
            )
            assert np.array_equal(got, expected[:, k])
        # the second layer's lanes kept their top bit: 7 x 6 arrays where
        # the first layer, fed encoded features, has 6 x 6
        first, _, second = (row[2] for row in compiled.layer_report)
        per_mac = measured_component_costs(fmt.int_bits, fmt.frac_bits)
        assert second / (4 * 3) > first / (5 * 4) > per_mac.mac_non_xor_per_element - 8


class TestSaturation:
    @pytest.mark.parametrize("wide,width", [(6, 4), (8, 5), (9, 4), (4, 4)])
    def test_exhaustively_equal_to_quantize_saturate(self, wide, width):
        builder = CircuitBuilder()
        a = builder.add_alice_inputs(wide)
        builder.mark_output_bus(arith.saturate_to_width(builder, a, width))
        values = np.arange(-(1 << (wide - 1)), 1 << (wide - 1))
        got = sweep(builder.build(), words(values, wide), [], signed_out=True)
        fmt = FixedPointFormat(width - 1, 0)
        assert np.array_equal(got, saturate(values, fmt))

    def test_cost_and_depth(self):
        """17 -> 9 bits was two comparators in series: 58 tables on 79
        levels.  The engine walks one level per AND layer, plus the
        free tail."""
        builder = CircuitBuilder()
        a = builder.add_alice_inputs(17)
        builder.mark_output_bus(arith.saturate_to_width(builder, a, 9))
        circuit = builder.build()
        assert circuit.counts().non_xor == 17 + 9 - 2
        assert circuit.depth() <= 6
        assert len(circuit.level_schedule().levels) == circuit.depth() + 1


class TestBlocksExhaustive:
    """Small-width sweeps of the blocks the heap rebuilt or sits next
    to; the gate counts are the module table's."""

    @staticmethod
    def binary(build, width):
        builder = CircuitBuilder()
        a = builder.add_alice_inputs(width)
        b = builder.add_bob_inputs(width)
        out = build(builder, a, b)
        builder.mark_output_bus([out] if isinstance(out, int) else out)
        span = np.arange(1 << width)
        pairs = np.array(list(itertools.product(span, span)), dtype=np.int64).T
        circuit = builder.build()
        got = sweep(
            circuit, words(pairs[0], width), words(pairs[1], width), signed_out=False
        )
        return circuit, pairs[0], pairs[1], got

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
    def test_multiply_unsigned(self, width):
        circuit, a, b, got = self.binary(arith.multiply_unsigned, width)
        assert np.array_equal(got, a * b)
        assert circuit.counts().non_xor == 2 * width * width - width

    @pytest.mark.parametrize("width", [2, 3, 4, 5])
    @pytest.mark.parametrize("shift", [1, 2, 3])
    def test_multiply_unsigned_shifted_and_trimmed(self, width, shift):
        _, a, b, got = self.binary(
            lambda bl, x, y: arith.multiply_unsigned(bl, x, y, shift=shift), width
        )
        assert np.array_equal(got, (a * b) >> shift)
        limit = width + 1
        _, a, b, got = self.binary(
            lambda bl, x, y: arith.multiply_unsigned(
                bl, x, y, max_width=limit, shift=shift
            ),
            width,
        )
        assert np.array_equal(got, ((a * b) % (1 << limit)) >> shift)

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
    def test_ripple_add(self, width):
        circuit, a, b, got = self.binary(
            lambda bl, x, y: arith.ripple_add(bl, x, y, with_cout=True), width
        )
        assert np.array_equal(got, a + b)
        assert circuit.counts().non_xor == width

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
    def test_less_than(self, width):
        circuit, a, b, got = self.binary(arith.less_than, width)
        assert np.array_equal(got, (a < b).astype(np.int64))
        assert circuit.counts().non_xor == width

    def test_heap_sums_signed_words_of_mixed_width(self):
        """Words narrower than the heap enter without sign-extension
        columns; the constants they leave behind are folded into one."""
        builder = CircuitBuilder()
        a = builder.add_alice_inputs(3 + 4)
        b = builder.add_bob_inputs(5)
        heap = arith.BitHeap(builder, 7)
        heap.add_signed(a[:3])
        heap.add_signed(a[3:])
        heap.add_signed(b)
        heap.constant -= 5
        builder.mark_output_bus(heap.sum())
        circuit = builder.build()
        grid = np.array(
            list(itertools.product(range(-4, 4), range(-8, 8), range(-16, 16))),
            dtype=np.int64,
        ).T
        got = sweep(
            circuit, [(grid[0], 3), (grid[1], 4)], [(grid[2], 5)], signed_out=True
        )
        assert np.array_equal(got, grid.sum(axis=0) - 5)


class TestShapeCeilings:
    """AND layers are oracle calls and NumPy dispatch, tables are bytes:
    the numbers this construction reached, with a little headroom."""

    def test_demo_net(self):
        from repro.cli import _demo_service

        service, _ = _demo_service()
        try:
            circuit = service.compiled.circuit
        finally:
            service.close()
        assert len(circuit.level_schedule().levels) <= 90
        assert circuit.counts().non_xor <= 12_100

    def test_folded_cell(self):
        core = folded_mac_cell(FixedPointFormat(3, 12), 16).core
        assert len(core.level_schedule().levels) <= 38
        assert core.counts().non_xor <= 3_900

    def test_mac_at_the_paper_format(self):
        costs = measured_component_costs(3, 12)
        assert costs.mac_non_xor_per_element <= 500
