"""Tests for the extension features: sigmoid-via-tanh variant, per-layer
compiler reports, exhaustive activation sweeps."""

import math

import numpy as np
import pytest

from repro.circuits import CircuitBuilder, FixedPointFormat, int_from_bits, simulate
from repro.circuits.activations import (
    VARIANTS,
    hyperbolic_plan,
    sigmoid_cordic_via_tanh,
    sigmoid_via_tanh_reference,
)
from repro.compile import CompileOptions, compile_model
from repro.nn import Dense, QuantizedModel, Sequential, Tanh, activation_table

FMT9 = FixedPointFormat(2, 6)
FMT16 = FixedPointFormat(3, 12)


def run_circuit(build, fmt, pattern):
    bld = CircuitBuilder()
    x = bld.add_alice_inputs(fmt.width)
    bld.mark_output_bus(build(bld, x, fmt))
    circuit = bld.build()
    bits = [(pattern >> i) & 1 for i in range(fmt.width)]
    out = simulate(circuit, bits, [])
    return int_from_bits(out) & ((1 << fmt.width) - 1)


class TestSigmoidViaTanh:
    @pytest.mark.parametrize("value", [-7.5, -2.0, -0.3, 0.0, 0.7, 3.5, 6.0])
    def test_circuit_bit_exact_with_reference(self, value):
        plan = hyperbolic_plan(12, expansion=3)
        pattern = FMT16.to_unsigned(FMT16.encode(value))
        got = FMT16.decode(
            FMT16.from_unsigned(
                run_circuit(sigmoid_cordic_via_tanh, FMT16, pattern)
            )
        )
        ref = sigmoid_via_tanh_reference(value, FMT16, plan)
        assert got == pytest.approx(ref, abs=1e-12)

    def test_error_within_ulps(self):
        plan = hyperbolic_plan(12, expansion=3)
        worst = max(
            abs(sigmoid_via_tanh_reference(float(v), FMT16, plan)
                - 1 / (1 + math.exp(-v)))
            for v in np.linspace(-7.99, 7.99, 500)
        )
        assert worst <= 3 * FMT16.resolution

    def test_cheaper_than_direct_sigmoid(self):
        def count(name):
            bld = CircuitBuilder()
            x = bld.add_alice_inputs(FMT16.width)
            bld.mark_output_bus(VARIANTS[name](bld, x, FMT16))
            return bld.build().counts().non_xor

        assert count("SigmoidCORDICviaTanh") < 0.75 * count("SigmoidCORDIC")

    def test_registered_in_variants(self):
        assert "SigmoidCORDICviaTanh" in VARIANTS

    def test_in_table3_report(self):
        from repro.synthesis import component_inventory

        names = {r.name for r in component_inventory(FMT9)}
        assert "SigmoidCORDICviaTanh" in names


class TestExhaustiveActivationSweep:
    """Every representable 9-bit input, circuit vs quantized table."""

    @pytest.mark.parametrize("kind,name", [("tanh", "TanhLUT"),
                                           ("sigmoid", "SigmoidLUT")])
    def test_exact_lut_full_domain(self, kind, name):
        table = activation_table(kind, FMT9, "exact")
        bld = CircuitBuilder()
        x = bld.add_alice_inputs(FMT9.width)
        bld.mark_output_bus(VARIANTS[name](bld, x, FMT9))
        circuit = bld.build()
        mask = (1 << FMT9.width) - 1
        high = (1 << (FMT9.width - 1)) - 1
        for pattern in range(1 << FMT9.width):
            signed = FMT9.from_unsigned(pattern)
            if abs(signed) > high - 1:
                continue  # encoder never produces the saturation edge
            bits = [(pattern >> i) & 1 for i in range(FMT9.width)]
            got = int_from_bits(simulate(circuit, bits, [])) & mask
            assert FMT9.from_unsigned(got) == table[pattern], pattern

    def test_cordic_full_domain(self):
        table = activation_table("tanh", FMT9, "cordic")
        bld = CircuitBuilder()
        x = bld.add_alice_inputs(FMT9.width)
        bld.mark_output_bus(VARIANTS["TanhCORDIC"](bld, x, FMT9))
        circuit = bld.build()
        mask = (1 << FMT9.width) - 1
        high = (1 << (FMT9.width - 1)) - 1
        for pattern in range(0, 1 << FMT9.width, 3):
            signed = FMT9.from_unsigned(pattern)
            if abs(signed) > high - 1:
                continue
            bits = [(pattern >> i) & 1 for i in range(FMT9.width)]
            got = int_from_bits(simulate(circuit, bits, [])) & mask
            assert FMT9.from_unsigned(got) == table[pattern], pattern


class TestLayerReport:
    @pytest.fixture(scope="class")
    def compiled(self):
        model = Sequential([Dense(4), Tanh(), Dense(3)], input_shape=(5,), seed=0)
        quantized = QuantizedModel(model, FMT9, activation_variant="exact")
        return compile_model(
            quantized, CompileOptions(activation="exact", output="argmax")
        )

    def test_one_row_per_step_plus_output(self, compiled):
        labels = [row[0] for row in compiled.layer_report]
        assert labels == ["0:dense", "1:tanh", "2:dense", "output:argmax"]

    def test_rows_sum_to_totals(self, compiled):
        counts = compiled.circuit.counts()
        assert sum(row[1] for row in compiled.layer_report) == counts.xor
        assert sum(row[2] for row in compiled.layer_report) == counts.non_xor

    def test_dense_dominates(self, compiled):
        by_name = {row[0]: row[2] for row in compiled.layer_report}
        assert by_name["0:dense"] > by_name["output:argmax"]

    def test_levels_chain_to_the_schedule_depth(self, compiled):
        """Each row enters the AND layer the one before left, and the
        last one leaves at the netlist's AND-depth: the level count the
        engine walks, less the free tail."""
        rows = compiled.layer_report
        assert rows[0][3] == 0
        assert [row[3] for row in rows[1:]] == [row[4] for row in rows[:-1]]
        assert all(row[4] > row[3] for row in rows)
        assert rows[-1][4] == compiled.circuit.depth()
        assert rows[-1][4] + 1 == len(compiled.circuit.level_schedule().levels)

    def test_render(self, compiled):
        text = compiled.render_layer_report()
        assert "0:dense" in text and "non-XOR" in text and "levels" in text
