"""Activation-circuit tests: LUT, truncated, piecewise, CORDIC.

The CORDIC circuits are checked bit-exactly against the integer software
model, and every variant's numeric error against the float reference is
asserted within the bounds our EXPERIMENTS.md reports.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import CircuitBuilder, FixedPointFormat, int_from_bits, simulate
from repro.circuits.activations import (
    VARIANTS,
    csd_digits,
    fit_piecewise,
    hyperbolic_plan,
    rotate_reference,
    sigmoid_plan_spec,
    sigmoid_reference,
    tanh_pl_spec,
    tanh_reference,
)
from repro.circuits.activations.piecewise import (
    constant_multiply_positive,
    quantize_slope_csd,
)
from repro.errors import CircuitError

FMT9 = FixedPointFormat(2, 6)
FMT16 = FixedPointFormat(3, 12)


def _max_error(spec, fn, domain):
    """Max absolute deviation of ``spec`` from ``fn`` over ``[-domain, domain]``."""
    xs = np.linspace(-domain, domain, 20001)
    return float(np.max(np.abs(spec.evaluate(xs) - fn(xs))))


def run_activation(name, value, fmt, **kwargs):
    bld = CircuitBuilder()
    x = bld.add_alice_inputs(fmt.width)
    out = VARIANTS[name](bld, x, fmt, **kwargs)
    bld.mark_output_bus(out)
    circuit = bld.build()
    pattern = fmt.to_unsigned(fmt.encode(value))
    bits = [(pattern >> i) & 1 for i in range(fmt.width)]
    out_bits = simulate(circuit, bits, [])
    raw = int_from_bits(out_bits) & ((1 << fmt.width) - 1)
    return fmt.decode(fmt.from_unsigned(raw))


SWEEP9 = [float(v) for v in np.linspace(-3.9, 3.9, 27)]


class TestLUTVariants:
    @pytest.mark.parametrize("value", SWEEP9)
    def test_tanh_lut_exact(self, value):
        got = run_activation("TanhLUT", value, FMT9)
        encoded = FMT9.decode(FMT9.encode(value))
        assert abs(got - math.tanh(encoded)) <= FMT9.resolution

    @pytest.mark.parametrize("value", SWEEP9)
    def test_sigmoid_lut_exact(self, value):
        got = run_activation("SigmoidLUT", value, FMT9)
        encoded = FMT9.decode(FMT9.encode(value))
        assert abs(got - 1 / (1 + math.exp(-encoded))) <= FMT9.resolution

    def test_truncated_tanh_saturates(self):
        # above the reduced range the output pins to ~1
        got = run_activation("Tanh2.10.12", 3.5, FMT9)
        assert got >= 0.95

    @pytest.mark.parametrize("value", [-2.5, -0.7, 0.0, 0.4, 1.9])
    def test_truncated_error_small(self, value):
        for name, fn in [("Tanh2.10.12", math.tanh),
                         ("Sigmoid3.10.12", lambda v: 1 / (1 + math.exp(-v)))]:
            got = run_activation(name, value, FMT9)
            assert abs(got - fn(value)) <= 0.08

    def test_odd_symmetry(self):
        pos = run_activation("TanhLUT", 1.25, FMT9)
        neg = run_activation("TanhLUT", -1.25, FMT9)
        assert abs(pos + neg) <= FMT9.resolution

    def test_point_symmetry(self):
        pos = run_activation("SigmoidLUT", 0.75, FMT9)
        neg = run_activation("SigmoidLUT", -0.75, FMT9)
        assert abs((pos + neg) - 1.0) <= 2 * FMT9.resolution

    def test_lut_cost_scales_with_index_bits(self):
        def non_xor(name):
            bld = CircuitBuilder()
            x = bld.add_alice_inputs(FMT9.width)
            bld.mark_output_bus(VARIANTS[name](bld, x, FMT9))
            return bld.build().counts().non_xor

        assert non_xor("Tanh2.10.12") < non_xor("TanhLUT")


class TestCSD:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_reconstructs_value(self, value):
        digits = csd_digits(value)
        assert sum(sign << pos for sign, pos in digits) == value

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_no_adjacent_digits(self, value):
        positions = sorted(pos for _, pos in csd_digits(value))
        assert all(b - a >= 2 for a, b in zip(positions, positions[1:]))

    def test_negative_rejected(self):
        with pytest.raises(CircuitError):
            csd_digits(-1)

    def test_quantize_slope_close(self):
        fixed, _ = quantize_slope_csd(0.333, 12, max_digits=4)
        assert abs(fixed / 4096 - 0.333) < 0.01


class TestConstantMultiply:
    @given(st.integers(0, 255), st.integers(0, 4096))
    @settings(max_examples=40, deadline=None)
    def test_matches_integer_reference(self, x, constant):
        frac = 6
        bld = CircuitBuilder()
        xs = bld.add_alice_inputs(8)
        out = constant_multiply_positive(bld, xs, constant, frac, 16)
        bld.mark_output_bus(out)
        circuit = bld.build()
        bits = [(x >> i) & 1 for i in range(8)]
        got = int_from_bits(simulate(circuit, bits, []))
        # CSD sum of shifts: exact product >> frac may differ from
        # truncating each term; compute the same way
        digits = csd_digits(constant)
        expected = 0
        for sign, pos in digits:
            shift = frac - pos
            term = (x >> shift) if shift >= 0 else (x << -shift)
            expected += sign * term
        assert got == expected & 0xFFFF


class TestPiecewise:
    def test_plan_constants_are_amin97(self):
        spec = sigmoid_plan_spec()
        slopes = [seg.slope for seg in spec.segments]
        assert slopes == [0.25, 0.125, 0.03125, 0.0]

    def test_plan_error_matches_published(self):
        # PLAN's known max abs error is 0.0189
        spec = sigmoid_plan_spec()
        err = _max_error(spec, lambda x: 1 / (1 + np.exp(-x)), 8.0)
        assert 0.017 <= err <= 0.020

    def test_tanh_pl_seven_lines(self):
        spec = tanh_pl_spec()
        assert len(spec.segments) == 7
        assert _max_error(spec, np.tanh, 8.0) <= 0.006

    def test_more_segments_reach_paper_error(self):
        spec12 = fit_piecewise(np.tanh, 12, 3.5, 1.0)
        assert _max_error(spec12, np.tanh, 8.0) <= 0.0022  # paper's TanhPL error

    @pytest.mark.parametrize("value", [-3.0, -1.1, -0.2, 0.0, 0.3, 1.4, 2.6, 6.0])
    def test_circuit_matches_spec(self, value):
        spec = tanh_pl_spec(frac_bits=FMT16.frac_bits)
        got = run_activation("TanhPL", value, FMT16)
        encoded = FMT16.decode(FMT16.encode(value))
        ref = float(spec.evaluate(np.array([encoded]))[0])
        assert abs(got - ref) <= 3 * FMT16.resolution

    @pytest.mark.parametrize("value", [-6.0, -2.0, -0.5, 0.0, 0.9, 3.1, 7.0])
    def test_plan_circuit_matches_spec(self, value):
        spec = sigmoid_plan_spec()
        got = run_activation("SigmoidPLAN", value, FMT16)
        encoded = FMT16.decode(FMT16.encode(value))
        ref = float(spec.evaluate(np.array([encoded]))[0])
        assert abs(got - ref) <= 3 * FMT16.resolution

    def test_bad_spec_rejected(self):
        from repro.circuits.activations.piecewise import PiecewiseSpec, Segment

        with pytest.raises(CircuitError):
            PiecewiseSpec("bad", (Segment(1.0, 0.0, 0.0),))
        with pytest.raises(CircuitError):
            PiecewiseSpec(
                "bad",
                (Segment(0.0, 1.0, 0.0), Segment(2.0, 0.5, 0.0)),
                symmetry="weird",
            )


class TestCordic:
    def test_iteration_count_matches_paper(self):
        # paper Sec. 4.2: 14 iterations for 12-bit precision (3i+1 repeats);
        # our plans add the range-expansion stages on top
        plan = hyperbolic_plan(frac_bits=12, expansion=0)
        assert len(plan.stages) == 14

    def test_expansion_extends_domain(self):
        z0 = hyperbolic_plan(12, expansion=0).z_max
        z3 = hyperbolic_plan(12, expansion=3).z_max
        z5 = hyperbolic_plan(12, expansion=5).z_max
        assert z0 < 1.2 and 5.0 < z3 < 5.4 and 9.3 < z5 < 10.0

    def test_rotation_reference_accuracy(self):
        plan = hyperbolic_plan(12, expansion=3)
        scale = plan.internal.scale
        for z in np.linspace(-5.0, 5.0, 21):
            cosh, sinh = rotate_reference(int(z * scale), plan)
            assert abs(cosh / scale - math.cosh(z)) < math.cosh(z) * 0.01 + 0.01
            assert abs(sinh / scale - math.sinh(z)) < abs(math.sinh(z)) * 0.01 + 0.01

    @pytest.mark.parametrize("value", [-6.5, -2.2, -1.0, 0.0, 0.6, 1.9, 4.2, 7.5])
    def test_tanh_circuit_bit_exact_with_reference(self, value):
        plan = hyperbolic_plan(12, expansion=3)
        got = run_activation("TanhCORDIC", value, FMT16)
        assert got == pytest.approx(tanh_reference(value, FMT16, plan), abs=1e-12)

    @pytest.mark.parametrize("value", [-7.0, -3.3, -0.4, 0.0, 1.2, 5.5])
    def test_sigmoid_circuit_bit_exact_with_reference(self, value):
        plan = hyperbolic_plan(12, expansion=5)
        got = run_activation("SigmoidCORDIC", value, FMT16)
        assert got == pytest.approx(sigmoid_reference(value, FMT16, plan), abs=1e-12)

    def test_tanh_error_within_ulps(self):
        plan = hyperbolic_plan(12, expansion=3)
        worst = max(
            abs(tanh_reference(float(v), FMT16, plan) - math.tanh(v))
            for v in np.linspace(-7.99, 7.99, 400)
        )
        assert worst <= 4 * FMT16.resolution

    def test_sigmoid_error_within_ulps(self):
        plan = hyperbolic_plan(12, expansion=5)
        worst = max(
            abs(sigmoid_reference(float(v), FMT16, plan) - 1 / (1 + math.exp(-v)))
            for v in np.linspace(-7.99, 7.99, 400)
        )
        assert worst <= 3 * FMT16.resolution

    def test_bad_z_width_rejected(self):
        from repro.circuits.activations.cordic import cordic_sinh_cosh

        plan = hyperbolic_plan(8, expansion=2)
        bld = CircuitBuilder()
        z = bld.add_alice_inputs(4)
        with pytest.raises(CircuitError):
            cordic_sinh_cosh(bld, z, plan)
