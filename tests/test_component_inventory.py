"""The Table 3 component inventory (repro.compile.inventory)."""

import pytest

from repro.circuits import FixedPointFormat
from repro.compile import (
    component_inventory,
    measure_activation_error,
    measured_component_costs,
    render_table3,
)


class TestTable3Report:
    @pytest.fixture(scope="class")
    def rows(self):
        return {r.name: r for r in component_inventory()}

    def test_add_matches_paper_non_xor(self, rows):
        assert rows["ADD"].non_xor == rows["ADD"].paper_non_xor == 16

    def test_relu_matches_paper_non_xor(self, rows):
        assert rows["ReLu"].non_xor == rows["ReLu"].paper_non_xor == 15

    def test_softmax_stage_cost_matches_paper(self, rows):
        # paper: (n-1) * 32 non-XOR; report builds n=10
        assert rows["Softmax10"].non_xor == 9 * 32

    def test_all_ratios_within_3x(self, rows):
        for row in rows.values():
            if row.paper_non_xor:
                assert 0.3 <= row.non_xor / row.paper_non_xor <= 3.0, row.name

    def test_measured_lut_error_is_output_rounding(self):
        fmt = FixedPointFormat(2, 6)
        # the reference is taken at the quantized input, so an exact
        # table's only error is rounding its output
        error = measure_activation_error("TanhLUT", fmt, samples=80)
        assert 0 < error <= fmt.resolution / 2 + 1e-12

    def test_measured_cordic_error_within_table3_bound(self):
        fmt = FixedPointFormat(2, 6)
        full = measure_activation_error("TanhCORDIC", fmt, samples=40)
        near_zero = measure_activation_error("TanhCORDIC", fmt, samples=40, domain=0.5)
        assert full <= 4 * fmt.resolution
        assert near_zero <= full

    def test_render_table(self, rows):
        text = render_table3(list(rows.values()))
        assert "TanhCORDIC" in text and "paper" in text

    def test_measured_costs_price_the_inventory_components(self, rows):
        # the analytic model's per-component costs are the inventory's
        # circuits, built by the same helpers
        costs = measured_component_costs(3, 12)
        for name, cost in (("TanhCORDIC", costs.tanh), ("SigmoidCORDIC", costs.sigmoid),
                           ("ReLu", costs.relu)):
            assert cost == (rows[name].xor, rows[name].non_xor), name
