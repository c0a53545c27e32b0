"""Table 4: the four benchmarks without pre-processing.

Gate counts from the analytic model with the paper's Table 3 component
costs must land on the published values (this is how the paper's own
numbers compose); the same architectures under *our measured* component
costs show the preserved shape at a ~2.1x constant factor (2.5x before
the carry-save dot unit).  The factor is not slack in the netlists:
Table 3's ``MULT = 212`` is what a synthesised multiplier modulo 2^16
costs (241 here before synthesis, ``MULTwrap`` in the Table 3 report),
while ``fixed_mul`` is an exact 1.3.12 product truncated toward zero,
whose 15 x 15 magnitude array alone is 435 (DESIGN.md #4).
"""


from repro.compile import (
    GCCostModel,
    PAPER_COMPONENT_COSTS,
    PAPER_TABLE4,
    architecture_counts,
    measured_component_costs,
)
from repro.zoo import PAPER_ARCHITECTURES

from _bench_util import write_report


def _rows(costs):
    model = GCCostModel()
    rows = {}
    for name, arch in PAPER_ARCHITECTURES.items():
        rows[name] = model.breakdown(architecture_counts(arch, costs))
    return rows


def test_table4_paper_costs(benchmark, results_dir):
    rows = benchmark(lambda: _rows(PAPER_COMPONENT_COSTS))
    lines = [
        f"{'bench':<12}{'XOR':>11}{'non-XOR':>11}{'comm MB':>10}"
        f"{'comp s':>9}{'exec s':>9}   paper exec"
    ]
    for name, row in rows.items():
        paper = PAPER_TABLE4[name]
        lines.append(
            f"{name:<12}{row.xor:>11.3e}{row.non_xor:>11.3e}"
            f"{row.comm_mb:>10.1f}{row.computation_s:>9.2f}"
            f"{row.execution_s:>9.2f}   {paper[5]}"
        )
        assert abs(row.xor - paper[1]) / paper[1] < 0.01, name
        assert abs(row.non_xor - paper[2]) / paper[2] < 0.01, name
        assert abs(row.comm_mb - paper[3]) / paper[3] < 0.01, name
        assert abs(row.computation_s - paper[4]) / paper[4] < 0.01, name
        assert abs(row.execution_s - paper[5]) / paper[5] < 0.01, name
    write_report(results_dir, "table4_paper_costs", "\n".join(lines))


def test_table4_measured_costs(benchmark, results_dir):
    """Same architectures under our netlist-measured component costs."""
    costs = measured_component_costs(3, 12)
    rows = benchmark(lambda: _rows(costs))
    paper_mac = PAPER_COMPONENT_COSTS.mac_non_xor_per_element
    lines = [
        f"non-XOR per MAC: {costs.mac_non_xor_per_element:.0f} here "
        f"(exact product, truncated toward zero) vs {paper_mac:.0f} in Table 3 "
        f"(product modulo 2^16): {costs.mac_non_xor_per_element / paper_mac:.2f}x",
        f"{'bench':<12}{'non-XOR':>12}{'exec s':>10}{'ratio vs paper':>16}",
    ]
    for name, row in rows.items():
        paper_exec = PAPER_TABLE4[name][5]
        ratio = row.execution_s / paper_exec
        lines.append(
            f"{name:<12}{row.non_xor:>12.3e}{row.execution_s:>10.2f}{ratio:>16.2f}"
        )
        # shape preserved: the per-MAC factor, same ordering
        assert 1.9 <= ratio <= 2.3, (name, ratio)
    ordering = [rows[n].execution_s for n in
                ("benchmark3", "benchmark1", "benchmark2", "benchmark4")]
    assert ordering == sorted(ordering)
    write_report(results_dir, "table4_measured_costs", "\n".join(lines))


def test_benchmark1_arithmetic_discrepancy(benchmark, results_dir):
    """DESIGN.md discrepancy #1: the paper's 865 vs the correct 845."""
    from repro.zoo import benchmark1_architecture

    paper = benchmark(
        lambda: architecture_counts(benchmark1_architecture(paper_arithmetic=True))
    )
    fixed = architecture_counts(benchmark1_architecture(paper_arithmetic=False))
    assert paper.non_xor > fixed.non_xor
    delta = (paper.non_xor - fixed.non_xor) / paper.non_xor
    write_report(
        results_dir,
        "table4_b1_discrepancy",
        f"B1 non-XOR with paper arithmetic (865): {paper.non_xor:.4e}\n"
        f"B1 non-XOR structurally correct (845):  {fixed.non_xor:.4e}\n"
        f"relative inflation in the published row: {delta:.2%}",
    )
