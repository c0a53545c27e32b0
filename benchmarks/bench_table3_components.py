"""Table 3: GC-optimized circuit components (XOR / non-XOR / error).

Regenerates the component inventory — including the full-domain 16-bit
LUT variants — and compares against the published counts.  Notable
reproduction finding: our mux-tree LUTs with structural hashing come in
*far below* the paper's LUT rows (monotone tables deduplicate massively),
while MULT/DIV land within 1.5-2.5x.
"""

import pytest

from repro.circuits import FixedPointFormat
from repro.compile import (
    PAPER_TABLE3,
    component_inventory,
    measure_activation_error,
    render_table3,
)

from _bench_util import write_report


@pytest.fixture(scope="module")
def inventory():
    return component_inventory(
        FixedPointFormat(3, 12), include_full_luts=True, measure_errors=False
    )


def test_table3_report(benchmark, inventory, results_dir):
    rows = benchmark.pedantic(
        lambda: component_inventory(FixedPointFormat(3, 12)),
        rounds=1, iterations=1,
    )
    write_report(results_dir, "table3_components", render_table3(inventory))


def test_add_and_relu_match_paper_exactly(benchmark, inventory):
    by_name = benchmark(lambda: {r.name: r for r in inventory})
    assert by_name["ADD"].non_xor == PAPER_TABLE3["ADD"][1]
    assert by_name["ReLu"].non_xor == PAPER_TABLE3["ReLu"][1]


def test_arithmetic_within_3x_of_paper(benchmark, inventory):
    by_name = benchmark(lambda: {r.name: r for r in inventory})
    for name in ("MULT", "DIV", "TanhCORDIC", "SigmoidCORDIC",
                 "Tanh2.10.12", "Sigmoid3.10.12", "TanhPL", "SigmoidPLAN"):
        ratio = by_name[name].non_xor / PAPER_TABLE3[name][1]
        assert 0.3 <= ratio <= 3.0, (name, ratio)


def test_full_luts_beat_paper(benchmark, inventory):
    benchmark(lambda: {r.name: r for r in inventory})
    """Monotone-table dedup: our LUTs need far fewer garbled tables."""
    by_name = {r.name: r for r in inventory}
    assert by_name["TanhLUT"].non_xor < PAPER_TABLE3["TanhLUT"][1] / 10
    assert by_name["SigmoidLUT"].non_xor < PAPER_TABLE3["SigmoidLUT"][1] / 10


def test_activation_errors_measured(benchmark, results_dir):
    """The Table 3 'error' column, measured by simulating each variant."""
    fmt = FixedPointFormat(3, 12)
    rows = []
    expectations = {
        "TanhCORDIC": 4 * fmt.resolution,
        "SigmoidCORDIC": 3 * fmt.resolution,
        "Tanh2.10.12": 0.002,
        "Sigmoid3.10.12": 0.002,
        "TanhPL": 0.007,
        "SigmoidPLAN": 0.021,
    }

    def run():
        measured = {}
        for name, bound in expectations.items():
            error = measure_activation_error(name, fmt, samples=160)
            measured[name] = error
            assert error <= bound, (name, error, bound)
        return measured

    measured = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"{'variant':<16}{'max error':>12}  paper"]
    for name, error in measured.items():
        paper = PAPER_TABLE3[name][2]
        lines.append(f"{name:<16}{error:>12.2e}  {paper}")
    write_report(results_dir, "table3_errors", "\n".join(lines))
