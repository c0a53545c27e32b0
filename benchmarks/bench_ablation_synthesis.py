"""Ablation: the synthesis-style optimizations DESIGN.md calls out.

Quantifies what each GC-oriented optimization buys on representative
netlists — the reproduction analogue of the paper's "GC-optimized
library" claim (Sec. 3.4).  ``CircuitBuilder`` is the synthesis step: it
folds constants and hashes structure as it emits each gate.

* structural hashing (CSE) on/off;
* constant folding on/off;
* sequential folding vs combinational unrolling (memory footprint,
  Sec. 3.5);
* the generalized half-gates basis (non-XOR invariance of lowering).
"""


from repro.circuits import CircuitBuilder, FixedPointFormat
from repro.circuits.activations import tanh_lut
from repro.circuits.arith import multiply_fixed, ripple_add
from repro.circuits.arith import multiply_accumulate
from repro.circuits.bristol import lower_to_gc_basis
from repro.circuits.sequential import SequentialBuilder

from _bench_util import write_report

FMT = FixedPointFormat(3, 12)


def _mult_counts(hashing, folding):
    bld = CircuitBuilder(use_structural_hashing=hashing, fold_constants=folding)
    a = bld.add_alice_inputs(FMT.width)
    b = bld.add_bob_inputs(FMT.width)
    bld.mark_output_bus(multiply_fixed(bld, a, b, FMT.frac_bits))
    return bld.build().counts()


def test_ablation_builder_optimizations(benchmark, results_dir):
    rows = benchmark.pedantic(
        lambda: {
            (h, f): _mult_counts(h, f)
            for h in (True, False)
            for f in (True, False)
        },
        rounds=1, iterations=1,
    )
    baseline = rows[(True, True)].non_xor
    lines = [f"{'hashing':<9}{'folding':<9}{'XOR':>8}{'non-XOR':>9}{'vs opt':>8}"]
    for (h, f), counts in rows.items():
        lines.append(
            f"{str(h):<9}{str(f):<9}{counts.xor:>8}{counts.non_xor:>9}"
            f"{counts.non_xor / baseline:>8.2f}"
        )
    write_report(results_dir, "ablation_builder", "\n".join(lines))
    # folding must help (constant partial products disappear)
    assert rows[(True, False)].non_xor >= rows[(True, True)].non_xor
    assert rows[(False, False)].non_xor >= rows[(True, True)].non_xor


def test_ablation_lut_hashing(benchmark, results_dir):
    """Structural hashing is what makes monotone LUTs compact — the 47x
    TanhLUT finding in EXPERIMENTS.md."""
    small = FixedPointFormat(3, 8)  # 12-bit: saturated tail dedups

    def build(hashing):
        bld = CircuitBuilder(use_structural_hashing=hashing)
        x = bld.add_alice_inputs(small.width)
        bld.mark_output_bus(tanh_lut(bld, x, small))
        return bld.build().counts()

    hashed = benchmark.pedantic(lambda: build(True), rounds=1, iterations=1)
    unhashed = build(False)
    write_report(
        results_dir,
        "ablation_lut_hashing",
        f"TanhLUT (1.3.8): hashed {hashed.non_xor} non-XOR, "
        f"unhashed {unhashed.non_xor} non-XOR "
        f"({unhashed.non_xor / max(hashed.non_xor,1):.1f}x reduction)",
    )
    assert hashed.non_xor * 2 <= unhashed.non_xor


def test_ablation_sequential_vs_unrolled(benchmark, results_dir):
    """Sec. 3.5: the folded MAC keeps netlist memory constant while the
    unrolled one grows linearly with the vector length."""
    def folded():
        bld = SequentialBuilder()
        x = bld.add_alice_inputs(8)
        w = bld.add_bob_inputs(8)
        acc = bld.add_registers(20)
        total = multiply_accumulate(bld, acc, x, w, frac_bits=4)
        bld.bind_registers(acc, total)
        bld.mark_output_bus(total)
        return bld.build_sequential()

    seq = benchmark.pedantic(folded, rounds=1, iterations=1)
    core_gates = len(seq.core.gates)
    rows = [f"folded core: {core_gates} gates (constant for any vector length)"]
    for cycles in (4, 16, 64):
        unrolled = seq.unroll(cycles)
        rows.append(
            f"unrolled x{cycles:<3}: {len(unrolled.gates)} gates"
        )
        assert len(unrolled.gates) == cycles * core_gates
    write_report(results_dir, "ablation_sequential", "\n".join(rows))


def test_ablation_gc_basis_lowering(benchmark, results_dir):
    """Any netlist lowers to {XOR, XNOR, NOT, AND} without extra tables
    (generalized half-gates makes OR/NAND/... cost-equal)."""
    bld = CircuitBuilder(fold_constants=False, use_structural_hashing=False)
    a = bld.add_alice_inputs(FMT.width)
    b = bld.add_bob_inputs(FMT.width)
    bld.mark_output_bus(ripple_add(bld, a, b))
    import random

    rng = random.Random(0)
    wires = list(a) + list(b)
    for _ in range(60):
        op = rng.choice(["or", "nand", "nor", "andn"])
        wires.append(getattr(bld, f"emit_{op}")(rng.choice(wires), rng.choice(wires)))
    bld.mark_output(wires[-1])
    circuit = bld.build()
    lowered = benchmark(lambda: lower_to_gc_basis(circuit))
    write_report(
        results_dir,
        "ablation_basis",
        f"mixed-basis: {circuit.counts().non_xor} non-XOR -> "
        f"lowered: {lowered.counts().non_xor} non-XOR",
    )
    assert lowered.counts().non_xor <= circuit.counts().non_xor
