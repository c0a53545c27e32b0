"""Synthesis tests: optimization passes, Table 3 report."""

import random

import pytest

from repro.circuits import CircuitBuilder, simulate
from repro.circuits.gates import GateType
from repro.synthesis import (
    component_inventory,
    deduplicate_gates,
    eliminate_dead_gates,
    lower_to_gc_basis,
    optimize,
    propagate_constants,
)


def random_circuit(seed, n_gates=120, n_inputs=5, hashing=False, folding=False):
    """An intentionally unoptimized random circuit."""
    rng = random.Random(seed)
    bld = CircuitBuilder(use_structural_hashing=hashing, fold_constants=folding)
    a = bld.add_alice_inputs(n_inputs)
    b = bld.add_bob_inputs(n_inputs)
    wires = list(a) + list(b) + [bld.zero, bld.one]
    ops = ["xor", "xnor", "and", "or", "nand", "nor", "andn", "not"]
    for _ in range(n_gates):
        op = rng.choice(ops)
        x = rng.choice(wires)
        if op == "not":
            wires.append(bld.emit_not(x))
        elif op == "xnor":
            wires.append(bld.emit_not(bld.emit_xor(x, rng.choice(wires))))
        else:
            wires.append(getattr(bld, f"emit_{op}")(x, rng.choice(wires)))
    for w in wires[-6:]:
        bld.mark_output(w)
    return bld.build()


def equivalent(c1, c2, n_inputs=5, trials=40, seed=0):
    rng = random.Random(seed)
    for _ in range(trials):
        a = [rng.randrange(2) for _ in range(n_inputs)]
        b = [rng.randrange(2) for _ in range(n_inputs)]
        if simulate(c1, a, b) != simulate(c2, a, b):
            return False
    return True


class TestPassesPreserveSemantics:
    @pytest.mark.parametrize("seed", range(6))
    def test_full_pipeline(self, seed):
        circuit = random_circuit(seed)
        optimized, report = optimize(circuit)
        assert equivalent(circuit, optimized, seed=seed)
        assert report.after.non_xor <= report.before.non_xor

    @pytest.mark.parametrize("seed", range(4))
    def test_individual_passes(self, seed):
        circuit = random_circuit(seed + 100)
        for pass_fn in (propagate_constants, deduplicate_gates,
                        eliminate_dead_gates, lower_to_gc_basis):
            assert equivalent(circuit, pass_fn(circuit), seed=seed), pass_fn.__name__


class TestIndividualPasses:
    def test_constant_propagation_folds(self):
        bld = CircuitBuilder(fold_constants=False, use_structural_hashing=False)
        a = bld.add_alice_inputs(2)
        dead = bld.emit_and(a[0], bld.zero)   # = 0
        kept = bld.emit_or(dead, a[1])        # = a[1]
        bld.mark_output(kept)
        circuit = bld.build()
        optimized = propagate_constants(circuit)
        assert optimized.counts().non_xor == 0
        assert optimized.outputs == [a[1]]

    def test_dead_gate_elimination(self):
        bld = CircuitBuilder(use_structural_hashing=False)
        a = bld.add_alice_inputs(3)
        bld.emit_and(a[0], a[1])  # dead
        live = bld.emit_or(a[1], a[2])
        bld.mark_output(live)
        circuit = bld.build()
        cleaned = eliminate_dead_gates(circuit)
        assert len(cleaned.gates) == 1

    def test_dedup_merges_commutative(self):
        bld = CircuitBuilder(use_structural_hashing=False)
        a = bld.add_alice_inputs(2)
        x = bld.emit_and(a[0], a[1])
        y = bld.emit_and(a[1], a[0])
        bld.mark_output(bld.emit_xor(x, y))
        deduped = optimize(bld.build())[0]
        # AND(a,b) == AND(b,a) -> XOR of equal wires -> constant 0
        assert deduped.counts().non_xor == 0

    def test_lowering_basis(self):
        circuit = random_circuit(7)
        lowered = lower_to_gc_basis(circuit)
        allowed = {GateType.XOR, GateType.XNOR, GateType.NOT, GateType.AND}
        assert {op for op, *_ in lowered.gates} <= allowed
        # non-XOR count is invariant under the lowering
        assert lowered.counts().non_xor <= circuit.counts().non_xor

    def test_optimize_reaches_fixpoint(self):
        circuit = random_circuit(9)
        once, _ = optimize(circuit)
        twice, report = optimize(once)
        assert len(twice.gates) == len(once.gates)


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
        from repro.circuits import FixedPointFormat
        from repro.synthesis import measure_activation_error

        fmt = FixedPointFormat(2, 6)
        # the reference is taken at the quantized input, so an exact
        # table's only error is rounding its output
        error = measure_activation_error("TanhLUT", fmt, samples=80)
        assert 0 < error <= fmt.resolution / 2 + 1e-12

    def test_measured_cordic_error_within_table3_bound(self):
        from repro.circuits import FixedPointFormat
        from repro.synthesis import measure_activation_error

        fmt = FixedPointFormat(2, 6)
        full = measure_activation_error("TanhCORDIC", fmt, samples=40)
        near_zero = measure_activation_error("TanhCORDIC", fmt, samples=40, domain=0.5)
        assert full <= 4 * fmt.resolution
        assert near_zero <= full

    def test_render_table(self, rows):
        from repro.synthesis import render_table3

        text = render_table3(list(rows.values()))
        assert "TanhCORDIC" in text and "paper" in text
