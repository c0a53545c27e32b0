"""Netlist optimization passes (the synthesis "compile" step).

The builder already folds constants at construction time; these passes
operate on *finished* circuits, so netlists from any source (including
hand-written or deliberately de-optimized ones, used by the ablation
benchmarks) are brought to the same GC cost model:

* :func:`propagate_constants` — boolean simplification against known
  constant wires, including gates whose output becomes constant;
* :func:`eliminate_dead_gates` — drop gates whose output reaches no
  circuit output (pruned DL connections leave such cones behind);
* :func:`deduplicate_gates` — structural hashing / CSE;
* :func:`lower_to_gc_basis` — rewrite OR/NOR/NAND/ANDN/ORN into
  {XOR, XNOR, NOT, AND} (useful when exporting to other GC backends;
  cost-neutral under half-gates);
* :func:`optimize` — the standard pipeline, iterated to fixpoint.

Every pass returns a *new* circuit and preserves simulation semantics
(property-tested in ``tests/test_synthesis.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..circuits.gates import Gate, GateType
from ..circuits.netlist import CONST_ONE, CONST_ZERO, Circuit
from ..errors import SynthesisError

__all__ = [
    "propagate_constants",
    "eliminate_dead_gates",
    "deduplicate_gates",
    "lower_to_gc_basis",
    "optimize",
    "OptimizationReport",
]


def _rebuild(circuit: Circuit, gates: List[Gate], outputs: List[int]) -> Circuit:
    new = Circuit(
        n_alice=circuit.n_alice,
        n_bob=circuit.n_bob,
        gates=gates,
        outputs=outputs,
        n_wires=circuit.n_wires,
        name=circuit.name,
        input_names=dict(circuit.input_names),
        output_names=dict(circuit.output_names),
        n_state=circuit.n_state,
        d_wires=circuit.d_wires,
    )
    new.validate()
    return new


def propagate_constants(circuit: Circuit) -> Circuit:
    """Fold gates with constant inputs; rewrite consumers.

    Knows the full simplification table for every supported gate type,
    e.g. ``AND(x, 0) -> 0``, ``XOR(x, 1) -> NOT x``, ``OR(x, x) -> x``.
    """
    # wire -> replacement (constant wire or alias)
    alias: Dict[int, int] = {}
    complement: Dict[int, int] = {CONST_ZERO: CONST_ONE, CONST_ONE: CONST_ZERO}

    def resolve(wire: int) -> int:
        while wire in alias:
            wire = alias[wire]
        return wire

    new_gates: List[Gate] = []
    for gate in circuit.gates:
        a = resolve(gate.a)
        b = resolve(gate.b) if gate.b is not None else None
        replacement = _simplify(gate.op, a, b, complement)
        if replacement is not None:
            alias[gate.out] = replacement
            continue
        if gate.op is GateType.NOT:
            known = complement.get(a)
            if known is not None:
                alias[gate.out] = known
                continue
        new_gates.append(Gate(gate.op, a, b, gate.out))
        if gate.op is GateType.NOT:
            complement[a] = gate.out
            complement[gate.out] = a
    outputs = [resolve(w) for w in circuit.outputs]
    return _rebuild(circuit, new_gates, outputs)


def _simplify(
    op: GateType, a: int, b: Optional[int], complement: Dict[int, int]
) -> Optional[int]:
    """Return a replacement wire when the gate folds away, else None."""
    zero, one = CONST_ZERO, CONST_ONE
    if op is GateType.BUF:
        return a
    if op is GateType.NOT:
        return None  # handled by caller (needs complement registry)
    if b is None:
        raise SynthesisError(f"2-input gate {op} missing operand")
    comp = complement.get(a) == b or complement.get(b) == a
    same = a == b
    if op is GateType.XOR:
        if same:
            return zero
        if comp:
            return one
        if a == zero:
            return b
        if b == zero:
            return a
    elif op is GateType.XNOR:
        if same:
            return one
        if comp:
            return zero
        if a == one:
            return b
        if b == one:
            return a
    elif op is GateType.AND:
        if same:
            return a
        if comp or zero in (a, b):
            return zero
        if a == one:
            return b
        if b == one:
            return a
    elif op is GateType.OR:
        if same:
            return a
        if comp or one in (a, b):
            return one
        if a == zero:
            return b
        if b == zero:
            return a
    elif op is GateType.NAND:
        if comp or zero in (a, b):
            return one
    elif op is GateType.NOR:
        if comp or one in (a, b):
            return zero
    elif op is GateType.ANDN:
        if same or a == zero or b == one:
            return zero
        if b == zero:
            return a
    elif op is GateType.ORN:
        if same or a == one or b == zero:
            return one
        if b == one:
            return a
    return None


def eliminate_dead_gates(circuit: Circuit) -> Circuit:
    """Drop gates whose output cone reaches no circuit output."""
    live = set(circuit.outputs)
    keep: List[bool] = [False] * len(circuit.gates)
    for idx in range(len(circuit.gates) - 1, -1, -1):
        gate = circuit.gates[idx]
        if gate.out in live:
            keep[idx] = True
            live.update(gate.inputs())
    gates = [g for g, k in zip(circuit.gates, keep) if k]
    return _rebuild(circuit, gates, list(circuit.outputs))


def deduplicate_gates(circuit: Circuit) -> Circuit:
    """Common-subexpression elimination via structural hashing."""
    seen: Dict[Tuple[GateType, int, Optional[int]], int] = {}
    alias: Dict[int, int] = {}

    def resolve(wire: int) -> int:
        while wire in alias:
            wire = alias[wire]
        return wire

    gates: List[Gate] = []
    for gate in circuit.gates:
        a = resolve(gate.a)
        b = resolve(gate.b) if gate.b is not None else None
        if b is not None and gate.op in (
            GateType.XOR,
            GateType.XNOR,
            GateType.AND,
            GateType.OR,
            GateType.NAND,
            GateType.NOR,
        ):
            if b < a:  # commutative canonicalization
                a, b = b, a
        key = (gate.op, a, b)
        existing = seen.get(key)
        if existing is not None:
            alias[gate.out] = existing
            continue
        seen[key] = gate.out
        gates.append(Gate(gate.op, a, b, gate.out))
    outputs = [resolve(w) for w in circuit.outputs]
    return _rebuild(circuit, gates, outputs)


def lower_to_gc_basis(circuit: Circuit) -> Circuit:
    """Rewrite every gate into the {XOR, XNOR, NOT, AND} basis.

    De Morgan rewrites; needs fresh wires for the intermediate NOTs, so
    the circuit is renumbered.  Non-XOR count is unchanged (each non-free
    gate maps to exactly one AND).
    """
    from ..circuits.builder import CircuitBuilder

    builder = CircuitBuilder(name=circuit.name)
    alice = builder.add_alice_inputs(circuit.n_alice)
    bob = builder.add_bob_inputs(circuit.n_bob)
    state = builder.add_state_inputs(circuit.n_state)
    remap: Dict[int, int] = {CONST_ZERO: CONST_ZERO, CONST_ONE: CONST_ONE}
    remap.update(zip(circuit.alice_inputs, alice))
    remap.update(zip(circuit.bob_inputs, bob))
    remap.update(zip(circuit.state_inputs, state))
    for gate in circuit.gates:
        a = remap[gate.a]
        b = remap[gate.b] if gate.b is not None else None
        op = gate.op
        if op is GateType.BUF:
            out = a
        elif op is GateType.NOT:
            out = builder.emit_not(a)
        elif op is GateType.XOR:
            out = builder.emit_xor(a, b)
        elif op is GateType.XNOR:
            out = builder.emit_xnor(a, b)
        elif op is GateType.AND:
            out = builder.emit_and(a, b)
        elif op is GateType.NAND:
            out = builder.emit_not(builder.emit_and(a, b))
        elif op is GateType.OR:
            out = builder.emit_not(
                builder.emit_and(builder.emit_not(a), builder.emit_not(b))
            )
        elif op is GateType.NOR:
            out = builder.emit_and(builder.emit_not(a), builder.emit_not(b))
        elif op is GateType.ANDN:
            out = builder.emit_and(a, builder.emit_not(b))
        elif op is GateType.ORN:
            out = builder.emit_not(
                builder.emit_and(builder.emit_not(a), b)
            )
        else:  # pragma: no cover - enum is closed
            raise SynthesisError(f"unknown gate {op}")
        remap[gate.out] = out
    for wire in circuit.outputs:
        builder.mark_output(remap[wire])
    return builder.build()


class OptimizationReport:
    """Before/after inventory of an optimization run."""

    def __init__(self, circuit: Circuit) -> None:
        self.before = circuit.counts()
        self.passes: List[Tuple[str, int, int]] = []
        self.after = self.before

    def record(self, name: str, circuit: Circuit) -> None:
        """Log the inventory after a pass."""
        counts = circuit.counts()
        self.passes.append((name, counts.xor, counts.non_xor))
        self.after = counts

    @property
    def non_xor_saved(self) -> int:
        """Garbled tables removed by the pipeline."""
        return self.before.non_xor - self.after.non_xor


def optimize(
    circuit: Circuit, max_rounds: int = 8
) -> Tuple[Circuit, OptimizationReport]:
    """Run the standard pass pipeline to fixpoint.

    Returns the optimized circuit and a per-pass report (used by the
    synthesis ablation benchmark).
    """
    report = OptimizationReport(circuit)
    current = circuit
    for _ in range(max_rounds):
        before = len(current.gates)
        current = propagate_constants(current)
        report.record("propagate_constants", current)
        current = deduplicate_gates(current)
        report.record("deduplicate_gates", current)
        current = eliminate_dead_gates(current)
        report.record("eliminate_dead_gates", current)
        if len(current.gates) == before:
            break
    return current, report
