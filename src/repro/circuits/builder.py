"""Netlist construction with GC-aware peephole optimization.

The paper drives Synopsys Design Compiler with a custom library whose area
model makes XOR free and every other gate cost one unit, so the synthesizer
minimizes the non-XOR count (Sec. 3.4).  :class:`CircuitBuilder` plays that
role here: every ``emit_*`` call applies constant folding, operand
canonicalization and structural hashing *before* a gate is materialized,
so the produced netlists are already optimized under the same cost model.

Buses are plain lists of wire ids, least-significant bit first.  All
arithmetic helpers live in :mod:`repro.circuits.arith` and
:mod:`repro.circuits.logic`; this module only provides single-bit emitters
and wire bookkeeping.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import CircuitError
from .gates import Gate, GateType
from .netlist import CONST_ONE, CONST_ZERO, Circuit

__all__ = ["CircuitBuilder", "Bus"]

#: A bus is an LSB-first list of wire ids.
Bus = List[int]


class CircuitBuilder:
    """Incrementally builds a topologically ordered :class:`Circuit`.

    Args:
        name: circuit name used in reports.
        use_structural_hashing: reuse an existing gate when an identical
            (op, inputs) combination was already emitted.  On by default;
            disable to measure the benefit in synthesis ablations.
        fold_constants: apply boolean simplification against the constant
            wires.  On by default.
    """

    def __init__(
        self,
        name: str = "circuit",
        use_structural_hashing: bool = True,
        fold_constants: bool = True,
    ) -> None:
        self.name = name
        self._hashing = use_structural_hashing
        self._folding = fold_constants
        # wires 0 and 1 are the constants
        self._n_wires = 2
        # AND-depth of every wire: constants and inputs sit at 0
        self._level: List[int] = [0, 0]
        self._n_alice = 0
        self._n_bob = 0
        self._n_state = 0
        self._inputs_frozen = False
        self._gates: List[Gate] = []
        self._cache: Dict[Tuple[GateType, int, Optional[int]], int] = {}
        self._not_of: Dict[int, int] = {CONST_ZERO: CONST_ONE, CONST_ONE: CONST_ZERO}
        self._outputs: List[int] = []
        self._input_names: Dict[str, List[int]] = {}
        self._output_names: Dict[str, List[int]] = {}

    # -- wire allocation -------------------------------------------------

    @property
    def zero(self) -> int:
        """The constant-0 wire."""
        return CONST_ZERO

    @property
    def one(self) -> int:
        """The constant-1 wire."""
        return CONST_ONE

    def add_alice_inputs(self, count: int, name: Optional[str] = None) -> Bus:
        """Allocate ``count`` input wires owned by Alice (garbler/client)."""
        return self._add_inputs(count, party="alice", name=name)

    def add_bob_inputs(self, count: int, name: Optional[str] = None) -> Bus:
        """Allocate ``count`` input wires owned by Bob (evaluator/server)."""
        return self._add_inputs(count, party="bob", name=name)

    def add_state_inputs(self, count: int, name: Optional[str] = None) -> Bus:
        """Allocate register-state wires (sequential circuits).

        Note: Alice and Bob inputs must be declared before state wires so
        the wire-numbering convention holds.
        """
        return self._add_inputs(count, party="state", name=name)

    def _add_inputs(self, count: int, party: str, name: Optional[str]) -> Bus:
        if self._inputs_frozen:
            raise CircuitError(
                "all inputs must be declared before the first gate is emitted"
            )
        if count < 0:
            raise CircuitError("input count must be non-negative")
        start = self._n_wires
        bus = list(range(start, start + count))
        self._n_wires += count
        self._level.extend([0] * count)
        if party == "alice":
            if self._n_bob or self._n_state:
                raise CircuitError("Alice inputs must precede Bob/state wires")
            self._n_alice += count
        elif party == "bob":
            if self._n_state:
                raise CircuitError("Bob inputs must precede state wires")
            self._n_bob += count
        else:
            self._n_state += count
        if name:
            self._input_names.setdefault(name, []).extend(bus)
        return bus

    def _fresh_wire(self) -> int:
        self._inputs_frozen = True
        wire = self._n_wires
        self._n_wires += 1
        return wire

    def constant_bus(self, value: int, width: int) -> Bus:
        """A bus holding the two's-complement constant ``value``."""
        return [
            CONST_ONE if (value >> i) & 1 else CONST_ZERO for i in range(width)
        ]

    # -- single-bit emitters ----------------------------------------------

    def emit_not(self, a: int) -> int:
        """NOT gate (free under free-XOR)."""
        cached = self._not_of.get(a)
        if cached is not None:
            return cached
        out = self._emit(GateType.NOT, a, None)
        self._not_of[a] = out
        self._not_of[out] = a
        return out

    def emit_xor(self, a: int, b: int) -> int:
        """XOR gate (free)."""
        if self._folding:
            if a == b:
                return CONST_ZERO
            if a == CONST_ZERO:
                return b
            if b == CONST_ZERO:
                return a
            if a == CONST_ONE:
                return self.emit_not(b)
            if b == CONST_ONE:
                return self.emit_not(a)
            if self._not_of.get(a) == b:
                return CONST_ONE
        if b < a:
            a, b = b, a
        return self._emit(GateType.XOR, a, b)

    def emit_xnor(self, a: int, b: int) -> int:
        """XNOR gate (free)."""
        return self.emit_not(self.emit_xor(a, b))

    def emit_and(self, a: int, b: int) -> int:
        """AND gate (one garbled table)."""
        if self._folding:
            if a == b:
                return a
            if CONST_ZERO in (a, b):
                return CONST_ZERO
            if a == CONST_ONE:
                return b
            if b == CONST_ONE:
                return a
            if self._not_of.get(a) == b:
                return CONST_ZERO
        if b < a:
            a, b = b, a
        return self._emit(GateType.AND, a, b)

    def emit_or(self, a: int, b: int) -> int:
        """OR gate (one garbled table)."""
        if self._folding:
            if a == b:
                return a
            if CONST_ONE in (a, b):
                return CONST_ONE
            if a == CONST_ZERO:
                return b
            if b == CONST_ZERO:
                return a
            if self._not_of.get(a) == b:
                return CONST_ONE
        if b < a:
            a, b = b, a
        return self._emit(GateType.OR, a, b)

    def emit_nand(self, a: int, b: int) -> int:
        """NAND gate (one garbled table)."""
        return self.emit_not(self.emit_and(a, b))

    def emit_nor(self, a: int, b: int) -> int:
        """NOR gate (one garbled table)."""
        return self.emit_not(self.emit_or(a, b))

    def emit_andn(self, a: int, b: int) -> int:
        """``a AND (NOT b)`` (one garbled table)."""
        if self._folding:
            if a == b:
                return CONST_ZERO
            if a == CONST_ZERO or b == CONST_ONE:
                return CONST_ZERO
            if b == CONST_ZERO:
                return a
            if a == CONST_ONE:
                return self.emit_not(b)
            if self._not_of.get(a) == b:
                return a
        return self._emit(GateType.ANDN, a, b)

    def emit_mux(self, sel: int, if_true: int, if_false: int) -> int:
        """2-to-1 multiplexer: ``sel ? if_true : if_false``.

        Implemented with the single-AND construction
        ``out = if_false ^ (sel & (if_true ^ if_false))`` so it costs one
        non-XOR gate — the paper's point that a ReLu "can be accurately
        represented by a Multiplexer" relies on this cheapness.
        """
        if if_true == if_false:
            return if_true
        diff = self.emit_xor(if_true, if_false)
        gated = self.emit_and(sel, diff)
        return self.emit_xor(if_false, gated)

    def _emit(self, op: GateType, a: int, b: Optional[int]) -> int:
        key = (op, a, b)
        if self._hashing:
            cached = self._cache.get(key)
            if cached is not None:
                return cached
        out = self._fresh_wire()
        level = self._level
        level.append(
            (level[a] if b is None else max(level[a], level[b]))
            + (0 if op.is_free else 1)
        )
        self._gates.append(Gate(op, a, b, out))
        if self._hashing:
            self._cache[key] = out
        return out

    # -- bus helpers -------------------------------------------------------

    def emit_xor_bus(self, a: Sequence[int], b: Sequence[int]) -> Bus:
        """Bitwise XOR of two equal-width buses."""
        self._check_widths(a, b)
        return [self.emit_xor(x, y) for x, y in zip(a, b)]

    def emit_and_bus(self, a: Sequence[int], b: Sequence[int]) -> Bus:
        """Bitwise AND of two equal-width buses."""
        self._check_widths(a, b)
        return [self.emit_and(x, y) for x, y in zip(a, b)]

    def emit_not_bus(self, a: Sequence[int]) -> Bus:
        """Bitwise NOT of a bus."""
        return [self.emit_not(x) for x in a]

    def emit_mux_bus(
        self, sel: int, if_true: Sequence[int], if_false: Sequence[int]
    ) -> Bus:
        """Word-level 2-to-1 mux (``width`` non-XOR gates)."""
        self._check_widths(if_true, if_false)
        return [
            self.emit_mux(sel, t, f) for t, f in zip(if_true, if_false)
        ]

    def _check_widths(self, a: Sequence[int], b: Sequence[int]) -> None:
        if len(a) != len(b):
            raise CircuitError(
                f"bus width mismatch: {len(a)} vs {len(b)}"
            )

    # -- outputs and finalization -------------------------------------------

    def mark_output(self, wire: int, name: Optional[str] = None) -> None:
        """Register a single output wire."""
        self._outputs.append(wire)
        if name:
            self._output_names.setdefault(name, []).append(wire)

    def mark_output_bus(self, bus: Sequence[int], name: Optional[str] = None) -> None:
        """Register an LSB-first bus as consecutive outputs."""
        for wire in bus:
            self.mark_output(wire, name=name)

    @property
    def gate_count(self) -> int:
        """Gates emitted so far."""
        return len(self._gates)

    def level(self, wire: int) -> int:
        """The wire's AND-depth — the AND layer ``LevelSchedule`` will run
        its gate in if non-free, or the layer its free gate follows
        (inputs and constants: 0)."""
        return self._level[wire]

    @property
    def depth(self) -> int:
        """AND layers of the netlist emitted so far."""
        return max(self._level)

    def non_xor_count(self) -> int:
        """Non-free gates emitted so far."""
        return sum(1 for g in self._gates if not g.op.is_free)

    def build(self) -> Circuit:
        """Finalize and validate the netlist."""
        circuit = Circuit(
            n_alice=self._n_alice,
            n_bob=self._n_bob,
            gates=list(self._gates),
            outputs=list(self._outputs),
            n_wires=self._n_wires,
            name=self.name,
            input_names=dict(self._input_names),
            output_names=dict(self._output_names),
            n_state=self._n_state,
        )
        circuit.validate()
        return circuit
