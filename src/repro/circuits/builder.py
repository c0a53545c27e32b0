"""Netlist construction with GC-aware peephole optimization.

The paper drives Synopsys Design Compiler with a custom library whose area
model makes XOR free and every other gate cost one unit, so the synthesizer
minimizes the non-XOR count (Sec. 3.4).  :class:`CircuitBuilder` plays that
role here: every ``emit_*`` call applies constant folding, operand
canonicalization and structural hashing *before* a gate is materialized,
so the produced netlists are already optimized under the same cost model.

Buses are plain lists of wire ids, least-significant bit first.  All
arithmetic helpers live in :mod:`repro.circuits.arith` and
:mod:`repro.circuits.logic`; this module only provides single-bit emitters,
wire bookkeeping and unit templates (:meth:`CircuitBuilder.record`,
:meth:`CircuitBuilder.instantiate`).

The netlist grows as columns (:class:`repro.circuits.netlist.GateColumns`):
an op code, two input wires and the gate's place (its AND-depth and free
sub-step, what :meth:`repro.circuits.netlist.LevelSchedule.build` sorts
by) are appended per gate; a gate's output is the next wire, so it needs
no column until :meth:`CircuitBuilder.build` hands the arrays over.
"""

from __future__ import annotations

import dataclasses
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CircuitError
from .gates import N_FREE_CODES, OP_CODE, GateType
from .netlist import CONST_ONE, CONST_ZERO, NO_INPUT, SUB_BITS, Circuit, GateColumns

__all__ = ["CircuitBuilder", "Bus", "UnitTemplate"]

#: A bus is an LSB-first list of wire ids.
Bus = List[int]

_NOT = OP_CODE[GateType.NOT]
_XOR = OP_CODE[GateType.XOR]
_AND = OP_CODE[GateType.AND]
_OR = OP_CODE[GateType.OR]
_ANDN = OP_CODE[GateType.ANDN]
#: the ops whose emitters put the lower wire first
_SORTED_OPS = (_XOR, _AND, _OR)

#: per port: constant value or -1, position of its first occurrence,
#: position of its NOT partner among the ports (-1 none, -2 a non-port
#: wire) and that partner's place less the port's, and the port's place
PortSignature = Tuple[Tuple[int, int, int, int, int], ...]


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
        self._n_alice = 0
        self._n_bob = 0
        self._n_state = 0
        self._inputs_frozen = False
        # the gate columns; gate i drives wire 2 + n_inputs + i
        self._op = array("B")
        self._a = array("i")
        self._b = array("i")
        # per wire, its place (phase << SUB_BITS | sub); inputs sit at 0
        self._place = array("q", [0, 0])
        self._non_xor = 0
        self._depth = 0
        # structural hashing: (a << 32 | b) << 4 | op -> output wire
        self._cache: Dict[int, int] = {}
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
        self._place.frombytes(bytes(8 * count))
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
        # every NOT is in _not_of, so a NOT needs no structural hash
        out = self._gate(_NOT, a, NO_INPUT)
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
        return self._emit(_XOR, a, b)

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
        return self._emit(_AND, a, b)

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
        return self._emit(_OR, a, b)

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
        return self._emit(_ANDN, a, b)

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

    def _emit(self, op: int, a: int, b: int) -> int:
        if not self._hashing:
            return self._gate(op, a, b)
        key = (a << 32 | b) << 4 | op
        out = self._cache.get(key)
        if out is None:
            out = self._cache[key] = self._gate(op, a, b)
        return out

    def _gate(self, op: int, a: int, b: int) -> int:
        """Append gate ``op(a, b)`` (``b`` is ``NO_INPUT`` for a NOT)
        and return its output, the next wire."""
        place = self._place
        at = place[a]
        if b >= 0 and place[b] > at:
            at = place[b]
        if op < N_FREE_CODES:
            at += 1
        else:
            at = ((at >> SUB_BITS) + 1) << SUB_BITS
            self._non_xor += 1
            if at >> SUB_BITS > self._depth:
                self._depth = at >> SUB_BITS
        place.append(at)
        self._op.append(op)
        self._a.append(a)
        self._b.append(b)
        self._inputs_frozen = True
        out = self._n_wires
        self._n_wires = out + 1
        return out

    # -- bus helpers -------------------------------------------------------

    def emit_xor_bus(self, a: Sequence[int], b: Sequence[int]) -> Bus:
        """Bitwise XOR of two equal-width buses."""
        self._check_widths(a, b)
        return [self.emit_xor(x, y) for x, y in zip(a, b)]

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
        return len(self._op)

    def level(self, wire: int) -> int:
        """The wire's AND-depth — the AND layer ``LevelSchedule`` will run
        its gate in if non-free, or the layer its free gate follows
        (inputs and constants: 0)."""
        return self._place[wire] >> SUB_BITS

    @property
    def depth(self) -> int:
        """AND layers of the netlist emitted so far."""
        return self._depth

    def non_xor_count(self) -> int:
        """Non-free gates emitted so far."""
        return self._non_xor

    def build(self, d_wires: Sequence[int] = ()) -> Circuit:
        """Finalize and validate the netlist; ``d_wires`` are a
        sequential core's register next-state wires
        (:meth:`repro.circuits.sequential.SequentialBuilder.build_sequential`
        passes them).

        The circuit takes the builder's columns and places without a
        copy, so the builder emits nothing more once it has built.
        """
        first_gate_wire = self._n_wires - len(self._op)
        columns = GateColumns.frozen(
            np.frombuffer(self._op, dtype=np.uint8),
            np.frombuffer(self._a, dtype=np.int32),
            np.frombuffer(self._b, dtype=np.int32),
            np.arange(first_gate_wire, self._n_wires, dtype=np.int32),
        )
        circuit = Circuit(
            n_alice=self._n_alice,
            n_bob=self._n_bob,
            gates=columns,
            outputs=list(self._outputs),
            n_wires=self._n_wires,
            name=self.name,
            input_names=dict(self._input_names),
            output_names=dict(self._output_names),
            n_state=self._n_state,
            d_wires=d_wires,
        )
        circuit._places = np.frombuffer(self._place, dtype=np.int64)[
            first_gate_wire:
        ]
        circuit.validate()
        return circuit

    # -- unit templates ------------------------------------------------------

    def record(
        self, ports: Sequence[int], emit: Callable[[], Bus]
    ) -> Tuple[Bus, Optional["UnitTemplate"]]:
        """Run ``emit`` (a unit over input wires ``ports``) through the
        builder, and capture it as a template for same-shaped units.

        The unit's *own* gates are those its emission appended that
        depend on ``ports``; the rest it appended (the unit's *shared*
        gates, e.g. sign-magnitudes of operands every unit reads) and
        the wires it found already built are the same for every unit.
        Returns the unit's outputs and the template, or ``None`` when
        the unit cannot be one: structural hashing or constant folding
        is off, or it read a wire built before it that may depend on a
        port other than through a NOT pair.  Ports that are circuit
        inputs must not have been read by any earlier gate.
        """
        signature = self._signature(ports)
        first_gate, first_wire = len(self._op), self._n_wires
        outputs = emit()
        if not (self._hashing and self._folding):
            return outputs, None
        return outputs, self._capture(
            ports, signature, first_gate, first_wire, outputs
        )

    def instantiate(
        self, template: "UnitTemplate", ports: Sequence[int]
    ) -> Optional[Bus]:
        """Append ``template``'s own gates over ``ports``, and return the
        unit's outputs.

        The ports are remapped, the own gates' outputs are consecutive
        fresh wires and every other wire is kept; NOT gates are
        registered as NOT pairs, and nothing enters the structural-hash
        table.  This is what emitting the unit through the builder
        appends, gate for gate, when ``ports`` look to the builder as
        the template's did (same constants, repeats, NOT pairs and
        places) and no earlier gate reads them except through NOT
        pairs; returns ``None`` (emit the unit instead) when they do
        not look the same.
        """
        if self._signature(ports) != template.signature:
            return None
        not_of = self._not_of
        base = self._n_wires
        size = template.op.size
        source = np.concatenate([
            np.asarray(ports, dtype=np.int64),
            np.asarray(
                [not_of[ports[k]] for k in template.partner_ports],
                dtype=np.int64,
            ),
            np.arange(base, base + size, dtype=np.int64),
            template.kept,
        ])
        a, b = source[template.a], source[template.b]
        swap = template.sorted_ops[a[template.sorted_ops] > b[template.sorted_ops]]
        a[swap], b[swap] = b[swap], a[swap]
        self._op.frombytes(template.op.tobytes())
        self._a.frombytes(a.astype(np.int32).tobytes())
        self._b.frombytes(b.astype(np.int32).tobytes())
        self._place.frombytes(template.places.tobytes())
        self._n_wires = base + size
        self._non_xor += template.non_xor
        self._depth = max(self._depth, template.depth)
        self._inputs_frozen = True
        nots = a[template.nots].tolist()
        outs = (base + template.nots).tolist()
        not_of.update(zip(nots, outs))
        not_of.update(zip(outs, nots))
        return source[template.outputs].tolist()

    def _signature(self, ports: Sequence[int]) -> PortSignature:
        """What the builder's folding and places see of ``ports``."""
        first: Dict[int, int] = {}
        for k, wire in enumerate(ports):
            first.setdefault(wire, k)
        place = self._place
        signature = []
        for wire in ports:
            partner = self._not_of.get(wire)
            if partner is None:
                pair = (-1, 0)
            else:
                pair = (
                    first.get(partner, -2), place[partner] - place[wire]
                )
            signature.append((
                wire if wire <= CONST_ONE else -1, first[wire], *pair,
                place[wire],
            ))
        return tuple(signature)

    def _capture(
        self,
        ports: Sequence[int],
        signature: PortSignature,
        first_gate: int,
        first_wire: int,
        outputs: Bus,
    ) -> Optional["UnitTemplate"]:
        """The template of the unit emitted from ``first_gate`` on."""
        # port wires, and NOT partners of ports built before the unit
        # (they depend on their port): wire -> index in the source table
        source_of: Dict[int, int] = {}
        for k, wire in enumerate(ports):
            if wire > CONST_ONE:
                source_of.setdefault(wire, k)
        partner_ports: List[int] = []
        for k, wire in enumerate(ports):
            partner = self._not_of.get(wire)
            if (
                partner is not None and CONST_ONE < partner < first_wire
                and partner not in source_of
            ):
                source_of[partner] = len(ports) + len(partner_ports)
                partner_ports.append(k)
        # any other wire built before the unit, at or past its first
        # gate-driven port, may depend on that port
        n_inputs = 2 + self._n_alice + self._n_bob + self._n_state
        unknown_from = min(
            (w for w in source_of if w >= n_inputs), default=first_wire
        )
        own = bytearray(len(self._op) - first_gate)
        for i, (x, y) in enumerate(
            zip(self._a[first_gate:].tolist(), self._b[first_gate:].tolist())
        ):
            for src in (x, y):
                if src >= first_wire:
                    if own[src - first_wire]:
                        own[i] = 1
                elif src in source_of:
                    own[i] = 1
                elif src >= unknown_from:
                    return None
        if any(
            unknown_from <= w < first_wire and w not in source_of
            for w in outputs
        ):
            return None
        own_gates = np.flatnonzero(np.frombuffer(own, dtype=np.uint8))
        op = np.frombuffer(self._op, dtype=np.uint8)[first_gate:][own_gates]
        a = np.frombuffer(self._a, dtype=np.int32)[first_gate:][own_gates]
        b = np.frombuffer(self._b, dtype=np.int32)[first_gate:][own_gates]
        places = np.frombuffer(self._place, dtype=np.int64)[first_wire:][
            own_gates
        ]
        # each wire's index in the source table: ports and partners, own
        # outputs after them, then every other wire, kept as it is
        size = own_gates.size
        fresh_from = len(ports) + len(partner_ports)
        wires = np.concatenate([a, b, np.asarray(outputs, dtype=np.int32)])
        rank = np.full(len(own) + 1, -1, dtype=np.int64)  # last: not fresh
        rank[own_gates] = np.arange(fresh_from, fresh_from + size)
        fresh = wires >= first_wire
        where = rank[np.where(fresh, wires - first_wire, -1)]
        if source_of:
            keys = np.array(sorted(source_of), dtype=np.int64)
            at = np.minimum(np.searchsorted(keys, wires), keys.size - 1)
            found = ~fresh & (keys[at] == wires)
            where[found] = [source_of[w] for w in keys[at[found]].tolist()]
        rest = where < 0
        kept, kept_at = np.unique(wires[rest], return_inverse=True)
        where[rest] = fresh_from + size + kept_at.reshape(-1)
        a_at, b_at, out_at = np.split(where, [size, 2 * size])
        return UnitTemplate(
            signature=signature,
            partner_ports=tuple(partner_ports),
            kept=kept.astype(np.int64),
            op=op,
            a=a_at,
            b=b_at,
            places=places,
            outputs=out_at,
            sorted_ops=np.flatnonzero(np.isin(op, _SORTED_OPS)),
            nots=np.flatnonzero(op == _NOT),
            non_xor=int(np.count_nonzero(op >= N_FREE_CODES)),
            depth=int(places.max() >> SUB_BITS) if size else 0,
        )


@dataclasses.dataclass(frozen=True, eq=False)
class UnitTemplate:
    """A unit's own gates over symbolic wires (:meth:`CircuitBuilder.record`).

    ``a``, ``b`` and ``outputs`` index one source table per instance:
    its ports, then the NOT partners of ``partner_ports`` (ports whose
    NOT pair was built before the unit), then the own gates' fresh
    outputs, then the ``kept`` wires (shared gates, operands every unit
    reads, constants, ``NO_INPUT``).
    """

    signature: PortSignature
    partner_ports: Tuple[int, ...]
    kept: Any
    op: Any
    a: Any
    b: Any
    #: the own gates' places (a port's place is part of the signature)
    places: Any
    outputs: Any
    #: own gates whose emitter sorts the operands
    sorted_ops: Any
    #: own NOT gates, registered as NOT pairs
    nots: Any
    non_xor: int
    depth: int
