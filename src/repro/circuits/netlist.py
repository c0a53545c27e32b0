"""Netlist container: wires, gates, inputs and outputs.

A :class:`Circuit` is the unit everything else in this package consumes:
the plaintext simulator, the synthesis passes, the gate-count reports and
the garbling engine all walk the same structure.  Gates are stored in
topological order by construction (the builder only references wires that
already exist), mirroring the paper's requirement that "all gates in the
circuit have to be topologically sorted which creates a list of gates
called netlist" (Sec. 2.2.2).

Wire numbering convention::

    0                      constant-zero wire (always present)
    1                      constant-one wire (always present)
    2 .. 2+n_alice-1       Alice's (garbler / client) input wires
    ..  + n_bob            Bob's (evaluator / server) input wires
    ..  + n_state          register state wires (sequential circuits)
    remaining              internal gate outputs

Outputs are an ordered list of wire ids (duplicates allowed).  State
wires belong to neither party: in sequential garbling their labels are
carried over from the previous clock cycle (TinyGarble-style).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import CircuitError
from .gates import AND_REDUCTION, Gate, GateType

__all__ = [
    "Circuit",
    "GateCounts",
    "LevelSchedule",
    "ScalarRun",
    "ScheduleLevel",
    "WideStep",
    "CONST_ZERO",
    "CONST_ONE",
]

CONST_ZERO = 0
CONST_ONE = 1


@dataclasses.dataclass(frozen=True)
class GateCounts:
    """Inventory of a netlist in the paper's accounting units.

    ``xor`` counts free gates (XOR/XNOR/NOT/BUF), ``non_xor`` counts gates
    that need a garbled table.  These are the quantities reported in the
    paper's Tables 3-5.
    """

    xor: int
    non_xor: int

    @property
    def total(self) -> int:
        """Total number of gates."""
        return self.xor + self.non_xor

    def __add__(self, other: "GateCounts") -> "GateCounts":
        return GateCounts(self.xor + other.xor, self.non_xor + other.non_xor)

    def scaled(self, k: int) -> "GateCounts":
        """Counts for ``k`` replicas of this circuit."""
        return GateCounts(self.xor * k, self.non_xor * k)


class Circuit:
    """An immutable-by-convention Boolean netlist.

    Use :class:`repro.circuits.builder.CircuitBuilder` to construct one;
    direct mutation after :meth:`validate` is discouraged.
    """

    def __init__(
        self,
        n_alice: int,
        n_bob: int,
        gates: List[Gate],
        outputs: List[int],
        n_wires: int,
        name: str = "circuit",
        input_names: Optional[Dict[str, List[int]]] = None,
        output_names: Optional[Dict[str, List[int]]] = None,
        n_state: int = 0,
    ) -> None:
        self.n_alice = n_alice
        self.n_bob = n_bob
        self.n_state = n_state
        self.gates = gates
        self.outputs = outputs
        self.n_wires = n_wires
        self.name = name
        #: named groups of input wires (e.g. {"x": [...], "w": [...]})
        self.input_names: Dict[str, List[int]] = input_names or {}
        #: named groups of output wires
        self.output_names: Dict[str, List[int]] = output_names or {}
        # lazily built, cached level schedule (circuits are immutable by
        # convention once handed out, so one schedule serves every
        # garble/evaluate over this netlist)
        self._level_schedule: Optional["LevelSchedule"] = None
        # same convention: the gate inventory is asked for per request
        self._counts: Optional[GateCounts] = None

    # -- wire ranges -----------------------------------------------------

    @property
    def alice_inputs(self) -> range:
        """Wire ids carrying the garbler's (client's) input bits."""
        return range(2, 2 + self.n_alice)

    @property
    def bob_inputs(self) -> range:
        """Wire ids carrying the evaluator's (server's) input bits."""
        return range(2 + self.n_alice, 2 + self.n_alice + self.n_bob)

    @property
    def state_inputs(self) -> range:
        """Wire ids carrying register state (sequential circuits only)."""
        base = 2 + self.n_alice + self.n_bob
        return range(base, base + self.n_state)

    @property
    def n_inputs(self) -> int:
        """Total driven-from-outside bits: both parties plus state."""
        return self.n_alice + self.n_bob + self.n_state

    @property
    def n_outputs(self) -> int:
        """Number of output bits."""
        return len(self.outputs)

    # -- accounting ------------------------------------------------------

    def counts(self) -> GateCounts:
        """Count free vs non-free gates (the paper's XOR / non-XOR).

        Counted once and cached, like :meth:`level_schedule`.
        """
        if self._counts is None:
            non_xor = sum(1 for g in self.gates if not g.op.is_free)
            self._counts = GateCounts(
                xor=len(self.gates) - non_xor, non_xor=non_xor
            )
        return self._counts

    def histogram(self) -> Dict[GateType, int]:
        """Per-gate-type histogram, for synthesis reports."""
        hist: Dict[GateType, int] = {}
        for gate in self.gates:
            hist[gate.op] = hist.get(gate.op, 0) + 1
        return hist

    # -- structural checks -----------------------------------------------

    def validate(self) -> None:
        """Check structural well-formedness.

        Raises:
            CircuitError: on dangling wires, out-of-order definitions,
                multiply-driven wires or out-of-range outputs.
        """
        defined = bytearray(self.n_wires)
        for wire in range(2 + self.n_inputs):
            defined[wire] = 1
        for idx, gate in enumerate(self.gates):
            for src in gate.inputs():
                if src < 0 or src >= self.n_wires:
                    raise CircuitError(
                        f"gate {idx} reads out-of-range wire {src}"
                    )
                if not defined[src]:
                    raise CircuitError(
                        f"gate {idx} reads wire {src} before it is driven; "
                        "netlist is not topologically ordered"
                    )
            if gate.out < 0 or gate.out >= self.n_wires:
                raise CircuitError(f"gate {idx} drives out-of-range wire")
            if defined[gate.out]:
                raise CircuitError(f"wire {gate.out} is multiply driven")
            if gate.op.arity == 2 and gate.b is None:
                raise CircuitError(f"gate {idx} ({gate.op}) is missing input b")
            defined[gate.out] = 1
        for out in self.outputs:
            if out < 0 or out >= self.n_wires or not defined[out]:
                raise CircuitError(f"output wire {out} is never driven")

    def fanout(self) -> Dict[int, int]:
        """Number of gate inputs (plus outputs) fed by each wire."""
        counts: Dict[int, int] = {}
        for gate in self.gates:
            for src in gate.inputs():
                counts[src] = counts.get(src, 0) + 1
        for out in self.outputs:
            counts[out] = counts.get(out, 0) + 1
        return counts

    def depth(self) -> int:
        """Longest input-to-output path counted in non-free gates.

        Garbling cost is dominated by non-free gates; this metric is the
        AND-depth commonly used to characterize GC netlists.
        """
        level = [0] * self.n_wires
        for gate in self.gates:
            src_level = max(level[w] for w in gate.inputs())
            level[gate.out] = src_level + (0 if gate.op.is_free else 1)
        if not self.outputs:
            return 0
        return max(level[w] for w in self.outputs)

    # -- level schedule --------------------------------------------------

    def level_schedule(self) -> "LevelSchedule":
        """Topological level schedule for vectorized garbling/evaluation.

        Gates are grouped into dependency levels: every gate at level
        ``L`` reads only wires driven at levels ``< L`` (inputs and
        constants sit at level 0), so all gates within one level are
        independent and can be processed as one batched array operation.
        Within each level the gates are split into free (XOR-class) and
        non-free (garbled-table) groups, which is exactly the partition
        the half-gates engine cares about.

        The schedule is built once and cached — callers garbling many
        copies of the same netlist (pre-garbled pools, cut-and-choose)
        amortize the setup across all of them.
        """
        if self._level_schedule is None:
            self._level_schedule = LevelSchedule.build(self)
        return self._level_schedule

    # -- conveniences ----------------------------------------------------

    def input_assignment(
        self,
        alice_bits: Sequence[int],
        bob_bits: Sequence[int],
        state_bits: Optional[Sequence[int]] = None,
    ) -> Dict[int, int]:
        """Map every input wire (including constants) to a bit value."""
        if len(alice_bits) != self.n_alice:
            raise CircuitError(
                f"expected {self.n_alice} Alice bits, got {len(alice_bits)}"
            )
        if len(bob_bits) != self.n_bob:
            raise CircuitError(
                f"expected {self.n_bob} Bob bits, got {len(bob_bits)}"
            )
        state_bits = list(state_bits or [])
        if len(state_bits) != self.n_state:
            raise CircuitError(
                f"expected {self.n_state} state bits, got {len(state_bits)}"
            )
        assignment = {CONST_ZERO: 0, CONST_ONE: 1}
        for wire, bit in zip(self.alice_inputs, alice_bits):
            assignment[wire] = bit & 1
        for wire, bit in zip(self.bob_inputs, bob_bits):
            assignment[wire] = bit & 1
        for wire, bit in zip(self.state_inputs, state_bits):
            assignment[wire] = bit & 1
        return assignment

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        counts = self.counts()
        return (
            f"Circuit({self.name!r}, alice={self.n_alice}, bob={self.n_bob}, "
            f"outputs={len(self.outputs)}, xor={counts.xor}, "
            f"non_xor={counts.non_xor})"
        )


@dataclasses.dataclass(frozen=True)
class ScheduleLevel:
    """One dependency level of a :class:`LevelSchedule`.

    All arrays are NumPy index/flag vectors over the circuit's wires.
    Free gates are described by ``free_a ^ free_b`` plus an optional
    delta offset (``free_inv``: XNOR/NOT garble as an extra global-delta
    XOR; the evaluator ignores the flag).  Unary gates (NOT/BUF) point
    ``free_b`` at the schedule's scratch zero row so the whole free
    group is a single gather-XOR-scatter.

    Non-free gates carry their AND-reduction inversion flags
    (``nf_ia/nf_ib/nf_io``) and their netlist-order table index
    ``nf_tidx`` — the tweak of gate ``i`` is ``tweak_base + 2 * nf_tidx[i]``,
    matching the scalar garbler's counter exactly so the two paths stay
    bit-identical.
    """

    free_a: Any
    free_b: Any
    free_out: Any
    free_inv: Any
    nf_a: Any
    nf_b: Any
    nf_out: Any
    nf_tidx: Any
    nf_ia: Any
    nf_ib: Any
    nf_io: Any
    #: pre-reduced flag summaries so hot loops skip ndarray.any() calls
    free_has_inv: bool
    nf_has_ia: bool
    nf_has_ib: bool
    nf_has_io: bool
    #: little-endian byte rows of the gates' a/b tweaks at tweak_base 0
    #: ((m, 8) uint8) — the common case, precomputed once per schedule
    tw0_a: Any
    tw0_b: Any

    @property
    def n_non_free(self) -> int:
        return int(self.nf_out.size)

    def tweak_rows(self, tweak_base: int) -> Tuple[Any, Any]:
        """The non-free gates' (a, b) tweaks as ``(m, 8)`` byte rows."""
        if tweak_base == 0:
            return self.tw0_a, self.tw0_b
        tweaks = tweak_base + 2 * self.nf_tidx
        return _tweak_rows(tweaks), _tweak_rows(tweaks + 1)


def _tweak_rows(tweaks: Any) -> Any:
    """``(m,)`` int64 tweaks as ``(m, 8)`` little-endian uint8 rows."""
    return tweaks.astype("<u8").view("uint8").reshape(-1, 8)


@dataclasses.dataclass(frozen=True)
class WideStep:
    """Plan step: the free (else the non-free) gates of ``level`` as one
    array operation — one gather-XOR-scatter, or one ``hash_many``."""

    level: ScheduleLevel
    free: bool


GateRecord = Tuple[int, int, int, int, int, int, int]

#: :meth:`LevelSchedule.build`'s per-gate flag byte.  A free gate carries
#: its delta-offset bit (XNOR/NOT); a non-free gate ``_NON_FREE`` plus its
#: AND-reduction inversions ``ia | ib << 1 | io << 2``.
_NON_FREE = 8
_GATE_FLAGS: Dict[GateType, int] = {
    op: int(op in (GateType.XNOR, GateType.NOT))
    for op in GateType
    if op.is_free
}
_GATE_FLAGS.update(
    (op, _NON_FREE | inv.ia | inv.ib << 1 | inv.out << 2)
    for op, inv in AND_REDUCTION.items()
)


@dataclasses.dataclass(frozen=True)
class ScalarRun:
    """Plan step: narrow gates run gate by gate on cached Python ints.

    Each record is ``(a, b, out, tidx, ia, ib, io)``; a free gate carries
    ``tidx == -1`` and its delta-offset flag in ``ia`` (``b`` already
    points at the scratch zero row for unary gates).  Records are in
    dependency order, so chained wires never round-trip through the
    byte plane.
    """

    gates: Tuple[GateRecord, ...]


#: What a plan is made of (see :meth:`LevelSchedule.step_plan`).
PlanStep = Union[WideStep, ScalarRun]


def _gate_records(level: ScheduleLevel, free: bool) -> List[GateRecord]:
    """Half a level's gates in :class:`ScalarRun` record form."""
    if free:
        return [
            (a, b, out, -1, inv, 0, 0)
            for a, b, out, inv in zip(
                level.free_a.tolist(), level.free_b.tolist(),
                level.free_out.tolist(), level.free_inv.tolist(),
            )
        ]
    return list(
        zip(
            level.nf_a.tolist(), level.nf_b.tolist(), level.nf_out.tolist(),
            level.nf_tidx.tolist(), level.nf_ia.tolist(),
            level.nf_ib.tolist(), level.nf_io.tolist(),
        )
    )


@dataclasses.dataclass(eq=False)
class LevelSchedule:
    """Cached per-level gate arrays for the vectorized GC engine, and
    the step plan (:meth:`step_plan`) both of its roles walk.

    Immutable by convention (one cached instance per circuit); the only
    mutable member is the plan cache.

    Attributes:
        levels: dependency levels in execution order.
        n_non_free: total garbled-table count (netlist non-XOR count).
        scratch_wire: index of the extra all-zero label row the
            vectorized engine appends after the real wires (unary free
            gates read it as their second operand).
        gate_outs: every gate output wire, for bulk defined-flag updates.
    """

    levels: Tuple[ScheduleLevel, ...]
    n_non_free: int
    n_wires: int
    scratch_wire: int
    gate_outs: Any
    _plan_cache: Dict[Tuple[int, int], Tuple[PlanStep, ...]] = (
        dataclasses.field(default_factory=dict, repr=False, compare=False)
    )

    def step_plan(self, batch: int, min_width: int) -> Tuple[PlanStep, ...]:
        """The steps, in order, that execute every gate of the schedule.

        The one decision garbler and evaluator share — which gates of a
        level run as one array operation, which gate by gate, and in
        what order — is made here.  Half a level (its free or its
        non-free gates) is *wide* when ``batch`` copies x gates reaches
        ``min_width`` and becomes a :class:`WideStep`.  Every narrower
        half — ripple-carry tails of adder trees, an isolated narrow
        level, the small half of a mixed level — joins the open
        :class:`ScalarRun`, where a gate-at-a-time loop beats NumPy
        dispatch on a handful of gates.

        A run is emitted only when a wide step reads one of its outputs
        (or at the end), so it stays open across wide steps that read
        none.  That is sound: a gate reads only wires of earlier levels,
        and whatever drove those — an earlier run, a wide step, the run
        itself — is emitted no later than the run is.  Replaying the
        plan in order never reads an undriven wire, and every gate sits
        in exactly one step.  Cached per ``(batch, min_width)``.
        """
        import numpy as np

        key = (batch, min_width)
        cached = self._plan_cache.get(key)
        if cached is not None:
            return cached

        steps: List[PlanStep] = []
        records: List[GateRecord] = []
        # wires the open run drives (scratch row included, never set)
        in_run = np.zeros(self.n_wires + 1, dtype=bool)

        def flush() -> None:
            if records:
                steps.append(ScalarRun(tuple(records)))
                records.clear()
                in_run.fill(False)

        for level in self.levels:
            for free, reads, out in (
                (True, (level.free_a, level.free_b), level.free_out),
                (False, (level.nf_a, level.nf_b), level.nf_out),
            ):
                if batch * out.size >= min_width:
                    if records and any(in_run[w].any() for w in reads):
                        flush()
                    steps.append(WideStep(level, free))
                elif out.size:
                    in_run[out] = True
                    records.extend(_gate_records(level, free))
        flush()
        plan = self._plan_cache[key] = tuple(steps)
        return plan

    @classmethod
    def build(cls, circuit: "Circuit") -> "LevelSchedule":
        """Levelize ``circuit`` (validates topological order as it goes).

        One pass over the gates (:func:`_gate_columns`) checks them and
        writes ``(level, a, b, out, flags)`` into columns.  The free and
        the non-free gates are then each sorted stably by level, so a
        level's arrays are slices of the sorted columns, in netlist
        order.
        """
        import numpy as np

        level_of, gate_a, gate_b, gate_outs, flags = _gate_columns(circuit)
        # levels 1..n_levels all exist: a gate at level L reads a wire
        # driven at level L-1
        n_levels = int(level_of.max()) if level_of.size else 0
        level_ids = np.arange(1, n_levels + 2)

        def grouped(gates: Any) -> Tuple[Any, Any, Any, List[int]]:
            """``gates`` (netlist order) stably sorted by level: their
            rank in that order, their gate indices, their levels, and
            where each level starts."""
            rank = np.argsort(level_of[gates], kind="stable")
            order = gates[rank]
            levels = level_of[order]
            return rank, order, levels, np.searchsorted(
                levels, level_ids
            ).tolist()

        def any_per_level(levels_sorted: Any, flag: Any) -> List[bool]:
            counts = np.bincount(levels_sorted[flag != 0], minlength=n_levels + 1)
            return (counts > 0).tolist()

        _, free, free_level, free_at = grouped(
            np.flatnonzero(flags < _NON_FREE)
        )
        free_a, free_b, free_out = gate_a[free], gate_b[free], gate_outs[free]
        free_inv = flags[free]
        free_has_inv = any_per_level(free_level, free_inv)

        # a non-free gate's rank among the non-free gates is its
        # netlist-order table index
        nf_tidx, nf, nf_level, nf_at = grouped(
            np.flatnonzero(flags >= _NON_FREE)
        )
        nf_tidx = nf_tidx.astype(np.int64, copy=False)
        nf_a, nf_b, nf_out = gate_a[nf], gate_b[nf], gate_outs[nf]
        nf_flags = flags[nf]
        nf_ia, nf_ib, nf_io = nf_flags & 1, (nf_flags >> 1) & 1, (nf_flags >> 2) & 1
        nf_has_ia = any_per_level(nf_level, nf_ia)
        nf_has_ib = any_per_level(nf_level, nf_ib)
        nf_has_io = any_per_level(nf_level, nf_io)
        tw0_a = _tweak_rows(2 * nf_tidx)
        tw0_b = _tweak_rows(2 * nf_tidx + 1)

        levels: List[ScheduleLevel] = []
        for level in range(1, n_levels + 1):
            f0, f1 = free_at[level - 1], free_at[level]
            n0, n1 = nf_at[level - 1], nf_at[level]
            levels.append(
                ScheduleLevel(
                    free_a=free_a[f0:f1],
                    free_b=free_b[f0:f1],
                    free_out=free_out[f0:f1],
                    free_inv=free_inv[f0:f1],
                    nf_a=nf_a[n0:n1],
                    nf_b=nf_b[n0:n1],
                    nf_out=nf_out[n0:n1],
                    nf_tidx=nf_tidx[n0:n1],
                    nf_ia=nf_ia[n0:n1],
                    nf_ib=nf_ib[n0:n1],
                    nf_io=nf_io[n0:n1],
                    free_has_inv=free_has_inv[level],
                    nf_has_ia=nf_has_ia[level],
                    nf_has_ib=nf_has_ib[level],
                    nf_has_io=nf_has_io[level],
                    tw0_a=tw0_a[n0:n1],
                    tw0_b=tw0_b[n0:n1],
                )
            )
        return cls(
            levels=tuple(levels),
            n_non_free=int(nf.size),
            n_wires=circuit.n_wires,
            scratch_wire=circuit.n_wires,
            gate_outs=gate_outs,
        )


def _gate_columns(circuit: "Circuit") -> Tuple[Any, Any, Any, Any, Any]:
    """Per gate, in netlist order: ``(level, a, b, out, flags)`` columns.

    The one per-gate loop of :meth:`LevelSchedule.build`: checks that
    every gate reads driven wires and drives one in range, and assigns
    its ASAP level (inputs and constants sit at level 0).  ``b`` of a
    unary gate is the scratch row ``n_wires``; ``flags`` is the
    :data:`_GATE_FLAGS` byte.  The columns are filled through
    ``memoryview`` s of the arrays: a plain C store per item, a fraction
    of ``ndarray.__setitem__``'s cost, and none of the memory of Python
    lists converted afterwards.
    """
    import numpy as np

    n_wires = circuit.n_wires
    scratch = n_wires
    wire_level = [0] * n_wires
    defined = bytearray(n_wires)
    for wire in range(min(2 + circuit.n_inputs, n_wires)):
        defined[wire] = 1
    n_gates = len(circuit.gates)
    col_level, col_a, col_b, col_out = (
        np.zeros(n_gates, dtype=np.intp) for _ in range(4)
    )
    col_flags = np.zeros(n_gates, dtype=np.uint8)
    put_level, put_a, put_b, put_out = (
        memoryview(col) for col in (col_level, col_a, col_b, col_out)
    )
    put_flags = memoryview(col_flags)
    for idx, (op, a, b, out) in enumerate(circuit.gates):
        for src in (a,) if b is None else (a, b):
            if not 0 <= src < n_wires or not defined[src]:
                raise CircuitError(
                    f"gate {idx} reads wire {src} before it is driven; "
                    "netlist is not topologically ordered"
                )
        if not 0 <= out < n_wires:
            raise CircuitError(f"gate {idx} drives out-of-range wire")
        defined[out] = 1
        level = wire_level[a]
        if b is None:
            b = scratch
        elif wire_level[b] > level:
            level = wire_level[b]
        level += 1
        wire_level[out] = level
        code = _GATE_FLAGS.get(op)
        if code is None:
            raise CircuitError(
                f"gate {idx} ({op}) has no AND reduction; "
                "cannot build a garbling schedule"
            )
        if code >= _NON_FREE and b == scratch:
            raise CircuitError(f"gate {idx} ({op}) is missing input b")
        put_level[idx] = level
        put_a[idx] = a
        put_b[idx] = b
        put_out[idx] = out
        put_flags[idx] = code
    return col_level, col_a, col_b, col_out, col_flags


def concatenate(name: str, circuits: Iterable[Circuit]) -> Tuple[int, int]:
    """Sum gate counts over several circuits (bookkeeping helper)."""
    xor = 0
    non_xor = 0
    for circuit in circuits:
        counts = circuit.counts()
        xor += counts.xor
        non_xor += counts.non_xor
    return xor, non_xor
