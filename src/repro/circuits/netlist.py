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
    "FreeStep",
    "GateCounts",
    "LevelSchedule",
    "ScalarRun",
    "ScheduleLevel",
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
        d_wires: Sequence[int] = (),
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
        #: a sequential core's register next-state wires, in register
        #: order: their zero-labels become the next cycle's state labels
        self.d_wires: Tuple[int, ...] = tuple(d_wires)
        # lazily built, cached level schedule (circuits are immutable by
        # convention once handed out, so one schedule serves every
        # garble/evaluate over this netlist)
        self._level_schedule: Optional["LevelSchedule"] = None
        # same convention: the gate inventory is asked for per request
        self._counts: Optional[GateCounts] = None
        self._interface: Any = None

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

    def interface_wires(self) -> Any:
        """The wires whose labels outlive one garbling walk, ascending.

        The constants, both parties' inputs and the state inputs (wires
        ``0 .. 2 + n_inputs - 1``), then the register d-wires and the
        outputs: what a garbler reads after garbling (input labels, OT
        messages, next-cycle state, decoding).  Every other wire is
        internal to the walk.  A sorted int array, built once and shared
        by every copy garbled over this netlist.
        """
        if self._interface is None:
            import numpy as np

            driven = np.asarray([*self.d_wires, *self.outputs], dtype=np.intp)
            self._interface = np.union1d(np.arange(2 + self.n_inputs), driven)
        return self._interface

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
        """AND-layer schedule for vectorized garbling/evaluation.

        Under free-XOR only the non-free gates need the oracle, so the
        unit of the schedule is the AND layer: level ``i`` holds the
        non-free gates at AND-depth ``i + 1`` (:meth:`depth`'s count),
        preceded by the free gates that must run before them, in
        sub-steps of mutually independent gates.  Each AND layer is one
        batched oracle call, each sub-step one gather-XOR-scatter.

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
class FreeStep:
    """Free gates the same number of XORs past the last AND layer: one
    gather-XOR-scatter.

    ``a`` / ``b`` / ``out`` are NumPy index vectors over the circuit's
    wires, slices of one concatenated column set.  A gate is ``a ^ b``
    plus an optional delta offset (XNOR/NOT garble as an extra
    global-delta XOR; the evaluator ignores it).  Unary gates (NOT/BUF)
    point ``b`` at the schedule's scratch zero row.
    """

    a: Any
    b: Any
    out: Any
    #: the delta offsets as a :func:`_word_mask`
    inv: Any
    #: pre-reduced so hot loops skip an ndarray.any() call
    has_inv: bool


@dataclasses.dataclass(frozen=True)
class ScheduleLevel:
    """One AND layer of a :class:`LevelSchedule` and the free sub-steps
    that must precede it.

    ``free`` runs first, in order: sub-step ``s`` holds the free gates
    ``s`` XORs past the previous AND layer.  The ``nf_*`` arrays are the
    AND layer itself, one oracle call when wide.  Non-free gates carry
    their AND-reduction inversions (``nf_ia/nf_ib/nf_io``, as
    :func:`_word_mask` s) and their netlist-order table index
    ``nf_tidx`` — the tweak of gate ``i`` is ``tweak_base + 2 *
    nf_tidx[i]``, matching the scalar garbler's counter exactly so the
    two paths stay bit-identical.
    """

    free: Tuple[FreeStep, ...]
    nf_a: Any
    nf_b: Any
    nf_out: Any
    nf_tidx: Any
    nf_ia: Any
    nf_ib: Any
    nf_io: Any
    #: pre-reduced flag summaries so hot loops skip ndarray.any() calls
    nf_has_ia: bool
    nf_has_ib: bool
    nf_has_io: bool
    #: the gates' a-tweaks at tweak_base 0 (``2 * nf_tidx``) as ``<u8``
    #: words; a b-tweak is one more, and any base one add
    tweaks: Any

    @property
    def n_non_free(self) -> int:
        return int(self.nf_out.size)


def _word_mask(bits: Any) -> Any:
    """``(n,)`` 0/1 flags as ``(n, 1)`` ``<u8`` words, 0 or all ones:
    ``delta & mask`` is a gate's delta offset on both words of a label."""
    return -bits.astype("<u8")[:, None]


GateRecord = Tuple[int, int, int, int, int, int, int]

#: :meth:`LevelSchedule.build`'s per-gate flag byte.  A free gate carries
#: its delta-offset bit (XNOR/NOT); a non-free gate ``_NON_FREE`` plus its
#: AND-reduction inversions ``ia | ib << 1 | io << 2``.
_NON_FREE = 8
#: :func:`_gate_columns` packs a gate's place as ``phase << _SUB_BITS |
#: sub``: its AND-depth and its free sub-step since that AND layer.  20
#: bits keep a place below 2**30 (one CPython digit) up to AND-depth
#: 1023; a chain of 2**20 XORs would carry into the phase, which
#: lengthens the schedule but never makes it unsound.
_SUB_BITS = 20
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

    Each record is ``(a, b, out, tidx, ia, ib, io)``, the flags truthy
    when set; a free gate carries ``tidx == -1`` and its delta-offset
    flag in ``ia`` (``b`` already points at the scratch zero row for
    unary gates).  Records are in dependency order, so chained wires
    never round-trip through the byte plane.
    """

    gates: Tuple[GateRecord, ...]


#: What a plan is made of (see :meth:`LevelSchedule.step_plan`): a wide
#: free sub-step, a wide AND layer (its level), or a scalar run.
PlanStep = Union[FreeStep, ScheduleLevel, ScalarRun]


def _gate_records(step: Union[FreeStep, ScheduleLevel]) -> List[GateRecord]:
    """A free sub-step's or an AND layer's gates in :class:`ScalarRun`
    record form."""

    def flags(mask: Any) -> List[int]:
        return mask.ravel().tolist()  # 0, or all ones when set

    if isinstance(step, FreeStep):
        return [
            (a, b, out, -1, inv, 0, 0)
            for a, b, out, inv in zip(
                step.a.tolist(), step.b.tolist(),
                step.out.tolist(), flags(step.inv),
            )
        ]
    return list(
        zip(
            step.nf_a.tolist(), step.nf_b.tolist(), step.nf_out.tolist(),
            step.nf_tidx.tolist(), flags(step.nf_ia),
            flags(step.nf_ib), flags(step.nf_io),
        )
    )


@dataclasses.dataclass(eq=False)
class LevelSchedule:
    """Cached per-AND-layer gate arrays for the vectorized GC engine,
    and the step plan (:meth:`step_plan`) both of its roles walk.

    Immutable by convention (one cached instance per circuit); the only
    mutable member is the plan cache.

    Attributes:
        levels: in execution order, level ``i`` is AND layer ``i + 1``
            with the free sub-steps that precede it; one final level
            holds the free gates after the last AND layer, so there are
            AND-depth + 1 of them.
        n_non_free: total garbled-table count (netlist non-XOR count).
        scratch_wire: index of the extra all-zero label row the
            vectorized engine appends after the real wires (unary free
            gates read it as their second operand).
    """

    levels: Tuple[ScheduleLevel, ...]
    n_non_free: int
    n_wires: int
    scratch_wire: int
    _plan_cache: Dict[Tuple[int, int], Tuple[PlanStep, ...]] = (
        dataclasses.field(default_factory=dict, repr=False, compare=False)
    )

    def step_plan(self, batch: int, min_width: int) -> Tuple[PlanStep, ...]:
        """The steps, in order, that execute every gate of the schedule.

        The one decision garbler and evaluator share — which gates run
        as one array operation, which gate by gate, and in what order —
        is made here.  The schedule's steps are, level by level, each
        free sub-step and then the AND layer.  A step is *wide* when
        ``batch`` copies x gates reaches ``min_width``: a
        :class:`FreeStep` or a level's AND layer (the
        :class:`ScheduleLevel` itself) goes into the plan as is.  Every
        narrower step — the ripple-carry tail of an adder, a narrow AND
        layer, a short XOR chain — joins the open :class:`ScalarRun`,
        where a gate-at-a-time loop beats NumPy dispatch on a handful of
        gates.

        A run is emitted only when a wide step reads one of its outputs
        (or at the end), so it stays open across wide steps that read
        none.  That is sound: a gate reads only wires driven by earlier
        steps of the schedule — a free gate those of earlier levels and
        of earlier sub-steps of its own, an AND gate those of earlier
        levels and of its own level's sub-steps — and whatever drove
        them (an earlier run, a wide step, the run itself) is emitted no
        later than the run is.  Replaying the plan in order never reads
        an undriven wire, and every gate sits in exactly one step.
        Cached per ``(batch, min_width)``.
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
            parts: List[Tuple[Union[FreeStep, ScheduleLevel], Any, Any]] = [
                (free, (free.a, free.b), free.out) for free in level.free
            ]
            parts.append((level, (level.nf_a, level.nf_b), level.nf_out))
            for step, reads, out in parts:
                if batch * out.size >= min_width:
                    if records and any(in_run[w].any() for w in reads):
                        flush()
                    steps.append(step)
                elif out.size:
                    in_run[out] = True
                    records.extend(_gate_records(step))
        flush()
        plan = self._plan_cache[key] = tuple(steps)
        return plan

    @classmethod
    def build(cls, circuit: "Circuit") -> "LevelSchedule":
        """Levelize ``circuit`` by AND layer (validates topological order
        as it goes).

        One pass over the gates (:func:`_gate_columns`) checks them and
        writes ``(place, a, b, out, flags)`` into columns, ``place``
        packing a gate's AND phase and free sub-step.  The free and the
        non-free gates are then each sorted stably by place, so every
        sub-step's and every AND layer's arrays are slices of the sorted
        columns, in netlist order.
        """
        import numpy as np

        place, gate_a, gate_b, gate_outs, flags = _gate_columns(circuit)
        phase = place >> _SUB_BITS
        # AND layers 1..depth all exist (a gate of phase p reads a wire of
        # phase p - 1); level i runs layer i + 1, level depth the free tail
        depth = int(phase.max()) if phase.size else 0
        phase_ids = np.arange(depth + 2)

        def by_place(gates: Any) -> Tuple[Any, Any]:
            """``gates`` (netlist order) stably sorted by place: their
            rank in that order, and their gate indices."""
            rank = np.argsort(place[gates], kind="stable")
            return rank, gates[rank]

        # one free sub-step per distinct place, grouped by phase
        _, free = by_place(np.flatnonzero(flags < _NON_FREE))
        free_a, free_b, free_out = gate_a[free], gate_b[free], gate_outs[free]
        free_inv = flags[free]
        free_place = place[free]
        starts = np.flatnonzero(np.diff(free_place, prepend=-1))
        has_inv = (
            np.maximum.reduceat(free_inv, starts).tolist() if starts.size else []
        )
        bounds = starts.tolist() + [free.size]
        inv_words = _word_mask(free_inv)
        sub_steps = [
            FreeStep(
                a=free_a[s0:s1], b=free_b[s0:s1], out=free_out[s0:s1],
                inv=inv_words[s0:s1], has_inv=bool(inv),
            )
            for s0, s1, inv in zip(bounds, bounds[1:], has_inv)
        ]
        subs_at = np.searchsorted(
            free_place[starts] >> _SUB_BITS, phase_ids
        ).tolist()

        # a non-free gate's rank among the non-free gates is its
        # netlist-order table index
        nf_tidx, nf = by_place(np.flatnonzero(flags >= _NON_FREE))
        nf_tidx = nf_tidx.astype(np.int64, copy=False)
        nf_phase = phase[nf]
        nf_at = np.searchsorted(nf_phase, phase_ids + 1).tolist()
        nf_a, nf_b, nf_out = gate_a[nf], gate_b[nf], gate_outs[nf]
        nf_flags = flags[nf]
        inversions = [nf_flags >> bit & 1 for bit in range(3)]  # ia, ib, io

        def any_per_layer(flag: Any) -> List[bool]:
            counts = np.bincount(nf_phase[flag != 0], minlength=depth + 2)
            return (counts[1:] > 0).tolist()

        nf_has_ia, nf_has_ib, nf_has_io = map(any_per_layer, inversions)
        nf_ia, nf_ib, nf_io = map(_word_mask, inversions)
        tweak_a = (2 * nf_tidx).astype("<u8")

        levels = [
            ScheduleLevel(
                free=tuple(sub_steps[subs_at[i] : subs_at[i + 1]]),
                nf_a=nf_a[n0:n1],
                nf_b=nf_b[n0:n1],
                nf_out=nf_out[n0:n1],
                nf_tidx=nf_tidx[n0:n1],
                nf_ia=nf_ia[n0:n1],
                nf_ib=nf_ib[n0:n1],
                nf_io=nf_io[n0:n1],
                nf_has_ia=nf_has_ia[i],
                nf_has_ib=nf_has_ib[i],
                nf_has_io=nf_has_io[i],
                tweaks=tweak_a[n0:n1],
            )
            for i, (n0, n1) in enumerate(zip(nf_at, nf_at[1:]))
        ]
        return cls(
            levels=tuple(levels),
            n_non_free=int(nf.size),
            n_wires=circuit.n_wires,
            scratch_wire=circuit.n_wires,
        )


def _gate_columns(circuit: "Circuit") -> Tuple[Any, Any, Any, Any, Any]:
    """Per gate, in netlist order: ``(place, a, b, out, flags)`` columns.

    The one per-gate loop of :meth:`LevelSchedule.build`: checks that
    every gate reads driven wires and drives one in range, and assigns
    its place ``phase << _SUB_BITS | sub`` (inputs and constants sit at
    0).  A non-free gate's phase is one more than its inputs' highest
    and its ``sub`` is 0; a free gate keeps that phase and its ``sub``
    is one more than that of its latest same-phase input — both at
    once, since the packed places compare as ``(phase, sub)`` pairs.
    ``b`` of a unary gate is the scratch row ``n_wires``; ``flags`` is
    the :data:`_GATE_FLAGS` byte.  The columns are filled through
    ``memoryview`` s of the arrays: a plain C store per item, a fraction
    of ``ndarray.__setitem__``'s cost, and none of the memory of Python
    lists converted afterwards.
    """
    import numpy as np

    n_wires = circuit.n_wires
    scratch = n_wires
    wire_place = [0] * n_wires
    defined = bytearray(n_wires)
    for wire in range(min(2 + circuit.n_inputs, n_wires)):
        defined[wire] = 1
    n_gates = len(circuit.gates)
    col_place, col_a, col_b, col_out = (
        np.zeros(n_gates, dtype=np.intp) for _ in range(4)
    )
    col_flags = np.zeros(n_gates, dtype=np.uint8)
    put_place, put_a, put_b, put_out = (
        memoryview(col) for col in (col_place, col_a, col_b, col_out)
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
        place = wire_place[a]
        if b is None:
            b = scratch
        elif wire_place[b] > place:
            place = wire_place[b]
        code = _GATE_FLAGS.get(op)
        if code is None:
            raise CircuitError(
                f"gate {idx} ({op}) has no AND reduction; "
                "cannot build a garbling schedule"
            )
        if code < _NON_FREE:
            place += 1
        elif b == scratch:
            raise CircuitError(f"gate {idx} ({op}) is missing input b")
        else:
            place = ((place >> _SUB_BITS) + 1) << _SUB_BITS
        wire_place[out] = place
        put_place[idx] = place
        put_a[idx] = a
        put_b[idx] = b
        put_out[idx] = out
        put_flags[idx] = code
    return col_place, col_a, col_b, col_out, col_flags


def concatenate(name: str, circuits: Iterable[Circuit]) -> Tuple[int, int]:
    """Sum gate counts over several circuits (bookkeeping helper)."""
    xor = 0
    non_xor = 0
    for circuit in circuits:
        counts = circuit.counts()
        xor += counts.xor
        non_xor += counts.non_xor
    return xor, non_xor
