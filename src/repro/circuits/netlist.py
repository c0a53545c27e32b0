"""Netlist container: wires, gates, inputs and outputs.

A :class:`Circuit` is the unit everything else in this package consumes:
the plaintext simulator, netlist export, the gate-count reports and
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
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..errors import CircuitError
from .gates import AND_REDUCTION, N_FREE_CODES, OP_CODE, OPS, Gate, GateType

__all__ = [
    "Circuit",
    "FreeStep",
    "GateColumns",
    "GateCounts",
    "GateView",
    "LevelSchedule",
    "ScalarRun",
    "ScheduleLevel",
    "CONST_ZERO",
    "CONST_ONE",
    "NO_INPUT",
]

CONST_ZERO = 0
CONST_ONE = 1

#: The ``b`` column's entry for a unary gate (NOT, BUF).
NO_INPUT = -(1 << 31)
#: Op codes from here on are binary gates (BUF and NOT come first).
_FIRST_BINARY = OP_CODE[GateType.XOR]


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


class GateColumns(NamedTuple):
    """A netlist's gates as columns, in netlist order: ``op`` (``uint8``
    :data:`repro.circuits.gates.OPS` codes) and ``a``, ``b``, ``out``
    (``int32`` wire ids, ``b`` :data:`NO_INPUT` for a unary gate) — 13
    bytes a gate, read-only."""

    op: Any
    a: Any
    b: Any
    out: Any

    @classmethod
    def from_gates(cls, gates: Iterable[Gate]) -> "GateColumns":
        """The columns of a :class:`Gate` sequence."""
        rows = list(gates)
        for idx, gate in enumerate(rows):
            if gate.op not in OP_CODE:
                raise CircuitError(
                    f"gate {idx} ({gate.op}) is not a GateType; "
                    "a netlist holds GateType gates only"
                )
        n = len(rows)
        return cls.frozen(
            np.fromiter((OP_CODE[g.op] for g in rows), np.uint8, n),
            np.fromiter((g.a for g in rows), np.int32, n),
            np.fromiter(
                (NO_INPUT if g.b is None else g.b for g in rows), np.int32, n
            ),
            np.fromiter((g.out for g in rows), np.int32, n),
        )

    @classmethod
    def frozen(cls, op: Any, a: Any, b: Any, out: Any) -> "GateColumns":
        """Columns over these arrays, marked read-only."""
        for col in (op, a, b, out):
            col.flags.writeable = False
        return cls(op, a, b, out)


class GateView:
    """The :class:`Gate` rows of a circuit's columns, read-only: sized and
    iterable, in netlist order.

    For the reference garbler and evaluator, the plaintext simulator and
    netlist export.  Accounting, validation and the level schedule read
    the columns; no request builds a ``Gate``.
    """

    __slots__ = ("columns",)

    #: gates converted to Python ints per ``tolist`` while iterating
    _CHUNK = 1 << 16

    def __init__(self, columns: GateColumns) -> None:
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns.op)

    def __iter__(self) -> Iterator[Gate]:
        op, a, b, out = self.columns
        for lo in range(0, len(op), self._CHUNK):
            hi = lo + self._CHUNK
            for code, x, y, z in zip(
                op[lo:hi].tolist(), a[lo:hi].tolist(),
                b[lo:hi].tolist(), out[lo:hi].tolist(),
            ):
                yield Gate(OPS[code], x, None if y == NO_INPUT else y, z)


class Circuit:
    """An immutable Boolean netlist, stored as :class:`GateColumns`.

    Use :class:`repro.circuits.builder.CircuitBuilder` to construct one;
    a caller holding a :class:`Gate` sequence may pass that instead.
    """

    def __init__(
        self,
        n_alice: int,
        n_bob: int,
        gates: Union[GateColumns, GateView, Iterable[Gate]],
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
        if isinstance(gates, GateView):
            gates = gates.columns
        self.columns: GateColumns = (
            gates if isinstance(gates, GateColumns)
            else GateColumns.from_gates(gates)
        )
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
        # per gate, its schedule place (see _gate_places): handed over by
        # the builder, else scanned once
        self._places: Any = None
        # lazily built, cached level schedule (circuits are immutable, so
        # one schedule serves every garble/evaluate over this netlist)
        self._level_schedule: Optional["LevelSchedule"] = None
        # same convention: the gate inventory is asked for per request
        self._counts: Optional[GateCounts] = None
        self._interface: Any = None

    @property
    def gates(self) -> GateView:
        """The gates as read-only :class:`Gate` rows, in netlist order."""
        return GateView(self.columns)

    @property
    def n_gates(self) -> int:
        """Number of gates."""
        return len(self.columns.op)

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
            driven = np.asarray([*self.d_wires, *self.outputs], dtype=np.intp)
            wires = np.sort(
                np.concatenate((np.arange(2 + self.n_inputs, dtype=np.intp), driven))
            )
            # sort and drop repeats by hand: np.union1d and np.unique
            # import numpy.ma (~10 ms) on their first call in a process
            self._interface = wires[np.diff(wires, prepend=-1) != 0]
        return self._interface

    # -- accounting ------------------------------------------------------

    def counts(self) -> GateCounts:
        """Count free vs non-free gates (the paper's XOR / non-XOR).

        Counted once and cached, like :meth:`level_schedule`.
        """
        if self._counts is None:
            non_xor = int(np.count_nonzero(self.columns.op >= N_FREE_CODES))
            self._counts = GateCounts(
                xor=self.n_gates - non_xor, non_xor=non_xor
            )
        return self._counts

    # -- structural checks -----------------------------------------------

    def validate(self) -> None:
        """Check structural well-formedness.

        The checks run on the columns; when one fails, a scan of the
        gates in netlist order names the first offending gate.

        Raises:
            CircuitError: on dangling wires, out-of-order definitions,
                multiply-driven wires or out-of-range outputs.
        """
        driver = self._drivers()
        if driver is None:
            self._validate_gates()
            raise CircuitError("netlist failed validation")  # pragma: no cover
        outs = np.asarray(self.outputs, dtype=np.int64)
        bad = (outs < 0) | (outs >= self.n_wires)
        if not bad.any():
            bad = driver[outs] >= self.n_gates
        if bad.any():
            out = int(outs[np.argmax(bad)])
            raise CircuitError(f"output wire {out} is never driven")

    def _drivers(self) -> Any:
        """Per wire, the index of the gate driving it (-1 for the
        constants and inputs, ``n_gates`` when undriven); ``None`` when
        a gate reads a wire not driven before it, drives a wire out of
        range or already driven, or a binary gate lacks ``b``."""
        op, a, b, out = self.columns
        n, n_wires = self.n_gates, self.n_wires
        driver = np.full(n_wires, n, dtype=np.int32)
        driver[: 2 + self.n_inputs] = -1
        if not n:
            return driver
        if out.min() < 0 or out.max() >= n_wires:
            return None
        index = np.arange(n, dtype=np.int32)
        if (driver[out] != n).any():
            return None  # drives a constant or an input
        driver[out] = index
        if (driver[out] != index).any():
            return None  # a wire driven twice keeps only its last driver
        unary = b == NO_INPUT
        if (unary & (op >= _FIRST_BINARY)).any():
            return None  # a binary gate without b
        for src, reads in ((a, index), (b[~unary], index[~unary])):
            if src.size and (src.min() < 0 or src.max() >= n_wires):
                return None
            if (driver[src] >= reads).any():
                return None  # read before it is driven
        return driver

    def _validate_gates(self) -> None:
        """:meth:`validate`'s checks gate by gate, raising on the first
        failure (the message :meth:`validate` reports)."""
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

    def depth(self) -> int:
        """Longest input-to-output path counted in non-free gates.

        Garbling cost is dominated by non-free gates; this metric is the
        AND-depth commonly used to characterize GC netlists.
        """
        if not self.outputs:
            return 0
        level = np.zeros(self.n_wires, dtype=np.int64)
        level[self.columns.out] = self._gate_places() >> SUB_BITS
        return int(level[np.asarray(self.outputs, dtype=np.intp)].max())

    def _gate_places(self) -> Any:
        """Per gate, its place ``phase << SUB_BITS | sub`` (``int64``):
        its AND-depth and its free sub-step since that AND layer.  The
        builder hands them over as it tracks them; otherwise one scan of
        the gates computes them (:func:`_scan_places`, which checks the
        netlist's order as it goes)."""
        if self._places is None:
            self._places = _scan_places(self)
        return self._places

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


@dataclasses.dataclass(frozen=True)
class FreeStep:
    """Free gates the same number of XORs past the last AND layer: one
    gather-XOR-scatter.

    ``ab`` is the gates' operands as one ``[a | b]`` index vector over
    the label plane's slots (one gather fetches both; see
    :meth:`LevelSchedule.build`), ``out`` the slots they drive.  A gate
    is ``a ^ b`` plus an optional delta offset (XNOR/NOT garble as an
    extra global-delta XOR; the evaluator ignores it).
    Unary gates (NOT/BUF) point ``b`` at the schedule's scratch zero row.
    """

    ab: Any
    out: Any
    #: the delta offsets as ``(m, 2)`` :func:`_word_mask` words (``(m,
    #: batch, 2)`` in a plan, :meth:`LevelSchedule.step_plan`), or None
    #: when no gate of the step has one (most steps)
    inv: Any

    @property
    def a(self) -> Any:
        """The first operands: a view of ``ab``."""
        return self.ab[: self.out.size]

    @property
    def b(self) -> Any:
        """The second operands: a view of ``ab``."""
        return self.ab[self.out.size :]


@dataclasses.dataclass(frozen=True)
class ScheduleLevel:
    """One AND layer of a :class:`LevelSchedule` and the free sub-steps
    that must precede it.

    ``free`` runs first, in order: sub-step ``s`` holds the free gates
    ``s`` XORs past the previous AND layer.  The ``nf_*`` arrays are the
    AND layer itself, one oracle call when wide: ``nf_ab`` the gates'
    ``[a | b]`` operand slots, ``nf_out`` the slots they drive.  A
    gate's two tweaks are ``tweak_base + 2 * tidx`` and one more,
    ``tidx`` being its netlist-order table index, matching the scalar
    garbler's counter exactly so the two paths stay bit-identical.
    """

    free: Tuple[FreeStep, ...]
    nf_ab: Any
    nf_out: Any
    #: the gates' a|b tweak words at tweak base 0, ``[2 tidx | 2 tidx +
    #: 1]`` as ``<u8`` (in a plan, each repeated once per copy); any
    #: other base is one add
    tweaks: Any
    #: the same words as ``intp`` indices (a view): a table's 16-byte
    #: halves ``tg`` / ``te`` are halves ``2 tidx`` / ``2 tidx + 1``
    halves: Any
    #: the AND-reduction input inversions ``[ia | ib]`` as ``(2m, 2)``
    #: :func:`_word_mask` words (``(2m, batch, 2)`` in a plan), or None
    #: when no gate has one
    nf_inv_ab: Any
    #: the output inversions as ``(m, 2)`` words (``(m, batch, 2)`` in a
    #: plan), or None
    nf_io: Any

    @property
    def n_non_free(self) -> int:
        return int(self.nf_out.size)

    @property
    def nf_a(self) -> Any:
        """The gates' first operands: a view of ``nf_ab``."""
        return self.nf_ab[: self.nf_out.size]

    @property
    def nf_b(self) -> Any:
        """The gates' second operands: a view of ``nf_ab``."""
        return self.nf_ab[self.nf_out.size :]

    @property
    def nf_tidx(self) -> Any:
        """The gates' netlist-order table indices."""
        return self.halves[: self.nf_out.size] >> 1


def _word_mask(bits: Any) -> Any:
    """``(n,)`` 0/1 flags as ``(n, 2)`` ``<u8`` words, 0 or all ones:
    ``delta & mask`` is each gate's delta offset, with no operand
    broadcast along a label's two words."""
    return np.repeat(-bits.astype("<u8"), 2).reshape(-1, 2)


def _per_copy(words: Any, batch: int) -> Any:
    """Per-gate words — ``(n,)`` tweaks or ``(n, 2)`` masks, or None —
    for a walk of ``batch`` copies, whose labels are wire-major: each
    gate's words once per copy, ``(n, batch, ...)`` in (gate, copy)
    order and contiguous.  At batch 1 a view, not a copy."""
    if words is None:
        return None
    shape = (len(words), batch) + words.shape[1:]
    return np.ascontiguousarray(np.broadcast_to(words[:, None], shape))


def _for_batch(step: Union["FreeStep", "ScheduleLevel"], batch: int) -> Any:
    """A wide step as a plan for ``batch`` copies holds it: its word
    vectors per copy (:func:`_per_copy`), tweaks flattened to the
    oracle's ``(2m batch,)`` rows; index vectors shared."""
    if isinstance(step, FreeStep):
        return dataclasses.replace(step, inv=_per_copy(step.inv, batch))
    return dataclasses.replace(
        step,
        tweaks=_per_copy(step.tweaks, batch).reshape(-1),
        nf_inv_ab=_per_copy(step.nf_inv_ab, batch),
        nf_io=_per_copy(step.nf_io, batch),
    )


def _paired(first: Any, second: Any, bounds: Sequence[int]) -> Any:
    """Two per-gate columns as one, segment by segment: segment
    ``bounds[i] : bounds[i + 1]`` of both becomes ``[first | second]``
    at twice its offset, so each step's ``[a | b]`` vector is a slice."""
    sizes = np.diff(bounds)
    at = np.repeat(np.asarray(bounds[:-1], dtype=np.intp), sizes)
    at += np.arange(first.size, dtype=np.intp)
    out = np.empty(2 * first.size, dtype=first.dtype)
    out[at] = first
    at += np.repeat(sizes, sizes)
    out[at] = second
    return out


GateRecord = Tuple[int, int, int, int, int, int, int]

#: :meth:`LevelSchedule.build`'s per-gate flag byte.  A free gate carries
#: its delta-offset bit (XNOR/NOT); a non-free gate ``_NON_FREE`` plus its
#: AND-reduction inversions ``ia | ib << 1 | io << 2``.
_NON_FREE = 8
#: A gate's place (:func:`_scan_places`, tracked by the builder too) is
#: ``phase << SUB_BITS | sub``: its AND-depth and its free sub-step
#: since that AND layer.  20 bits keep a place below 2**30 (one CPython
#: digit) up to AND-depth 1023; a chain of 2**20 XORs would carry into
#: the phase, which lengthens the schedule but never makes it unsound.
SUB_BITS = 20
_GATE_FLAGS: Dict[GateType, int] = {
    op: int(op in (GateType.XNOR, GateType.NOT))
    for op in GateType
    if op.is_free
}
_GATE_FLAGS.update(
    (op, _NON_FREE | inv.ia | inv.ib << 1 | inv.out << 2)
    for op, inv in AND_REDUCTION.items()
)
#: :data:`_GATE_FLAGS` indexed by op code
_FLAGS_BY_CODE = np.array([_GATE_FLAGS[op] for op in OPS], dtype=np.uint8)


@dataclasses.dataclass(frozen=True)
class ScalarRun:
    """Plan step: narrow gates run gate by gate on cached Python ints.

    Each record is ``(a, b, out, tidx, ia, ib, io)``, ``a`` / ``b`` /
    ``out`` plane slots and the flags truthy when set; a free gate
    carries ``tidx == -1`` and its delta-offset flag in ``ia`` (``b``
    already points at the scratch zero row for unary gates).  Records
    are in schedule order, so chained wires never round-trip through the
    byte plane.
    """

    gates: Tuple[GateRecord, ...]


#: What a plan is made of (see :meth:`LevelSchedule.step_plan`): a wide
#: free sub-step, a wide AND layer (its level), or a scalar run.
PlanStep = Union[FreeStep, ScheduleLevel, ScalarRun]


def _gate_records(step: Union[FreeStep, ScheduleLevel]) -> List[GateRecord]:
    """A free sub-step's or an AND layer's gates in :class:`ScalarRun`
    record form."""

    def flags(mask: Any, n: int) -> List[int]:
        """A word mask's per-gate flags: 0, or all ones when set."""
        return [0] * n if mask is None else mask[:, 0].tolist()

    if isinstance(step, FreeStep):
        m = step.out.size
        return [
            (a, b, out, -1, inv, 0, 0)
            for a, b, out, inv in zip(
                step.a.tolist(), step.b.tolist(),
                step.out.tolist(), flags(step.inv, m),
            )
        ]
    m = step.n_non_free
    inv_ab = flags(step.nf_inv_ab, 2 * m)
    return list(
        zip(
            step.nf_a.tolist(), step.nf_b.tolist(), step.nf_out.tolist(),
            step.nf_tidx.tolist(), inv_ab[:m], inv_ab[m:],
            flags(step.nf_io, m),
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
        n_slots: label-plane rows the wires need (:meth:`build`'s slot
            scan).  Row ``n_slots`` is the extra all-zero row unary free
            gates read as their second operand, so a walk's plane has
            ``n_slots + 1`` rows.
        held: wire -> slot for the wires a walk still holds at its end,
            the outputs and register d-wires.
        widest: most operands one step gathers (the longest ``ab`` /
            ``nf_ab``): the width the garbler tiles its deltas to.
    """

    levels: Tuple[ScheduleLevel, ...]
    n_non_free: int
    n_wires: int
    n_slots: int
    held: Dict[int, int]
    widest: int
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

        Steps index plane slots, not wires (:meth:`build`), so the
        plan's order must respect every slot a step touches.  Replayed
        in schedule order, the slots hold exactly what the wires would:
        a slot is reused only after its wire's last reader, and never by
        the step that frees it.  A run is emitted when a wide step
        conflicts with it (or at the end): when the wide step reads a
        slot the run writes, or writes a slot the run reads or writes.
        So it stays open across wide steps that touch none of its slots
        but share reads, which is sound: such a wide step commutes with
        every gate the run holds — those all come before it in schedule
        order — and the plan is the schedule order with each wide step
        moved ahead of gates it commutes with.  Without the write rules,
        a wide step could overwrite a slot whose old wire a run gate
        still reads, or one a run gate then overwrites.  Every gate sits
        in exactly one step.

        A wide step goes in with its word vectors laid out for a walk of
        ``batch`` copies, whose labels are wire-major (gate, copy): its
        masks (``inv``, ``nf_inv_ab``, ``nf_io``) are ``(m, batch, 2)``
        and its ``tweaks`` repeat each word ``batch`` times — at batch
        1 views of the schedule's own.  Index vectors are shared.
        Cached per ``(batch, min_width)``.
        """
        key = (batch, min_width)
        cached = self._plan_cache.get(key)
        if cached is not None:
            return cached

        steps: List[PlanStep] = []
        records: List[GateRecord] = []
        # the slots the open run writes, and those it reads or writes
        written = np.zeros(self.n_slots + 1, dtype=bool)
        touched = np.zeros(self.n_slots + 1, dtype=bool)

        def flush() -> None:
            if records:
                steps.append(ScalarRun(tuple(records)))
                records.clear()
                written.fill(False)
                touched.fill(False)

        for level in self.levels:
            parts: List[Tuple[Union[FreeStep, ScheduleLevel], Any, Any]] = [
                (free, free.ab, free.out) for free in level.free
            ]
            parts.append((level, level.nf_ab, level.nf_out))
            for step, reads, out in parts:
                if batch * out.size >= min_width:
                    if records and (
                        written[reads].any() or touched[out].any()
                    ):
                        flush()
                    steps.append(_for_batch(step, batch))
                elif out.size:
                    written[out] = touched[out] = touched[reads] = True
                    records.extend(_gate_records(step))
        flush()
        plan = self._plan_cache[key] = tuple(steps)
        return plan

    @classmethod
    def build(cls, circuit: "Circuit") -> "LevelSchedule":
        """Levelize ``circuit`` by AND layer.

        Reads the circuit's columns and its gates' places
        (:meth:`Circuit._gate_places`: the builder's, or one checking
        scan of a netlist given as gates), ``place`` packing a gate's
        AND phase and free sub-step.  The free and the non-free gates
        are then each sorted stably by place, so every sub-step's and
        every AND layer's arrays are slices of the sorted columns, in
        netlist order.  Last, :func:`_assign_slots` gives each wire a
        plane slot, and the index vectors are rewritten in place from
        wires to slots: a walk's plane holds the live set, not every
        wire.
        """
        place = circuit._gate_places()
        op, a, b, out = circuit.columns
        flags = _FLAGS_BY_CODE[op]
        # AND layers 1..depth all exist (a gate of phase p reads a wire of
        # phase p - 1); level i runs layer i + 1, level depth the free tail
        depth = int(place.max()) >> SUB_BITS if place.size else 0
        phase_ids = np.arange(depth + 2)

        def by_place(gates: Any) -> Tuple[Any, Any]:
            """``gates`` (netlist order) stably sorted by place: their
            rank in that order, and their gate indices."""
            rank = np.argsort(place[gates], kind="stable")
            return rank, gates[rank]

        def wires(gates: Any) -> Tuple[Any, Any, Any]:
            """The gates' ``a``, ``b`` and ``out`` as index vectors; a
            unary gate reads the scratch row as its ``b``."""
            second = b[gates].astype(np.intp)
            second[second == NO_INPUT] = circuit.n_wires
            return a[gates].astype(np.intp), second, out[gates].astype(np.intp)

        # one free sub-step per distinct place, grouped by phase
        _, free = by_place(np.flatnonzero(flags < _NON_FREE))
        free_a, free_b, free_out = wires(free)
        free_inv = flags[free]
        free_place = place[free]
        starts = np.flatnonzero(np.diff(free_place, prepend=-1))
        has_inv = (
            np.maximum.reduceat(free_inv, starts).tolist() if starts.size else []
        )
        bounds = starts.tolist() + [free.size]
        free_ab = _paired(free_a, free_b, bounds)
        del free_a, free_b  # only the paired vectors are kept: peak memory
        sub_steps = [
            FreeStep(
                ab=free_ab[2 * s0 : 2 * s1], out=free_out[s0:s1],
                inv=_word_mask(free_inv[s0:s1]) if inv else None,
            )
            for s0, s1, inv in zip(bounds, bounds[1:], has_inv)
        ]
        subs_at = np.searchsorted(
            free_place[starts] >> SUB_BITS, phase_ids
        ).tolist()

        # a non-free gate's rank among the non-free gates is its
        # netlist-order table index
        nf_tidx, nf = by_place(np.flatnonzero(flags >= _NON_FREE))
        nf_phase = place[nf] >> SUB_BITS
        nf_at = np.searchsorted(nf_phase, phase_ids + 1).tolist()
        nf_a, nf_b, nf_out = wires(nf)
        nf_ab = _paired(nf_a, nf_b, nf_at)
        del nf_a, nf_b
        halves = _paired(2 * nf_tidx, 2 * nf_tidx + 1, nf_at)
        del nf_tidx
        tweaks = halves.view("<u8")
        nf_flags = flags[nf]
        ia, ib, io = (nf_flags >> bit & 1 for bit in range(3))

        def any_per_layer(flag: Any) -> List[bool]:
            counts = np.bincount(nf_phase[flag != 0], minlength=depth + 2)
            return (counts[1:] > 0).tolist()

        has_inv_ab, has_io = any_per_layer(ia | ib), any_per_layer(io)

        levels = [
            ScheduleLevel(
                free=tuple(sub_steps[subs_at[i] : subs_at[i + 1]]),
                nf_ab=nf_ab[2 * n0 : 2 * n1],
                nf_out=nf_out[n0:n1],
                tweaks=tweaks[2 * n0 : 2 * n1],
                halves=halves[2 * n0 : 2 * n1],
                nf_inv_ab=(
                    _word_mask(np.concatenate((ia[n0:n1], ib[n0:n1])))
                    if has_inv_ab[i] else None
                ),
                nf_io=_word_mask(io[n0:n1]) if has_io[i] else None,
            )
            for i, (n0, n1) in enumerate(zip(nf_at, nf_at[1:]))
        ]
        # every step's vectors are views of these four: index slots
        held = np.array(
            sorted({*circuit.outputs, *circuit.d_wires}), dtype=np.intp
        )
        slot, n_slots = _assign_slots(levels, circuit, held)
        for vector in (free_ab, free_out, nf_ab, nf_out):
            vector[:] = slot[vector]
        return cls(
            levels=tuple(levels),
            n_non_free=int(nf.size),
            n_wires=circuit.n_wires,
            n_slots=n_slots,
            held=dict(zip(held.tolist(), slot[held].tolist())),
            widest=2 * int(max(np.diff(bounds).max(initial=0),
                               np.diff(nf_at).max(initial=0))),
        )


def _assign_slots(
    levels: Sequence[ScheduleLevel], circuit: "Circuit", held: Any
) -> Tuple[Any, int]:
    """Give each wire a label-plane slot by a linear scan over the
    steps in schedule order (Poletto-Sarkar, TOPLAS 1999).

    ``levels`` still index wires.  The constants and inputs keep slots
    ``0 .. 2 + n_inputs - 1``, so a walk loads them as one range.  A
    step's outputs take freed slots (last freed, first reused) or new
    ones, and only then are the slots of the wires it reads last freed
    — so no step, not even a narrow one run gate by gate, writes a slot
    it still reads.  A wire no step reads frees right after the step
    that drives it.  ``held`` (outputs, d-wires) and the scratch wire
    never free.  One pass of whole-step NumPy operations per step.

    Returns per wire its slot (the scratch wire ``n_wires`` gets row
    ``n_slots``) and ``n_slots``.
    """
    n_wires, n_fixed = circuit.n_wires, 2 + circuit.n_inputs
    steps = []
    for level in levels:
        steps.extend((free.ab, free.out) for free in level.free)
        steps.append((level.nf_ab, level.nf_out))
    n_steps = len(steps)
    # per wire, the step after which its slot frees: its last reader,
    # else the step that drives it (-1 for an input no step reads, or a
    # wire id no gate drives)
    last = np.full(n_wires + 1, -1, dtype=np.int32)
    for s, (reads, out) in enumerate(steps):
        last[out] = s
        last[reads] = s
    last[held] = last[n_wires] = n_steps
    # the wires grouped by that step, group s frees[at[s + 1] : at[s + 2]]
    # (a stable sort on the narrowest key dtype: radix up to 16 bits)
    last += 1
    key = last.astype(np.min_scalar_type(n_steps + 1))
    del last  # peak memory, as every step vector is alive
    frees = np.argsort(key, kind="stable").astype(np.int32)
    at = np.searchsorted(key[frees], np.arange(n_steps + 2)).tolist()
    del key
    slot = np.full(n_wires + 1, -1, dtype=np.int32)
    slot[:n_fixed] = np.arange(n_fixed, dtype=np.int32)
    pool = np.empty(n_wires + 1, dtype=np.int32)  # free slots, a stack
    unread = frees[at[0] : at[1]]
    unread = slot[unread[unread < n_fixed]]
    top = unread.size
    pool[:top] = unread
    n_slots = n_fixed
    for s, (_, out) in enumerate(steps):
        m = out.size
        if m <= top:  # last freed, first reused
            top -= m
            slot[out] = pool[top : top + m]
        else:
            slot[out[:top]] = pool[:top]
            fresh = n_slots + m - top
            slot[out[top:]] = np.arange(n_slots, fresh, dtype=np.int32)
            n_slots, top = fresh, 0
        gone = slot[frees[at[s + 1] : at[s + 2]]]
        pool[top : top + gone.size] = gone
        top += gone.size
    slot[n_wires] = n_slots
    return slot, n_slots


def _scan_places(circuit: "Circuit") -> Any:
    """Per gate, in netlist order, its place ``phase << SUB_BITS | sub``.

    Checks, as it goes, that every gate reads driven wires, drives one
    in range and (if non-free) has both inputs.  Inputs and constants
    sit at 0.  A non-free gate's phase is one more than its inputs'
    highest and its ``sub`` is 0; a free gate keeps that phase and its
    ``sub`` is one more than that of its latest same-phase input — both
    at once, since the packed places compare as ``(phase, sub)`` pairs.
    :class:`repro.circuits.builder.CircuitBuilder` tracks the same
    places as it emits, so only a netlist given as gates is scanned.
    """
    n_wires = circuit.n_wires
    wire_place = [0] * n_wires
    defined = bytearray(n_wires)
    for wire in range(min(2 + circuit.n_inputs, n_wires)):
        defined[wire] = 1
    places = np.zeros(circuit.n_gates, dtype=np.int64)
    put = memoryview(places)
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
        if b is not None and wire_place[b] > place:
            place = wire_place[b]
        if op.is_free:
            place += 1
        elif b is None:
            raise CircuitError(f"gate {idx} ({op}) is missing input b")
        else:
            place = ((place >> SUB_BITS) + 1) << SUB_BITS
        wire_place[out] = place
        put[idx] = place
    return places
