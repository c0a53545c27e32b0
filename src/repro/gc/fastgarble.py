"""Vectorized level-scheduled garbling and evaluation (the NumPy hot path).

The reference loops (:mod:`repro.gc.garble` / :mod:`repro.gc.evaluate`)
walk the netlist gate by gate: per gate they do dict label lookups,
int<->bytes conversions and one oracle call per half-gate row.
DeepSecure's whole premise is that GC inference is compute bound, so
this module — the engine every session runs on — executes the same
construction over the circuit's cached step plan
(:meth:`repro.circuits.netlist.LevelSchedule.step_plan`), walked once
per role (:func:`garble_copies`, ``FastEvaluator._walk``):

* wire labels live in ``(k, n_wires + 1, 16)`` uint8 planes, ``k``
  being the batch: pools and cut-and-choose garble ``k`` independent
  copies (at most :data:`COPIES_PER_WALK` to a walk), ``evaluate_many``
  serves ``k`` requests, and a single ``evaluate`` is the ``k = 1``
  case of the same walk.  A garbling plane is scratch: what a copy
  keeps is its :class:`repro.gc.labels.ArrayLabelStore` — Δ and the
  rows of its interface wires — and its tables.  Input labels arrive
  as rows too: the garbler draws them in one rng call, the OT moves
  them as ``(m, 16)`` rows, and the evaluator writes each party's in
  one assignment;
* under free-XOR only non-free gates need the oracle, so the schedule's
  unit is the AND layer: a *wide non-free* step assembles one contiguous
  ``label || tweak`` buffer for :meth:`repro.gc.cipher.HashKDF.hash_many`
  — one oracle call per AND layer across all copies, as many as the
  netlist's AND-depth;
* a *wide free* step — the free gates the same number of XORs past the
  last AND layer — is a single gather-XOR-scatter across all copies;
* a wide step sees a plane through two zero-copy views.  As *rows*
  (``view("V16")``, tables ``V32``) a label is one element: a gather is
  ``rows.take(idx, axis=1)``, one 16-byte copy per label where
  ``plane[:, idx]`` indexes a 16-wide uint8 axis at several times the
  cost, and a scatter is one row assignment.  As *words* (``"<u8"``) a
  gathered label is two 64-bit words, and the half-gate algebra masks
  them with 0 / all-ones words (``-(z & 1)`` and the schedule's
  inversion masks).  The oracle still reads ``(n, 24)`` uint8 ``label
  || tweak`` rows: the step's ``(n, 3)`` word buffer, viewed as bytes;
* a *scalar run* — a stretch of gates too narrow for array dispatch to
  pay — is one pre-flattened gate loop per copy on cached Python ints,
  one ``hash_quad`` / ``hash_pair`` oracle call per gate.  A run stays
  open across wide steps that read none of its outputs, so it is as
  long as the dependencies allow.

Which gates form which step, and in what order, is the schedule's
decision; this module only executes it.

Bit-exactness contract: given the same rng stream, this engine and the
reference loops draw identical labels in the identical order and emit
byte-identical tables, constant labels and decode bits — either side's
output evaluates against the other, and a reference-garbled copy passes
cut-and-choose verification.
"""

from __future__ import annotations

import secrets
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.netlist import (
    CONST_ONE,
    CONST_ZERO,
    Circuit,
    FreeStep,
    LevelSchedule,
    ScalarRun,
)
from ..errors import GarblingError
from .cipher import HashKDF, default_kdf
from .evaluate import Evaluator
from .garble import GarbledCircuit, Garbler, LazyTables
from .labels import ArrayLabelStore, LabelsLike, label_rows
from .rng import RngLike

__all__ = [
    "COPIES_PER_WALK",
    "WALK_PLANE_BYTES",
    "FastEvaluator",
    "LabelPlane",
    "garble_copies",
    "garble_many",
]

#: Minimum effective width (copies x gates in one AND layer or one free
#: sub-step) before array dispatch beats the gate-at-a-time loop.  Narrow
#: steps — the carry chain of a heap's last propagation, the argmax's
#: comparator — join scalar runs; wide ones (the bulk of a DL netlist's
#: gates) go through one gather/XOR/scatter or one KDF batch.  Both
#: compute the identical bytes, so the threshold is purely a speed knob.
#: Re-swept over 1 / 2 / 4 / 8 / 16 when the wide steps moved to row
#: gathers and word masks (demo net, garble + evaluate at k = 1): 2, 4
#: and 8 tie within 2 %, 1 and 16 are 4-10 % slower, so 8 stays.
VECTOR_MIN_WIDTH = 8

#: Most copies one garbling walk carries.  A walk's scratch plane holds
#: every wire of each copy it carries (564 KB a copy on the demo net)
#: beside their tables, so ``garble_copies`` walks ``k`` copies this
#: many at a time and pool warming never holds more than one such
#: batch of planes.  Swept over 4 / 8 / 16 / 32 / 104 copies per walk
#: on the demo net (DESIGN.md, "What a garbled copy holds"): per-copy
#: garbling time is flat from 8 on.
COPIES_PER_WALK = 8

#: Most label-plane bytes one garbling walk carries.  A copy's plane is
#: ``(n_wires + 1) * 16`` bytes, so a walk carries at most
#: ``WALK_PLANE_BYTES // plane`` copies (and at least one): the demo
#: net's 564 KB planes still walk :data:`COPIES_PER_WALK` at a time,
#: while a 64-16-26 net at 1.3.12 (35 MB a plane) or the paper's
#: benchmark 3 (about 730 MB) walk one, where eight would hold 6 GB.
WALK_PLANE_BYTES = 64 << 20


def _assign_input_labels(
    store: ArrayLabelStore,
    circuit: Circuit,
    state_zero_labels: Optional[LabelsLike],
) -> None:
    """Draw constant/input/state labels in the scalar garbler's order.

    The constants, both parties' inputs and any fresh state are wires
    ``0 .. n - 1``, drawn in one rng call
    (:meth:`ArrayLabelStore.assign_fresh_rows`).  ``state_zero_labels``
    may be the usual int sequence or an ``(n_state, 16)`` uint8 row
    array (the folded session's carry form).
    """
    fresh = 2 + circuit.n_alice + circuit.n_bob
    if state_zero_labels is None:
        fresh += circuit.n_state
    elif len(state_zero_labels) != circuit.n_state:
        raise GarblingError("wrong number of state labels")
    store.assign_fresh_rows(range(fresh))
    if state_zero_labels is not None:
        store.set_zero_rows(circuit.state_inputs, label_rows(state_zero_labels))


def _put(plane: np.ndarray, wires: range, labels: LabelsLike) -> None:
    """Write labels (ints or rows) into one contiguous range of plane rows."""
    plane[wires.start : wires.stop] = label_rows(labels)


def _gather(rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``rows[:, idx]`` of a ``(k, n, 1)`` row view, as ``(k, m, w)`` words."""
    return rows.take(idx, axis=1).view("<u8")


def _hash(kdf: HashKDF, words: np.ndarray) -> np.ndarray:
    """``hash_many`` over ``(..., 3)`` ``label || tweak`` words read as
    ``(n, 24)`` bytes, as ``(..., 2)`` words."""
    h = kdf.hash_many(words.view(np.uint8).reshape(-1, 24))
    return h.view("<u8").reshape(words.shape[:-1] + (2,))


def _garble_run(
    run: ScalarRun,
    labels: memoryview,
    tables: memoryview,
    dint: int,
    hash_quad: Callable[[int, int, int, int, int], Tuple[int, int, int, int]],
    tweak_base: int,
) -> None:
    """Garble one scalar run of one copy, in place.

    ``labels`` / ``tables`` are flat byte views of the copy's label and
    table planes (16 bytes per wire, 32 per table): a run has no
    per-run array set-up to amortize, so a three-gate run costs three
    gates.  Chained wires are read from the int cache, never back from
    the plane.  Same half-gate algebra as ``Garbler._garble_and``, byte
    for byte.
    """
    cache: Dict[int, int] = {}
    for a, b, out_w, tidx, ia, ib, io in run.gates:
        za = cache.get(a)
        if za is None:
            za = cache[a] = int.from_bytes(labels[16 * a : 16 * a + 16], "little")
        zb = cache.get(b)
        if zb is None:
            zb = cache[b] = int.from_bytes(labels[16 * b : 16 * b + 16], "little")
        if tidx < 0:  # free gate; ia carries the inv flag
            zero_out = za ^ zb ^ (dint if ia else 0)
        else:
            if ia:  # free input inversions (AND reduction)
                za ^= dint
            if ib:
                zb ^= dint
            h_a0, h_a1, h_b0, h_b1 = hash_quad(
                za, za ^ dint, zb, zb ^ dint, tweak_base + 2 * tidx
            )
            tg = h_a0 ^ h_a1 ^ (dint if zb & 1 else 0)
            wg = h_a0 ^ (tg if za & 1 else 0)
            te = h_b0 ^ h_b1 ^ za
            we = h_b0 ^ ((te ^ za) if zb & 1 else 0)
            zero_out = wg ^ we
            if io:  # free output inversion
                zero_out ^= dint
            tables[32 * tidx : 32 * tidx + 32] = tg.to_bytes(
                16, "little"
            ) + te.to_bytes(16, "little")
        cache[out_w] = zero_out
        labels[16 * out_w : 16 * out_w + 16] = zero_out.to_bytes(16, "little")


def _garble_walk(
    schedule: LevelSchedule,
    kdf: HashKDF,
    stores: Sequence[ArrayLabelStore],
    plane: np.ndarray,
    tables: np.ndarray,
    tweak_base: int,
) -> None:
    """Walk the step plan over ``len(stores)`` copies, in place.

    ``plane`` is the copies' ``(k, n_wires + 1, 16)`` scratch label
    plane with constants, inputs and state filled in and the final
    (scratch) row zero, ``tables`` their ``(k, n_non_free, 32)`` table
    stack.  The garbling mirror of ``FastEvaluator._walk``.
    """
    k = len(stores)
    d = np.stack([s.delta_row for s in stores]).view("<u8")[:, None]  # (k, 1, 2)
    ab = tweak_base + np.arange(2, dtype="<u8")[:, None, None]  # a / b tweak offsets
    rows, table_rows = plane.view("V16"), tables.view("V32")  # (k, n, 1)
    # flat byte views of each copy's (C-contiguous) planes, for the runs
    flat = [
        (p.reshape(-1).data, t.reshape(-1).data, s.delta)
        for p, t, s in zip(plane, tables, stores)
    ]

    for step in schedule.step_plan(k, VECTOR_MIN_WIDTH):
        if isinstance(step, ScalarRun):
            for labels, table_bytes, dint in flat:
                _garble_run(step, labels, table_bytes, dint, kdf.hash_quad, tweak_base)
            continue
        if isinstance(step, FreeStep):
            # one gather-XOR-scatter covers XOR/XNOR/NOT/BUF: unary
            # gates read the scratch zero row, XNOR/NOT add delta
            out = _gather(rows, step.a) ^ _gather(rows, step.b)
            if step.has_inv:
                out ^= d & step.inv
            rows[:, step.out] = out.view(rows.dtype)
            continue
        level = step  # a wide AND layer
        za = _gather(rows, level.nf_a)  # (k, m, 2)
        if level.nf_has_ia:  # free input inversions (AND reduction)
            za ^= d & level.nf_ia
        zb = _gather(rows, level.nf_b)
        if level.nf_has_ib:
            zb ^= d & level.nf_ib
        # the half-gate hash inputs, blocks a0, a1 | b0, b1 of (k, m);
        # their labels are written as rows
        words = np.empty((2, 2 * k, level.n_non_free, 3), dtype="<u8")
        keys = words.view(np.uint8)[..., :16].view(rows.dtype)
        keys[0, :k], keys[0, k:] = za.view(rows.dtype), (za ^ d).view(rows.dtype)
        keys[1, :k], keys[1, k:] = zb.view(rows.dtype), (zb ^ d).view(rows.dtype)
        words[..., 2] = level.tweaks + ab
        h = _hash(kdf, words)
        h_a0, h_b0 = h[0, :k], h[1, :k]

        # half-gates (Zahur-Rosulek-Evans), identical algebra to the
        # scalar _garble_run, with the permute bits as word masks
        pa, pb = -(words[:, :k, :, :1] & 1)  # (k, m, 1) each
        tg = h_a0 ^ h[0, k:] ^ (d & pb)
        te = h_b0 ^ h[1, k:] ^ za
        zero_out = h_a0 ^ (tg & pa) ^ h_b0 ^ ((te ^ za) & pb)
        if level.nf_has_io:  # free output inversions
            zero_out ^= d & level.nf_io
        rows[:, level.nf_out] = zero_out.view(rows.dtype)
        tg_te = np.concatenate((tg.view(rows.dtype), te.view(rows.dtype)), axis=2)
        table_rows[:, level.nf_tidx] = tg_te.view(table_rows.dtype)


def garble_copies(
    circuit: Circuit,
    kdf: HashKDF,
    stores: Sequence[ArrayLabelStore],
    state_zero_labels: Optional[LabelsLike] = None,
    tweak_base: int = 0,
) -> List[GarbledCircuit]:
    """Garble ``len(stores)`` independent copies, :data:`COPIES_PER_WALK`
    to a walk of the plan, or fewer when their planes would exceed
    :data:`WALK_PLANE_BYTES`.

    Each store carries its own delta and rng (so copies are
    cryptographically independent), but within a walk the step walk,
    index gathers and KDF batches run once across its copies — this is
    what ``garble_many`` / pool warming / cut-and-choose amortize.  The
    walks run on one scratch ``(k, n_wires + 1, 16)`` label plane owned
    here; each copy's interface rows are written back into its store
    and its tables copied out, so the copy holds Δ, its interface rows
    and its tables, and no internal label outlives the walk.

    Args:
        circuit: the netlist to garble.
        kdf: shared garbling oracle.
        stores: one :class:`ArrayLabelStore` per copy, over
            ``circuit.interface_wires()``.
        state_zero_labels: sequential carry-over labels (single-copy
            garbling only); int sequence or ``(n_state, 16)`` uint8 rows.
        tweak_base: starting tweak, as in the scalar garbler.

    Returns:
        One :class:`GarbledCircuit` per store, in order.
    """
    if not stores:
        return []
    if state_zero_labels is not None and len(stores) != 1:
        raise GarblingError("state carry-over only supports a single copy")
    wires = circuit.interface_wires()
    for store in stores:
        if not np.array_equal(store.wires, wires):
            raise GarblingError(
                "label store does not hold this circuit's interface wires"
            )
        _assign_input_labels(store, circuit, state_zero_labels)

    schedule = circuit.level_schedule()
    n_inputs = 2 + circuit.n_inputs  # rows 0 .. n_inputs - 1 of every store
    plane_bytes = (circuit.n_wires + 1) * 16
    per_walk = min(COPIES_PER_WALK, max(1, WALK_PLANE_BYTES // plane_bytes))
    plane = np.empty(
        (min(len(stores), per_walk), circuit.n_wires + 1, 16), dtype=np.uint8
    )
    plane[:, circuit.n_wires] = 0  # the scratch row unary gates read
    results: List[GarbledCircuit] = []
    for first in range(0, len(stores), per_walk):
        walk = stores[first : first + per_walk]
        k = len(walk)
        scratch = plane[:k]
        for labels, store in zip(scratch, walk):
            labels[:n_inputs] = store.rows[:n_inputs]
        tables = np.empty((k, schedule.n_non_free, 32), dtype=np.uint8)
        _garble_walk(schedule, kdf, walk, scratch, tables, tweak_base)
        kept = scratch.take(wires, axis=1)  # (k, n_interface, 16)
        for i, store in enumerate(walk):
            store.rows[:] = kept[i]
            # per-copy ownership: a view into the (k, ...) stack would
            # keep the whole walk's tables alive for as long as any one
            # pool copy survives
            copy_tables = tables[i].copy() if k > 1 else tables[0]
            results.append(
                GarbledCircuit(
                    tables=LazyTables(copy_tables),
                    const_labels=(
                        store.select(CONST_ZERO, 0),
                        store.select(CONST_ONE, 1),
                    ),
                    decode_bits=store.output_decode_map(circuit.outputs),
                    tweak_base=tweak_base,
                    tables_plane=copy_tables,
                )
            )
    return results


def garble_many(
    circuit: Circuit,
    count: Optional[int] = None,
    kdf: Optional[HashKDF] = None,
    rng: RngLike = secrets,
    rngs: Optional[Sequence[RngLike]] = None,
    tweak_base: int = 0,
) -> List[Tuple[Garbler, GarbledCircuit]]:
    """Batch-garble independent copies of ``circuit`` (vectorized).

    The batch API behind :meth:`repro.gc.protocol.TwoPartySession.pregarble_many`
    and cut-and-choose: schedule setup, level loop and KDF batching are
    shared across all copies instead of paid per copy.

    Args:
        circuit: the netlist to garble.
        count: number of copies (ignored when ``rngs`` is given).
        kdf: garbling oracle shared by all copies.
        rng: shared randomness source for all copies' labels.
        rngs: one rng per copy (cut-and-choose seed streams); each
            copy's delta and labels come from its own stream in the
            reference draw order, so seed openings re-garble to the same
            tables.
        tweak_base: starting tweak for every copy.

    Returns:
        ``[(garbler, garbled), ...]`` — each garbler holds its copy's
        private labels, each garbled circuit the evaluator material.
    """
    if rngs is None:
        if count is None:
            raise GarblingError("garble_many needs count or rngs")
        if count < 0:
            raise GarblingError("copy count must be >= 0")
        rngs = [rng] * count
    kdf = kdf or default_kdf()
    garblers = [
        Garbler(circuit, kdf=kdf, rng=r) for r in rngs
    ]
    garbled = garble_copies(
        circuit,
        kdf,
        [g.labels for g in garblers],
        tweak_base=tweak_base,
    )
    return list(zip(garblers, garbled))


class LabelPlane:
    """Read-only wire -> label mapping over an evaluation label plane.

    What :meth:`FastEvaluator.evaluate` returns in place of the scalar
    evaluator's ``Dict[int, int]``: lookups convert lazily, so pulling
    just the output labels (the common case — merge step) costs a
    handful of conversions instead of one per wire.
    """

    __slots__ = ("plane", "n_wires")

    def __init__(self, plane: np.ndarray, n_wires: int) -> None:
        self.plane = plane
        self.n_wires = n_wires

    def __getitem__(self, wire: int) -> int:
        if not 0 <= wire < self.n_wires:
            raise KeyError(wire)
        return int.from_bytes(self.plane[wire].tobytes(), "little")

    def __len__(self) -> int:
        return self.n_wires

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n_wires))

    def __contains__(self, wire: object) -> bool:
        return isinstance(wire, int) and 0 <= wire < self.n_wires

    def get(self, wire: int, default: Optional[int] = None) -> Optional[int]:
        try:
            return self[wire]
        except KeyError:
            return default

    def as_dict(self) -> Dict[int, int]:
        """Materialize the scalar evaluator's full dict form."""
        return {w: self[w] for w in range(self.n_wires)}


def _evaluate_run(
    run: ScalarRun,
    labels: memoryview,
    tables: memoryview,
    hash_pair: Callable[[int, int, int], Tuple[int, int]],
    tweak_base: int,
) -> None:
    """Evaluate one scalar run of one request, in place.

    Flat byte views and int cache as in :func:`_garble_run`; the
    evaluator's free gates are pure label XOR and it ignores the
    garbler's inversion flags (their delta lives on the garbler side).
    """
    cache: Dict[int, int] = {}
    for a, b, out_w, tidx, _ia, _ib, _io in run.gates:
        wa = cache.get(a)
        if wa is None:
            wa = cache[a] = int.from_bytes(labels[16 * a : 16 * a + 16], "little")
        wb = cache.get(b)
        if wb is None:
            wb = cache[b] = int.from_bytes(labels[16 * b : 16 * b + 16], "little")
        if tidx < 0:
            out = wa ^ wb
        else:
            wg, we = hash_pair(wa, wb, tweak_base + 2 * tidx)
            row = 32 * tidx
            if wa & 1:
                wg ^= int.from_bytes(tables[row : row + 16], "little")
            if wb & 1:
                we ^= int.from_bytes(tables[row + 16 : row + 32], "little") ^ wa
            out = wg ^ we
        cache[out_w] = out
        labels[16 * out_w : 16 * out_w + 16] = out.to_bytes(16, "little")


class FastEvaluator(Evaluator):
    """Level-scheduled evaluator, drop-in for :class:`Evaluator`.

    ``evaluate`` returns a :class:`LabelPlane` (mapping-compatible with
    the scalar dict for indexing), and the inherited ``output_labels`` /
    ``decode_with_bits`` work unchanged on it.  Output labels are
    bit-identical to the scalar evaluator's on the same garbled
    material.
    """

    def evaluate(
        self,
        garbled: GarbledCircuit,
        alice_labels: LabelsLike,
        bob_labels: LabelsLike,
        state_labels: Optional[LabelsLike] = None,
        tweak_base: Optional[int] = None,
    ) -> LabelPlane:
        """Evaluate one garbled circuit: the ``k = 1`` case of the walk.

        Input and register labels are the scalar contract's int
        sequences or ``(n, 16)`` uint8 rows (what the OT hands Bob, and
        the folded session's carry form).
        """
        planes = np.zeros((1, self.circuit.n_wires + 1, 16), dtype=np.uint8)
        tables = self._load(planes[0], garbled, alice_labels, bob_labels)
        n_state = 0 if state_labels is None else len(state_labels)
        if n_state != self.circuit.n_state:
            raise GarblingError("wrong number of state labels")
        if state_labels is not None:
            _put(planes[0], self.circuit.state_inputs, state_labels)
        base = garbled.tweak_base if tweak_base is None else tweak_base
        self._walk(planes, tables[None], base)
        return LabelPlane(planes[0], self.circuit.n_wires)

    def _load(
        self,
        plane: np.ndarray,
        garbled: GarbledCircuit,
        alice_labels: LabelsLike,
        bob_labels: LabelsLike,
    ) -> np.ndarray:
        """Write one request's constant and input labels into its plane
        and return its ``(n_non_free, 32)`` table plane."""
        circuit = self.circuit
        if len(alice_labels) != circuit.n_alice:
            raise GarblingError("wrong number of Alice labels")
        if len(bob_labels) != circuit.n_bob:
            raise GarblingError("wrong number of Bob labels")
        _put(plane, range(CONST_ZERO, CONST_ONE + 1), garbled.const_labels)
        _put(plane, circuit.alice_inputs, alice_labels)
        _put(plane, circuit.bob_inputs, bob_labels)
        table_plane = garbled.tables_plane
        if table_plane is None:
            blob = garbled.tables_bytes()
            table_plane = np.frombuffer(blob, dtype=np.uint8).reshape(-1, 32)
        tables = np.ascontiguousarray(table_plane)  # the runs need flat bytes
        n_tables = circuit.level_schedule().n_non_free
        if len(tables) < n_tables:
            raise GarblingError("ran out of garbled tables")
        return tables[:n_tables]

    def _walk(self, planes: np.ndarray, tables: np.ndarray, base: int) -> None:
        """Walk the step plan over ``k`` stacked requests, in place.

        ``planes`` is the ``(k, n_wires + 1, 16)`` label stack with
        constants and inputs filled in, ``tables`` the matching
        ``(k, n_non_free, 32)`` table stack.  The online-side mirror of
        :func:`garble_copies`.
        """
        k = len(planes)
        kdf = self.kdf
        # flat byte views of each request's (C-contiguous) planes
        flat = [
            (p.reshape(-1).data, t.reshape(-1).data)
            for p, t in zip(planes, tables)
        ]
        rows, table_rows = planes.view("V16"), tables.view("V32")  # (k, n, 1)
        ab = base + np.arange(2, dtype="<u8")[:, None, None]  # a / b tweak offsets
        schedule = self.circuit.level_schedule()
        for step in schedule.step_plan(k, VECTOR_MIN_WIDTH):
            if isinstance(step, ScalarRun):
                for labels, table_bytes in flat:
                    _evaluate_run(step, labels, table_bytes, kdf.hash_pair, base)
                continue
            if isinstance(step, FreeStep):
                # the evaluator's free gates are pure label XOR (XNOR's
                # delta lives on the garbler side), unary gates read the
                # scratch zero row
                out = _gather(rows, step.a) ^ _gather(rows, step.b)
                rows[:, step.out] = out.view(rows.dtype)
                continue
            level = step  # a wide AND layer
            wa = _gather(rows, level.nf_a)  # (k, m, 2)
            wb = _gather(rows, level.nf_b)
            words = np.empty((2, k, level.n_non_free, 3), dtype="<u8")
            keys = words.view(np.uint8)[..., :16].view(rows.dtype)
            keys[0], keys[1] = wa.view(rows.dtype), wb.view(rows.dtype)
            words[..., 2] = level.tweaks + ab
            h = _hash(kdf, words)
            table = _gather(table_rows, level.nf_tidx)  # (k, m, 4): tg || te
            sa, sb = -(words[..., :1] & 1)  # permute bits as word masks
            out = h[0] ^ (table[..., :2] & sa) ^ h[1] ^ ((table[..., 2:] ^ wa) & sb)
            rows[:, level.nf_out] = out.view(rows.dtype)

    def evaluate_many(
        self,
        garbleds: Sequence[GarbledCircuit],
        alice_labels: Sequence[LabelsLike],
        bob_labels: Sequence[LabelsLike],
        tweak_base: Optional[int] = None,
    ) -> List[LabelPlane]:
        """Evaluate ``k`` independently garbled requests in one pass.

        The online-side mirror of :func:`garble_copies`: all requests'
        labels live in one ``(k, n_wires + 1, 16)`` plane and the step
        plan is walked once, so per-step Python dispatch amortizes
        across the batch, every level's KDF rows across all requests
        join into a single batch, and halves of a level too narrow to
        vectorize for one request (``m < VECTOR_MIN_WIDTH``) become wide
        once ``k * m`` clears the threshold.  This is what serves a
        batch — ``PrivateInferenceService.infer_many`` routes
        same-circuit requests here instead of running ``k`` scalar
        evaluations one after another.

        Args:
            garbleds: one garbled circuit per request (each with its own
                tables and labels; all must share one tweak base).
            alice_labels / bob_labels: per-request input labels.
            tweak_base: override the (shared) tweak counter.

        Returns:
            One :class:`LabelPlane` per request, in request order; each
            is bit-identical to a scalar :meth:`evaluate` of the same
            request.
        """
        circuit = self.circuit
        k = len(garbleds)
        if k == 0:
            return []
        if len(alice_labels) != k or len(bob_labels) != k:
            raise GarblingError("evaluate_many needs labels for every copy")
        if circuit.n_state:
            raise GarblingError(
                "evaluate_many serves combinational requests; sequential "
                "state belongs to SequentialSession"
            )
        bases = {
            g.tweak_base if tweak_base is None else tweak_base
            for g in garbleds
        }
        if len(bases) != 1:
            raise GarblingError(
                "evaluate_many needs a uniform tweak base across copies"
            )
        planes = np.zeros((k, circuit.n_wires + 1, 16), dtype=np.uint8)
        tables = np.stack(
            [
                self._load(planes[i], garbled, alice_labels[i], bob_labels[i])
                for i, garbled in enumerate(garbleds)
            ]
        )
        self._walk(planes, tables, bases.pop())
        return [LabelPlane(planes[i], circuit.n_wires) for i in range(k)]
