"""Vectorized level-scheduled garbling and evaluation (the NumPy hot path).

The reference loops (:mod:`repro.gc.garble` / :mod:`repro.gc.evaluate`)
walk the netlist gate by gate: per gate they do dict label lookups,
int<->bytes conversions and one oracle call per half-gate row.
DeepSecure's whole premise is that GC inference is compute bound, so
this module — the engine every session runs on — executes the same
construction over the circuit's cached step plan
(:meth:`repro.circuits.netlist.LevelSchedule.step_plan`), walked once
per role (:func:`garble_copies`, ``FastEvaluator._walk``):

* wire labels live in ``(n_slots + 1, k, 16)`` uint8 planes, ``k``
  being the batch: pools and cut-and-choose garble ``k`` independent
  copies (at most :data:`COPIES_PER_WALK` to a walk), ``evaluate_many``
  serves ``k`` requests, and a single ``evaluate`` is its ``k = 1``
  call.  A plane holds the live set, not every wire: the schedule gives
  each wire a slot that is reused once the wire's last reader has run
  (:meth:`repro.circuits.netlist.LevelSchedule.build`; the demo net's
  33 372 wires need 3 732 slots), so steps index slots and only the
  outputs and register d-wires are still in the plane when a walk
  ends.  The batch axis lives inside a slot: one wire's labels across
  the batch are one contiguous ``16 k``-byte record, so a step fetches
  one record per operand, not ``k`` labels from ``k`` planes.  A
  garbling plane is scratch: what a copy keeps is its
  :class:`repro.gc.labels.ArrayLabelStore` — Δ and the rows of its
  interface wires — and its tables.  Input labels arrive
  as rows too: the garbler draws them in one rng call, the OT moves
  them as ``(m, 16)`` rows, and the evaluator writes each party's in
  one assignment;
* under free-XOR only non-free gates need the oracle, so the schedule's
  unit is the AND layer: a *wide non-free* step hands
  :meth:`repro.gc.cipher.HashKDF.hash_many` its labels as ``(n, 2)``
  64-bit words beside their tweak words — one oracle call per AND
  layer across all copies, as many as the netlist's AND-depth;
* a *wide free* step — the free gates the same number of XORs past the
  last AND layer — is a single gather-XOR-scatter across all copies;
* a wide step sees a plane through two zero-copy views.  As *records*
  (one ``V(16 k)`` element per wire) a gather is ``rows.take(ab)``, one
  contiguous ``16 k``-byte copy per operand, and a scatter is one
  record per output.  Each step gathers once: its operands are one
  ``[a | b]`` index vector, and an AND layer's tables — a
  ``(2 n_non_free, k, 16)`` stack of 16-byte halves ``[tg | te]`` — are
  read and written as records too, indexed by the same words as its
  tweaks.  As *words* (``"<u8"``) a gathered step is ``(m, k, 2)``: per
  operand, per copy, a label's two 64-bit words, and the half-gate
  algebra masks them with 0 / all-ones words.  Every operand of that
  algebra is full-shape — delta tiled once per walk to ``(widest, k,
  2)``, permute-bit and inversion masks ``(m, k, 2)``, the oracle's
  rows and tweaks in (gate, copy) order — so no operation broadcasts
  along the batch or a label's two words and none runs a 2-word inner
  loop;
* a *scalar run* — a stretch of gates too narrow for array dispatch to
  pay — is one pre-flattened gate loop per copy on cached Python ints,
  one ``hash_quad`` / ``hash_pair`` oracle call per gate, over one byte
  view of the whole plane (copy ``c``'s slot ``s`` at ``16 (s k + c)``)
  and of the table stack (its half ``h`` at ``16 (h k + c)``).  A run
  stays open across wide steps that touch none of its slots but share
  reads, so it is as long as the dependencies allow.

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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
from .garble import GarbledCircuit, Garbler
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
#: Swept by ``benchmarks/bench_vectorized_garbling.py``, whose report
#: (``benchmarks/results/vectorized_garbling.txt``) ends with the sweep:
#: each role's whole demo-net walk at widths 2 / 3 / 4 / 8 and k = 1, 2,
#: 3, 4, 8 (fixed-key AES, median of 60-150 alternating rounds, four
#: runs on a 2-core host).  At k = 1, widths 2, 3 and 4 walk 9-14 %
#: faster than 8 and within 2 % of each other (the k = 1 plan holds 53
#: wide AND layers and 620 scalar-run gates at 8, 67 and 140 at 4).
#: Width 2 also makes a k = 2 walk's one-gate steps wide, and 2 and 3 a
#: k = 3 walk's, which slowed those walks by 1-6 % in most runs; 4 was
#: never more than 1 % slower than 8, at any k.  At k >= 4 every width
#: up to 4 gives one plan, and at k = 8 every width up to 8 does.  A request's oracle calls and
#: ``hash_many`` rows follow the plan (134 calls and 67 038 rows per
#: demo-net request, pinned in CI), so a new width re-pins them.
VECTOR_MIN_WIDTH = 4

#: Most copies one garbling walk carries.  A walk's scratch plane holds
#: the live set of each copy it carries, one slot per wire alive at
#: once (60 KB a copy on the demo net: 3 732 slots for 33 372 wires,
#: 11 % of its 534 KB wire plane), beside their tables, so
#: ``garble_copies`` walks ``k`` copies this many at a time and pool
#: warming never holds more than one such batch of planes.  Swept over
#: 4 / 8 / 16 / 32 / 104 copies per walk on the demo net, with a plane
#: row per wire (DESIGN.md, "What a garbled copy holds"): per-copy
#: garbling time is flat from 8 on.  Re-swept with wire-major planes
#: (``garble_many(104)``, fixed-key AES, median of 25 alternating rounds,
#: two runs): 4 copies 2.74 / 3.12 ms a copy, 8 copies 2.20 / 2.27, 16
#: copies 2.23 / 2.37, 32 copies 2.22 / 2.37 — still flat from 8 on.
COPIES_PER_WALK = 8

#: Most label-plane bytes one garbling walk carries.  A copy's plane is
#: ``(n_slots + 1) * 16`` bytes (:attr:`LevelSchedule.n_slots`), so a
#: walk carries at most ``WALK_PLANE_BYTES // plane`` copies (and at
#: least one).  Measured slot planes: the demo net's 74 KB and a
#: 64-16-26 net's at 1.3.12 (168 656 slots for 2 213 619 wires, 2.7 MB
#: where its wire plane was 35 MB) both walk :data:`COPIES_PER_WALK` at
#: a time; with wire planes the 64-16-26 net walked one.  Benchmark 3's
#: wire plane would be about 730 MB; its slot plane is not measured
#: (its schedule build peaks near 4 GB).
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


def _views(k: int) -> Tuple[np.dtype, np.dtype]:
    """The two dtypes a ``k``-wide walk sees its labels through: a
    ``16 k``-byte record (one wire's labels across the batch) and the
    same bytes as ``(k, 2)`` 64-bit words, so that viewing gathered
    records as words yields ``(m, k, 2)`` in one call."""
    return np.dtype((np.void, 16 * k)), np.dtype(("<u8", (k, 2)))


def _tweak_words(tweaks: np.ndarray, base: np.uint64, blocks: int) -> np.ndarray:
    """A plan step's tweak words under tweak ``base``, once per
    ``blocks`` consecutive oracle row blocks."""
    if blocks == 1:
        return tweaks + base if base else tweaks
    words = np.empty((blocks, tweaks.size), dtype="<u8")
    np.add(tweaks, base, out=words)
    return words.reshape(-1)


def _permute_masks(labels: np.ndarray) -> np.ndarray:
    """Each ``(..., 2)``-word label's permute bit (bit 0 of its low word)
    as a 0 / all-ones word pair of the labels' full shape."""
    masks = labels & 1
    np.negative(masks, out=masks)
    masks[..., 1] = masks[..., 0]
    return masks


def _garble_run(
    run: ScalarRun,
    labels: memoryview,
    tables: memoryview,
    dint: int,
    hash_quad: Callable[[int, int, int, int, int], Tuple[int, int, int, int]],
    tweak_base: int,
    k: int,
    copy: int,
) -> None:
    """Garble one scalar run of copy ``copy`` of a ``k``-copy walk, in
    place.

    ``labels`` / ``tables`` are flat byte views of the walk's whole
    slot-major label plane and table-half stack: the copy's slot ``s``
    is at byte ``16 (s k + copy)``, its table half ``h`` at ``16 (h k +
    copy)``.  A run has no per-run array set-up to amortize, so a
    three-gate run costs three gates.  Chained wires are read from the
    int cache (keyed by slot and written through, so a reused slot reads
    its new wire), never back from the plane.  Same half-gate algebra as
    ``Garbler._garble_and``, byte for byte.
    """
    stride, at = 16 * k, 16 * copy
    cache: Dict[int, int] = {}
    for a, b, out_w, tidx, ia, ib, io in run.gates:
        za = cache.get(a)
        if za is None:
            i = a * stride + at
            za = cache[a] = int.from_bytes(labels[i : i + 16], "little")
        zb = cache.get(b)
        if zb is None:
            i = b * stride + at
            zb = cache[b] = int.from_bytes(labels[i : i + 16], "little")
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
            i = 2 * tidx * stride + at
            tables[i : i + 16] = tg.to_bytes(16, "little")
            i += stride
            tables[i : i + 16] = te.to_bytes(16, "little")
        cache[out_w] = zero_out
        i = out_w * stride + at
        labels[i : i + 16] = zero_out.to_bytes(16, "little")


def _garble_walk(
    schedule: LevelSchedule,
    kdf: HashKDF,
    stores: Sequence[ArrayLabelStore],
    plane: np.ndarray,
    halves: np.ndarray,
    tweak_base: int,
) -> None:
    """Walk the step plan over ``len(stores)`` copies, in place.

    ``plane`` is the copies' slot-major ``(n_slots + 1, k, 16)`` scratch
    label plane with constants, inputs and state filled in and the final
    (scratch) row zero, ``halves`` their ``(2 n_non_free, k, 16)`` table
    halves (``tg`` / ``te`` of table ``t`` are halves ``2 t`` / ``2 t +
    1``).  The garbling mirror of ``FastEvaluator._walk``.
    """
    k = len(stores)
    # delta tiled once to the widest step, so every mask operand below
    # is full-shape: no operation broadcasts along the batch or a
    # label's two words
    d = np.empty((schedule.widest, k, 2), dtype="<u8")
    d[:] = np.stack([s.delta_row for s in stores]).view("<u8")
    base_word = np.uint64(tweak_base)
    record, words = _views(k)
    # one flat byte view of each (C-contiguous) stack, for the runs
    labels, tables = plane.reshape(-1), halves.reshape(-1)
    rows = labels.view(record)  # one record per wire
    table_rows = tables.view(record)  # one record per table half
    labels, tables = labels.data, tables.data
    deltas = [s.delta for s in stores]

    for step in schedule.step_plan(k, VECTOR_MIN_WIDTH):
        if isinstance(step, ScalarRun):
            for copy, dint in enumerate(deltas):
                _garble_run(
                    step, labels, tables, dint, kdf.hash_quad, tweak_base, k, copy
                )
            continue
        if isinstance(step, FreeStep):
            # one gather-XOR-scatter covers XOR/XNOR/NOT/BUF: unary
            # gates read the scratch zero row, XNOR/NOT add delta
            m = step.out.size
            z = rows.take(step.ab).view(words)  # (2m, k, 2): a | b
            out = z[:m] ^ z[m:]
            if step.inv is not None:
                out ^= d[:m] & step.inv
            rows[step.out] = out.ravel().view(record)
            continue
        level = step  # a wide AND layer
        m = level.nf_out.size
        z = rows.take(level.nf_ab).view(words)  # (2m, k, 2): za | zb
        dz = d[: 2 * m]
        if level.nf_inv_ab is not None:  # free input inversions
            z ^= dz & level.nf_inv_ab
        # the half-gate hash inputs, za | zb | za^d | zb^d, each in
        # (gate, copy) order under its tweaks: ta | tb | ta | tb
        keys = np.concatenate((z, z ^ dz))
        h = kdf.hash_many(keys.reshape(-1, 2), _tweak_words(level.tweaks, base_word, 2))
        h = h.reshape(4 * m, k, 2)
        h0 = h[: 2 * m]  # ha0 | hb0

        # half-gates (Zahur-Rosulek-Evans), identical algebra to the
        # scalar _garble_run, with the permute bits as word masks
        p = _permute_masks(z)  # pa | pb
        x = h0 ^ h[2 * m :]  # ha0^ha1 | hb0^hb1
        x[:m] ^= dz[:m] & p[m:]  # tg | hb0^hb1
        w = x & p
        w ^= h0  # wg | we
        zero_out = w[:m] ^ w[m:]
        if level.nf_io is not None:  # free output inversions
            zero_out ^= dz[:m] & level.nf_io
        rows[level.nf_out] = zero_out.ravel().view(record)
        x[m:] ^= z[:m]  # tg | te
        table_rows[level.halves] = x.ravel().view(record)


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
    walks run on one scratch slot-major ``(n_slots + 1, k, 16)`` label
    plane owned here; each copy's outputs and d-wires are written back
    into its store (its input rows are there already) and its tables
    copied out, so the copy holds Δ, its interface rows and its tables,
    and no internal label outlives the walk.

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
    # the rest of a store's rows: the d-wires and outputs, held to the end
    kept_slots = [schedule.held[w] for w in wires[n_inputs:].tolist()]
    n_rows = schedule.n_slots + 1
    plane_bytes = n_rows * 16
    per_walk = min(COPIES_PER_WALK, max(1, WALK_PLANE_BYTES // plane_bytes))
    # one scratch buffer for the largest walk: each walk's slot-major
    # plane is a prefix of it, so a short last walk is contiguous too
    scratch = np.empty(min(len(stores), per_walk) * plane_bytes, dtype=np.uint8)
    results: List[GarbledCircuit] = []
    for first in range(0, len(stores), per_walk):
        walk = stores[first : first + per_walk]
        k = len(walk)
        plane = scratch[: k * plane_bytes].reshape(n_rows, k, 16)
        plane[schedule.n_slots] = 0  # the scratch row unary gates read
        for i, store in enumerate(walk):
            plane[:n_inputs, i] = store.rows[:n_inputs]
        halves = np.empty((2 * schedule.n_non_free, k, 16), dtype=np.uint8)
        _garble_walk(schedule, kdf, walk, plane, halves, tweak_base)
        # the input rows are already in the stores
        kept = plane.take(kept_slots, axis=0)  # (n_held, k, 16)
        for i, store in enumerate(walk):
            store.rows[n_inputs:] = kept[:, i]
            # per-copy ownership: a view into the walk's stack would
            # keep every copy's tables alive for as long as any one
            # pool copy survives (at k = 1 the stack is the copy's own)
            copy_tables = np.ascontiguousarray(halves[:, i]).reshape(-1, 32)
            results.append(
                GarbledCircuit(
                    tables=copy_tables,
                    const_labels=(
                        store.select(CONST_ZERO, 0),
                        store.select(CONST_ONE, 1),
                    ),
                    decode_bits=store.output_decode_map(circuit.outputs),
                    tweak_base=tweak_base,
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
    """Read-only wire -> label lookup over one request's evaluation
    plane, for the wires the walk still holds at its end.

    What :meth:`FastEvaluator.evaluate` returns in place of the scalar
    evaluator's ``Dict[int, int]``.  The plane is ``(n_slots + 1, 16)``:
    a slot is reused once its wire's last reader has run, so only the
    outputs and register d-wires keep their labels to the end.
    ``held`` maps each of them to its slot
    (:attr:`repro.circuits.netlist.LevelSchedule.held`); any other wire
    raises ``KeyError``.  Lookups convert lazily, so pulling the output
    labels (the merge step) costs a handful of conversions.
    """

    __slots__ = ("plane", "held")

    def __init__(self, plane: np.ndarray, held: Dict[int, int]) -> None:
        self.plane = plane
        self.held = held

    def __getitem__(self, wire: int) -> int:
        return int.from_bytes(self.plane[self.held[wire]].tobytes(), "little")

    def rows(self, wires: Sequence[int]) -> np.ndarray:
        """Held wires' labels as ``(m, 16)`` uint8 rows."""
        return self.plane[[self.held[w] for w in wires]]


def _evaluate_run(
    run: ScalarRun,
    labels: memoryview,
    tables: memoryview,
    hash_pair: Callable[[int, int, int], Tuple[int, int]],
    tweak_base: int,
    k: int,
    copy: int,
) -> None:
    """Evaluate one scalar run of request ``copy`` of a ``k``-request
    walk, in place.

    Flat byte views, addressing and int cache as in :func:`_garble_run`;
    the evaluator's free gates are pure label XOR and it ignores the
    garbler's inversion flags (their delta lives on the garbler side).
    """
    stride, at = 16 * k, 16 * copy
    cache: Dict[int, int] = {}
    for a, b, out_w, tidx, _ia, _ib, _io in run.gates:
        wa = cache.get(a)
        if wa is None:
            i = a * stride + at
            wa = cache[a] = int.from_bytes(labels[i : i + 16], "little")
        wb = cache.get(b)
        if wb is None:
            i = b * stride + at
            wb = cache[b] = int.from_bytes(labels[i : i + 16], "little")
        if tidx < 0:
            out = wa ^ wb
        else:
            wg, we = hash_pair(wa, wb, tweak_base + 2 * tidx)
            i = 2 * tidx * stride + at
            if wa & 1:
                wg ^= int.from_bytes(tables[i : i + 16], "little")
            if wb & 1:
                i += stride
                we ^= int.from_bytes(tables[i : i + 16], "little") ^ wa
            out = wg ^ we
        cache[out_w] = out
        i = out_w * stride + at
        labels[i : i + 16] = out.to_bytes(16, "little")


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
        """Evaluate one garbled circuit: the ``k = 1`` call of
        :meth:`evaluate_many`.

        Input and register labels are the scalar contract's int
        sequences or ``(n, 16)`` uint8 rows (what the OT hands Bob, and
        the folded session's carry form).
        """
        return self.evaluate_many(
            [garbled], [alice_labels], [bob_labels],
            None if state_labels is None else [state_labels], tweak_base,
        )[0]

    def _load(
        self,
        plane: np.ndarray,
        halves: np.ndarray,
        garbled: GarbledCircuit,
        alice_labels: LabelsLike,
        bob_labels: LabelsLike,
        state_labels: Optional[LabelsLike],
    ) -> None:
        """Write one request's constant, input and register labels into
        its ``(n_slots + 1, 16)`` lane of the planes and its tables into
        its ``(2 n_non_free, 16)`` lane of the table halves."""
        circuit = self.circuit
        if len(alice_labels) != circuit.n_alice:
            raise GarblingError("wrong number of Alice labels")
        if len(bob_labels) != circuit.n_bob:
            raise GarblingError("wrong number of Bob labels")
        if (0 if state_labels is None else len(state_labels)) != circuit.n_state:
            raise GarblingError("wrong number of state labels")
        if 2 * len(garbled.tables) < len(halves):
            raise GarblingError("ran out of garbled tables")
        _put(plane, range(CONST_ZERO, CONST_ONE + 1), garbled.const_labels)
        _put(plane, circuit.alice_inputs, alice_labels)
        _put(plane, circuit.bob_inputs, bob_labels)
        if state_labels is not None:
            _put(plane, circuit.state_inputs, state_labels)
        halves[:] = garbled.tables.reshape(-1, 16)[: len(halves)]

    def _walk(self, planes: np.ndarray, halves: np.ndarray, base: int) -> None:
        """Walk the step plan over ``k`` stacked requests, in place.

        ``planes`` is the slot-major ``(n_slots + 1, k, 16)`` label
        stack with constants and inputs filled in, ``halves`` the
        matching ``(2 n_non_free, k, 16)`` table halves.  The
        online-side mirror of :func:`garble_copies`.
        """
        k = planes.shape[1]
        kdf = self.kdf
        record, words = _views(k)
        # one flat byte view of each (C-contiguous) stack, for the runs
        labels, tables = planes.reshape(-1), halves.reshape(-1)
        rows = labels.view(record)  # one record per wire
        table_rows = tables.view(record)  # one record per table half
        labels, tables = labels.data, tables.data
        base_word = np.uint64(base)
        schedule = self.circuit.level_schedule()
        for step in schedule.step_plan(k, VECTOR_MIN_WIDTH):
            if isinstance(step, ScalarRun):
                for copy in range(k):
                    _evaluate_run(
                        step, labels, tables, kdf.hash_pair, base, k, copy
                    )
                continue
            if isinstance(step, FreeStep):
                # the evaluator's free gates are pure label XOR (XNOR's
                # delta lives on the garbler side), unary gates read the
                # scratch zero row
                m = step.out.size
                w = rows.take(step.ab).view(words)  # (2m, k, 2): a | b
                rows[step.out] = (w[:m] ^ w[m:]).ravel().view(record)
                continue
            level = step  # a wide AND layer
            m = level.nf_out.size
            w = rows.take(level.nf_ab).view(words)  # (2m, k, 2): wa | wb
            h = kdf.hash_many(
                w.reshape(-1, 2), _tweak_words(level.tweaks, base_word, 1)
            )
            t = table_rows.take(level.halves).view(words)  # tg | te
            t[m:] ^= w[:m]  # tg | te^wa
            t &= _permute_masks(w)  # under sa | sb
            t ^= h.reshape(2 * m, k, 2)
            rows[level.nf_out] = (t[:m] ^ t[m:]).ravel().view(record)

    def evaluate_many(
        self,
        garbleds: Sequence[GarbledCircuit],
        alice_labels: Sequence[LabelsLike],
        bob_labels: Sequence[LabelsLike],
        state_labels: Optional[Sequence[LabelsLike]] = None,
        tweak_base: Optional[int] = None,
    ) -> List[LabelPlane]:
        """Evaluate ``k`` independently garbled requests in one pass.

        The online-side mirror of :func:`garble_copies`: all requests'
        labels live in one slot-major ``(n_slots + 1, k, 16)`` plane and the step
        plan is walked once, so per-step Python dispatch amortizes
        across the batch, every level's KDF rows across all requests
        join into a single batch, and halves of a level too narrow to
        vectorize for one request (``m < VECTOR_MIN_WIDTH``) become wide
        once ``k * m`` clears the threshold.  Every protocol round
        evaluates here — the lanes Bob hosts, one walk a cycle — and
        :meth:`evaluate` is the ``k = 1`` call.

        Args:
            garbleds: one garbled circuit per request (each with its own
                tables and labels; all must share one tweak base).
            alice_labels / bob_labels: per-request input labels.
            state_labels: per-request register labels, required for a
                core with registers (a folded cycle's carry) and refused
                for one without.
            tweak_base: override the (shared) tweak counter.

        Returns:
            One :class:`LabelPlane` per request, in request order; each
            holds the request's outputs and d-wires, bit-identical to a
            scalar evaluation of the same request.
        """
        circuit = self.circuit
        k = len(garbleds)
        if k == 0:
            return []
        states = [None] * k if state_labels is None else list(state_labels)
        if len(alice_labels) != k or len(bob_labels) != k or len(states) != k:
            raise GarblingError("evaluate_many needs labels for every copy")
        bases = {g.tweak_base if tweak_base is None else tweak_base for g in garbleds}
        if len(bases) != 1:
            raise GarblingError(
                "evaluate_many needs a uniform tweak base across copies"
            )
        # every row but the scratch one is written before it is read
        schedule = circuit.level_schedule()
        planes = np.empty((schedule.n_slots + 1, k, 16), dtype=np.uint8)
        planes[schedule.n_slots] = 0
        halves = np.empty((2 * schedule.n_non_free, k, 16), dtype=np.uint8)
        for i, garbled in enumerate(garbleds):
            self._load(
                planes[:, i], halves[:, i], garbled,
                alice_labels[i], bob_labels[i], states[i],
            )
        self._walk(planes, halves, bases.pop())
        return [LabelPlane(planes[:, i], schedule.held) for i in range(k)]
