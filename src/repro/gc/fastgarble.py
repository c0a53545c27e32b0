"""Vectorized level-scheduled garbling and evaluation (the NumPy hot path).

The reference loops (:mod:`repro.gc.garble` / :mod:`repro.gc.evaluate`)
walk the netlist gate by gate: per gate they do dict label lookups,
int<->bytes conversions and one oracle call per half-gate row.
DeepSecure's whole premise is that GC inference is compute bound, so
this module — the engine every session runs on — expresses the same
construction over whole dependency levels at once:

* wire labels live in one ``(n_wires + 1, 16)`` uint8 plane
  (:class:`repro.gc.labels.ArrayLabelStore`);
* the circuit's cached :meth:`~repro.circuits.netlist.Circuit.level_schedule`
  groups independent gates, so every free-XOR level is a single
  gather-XOR-scatter and every non-free level assembles one contiguous
  ``label || tweak`` buffer for :meth:`repro.gc.cipher.HashKDF.hash_many`;
* :func:`garble_copies` carries an extra batch axis, so pre-garbled
  pools and cut-and-choose garble ``k`` independent copies with one pass
  over the schedule (``(k, n_wires + 1, 16)`` planes, one KDF batch per
  level across all copies).

Bit-exactness contract: given the same rng stream, this engine and the
reference loops draw identical labels in the identical order and emit
byte-identical tables, constant labels and decode bits — either side's
output evaluates against the other, and a reference-garbled copy passes
cut-and-choose verification.
"""

from __future__ import annotations

import secrets
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits.netlist import CONST_ONE, CONST_ZERO, Circuit, ScheduleLevel
from ..errors import GarblingError
from .cipher import HashKDF, _hash_many_fallback, default_kdf
from .evaluate import Evaluator
from .garble import GarbledCircuit, Garbler, LazyTables
from .labels import ArrayLabelStore, _label_row
from .rng import RngLike

__all__ = ["FastEvaluator", "LabelPlane", "garble_copies", "garble_many"]

#: Minimum effective width (copies x gates in a level) before array
#: dispatch beats the gate-at-a-time fallback.  Narrow levels — the
#: ripple-carry tail of adder trees — are processed scalar-on-plane;
#: wide levels (the bulk of a DL netlist's gates) go through one
#: gather/XOR/scatter and one KDF batch.  Both paths compute the
#: identical bytes, so the threshold is purely a speed knob.
VECTOR_MIN_WIDTH = 8


def _hash_many(kdf: HashKDF, rows: np.ndarray) -> np.ndarray:
    """Dispatch to the KDF's batch oracle (fallback: row-by-row hash)."""
    batched = getattr(kdf, "hash_many", None)
    if batched is None:
        return _hash_many_fallback(kdf, rows)
    return batched(rows)


def _tweak_bytes(tweaks: np.ndarray) -> np.ndarray:
    """``(m,)`` int64 tweaks as ``(m, 8)`` little-endian uint8 rows."""
    return tweaks.astype("<u8").view(np.uint8).reshape(-1, 8)


def _level_tweaks(
    level: "ScheduleLevel", tweak_base: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The level's (a, b) tweak byte rows; cached form for base 0."""
    if tweak_base == 0:
        return level.tw0_a, level.tw0_b
    return (
        _tweak_bytes(tweak_base + 2 * level.nf_tidx),
        _tweak_bytes(tweak_base + 2 * level.nf_tidx + 1),
    )


def _assign_input_labels(
    store: ArrayLabelStore,
    circuit: Circuit,
    state_zero_labels: Union[Sequence[int], np.ndarray, None],
) -> None:
    """Draw constant/input/state labels in the scalar garbler's order.

    ``state_zero_labels`` may be the usual int sequence or an
    ``(n_state, 16)`` uint8 row array (the folded session's carry form);
    rows bypass the per-label int<->bytes conversions entirely.
    """
    store.assign_fresh(CONST_ZERO)
    store.assign_fresh(CONST_ONE)
    for wire in circuit.alice_inputs:
        store.assign_fresh(wire)
    for wire in circuit.bob_inputs:
        store.assign_fresh(wire)
    state_wires = list(circuit.state_inputs)
    if state_zero_labels is None:
        for wire in state_wires:
            store.assign_fresh(wire)
    elif isinstance(state_zero_labels, np.ndarray):
        if len(state_zero_labels) != len(state_wires):
            raise GarblingError("wrong number of state labels")
        store.set_zero_rows(state_wires, state_zero_labels)
    else:
        if len(state_zero_labels) != len(state_wires):
            raise GarblingError("wrong number of state labels")
        for wire, label in zip(state_wires, state_zero_labels):
            store.set_zero(wire, label)


def garble_copies(
    circuit: Circuit,
    kdf: HashKDF,
    stores: Sequence[ArrayLabelStore],
    state_zero_labels: Union[Sequence[int], np.ndarray, None] = None,
    tweak_base: int = 0,
    fuse: bool = True,
) -> List[GarbledCircuit]:
    """Garble ``len(stores)`` independent copies in one schedule pass.

    Each store carries its own delta and rng (so copies are
    cryptographically independent), but the level loop, index gathers
    and KDF batches run once across the whole stack — this is what
    ``garble_many`` / pool warming / cut-and-choose amortize.

    Args:
        circuit: the netlist to garble.
        kdf: shared garbling oracle.
        stores: one :class:`ArrayLabelStore` per copy.
        state_zero_labels: sequential carry-over labels (single-copy
            garbling only); int sequence or ``(n_state, 16)`` uint8 rows.
        tweak_base: starting tweak, as in the scalar garbler.
        fuse: collapse consecutive narrow levels into single
            pre-flattened scalar runs (bit-identical either way; the
            toggle exists for benchmarking the fusion itself).

    Returns:
        One :class:`GarbledCircuit` per store, in order.
    """
    if not stores:
        return []
    if state_zero_labels is not None and len(stores) != 1:
        raise GarblingError("state carry-over only supports a single copy")
    schedule = circuit.level_schedule()
    k = len(stores)
    for store in stores:
        if store.n_wires < circuit.n_wires:
            raise GarblingError(
                f"label plane holds {store.n_wires} wires, circuit needs "
                f"{circuit.n_wires}"
            )
        _assign_input_labels(store, circuit, state_zero_labels)

    if k == 1:
        # view, so writes land directly in the store's plane
        plane = stores[0].plane[None]
    else:
        plane = np.stack([s.plane for s in stores])
    delta = np.stack([s.delta_row for s in stores])  # (k, 16)
    d3 = delta[:, None, :]
    delta_ints = [s.delta for s in stores]
    tables = np.empty((k, schedule.n_non_free, 32), dtype=np.uint8)
    hash_quad = kdf.hash_quad

    levels = schedule.levels
    fused = (
        schedule.fused_narrow_runs(k, VECTOR_MIN_WIDTH) if fuse else {}
    )
    li = 0
    n_levels = len(levels)
    while li < n_levels:
        seg = fused.get(li)
        if seg is not None:
            # fused multi-level scalar run: consecutive narrow levels
            # (ripple-carry tails) as one pre-flattened gate loop.  The
            # run computes on cached Python ints — chained wires never
            # round-trip through the byte plane — and scatters labels
            # and tables back in one assignment each at the end.
            li, gates, out_wires, nf_tidx = seg
            for i in range(k):
                rows = plane[i]
                dint = delta_ints[i]
                cache: Dict[int, int] = {}
                out_vals: List[int] = []
                table_rows: List[bytes] = []
                for a, b, out_w, tidx, ia, ib, io in gates:
                    za = cache.get(a)
                    if za is None:
                        za = int.from_bytes(rows[a].tobytes(), "little")
                        cache[a] = za
                    zb = cache.get(b)
                    if zb is None:
                        zb = int.from_bytes(rows[b].tobytes(), "little")
                        cache[b] = zb
                    if tidx < 0:  # free gate; ia carries the inv flag
                        out = za ^ zb ^ (dint if ia else 0)
                        cache[out_w] = out
                        out_vals.append(out)
                        continue
                    if ia:
                        za ^= dint
                    if ib:
                        zb ^= dint
                    tweak = tweak_base + 2 * tidx
                    h_a0, h_a1, h_b0, h_b1 = hash_quad(
                        za, za ^ dint, zb, zb ^ dint, tweak
                    )
                    tg = h_a0 ^ h_a1 ^ (dint if zb & 1 else 0)
                    wg = h_a0 ^ (tg if za & 1 else 0)
                    te = h_b0 ^ h_b1 ^ za
                    we = h_b0 ^ ((te ^ za) if zb & 1 else 0)
                    zero_out = wg ^ we
                    if io:
                        zero_out ^= dint
                    cache[out_w] = zero_out
                    out_vals.append(zero_out)
                    table_rows.append(
                        tg.to_bytes(16, "little")
                        + te.to_bytes(16, "little")
                    )
                rows[out_wires] = np.frombuffer(
                    b"".join(v.to_bytes(16, "little") for v in out_vals),
                    dtype=np.uint8,
                ).reshape(-1, 16)
                if table_rows:
                    tables[i][nf_tidx] = np.frombuffer(
                        b"".join(table_rows), dtype=np.uint8
                    ).reshape(-1, 32)
            continue
        level = levels[li]
        li += 1
        n_free = level.n_free
        if n_free and k * n_free >= VECTOR_MIN_WIDTH:
            # one gather-XOR-scatter covers XOR/XNOR/NOT/BUF: unary
            # gates read the scratch zero row, XNOR/NOT add delta
            out = plane[:, level.free_a] ^ plane[:, level.free_b]
            if level.free_has_inv:
                out ^= d3 * level.free_inv[None, :, None]
            plane[:, level.free_out] = out
        elif n_free:
            for i in range(k):
                rows = plane[i]
                d_row = delta[i]
                for a, b, out_w, inv in level.free_gates:
                    if inv:
                        rows[out_w] = rows[a] ^ rows[b] ^ d_row
                    else:
                        rows[out_w] = rows[a] ^ rows[b]
        m = level.n_non_free
        if m and k * m >= VECTOR_MIN_WIDTH:
            za = plane[:, level.nf_a]
            if level.nf_has_ia:  # free input inversions (AND reduction)
                za = za ^ d3 * level.nf_ia[None, :, None]
            zb = plane[:, level.nf_b]
            if level.nf_has_ib:
                zb = zb ^ d3 * level.nf_ib[None, :, None]
            pa = za[..., 0:1] & 1  # (k, m, 1) permute bits
            pb = zb[..., 0:1] & 1

            n = k * m
            rows = np.empty((4 * n, 24), dtype=np.uint8)
            rows[:n, :16] = za.reshape(n, 16)
            rows[n : 2 * n, :16] = (za ^ d3).reshape(n, 16)
            rows[2 * n : 3 * n, :16] = zb.reshape(n, 16)
            rows[3 * n :, :16] = (zb ^ d3).reshape(n, 16)
            tw_a, tw_b = _level_tweaks(level, tweak_base)
            if k > 1:
                tw_a = np.broadcast_to(tw_a, (k, m, 8)).reshape(n, 8)
                tw_b = np.broadcast_to(tw_b, (k, m, 8)).reshape(n, 8)
            rows[:n, 16:] = tw_a
            rows[n : 2 * n, 16:] = tw_a
            rows[2 * n : 3 * n, 16:] = tw_b
            rows[3 * n :, 16:] = tw_b

            h = _hash_many(kdf, rows)
            h_a0 = h[:n].reshape(k, m, 16)
            h_a1 = h[n : 2 * n].reshape(k, m, 16)
            h_b0 = h[2 * n : 3 * n].reshape(k, m, 16)
            h_b1 = h[3 * n :].reshape(k, m, 16)

            # half-gates (Zahur-Rosulek-Evans), identical algebra to the
            # scalar _garble_and, with pa/pb as multiplicative masks
            tg = h_a0 ^ h_a1 ^ d3 * pb
            wg = h_a0 ^ tg * pa
            te = h_b0 ^ h_b1 ^ za
            we = h_b0 ^ (te ^ za) * pb
            zero_out = wg ^ we
            if level.nf_has_io:  # free output inversions
                zero_out = zero_out ^ d3 * level.nf_io[None, :, None]
            plane[:, level.nf_out] = zero_out
            tables[:, level.nf_tidx, :16] = tg
            tables[:, level.nf_tidx, 16:] = te
        elif m:
            # narrow level: the scalar half-gate on plane rows (same
            # algebra as Garbler._garble_and, byte-for-byte)
            for i in range(k):
                rows = plane[i]
                dint = delta_ints[i]
                copy_tables = tables[i]
                for a, b, out_w, tidx, ia, ib, io in level.nf_gates:
                    za = int.from_bytes(rows[a].tobytes(), "little")
                    if ia:
                        za ^= dint
                    zb = int.from_bytes(rows[b].tobytes(), "little")
                    if ib:
                        zb ^= dint
                    tweak = tweak_base + 2 * tidx
                    h_a0, h_a1, h_b0, h_b1 = hash_quad(
                        za, za ^ dint, zb, zb ^ dint, tweak
                    )
                    tg = h_a0 ^ h_a1 ^ (dint if zb & 1 else 0)
                    wg = h_a0 ^ (tg if za & 1 else 0)
                    te = h_b0 ^ h_b1 ^ za
                    we = h_b0 ^ ((te ^ za) if zb & 1 else 0)
                    zero_out = wg ^ we
                    if io:
                        zero_out ^= dint
                    rows[out_w] = _label_row(zero_out)
                    copy_tables[tidx] = np.frombuffer(
                        tg.to_bytes(16, "little") + te.to_bytes(16, "little"),
                        dtype=np.uint8,
                    )

    results: List[GarbledCircuit] = []
    for i, store in enumerate(stores):
        if k > 1:
            # materialize per-copy ownership: a view into the (k, ...)
            # stack would keep the whole batch alive for as long as any
            # one pool copy survives
            store.plane = plane[i].copy()
        store.mark_defined(schedule.gate_outs)
        copy_tables = tables[i].copy() if k > 1 else tables[i]
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
        alice_labels: Sequence[int],
        bob_labels: Sequence[int],
        state_labels: Union[Sequence[int], np.ndarray, None] = None,
        tweak_base: Optional[int] = None,
        fuse: bool = True,
    ) -> LabelPlane:
        circuit = self.circuit
        if len(alice_labels) != circuit.n_alice:
            raise GarblingError("wrong number of Alice labels")
        if len(bob_labels) != circuit.n_bob:
            raise GarblingError("wrong number of Bob labels")

        schedule = circuit.level_schedule()
        plane = np.zeros((circuit.n_wires + 1, 16), dtype=np.uint8)
        plane[CONST_ZERO] = _label_row(garbled.const_labels[0])
        plane[CONST_ONE] = _label_row(garbled.const_labels[1])
        for wire, label in zip(circuit.alice_inputs, alice_labels):
            plane[wire] = _label_row(label)
        for wire, label in zip(circuit.bob_inputs, bob_labels):
            plane[wire] = _label_row(label)
        self._fill_state(plane, state_labels)

        table_plane = garbled.tables_plane
        if table_plane is None:
            blob = garbled.tables_bytes()
            table_plane = np.frombuffer(blob, dtype=np.uint8).reshape(-1, 32)
        if len(table_plane) < schedule.n_non_free:
            raise GarblingError("ran out of garbled tables")
        tg_all = table_plane[:, :16]
        te_all = table_plane[:, 16:]
        base = garbled.tweak_base if tweak_base is None else tweak_base

        kdf = self.kdf
        hash_pair = kdf.hash_pair
        levels = schedule.levels
        fused = (
            schedule.fused_narrow_runs(1, VECTOR_MIN_WIDTH) if fuse else {}
        )
        li = 0
        n_levels = len(levels)
        while li < n_levels:
            seg = fused.get(li)
            if seg is not None:
                # fused run over consecutive narrow levels on cached
                # ints (the evaluator ignores the garbler's inversion
                # flags); one scatter writes the run's labels back
                li, gates, out_wires, _nf_tidx = seg
                cache: Dict[int, int] = {}
                out_vals: List[int] = []
                for a, b, out_w, tidx, _ia, _ib, _io in gates:
                    wa_i = cache.get(a)
                    if wa_i is None:
                        wa_i = int.from_bytes(plane[a].tobytes(), "little")
                        cache[a] = wa_i
                    wb_i = cache.get(b)
                    if wb_i is None:
                        wb_i = int.from_bytes(plane[b].tobytes(), "little")
                        cache[b] = wb_i
                    if tidx < 0:
                        out = wa_i ^ wb_i
                        cache[out_w] = out
                        out_vals.append(out)
                        continue
                    tweak = base + 2 * tidx
                    row = table_plane[tidx]
                    wg, we = hash_pair(wa_i, wb_i, tweak)
                    if wa_i & 1:
                        wg ^= int.from_bytes(row[:16].tobytes(), "little")
                    if wb_i & 1:
                        te_i = int.from_bytes(row[16:].tobytes(), "little")
                        we ^= te_i ^ wa_i
                    out = wg ^ we
                    cache[out_w] = out
                    out_vals.append(out)
                plane[out_wires] = np.frombuffer(
                    b"".join(v.to_bytes(16, "little") for v in out_vals),
                    dtype=np.uint8,
                ).reshape(-1, 16)
                continue
            level = levels[li]
            li += 1
            n_free = level.n_free
            if n_free and n_free >= VECTOR_MIN_WIDTH:
                # the evaluator's free gates are pure label XOR (XNOR's
                # delta lives on the garbler side), unary gates read the
                # scratch zero row
                plane[level.free_out] = (
                    plane[level.free_a] ^ plane[level.free_b]
                )
            elif n_free:
                for a, b, out_w, _ in level.free_gates:
                    plane[out_w] = plane[a] ^ plane[b]
            m = level.n_non_free
            if m and m >= VECTOR_MIN_WIDTH:
                wa = plane[level.nf_a]
                wb = plane[level.nf_b]
                sa = wa[:, 0:1] & 1
                sb = wb[:, 0:1] & 1
                tw_a, tw_b = _level_tweaks(level, base)
                rows = np.empty((2 * m, 24), dtype=np.uint8)
                rows[:m, :16] = wa
                rows[m:, :16] = wb
                rows[:m, 16:] = tw_a
                rows[m:, 16:] = tw_b
                h = _hash_many(kdf, rows)
                tg = tg_all[level.nf_tidx]
                te = te_all[level.nf_tidx]
                wg = h[:m] ^ tg * sa
                we = h[m:] ^ (te ^ wa) * sb
                plane[level.nf_out] = wg ^ we
            elif m:
                # narrow level: scalar half-gate evaluation on plane rows
                for a, b, out_w, tidx, _, _, _ in level.nf_gates:
                    wa_i = int.from_bytes(plane[a].tobytes(), "little")
                    wb_i = int.from_bytes(plane[b].tobytes(), "little")
                    tweak = base + 2 * tidx
                    row = table_plane[tidx]
                    wg, we = hash_pair(wa_i, wb_i, tweak)
                    if wa_i & 1:
                        wg ^= int.from_bytes(row[:16].tobytes(), "little")
                    if wb_i & 1:
                        te_i = int.from_bytes(row[16:].tobytes(), "little")
                        we ^= te_i ^ wa_i
                    plane[out_w] = _label_row(wg ^ we)
        return LabelPlane(plane, circuit.n_wires)

    def _fill_state(
        self,
        plane: np.ndarray,
        state_labels: Union[Sequence[int], np.ndarray, None],
    ) -> None:
        """Write carried-over state labels into a plane.

        Accepts the int sequence of the scalar contract or an
        ``(n_state, 16)`` uint8 row array (the folded session's carry
        form — one array copy instead of per-register conversions).
        """
        circuit = self.circuit
        if state_labels is None:
            if circuit.n_state:
                raise GarblingError("wrong number of state labels")
            return
        if isinstance(state_labels, np.ndarray):
            if len(state_labels) != circuit.n_state:
                raise GarblingError("wrong number of state labels")
            if circuit.n_state:
                plane[list(circuit.state_inputs)] = state_labels
            return
        state_labels = list(state_labels)
        if len(state_labels) != circuit.n_state:
            raise GarblingError("wrong number of state labels")
        for wire, label in zip(circuit.state_inputs, state_labels):
            plane[wire] = _label_row(label)

    def evaluate_many(
        self,
        garbleds: Sequence[GarbledCircuit],
        alice_labels: Sequence[Sequence[int]],
        bob_labels: Sequence[Sequence[int]],
        tweak_base: Optional[int] = None,
        fuse: bool = True,
    ) -> List[LabelPlane]:
        """Evaluate ``k`` independently garbled requests in one pass.

        The online-side mirror of :func:`garble_copies`: all requests'
        labels live in one ``(k, n_wires + 1, 16)`` plane and the level
        schedule is walked once, so per-level Python dispatch amortizes
        across the batch, every level's KDF rows across all requests
        join into a single batch, and levels too narrow to vectorize for
        one request (``m < VECTOR_MIN_WIDTH``) become wide once ``k * m``
        clears the threshold.  This is what serves concurrent traffic —
        ``PrivateInferenceService.infer_many`` routes same-circuit
        requests here instead of running ``k`` scalar evaluations on a
        thread pool.

        Args:
            garbleds: one garbled circuit per request (each with its own
                tables and labels; all must share one tweak base).
            alice_labels / bob_labels: per-request input labels.
            tweak_base: override the (shared) tweak counter.
            fuse: collapse consecutive narrow levels (see
                :meth:`evaluate`).

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

        schedule = circuit.level_schedule()
        planes = np.zeros((k, circuit.n_wires + 1, 16), dtype=np.uint8)
        table_planes = []
        base: Optional[int] = None
        for i, garbled in enumerate(garbleds):
            tb = garbled.tweak_base if tweak_base is None else tweak_base
            if base is None:
                base = tb
            elif tb != base:
                raise GarblingError(
                    "evaluate_many needs a uniform tweak base across copies"
                )
            if len(alice_labels[i]) != circuit.n_alice:
                raise GarblingError("wrong number of Alice labels")
            if len(bob_labels[i]) != circuit.n_bob:
                raise GarblingError("wrong number of Bob labels")
            plane = planes[i]
            plane[CONST_ZERO] = _label_row(garbled.const_labels[0])
            plane[CONST_ONE] = _label_row(garbled.const_labels[1])
            for wire, label in zip(circuit.alice_inputs, alice_labels[i]):
                plane[wire] = _label_row(label)
            for wire, label in zip(circuit.bob_inputs, bob_labels[i]):
                plane[wire] = _label_row(label)
            table_plane = garbled.tables_plane
            if table_plane is None:
                blob = garbled.tables_bytes()
                table_plane = np.frombuffer(
                    blob, dtype=np.uint8
                ).reshape(-1, 32)
            if len(table_plane) < schedule.n_non_free:
                raise GarblingError("ran out of garbled tables")
            table_planes.append(
                np.asarray(table_plane)[: schedule.n_non_free]
            )
        tables = (
            np.stack(table_planes)
            if k > 1
            else table_planes[0][None]
        )
        tg_all = tables[:, :, :16]
        te_all = tables[:, :, 16:]

        kdf = self.kdf
        hash_pair = kdf.hash_pair
        levels = schedule.levels
        fused = (
            schedule.fused_narrow_runs(k, VECTOR_MIN_WIDTH) if fuse else {}
        )
        li = 0
        n_levels = len(levels)
        while li < n_levels:
            seg = fused.get(li)
            if seg is not None:
                li, gates, out_wires, _nf_tidx = seg
                for i in range(k):
                    rows = planes[i]
                    copy_tables = tables[i]
                    cache: Dict[int, int] = {}
                    out_vals: List[int] = []
                    for a, b, out_w, tidx, _ia, _ib, _io in gates:
                        wa_i = cache.get(a)
                        if wa_i is None:
                            wa_i = int.from_bytes(
                                rows[a].tobytes(), "little"
                            )
                            cache[a] = wa_i
                        wb_i = cache.get(b)
                        if wb_i is None:
                            wb_i = int.from_bytes(
                                rows[b].tobytes(), "little"
                            )
                            cache[b] = wb_i
                        if tidx < 0:
                            out = wa_i ^ wb_i
                            cache[out_w] = out
                            out_vals.append(out)
                            continue
                        tweak = base + 2 * tidx
                        row = copy_tables[tidx]
                        wg, we = hash_pair(wa_i, wb_i, tweak)
                        if wa_i & 1:
                            wg ^= int.from_bytes(
                                row[:16].tobytes(), "little"
                            )
                        if wb_i & 1:
                            te_i = int.from_bytes(
                                row[16:].tobytes(), "little"
                            )
                            we ^= te_i ^ wa_i
                        out = wg ^ we
                        cache[out_w] = out
                        out_vals.append(out)
                    rows[out_wires] = np.frombuffer(
                        b"".join(
                            v.to_bytes(16, "little") for v in out_vals
                        ),
                        dtype=np.uint8,
                    ).reshape(-1, 16)
                continue
            level = levels[li]
            li += 1
            n_free = level.n_free
            if n_free and k * n_free >= VECTOR_MIN_WIDTH:
                planes[:, level.free_out] = (
                    planes[:, level.free_a] ^ planes[:, level.free_b]
                )
            elif n_free:
                for i in range(k):
                    rows = planes[i]
                    for a, b, out_w, _ in level.free_gates:
                        rows[out_w] = rows[a] ^ rows[b]
            m = level.n_non_free
            if m and k * m >= VECTOR_MIN_WIDTH:
                wa = planes[:, level.nf_a]  # (k, m, 16)
                wb = planes[:, level.nf_b]
                sa = wa[..., 0:1] & 1
                sb = wb[..., 0:1] & 1
                n = k * m
                rows = np.empty((2 * n, 24), dtype=np.uint8)
                rows[:n, :16] = wa.reshape(n, 16)
                rows[n:, :16] = wb.reshape(n, 16)
                tw_a, tw_b = _level_tweaks(level, base)
                if k > 1:
                    tw_a = np.broadcast_to(tw_a, (k, m, 8)).reshape(n, 8)
                    tw_b = np.broadcast_to(tw_b, (k, m, 8)).reshape(n, 8)
                rows[:n, 16:] = tw_a
                rows[n:, 16:] = tw_b
                h = _hash_many(kdf, rows)
                h_a = h[:n].reshape(k, m, 16)
                h_b = h[n:].reshape(k, m, 16)
                tg = tg_all[:, level.nf_tidx]
                te = te_all[:, level.nf_tidx]
                wg = h_a ^ tg * sa
                we = h_b ^ (te ^ wa) * sb
                planes[:, level.nf_out] = wg ^ we
            elif m:
                for i in range(k):
                    rows_i = planes[i]
                    copy_tables = tables[i]
                    for a, b, out_w, tidx, _ia, _ib, _io in level.nf_gates:
                        wa_i = int.from_bytes(rows_i[a].tobytes(), "little")
                        wb_i = int.from_bytes(rows_i[b].tobytes(), "little")
                        tweak = base + 2 * tidx
                        row = copy_tables[tidx]
                        wg, we = hash_pair(wa_i, wb_i, tweak)
                        if wa_i & 1:
                            wg ^= int.from_bytes(row[:16].tobytes(), "little")
                        if wb_i & 1:
                            te_i = int.from_bytes(
                                row[16:].tobytes(), "little"
                            )
                            we ^= te_i ^ wa_i
                        rows_i[out_w] = _label_row(wg ^ we)
        return [LabelPlane(planes[i], circuit.n_wires) for i in range(k)]
