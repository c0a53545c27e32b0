"""IKNP oblivious-transfer extension.

A base OT costs three modular exponentiations (:mod:`repro.gc.ot`); a
DL circuit needs one OT per evaluator input *bit*, which would dominate
runtime.  OT extension (Ishai-Kilian-Nissim-Petrank) turns ``k = 128``
base OTs (with roles swapped) plus symmetric hashing into millions of
transfers — this is the standard companion of garbled-circuit frameworks
and what keeps the OT phase off the critical path in the paper's Fig. 5
timeline.

The public-key part is paid **once per** :class:`IKNPState`: its single
base-OT batch moves ``k`` pairs of 16-byte seeds for ``3k + 3 = 387``
exponentiations (each one :meth:`repro.gc.ot.OTGroup.power` call, in
libcrypto where one loads), and every later extension is symmetric-key
work on those seeds (``G`` is an XOF keyed by seed and a per-extension
counter):

* set-up — the extension *sender* picks ``s in {0,1}^k`` and receives
  ``k_j^{s_j}`` of the receiver's seed pairs ``(k_j^0, k_j^1)``;
* per extension of ``m`` transfers with choice vector ``r`` the receiver
  expands ``t_j = G(k_j^0)`` and sends ``u_j = t_j ^ G(k_j^1) ^ r``; the
  sender forms ``q_j = G(k_j^{s_j}) ^ s_j*u_j``, so the rows satisfy
  ``q_i = t_i ^ (r_i ? s : 0)``;
* sender masks: ``y0_i = x0_i ^ H(i, q_i)``, ``y1_i = x1_i ^ H(i, q_i ^ s)``;
* receiver unmasks its choice with ``H(i, t_i)``.

``i`` is an index that is global to the state, so no two transfers of a
session — across cycles, requests or retries — share a hash input.

Who holds what: ``s`` and ``k_j^{s_j}`` are the sender's
(:class:`SenderHalf`, the garbler's process), the seed pairs the
receiver's (:class:`ReceiverHalf`, the evaluator's).  An
:class:`IKNPState` is *this process's share* of one set-up — both halves
where one process hosts both parties, one where it hosts one — and
:func:`extension_ot` runs each of its three steps only where that step's
party has an endpoint.  Two processes count extensions in lockstep (one
per request or cycle), so neither the XOF counter nor the hash index
crosses the wire.
"""

from __future__ import annotations

import hashlib
import secrets
import threading
from typing import Optional, Sequence, Tuple, TypeVar

import numpy as np

from ..errors import ChannelIntegrityError, OTError
from .channel import Channel, make_channel_pair
from .ot import MODP_2048, OTGroup, base_ot_bytes, base_ot_over_channel, run_ot_batch
from .rng import RngLike, rand_bits

__all__ = ["IKNPState", "ReceiverHalf", "SenderHalf", "extension_ot", "KAPPA"]

KAPPA = 128

#: Width of the base-OT messages: one XOF seed per column and choice.
SEED_BYTES = 16

#: The two endpoints of a link; ``None`` for a party hosted elsewhere.
Ends = Tuple[Optional[Channel], Optional[Channel]]

_Half = TypeVar("_Half")


def _expand(seeds: Sequence[bytes], counter: int, col_len: int) -> np.ndarray:
    """``G(seed, counter)`` for every column: ``(kappa, col_len)`` bytes."""
    suffix = counter.to_bytes(8, "big")
    return np.frombuffer(
        b"".join(
            hashlib.shake_256(seed + suffix).digest(col_len)
            for seed in seeds
        ),
        dtype=np.uint8,
    ).reshape(len(seeds), col_len)


class SenderHalf:
    """The extension sender's secrets: ``s`` and the seeds ``k_j^{s_j}``
    its base-OT choices bought.  The garbler's; read-only once built."""

    def __init__(self, s_bits: Sequence[int], seeds: Sequence[bytes]) -> None:
        s_vector = np.array(s_bits, dtype=np.uint8)
        self.s_mask = (s_vector * np.uint8(0xFF))[:, None]
        self.s_packed = np.packbits(s_vector)
        self.seeds = list(seeds)

    def rows(
        self, counter: int, m: int, u_blob: bytes
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Packed rows ``(q_i, q_i ^ s)`` from the receiver's ``u`` columns."""
        col_len = (m + 7) // 8
        u_cols = np.frombuffer(u_blob, dtype=np.uint8).reshape(
            len(self.seeds), col_len
        )
        q_cols = _expand(self.seeds, counter, col_len) ^ (u_cols & self.s_mask)
        q_rows = _rows(q_cols, m)
        return q_rows, q_rows ^ self.s_packed[None, :]


class ReceiverHalf:
    """The extension receiver's secrets: the seed pairs ``(k_j^0, k_j^1)``
    it offered in the base OT.  The evaluator's; read-only once built."""

    def __init__(self, seed_pairs: Sequence[Tuple[bytes, bytes]]) -> None:
        self.seeds0 = [k0 for k0, _ in seed_pairs]
        self.seeds1 = [k1 for _, k1 in seed_pairs]

    def columns(
        self, counter: int, choice_bits: np.ndarray
    ) -> Tuple[np.ndarray, bytes]:
        """``(T rows packed, the u columns to send)`` for one choice vector."""
        m = len(choice_bits)
        col_len = (m + 7) // 8
        t_cols = _expand(self.seeds0, counter, col_len)
        u_cols = (
            t_cols
            ^ _expand(self.seeds1, counter, col_len)
            ^ np.packbits(choice_bits)[None, :]
        )
        return _rows(t_cols, m), u_cols.tobytes()


class IKNPState:
    """This process's share of one IKNP set-up: one base-OT batch, many
    extensions.

    :attr:`sender` and :attr:`receiver` are the two halves; either may be
    absent.  Constructing a state is free; the base-OT batch (``kappa``
    transfers of seed pairs, roles swapped) runs inside the first
    :meth:`reserve`, so an owner that never extends never pays for it.
    On a link with both ends in this process it is handed across in
    memory (:func:`repro.gc.ot.run_ot_batch`; charged to no request's
    ``comm`` — one process is one trust domain by construction, and a
    framed set-up would bill the first request of every state).  On a
    one-ended link the same batch crosses that link as three
    ``"ot_setup"`` frames (:func:`repro.gc.ot.base_ot_over_channel`), and
    the state keeps the hosted party's half only — for the connection.

    A state belongs to the session, backend or connection that created
    it and is safe to share between that owner's threads: every
    extension reserves its own XOF counter and its own range of hash
    indices under the state's lock, and an extension that aborts
    half-way simply leaves its reservation unused.  A *one-ended* state
    whose session failed must be dropped: the other process may not have
    reserved, and the two counts must stay equal.

    Args:
        group: group for the ``kappa`` base OTs.
        rng: randomness source for ``s``, the seeds and the base OT.
        kappa: computational security parameter (base-OT count).
    """

    def __init__(
        self,
        group: OTGroup = MODP_2048,
        rng: RngLike = secrets,
        kappa: int = KAPPA,
    ) -> None:
        self.group = group
        self.kappa = kappa
        self._rng = rng
        self._lock = threading.Lock()
        self._extensions = 0
        self._transfers = 0
        self._setup_bytes = 0
        # written once by _setup() under the lock, read-only afterwards
        self.sender: Optional[SenderHalf] = None
        self.receiver: Optional[ReceiverHalf] = None

    @property
    def setup_bytes(self) -> int:
        """Size of the base-OT flights this state has paid for (0 before).

        The three flights as a channel frames them — ``c``, the
        ``kappa`` public keys and the ``kappa`` responses, group elements
        at the modulus width — each with its 4-byte length prefix.  A
        session-level figure: it is charged to no request's ``comm``.
        """
        with self._lock:
            return self._setup_bytes

    @property
    def extensions(self) -> int:
        """Extensions reserved so far (aborted ones included)."""
        with self._lock:
            return self._extensions

    def reserve(self, m: int, ends: Ends = (None, None)) -> Tuple[int, int]:
        """Claim one extension of ``m`` transfers.

        Returns ``(counter, first_index)``: the XOF domain separator of
        this extension and the first of its ``m`` row-hash indices.
        Neither is ever handed out twice.  The first call runs the
        base-OT batch — over ``ends`` when exactly one of
        ``(alice_end, bob_end)`` is here, in memory otherwise.
        """
        with self._lock:
            if not self._setup_bytes:
                self._setup(*ends)
            counter, first_index = self._extensions, self._transfers
            self._extensions += 1
            self._transfers += m
        return counter, first_index

    def _setup(self, alice_end: Optional[Channel], bob_end: Optional[Channel]) -> None:
        """The one base-OT batch (caller holds the lock)."""
        kappa, rng = self.kappa, self._rng
        framed = (alice_end is None) != (bob_end is None)
        s_bits = seed_pairs = None
        if alice_end is not None or not framed:
            s_bits = [rand_bits(rng, 1) for _ in range(kappa)]
        if bob_end is not None or not framed:
            seed_pairs = [
                (
                    rand_bits(rng, 8 * SEED_BYTES).to_bytes(SEED_BYTES, "big"),
                    rand_bits(rng, 8 * SEED_BYTES).to_bytes(SEED_BYTES, "big"),
                )
                for _ in range(kappa)
            ]
        # roles swapped: the extension's sender is the base-OT receiver
        if framed:
            seeds = base_ot_over_channel(
                seed_pairs, s_bits, SEED_BYTES, sender_end=bob_end,
                receiver_end=alice_end, group=self.group, rng=rng, tag="ot_setup",
            )
        else:
            seeds = run_ot_batch(seed_pairs, s_bits, group=self.group, rng=rng)
        if s_bits is not None:
            self.sender = SenderHalf(s_bits, seeds)
        if seed_pairs is not None:
            self.receiver = ReceiverHalf(seed_pairs)
        self._setup_bytes = base_ot_bytes(self.group, kappa, SEED_BYTES)


def _held(half: Optional[_Half], party: str) -> _Half:
    if half is None:
        raise OTError(
            f"this OT state holds no {party} half: its set-up ran on a link "
            "that hosts the other party only"
        )
    return half


def _rows(cols: np.ndarray, m: int) -> np.ndarray:
    """Transpose packed ``(kappa, ceil(m/8))`` columns to packed ``(m, kappa/8)`` rows."""
    return np.packbits(np.unpackbits(cols, axis=1)[:, :m].T, axis=1)


def _hash_rows(rows: np.ndarray, length: int, first_index: int) -> np.ndarray:
    """``H(i, row)`` for every row of a packed matrix: SHA-256 over
    ``index || counter || row``, the 4-byte counter extending the mask
    past 32 bytes.

    Builds the messages for all ``m`` rows as one byte matrix and hashes
    its rows with ``hashlib``, without a per-transfer int and bytes
    assembly.

    Args:
        rows: ``(m, row_bytes)`` uint8 packed matrix rows.
        length: mask bytes needed per row (counter mode extends).
        first_index: hash index of row 0; row ``i`` uses ``first_index + i``.

    Returns:
        ``(m, length)`` uint8 mask matrix.
    """
    m, row_len = rows.shape
    if length == 0 or m == 0:
        return np.empty((m, length), dtype=np.uint8)
    width = 12 + row_len
    batch = np.empty((m, width), dtype=np.uint8)
    batch[:, :8] = (
        np.arange(first_index, first_index + m, dtype=">u8")
        .view(np.uint8)
        .reshape(m, 8)
    )
    batch[:, 12:] = rows
    sha256 = hashlib.sha256
    chunks = []
    for counter in range((length + 31) // 32):
        batch[:, 8:12] = np.frombuffer(
            counter.to_bytes(4, "big"), dtype=np.uint8
        )
        buf = memoryview(batch.tobytes())
        digests = b"".join(
            [sha256(buf[i : i + width]).digest()
             for i in range(0, m * width, width)]
        )
        chunks.append(np.frombuffer(digests, dtype=np.uint8).reshape(m, 32))
    if len(chunks) == 1:
        return chunks[0][:, :length]
    return np.concatenate(chunks, axis=1)[:, :length]


def extension_ot(
    messages: Optional[np.ndarray],
    choices: Optional[Sequence[int]],
    group: OTGroup = MODP_2048,
    rng: RngLike = secrets,
    kappa: int = KAPPA,
    channel: Optional[Ends] = None,
    state: Optional[IKNPState] = None,
) -> Tuple[np.ndarray, int]:
    """Run one IKNP extension on the ends of ``channel`` held here.

    Three steps and one frame layout — receiver: expand, send ``u``;
    sender: receive ``u``, mask, send two ``(m, length)`` planes;
    receiver: unmask (it reads ``length`` off the frame) — each run iff
    its party's endpoint is present.  Both flights are checksummed
    ``"ot"``-tagged frames, so injected wire faults hit the real OT data
    path.

    Args:
        messages: the sender's ``(m, 2, length)`` uint8 plane, row ``i``
            holding transfer ``i``'s two messages; ``None`` where the
            sender is hosted elsewhere.
        choices: the receiver's ``m`` choice bits; ``None`` where the
            receiver is hosted elsewhere.
        group: group for the ``kappa`` base OTs (unused with ``state``).
        rng: randomness source (unused with ``state``).
        kappa: computational security parameter (unused with ``state``).
        channel: ``(alice_end, bob_end)`` — the sender's and the
            receiver's endpoint, ``None`` for the one not hosted here.
            Omitted, both parties run over a private in-memory link.
        state: the owner's :class:`IKNPState`; its base OT is paid once
            and this call only burns one counter.  ``None`` builds a
            throw-away state, i.e. pays the base OT for this call alone.

    Returns:
        ``(chosen, transferred_bytes)``: the receiver's ``(m, length)``
        uint8 rows (``(0, length)`` where it is hosted elsewhere) and
        the two flights as the channel charges them (payload plus the
        4-byte length prefix), equal on both ends.
    """
    if messages is not None and (
        not isinstance(messages, np.ndarray)
        or messages.dtype != np.uint8
        or messages.ndim != 3
        or messages.shape[1] != 2
    ):
        raise OTError("sender messages must be one (m, 2, length) uint8 plane")
    if messages is not None and choices is not None and len(messages) != len(choices):
        raise OTError("need one choice per pair")
    choices = choices or ()
    m = len(messages) if messages is not None else len(choices)
    length = messages.shape[2] if messages is not None else 0
    if m == 0:
        return np.empty((0, length), dtype=np.uint8), 0
    alice_end, bob_end = channel or make_channel_pair()[:2]
    if state is None:
        state = IKNPState(group=group, rng=rng, kappa=kappa)
    counter, first_index = state.reserve(m, (alice_end, bob_end))
    u_len = state.kappa * ((m + 7) // 8)
    # --- receiver expands its seeds and sends the u columns
    if bob_end is not None:
        choice_bits = np.array([c & 1 for c in choices], dtype=np.uint8)
        t_rows, u_blob = _held(state.receiver, "receiver").columns(
            counter, choice_bits
        )
        bob_end.send_bytes(u_blob, tag="ot")
    # --- sender masks the messages: per choice, one pass of row hashes
    # and one XOR over an (m, length) plane
    if alice_end is not None:
        if messages is None:
            raise OTError("the sender's end needs the sender's messages")
        u_blob = alice_end.recv_bytes(expected_tag="ot")
        if len(u_blob) != u_len:
            raise ChannelIntegrityError(
                f"OT column payload size mismatch: expected {u_len} bytes "
                f"for {state.kappa} columns, got {len(u_blob)}"
            )
        sent = np.empty((2, m, length), dtype=np.uint8)
        for bit, rows in enumerate(
            _held(state.sender, "sender").rows(counter, m, u_blob)
        ):
            np.bitwise_xor(
                messages[:, bit], _hash_rows(rows, length, first_index),
                out=sent[bit],
            )
        alice_end.send_bytes(sent.tobytes(), tag="ot")
    if bob_end is None:
        return np.empty((0, length), dtype=np.uint8), (
            (u_len + 4) + (2 * m * length + 4)
        )
    # --- receiver unmasks
    masked = bob_end.recv_bytes(expected_tag="ot")
    length, ragged = divmod(len(masked), 2 * m)
    if ragged:
        raise ChannelIntegrityError(
            f"OT masked-plane payload of {len(masked)} bytes is not two "
            f"planes of {m} equal-length messages"
        )
    planes = np.frombuffer(masked, dtype=np.uint8).reshape(2, m, length)
    chosen = np.where((choice_bits != 0)[:, None], planes[1], planes[0])
    return chosen ^ _hash_rows(t_rows, length, first_index), (
        (u_len + 4) + (len(masked) + 4)
    )
