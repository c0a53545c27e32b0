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
"""

from __future__ import annotations

import hashlib
import secrets
import struct
import threading
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ChannelIntegrityError, OTError
from .channel import Channel
from .ot import MODP_2048, OTGroup, _xor_bytes, run_ot_batch
from .rng import RngLike, rand_bits

__all__ = ["IKNPState", "extension_ot", "KAPPA"]

KAPPA = 128

#: Width of the base-OT messages: one XOF seed per column and choice.
SEED_BYTES = 16

#: At or above this many (equal-length) transfers the masked messages
#: travel as two ``(m, length)`` planes in one frame and are masked with
#: one XOR per plane; below it, as length-prefixed pairs.  Both layouts
#: hash every row with the same ``hashlib`` call, so the value selects a
#: *frame layout*, not a kernel — it is wire contract
#: (``comm_bytes_per_req``), not a tuning knob.
VEC_MIN_TRANSFERS = 64


class IKNPState:
    """The session-lived half of IKNP: one base-OT batch, many extensions.

    Both roles live in one object, like every in-process session of this
    reproduction.  Constructing a state is free; the base-OT batch (``kappa``
    transfers of seed pairs, roles swapped, through
    :func:`repro.gc.ot.run_ot_batch`) runs inside the first
    :meth:`reserve`, so an owner that never extends never pays for it.

    A state belongs to the session or backend object that created it and
    is safe to share between that owner's threads: every extension
    reserves its own XOF counter and its own range of hash indices under
    the state's lock, and an extension that aborts half-way simply leaves
    its reservation unused.

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
        self._s_mask = np.zeros((kappa, 1), dtype=np.uint8)
        self._s_packed = np.zeros(0, dtype=np.uint8)
        self._sender_seeds: List[bytes] = []
        self._receiver_seeds: Tuple[Sequence[bytes], Sequence[bytes]] = ((), ())

    @property
    def setup_bytes(self) -> int:
        """Size of the base-OT flights this state has paid for (0 before).

        The three flights as the channel would frame them — ``c``, the
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

    def reserve(self, m: int) -> Tuple[int, int]:
        """Claim one extension of ``m`` transfers.

        Returns ``(counter, first_index)``: the XOF domain separator of
        this extension and the first of its ``m`` row-hash indices.
        Neither is ever handed out twice.  The first call runs the
        base-OT batch.
        """
        with self._lock:
            if not self._setup_bytes:
                self._setup()
            counter, first_index = self._extensions, self._transfers
            self._extensions += 1
            self._transfers += m
        return counter, first_index

    def _setup(self) -> None:
        """The one base-OT batch (caller holds the lock)."""
        kappa, rng = self.kappa, self._rng
        s_bits = [rand_bits(rng, 1) for _ in range(kappa)]
        seed_pairs = [
            (
                rand_bits(rng, 8 * SEED_BYTES).to_bytes(SEED_BYTES, "big"),
                rand_bits(rng, 8 * SEED_BYTES).to_bytes(SEED_BYTES, "big"),
            )
            for _ in range(kappa)
        ]
        # roles swapped: the extension's sender is the base-OT receiver
        self._sender_seeds = run_ot_batch(
            seed_pairs, s_bits, group=self.group, rng=rng
        )
        self._receiver_seeds = (
            [k0 for k0, _ in seed_pairs],
            [k1 for _, k1 in seed_pairs],
        )
        s_vector = np.array(s_bits, dtype=np.uint8)
        self._s_mask = (s_vector * np.uint8(0xFF))[:, None]
        self._s_packed = np.packbits(s_vector)
        width = (self.group.prime.bit_length() + 7) // 8
        self._setup_bytes = (
            (width + 4)
            + (kappa * width + 4)
            + (kappa * (width + 2 * SEED_BYTES) + 4)
        )

    # -- per-extension expansion -------------------------------------------

    @staticmethod
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

    def receiver_columns(
        self, counter: int, choice_bits: np.ndarray
    ) -> Tuple[np.ndarray, bytes]:
        """Receiver side: ``(T rows packed, the u columns to send)``."""
        m = len(choice_bits)
        col_len = (m + 7) // 8
        seeds0, seeds1 = self._receiver_seeds
        t_cols = self._expand(seeds0, counter, col_len)
        u_cols = (
            t_cols
            ^ self._expand(seeds1, counter, col_len)
            ^ np.packbits(choice_bits)[None, :]
        )
        return _rows(t_cols, m), u_cols.tobytes()

    def sender_rows(
        self, counter: int, m: int, u_blob: bytes
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sender side: packed rows ``(q_i, q_i ^ s)`` from the ``u`` columns."""
        col_len = (m + 7) // 8
        u_cols = np.frombuffer(u_blob, dtype=np.uint8).reshape(
            self.kappa, col_len
        )
        q_cols = self._expand(self._sender_seeds, counter, col_len) ^ (
            u_cols & self._s_mask
        )
        q_rows = _rows(q_cols, m)
        return q_rows, q_rows ^ self._s_packed[None, :]


def _rows(cols: np.ndarray, m: int) -> np.ndarray:
    """Transpose packed ``(kappa, ceil(m/8))`` columns to packed ``(m, kappa/8)`` rows."""
    return np.packbits(np.unpackbits(cols, axis=1)[:, :m].T, axis=1)


def _hash_row(index: int, row: bytes, length: int) -> bytes:
    out = b""
    counter = 0
    while len(out) < length:
        out += hashlib.sha256(
            index.to_bytes(8, "big") + counter.to_bytes(4, "big") + row
        ).digest()
        counter += 1
    return out[:length]


def _hash_rows(rows: np.ndarray, length: int, first_index: int) -> np.ndarray:
    """:func:`_hash_row` over every row of a packed matrix.

    Builds the ``index || counter || row`` messages for all ``m`` rows
    as one byte matrix and hashes its rows with ``hashlib`` — the same
    digests as the scalar loop, without its per-transfer int and bytes
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
    pairs: Sequence[Tuple[bytes, bytes]],
    choices: Sequence[int],
    group: OTGroup = MODP_2048,
    rng: RngLike = secrets,
    kappa: int = KAPPA,
    channel: Optional[Tuple[Channel, Channel]] = None,
    state: Optional[IKNPState] = None,
) -> Tuple[List[bytes], int]:
    """Run one IKNP extension locally (both roles in-process).

    Args:
        pairs: the sender's ``m`` message pairs (equal lengths per pair).
        choices: the receiver's ``m`` choice bits.
        group: group for the ``kappa`` base OTs (unused with ``state``).
        rng: randomness source (unused with ``state``).
        kappa: computational security parameter (unused with ``state``).
        channel: optional ``(alice_end, bob_end)`` endpoints; when given
            both extension flights — the ``u`` columns
            (receiver-to-sender) and the masked message planes
            (sender-to-receiver) — travel as checksummed ``"ot"``-tagged
            frames, so injected wire faults hit the real OT data path.
        state: the owner's :class:`IKNPState`; its base OT is paid once
            and this call only burns one counter.  ``None`` builds a
            throw-away state, i.e. pays the base OT for this call alone.

    Returns:
        ``(chosen_messages, transferred_bytes)`` where the second element
        counts the extension-phase traffic (columns + masked messages),
        used by the protocol's communication accounting.
    """
    m = len(pairs)
    if m != len(choices):
        raise OTError("need one choice per pair")
    if m == 0:
        return [], 0
    for m0, m1 in pairs:
        if len(m0) != len(m1):
            raise OTError("message pair lengths must match")
    if state is None:
        state = IKNPState(group=group, rng=rng, kappa=kappa)
    kappa = state.kappa
    counter, first_index = state.reserve(m)
    # --- receiver expands its seeds and sends the u columns
    choice_bits = np.array([c & 1 for c in choices], dtype=np.uint8)
    t_rows, u_blob = state.receiver_columns(counter, choice_bits)
    if channel is not None:
        # the columns travel receiver-to-sender: frame them so injected
        # faults (corruption, truncation, drops) hit real OT traffic and
        # are detected by the checksum/tag validation on recv
        alice_end, bob_end = channel
        bob_end.send_bytes(u_blob, tag="ot")
        sent_len = len(u_blob)
        u_blob = alice_end.recv_bytes(expected_tag="ot")
        if len(u_blob) != sent_len:
            raise ChannelIntegrityError(
                f"OT column payload size mismatch: expected "
                f"{sent_len} bytes for {kappa} columns, got "
                f"{len(u_blob)}"
            )
    q_rows, q_rows_flipped = state.sender_rows(counter, m, u_blob)
    # --- sender masks the message pairs
    length = len(pairs[0][0])
    uniform = all(len(m0) == length for m0, _ in pairs)
    if uniform and m >= VEC_MIN_TRANSFERS:
        # plane layout (the GC protocol's case: m label transfers, all
        # 16 bytes): every masking step is one pass of row hashes + one
        # XOR over an (m, length) plane instead of per-transfer strings
        m0_plane = np.frombuffer(
            b"".join(m0 for m0, _ in pairs), dtype=np.uint8
        ).reshape(m, length)
        m1_plane = np.frombuffer(
            b"".join(m1 for _, m1 in pairs), dtype=np.uint8
        ).reshape(m, length)
        y0_plane = m0_plane ^ _hash_rows(q_rows, length, first_index)
        y1_plane = m1_plane ^ _hash_rows(q_rows_flipped, length, first_index)
        transferred = 2 * m * length + m * kappa // 8
        if channel is not None:
            alice_end.send_bytes(
                y0_plane.tobytes() + y1_plane.tobytes(), tag="ot"
            )
            masked_blob = bob_end.recv_bytes(expected_tag="ot")
            if len(masked_blob) != 2 * m * length:
                raise ChannelIntegrityError(
                    f"OT masked-plane payload size mismatch: expected "
                    f"{2 * m * length} bytes for {m} transfers, got "
                    f"{len(masked_blob)}"
                )
            plane = np.frombuffer(masked_blob, dtype=np.uint8)
            y0_plane = plane[: m * length].reshape(m, length)
            y1_plane = plane[m * length :].reshape(m, length)
            transferred = (len(u_blob) + 4) + (len(masked_blob) + 4)
        # --- receiver unmasks
        chosen = np.where(
            (choice_bits != 0)[:, None], y1_plane, y0_plane
        )
        out_plane = chosen ^ _hash_rows(t_rows, length, first_index)
        return [out_plane[i].tobytes() for i in range(m)], transferred
    masked: List[Tuple[bytes, bytes]] = []
    transferred = 0
    for i, (m0, m1) in enumerate(pairs):
        index = first_index + i
        y0 = _xor_bytes(m0, _hash_row(index, q_rows[i].tobytes(), len(m0)))
        y1 = _xor_bytes(
            m1, _hash_row(index, q_rows_flipped[i].tobytes(), len(m1))
        )
        masked.append((y0, y1))
        transferred += len(y0) + len(y1)
    transferred += m * kappa // 8  # the u columns
    if channel is not None:
        alice_end.send_bytes(
            b"".join(
                struct.pack("<II", len(y0), len(y1)) + y0 + y1
                for y0, y1 in masked
            ),
            tag="ot",
        )
        masked_blob = bob_end.recv_bytes(expected_tag="ot")
        masked = []
        offset = 0
        for i in range(m):
            if offset + 8 > len(masked_blob):
                raise ChannelIntegrityError(
                    f"OT masked payload truncated at transfer {i} of {m}"
                )
            len0, len1 = struct.unpack_from("<II", masked_blob, offset)
            offset += 8
            if offset + len0 + len1 > len(masked_blob):
                raise ChannelIntegrityError(
                    f"OT masked payload truncated at transfer {i} of {m}"
                )
            masked.append(
                (
                    masked_blob[offset : offset + len0],
                    masked_blob[offset + len0 : offset + len0 + len1],
                )
            )
            offset += len0 + len1
        if offset != len(masked_blob):
            raise ChannelIntegrityError(
                f"OT masked payload carries {len(masked_blob) - offset} "
                "trailing bytes"
            )
        transferred = (len(u_blob) + 4) + (len(masked_blob) + 4)
    # --- receiver unmasks
    out: List[bytes] = []
    for i, choice in enumerate(choice_bits):
        y = masked[i][1] if choice else masked[i][0]
        out.append(
            _xor_bytes(
                y, _hash_row(first_index + i, t_rows[i].tobytes(), len(y))
            )
        )
    return out, transferred
