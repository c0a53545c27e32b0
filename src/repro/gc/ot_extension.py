"""IKNP oblivious-transfer extension, in two phases.

A base OT costs three modular exponentiations (:mod:`repro.gc.ot`); a
DL circuit needs one OT per evaluator input *bit*, which would dominate
runtime.  OT extension (Ishai-Kilian-Nissim-Petrank) turns ``kappa =
128`` base OTs (with roles swapped) plus symmetric work into any number
of transfers — the standard companion of garbled-circuit frameworks and
what keeps the OT phase off the critical path in the paper's Fig. 5
timeline.

The public-key part is paid **once per** :class:`IKNPState`: its single
base-OT batch moves ``kappa`` pairs of 16-byte seeds for ``3 kappa + 3
= 387`` exponentiations (each one :meth:`repro.gc.ot.OTGroup.power`
call), and every later extension is symmetric-key work on those seeds
(``G`` is an XOF keyed by seed and the extension's counter).  The sender
picks ``s in {0,1}^kappa`` and holds ``k_j^{s_j}`` of the receiver's
seed pairs ``(k_j^0, k_j^1)``.

An extension then runs in two phases (D. Beaver, "Precomputing
Oblivious Transfer", CRYPTO 1995), back to back in :func:`chosen_ot`:

* **Phase 1, random OT** (:func:`extension_ot`) — needs no message and
  no real choice, so it can run before either exists.  The receiver
  draws random choices ``r``, expands ``t_j = G(k_j^0)`` and sends its
  counter with ``u_j = t_j ^ G(k_j^1) ^ r``; the sender forms ``q_j =
  G(k_j^{s_j}) ^ s_j*u_j``, so the rows satisfy ``q_i = t_i ^ (r_i ? s :
  0)``.  The sender keeps the **pads** ``(x0_i, x1_i) = (H(q_i), H(q_i ^
  s))``, the receiver keeps ``r`` and ``x_{r_i} = H(t_i)``; nothing else
  crosses.
* **Phase 2, derandomization** (:func:`derandomize`).  With its
  real choices ``c`` the evaluator sends ``e = c ^ r`` (``ceil(m/8)``
  bytes), the garbler answers ``y_b = m_b ^ x_{b^e}`` (one XOR over the
  ``(m, 2, 16)`` label plane) and the evaluator reads ``m_c = y_c ^
  x_r``.  ``e`` is uniform whatever ``c`` is; ``y_{1-c}`` is masked by
  ``x_{1-r}``, which the evaluator never holds.

The evaluator's choices are the server's weights, the same in every
request, so a pooled copy runs both phases as it is made and keeps the
chosen labels in Bob's half
(:meth:`repro.gc.protocol.TwoPartySession.pregarble_many`); no pads
outlive a :func:`chosen_ot` call.

**The row hash** ``H`` is the tweakable circular-correlation-robust
hash of Guo, Katz, Wang and Yu ("Efficient and Secure Multiparty
Computation from Fixed-Key Block Ciphers", S&P 2020): ``H(x, T) =
pi(pi(x) ^ T) ^ pi(x)`` with ``pi`` AES-128 under a fixed public key of
its own (not the garbling oracle's) and the tweak block ``T = row ||
counter``, the row's index then the extension's counter, each a
little-endian 64-bit word.  IKNP needs ``H`` correlation robust at the related inputs
``q_i`` and ``q_i ^ s``; this hash is, in the random-permutation model.
It is AES because a row is ``kappa = 128`` bits — one block — so the
pads of every row are two cipher calls in libcrypto
(:meth:`repro.gc.cipher.FixedKeyAES.tccr_many`), where SHA-256 took one
``hashlib`` call per row and pass.

**The counter crosses the wire.**  The ``u`` frame carries the
receiver's 8-byte extension counter; the sender refuses any counter at
or below the last one it served.  So two processes do not count in
lockstep, and a connection's state survives a session that failed
half-way: the next extension simply takes a higher counter.

Who holds what: ``s`` and ``k_j^{s_j}`` are the sender's
(:class:`SenderHalf`, the garbler's process), the seed pairs the
receiver's (:class:`ReceiverHalf`, the evaluator's).  An
:class:`IKNPState` is *this process's share* of one set-up — both halves
where one process hosts both parties, one where it hosts one — and each
step of either phase runs only where its party has an endpoint; each
hosted end gets its own side of phase 1's :class:`Pads`, and spends it.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import secrets
import threading
from typing import Optional, Sequence, Tuple, TypeVar

import numpy as np

from ..errors import ChannelIntegrityError, OTError
from .channel import Channel, make_channel_pair
from .cipher import FixedKeyAES
from .ot import MODP_2048, OTGroup, base_ot_bytes, base_ot_in_process, base_ot_over_channel
from .rng import RngLike, rand_bits

__all__ = [
    "IKNPState", "KAPPA", "PadEnds", "Pads", "ReceiverHalf", "SenderHalf", "chosen_ot",
    "derandomize", "extension_ot", "random_choices",
]

#: Base OTs per set-up, and bits per extension row: one AES block.
KAPPA = 128

#: Width of the base-OT messages: one XOF seed per column and choice.
SEED_BYTES = 16

#: Width of the extension counter at the head of the ``u`` frame.
COUNTER_BYTES = 8

#: Bytes per transferred message: one wire label.
LABEL_BYTES = 16

#: The row hash's fixed public AES key (the garbling oracle has its own).
PAD_KEY = b"DeepSecure-OTpad"

#: The two endpoints of a link; ``None`` for a party hosted elsewhere.
Ends = Tuple[Optional[Channel], Optional[Channel]]

_Half = TypeVar("_Half")


def _expand(seeds: Sequence[bytes], counter: int, col_len: int) -> np.ndarray:
    """``G(seed, counter)`` for every column: ``(kappa, col_len)`` bytes."""
    suffix = counter.to_bytes(COUNTER_BYTES, "big")
    return np.frombuffer(
        b"".join(
            hashlib.shake_256(seed + suffix).digest(col_len)
            for seed in seeds
        ),
        dtype=np.uint8,
    ).reshape(len(seeds), col_len)


@functools.lru_cache(maxsize=1)
def _pad_cipher() -> FixedKeyAES:
    return FixedKeyAES(PAD_KEY)


def _pad_hash(rows: np.ndarray, counter: int) -> np.ndarray:
    """``H(row, i || counter)`` for every 16-byte row of an ``(m, 16)``
    or ``(m, 2, 16)`` uint8 array, ``i`` its index along the first axis.

    The tweak block is ``i`` then ``counter``, each a little-endian
    64-bit word: no two rows of one state's extensions share one.
    """
    m = rows.shape[0]
    tweaks = np.empty((m, 2), dtype="<u8")
    tweaks[:, 0] = np.arange(m, dtype="<u8")
    tweaks[:, 1] = counter
    shape = (m,) + (1,) * (rows.ndim - 2) + (LABEL_BYTES,)
    return _pad_cipher().tccr_many(rows, tweaks.view(np.uint8).reshape(shape))


def _rows(cols: np.ndarray, m: int) -> np.ndarray:
    """Transpose packed ``(kappa, ceil(m/8))`` columns to packed ``(m, 16)`` rows.

    The bit matrix is laid out row-major before packing: ``packbits``
    over a transposed view reads it strided, 3.5x slower at m = 702.
    """
    bits = np.unpackbits(cols, axis=1, count=m)
    return np.packbits(np.ascontiguousarray(bits.T), axis=1)


class SenderHalf:
    """The extension sender's secrets: ``s`` and the seeds ``k_j^{s_j}``
    its base-OT choices bought.  The garbler's; read-only once built."""

    def __init__(self, s_bits: Sequence[int], seeds: Sequence[bytes]) -> None:
        s_vector = np.array(s_bits, dtype=np.uint8)
        self.s_mask = (s_vector * np.uint8(0xFF))[:, None]
        self.s_packed = np.packbits(s_vector)
        self.seeds = list(seeds)

    def rows(self, counter: int, m: int, u_blob: bytes) -> np.ndarray:
        """Packed rows ``(q_i, q_i ^ s)`` from the receiver's ``u``
        columns, as one ``(m, 2, 16)`` array."""
        col_len = (m + 7) // 8
        u_cols = np.frombuffer(u_blob, dtype=np.uint8).reshape(
            len(self.seeds), col_len
        )
        q_cols = _expand(self.seeds, counter, col_len) ^ (u_cols & self.s_mask)
        q_rows = _rows(q_cols, m)
        return np.stack((q_rows, q_rows ^ self.s_packed[None, :]), axis=1)


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
    extension (:meth:`set_up`), so an owner that never extends never
    pays for it.  The batch is one text, the same steps and rng draws
    wherever the parties are.  On a one-ended link its three flights
    cross that link as ``"ot_setup"`` frames
    (:func:`repro.gc.ot.base_ot_over_channel`), and the state keeps the
    hosted party's half only — for the connection.  Where both parties
    are here, the flights are handed across in memory and never touch
    the request's link (:func:`repro.gc.ot.base_ot_in_process`): one
    process is one trust domain by construction, and no request is
    billed for a set-up.

    A state belongs to the session, backend, pool or connection that
    holds it and is safe to share between that owner's threads:
    extensions on one state take :attr:`turn`, one at a time, so a state
    that hosts both halves serves its counters in the order it reserved
    them.  An extension that aborts half-way leaves its counter unused,
    and the state stays good for the next one, on both ends of a
    connection.

    Args:
        group: group for the ``kappa`` base OTs.
        rng: randomness source for ``s``, the seeds and the base OT.
    """

    def __init__(self, group: OTGroup = MODP_2048, rng: RngLike = secrets) -> None:
        self.group = group
        self._rng = rng
        self._lock = threading.Lock()
        #: held by :func:`extension_ot` from the receiver's counter to the
        #: sender's check of it
        self.turn = threading.Lock()
        self._reserved = 0  # the receiver's next counter
        self._served = -1  # the last counter the sender accepted
        self._setup_bytes = 0
        # written once by _setup() under the lock, read-only afterwards
        self.sender: Optional[SenderHalf] = None
        self.receiver: Optional[ReceiverHalf] = None

    @property
    def setup_bytes(self) -> int:
        """Size of the base-OT flights this state has paid for (0 before).

        The three flights as a channel frames them — ``c``, the
        ``kappa`` public keys, and ``g^r`` with the ``kappa`` ciphertext
        pairs, group elements at the modulus width — each with its 4-byte
        length prefix.  A session-level figure: it is charged to no
        request's ``comm``.
        """
        with self._lock:
            return self._setup_bytes

    @property
    def extensions(self) -> int:
        """Counters used up so far: reserved here, or served up to
        (aborted extensions included)."""
        with self._lock:
            return max(self._reserved, self._served + 1)

    def set_up(self, ends: Ends = (None, None)) -> None:
        """Run the one base-OT batch unless it has run — over ``ends``
        when exactly one of ``(alice_end, bob_end)`` is here, in memory
        otherwise."""
        with self._lock:
            if not self._setup_bytes:
                self._setup(*ends)

    def reserve(self) -> int:
        """The receiver's counter for its next extension; never handed
        out twice."""
        with self._lock:
            counter = self._reserved
            self._reserved += 1
        return counter

    def serve(self, counter: int) -> int:
        """The sender's check of a counter read off the wire: above the
        last one it served, or refused.

        Raises:
            OTError: a counter at or below the last one served — a
                replayed or reordered ``u`` frame.
        """
        with self._lock:
            if counter <= self._served:
                raise OTError(
                    f"extension counter {counter} is not above {self._served}, "
                    "the last this sender served"
                )
            self._served = counter
        return counter

    def _setup(self, alice_end: Optional[Channel], bob_end: Optional[Channel]) -> None:
        """The one base-OT batch (caller holds the lock)."""
        rng = self._rng
        framed = (alice_end is None) != (bob_end is None)
        s_bits = seed_pairs = None
        if alice_end is not None or not framed:
            s_bits = [rand_bits(rng, 1) for _ in range(KAPPA)]
        if bob_end is not None or not framed:
            seed_pairs = [
                (
                    rand_bits(rng, 8 * SEED_BYTES).to_bytes(SEED_BYTES, "big"),
                    rand_bits(rng, 8 * SEED_BYTES).to_bytes(SEED_BYTES, "big"),
                )
                for _ in range(KAPPA)
            ]
        # roles swapped: the extension's sender is the base-OT receiver
        if framed:
            seeds = base_ot_over_channel(
                seed_pairs, s_bits, SEED_BYTES, sender_end=bob_end,
                receiver_end=alice_end, group=self.group, rng=rng, tag="ot_setup",
            )
        else:
            seeds = base_ot_in_process(
                seed_pairs, s_bits, SEED_BYTES, group=self.group, rng=rng
            )
        if s_bits is not None:
            self.sender = SenderHalf(s_bits, seeds)
        if seed_pairs is not None:
            self.receiver = ReceiverHalf(seed_pairs)
        self._setup_bytes = base_ot_bytes(self.group, KAPPA, SEED_BYTES)


def _held(half: Optional[_Half], party: str) -> _Half:
    if half is None:
        raise OTError(
            f"this OT state holds no {party} half: its set-up ran on a link "
            "that hosts the other party only"
        )
    return half


@dataclasses.dataclass(frozen=True)
class Pads:
    """One party's side of ``m`` random OTs from one phase-1 extension:
    the sender's holds ``sender``, the receiver's ``choices`` and
    ``chosen``, also where one process hosts both.  Single-use: phase 2
    spends them on one set of messages, within the :func:`chosen_ot`
    call that made them.

    Attributes:
        m: transfers.
        wire_bytes: the ``u`` frame as its link charged it (counter,
            columns and the 4-byte length prefix): ``kappa * ceil(m/8) + 12``.
        sender: ``(m, 2, 16)`` uint8 — ``x0_i, x1_i``; the garbler's.
        choices: ``(m,)`` uint8 — the random choices ``r``; the evaluator's.
        chosen: ``(m, 16)`` uint8 — ``x_{r_i}``; the evaluator's.
    """

    m: int
    wire_bytes: int
    sender: Optional[np.ndarray] = None
    choices: Optional[np.ndarray] = None
    chosen: Optional[np.ndarray] = None


#: Phase 1's pads per end: ``(sender's, receiver's)``, as :data:`Ends`.
PadEnds = Tuple[Optional[Pads], Optional[Pads]]


def random_choices(m: int, rng: RngLike) -> np.ndarray:
    """The receiver's ``m`` uniform random choice bits, ``(m,)`` uint8."""
    packed = rand_bits(rng, 8 * ((m + 7) // 8)).to_bytes((m + 7) // 8, "big")
    return np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=m)


def extension_ot(
    m: int,
    choices: Optional[np.ndarray],
    channel: Optional[Ends] = None,
    *,
    state: IKNPState,
) -> PadEnds:
    """Phase 1: ``m`` random OTs by one IKNP extension, on the ends of
    ``channel`` held here.

    Two steps and one ``"ot"`` frame — receiver: a fresh counter, its
    seeds expanded, ``counter || u`` sent, its pads hashed; sender:
    ``u`` received, the counter checked (:meth:`IKNPState.serve`), both
    pads of every row hashed — each run iff its party's endpoint is
    present.

    Args:
        m: transfers (public).
        choices: the receiver's ``m`` random choice bits
            (:func:`random_choices`); ``None`` where the receiver is
            hosted elsewhere.
        channel: ``(alice_end, bob_end)`` — the sender's and the
            receiver's endpoint, ``None`` for the one not hosted here.
            Omitted, both parties run over a private in-memory link.
        state: the owner's :class:`IKNPState`; its base OT is paid once
            and this call only burns one counter.

    Returns:
        The :class:`Pads` per end, ``None`` for a party hosted elsewhere.
    """
    if choices is not None and len(choices) != m:
        raise OTError("need one random choice per transfer")
    alice_end, bob_end = channel or make_channel_pair()[:2]
    if m == 0:  # nothing to extend, and nothing on the link
        return (alice_end and Pads(0, 0)), (bob_end and Pads(0, 0))
    u_len = COUNTER_BYTES + KAPPA * ((m + 7) // 8)
    sender: Optional[Pads] = None
    receiver: Optional[Pads] = None
    with state.turn:
        state.set_up((alice_end, bob_end))
        # --- receiver: a fresh counter, u out, its one pad per row
        if bob_end is not None:
            if choices is None:
                raise OTError("the receiver's end needs its random choices")
            r = np.array(choices, dtype=np.uint8) & 1
            counter = state.reserve()
            t_rows, u_cols = _held(state.receiver, "receiver").columns(counter, r)
            bob_end.send_bytes(counter.to_bytes(COUNTER_BYTES, "big") + u_cols, tag="ot")
            receiver = Pads(m, u_len + 4, choices=r, chosen=_pad_hash(t_rows, counter))
        # --- sender: u in, a counter it has not served, both pads per row
        if alice_end is not None:
            blob = alice_end.recv_bytes(expected_tag="ot")
            if len(blob) != u_len:
                raise ChannelIntegrityError(
                    f"OT column payload size mismatch: expected {u_len} bytes "
                    f"(counter and {KAPPA} columns), got {len(blob)}"
                )
            counter = state.serve(int.from_bytes(blob[:COUNTER_BYTES], "big"))
            rows = _held(state.sender, "sender").rows(counter, m, blob[COUNTER_BYTES:])
            sender = Pads(m, u_len + 4, sender=_pad_hash(rows, counter))
    return sender, receiver


def derandomize(
    messages: Optional[np.ndarray],
    bits: Optional[Sequence[int]],
    pads: PadEnds,
    channel: Ends,
) -> Tuple[np.ndarray, int]:
    """Phase 2: ``m`` chosen-message OTs spent from ``m`` random ones.

    Receiver: ``e = c ^ r`` out; sender: ``e`` in, ``y_b = m_b ^
    x_{b^e}`` out (the pad pair swapped where ``e_i`` is 1, then one XOR
    over the plane); receiver: ``m_c = y_c ^ x_r``.  Two ``"ot"``
    frames, each step run iff its party's endpoint is present.

    Args:
        messages: the sender's ``(m, 2, 16)`` uint8 label plane, row
            ``i`` holding transfer ``i``'s two labels; ``None`` where the
            sender is hosted elsewhere.
        bits: the receiver's ``m`` real choice bits; ``None`` where the
            receiver is hosted elsewhere.
        pads: phase 1's :class:`Pads` per end, as :func:`extension_ot` returns them.
        channel: ``(alice_end, bob_end)``, as for :func:`extension_ot`.

    Returns:
        ``(chosen, transferred_bytes)``: the receiver's ``(m, 16)`` uint8
        labels (``(0, 16)`` where it is hosted elsewhere) and the two
        frames as the channel charges them, equal on both ends.
    """
    alice_end, bob_end = channel
    sender, receiver = pads
    m = next(side.m for side in pads if side is not None)
    e_len = (m + 7) // 8
    sent = (e_len + 4) + (2 * m * LABEL_BYTES + 4)
    # --- receiver: its real choices, blinded by the random ones
    if bob_end is not None:
        r, x_r = (receiver.choices, receiver.chosen) if receiver else (None, None)
        if bits is None or len(bits) != m or r is None or x_r is None:
            raise OTError("the receiver's end needs its pads and one choice per pad")
        c = np.array(bits, dtype=np.uint8) & 1
        bob_end.send_bytes(np.packbits(c ^ r).tobytes(), tag="ot")
    # --- sender: both labels, each under the pad e says the receiver can open
    if alice_end is not None:
        if (
            not isinstance(messages, np.ndarray)
            or messages.dtype != np.uint8
            or messages.shape != (m, 2, LABEL_BYTES)
        ):
            raise OTError(f"sender messages must be one ({m}, 2, 16) uint8 plane")
        x = sender.sender if sender else None
        if x is None:
            raise OTError("the sender's end needs the sender's pads")
        blob = alice_end.recv_bytes(expected_tag="ot")
        if len(blob) != e_len:
            raise ChannelIntegrityError(
                f"OT choice payload size mismatch: expected {e_len} bytes "
                f"for {m} transfers, got {len(blob)}"
            )
        e = np.unpackbits(np.frombuffer(blob, dtype=np.uint8), count=m)
        swapped = np.where(e[:, None, None] != 0, x[:, ::-1], x)
        alice_end.send_bytes((messages ^ swapped).tobytes(), tag="ot")
    if bob_end is None:
        return np.empty((0, LABEL_BYTES), dtype=np.uint8), sent
    # --- receiver: its label, under the one pad it holds
    blob = bob_end.recv_bytes(expected_tag="ot")
    if len(blob) != 2 * m * LABEL_BYTES:
        raise ChannelIntegrityError(
            f"OT label payload of {len(blob)} bytes is not two {m} x 16 planes"
        )
    planes = np.frombuffer(blob, dtype=np.uint8).reshape(m, 2, LABEL_BYTES)
    return planes[np.arange(m, dtype=np.intp), c] ^ x_r, sent


def chosen_ot(
    messages: Optional[np.ndarray],
    bits: Optional[Sequence[int]],
    channel: Optional[Ends] = None,
    *,
    state: IKNPState,
    rng: RngLike = secrets,
) -> Tuple[np.ndarray, int]:
    """Both phases back to back, within one request: ``u``, then ``e``
    and ``y``, extending the owner's ``state``.  The receiver's random
    choices come from ``rng``; other arguments as for
    :func:`extension_ot` and :func:`derandomize`.

    Returns ``(chosen, transferred_bytes)``: the receiver's ``(m, 16)``
    labels and the three frames as the channel charges them.
    """
    if messages is not None and bits is not None and len(messages) != len(bits):
        raise OTError("need one choice per pair")
    m = len(messages) if messages is not None else len(bits or ())
    if m == 0:
        return np.empty((0, LABEL_BYTES), dtype=np.uint8), 0
    ends = channel or make_channel_pair()[:2]
    choices = None if ends[1] is None else random_choices(m, rng)
    pads = extension_ot(m, choices, ends, state=state)
    chosen, sent = derandomize(messages, bits, pads, ends)
    return chosen, next(side.wire_bytes for side in pads if side is not None) + sent
