"""1-out-of-2 Oblivious Transfer (honest-but-curious).

Naor-Pinkas OT (*Efficient Oblivious Transfer Protocols*, SODA 2001,
Sec. 3.1) in its batch form, over a multiplicative group mod ``p``: the
sender publishes ``c = g^x``; per transfer the receiver sends one key
``PK_0``, with ``PK_0 * PK_1 = c`` and the discrete log ``k`` of
``PK_choice`` only known to it; the sender draws **one** ``r`` per batch,
sends ``g^r`` once and encrypts ``m_b`` under ``H(PK_b^r, index)``.  This is
the base OT the paper's flow relies on for the evaluator's input labels
(Sec. 2.2.1 / 3.1).

Security as far as claimed here (honest-but-curious parties, ``H`` a
random oracle): ``PK_0`` is uniform whatever the choice bit, so the
sender learns nothing; a receiver keying both messages of a transfer
would hold ``PK_0^r * PK_1^r = c^r`` from ``(g, g^r, c)`` — computational
Diffie-Hellman, for one transfer or for a batch — and the transfer index
in every hash input keeps a batch's keys independent under the shared ``r``.

A batch of ``n`` costs ``3n + 3`` modular exponentiations — ``c``,
``g^r``, ``c^r``, and per transfer ``g^k`` (or ``g^-k``), ``PK_0^r`` and
``(g^r)^k`` — 387 for an IKNP set-up's 128; ``PK_1^r = c^r / PK_0^r``,
every division of a batch sharing one modular inverse.  Each is one
:meth:`OTGroup.power` call: ``BN_mod_exp_mont_consttime`` in the system
libcrypto through :mod:`ctypes` (like the garbling oracle's AES), or
Python's ``pow`` where none loads — same integers, same transcripts.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import hashlib
import secrets
import threading
from typing import List, Optional, Sequence, Tuple

from ..errors import ChannelIntegrityError, OTError
from . import _libcrypto
from .channel import Channel
from .rng import RngLike, rand_below

__all__ = [
    "OTGroup", "MODP_2048", "TEST_GROUP_512", "OTSender", "OTReceiver",
    "base_ot_over_channel", "base_ot_in_process", "base_ot_bytes",
]


def _bind_bn(lib: ctypes.CDLL) -> None:
    """Declare the BIGNUM prototypes used here (raises if one is missing)."""
    void_p, c_int = ctypes.c_void_p, ctypes.c_int
    for name in ("BN_new", "BN_CTX_new", "BN_MONT_CTX_new"):
        getattr(lib, name).argtypes = []
        getattr(lib, name).restype = void_p
    for name in ("BN_clear_free", "BN_CTX_free", "BN_MONT_CTX_free"):
        getattr(lib, name).argtypes = [void_p]
        getattr(lib, name).restype = None
    lib.BN_bin2bn.argtypes = [ctypes.c_char_p, c_int, void_p]
    lib.BN_bin2bn.restype = void_p
    lib.BN_bn2binpad.argtypes = [void_p, void_p, c_int]
    lib.BN_bn2binpad.restype = c_int
    lib.BN_MONT_CTX_set.argtypes = [void_p, void_p, void_p]
    lib.BN_MONT_CTX_set.restype = c_int
    lib.BN_mod_exp_mont_consttime.argtypes = [void_p] * 6
    lib.BN_mod_exp_mont_consttime.restype = c_int


class _BnScratch(threading.local):
    """One thread's ``BN_CTX``, operand and result ``BIGNUM`` s and output
    buffer for one modulus.  ``ctypes`` drops the GIL around every foreign
    call, so what a call writes belongs to one thread (``threading.local``
    runs this ``__init__`` on a thread's first touch); a forked child
    inherits the forking thread's scratch as plain copied heap memory."""

    def __init__(self, lib: ctypes.CDLL, width: int) -> None:
        self.owners = [_libcrypto.Owned(lib.BN_CTX_new(), lib.BN_CTX_free)] + [
            _libcrypto.Owned(lib.BN_new(), lib.BN_clear_free) for _ in range(3)
        ]
        ctx, base, exponent, result = (owner.ptr for owner in self.owners)
        #: everything a call writes, behind one thread-local attribute read
        self.call = (ctx, base, exponent, result, ctypes.create_string_buffer(width))


class _NativeModulus:
    """An odd modulus as libcrypto holds it: the ``BIGNUM`` and its
    Montgomery context — built once, only read afterwards, so shared by
    every thread — and each thread's scratch."""

    def __init__(self, lib: ctypes.CDLL, modulus: int) -> None:
        self.width = width = (modulus.bit_length() + 7) // 8
        self.bin2bn, self.bn2binpad = lib.BN_bin2bn, lib.BN_bn2binpad
        # every exponent of the OT is a secret: the constant-time ladder
        # (+10 % over BN_mod_exp_mont at 255 bits)
        self.mod_exp = lib.BN_mod_exp_mont_consttime
        self.bn = _libcrypto.Owned(
            lib.BN_bin2bn(modulus.to_bytes(width, "big"), width, None),
            lib.BN_clear_free,
        )
        self.mont = _libcrypto.Owned(lib.BN_MONT_CTX_new(), lib.BN_MONT_CTX_free)
        ctx = _libcrypto.Owned(lib.BN_CTX_new(), lib.BN_CTX_free)
        if lib.BN_MONT_CTX_set(self.mont.ptr, self.bn.ptr, ctx.ptr) != 1:
            raise RuntimeError("BN_MONT_CTX_set refused the modulus")
        self.scratch = _BnScratch(lib, width)


@functools.lru_cache(maxsize=8)
def _native_modulus(modulus: int) -> Optional[_NativeModulus]:
    """The libcrypto form of ``modulus``, or None where
    :meth:`OTGroup.power` stays on ``pow``: no libcrypto offers the BN
    calls, or the modulus is even (Montgomery arithmetic needs it odd)."""
    if modulus < 3 or modulus % 2 == 0:
        return None
    lib = _libcrypto.load(_bind_bn)
    return None if lib is None else _NativeModulus(lib, modulus)


@dataclasses.dataclass(frozen=True)
class OTGroup:
    """A prime-order-ish multiplicative group for the base OT."""

    prime: int
    generator: int
    name: str = "modp"

    @property
    def provider(self) -> str:
        """Where :meth:`power` runs: ``"libcrypto"`` or ``"python"``."""
        return "python" if _native_modulus(self.prime) is None else "libcrypto"

    def random_exponent(self, rng: RngLike = secrets) -> int:
        """Uniform exponent in [1, p-2]."""
        return rand_below(rng, self.prime - 2) + 1

    def power(self, base: int, exponent: int) -> int:
        """Modular exponentiation in the group: ``pow(base, exponent, p)``
        for any integers, whichever provider computes it (a negative
        exponent — a modular inverse — always takes ``pow``).  Every
        exponentiation of a base OT is one call of this method."""
        native = _native_modulus(self.prime) if exponent >= 0 else None
        if native is None:
            return pow(base, exponent, self.prime)
        ctx, b, e, r, out = native.scratch.call
        width = native.width
        base_bytes = (base % self.prime).to_bytes(width, "big")
        exp_bytes = exponent.to_bytes((exponent.bit_length() + 7) // 8 or 1, "big")
        if not (
            native.bin2bn(base_bytes, width, b)
            and native.bin2bn(exp_bytes, len(exp_bytes), e)
            and native.mod_exp(r, b, e, native.bn.ptr, ctx, native.mont.ptr) == 1
            and native.bn2binpad(r, out, width) == width
        ):
            raise RuntimeError("libcrypto modular exponentiation failed")
        return int.from_bytes(out.raw, "big")

    def mul(self, a: int, b: int) -> int:
        """Group multiplication."""
        return (a * b) % self.prime

    def inverse(self, a: int) -> int:
        """Multiplicative inverse mod p."""
        return pow(a, -1, self.prime)


# RFC 3526, 2048-bit MODP group (group id 14), generator 2.
_MODP_2048_HEX = (
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF"
)
MODP_2048 = OTGroup(prime=int(_MODP_2048_HEX, 16), generator=2, name="modp-2048")

# The field of Curve25519, p = 2^255 - 19, for *tests, demos and benchmarks
# only*.  The name is historical: p has 255 bits, not 512, and is not a
# safe prime ((p-1)/2 = 2^254 - 10 is even), so the group has small
# subgroups and no security margin is claimed.  A modexp in it is ~90x
# cheaper than in MODP-2048 under libcrypto (~200x under ``pow``); what
# runs in it exercises protocol correctness.
TEST_GROUP_512 = OTGroup(prime=2 ** 255 - 19, generator=2, name="test-25519")


def _kdf_group_element(element: int, index: int, length: int) -> bytes:
    """Hash a group element to a key stream of ``length`` bytes."""
    out = b""
    counter = 0
    seed = element.to_bytes((element.bit_length() + 7) // 8 or 1, "big")
    while len(out) < length:
        out += hashlib.sha256(
            seed + index.to_bytes(8, "big") + counter.to_bytes(4, "big")
        ).digest()
        counter += 1
    return out[:length]


def _xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR of two equal-length byte strings."""
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(
        len(a), "big"
    )


def _require_element(group: OTGroup, value: int, what: str) -> None:
    """Refuse the other party's group element outside ``(1, p-1)``: wire
    bytes decode to any integer, unreduced or of order <= 2 included."""
    if not 1 < value < group.prime - 1:
        raise OTError(f"bad {what}")


def _inverses(group: OTGroup, elements: Sequence[int]) -> List[int]:
    """The inverse of every (invertible) element for one modular
    inversion and ``3n`` multiplications — Montgomery's trick: invert
    the product of all, then peel one factor off at a time."""
    prefixes = []
    product = 1
    for element in elements:
        prefixes.append(product)
        product = group.mul(product, element)
    suffix_inverse = group.inverse(product)
    out = [0] * len(elements)
    for i in range(len(elements) - 1, -1, -1):
        out[i] = group.mul(suffix_inverse, prefixes[i])
        suffix_inverse = group.mul(suffix_inverse, elements[i])
    return out


class OTSender:
    """Sender side: holds message pairs, learns nothing about choices."""

    def __init__(
        self,
        pairs: Sequence[Tuple[bytes, bytes]],
        group: OTGroup = MODP_2048,
        rng: RngLike = secrets,
    ) -> None:
        for m0, m1 in pairs:
            if len(m0) != len(m1):
                raise OTError("message pair lengths must match")
        self.pairs = list(pairs)
        self.group = group
        self._rng = rng
        self._c: int = 0

    def setup(self) -> int:
        """Publish the common group element ``c`` (DL unknown to receiver)."""
        exponent = self.group.random_exponent(self._rng)
        self._c = self.group.power(self.group.generator, exponent)
        return self._c

    def respond(
        self, public_keys: Sequence[int]
    ) -> Tuple[int, List[Tuple[bytes, bytes]]]:
        """Encrypt both messages of each pair against the receiver's keys.

        One ``r`` serves the batch: ``PK_0^r`` is the only per-transfer
        exponentiation and ``PK_1^r = c^r / PK_0^r``.  Returns ``g^r``
        once, beside one ``(E0, E1)`` per transfer.
        """
        if len(public_keys) != len(self.pairs):
            raise OTError("one public key per message pair required")
        group = self.group
        # every key before any arithmetic: a bad one must be an OTError,
        # not a zero product in the shared inversion
        for pk0 in public_keys:
            _require_element(group, pk0, "receiver public key")
        r = group.random_exponent(self._rng)
        g_r = group.power(group.generator, r)
        c_r = group.power(self._c, r)
        shared0 = [group.power(pk0, r) for pk0 in public_keys]
        ciphertexts = []
        for index, (s0, s0_inverse, (m0, m1)) in enumerate(
            zip(shared0, _inverses(group, shared0), self.pairs)
        ):
            key0 = _kdf_group_element(s0, index, len(m0))
            key1 = _kdf_group_element(group.mul(c_r, s0_inverse), index, len(m1))
            ciphertexts.append((_xor_bytes(m0, key0), _xor_bytes(m1, key1)))
        return g_r, ciphertexts


class OTReceiver:
    """Receiver side: learns exactly one message per pair."""

    def __init__(
        self, choices: Sequence[int], group: OTGroup = MODP_2048, rng: RngLike = secrets
    ) -> None:
        self.choices = [c & 1 for c in choices]
        self.group = group
        self._rng = rng
        self._secrets: List[int] = []

    def public_keys(self, c: int) -> List[int]:
        """Derive one public key per choice from the sender's ``c``.

        ``PK_choice = g^k`` and ``PK_(1-choice) = c / PK_choice``; only
        ``PK_0`` is transmitted.  For choice 1 that is ``c * g^-k``,
        computed as ``c * g^(p-1-k)``: no inversion.
        """
        group = self.group
        _require_element(group, c, "sender setup element")
        keys = []
        self._secrets = []
        for choice in self.choices:
            k = group.random_exponent(self._rng)
            self._secrets.append(k)
            if choice == 0:
                keys.append(group.power(group.generator, k))
            else:
                keys.append(group.mul(c, group.power(group.generator, group.prime - 1 - k)))
        return keys

    def recover(
        self, g_r: int, ciphertexts: Sequence[Tuple[bytes, bytes]]
    ) -> List[bytes]:
        """Decrypt the chosen message of each transfer under the batch's
        one ``g^r``."""
        if len(ciphertexts) != len(self.choices):
            raise OTError("response count mismatch")
        group = self.group
        _require_element(group, g_r, "sender response element")
        out = []
        for index, (choice, k, (e0, e1)) in enumerate(
            zip(self.choices, self._secrets, ciphertexts)
        ):
            cipher = e1 if choice else e0
            key = _kdf_group_element(group.power(g_r, k), index, len(cipher))
            out.append(_xor_bytes(cipher, key))
        return out


# The base OT is three flights and four steps, two per role.  Each step
# below turns the flight it reads into the flight it sends, so a
# session's direct base OT, an IKNP set-up between two processes and one
# with both parties here are the same text: base_ot_over_channel frames
# the flights on whichever ends this process holds, base_ot_in_process
# hands them straight across.  Group elements travel fixed-width (the
# modulus width), so payload sizes are deterministic and truncation is
# structurally detectable on top of a link's checksum.


def _element_width(group: OTGroup) -> int:
    return (group.prime.bit_length() + 7) // 8


def _sized(blob: bytes, size: int, what: str) -> bytes:
    if len(blob) != size:
        raise ChannelIntegrityError(
            f"OT {what} size mismatch: expected {size} bytes, got {len(blob)}"
        )
    return blob


def _setup_flight(sender: OTSender) -> bytes:
    """Sender, flight 1: ``c``."""
    return sender.setup().to_bytes(_element_width(sender.group), "little")


def _keys_flight(receiver: OTReceiver, c_blob: bytes) -> bytes:
    """Receiver, flight 2: one ``PK_0`` per transfer against ``c``."""
    width = _element_width(receiver.group)
    c = int.from_bytes(_sized(c_blob, width, "setup element"), "little")
    return b"".join(k.to_bytes(width, "little") for k in receiver.public_keys(c))


def _response_flight(sender: OTSender, keys_blob: bytes) -> bytes:
    """Sender, flight 3: ``g^r`` once and both encrypted messages of every
    transfer."""
    width, m = _element_width(sender.group), len(sender.pairs)
    _sized(keys_blob, width * m, f"public-key payload for {m} transfers")
    g_r, ciphertexts = sender.respond(
        [
            int.from_bytes(keys_blob[i * width : (i + 1) * width], "little")
            for i in range(m)
        ]
    )
    return g_r.to_bytes(width, "little") + b"".join(e0 + e1 for e0, e1 in ciphertexts)


def _chosen(receiver: OTReceiver, blob: bytes, msg_len: int) -> List[bytes]:
    """Receiver: the chosen message of every transfer."""
    width, m = _element_width(receiver.group), len(receiver.choices)
    unit = 2 * msg_len
    _sized(blob, width + unit * m, f"response payload for {m} transfers")
    return receiver.recover(
        int.from_bytes(blob[:width], "little"),
        [
            (
                blob[width + i * unit : width + i * unit + msg_len],
                blob[width + i * unit + msg_len : width + (i + 1) * unit],
            )
            for i in range(m)
        ],
    )


def base_ot_bytes(group: OTGroup, m: int, msg_len: int) -> int:
    """What a channel charges for the three flights of ``m`` framed base
    OTs of ``msg_len``-byte messages: ``c``, the public keys, and ``g^r``
    with the ciphertexts, each payload plus its 4-byte length prefix."""
    width = _element_width(group)
    return (width + 4) + (m * width + 4) + (width + 2 * m * msg_len + 4)


def base_ot_over_channel(
    pairs: Optional[Sequence[Tuple[bytes, bytes]]],
    choices: Optional[Sequence[int]],
    msg_len: int,
    sender_end: Optional[Channel],
    receiver_end: Optional[Channel],
    group: OTGroup = MODP_2048,
    rng: RngLike = secrets,
    tag: str = "ot",
) -> List[bytes]:
    """Run a base-OT batch with every flight framed, on the ends held here.

    A party whose endpoint is ``None`` is hosted elsewhere: its steps are
    skipped and what it would hold (``pairs`` for the sender, ``choices``
    for the receiver) is not read.  Returns the chosen messages where
    the receiver is hosted, ``[]`` otherwise.
    """
    # a role object draws nothing until its first step: the absent
    # party's is an empty shell no step below touches
    sender = OTSender(pairs or (), group=group, rng=rng)
    receiver = OTReceiver(choices or (), group=group, rng=rng)
    if sender_end is not None:
        sender_end.send_bytes(_setup_flight(sender), tag=tag)
    if receiver_end is not None:
        c_blob = receiver_end.recv_bytes(expected_tag=tag)
        receiver_end.send_bytes(_keys_flight(receiver, c_blob), tag=tag)
    if sender_end is not None:
        keys_blob = sender_end.recv_bytes(expected_tag=tag)
        sender_end.send_bytes(_response_flight(sender, keys_blob), tag=tag)
    if receiver_end is None:
        return []
    return _chosen(receiver, receiver_end.recv_bytes(expected_tag=tag), msg_len)


def base_ot_in_process(
    pairs: Sequence[Tuple[bytes, bytes]],
    choices: Sequence[int],
    msg_len: int,
    group: OTGroup = MODP_2048,
    rng: RngLike = secrets,
) -> List[bytes]:
    """Both parties of a base-OT batch in this process: the steps and rng
    draws of :func:`base_ot_over_channel` with both ends here, each flight
    handed across instead of framed on a link (nothing crosses one, so
    nothing is charged)."""
    sender = OTSender(pairs, group=group, rng=rng)
    receiver = OTReceiver(choices, group=group, rng=rng)
    keys_blob = _keys_flight(receiver, _setup_flight(sender))
    return _chosen(receiver, _response_flight(sender, keys_blob), msg_len)
