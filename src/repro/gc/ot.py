"""1-out-of-2 Oblivious Transfer (honest-but-curious).

Bellare-Micali style OT over a Schnorr-type multiplicative group: the
receiver proves nothing, but cannot know the discrete log of both public
keys, so the sender's unchosen message stays hidden; the sender never
sees the choice bit.  This is the standard HbC base OT the paper's flow
relies on for the evaluator's input labels (Sec. 2.2.1 / 3.1).

Group: RFC 3526 MODP-2048 with generator 2 by default.  A smaller
512-bit group (still a safe prime) is provided for fast unit tests —
never for anything but tests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import secrets
from typing import List, Sequence, Tuple

from ..errors import OTError
from .rng import RngLike, rand_below

__all__ = ["OTGroup", "MODP_2048", "TEST_GROUP_512", "OTSender", "OTReceiver", "run_ot_batch"]


@dataclasses.dataclass(frozen=True)
class OTGroup:
    """A prime-order-ish multiplicative group for the base OT."""

    prime: int
    generator: int
    name: str = "modp"

    def random_exponent(self, rng: RngLike = secrets) -> int:
        """Uniform exponent in [1, p-2]."""
        return rand_below(rng, self.prime - 2) + 1

    def power(self, base: int, exponent: int) -> int:
        """Modular exponentiation in the group."""
        return pow(base, exponent, self.prime)

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

# Small well-known prime (2^255 - 19) for *unit tests only*: modexp is
# ~20x faster than MODP-2048.  Protocol correctness, not security margin,
# is what the tests exercise.
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

    def respond(self, public_keys: Sequence[int]) -> List[Tuple[int, bytes, bytes]]:
        """Encrypt both messages of each pair against the receiver's keys.

        Returns ``(g^r, E0, E1)`` per transfer.
        """
        if len(public_keys) != len(self.pairs):
            raise OTError("one public key per message pair required")
        group = self.group
        responses = []
        for index, (pk0, (m0, m1)) in enumerate(zip(public_keys, self.pairs)):
            if not 1 < pk0 < group.prime - 1:
                raise OTError("bad receiver public key")
            pk1 = group.mul(self._c, group.inverse(pk0))
            r = group.random_exponent(self._rng)
            g_r = group.power(group.generator, r)
            key0 = _kdf_group_element(group.power(pk0, r), index, len(m0))
            key1 = _kdf_group_element(group.power(pk1, r), index, len(m1))
            responses.append((g_r, _xor_bytes(m0, key0), _xor_bytes(m1, key1)))
        return responses


class OTReceiver:
    """Receiver side: learns exactly one message per pair."""

    def __init__(
        self,
        choices: Sequence[int],
        group: OTGroup = MODP_2048,
        rng: RngLike = secrets,
    ) -> None:
        self.choices = [c & 1 for c in choices]
        self.group = group
        self._rng = rng
        self._secrets: List[int] = []

    def public_keys(self, c: int) -> List[int]:
        """Derive one public key per choice from the sender's ``c``.

        ``PK_choice = g^k`` and ``PK_(1-choice) = c / PK_choice``; only
        ``PK_0`` is transmitted.
        """
        group = self.group
        keys = []
        self._secrets = []
        for choice in self.choices:
            k = group.random_exponent(self._rng)
            self._secrets.append(k)
            pk_choice = group.power(group.generator, k)
            if choice == 0:
                keys.append(pk_choice)
            else:
                keys.append(group.mul(c, group.inverse(pk_choice)))
        return keys

    def recover(
        self, responses: Sequence[Tuple[int, bytes, bytes]]
    ) -> List[bytes]:
        """Decrypt the chosen message of each transfer."""
        if len(responses) != len(self.choices):
            raise OTError("response count mismatch")
        group = self.group
        out = []
        for index, (choice, k, (g_r, e0, e1)) in enumerate(
            zip(self.choices, self._secrets, responses)
        ):
            cipher = e1 if choice else e0
            key = _kdf_group_element(group.power(g_r, k), index, len(cipher))
            out.append(_xor_bytes(cipher, key))
        return out


def run_ot_batch(
    pairs: Sequence[Tuple[bytes, bytes]],
    choices: Sequence[int],
    group: OTGroup = MODP_2048,
    rng: RngLike = secrets,
) -> List[bytes]:
    """Run the whole OT locally (both roles); used by tests and the
    in-process protocol driver."""
    if len(pairs) != len(choices):
        raise OTError("need one choice per pair")
    sender = OTSender(pairs, group=group, rng=rng)
    receiver = OTReceiver(choices, group=group, rng=rng)
    c = sender.setup()
    keys = receiver.public_keys(c)
    responses = sender.respond(keys)
    return receiver.recover(responses)
