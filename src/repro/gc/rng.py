"""RNG adapter: accept both ``secrets`` and seeded ``random.Random``.

Production code passes ``secrets`` (CSPRNG); tests pass a seeded
``random.Random`` for reproducibility.  The two expose slightly
different method names, hence this shim.  L002 (rng-discipline) bans
module-global RNG state inside gc//circuits/, so every draw in the
garbling boundary flows through these adapters on an *injected* object.

Where a seed must regenerate key material — cut-and-choose garbles each
copy from a seed it may later open — the stream is :class:`XofStream`,
not ``random.Random``: Mersenne Twister's output is linear in its state,
so labels seen under it give away the labels not seen.
"""

from __future__ import annotations

import hashlib
from typing import Any

__all__ = ["RngLike", "XofStream", "rand_bits", "rand_below"]

#: An injected randomness source: the ``secrets`` module, a seeded
#: ``random.Random``, or anything exposing ``randbits``/``getrandbits``
#: and ``randbelow``/``randrange``.  Kept as ``Any`` because the two
#: standard sources share no protocol type.
RngLike = Any


def rand_bits(rng: RngLike, bits: int) -> int:
    """Uniform integer with ``bits`` random bits."""
    fn = getattr(rng, "randbits", None)
    if fn is None:
        fn = rng.getrandbits
    return fn(bits)


def rand_below(rng: RngLike, bound: int) -> int:
    """Uniform integer in ``[0, bound)``."""
    fn = getattr(rng, "randbelow", None)
    if fn is None:
        return rng.randrange(bound)
    return fn(bound)


class XofStream:
    """A deterministic stream of random bytes from one 128-bit seed.

    Block ``j`` of the stream is SHAKE-256 over ``seed || j`` (16 then 8
    little-endian bytes), :attr:`BLOCK_BYTES` long, and the blocks are
    read in order: every block hashes a fresh input, so what one part
    of the stream shows says nothing about another, and no state
    outlives the seed.  The seed replays the stream byte for byte.

    ``getrandbits(k)`` (what :func:`rand_bits` calls) reads the next
    ``ceil(k / 8)`` bytes as a little-endian integer and keeps its low
    ``k`` bits.  So one draw of ``128 * n`` bits is ``n`` draws of 128
    concatenated, as with ``random.Random``: the engine's one-call label
    draw and the gate-at-a-time store's per-wire draws agree.
    """

    BLOCK_BYTES = 4096

    def __init__(self, seed: int) -> None:
        self._seed = seed.to_bytes(16, "little")
        self._blocks = 0
        self._pending = bytearray()

    def getrandbits(self, bits: int) -> int:
        """The next ``bits`` bits of the stream, as an integer."""
        width = (bits + 7) // 8
        while len(self._pending) < width:
            self._pending += hashlib.shake_256(
                self._seed + self._blocks.to_bytes(8, "little")
            ).digest(self.BLOCK_BYTES)
            self._blocks += 1
        value = int.from_bytes(self._pending[:width], "little")
        del self._pending[:width]
        return value & ((1 << bits) - 1)
