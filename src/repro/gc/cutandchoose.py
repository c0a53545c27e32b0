"""Cut-and-choose garbling verification (beyond-HbC extension).

The paper notes its solution "can be readily modified to support
malicious models by following [cut-and-choose et al.]" (Sec. 2.4).  This
module implements the classic ingredient: the garbler produces ``k``
independent garblings of the circuit from committed seeds; the evaluator
opens ``k - 1`` random copies (the garbler reveals those seeds, and the
evaluator *re-garbles deterministically* and compares ciphertexts); the
surviving copy is evaluated.  A garbler who cheats in ``c`` copies is
caught unless the single unopened copy is exactly the corrupted one —
detection probability ``1 - 1/k`` for a single corrupted copy.

This is the covert-security flavor (one evaluation copy); full malicious
security needs majority evaluation and input-consistency gadgets, which
the paper also only cites.  Deterministic garbling from a seed is what
makes opening checkable; the seed feeds an :class:`repro.gc.rng.XofStream`,
so the surviving copy's labels say nothing of its seed's other draws.
"""

from __future__ import annotations

import dataclasses
import hashlib
import secrets
from typing import List, Optional, Sequence

import numpy as np

from ..circuits.netlist import Circuit
from ..errors import GarblingError
from .cipher import HashKDF, default_kdf
from .fastgarble import garble_many
from .garble import GarbledCircuit, Garbler
from .rng import RngLike, XofStream, rand_bits

__all__ = ["OpenedCopy", "CutAndChooseGarbler", "verify_opened_copy"]


def _commit(seed: int) -> bytes:
    """Binding commitment to a garbling seed."""
    return hashlib.sha256(b"seed-commit" + seed.to_bytes(16, "little")).digest()


@dataclasses.dataclass
class OpenedCopy:
    """What the garbler reveals for a challenged copy."""

    index: int
    seed: int


class CutAndChooseGarbler:
    """Garbler side of the cut-and-choose protocol.

    Args:
        circuit: the public netlist.
        copies: number of independent garblings ``k``.
        kdf: garbling oracle.
        rng: seed source (``random.Random`` for reproducible tests).

    All copies are garbled in one :func:`repro.gc.fastgarble.garble_many`
    pass over the level schedule.
    """

    def __init__(
        self,
        circuit: Circuit,
        copies: int = 4,
        kdf: Optional[HashKDF] = None,
        rng: Optional[RngLike] = None,
    ) -> None:
        if copies < 2:
            raise GarblingError("cut-and-choose needs at least 2 copies")
        self.circuit = circuit
        self.kdf = kdf or default_kdf()
        # seeds are key material: the default source is the secrets
        # CSPRNG; tests inject a seeded random.Random explicitly
        rng = rng or secrets
        self.seeds = [rand_bits(rng, 128) for _ in range(copies)]
        pairs = garble_many(
            self.circuit,
            kdf=self.kdf,
            rngs=[XofStream(seed) for seed in self.seeds],
        )
        self.garblers: List[Garbler] = [garbler for garbler, _ in pairs]
        self.garbled: List[GarbledCircuit] = [garbled for _, garbled in pairs]

    @property
    def copies(self) -> int:
        """Number of garbled copies."""
        return len(self.seeds)

    def commitments(self) -> List[bytes]:
        """Seed commitments, sent before the challenge."""
        return [_commit(seed) for seed in self.seeds]

    def tables(self) -> List[np.ndarray]:
        """Every copy's garbled tables, an ``(n, 32)`` uint8 plane each."""
        return [g.tables for g in self.garbled]

    def open(self, challenge: Sequence[int]) -> List[OpenedCopy]:
        """Reveal the seeds of the challenged copies."""
        for index in challenge:
            if not 0 <= index < self.copies:
                raise GarblingError("challenge out of range")
        if len(set(challenge)) >= self.copies:
            raise GarblingError("cannot open every copy")
        return [OpenedCopy(index=i, seed=self.seeds[i]) for i in challenge]

    def evaluation_garbler(self, surviving: int) -> Garbler:
        """The garbler of the unopened copy (for the actual run)."""
        return self.garblers[surviving]


def verify_opened_copy(
    circuit: Circuit,
    openings: Sequence[OpenedCopy],
    commitments: Sequence[bytes],
    claimed_tables: Sequence[np.ndarray],
    kdf: Optional[HashKDF] = None,
) -> bool:
    """Evaluator-side check of every opened copy, in one batch.

    ``commitments`` and ``claimed_tables`` (``(n, 32)`` uint8 planes) are
    the opened copies', in the order of ``openings``.  Re-derives each
    commitment, then re-garbles all the revealed seeds deterministically
    in one :func:`repro.gc.fastgarble.garble_many` call; every copy's claimed
    tables must match ciphertext-for-ciphertext.  Returns False on any
    mismatch (a cheating garbler).
    """
    if not len(openings) == len(commitments) == len(claimed_tables):
        raise GarblingError("one commitment and one table plane per opening")
    if any(_commit(o.seed) != c for o, c in zip(openings, commitments)):
        return False
    regarbled = garble_many(
        circuit, kdf=kdf or default_kdf(),
        rngs=[XofStream(o.seed) for o in openings],
    )
    return all(
        np.array_equal(garbled.tables, claimed)
        for (_, garbled), claimed in zip(regarbled, claimed_tables)
    )
