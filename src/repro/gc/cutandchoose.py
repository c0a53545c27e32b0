"""Cut-and-choose garbling verification (beyond-HbC extension).

The paper notes its solution "can be readily modified to support
malicious models by following [cut-and-choose et al.]" (Sec. 2.4).  This
module implements the covert flavor of Goyal-Mohassel-Smith (EUROCRYPT
2008): the garbler produces ``k`` independent garblings of the circuit,
each from its own seed, and commits to each copy with one 32-byte
digest (:meth:`GarbledCircuit.digest`, over its tables and constant
labels) before the challenge.  The evaluator opens ``k - 1`` random
copies: the garbler reveals those seeds, and the evaluator *re-garbles
deterministically* and compares digests; the surviving copy's tables
cross in the protocol round, where the evaluator hashes what arrived
against its digest before evaluating.  A garbler who cheats in ``c``
copies is caught unless the single unopened copy is exactly the
corrupted one — detection probability ``1 - 1/k`` for a single
corrupted copy.

The digest binds by collision resistance: an opened seed that
re-garbles to the committed digest re-garbles to the committed tables,
so the opened copies' tables never need to cross, and the seeds need no
commitment of their own (a seed is only ever checked through what it
garbles to).

This is the covert-security flavor (one evaluation copy); full malicious
security needs majority evaluation and input-consistency gadgets, which
the paper also only cites.  Deterministic garbling from a seed is what
makes opening checkable; the seed feeds an :class:`repro.gc.rng.XofStream`,
so the surviving copy's labels say nothing of its seed's other draws.
"""

from __future__ import annotations

import dataclasses
import secrets
from typing import List, Optional, Sequence

from ..circuits.netlist import Circuit
from ..errors import GarblingError
from .cipher import HashKDF, default_kdf
from .fastgarble import garble_many
from .garble import GarbledCircuit, Garbler
from .rng import RngLike, XofStream, rand_bits

__all__ = ["OpenedCopy", "CutAndChooseGarbler", "verify_opened_copy"]


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
        """One digest per copy, of its tables and constant labels, sent
        before the challenge."""
        return [garbled.digest() for garbled in self.garbled]

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
    kdf: Optional[HashKDF] = None,
) -> bool:
    """Evaluator-side check of every opened copy, in one batch.

    ``commitments`` are the opened copies' digests, in the order of
    ``openings``.  Re-garbles all the revealed seeds deterministically in
    one :func:`repro.gc.fastgarble.garble_many` call; every copy's
    re-garbling must hash to the digest committed for it.  Returns False
    on any mismatch (a cheating garbler).
    """
    if len(openings) != len(commitments):
        raise GarblingError("one commitment per opening")
    regarbled = garble_many(
        circuit, kdf=kdf or default_kdf(),
        rngs=[XofStream(o.seed) for o in openings],
    )
    return all(
        garbled.digest() == committed
        for (_, garbled), committed in zip(regarbled, commitments)
    )
