"""Wire-label algebra for free-XOR garbling.

Labels are 128-bit integers.  The garbler draws one global ``delta`` with
least-significant bit 1 (the point-and-permute bit), and every wire ``w``
gets a zero-label ``L0_w``; its one-label is ``L0_w ^ delta``.  Free-XOR
then makes ``L0_c = L0_a ^ L0_b`` a correct garbling of XOR with no
tables, and the LSB of any label a valid permute bit.
"""

from __future__ import annotations

import secrets
from typing import Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from ..errors import GarblingError
from .cipher import LABEL_MASK
from .rng import RngLike, rand_bits

__all__ = [
    "random_label",
    "random_delta",
    "permute_bit",
    "label_rows",
    "LabelStore",
    "ArrayLabelStore",
    "LabelsLike",
]


def random_label(rng: RngLike = secrets) -> int:
    """A fresh uniformly random 128-bit label."""
    return rand_bits(rng, 128)


def random_delta(rng: RngLike = secrets) -> int:
    """The global free-XOR offset; LSB forced to 1 for point-and-permute."""
    return rand_bits(rng, 128) | 1


def permute_bit(label: int) -> int:
    """The public permute (color) bit of a label."""
    return label & 1


class LabelStore:
    """Zero-labels per wire on the garbler side.

    Provides the free-XOR algebra and the select/decode operations; the
    delta never leaves this object.
    """

    def __init__(self, delta: Optional[int] = None, rng: RngLike = secrets) -> None:
        self.delta = delta if delta is not None else random_delta(rng)
        if not self.delta & 1:
            raise GarblingError("delta must have LSB 1 (point-and-permute)")
        self._zero: Dict[int, int] = {}
        self._rng = rng

    def assign_fresh(self, wire: int) -> int:
        """Draw and store a fresh zero-label for ``wire``."""
        label = random_label(self._rng)
        self._zero[wire] = label
        return label

    def set_zero(self, wire: int, label: int) -> None:
        """Store a caller-provided zero-label (sequential state carry)."""
        self._zero[wire] = label & LABEL_MASK

    def zero(self, wire: int) -> int:
        """Zero-label of ``wire``."""
        try:
            return self._zero[wire]
        except KeyError:
            raise GarblingError(f"wire {wire} has no label yet") from None

    def one(self, wire: int) -> int:
        """One-label of ``wire`` (zero-label XOR delta)."""
        return self.zero(wire) ^ self.delta

    def select(self, wire: int, bit: int) -> int:
        """Label encoding plaintext ``bit`` on ``wire``."""
        return self.zero(wire) ^ (self.delta if bit & 1 else 0)

    def decode_bit(self, wire: int, label: int) -> int:
        """Recover the plaintext bit from a label of ``wire``.

        Raises:
            GarblingError: if the label is neither of the wire's labels
                (protocol violation / corruption).
        """
        if label == self.zero(wire):
            return 0
        if label == self.one(wire):
            return 1
        raise GarblingError(f"label does not belong to wire {wire}")

    def decode_bits(self, wires: Iterable[int], labels: Iterable[int]) -> List[int]:
        """Vector :meth:`decode_bit` in wire order."""
        return [self.decode_bit(w, l) for w, l in zip(wires, labels)]

    def output_decode_map(self, wires: Iterable[int]) -> List[int]:
        """Point-and-permute decode bits (LSB of each zero-label)."""
        return [self.zero(w) & 1 for w in wires]


#: Labels in either form the engine takes: 128-bit ints, or ``(n, 16)``
#: little-endian uint8 rows.
LabelsLike = Union[Sequence[int], np.ndarray]


def _label_row(label: int) -> np.ndarray:
    """One 128-bit label as a 16-byte little-endian uint8 row."""
    return np.frombuffer(label.to_bytes(16, "little"), dtype=np.uint8)


def label_rows(labels: LabelsLike) -> np.ndarray:
    """``labels`` as ``(n, 16)`` uint8 rows: ints in one conversion, rows
    as they are."""
    if isinstance(labels, np.ndarray):
        return labels
    return np.frombuffer(
        b"".join(label.to_bytes(16, "little") for label in labels), dtype=np.uint8
    ).reshape(-1, 16)


class ArrayLabelStore:
    """Zero-labels for every wire as one ``(n_wires + 1, 16)`` uint8 plane.

    The vectorized garbling engine's label storage: row ``w`` holds wire
    ``w``'s zero-label in little-endian byte order (so byte 0 bit 0 is
    the point-and-permute bit, matching ``label & 1`` on the int form).
    The extra final row is a scratch all-zero label that unary free
    gates read as their second operand — it is never written.

    The per-wire API mirrors :class:`LabelStore` exactly (``zero`` /
    ``one`` / ``select`` / ``decode_bit`` / ...), so a
    :class:`repro.gc.garble.Garbler` holding either store behaves
    identically; labels drawn through :meth:`assign_fresh` consume the
    rng stream in the same order and produce the same values as the
    scalar store.
    """

    def __init__(
        self,
        n_wires: int,
        delta: Optional[int] = None,
        rng: RngLike = secrets,
    ) -> None:
        if n_wires < 2:
            raise GarblingError("label plane needs at least the const wires")
        self.delta = delta if delta is not None else random_delta(rng)
        if not self.delta & 1:
            raise GarblingError("delta must have LSB 1 (point-and-permute)")
        self.n_wires = n_wires
        #: (n_wires + 1, 16) uint8; the final row is the scratch zero row
        self.plane = np.zeros((n_wires + 1, 16), dtype=np.uint8)
        #: (16,) uint8 broadcast form of the global delta
        self.delta_row = _label_row(self.delta).copy()
        self._defined = np.zeros(n_wires + 1, dtype=bool)
        self._rng = rng

    # -- LabelStore-compatible per-wire API ------------------------------

    def assign_fresh(self, wire: int) -> int:
        """Draw and store a fresh zero-label for ``wire``."""
        label = random_label(self._rng)
        self.set_zero(wire, label)
        return label

    def set_zero(self, wire: int, label: int) -> None:
        """Store a caller-provided zero-label (sequential state carry)."""
        if not 0 <= wire < self.n_wires:
            raise GarblingError(f"wire {wire} out of range")
        self.plane[wire] = _label_row(label & LABEL_MASK)
        self._defined[wire] = True

    def zero(self, wire: int) -> int:
        """Zero-label of ``wire``."""
        if not (0 <= wire < self.n_wires and self._defined[wire]):
            raise GarblingError(f"wire {wire} has no label yet")
        return int.from_bytes(self.plane[wire].tobytes(), "little")

    def one(self, wire: int) -> int:
        """One-label of ``wire`` (zero-label XOR delta)."""
        return self.zero(wire) ^ self.delta

    def select(self, wire: int, bit: int) -> int:
        """Label encoding plaintext ``bit`` on ``wire``."""
        return self.zero(wire) ^ (self.delta if bit & 1 else 0)

    def decode_bit(self, wire: int, label: int) -> int:
        """Recover the plaintext bit from a label of ``wire``.

        Raises:
            GarblingError: if the label is neither of the wire's labels.
        """
        if label == self.zero(wire):
            return 0
        if label == self.one(wire):
            return 1
        raise GarblingError(f"label does not belong to wire {wire}")

    def decode_bits(self, wires: Iterable[int], labels: Iterable[int]) -> List[int]:
        """Vector :meth:`decode_bit` in wire order."""
        return [self.decode_bit(w, l) for w, l in zip(wires, labels)]

    def output_decode_map(self, wires: Iterable[int]) -> List[int]:
        """Point-and-permute decode bits (LSB of each zero-label)."""
        return [int(self.plane[w, 0]) & 1 for w in wires]

    # -- array-native extensions -----------------------------------------

    def assign_fresh_rows(self, wires: Union[Sequence[int], np.ndarray]) -> None:
        """Draw fresh zero-labels for ``wires`` in one rng call.

        The ``n`` labels are ``rand_bits(rng, 128 * n)`` read as 16-byte
        little-endian rows.  ``random.Random.getrandbits`` fills a wide
        draw from its least significant 32-bit word up, so for a seeded
        generator this is bit-identical to ``n`` :meth:`assign_fresh`
        calls in wire order — what cut-and-choose's seed re-garbling
        relies on; for ``secrets`` it is one ``urandom`` read, not ``n``.
        """
        n = len(wires)
        data = rand_bits(self._rng, 128 * n).to_bytes(16 * n, "little")
        self.set_zero_rows(wires, np.frombuffer(data, dtype=np.uint8).reshape(n, 16))

    def mark_defined(self, wires: np.ndarray) -> None:
        """Bulk defined-flag update after a vectorized scatter."""
        self._defined[wires] = True

    def zero_rows(self, wires: Union[Sequence[int], np.ndarray]) -> np.ndarray:
        """Zero-label byte rows of ``wires`` as one owned ``(n, 16)`` copy.

        The array form of sequential state carry-over: the folded
        session hands these rows straight to the next cycle's garbling
        instead of round-tripping every register label through Python
        ints.
        """
        idx = np.asarray(wires, dtype=np.intp)
        if idx.size:
            if (idx < 0).any() or (idx >= self.n_wires).any():
                raise GarblingError("zero_rows wire out of range")
            if not self._defined[idx].all():
                raise GarblingError("zero_rows on wires without labels")
        return self.plane[idx].copy()

    def set_zero_rows(
        self, wires: Union[Sequence[int], np.ndarray], rows: np.ndarray
    ) -> None:
        """Store caller-provided zero-label rows (array state carry)."""
        idx = np.asarray(wires, dtype=np.intp)
        if idx.size and not ((0 <= idx).all() and (idx < self.n_wires).all()):
            raise GarblingError("set_zero_rows wire out of range")
        if rows.shape != (idx.size, 16):
            raise GarblingError("label rows must be (n_wires, 16) bytes")
        self.plane[idx] = rows
        self._defined[idx] = True
