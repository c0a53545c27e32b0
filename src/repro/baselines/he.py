"""Simulated leveled homomorphic encryption (the CryptoNets substrate).

CryptoNets [8] runs on YASHE', a leveled HE scheme with SIMD batching:
a ciphertext packs up to ``poly_degree`` plaintext slots (8192 samples
evaluated at once), every homomorphic operation adds *noise*, and once
the noise budget is exhausted decryption fails.  The real scheme is
closed-source and parameter-heavy; this simulator reproduces the three
properties the paper's comparison rests on:

* **batching semantics** — one dense operation acts on all slots, so
  per-batch latency is flat up to 8192 samples (Fig. 6's step);
* **noise growth** — plaintext multiplies add ``log2(t) + log2(fan_in)``
  bits, ciphertext-ciphertext multiplies (the square activation) are far
  more expensive; exceeding the budget corrupts the decryption, which is
  the privacy/utility trade-off DeepSecure criticizes (limitation (i));
* **cost model** — per-operation latencies calibrated so a full
  benchmark-1 batch matches the published 570.11 s.

Values are held in plaintext internally (this is a *simulator*, not a
cryptosystem); the noise accounting is the model.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from ..errors import ReproError

__all__ = ["HEParams", "HECiphertext", "HEContext"]


@dataclasses.dataclass(frozen=True)
class HEParams:
    """Leveled-HE parameter set.

    Attributes:
        poly_degree: ring dimension = SIMD slot count (CryptoNets: 8192).
        plain_modulus_bits: plaintext modulus size; larger moduli hold
            bigger intermediate values but burn noise faster.
        initial_noise_bits: noise budget granted at encryption, a
            stand-in for ``log2(q / t)``.
        relinearize_cost_bits: extra noise per ciphertext-ciphertext
            multiply.
    """

    poly_degree: int = 8192
    plain_modulus_bits: int = 47
    initial_noise_bits: float = 180.0
    relinearize_cost_bits: float = 25.0

    @property
    def plain_modulus(self) -> int:
        """The plaintext modulus ``t``."""
        return (1 << self.plain_modulus_bits) - 1


@dataclasses.dataclass
class HECiphertext:
    """A batched ciphertext: slot values plus remaining noise budget."""

    slots: np.ndarray  # int64 values mod t (centered representation)
    noise_budget_bits: float
    level: int = 0

    @property
    def is_decryptable(self) -> bool:
        """True while the noise budget is positive."""
        return self.noise_budget_bits > 0.0


class HEContext:
    """Operation layer with noise accounting and op counters."""

    def __init__(self, params: Optional[HEParams] = None) -> None:
        self.params = params or HEParams()
        self.op_counts = {"encrypt": 0, "add": 0, "mul_plain": 0, "mul_ct": 0, "decrypt": 0}

    # -- helpers -----------------------------------------------------------

    def _center(self, values: np.ndarray) -> np.ndarray:
        t = self.params.plain_modulus
        reduced = np.mod(values, t)
        return np.where(reduced > t // 2, reduced - t, reduced)

    # -- operations ------------------------------------------------------------

    def encrypt(self, values: np.ndarray) -> HECiphertext:
        """Encrypt up to ``poly_degree`` integer slots."""
        values = np.asarray(values, dtype=np.int64)
        if values.size > self.params.poly_degree:
            raise ReproError(
                f"batch of {values.size} exceeds {self.params.poly_degree} slots"
            )
        padded = np.zeros(self.params.poly_degree, dtype=np.int64)
        padded[: values.size] = values
        self.op_counts["encrypt"] += 1
        return HECiphertext(
            slots=self._center(padded),
            noise_budget_bits=self.params.initial_noise_bits,
        )

    def add(self, a: HECiphertext, b: HECiphertext) -> HECiphertext:
        """Slot-wise addition (noise: max + 1 bit)."""
        self.op_counts["add"] += 1
        return HECiphertext(
            slots=self._center(a.slots + b.slots),
            noise_budget_bits=min(a.noise_budget_bits, b.noise_budget_bits) - 1.0,
            level=max(a.level, b.level),
        )

    def add_plain(self, a: HECiphertext, values: np.ndarray) -> HECiphertext:
        """Add a plaintext vector (broadcast scalar allowed) to every slot."""
        self.op_counts["add"] += 1
        return HECiphertext(
            slots=self._center(a.slots + np.asarray(values, dtype=np.int64)),
            noise_budget_bits=a.noise_budget_bits - 1.0,
            level=a.level,
        )

    def multiply_plain(self, a: HECiphertext, scalar: int) -> HECiphertext:
        """Multiply every slot by a plaintext integer.

        Noise cost grows with the scalar's magnitude — why CryptoNets is
        restricted to 5-10 bit weights (paper Sec. 5).
        """
        self.op_counts["mul_plain"] += 1
        bits = max(1.0, math.log2(abs(scalar) + 1))
        return HECiphertext(
            slots=self._center(a.slots * int(scalar)),
            noise_budget_bits=a.noise_budget_bits - bits,
            level=a.level,
        )

    def multiply(self, a: HECiphertext, b: HECiphertext) -> HECiphertext:
        """Ciphertext-ciphertext multiply (the square activation)."""
        self.op_counts["mul_ct"] += 1
        cost = (
            self.params.plain_modulus_bits / 2.0
            + self.params.relinearize_cost_bits
        )
        return HECiphertext(
            slots=self._center(a.slots * b.slots),
            noise_budget_bits=min(a.noise_budget_bits, b.noise_budget_bits) - cost,
            level=max(a.level, b.level) + 1,
        )

    def decrypt(self, a: HECiphertext, n_slots: Optional[int] = None) -> np.ndarray:
        """Decrypt; corrupted (uniform) output when the budget is gone.

        The corruption-on-overflow behaviour (rather than an exception)
        models the silent accuracy loss of an under-parameterized HE
        deployment; callers can check :attr:`HECiphertext.is_decryptable`.
        """
        self.op_counts["decrypt"] += 1
        count = n_slots or self.params.poly_degree
        if not a.is_decryptable:
            rng = np.random.default_rng(int(abs(a.noise_budget_bits) * 1e3) + 1)
            t = self.params.plain_modulus
            return rng.integers(-(t // 2), t // 2, size=count, dtype=np.int64)
        return a.slots[:count].copy()
