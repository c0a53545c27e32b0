"""Baselines the paper compares against (CryptoNets on simulated HE)."""

from .cryptonets import CryptoNetsCostModel, CryptoNetsInference, Square
from .he import HECiphertext, HEContext, HEParams

__all__ = [
    "Square",
    "CryptoNetsInference",
    "CryptoNetsCostModel",
    "HEParams",
    "HEContext",
    "HECiphertext",
]
