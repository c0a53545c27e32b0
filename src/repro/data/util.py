"""Dataset utilities: train / validation / test splits."""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["train_val_test_split"]


def train_val_test_split(
    x: np.ndarray,
    y: np.ndarray,
    val_fraction: float = 0.15,
    test_fraction: float = 0.15,
    seed: int = 0,
) -> Tuple[np.ndarray, ...]:
    """Shuffled three-way split.

    Returns:
        ``(x_train, y_train, x_val, y_val, x_test, y_test)``.
    """
    if len(x) != len(y):
        raise ValueError("x/y length mismatch")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(x))
    x, y = x[order], y[order]
    n_test = int(len(x) * test_fraction)
    n_val = int(len(x) * val_fraction)
    n_train = len(x) - n_val - n_test
    return (
        x[:n_train],
        y[:n_train],
        x[n_train : n_train + n_val],
        y[n_train : n_train + n_val],
        x[n_train + n_val :],
        y[n_train + n_val :],
    )


