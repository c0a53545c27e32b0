"""Loss functions for training the DL substrate."""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["softmax", "softmax_cross_entropy"]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Cross-entropy with integrated softmax.

    Args:
        logits: (batch, classes) raw scores.
        labels: (batch,) integer class ids.

    Returns:
        (mean loss, gradient w.r.t. logits).
    """
    batch = logits.shape[0]
    probs = softmax(logits)
    picked = probs[np.arange(batch), labels]
    loss = float(-np.log(np.clip(picked, 1e-12, None)).mean())
    grad = probs.copy()
    grad[np.arange(batch), labels] -= 1.0
    return loss, grad / batch


