"""Evaluation metrics."""

from __future__ import annotations

import numpy as np

__all__ = ["accuracy"]


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of correct predictions."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError("prediction/label shape mismatch")
    if predictions.size == 0:
        return 0.0
    return float((predictions == labels).mean())


