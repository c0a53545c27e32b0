"""DL network pruning pre-processing (paper Sec. 3.2.2).

Connections with weight magnitude below a threshold are removed and the
condensed network retrained to recover accuracy (the Han et al. recipe
the paper cites).  The resulting *sparsity map* is public — it changes
the netlist (which MACs exist) but reveals nothing about the surviving
weight values (paper's security argument (ii) in Sec. 3.7).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import numpy as np

from ..errors import PreprocessError
from ..nn.layers import Conv2D, Dense
from ..nn.model import Sequential
from ..nn.train import TrainConfig, Trainer

__all__ = ["PruneReport", "magnitude_threshold", "prune_model"]


@dataclasses.dataclass
class PruneReport:
    """Outcome of one prune(+retrain) run.

    Attributes:
        per_layer_sparsity: fraction of weights removed per prunable layer.
        macs_before / macs_after: per-sample MAC counts (the GC cost
            driver, Table 2).
        accuracy_before / accuracy_after: validation accuracy around the
            prune+retrain cycle.
    """

    per_layer_sparsity: List[float]
    macs_before: int
    macs_after: int
    accuracy_before: float
    accuracy_after: float


def magnitude_threshold(weights: np.ndarray, sparsity: float) -> float:
    """Weight-magnitude quantile achieving the requested sparsity."""
    if not 0.0 <= sparsity < 1.0:
        raise PreprocessError("sparsity must be in [0, 1)")
    if sparsity == 0.0:
        return 0.0
    return float(np.quantile(np.abs(weights), sparsity))


def prune_model(
    model: Sequential,
    sparsity: float,
    x_train: Optional[np.ndarray] = None,
    y_train: Optional[np.ndarray] = None,
    x_val: Optional[np.ndarray] = None,
    y_val: Optional[np.ndarray] = None,
    retrain_config: Optional[TrainConfig] = None,
    per_layer: Optional[List[float]] = None,
) -> PruneReport:
    """Magnitude-prune (in place) and optionally retrain.

    Args:
        model: trained model; masks are installed on its Dense/Conv2D
            layers.
        sparsity: global fraction of weights to remove (per layer).
        x_train, y_train: retraining data (skip retraining when omitted).
        x_val, y_val: validation set for the before/after accuracies.
        retrain_config: retraining hyper-parameters.
        per_layer: per-prunable-layer sparsity overriding ``sparsity``
            (the paper prunes large layers harder).

    Returns:
        :class:`PruneReport`.
    """
    prunable = [
        layer for layer in model.layers if isinstance(layer, (Dense, Conv2D))
    ]
    if per_layer is not None and len(per_layer) != len(prunable):
        raise PreprocessError("per_layer length must match prunable layers")
    macs_before = model.nonzero_mac_count()
    accuracy_before = _accuracy(model, x_val, y_val)
    sparsities = per_layer or [sparsity] * len(prunable)
    achieved: List[float] = []
    for layer, target in zip(prunable, sparsities):
        threshold = magnitude_threshold(layer.weights, target)
        mask = (np.abs(layer.weights) > threshold).astype(float)
        # never prune a whole output unit away: keep the strongest weight
        _protect_outputs(layer, mask)
        layer.mask = mask
        layer.weights *= mask
        achieved.append(1.0 - float(mask.mean()))
    if x_train is not None and y_train is not None:
        config = retrain_config or TrainConfig(epochs=3, learning_rate=0.02)
        Trainer(model, config).fit(x_train, y_train, x_val, y_val)
    accuracy_after = _accuracy(model, x_val, y_val)
    return PruneReport(
        per_layer_sparsity=achieved,
        macs_before=macs_before,
        macs_after=model.nonzero_mac_count(),
        accuracy_before=accuracy_before,
        accuracy_after=accuracy_after,
    )


def _protect_outputs(layer, mask: np.ndarray) -> None:
    """Ensure every output unit keeps at least one incoming weight."""
    if isinstance(layer, Dense):
        dead = np.where(mask.sum(axis=0) == 0)[0]
        for unit in dead:
            best = int(np.abs(layer.weights[:, unit]).argmax())
            mask[best, unit] = 1.0
    else:  # Conv2D: (k, k, cin, cout)
        flat = mask.reshape(-1, mask.shape[-1])
        weights = layer.weights.reshape(-1, mask.shape[-1])
        dead = np.where(flat.sum(axis=0) == 0)[0]
        for unit in dead:
            best = int(np.abs(weights[:, unit]).argmax())
            flat[best, unit] = 1.0


def _accuracy(model, x_val, y_val) -> float:
    if x_val is None or y_val is None:
        return float("nan")
    return float((model.predict(x_val) == y_val).mean())
