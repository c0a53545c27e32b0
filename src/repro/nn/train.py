"""Training loop with the validation-error hook of Algorithm 1.

The paper's pre-processing retrains the server's model while streaming
projected data (Alg. 1 lines 32-35: ``UpdateDL`` then
``UpdateValidationError``); :class:`Trainer` provides exactly those two
operations plus a conventional epoch loop with early stopping.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional

import numpy as np

from ..errors import TrainingError
from .losses import softmax_cross_entropy
from .metrics import accuracy
from .model import Sequential
from .optimizers import SGD

__all__ = ["TrainConfig", "TrainHistory", "Trainer"]


@dataclasses.dataclass
class TrainConfig:
    """Hyper-parameters for :class:`Trainer`."""

    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 0.1
    momentum: float = 0.9
    patience: Optional[int] = None  # early stopping on validation error
    shuffle: bool = True
    seed: int = 0
    verbose: bool = False


@dataclasses.dataclass
class TrainHistory:
    """Per-epoch records."""

    loss: List[float] = dataclasses.field(default_factory=list)
    train_error: List[float] = dataclasses.field(default_factory=list)
    val_error: List[float] = dataclasses.field(default_factory=list)


class Trainer:
    """Minibatch SGD trainer for :class:`Sequential` models."""

    def __init__(
        self,
        model: Sequential,
        config: Optional[TrainConfig] = None,
        optimizer=None,
        loss: Callable = softmax_cross_entropy,
    ) -> None:
        self.model = model
        self.config = config or TrainConfig()
        self.optimizer = optimizer or SGD(
            learning_rate=self.config.learning_rate,
            momentum=self.config.momentum,
        )
        self.loss = loss

    # -- Algorithm 1 hooks ---------------------------------------------------

    def update_dl(self, x_batch: np.ndarray, y_batch: np.ndarray) -> float:
        """One forward/backward/step on a batch (Alg. 1 ``UpdateDL``)."""
        logits = self.model.forward(x_batch, training=True)
        loss, grad = self.loss(logits, y_batch)
        self.model.backward(grad)
        self.optimizer.step(self.model.parameters(), self.model.gradients())
        return loss

    def update_validation_error(
        self, x_val: np.ndarray, y_val: np.ndarray
    ) -> float:
        """Validation error delta (Alg. 1 ``UpdateValidationError``)."""
        return 1.0 - accuracy(self.model.predict(x_val), y_val)

    # -- epoch loop --------------------------------------------------------------

    def fit(
        self,
        x_train: np.ndarray,
        y_train: np.ndarray,
        x_val: Optional[np.ndarray] = None,
        y_val: Optional[np.ndarray] = None,
    ) -> TrainHistory:
        """Standard epoch training with optional early stopping.

        Returns:
            The epoch-level history; the model holds the final weights.
        """
        cfg = self.config
        if len(x_train) != len(y_train):
            raise TrainingError("x/y length mismatch")
        rng = np.random.default_rng(cfg.seed)
        history = TrainHistory()
        best_val = np.inf
        stall = 0
        for epoch in range(cfg.epochs):
            order = (
                rng.permutation(len(x_train))
                if cfg.shuffle
                else np.arange(len(x_train))
            )
            epoch_loss = 0.0
            batches = 0
            for start in range(0, len(x_train), cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                epoch_loss += self.update_dl(x_train[idx], y_train[idx])
                batches += 1
            history.loss.append(epoch_loss / max(batches, 1))
            history.train_error.append(
                1.0 - accuracy(self.model.predict(x_train), y_train)
            )
            if x_val is not None:
                val_err = self.update_validation_error(x_val, y_val)
                history.val_error.append(val_err)
                if cfg.patience is not None:
                    if val_err < best_val - 1e-9:
                        best_val = val_err
                        stall = 0
                    else:
                        stall += 1
                        if stall > cfg.patience:
                            break
            if cfg.verbose:  # pragma: no cover - console helper
                val = history.val_error[-1] if history.val_error else float("nan")
                print(
                    f"epoch {epoch}: loss={history.loss[-1]:.4f} "
                    f"train_err={history.train_error[-1]:.4f} val_err={val:.4f}"
                )
        return history
