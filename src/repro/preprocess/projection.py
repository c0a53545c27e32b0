"""Data projection pre-processing (paper Sec. 3.2.1, Algorithms 1 & 2).

The server streams its training data, greedily growing a dictionary
``D`` of (normalized) data columns whose span captures the data within a
projection-error threshold ``gamma``.  The DL model is retrained on the
low-dimensional embeddings, and the *projection matrix*
``W = D (D^T D)^-1 D^T`` is released publicly; Proposition 3.1 shows
``W = U U^T`` reveals only the column space of ``D``.

Dimensionality note (how compaction actually happens): ``W x`` is still
an ``m``-dimensional vector, so feeding it to the network unchanged
would not shrink the input layer.  The information in ``W x`` is exactly
the rank-``r`` coordinate vector ``U^T x`` (and ``U`` is publicly
derivable from ``W`` by eigendecomposition), so the condensed network
takes the ``r``-dimensional ``U^T x`` as input — that is where the
``n(1)``-fold reduction of Table 5 comes from.  ``W`` is released as
:attr:`ProjectionResult.projection` (Alg. 2 applies it, ``W X``), and
:meth:`ProjectionResult.embed` computes ``U^T X``, the condensed-model
input.

Implementation notes kept faithful to the pseudocode:

* columns are appended as ``a / sqrt(||a||_2)`` with coefficient
  ``sqrt(||a||_2)`` (Alg. 1 lines 24-25, including the square root);
* line 28 of the pseudocode assigns the *m*-dimensional reprojection to
  the *l*-dimensional column ``C_i``; the dimensionally consistent
  reading — the coefficient vector ``(D^T D)^-1 D^T a_i`` — is
  implemented (reconstruction ``D C_i`` then equals the reprojection).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional

import numpy as np

from ..errors import PreprocessError

__all__ = ["ProjectionConfig", "ProjectionResult", "build_projection"]


@dataclasses.dataclass
class ProjectionConfig:
    """Knobs of Algorithm 1.

    Attributes:
        gamma: projection-error threshold for admitting a new column.
        batch_size: how often the retraining hook fires (``n_batch``).
        patience: stop growing after this many non-improving validation
            checks (Alg. 1's early-stopping guard).
        max_rank: hard cap on dictionary size (defaults to ``m``).
    """

    gamma: float = 0.25
    batch_size: int = 64
    patience: Optional[int] = None
    max_rank: Optional[int] = None


@dataclasses.dataclass
class ProjectionResult:
    """Output of Algorithm 1.

    Attributes:
        dictionary: ``D`` (m x l), the admitted (normalized) columns.
        projection: ``W = D D^+`` (m x m), the public release.
        basis: ``U`` (m x r), orthonormal column space of ``D`` (public-
            equivalent to ``W``; used as the condensed-model input map).
        embeddings: ``C`` coefficients of the training stream (l x n).
        validation_errors: delta after each retraining batch.
        admitted: indices of training columns admitted into ``D``.
    """

    dictionary: np.ndarray
    projection: np.ndarray
    basis: np.ndarray
    embeddings: np.ndarray
    validation_errors: List[float]
    admitted: List[int]

    @property
    def rank(self) -> int:
        """Dimension of the retained subspace."""
        return self.basis.shape[1]

    def embed(self, x: np.ndarray) -> np.ndarray:
        """Coordinates ``U^T x`` — the condensed network's input."""
        return x @ self.basis


def build_projection(
    data: np.ndarray,
    config: Optional[ProjectionConfig] = None,
    update_dl: Optional[Callable[[np.ndarray, np.ndarray], None]] = None,
    update_validation_error: Optional[Callable[[], float]] = None,
    sample_indices: Optional[np.ndarray] = None,
) -> ProjectionResult:
    """Run Algorithm 1 over a training stream.

    Args:
        data: training samples, shape (n_samples, m) — transposed
            relative to the paper's column-major ``A`` for numpy
            friendliness.
        config: thresholds (see :class:`ProjectionConfig`).
        update_dl: hook called every ``batch_size`` samples with the
            embeddings and their indices so far (Alg. 1 line 33).
        update_validation_error: hook returning the current validation
            error delta (line 34).
        sample_indices: optional explicit stream order.

    Returns:
        :class:`ProjectionResult` with ``D``, ``W``, ``U`` and ``C``.
    """
    config = config or ProjectionConfig()
    if data.ndim != 2:
        raise PreprocessError("data must be 2-D (samples x features)")
    n_samples, m = data.shape
    max_rank = min(config.max_rank or m, m)
    order = (
        np.asarray(sample_indices)
        if sample_indices is not None
        else np.arange(n_samples)
    )

    columns: List[np.ndarray] = []
    coeff_rows: List[np.ndarray] = []
    admitted: List[int] = []
    validation_errors: List[float] = []
    delta_best = 1.0
    delta = 1.0
    itr = 0
    gram_inv: Optional[np.ndarray] = None

    def refresh_gram() -> None:
        nonlocal gram_inv
        if columns:
            dmat = np.stack(columns, axis=1)
            gram = dmat.T @ dmat
            gram_inv = np.linalg.inv(gram + 1e-10 * np.eye(gram.shape[0]))

    for step, idx in enumerate(order):
        sample = data[idx]
        norm = np.linalg.norm(sample)
        if not columns:
            vp = 1.0 if norm > 1e-12 else 0.0
        else:
            dmat = np.stack(columns, axis=1)
            coeff = gram_inv @ (dmat.T @ sample)
            vp = (
                float(np.linalg.norm(dmat @ coeff - sample) / norm)
                if norm > 1e-12
                else 0.0
            )
        if delta <= delta_best:
            delta_best = delta
            itr = 0
        else:
            itr += 1
        patience_ok = config.patience is None or itr < config.patience
        if (
            vp > config.gamma
            and patience_ok
            and len(columns) < max_rank
            and norm > 1e-12
        ):
            # Alg. 1 lines 24-25 (note the sqrt on the norm)
            scale = np.sqrt(norm)
            columns.append(sample / scale)
            refresh_gram()
            coeff_row = np.zeros(max_rank)
            coeff_row[len(columns) - 1] = scale
            coeff_rows.append(coeff_row)
            admitted.append(int(idx))
        else:
            coeff_row = np.zeros(max_rank)
            if columns:
                dmat = np.stack(columns, axis=1)
                coeff = gram_inv @ (dmat.T @ sample)
                coeff_row[: len(columns)] = coeff
            coeff_rows.append(coeff_row)
        if update_dl is not None and (step + 1) % config.batch_size == 0:
            current = np.stack(coeff_rows)[:, : max(len(columns), 1)]
            update_dl(current, order[: step + 1])
            if update_validation_error is not None:
                delta = update_validation_error()
                validation_errors.append(delta)

    if not columns:
        raise PreprocessError("no dictionary columns admitted; lower gamma")
    dictionary = np.stack(columns, axis=1)
    gram = dictionary.T @ dictionary
    middle = np.linalg.inv(gram + 1e-10 * np.eye(gram.shape[0]))
    projection = dictionary @ middle @ dictionary.T
    basis = np.linalg.qr(dictionary)[0]
    rank = dictionary.shape[1]
    embeddings = np.stack(coeff_rows)[:, :rank]
    return ProjectionResult(
        dictionary=dictionary,
        projection=projection,
        basis=basis,
        embeddings=embeddings,
        validation_errors=validation_errors,
        admitted=admitted,
    )
