"""Data and DL-network pre-processing (paper Sec. 3.2)."""

from .pipeline import PreprocessReport, condense_architecture, preprocess_model
from .projection import (
    ProjectionConfig,
    ProjectionResult,
    build_projection,
)
from .pruning import PruneReport, magnitude_threshold, prune_model

__all__ = [
    "ProjectionConfig",
    "ProjectionResult",
    "build_projection",
    "PruneReport",
    "prune_model",
    "magnitude_threshold",
    "PreprocessReport",
    "preprocess_model",
    "condense_architecture",
]
