"""Synthetic datasets standing in for MNIST / ISOLET / DSA (no network).

Shapes and class counts match the paper's benchmarks; see DESIGN.md for
the substitution rationale.
"""

from .audio import generate_audio_features
from .digits import DIGIT_STROKES, generate_digits, render_digit
from .sensing import generate_sensing
from .util import train_val_test_split

__all__ = [
    "generate_digits",
    "render_digit",
    "DIGIT_STROKES",
    "generate_audio_features",
    "generate_sensing",
    "train_val_test_split",
]
