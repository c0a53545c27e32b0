"""Deep-learning substrate: numpy layers, training, quantization."""

from .initializers import glorot_uniform, he_uniform, zeros
from .layers import (
    Conv2D,
    Dense,
    Flatten,
    Layer,
    MaxPool2D,
    MeanPool2D,
    ReLU,
    Sigmoid,
    Tanh,
)
from .losses import softmax, softmax_cross_entropy
from .metrics import accuracy
from .model import Sequential
from .optimizers import SGD, Adam
from .quantize import (
    QuantizedConv2D,
    QuantizedDense,
    QuantizedModel,
    activation_table,
    fixed_mul,
    saturate,
)
from .train import TrainConfig, TrainHistory, Trainer

__all__ = [
    "Layer",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "MeanPool2D",
    "Flatten",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "Sequential",
    "Trainer",
    "TrainConfig",
    "TrainHistory",
    "SGD",
    "Adam",
    "softmax",
    "softmax_cross_entropy",
    "accuracy",
    "QuantizedModel",
    "QuantizedDense",
    "QuantizedConv2D",
    "fixed_mul",
    "saturate",
    "activation_table",
    "glorot_uniform",
    "he_uniform",
    "zeros",
]
