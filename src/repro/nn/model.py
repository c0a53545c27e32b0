"""Sequential model container.

Mirrors the paper's modular structure (Sec. 3.6): layers stack freely, and
the same object is consumed by the trainer, the quantizer, the
pre-processing pipeline and the netlist compiler.
"""

from __future__ import annotations

import copy
from typing import List, Sequence, Tuple

import numpy as np

from .layers import Layer

__all__ = ["Sequential"]


class Sequential:
    """An ordered stack of layers.

    Args:
        layers: layer instances (not yet built).
        input_shape: per-sample input shape, e.g. ``(617,)`` or
            ``(28, 28, 1)``.
        seed: parameter-initialization seed.
    """

    def __init__(
        self,
        layers: Sequence[Layer],
        input_shape: Tuple[int, ...],
        seed: int = 0,
        name: str = "model",
    ) -> None:
        self.layers: List[Layer] = list(layers)
        self.input_shape = tuple(input_shape)
        self.name = name
        rng = np.random.default_rng(seed)
        shape = self.input_shape
        for layer in self.layers:
            shape = layer.build(shape, rng)
        self.output_shape = shape

    # -- inference ------------------------------------------------------------

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run all layers; returns raw logits (no softmax)."""
        out = x
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class predictions (argmax over logits — the paper's Softmax)."""
        return self.forward(x).argmax(axis=-1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Back-propagate through the whole stack."""
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    # -- parameter access --------------------------------------------------------

    def parameters(self) -> List[np.ndarray]:
        """All trainable tensors, layer order."""
        params: List[np.ndarray] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def gradients(self) -> List[np.ndarray]:
        """All gradients, aligned with :meth:`parameters`."""
        grads: List[np.ndarray] = []
        for layer in self.layers:
            grads.extend(layer.gradients())
        return grads

    def mac_count(self) -> int:
        """Per-sample multiply-accumulates across linear layers."""
        return int(
            sum(getattr(l, "mac_count", 0) for l in self.layers)
        )

    def nonzero_mac_count(self) -> int:
        """MACs that survive pruning masks."""
        total = 0
        for layer in self.layers:
            if hasattr(layer, "nonzero_macs"):
                total += layer.nonzero_macs
            else:
                total += getattr(layer, "mac_count", 0)
        return int(total)

    # -- persistence ----------------------------------------------------------------

    def clone(self) -> "Sequential":
        """Deep copy (used by retraining pipelines to keep the original)."""
        return copy.deepcopy(self)

    # -- introspection -----------------------------------------------------------------

    def architecture_string(self) -> str:
        """Compact description in the paper's style (e.g. 617-50FC-Tanh-...)."""
        parts = ["x".join(str(d) for d in self.input_shape)]
        for layer in self.layers:
            if layer.kind == "dense":
                parts.append(f"{layer.units}FC")
            elif layer.kind == "conv2d":
                parts.append(f"{layer.filters}C{layer.stride}")
            elif layer.kind == "relu":
                parts.append("ReLu")
            elif layer.kind == "sigmoid":
                parts.append("Sigmoid")
            elif layer.kind == "tanh":
                parts.append("Tanh")
            elif layer.kind == "maxpool":
                parts.append(f"M1P{layer.pool_size}")
            elif layer.kind == "meanpool":
                parts.append(f"M2P{layer.pool_size}")
        return "-".join(parts)
