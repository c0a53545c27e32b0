"""CryptoNets baseline (Gilad-Bachrach et al., ICML'16) — paper Table 6 / Fig. 6.

Three pieces:

* :class:`Square` — the polynomial activation CryptoNets substitutes for
  ReLU/sigmoid (HE cannot evaluate true non-linearities — the paper's
  limitation (ii));
* :class:`CryptoNetsInference` — runs a trained square-activation model
  over the simulated leveled-HE layer with SIMD batching, exposing the
  accuracy-vs-noise trade-off (limitation (i));
* :class:`CryptoNetsCostModel` — the published latency/traffic figures:
  flat 570.11 s per batch of up to 8192 samples and 74 KB per sample,
  the comparison DeepSecure's Table 6 and Fig. 6 are built on
  (limitation (iv): the constant per-batch cost).
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional

import numpy as np

from ..compile.paper_costs import (
    CRYPTONETS_BATCH,
    CRYPTONETS_COMM_BYTES,
    CRYPTONETS_LATENCY_S,
)
from ..errors import ReproError
from ..nn.layers import Dense, Layer
from ..nn.model import Sequential
from .he import HEContext, HECiphertext, HEParams

__all__ = ["Square", "CryptoNetsInference", "CryptoNetsCostModel"]


class Square(Layer):
    """Square activation ``y = x^2`` (trainable substitute for ReLU)."""

    kind = "square"

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._x = x
        return x * x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * 2.0 * self._x


class CryptoNetsInference:
    """Homomorphic inference over a square-activation dense model.

    One ciphertext per feature/neuron, slots batching samples — the
    CryptoNets layout.  Weights are quantized to ``weight_bits`` signed
    integers (the paper notes CryptoNets uses 5-10 bit precision).

    Args:
        model: a :class:`Sequential` of Dense and Square layers only.
        params: HE parameters (noise budget etc.).
        weight_bits: weight quantization (paper: 5-10).
        input_bits: input quantization.
    """

    def __init__(
        self,
        model: Sequential,
        params: Optional[HEParams] = None,
        weight_bits: int = 5,
        input_bits: int = 5,
    ) -> None:
        for layer in model.layers:
            if not isinstance(layer, (Dense, Square)):
                raise ReproError(
                    "CryptoNets supports Dense + Square stacks only"
                )
        self.model = model
        self.context = HEContext(params)
        self.weight_bits = weight_bits
        self.input_bits = input_bits
        self.weight_scale = (1 << (weight_bits - 1)) - 1
        self.input_scale = (1 << (input_bits - 1)) - 1

    def _quantize_weights(self, weights: np.ndarray):
        """Quantize a weight matrix; returns (ints, effective scale)."""
        peak = np.abs(weights).max() or 1.0
        ints = np.rint(weights / peak * self.weight_scale).astype(np.int64)
        return ints, self.weight_scale / peak

    def _evaluate(self, x: np.ndarray) -> List[HECiphertext]:
        """Run the homomorphic pipeline; returns the logit ciphertexts.

        A plaintext *scale* is tracked through the layers (inputs carry
        ``input_scale``, each dense multiplies by its weight scale, each
        square squares it) so biases can be injected at the right
        magnitude.  Argmax is scale-invariant, so logits need no rescale.
        """
        n_samples, n_features = x.shape
        batch = self.context.params.poly_degree
        if n_samples > batch:
            raise ReproError(f"batch exceeds {batch} slots")
        scaled = np.rint(
            np.clip(x, -1.0, 1.0) * self.input_scale
        ).astype(np.int64)
        ciphertexts: List[HECiphertext] = [
            self.context.encrypt(scaled[:, j]) for j in range(n_features)
        ]
        scale = float(self.input_scale)
        for layer in self.model.layers:
            if isinstance(layer, Dense):
                ciphertexts, scale = self._dense(ciphertexts, layer, scale)
            else:
                ciphertexts = [
                    self.context.multiply(c, c) for c in ciphertexts
                ]
                scale = scale * scale
        return ciphertexts

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Classify a batch of up to ``poly_degree`` samples.

        Returns:
            Predicted labels; corrupted slots (exhausted noise budget)
            yield essentially random labels — the utility loss the paper
            highlights.
        """
        ciphertexts = self._evaluate(x)
        logits = np.stack(
            [self.context.decrypt(c, x.shape[0]) for c in ciphertexts], axis=1
        ).astype(np.float64)
        return logits.argmax(axis=1)

    def min_noise_budget(self, x: np.ndarray) -> float:
        """Remaining budget after inference (diagnostic)."""
        return min(c.noise_budget_bits for c in self._evaluate(x))

    def _dense(
        self, inputs: List[HECiphertext], layer: Dense, scale: float
    ):
        weights, weight_scale = self._quantize_weights(layer.weights)
        out_scale = scale * weight_scale
        outputs: List[HECiphertext] = []
        for j in range(weights.shape[1]):
            acc: Optional[HECiphertext] = None
            for i in range(weights.shape[0]):
                w = int(weights[i, j])
                if w == 0:
                    continue
                term = self.context.multiply_plain(inputs[i], w)
                acc = term if acc is None else self.context.add(acc, term)
            if acc is None:
                acc = self.context.encrypt(np.zeros(1, dtype=np.int64))
            if layer.bias is not None:
                bias_int = int(round(float(layer.bias[j]) * out_scale))
                if bias_int:
                    acc = self.context.add_plain(acc, bias_int)
            outputs.append(acc)
        return outputs, out_scale


@dataclasses.dataclass(frozen=True)
class CryptoNetsCostModel:
    """The published CryptoNets performance figures (Table 6 sources).

    Attributes:
        batch_latency_s: seconds per batch regardless of fill (570.11).
        batch_size: SIMD capacity (8192 samples).
        comm_bytes_per_sample: upload per sample (74 KB).
    """

    batch_latency_s: float = CRYPTONETS_LATENCY_S
    batch_size: int = CRYPTONETS_BATCH
    comm_bytes_per_sample: float = float(CRYPTONETS_COMM_BYTES)

    def delay_seconds(self, n_samples: int) -> float:
        """Client-perceived delay: flat per batch (Fig. 6's step curve)."""
        if n_samples <= 0:
            return 0.0
        batches = math.ceil(n_samples / self.batch_size)
        return batches * self.batch_latency_s

