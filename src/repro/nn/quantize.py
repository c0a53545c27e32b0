"""Fixed-point quantization with circuit-exact integer semantics.

This module is the bridge between the float substrate and the netlists:
:class:`QuantizedModel` performs inference using *exactly* the integer
operations the compiled circuits implement —

* products: ``sign(a*b) * ((|a| * |b|) >> frac)`` (round toward zero,
  matching :func:`repro.circuits.arith.multiply_fixed`);
* accumulation in a wide integer, then symmetric saturation back to the
  I/O width;
* activations through precomputed 2**width lookup tables whose entries
  come either from exact rounding (LUT circuits) or from the bit-exact
  CORDIC reference (CORDIC circuits);
* argmax with lowest-index tie-breaking (matching the CMP/MUX tree).

Because both sides share these semantics, the compiler tests can assert
*bit equality* between a garbled evaluation and this class.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..circuits.activations import VARIANT_CIRCUITS
from ..circuits.activations.cordic import (
    hyperbolic_plan,
    sigmoid_reference,
    tanh_reference,
)
from ..circuits.fixedpoint import DEFAULT_FORMAT, FixedPointFormat
from ..errors import QuantizationError
from .layers import Conv2D, Dense, Flatten, MaxPool2D, MeanPool2D
from .model import Sequential

__all__ = [
    "fixed_mul",
    "saturate",
    "activation_table",
    "ACTIVATION_VARIANTS",
    "QuantizedDense",
    "QuantizedConv2D",
    "QuantizedModel",
]


def fixed_mul(a: np.ndarray, b: np.ndarray, frac_bits: int) -> np.ndarray:
    """Circuit-exact fixed-point product (round toward zero)."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    magnitude = (np.abs(a) * np.abs(b)) >> frac_bits
    return np.where((a < 0) != (b < 0), -magnitude, magnitude)


def saturate(value: np.ndarray, fmt: FixedPointFormat) -> np.ndarray:
    """Symmetric clamp to the representable range of ``fmt``."""
    high = (1 << (fmt.width - 1)) - 1
    return np.clip(np.asarray(value, dtype=np.int64), -high, high)


_TABLE_CACHE: Dict[Tuple, np.ndarray] = {}

#: Variants whose reference table is derived from the Table 3 circuit
#: itself (the approximation realizations have no closed-form reference).
_CIRCUIT_TABLE_VARIANTS = ("truncated", "piecewise")

#: Valid activation variant names, taken from the compiler's
#: variant-to-circuit map so new variants become visible everywhere
#: (EngineConfig validation, CLI choices) without a second edit.
ACTIVATION_VARIANTS = tuple(VARIANT_CIRCUITS)


def _circuit_variant_table(kind: str, fmt: FixedPointFormat, variant: str) -> np.ndarray:
    """Exhaustive truth table of a Table 3 circuit realization.

    The truncated and piecewise activations are circuit-level
    approximations with no closed-form reference, so the reference table
    is obtained by building the exact circuit the compiler would emit
    and evaluating it over every representable input pattern.  The sweep
    is vectorized — every wire carries a numpy vector of pattern chunks
    (the gate lambdas are pure bitwise ops, so they broadcast) — which
    keeps the paper-default 16-bit format tractable (sub-second instead
    of minutes of per-pattern Python simulation).
    """
    from ..circuits.activations import VARIANT_CIRCUITS, VARIANTS
    from ..circuits.builder import CircuitBuilder
    from ..circuits.netlist import CONST_ONE, CONST_ZERO

    builder = CircuitBuilder(name=f"{kind}_{variant}_table")
    x = builder.add_alice_inputs(fmt.width, name="x")
    out = VARIANTS[VARIANT_CIRCUITS[variant][kind]](builder, x, fmt)
    builder.mark_output_bus(out, name="y")
    circuit = builder.build()
    size = 1 << fmt.width
    out_width = len(circuit.outputs)
    table = np.zeros(size, dtype=np.int64)
    chunk = min(size, 8192)  # bound per-wire memory for wide formats
    for base in range(0, size, chunk):
        patterns = np.arange(base, min(base + chunk, size), dtype=np.int64)
        values: Dict[int, np.ndarray] = {
            CONST_ZERO: np.zeros(len(patterns), dtype=np.uint8),
            CONST_ONE: np.ones(len(patterns), dtype=np.uint8),
        }
        for i, wire in enumerate(circuit.alice_inputs):
            values[wire] = ((patterns >> i) & 1).astype(np.uint8)
        for gate in circuit.gates:
            if gate.b is None:
                values[gate.out] = gate.op.eval(values[gate.a])
            else:
                values[gate.out] = gate.op.eval(values[gate.a], values[gate.b])
        word = np.zeros(len(patterns), dtype=np.int64)
        for i, wire in enumerate(circuit.outputs):
            word |= values[wire].astype(np.int64) << i
        table[patterns] = np.where(
            (word >> (out_width - 1)) & 1, word - (1 << out_width), word
        )
    return table


def activation_table(
    kind: str, fmt: FixedPointFormat, variant: str = "exact"
) -> np.ndarray:
    """LUT over every representable input for a non-linearity.

    Args:
        kind: "tanh" or "sigmoid".
        fmt: I/O fixed-point format.
        variant: "exact" (rounded float — matches the LUT circuits),
            "cordic" (bit-exact CORDIC reference — matches the CORDIC
            circuits the paper uses in Sec. 4.5), or "truncated" /
            "piecewise" (bit-exact tables derived by simulating the
            Table 3 approximation circuits over the full input domain).

    Returns:
        int64 array of size ``2**width`` indexed by the unsigned bit
        pattern of the input.
    """
    key = (kind, fmt.int_bits, fmt.frac_bits, variant)
    cached = _TABLE_CACHE.get(key)
    if cached is not None:
        return cached
    size = 1 << fmt.width
    table = np.zeros(size, dtype=np.int64)
    if variant == "cordic":
        plan = hyperbolic_plan(
            frac_bits=fmt.frac_bits, expansion=3 if kind == "tanh" else 5
        )
        reference = tanh_reference if kind == "tanh" else sigmoid_reference
        for pattern in range(size):
            signed = fmt.from_unsigned(pattern)
            value = reference(fmt.decode(signed), fmt, plan)
            table[pattern] = fmt.encode(value)
    elif variant == "exact":
        fn: Callable[[float], float] = (
            math.tanh if kind == "tanh" else lambda v: 1 / (1 + math.exp(-v))
        )
        for pattern in range(size):
            signed = fmt.from_unsigned(pattern)
            table[pattern] = fmt.encode(fn(fmt.decode(signed)))
    elif variant in _CIRCUIT_TABLE_VARIANTS:
        table = _circuit_variant_table(kind, fmt, variant)
    else:
        raise QuantizationError(f"unknown activation variant {variant!r}")
    _TABLE_CACHE[key] = table
    return table


def _apply_activation(
    values: np.ndarray, kind: str, fmt: FixedPointFormat, variant: str
) -> np.ndarray:
    if kind == "relu":
        return np.maximum(values, 0)
    table = activation_table(kind, fmt, variant)
    patterns = np.asarray(values, dtype=np.int64) & ((1 << fmt.width) - 1)
    return table[patterns]


class QuantizedDense:
    """Integer twin of :class:`repro.nn.layers.Dense`."""

    kind = "dense"

    def __init__(
        self,
        weights: np.ndarray,
        bias: Optional[np.ndarray],
        fmt: FixedPointFormat,
        mask: Optional[np.ndarray] = None,
    ) -> None:
        self.fmt = fmt
        masked = weights * mask if mask is not None else weights
        self.weights = fmt.encode_array(masked)
        self.bias = fmt.encode_array(bias) if bias is not None else None
        self.mask = mask

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Wide-accumulator MAC then saturation (circuit semantics)."""
        frac = self.fmt.frac_bits
        # (batch, in, 1) * (in, out) products, summed over in
        products = fixed_mul(x[:, :, None], self.weights[None, :, :], frac)
        acc = products.sum(axis=1)
        if self.bias is not None:
            acc = acc + self.bias[None, :]
        return saturate(acc, self.fmt)


class QuantizedConv2D:
    """Integer twin of :class:`repro.nn.layers.Conv2D`."""

    kind = "conv2d"

    def __init__(
        self,
        layer: Conv2D,
        fmt: FixedPointFormat,
    ) -> None:
        self.fmt = fmt
        weights = layer.weights
        if layer.mask is not None:
            weights = weights * layer.mask
        self.weights = fmt.encode_array(weights)  # (k, k, cin, cout)
        self.bias = (
            fmt.encode_array(layer.bias) if layer.bias is not None else None
        )
        self.kernel_size = layer.kernel_size
        self.stride = layer.stride

    def forward(self, x: np.ndarray) -> np.ndarray:
        batch, h, w, cin = x.shape
        k, s = self.kernel_size, self.stride
        out_h = (h - k) // s + 1
        out_w = (w - k) // s + 1
        cols = np.empty((batch, out_h, out_w, k, k, cin), dtype=np.int64)
        for i in range(k):
            for j in range(k):
                cols[:, :, :, i, j, :] = x[
                    :, i : i + s * out_h : s, j : j + s * out_w : s, :
                ]
        cols2d = cols.reshape(batch * out_h * out_w, k * k * cin)
        w2d = self.weights.reshape(k * k * cin, -1)
        products = fixed_mul(
            cols2d[:, :, None], w2d[None, :, :], self.fmt.frac_bits
        )
        acc = products.sum(axis=1)
        if self.bias is not None:
            acc = acc + self.bias[None, :]
        out = saturate(acc, self.fmt)
        return out.reshape(batch, out_h, out_w, -1)


class QuantizedModel:
    """Integer inference engine matching the compiled circuits bit-for-bit.

    Args:
        model: trained float model.
        fmt: fixed-point format (paper default 1.3.12).
        activation_variant: "cordic" (paper Sec. 4.5 configuration),
            "exact" (LUT circuits), "truncated" or "piecewise" (the
            Table 3 approximation circuits, referenced bit-exactly via
            simulated truth tables).
    """

    def __init__(
        self,
        model: Sequential,
        fmt: FixedPointFormat = DEFAULT_FORMAT,
        activation_variant: str = "cordic",
    ) -> None:
        if activation_variant not in ACTIVATION_VARIANTS:
            raise QuantizationError(
                f"unknown activation variant {activation_variant!r}; "
                f"choose from {', '.join(ACTIVATION_VARIANTS)}"
            )
        self.fmt = fmt
        self.activation_variant = activation_variant
        self.input_shape = model.input_shape
        self.steps: List[Tuple[str, object]] = []
        for layer in model.layers:
            if isinstance(layer, Dense):
                self.steps.append(
                    (
                        "dense",
                        QuantizedDense(layer.weights, layer.bias, fmt, layer.mask),
                    )
                )
            elif isinstance(layer, Conv2D):
                self.steps.append(("conv2d", QuantizedConv2D(layer, fmt)))
            elif isinstance(layer, Flatten):
                self.steps.append(("flatten", None))
            elif isinstance(layer, MaxPool2D):
                self.steps.append(("maxpool", layer))
            elif isinstance(layer, MeanPool2D):
                self.steps.append(("meanpool", layer))
            elif layer.kind in ("relu", "sigmoid", "tanh"):
                self.steps.append((layer.kind, None))
            else:
                raise QuantizationError(
                    f"cannot quantize layer kind {layer.kind!r}"
                )

    # -- integer pipeline -------------------------------------------------

    def forward_fixed(self, x_fixed: np.ndarray) -> np.ndarray:
        """Integer logits from integer inputs (circuit semantics)."""
        out = np.asarray(x_fixed, dtype=np.int64)
        for kind, op in self.steps:
            if kind in ("dense", "conv2d"):
                out = op.forward(out)
            elif kind == "flatten":
                out = out.reshape(out.shape[0], -1)
            elif kind == "maxpool":
                out = self._pool(out, op, maximum=True)
            elif kind == "meanpool":
                out = self._pool(out, op, maximum=False)
            else:
                out = _apply_activation(
                    out, kind, self.fmt, self.activation_variant
                )
        return out

    def _pool(self, x: np.ndarray, layer, maximum: bool) -> np.ndarray:
        k = layer.pool_size
        s = layer.stride
        batch, h, w, c = x.shape
        out_h = (h - k) // s + 1
        out_w = (w - k) // s + 1
        win = np.empty((batch, out_h, out_w, k * k, c), dtype=np.int64)
        idx = 0
        for i in range(k):
            for j in range(k):
                win[:, :, :, idx, :] = x[
                    :, i : i + s * out_h : s, j : j + s * out_w : s, :
                ]
                idx += 1
        if maximum:
            return win.max(axis=3)
        total = saturate(win.sum(axis=3), self.fmt)
        inverse = self.fmt.encode(1.0 / (k * k))
        return fixed_mul(total, inverse, self.fmt.frac_bits)

    # -- float-facing API ----------------------------------------------------

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class ids via lowest-index argmax (matches the CMP/MUX tree)."""
        logits = self.forward_fixed(self.fmt.encode_array(x))
        return logits.argmax(axis=-1)
