"""Analytic gate-count model for paper-scale networks.

Building the benchmark-4 netlist (2.8 billion non-XOR gates) as Python
objects is infeasible, and unnecessary: gate counts are *exactly*
additive over components.  This module prices an architecture from
per-component costs — either the paper's Table 3 values (reproducing the
published Tables 4/5 to the digit) or costs measured from our own
generated netlists (validated against fully-compiled small models in
the test suite).
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from typing import Tuple

from ..circuits import Bus, CircuitBuilder, FixedPointFormat
from ..circuits.arith import relu as relu_circuit
from ..circuits.logic import max_tree
from ..circuits.netlist import GateCounts
from ..errors import CompileError
from .compiler import dot_unit
from .inventory import activation_component, component
from .paper_costs import PAPER_COMPONENT_COSTS, ComponentCosts

__all__ = [
    "Layer",
    "fc",
    "conv",
    "activation",
    "softmax",
    "Architecture",
    "architecture_counts",
    "measured_component_costs",
]


@dataclasses.dataclass(frozen=True)
class Layer:
    """One costed layer of an abstract architecture.

    ``kind`` in {"fc", "conv", "relu", "tanh", "sigmoid", "maxpool",
    "softmax"}; the meaning of ``a``/``b``/``c`` depends on the kind (use
    the factory helpers below).
    """

    kind: str
    a: int
    b: int = 0
    c: int = 0


def fc(m: int, n: int) -> Layer:
    """Fully-connected layer with ``m`` inputs and ``n`` outputs."""
    return Layer("fc", m, n)


def conv(kernel_volume: int, output_units: int) -> Layer:
    """Convolution priced as a matvec: ``kernel_volume`` MACs per output.

    ``output_units`` counts all spatial positions times output channels
    (how the paper prices benchmark 1's conv layer).
    """
    return Layer("conv", kernel_volume, output_units)


def activation(kind: str, count: int) -> Layer:
    """``count`` instances of relu/tanh/sigmoid."""
    if kind not in ("relu", "tanh", "sigmoid"):
        raise CompileError(f"unknown activation {kind!r}")
    return Layer(kind, count)


def softmax(n: int) -> Layer:
    """Output argmax over ``n`` classes ((n-1) CMP+MUX stages)."""
    return Layer("softmax", n)


@dataclasses.dataclass(frozen=True)
class Architecture:
    """A named, costed stack of abstract layers."""

    name: str
    layers: Tuple[Layer, ...]
    description: str = ""


def architecture_counts(
    arch: Architecture,
    costs: ComponentCosts = PAPER_COMPONENT_COSTS,
    mac_fold: float = 1.0,
) -> GateCounts:
    """Price an architecture under a component cost table.

    Args:
        arch: abstract architecture.
        costs: per-component costs (paper Table 3 or measured).
        mac_fold: divide linear-layer MAC gate counts by this factor —
            the paper's Table 5 compaction semantics (activation circuits
            are left untouched; validated against the published rows).

    Returns:
        Total gate counts.
    """
    xor = 0.0
    non_xor = 0.0
    for layer in arch.layers:
        if layer.kind in ("fc", "conv"):
            lx, ln = costs.matvec(layer.a, layer.b)
            xor += lx / mac_fold
            non_xor += ln / mac_fold
        elif layer.kind == "relu":
            xor += costs.relu[0] * layer.a
            non_xor += costs.relu[1] * layer.a
        elif layer.kind == "tanh":
            xor += costs.tanh[0] * layer.a
            non_xor += costs.tanh[1] * layer.a
        elif layer.kind == "sigmoid":
            xor += costs.sigmoid[0] * layer.a
            non_xor += costs.sigmoid[1] * layer.a
        elif layer.kind == "maxpool":
            stages = (layer.b - 1) * layer.a
            xor += costs.softmax_per_stage[0] * stages
            non_xor += costs.softmax_per_stage[1] * stages
        elif layer.kind == "softmax":
            stages = layer.a - 1
            xor += costs.softmax_per_stage[0] * stages
            non_xor += costs.softmax_per_stage[1] * stages
        else:  # pragma: no cover - factories restrict kinds
            raise CompileError(f"unknown layer kind {layer.kind!r}")
    return GateCounts(xor=int(round(xor)), non_xor=int(round(non_xor)))


#: fan-ins of the two dot units the per-MAC cost is measured from
_MAC_FAN_INS = (8, 16)


@lru_cache(maxsize=None)
def measured_component_costs(
    int_bits: int = 3, frac_bits: int = 12
) -> ComponentCosts:
    """Derive a :class:`ComponentCosts` from our generated netlists.

    The linear-layer cost is read off the compiler's own dot unit
    (:func:`repro.compile.compiler.dot_unit`, with bias) built at two
    fan-ins: the slope is the cost per element, the intercept the cost
    per output (bias word, saturation, the unit's carry propagation).
    A unit computes ``|x_i|`` itself, where a layer shares it among its
    outputs, so the slope is an upper bound by ``width - 2`` AND gates
    per input.  The analytic model built from these is validated against
    actually-compiled small models in the test suite.
    """
    fmt = FixedPointFormat(int_bits, frac_bits)
    width = fmt.width

    def unit(fan_in: int) -> GateCounts:
        def build(builder: CircuitBuilder) -> Bus:
            x = [builder.add_alice_inputs(width) for _ in range(fan_in)]
            w = [builder.add_bob_inputs(width) for _ in range(fan_in + 1)]
            return dot_unit(builder, fmt, x, w[:-1], bias=w[-1])

        return component(build).counts()

    low, high = _MAC_FAN_INS
    unit_low, unit_high = unit(low), unit(high)
    xor_slope = (unit_high.xor - unit_low.xor) / (high - low)
    non_xor_slope = (unit_high.non_xor - unit_low.non_xor) / (high - low)
    relu_counts = component(
        lambda b: relu_circuit(b, b.add_alice_inputs(width))
    ).counts()
    tanh_c = activation_component("TanhCORDIC", fmt).counts()
    sigmoid_c = activation_component("SigmoidCORDIC", fmt).counts()
    stage_c = component(
        lambda b: max_tree(b, [b.add_alice_inputs(width), b.add_bob_inputs(width)])
    ).counts()
    return ComponentCosts(
        name=f"measured-1.{int_bits}.{frac_bits}",
        mac_xor_per_element=xor_slope,
        mac_non_xor_per_element=non_xor_slope,
        mac_xor_bias_per_output=unit_low.xor - xor_slope * low,
        mac_non_xor_bias_per_output=unit_low.non_xor - non_xor_slope * low,
        relu=(relu_counts.xor, relu_counts.non_xor),
        tanh=(tanh_c.xor, tanh_c.non_xor),
        sigmoid=(sigmoid_c.xor, sigmoid_c.non_xor),
        softmax_per_stage=(stage_c.xor, stage_c.non_xor),
    )
