"""Netlist pins: the compiler's output, gate for gate.

Each case compiles a fixed architecture and hashes every gate's
``(op, a, b, out)`` and the output wires.  The digests are what the
compiler emits with every dense unit and activation built through the
builder (no template instantiated), so they hold the templates to what
structural hashing through the builder emits.  They were last re-taken
when the server's words entered in sign-magnitude and the builder began
sweeping gates that reach no output.
A dense layer's netlist does not depend on its weight values, only on
its shape and mask; the conv case's quantized zeros decide which taps
exist, so its weights are seeded.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.circuits import FixedPointFormat, GateType
from repro.compile import CompileOptions, compile_model
from repro.nn import (
    Conv2D,
    Dense,
    Flatten,
    QuantizedModel,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)

_OPS = list(GateType)


def netlist_digest(circuit) -> str:
    """sha256 over the gates as ``(op, a, b, out)`` rows (``op`` by its
    :class:`GateType` position, ``b = -1`` for a unary gate) and then the
    output wires, all little-endian int32."""
    rows = np.array(
        [
            (_OPS.index(op), a, -1 if b is None else b, out)
            for op, a, b, out in circuit.gates
        ],
        dtype="<i4",
    ).reshape(-1, 4)
    digest = hashlib.sha256(rows.tobytes())
    digest.update(np.asarray(circuit.outputs, dtype="<i4").tobytes())
    return digest.hexdigest()


def _compiled(model, fmt, activation):
    quantized = QuantizedModel(model, fmt, activation_variant=activation)
    return compile_model(quantized, CompileOptions(activation=activation))


def demo_net():
    """The demo service's 10-6-3 tanh net at 1.2.6 with LUT activations."""
    model = Sequential(
        [Dense(6), Tanh(), Dense(3)], input_shape=(10,), seed=1
    )
    return _compiled(model, FixedPointFormat(2, 6), "exact")


def cordic_net():
    """An 8-4-3 tanh net at the paper's 1.3.12 with CORDIC tanh."""
    model = Sequential(
        [Dense(4), Tanh(), Dense(3)], input_shape=(8,), seed=2
    )
    return _compiled(model, FixedPointFormat(3, 12), "cordic")


def relu_sigmoid_net():
    """ReLU and a piecewise sigmoid between three dense layers."""
    model = Sequential(
        [Dense(5), ReLU(), Dense(4), Sigmoid(), Dense(3)],
        input_shape=(7,),
        seed=3,
    )
    return _compiled(model, FixedPointFormat(2, 6), "piecewise")


def masked_net():
    """A pruned first layer: its units differ, so they are all emitted."""
    model = Sequential(
        [Dense(4), ReLU(), Dense(3)], input_shape=(6,), seed=4
    )
    first = model.layers[0]
    keep = np.random.default_rng(4).random(first.weights.shape) > 0.4
    keep[0, :] = True
    first.mask = keep.astype(float)
    first.weights *= first.mask
    return _compiled(model, FixedPointFormat(2, 6), "exact")


def conv_net():
    """Benchmark 1's layer stack (5x5 stride-2 conv, ReLU, dense, ReLU,
    dense) scaled to two filters on a 12x12 image at a 4-bit format: the
    conv layer stays on the builder path."""
    model = Sequential(
        [
            Conv2D(2, kernel_size=5, stride=2),
            ReLU(),
            Flatten(),
            Dense(5),
            ReLU(),
            Dense(10),
        ],
        input_shape=(12, 12, 1),
        seed=5,
    )
    return _compiled(model, FixedPointFormat(1, 2), "exact")


#: name -> (builder, gate count, non-XOR count, sha256)
PINS = {
    "demo": (demo_net, 32578, 11201,
             "357f3104c7f3801bd6767c68a6fa93a611c3a05a7754099857418b28b8f57f8b"),
    "cordic_8_4_3": (cordic_net, 105156, 30342,
                     "4ff3caa29dae453c2a1e6c56b54408ae4e7ee540a8b0bdaf392c03b0bb7a5a78"),
    "relu_sigmoid": (relu_sigmoid_net, 26866, 9328,
                     "4ba06472a326dc3cc448ef5352d1856b3f6c83e8d2186d2390ab776dc23c592d"),
    "masked_dense": (masked_net, 12310, 4300,
                     "ecffee4287b1f9b9e56ac17ff7382571e2e1e99df61d9a53b33970ef6e25e5bb"),
    "conv_b1": (conv_net, 53746, 17318,
                "44045468b27981cc136f506fda003e06c43b033dd922c7e7023ea23d92aa378e"),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_netlist_pinned(name):
    build, n_gates, non_xor, digest = PINS[name]
    circuit = build().circuit
    assert len(circuit.gates) == n_gates
    assert circuit.counts().non_xor == non_xor
    assert netlist_digest(circuit) == digest
