"""Unit templates: a dense layer's units and an activation's instances
after the first are instantiated from the first, not re-emitted.

The reference is the same compile with every unit emitted through the
builder (``CircuitBuilder.instantiate`` patched to decline): the two
netlists must be equal column for column.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import CircuitBuilder, FixedPointFormat, simulate
from repro.circuits.builder import UnitTemplate
from repro.compile import CompileOptions, compile_model
from repro.nn import Dense, QuantizedModel, ReLU, Sequential, Sigmoid, Tanh

FMT9 = FixedPointFormat(2, 6)


def _compile(layers, n_in, fmt, activation, seed=0):
    model = Sequential(layers, input_shape=(n_in,), seed=seed)
    quantized = QuantizedModel(model, fmt, activation_variant=activation)
    return compile_model(quantized, CompileOptions(activation=activation))


def _columns(circuit):
    return [np.asarray(col) for col in circuit.columns] + [
        np.asarray(circuit.outputs)
    ]


def _emitted_only(monkeypatch):
    monkeypatch.setattr(
        CircuitBuilder, "instantiate", lambda self, template, ports: None
    )


NETS = {
    "tanh_exact": (lambda: [Dense(5), Tanh(), Dense(3)], 6, FMT9, "exact"),
    "sigmoid_cordic": (
        lambda: [Dense(3), Sigmoid(), Dense(2)], 4,
        FixedPointFormat(2, 8), "cordic",
    ),
    "tanh_truncated_bias": (
        lambda: [Dense(4, use_bias=True), Tanh(), Dense(3, use_bias=True)],
        5, FMT9, "truncated",
    ),
    "relu_stack": (
        lambda: [Dense(4), ReLU(), Dense(4), ReLU(), Dense(3)], 3, FMT9,
        "piecewise",
    ),
    "sigmoid_first": (
        lambda: [Sigmoid(), Dense(3), Tanh(), Dense(2)], 4, FMT9, "piecewise",
    ),
}


@pytest.mark.parametrize("name", sorted(NETS))
def test_instantiated_equals_emitted(name, monkeypatch):
    layers, n_in, fmt, activation = NETS[name]
    used = []
    instantiate = CircuitBuilder.instantiate

    def counting(self, template, ports):
        bus = instantiate(self, template, ports)
        used.append(bus is not None)
        return bus

    monkeypatch.setattr(CircuitBuilder, "instantiate", counting)
    fast = _compile(layers(), n_in, fmt, activation)
    assert used and all(used)
    _emitted_only(monkeypatch)
    slow = _compile(layers(), n_in, fmt, activation)
    for got, want in zip(_columns(fast.circuit), _columns(slow.circuit)):
        np.testing.assert_array_equal(got, want)
    assert fast.layer_report == slow.layer_report
    assert fast.circuit.depth() == slow.circuit.depth()


def test_instantiated_net_computes_the_model():
    compiled = _compile([Dense(4), Tanh(), Dense(3)], 5, FMT9, "exact", seed=9)
    model = Sequential(
        [Dense(4), Tanh(), Dense(3)], input_shape=(5,), seed=9
    )
    quantized = QuantizedModel(model, FMT9, activation_variant="exact")
    rng = np.random.default_rng(3)
    for sample in rng.uniform(-1, 1, size=(6, 5)):
        bits = simulate(
            compiled.circuit, compiled.client_bits(sample),
            compiled.server_bits(),
        )
        assert compiled.decode_output(bits) == quantized.predict(
            sample[None, :]
        )[0]


class TestBuilderTemplates:
    @staticmethod
    def _unit(builder, bus):
        """A unit that NOTs its ports, ANDs them pairwise with a shared
        gate and XORs in a constant."""
        shared = builder.emit_and(2, 3)
        inverted = [builder.emit_not(w) for w in bus]
        return [
            builder.emit_xor(builder.emit_and(x, shared), builder.one)
            for x in inverted
        ]

    def _pair(self):
        builder = CircuitBuilder()
        builder.add_alice_inputs(2)
        ports = builder.add_bob_inputs(6)
        return builder, ports[:3], ports[3:]

    def test_record_then_instantiate(self):
        builder, first, second = self._pair()
        out, template = builder.record(first, lambda: self._unit(builder, first))
        assert isinstance(template, UnitTemplate)
        # the shared AND is not part of the unit's own gates
        assert template.op.size == builder.gate_count - 1
        got = builder.instantiate(template, second)
        circuit = builder.build()

        reference, ref_first, ref_second = self._pair()
        self._unit(reference, ref_first)
        want = self._unit(reference, ref_second)
        assert got == want
        np.testing.assert_array_equal(
            np.asarray(circuit.columns.a), np.asarray(reference.build().columns.a)
        )

    def test_not_pairs_registered(self):
        builder, first, second = self._pair()
        _, template = builder.record(first, lambda: self._unit(builder, first))
        builder.instantiate(template, second)
        before = builder.gate_count
        # the NOT of an instantiated port exists: asking again is free
        builder.emit_not(second[0])
        assert builder.gate_count == before

    def test_ports_that_look_different_decline(self):
        builder, first, second = self._pair()
        _, template = builder.record(first, lambda: self._unit(builder, first))
        builder.emit_not(second[1])  # a NOT pair unit 0's ports lacked
        assert builder.instantiate(template, second) is None
        repeated = [second[0], second[0], second[2]]
        assert builder.instantiate(template, repeated) is None

    def test_unknown_dependence_declines(self):
        builder = CircuitBuilder()
        x = builder.add_alice_inputs(2)
        y = [builder.emit_xor(x[0], x[1]), builder.emit_and(x[0], x[1])]
        # a gate built before the unit that reads one of its ports
        builder.emit_or(y[0], y[1])
        _, template = builder.record(
            y, lambda: [builder.emit_or(y[0], y[1]), builder.emit_not(y[0])]
        )
        assert template is None
