"""The server's words enter in sign-magnitude, and no netlist keeps a
gate that reaches no output.

* the plaintext encoder is the circuit's ``sign_magnitude(symmetric=True)``
  on every pattern;
* a columnar taint / liveness audit: the served nets garble no gate that
  reaches no output and no non-free gate that depends on the server's
  input alone;
* the builder's sweep renumbers what it keeps and the sequential core's
  registers follow it;
* every two-party backend, on either transport, and the folded run still
  compute the quantized model.
"""

import random

import numpy as np
import pytest
from test_netlist_pins import conv_net, demo_net

from repro.circuits import CircuitBuilder, FixedPointFormat, arith, simulate
from repro.circuits.gates import N_FREE_CODES, Gate, GateType
from repro.circuits.netlist import NO_INPUT, Circuit
from repro.circuits.sequential import SequentialBuilder
from repro.compile import CompileOptions, compile_model, folded_mac_cell, run_folded_dense
from repro.engine import get_backend
from repro.errors import CircuitError
from repro.gc.ot import TEST_GROUP_512
from repro.nn import (
    Conv2D,
    Dense,
    Flatten,
    QuantizedModel,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
    fixed_mul,
)
from repro.transport import socketpair_channel_factory
from repro.zoo import build_benchmark3_model


def _sign_magnitude_circuit(width):
    builder = CircuitBuilder()
    word = builder.add_alice_inputs(width)
    magnitude, sign = arith.sign_magnitude(builder, word, symmetric=True)
    builder.mark_output_bus(magnitude + [sign])
    return builder.build()


def _pattern(bits):
    return sum(bit << i for i, bit in enumerate(bits))


class TestEncoder:
    def test_every_pattern_at_width_nine_under_simulate(self):
        width = 9
        circuit = _sign_magnitude_circuit(width)
        for pattern in range(1 << width):
            bits = [(pattern >> i) & 1 for i in range(width)]
            assert _pattern(simulate(circuit, bits, [])) == (
                arith.sign_magnitude_pattern(pattern, width)
            ), pattern

    def test_every_pattern_at_width_sixteen(self):
        """All 65 536 patterns at once (a wire carries a vector of them,
        the gates are bitwise), signed and unsigned views alike."""
        width = 16
        circuit = _sign_magnitude_circuit(width)
        patterns = np.arange(1 << width, dtype=np.int64)
        values = {0: np.zeros_like(patterns), 1: np.ones_like(patterns)}
        for i, wire in enumerate(circuit.alice_inputs):
            values[wire] = (patterns >> i) & 1
        for gate in circuit.gates:
            values[gate.out] = (
                gate.op.eval(values[gate.a]) if gate.b is None
                else gate.op.eval(values[gate.a], values[gate.b])
            )
        got = sum(values[w] << i for i, w in enumerate(circuit.outputs))
        assert np.array_equal(got, arith.sign_magnitude_pattern(patterns, width))
        signed = patterns - ((patterns >> (width - 1)) << width)
        assert np.array_equal(got, arith.sign_magnitude_pattern(signed, width))
        # the one pattern outside [-H, H] reads as magnitude 0, sign 1
        assert arith.sign_magnitude_pattern(-(1 << (width - 1)), width) == (
            1 << (width - 1)
        )


def audit(circuit):
    """Per gate, whether it reaches an output or a d-wire, and which
    parties' inputs it depends on (1 Alice, 2 Bob, 4 register state):
    one pass over the columns each way."""
    op, a, b, out = (col.tolist() for col in circuit.columns)
    taint = [0] * circuit.n_wires
    for wires, party in (
        (circuit.alice_inputs, 1), (circuit.bob_inputs, 2),
        (circuit.state_inputs, 4),
    ):
        for wire in wires:
            taint[wire] = party
    for x, y, z in zip(a, b, out):
        taint[z] = taint[x] | (0 if y == NO_INPUT else taint[y])
    live = [False] * circuit.n_wires
    for wire in [*circuit.outputs, *circuit.d_wires]:
        live[wire] = True
    for x, y, z in zip(reversed(a), reversed(b), reversed(out)):
        if live[z]:
            live[x] = True
            if y != NO_INPUT:
                live[y] = True
    dead = sum(not live[z] for z in out)
    bob_only = sum(
        code >= N_FREE_CODES and taint[z] == 2 for code, z in zip(op, out)
    )
    return dead, bob_only


class TestAudit:
    @pytest.mark.parametrize(
        "circuit,server_only",
        [
            pytest.param(lambda: demo_net().circuit, 0, id="demo"),
            pytest.param(
                lambda: folded_mac_cell(FixedPointFormat(3, 12), 16).core, 0,
                id="folded_cell",
            ),
            # a unit that reads ReLU outputs (sign bit the constant 0)
            # signs its products with the weights' signs alone: the heap's
            # full adders over those sign bits are the 315
            pytest.param(lambda: conv_net().circuit, 315, id="conv_b1"),
        ],
    )
    def test_no_dead_gate_and_no_server_only_magnitude(self, circuit, server_only):
        assert audit(circuit()) == (0, server_only)

    def test_the_audit_sees_both_faults(self):
        """A Bob word's magnitude built in the circuit is 14 server-only
        ANDs at 16 bits; a carry nobody reads is a dead gate — the audit
        counts both on a netlist built as gates, which is not swept."""
        builder = CircuitBuilder()
        word = builder.add_bob_inputs(16)
        magnitude, _ = arith.sign_magnitude(builder, word, symmetric=True)
        builder.mark_output_bus(magnitude)
        swept = builder.build()
        assert audit(swept) == (0, 14)
        carry = Gate(GateType.AND, 2, 3, swept.n_wires)
        unswept = Circuit(
            0, 16, [*swept.gates, carry], swept.outputs, swept.n_wires + 1
        )
        assert audit(unswept) == (1, 15)


class TestSweep:
    def test_dead_gates_go_and_the_rest_are_renumbered(self):
        builder = CircuitBuilder()
        x = builder.add_alice_inputs(2)
        y = builder.add_bob_inputs(2)
        dead = builder.emit_and(x[0], y[0])  # gate 0: nobody reads it
        builder.emit_or(dead, y[1])  # gate 1: only a dead gate reads it
        kept = builder.emit_and(x[1], y[1])  # gate 2
        builder.mark_output(builder.emit_xor(kept, x[0]), name="z")  # gate 3
        circuit = builder.build()
        assert builder.survivors.tolist() == [2, 3]
        assert circuit.n_wires == 2 + circuit.n_inputs + circuit.n_gates == 8
        assert circuit.columns.out.tolist() == [6, 7]
        assert circuit.outputs == circuit.output_names["z"] == [7]
        for bits in range(16):
            a = [bits & 1, bits >> 1 & 1]
            b = [bits >> 2 & 1, bits >> 3 & 1]
            assert simulate(circuit, a, b) == [(a[1] & b[1]) ^ a[0]]
        with pytest.raises(CircuitError, match="once"):
            builder.build()

    def test_registers_follow_the_renumbered_d_wires(self):
        builder = SequentialBuilder()
        x = builder.add_alice_inputs(3)
        q = builder.add_registers(3)
        builder.emit_and(x[0], x[1])  # dead, ahead of every d-wire
        total = arith.ripple_add(builder, q, x)
        builder.bind_registers(q, total)
        builder.mark_output_bus(total)
        sequential = builder.build_sequential()
        core = sequential.core
        assert audit(core)[0] == 0
        assert [reg.d_wire for reg in sequential.registers] == list(core.d_wires)
        steps = [[1, 1, 0], [0, 1, 1], [1, 1, 1]]
        outputs = sequential.run(steps, [[]] * 3, cycles=3)
        assert _pattern(outputs[-1]) == (3 + 6 + 7) % 8


def _models():
    return {
        "demo": (Sequential([Dense(6), Tanh(), Dense(3)], input_shape=(10,), seed=1),
                 FixedPointFormat(2, 6), "exact"),
        "bias": (Sequential(
            [Dense(4, use_bias=True), ReLU(), Dense(3, use_bias=True)],
            input_shape=(5,), seed=6,
        ), FixedPointFormat(2, 6), "exact"),
        "conv": (Sequential(
            [Conv2D(2, kernel_size=3, stride=2), ReLU(), Flatten(), Dense(3)],
            input_shape=(5, 5, 1), seed=7,
        ), FixedPointFormat(1, 3), "exact"),
        "sigmoid_first": (Sequential(
            [Sigmoid(), Dense(3), Tanh(), Dense(2)], input_shape=(4,), seed=8,
        ), FixedPointFormat(2, 6), "piecewise"),
        "zoo_benchmark3": (build_benchmark3_model(scale=0.05, seed=3),
                           FixedPointFormat(1, 2), "exact"),
    }


@pytest.fixture(scope="module", params=sorted(_models()))
def served(request):
    model, fmt, activation = _models()[request.param]
    quantized = QuantizedModel(model, fmt, activation_variant=activation)
    compiled = compile_model(quantized, CompileOptions(activation=activation))
    rng = np.random.default_rng(len(request.param))
    x = rng.uniform(-1, 1, size=(2,) + tuple(quantized.input_shape))
    return compiled, quantized, x


@pytest.mark.parametrize("transport", ["memory", "socket"])
@pytest.mark.parametrize("name", ["two_party", "cut_and_choose", "outsourced"])
def test_every_backend_computes_the_model(served, name, transport):
    compiled, quantized, x = served
    assert audit(compiled.circuit)[0] == 0
    links = {"socket": {"channel_factory": socketpair_channel_factory()}}
    backend = get_backend(
        name, ot_group=TEST_GROUP_512, rng=random.Random(5),
        **links.get(transport, {}),
    )
    for sample in x:
        client, server = compiled.client_bits(sample), compiled.server_bits()
        outputs = backend.run(compiled.circuit, client, server).outputs
        assert outputs == simulate(compiled.circuit, client, server)
        assert compiled.decode_output(outputs) == int(
            quantized.predict(sample[None])[0]
        )


def test_the_folded_run_computes_a_biased_layer():
    """The folded cell reads Bob's weights in sign-magnitude, the bound
    ``-H`` and ``H`` included."""
    fmt = FixedPointFormat(2, 6)
    high = (1 << (fmt.width - 1)) - 1
    rng = np.random.default_rng(11)
    x = rng.integers(-high, high + 1, size=9)
    x[:2] = high, -high
    w = rng.integers(-high, high + 1, size=(9, 2))
    w[:2, 0] = -high, high
    result = run_folded_dense(
        [int(v) for v in x], w, fmt, ot_group=TEST_GROUP_512,
        rng=random.Random(2),
    )
    assert result.outputs == list(
        fixed_mul(x[:, None], w, fmt.frac_bits).sum(axis=0)
    )
