"""Unit tests for CircuitBuilder peephole optimization."""

import random

import pytest

from repro.circuits import (
    CONST_ONE,
    CONST_ZERO,
    CircuitBuilder,
    FixedPointFormat,
    GateType,
    simulate,
)
from repro.circuits.activations import VARIANTS
from repro.compile import CompileOptions, compile_model
from repro.compile.inventory import activation_component
from repro.errors import CircuitError
from repro.nn import Dense, QuantizedModel, Sequential, Tanh


class TestConstantFolding:
    def test_xor_identities(self):
        bld = CircuitBuilder()
        a = bld.add_alice_inputs(1)[0]
        assert bld.emit_xor(a, a) == CONST_ZERO
        assert bld.emit_xor(a, bld.zero) == a
        assert bld.emit_xor(bld.zero, a) == a
        assert bld.gate_count == 0

    def test_xor_with_one_is_not(self):
        bld = CircuitBuilder()
        a = bld.add_alice_inputs(1)[0]
        n = bld.emit_xor(a, bld.one)
        assert n == bld.emit_not(a)
        assert bld.non_xor_count() == 0

    def test_xor_with_complement_is_one(self):
        bld = CircuitBuilder()
        a = bld.add_alice_inputs(1)[0]
        n = bld.emit_not(a)
        assert bld.emit_xor(a, n) == CONST_ONE

    def test_and_identities(self):
        bld = CircuitBuilder()
        a = bld.add_alice_inputs(1)[0]
        assert bld.emit_and(a, a) == a
        assert bld.emit_and(a, bld.zero) == CONST_ZERO
        assert bld.emit_and(a, bld.one) == a
        assert bld.emit_and(a, bld.emit_not(a)) == CONST_ZERO
        assert bld.non_xor_count() == 0

    def test_or_identities(self):
        bld = CircuitBuilder()
        a = bld.add_alice_inputs(1)[0]
        assert bld.emit_or(a, a) == a
        assert bld.emit_or(a, bld.one) == CONST_ONE
        assert bld.emit_or(a, bld.zero) == a
        assert bld.emit_or(a, bld.emit_not(a)) == CONST_ONE

    def test_andn_identities(self):
        bld = CircuitBuilder()
        a = bld.add_alice_inputs(1)[0]
        assert bld.emit_andn(a, a) == CONST_ZERO
        assert bld.emit_andn(a, bld.zero) == a
        assert bld.emit_andn(a, bld.one) == CONST_ZERO

    def test_double_not_cancels(self):
        bld = CircuitBuilder()
        a = bld.add_alice_inputs(1)[0]
        assert bld.emit_not(bld.emit_not(a)) == a
        assert bld.gate_count == 1  # only one NOT materialized


class TestStructuralHashing:
    def test_duplicate_gate_reused(self):
        bld = CircuitBuilder()
        a, b = bld.add_alice_inputs(2)
        first = bld.emit_and(a, b)
        second = bld.emit_and(a, b)
        assert first == second
        assert bld.non_xor_count() == 1

    def test_commutative_canonicalization(self):
        bld = CircuitBuilder()
        a, b = bld.add_alice_inputs(2)
        assert bld.emit_and(a, b) == bld.emit_and(b, a)
        assert bld.emit_xor(a, b) == bld.emit_xor(b, a)

    def test_hashing_can_be_disabled(self):
        bld = CircuitBuilder(use_structural_hashing=False)
        a, b = bld.add_alice_inputs(2)
        first = bld.emit_and(a, b)
        second = bld.emit_and(a, b)
        assert first != second
        assert bld.non_xor_count() == 2


class TestMux:
    def test_mux_single_and(self):
        bld = CircuitBuilder()
        s, t, f = bld.add_alice_inputs(3)
        bld.mark_output(bld.emit_mux(s, t, f))
        circuit = bld.build()
        assert circuit.counts().non_xor == 1

    def test_mux_same_options_folds(self):
        bld = CircuitBuilder()
        s, t = bld.add_alice_inputs(2)
        assert bld.emit_mux(s, t, t) == t
        assert bld.gate_count == 0

    def test_mux_of_constants_is_free(self):
        bld = CircuitBuilder()
        s = bld.add_alice_inputs(1)[0]
        assert bld.emit_mux(s, bld.one, bld.zero) == s
        not_s = bld.emit_mux(s, bld.zero, bld.one)
        assert not_s == bld.emit_not(s)
        assert bld.non_xor_count() == 0


class TestInputOrdering:
    def test_alice_after_bob_rejected(self):
        bld = CircuitBuilder()
        bld.add_bob_inputs(1)
        with pytest.raises(CircuitError):
            bld.add_alice_inputs(1)

    def test_bob_after_state_rejected(self):
        bld = CircuitBuilder()
        bld.add_state_inputs(1)
        with pytest.raises(CircuitError):
            bld.add_bob_inputs(1)

    def test_inputs_after_gates_rejected(self):
        bld = CircuitBuilder()
        a = bld.add_alice_inputs(2)
        bld.emit_and(a[0], a[1])
        with pytest.raises(CircuitError):
            bld.add_alice_inputs(1)

    def test_negative_count_rejected(self):
        bld = CircuitBuilder()
        with pytest.raises(CircuitError):
            bld.add_alice_inputs(-1)


class TestBusHelpers:
    def test_constant_bus(self):
        bld = CircuitBuilder()
        bus = bld.constant_bus(0b1011, 5)
        assert bus == [CONST_ONE, CONST_ONE, CONST_ZERO, CONST_ONE, CONST_ZERO]

    def test_width_mismatch_rejected(self):
        bld = CircuitBuilder()
        a = bld.add_alice_inputs(3)
        b = bld.add_bob_inputs(2)
        with pytest.raises(CircuitError):
            bld.emit_xor_bus(a, b)

    def test_named_buses_recorded(self):
        bld = CircuitBuilder()
        a = bld.add_alice_inputs(2, name="x")
        bld.mark_output_bus([bld.emit_not(w) for w in a], name="y")
        circuit = bld.build()
        assert circuit.input_names["x"] == a
        assert len(circuit.output_names["y"]) == 2


def leftovers(circuit):
    """What a post-hoc constant-propagation or dedup pass would still find
    in ``circuit``, one count per kind of gate it would fold away."""
    found = dict.fromkeys(
        ("constant", "same", "complement", "not_not", "duplicate"), 0
    )
    negated = {}
    seen = set()
    for gate in circuit.gates:
        operands = (gate.a,) if gate.b is None else (gate.a, gate.b)
        found["constant"] += any(w in (CONST_ZERO, CONST_ONE) for w in operands)
        if gate.b is not None:
            found["same"] += gate.a == gate.b
            found["complement"] += (
                negated.get(gate.a) == gate.b or negated.get(gate.b) == gate.a
            )
        if gate.op is GateType.NOT:
            found["not_not"] += gate.a in negated
            negated[gate.out] = gate.a
        commutative = gate.op is not GateType.ANDN
        key = (gate.op, *(sorted(operands) if commutative else operands))
        found["duplicate"] += key in seen
        seen.add(key)
    return found


NOTHING_LEFT = dict.fromkeys(
    ("constant", "same", "complement", "not_not", "duplicate"), 0
)


def _random_ops(seed, n_gates=120, n_inputs=5):
    rng = random.Random(seed)
    ops = ["xor", "xnor", "and", "or", "nand", "nor", "andn", "not"]
    return [
        (rng.choice(ops), rng.randrange(1 << 16), rng.randrange(1 << 16))
        for _ in range(n_gates)
    ]


def _replay(ops, n_inputs=5, **options):
    """One random operator sequence through a builder with ``options``."""
    bld = CircuitBuilder(**options)
    wires = (
        list(bld.add_alice_inputs(n_inputs))
        + list(bld.add_bob_inputs(n_inputs))
        + [bld.zero, bld.one]
    )
    for op, i, j in ops:
        x, y = wires[i % len(wires)], wires[j % len(wires)]
        if op == "not":
            wires.append(bld.emit_not(x))
        elif op == "xnor":
            wires.append(bld.emit_not(bld.emit_xor(x, y)))
        else:
            wires.append(getattr(bld, f"emit_{op}")(x, y))
    for w in wires[-6:]:
        bld.mark_output(w)
    return bld.build()


class TestTheBuilderIsTheOptimizer:
    """Folding and structural hashing at emission leave a post-hoc pass
    nothing to remove, and change no output."""

    @pytest.mark.parametrize("seed", range(6))
    def test_folding_and_hashing_preserve_semantics(self, seed):
        ops = _random_ops(seed)
        raw = _replay(ops, use_structural_hashing=False, fold_constants=False)
        built = _replay(ops)
        assert built.counts().non_xor <= raw.counts().non_xor
        assert leftovers(built) == NOTHING_LEFT
        rng = random.Random(seed + 99)
        for _ in range(40):
            a = [rng.randrange(2) for _ in range(5)]
            b = [rng.randrange(2) for _ in range(5)]
            assert simulate(built, a, b) == simulate(raw, a, b)

    def test_unfolded_builds_keep_what_a_pass_would_find(self):
        # the fixpoint checks are not vacuous: emitted verbatim, each kind
        # of leftover shows; through the default builder none does
        def emit(bld):
            a, b = bld.add_alice_inputs(2)
            outs = [
                bld.emit_and(a, bld.zero),
                bld.emit_or(a, a),
                bld.emit_and(a, bld.emit_not(a)),
                bld.emit_not(bld.emit_not(b)),
                bld.emit_and(a, b),
                bld.emit_and(b, a),
            ]
            for w in outs:
                bld.mark_output(w)
            return bld.build()

        raw = emit(CircuitBuilder(use_structural_hashing=False, fold_constants=False))
        # a double negation cancels even unfolded (TestConstantFolding)
        assert leftovers(raw) == {
            "constant": 1, "same": 1, "complement": 1, "not_not": 0, "duplicate": 1,
        }
        built = emit(CircuitBuilder())
        assert leftovers(built) == NOTHING_LEFT
        for a in range(2):
            for b in range(2):
                assert simulate(built, [a, b], []) == simulate(raw, [a, b], [])

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_activation_component_is_a_fixpoint(self, name):
        circuit = activation_component(name, FixedPointFormat(2, 6))
        assert circuit.counts().non_xor > 0
        assert leftovers(circuit) == NOTHING_LEFT

    @pytest.mark.parametrize("activation", ["exact", "cordic", "piecewise"])
    def test_compiled_net_is_a_fixpoint(self, activation):
        model = Sequential([Dense(6), Tanh(), Dense(3)], input_shape=(10,), seed=1)
        fmt = FixedPointFormat(2, 6)
        quantized = QuantizedModel(model, fmt, activation_variant=activation)
        circuit = compile_model(
            quantized, CompileOptions(activation=activation)
        ).circuit
        assert leftovers(circuit) == NOTHING_LEFT
