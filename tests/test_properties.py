"""Cross-cutting property-based tests (hypothesis).

These tie whole subsystems together: random circuits evaluated under the
garbled protocol must match the plaintext simulator; serialization and
optimization must be semantics-preserving; the free-XOR label algebra
must hold on every wire of a garbled circuit.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import (
    CircuitBuilder,
    dumps_bristol,
    loads_bristol,
    simulate,
)
from repro.gc import Evaluator, Garbler
from repro.gc.ot import TEST_GROUP_512
from repro.gc.protocol import execute
from repro.synthesis import optimize


@st.composite
def circuits(draw, max_gates=40, n_inputs=4):
    """Random (unoptimized) circuits plus matching random inputs."""
    n_gates = draw(st.integers(5, max_gates))
    seed = draw(st.integers(0, 2 ** 16))
    rng = random.Random(seed)
    bld = CircuitBuilder(use_structural_hashing=False, fold_constants=False)
    a = bld.add_alice_inputs(n_inputs)
    b = bld.add_bob_inputs(n_inputs)
    wires = list(a) + list(b) + [bld.zero, bld.one]
    ops = ["xor", "xnor", "and", "or", "nand", "nor", "andn", "not"]
    for _ in range(n_gates):
        op = rng.choice(ops)
        x = rng.choice(wires)
        if op == "not":
            wires.append(bld.emit_not(x))
        else:
            wires.append(getattr(bld, f"emit_{op}")(x, rng.choice(wires)))
    for w in wires[-4:]:
        bld.mark_output(w)
    circuit = bld.build()
    alice = [draw(st.integers(0, 1)) for _ in range(n_inputs)]
    bob = [draw(st.integers(0, 1)) for _ in range(n_inputs)]
    return circuit, alice, bob


class TestProtocolEquivalence:
    @given(circuits())
    @settings(max_examples=12, deadline=None)
    def test_gc_equals_simulation(self, case):
        circuit, alice, bob = case
        result = execute(
            circuit, alice, bob, ot_group=TEST_GROUP_512, rng=random.Random(1)
        )
        assert result.outputs == simulate(circuit, alice, bob)

    @given(circuits())
    @settings(max_examples=10, deadline=None)
    def test_optimized_circuit_same_gc_result(self, case):
        circuit, alice, bob = case
        optimized, _ = optimize(circuit)
        direct = execute(
            circuit, alice, bob, ot_group=TEST_GROUP_512, rng=random.Random(2)
        )
        opt = execute(
            optimized, alice, bob, ot_group=TEST_GROUP_512, rng=random.Random(3)
        )
        assert direct.outputs == opt.outputs

    @given(circuits())
    @settings(max_examples=10, deadline=None)
    def test_bristol_roundtrip_property(self, case):
        circuit, alice, bob = case
        recovered = loads_bristol(dumps_bristol(circuit))
        assert simulate(recovered, alice, bob) == simulate(circuit, alice, bob)


class TestFreeXorAlgebra:
    @given(circuits(max_gates=25))
    @settings(max_examples=10, deadline=None)
    def test_every_wire_label_is_zero_or_one_label(self, case):
        circuit, alice, bob = case
        garbler = Garbler(circuit, rng=random.Random(4))
        garbled = garbler.garble()
        evaluator = Evaluator(circuit)
        alice_labels = garbler.input_labels_for(list(circuit.alice_inputs), alice)
        bob_labels = [
            garbler.labels.select(w, v)
            for w, v in zip(circuit.bob_inputs, bob)
        ]
        wires = evaluator.evaluate(garbled, alice_labels, bob_labels)
        delta = garbler.labels.delta
        values = simulate(circuit, alice, bob)
        by_wire = dict(zip(circuit.outputs, values))
        for wire, label in wires.items():
            zero = garbler.labels.zero(wire)
            assert label in (zero, zero ^ delta)
            # the semantic bit is encoded in the delta offset
            if wire in by_wire:
                assert (label == zero ^ delta) == bool(by_wire[wire])

    @given(circuits(max_gates=25))
    @settings(max_examples=8, deadline=None)
    def test_xor_wires_need_no_tables(self, case):
        circuit, _, _ = case
        garbled = Garbler(circuit, rng=random.Random(5)).garble()
        assert len(garbled.tables) == circuit.counts().non_xor


class TestOptimizerProperties:
    @given(circuits())
    @settings(max_examples=10, deadline=None)
    def test_optimize_never_increases_tables(self, case):
        circuit, _, _ = case
        optimized, report = optimize(circuit)
        assert optimized.counts().non_xor <= circuit.counts().non_xor
        assert report.non_xor_saved >= 0

    @given(circuits())
    @settings(max_examples=8, deadline=None)
    def test_optimize_idempotent(self, case):
        circuit, _, _ = case
        once, _ = optimize(circuit)
        twice, _ = optimize(once)
        assert len(twice.gates) == len(once.gates)


class TestFailureInjection:
    def _garbled_setup(self, seed=6, kdf=None):
        bld = CircuitBuilder()
        a = bld.add_alice_inputs(3)
        b = bld.add_bob_inputs(3)
        x = bld.emit_and(a[0], b[0])
        y = bld.emit_and(a[1], b[1])
        bld.mark_output(bld.emit_and(x, y))
        circuit = bld.build()
        garbler = Garbler(circuit, kdf=kdf, rng=random.Random(seed))
        garbled = garbler.garble()
        return circuit, garbler, garbled

    def test_corrupted_table_breaks_decode(self):
        """Flipping a ciphertext bit must not silently change the result:
        the evaluator's output label stops being a valid label, which the
        garbler's merge step rejects."""
        from repro.errors import GarblingError
        from repro.gc.garble import GarbledGate

        circuit, garbler, garbled = self._garbled_setup()
        corrupted = list(garbled.tables)
        corrupted[0] = GarbledGate(
            tg=corrupted[0].tg ^ (1 << 64), te=corrupted[0].te
        )
        garbled.tables = corrupted
        evaluator = Evaluator(circuit)
        alice = garbler.input_labels_for(list(circuit.alice_inputs), [1, 1, 0])
        bob = [garbler.labels.select(w, 1) for w in circuit.bob_inputs]
        wires = evaluator.evaluate(garbled, alice, bob)
        outs = evaluator.output_labels(wires)
        with pytest.raises(GarblingError):
            garbler.decode_outputs(outs)

    def test_kdf_mismatch_breaks_decode(self):
        from repro.errors import GarblingError
        from repro.gc.cipher import FixedKeyAES, HashKDF

        # both oracles named: the test must not depend on the default
        circuit, garbler, garbled = self._garbled_setup(kdf=FixedKeyAES())
        evaluator = Evaluator(circuit, kdf=HashKDF())  # wrong oracle
        alice = garbler.input_labels_for(list(circuit.alice_inputs), [1, 0, 1])
        bob = [garbler.labels.select(w, 0) for w in circuit.bob_inputs]
        wires = evaluator.evaluate(garbled, alice, bob)
        with pytest.raises(GarblingError):
            garbler.decode_outputs(evaluator.output_labels(wires))

    def test_wrong_input_label_breaks_decode(self):
        from repro.errors import GarblingError
        from repro.gc.labels import random_label

        circuit, garbler, garbled = self._garbled_setup()
        evaluator = Evaluator(circuit)
        alice = garbler.input_labels_for(list(circuit.alice_inputs), [1, 1, 1])
        alice[0] = random_label(random.Random(9))  # junk label
        bob = [garbler.labels.select(w, 1) for w in circuit.bob_inputs]
        wires = evaluator.evaluate(garbled, alice, bob)
        with pytest.raises(GarblingError):
            garbler.decode_outputs(evaluator.output_labels(wires))

    def test_truncated_tables_detected(self):
        from repro.errors import GarblingError

        circuit, garbler, garbled = self._garbled_setup()
        garbled.tables = garbled.tables[:-1]
        evaluator = Evaluator(circuit)
        alice = garbler.input_labels_for(list(circuit.alice_inputs), [0, 0, 0])
        bob = [garbler.labels.select(w, 0) for w in circuit.bob_inputs]
        with pytest.raises(GarblingError):
            evaluator.evaluate(garbled, alice, bob)


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        import repro.errors as errors

        for name in errors.__dict__:
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError) or obj is errors.ReproError

    def test_catching_base_catches_all(self):
        from repro.errors import CircuitError, ReproError

        with pytest.raises(ReproError):
            raise CircuitError("x")


class TestCiphertextUniformity:
    """Garbled tables should be computationally indistinguishable from
    random; a coarse statistical check catches gross structure leaks
    (e.g. key reuse or constant rows)."""

    def test_table_bytes_roughly_uniform(self):
        import collections

        bld = CircuitBuilder()
        a = bld.add_alice_inputs(8)
        b = bld.add_bob_inputs(8)
        wires = list(a)
        for i in range(400):
            wires.append(bld.emit_and(wires[i % len(wires)], b[i % 8]))
        bld.mark_output(wires[-1])
        circuit = bld.build()
        garbled = Garbler(circuit, rng=random.Random(11)).garble()
        blob = garbled.tables_bytes()
        counts = collections.Counter(blob)
        expected = len(blob) / 256
        chi2 = sum((counts.get(v, 0) - expected) ** 2 / expected
                   for v in range(256))
        # 255 dof: mean 255, sd ~22.6; 400 is a ~6-sigma bound
        assert chi2 < 400, chi2

    def test_tables_differ_across_runs(self):
        bld = CircuitBuilder()
        a = bld.add_alice_inputs(4)
        b = bld.add_bob_inputs(4)
        bld.mark_output(bld.emit_and(a[0], b[0]))
        circuit = bld.build()
        one = Garbler(circuit, rng=random.Random(1)).garble().tables_bytes()
        two = Garbler(circuit, rng=random.Random(2)).garble().tables_bytes()
        assert one != two

    def test_same_seed_same_tables(self):
        bld = CircuitBuilder()
        a = bld.add_alice_inputs(4)
        b = bld.add_bob_inputs(4)
        bld.mark_output(bld.emit_and(a[0], b[0]))
        circuit = bld.build()
        one = Garbler(circuit, rng=random.Random(7)).garble().tables_bytes()
        two = Garbler(circuit, rng=random.Random(7)).garble().tables_bytes()
        assert one == two
