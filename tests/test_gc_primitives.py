"""GC primitive tests: cipher backends, labels, half-gates garbling."""

import itertools
import random

import pytest

from repro.circuits import CircuitBuilder, simulate
from repro.errors import ChannelIntegrityError, GarblingError
from repro.gc import Evaluator, Garbler, LabelStore, make_channel_pair
from repro.gc.cipher import FixedKeyAES, HashKDF
from repro.gc.labels import permute_bit, random_delta, random_label
from repro.gc.messages import ALICE_LABELS, CONST_LABELS, TABLES, Shape
from repro.gc.protocol import receive_garbled


class TestCipherBackends:
    def test_aes_fips197_vector(self):
        aes = FixedKeyAES(bytes(range(16)))
        ct = aes.encrypt_block(bytes.fromhex("00112233445566778899aabbccddeeff"))
        assert ct.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_aes_key_length_checked(self):
        with pytest.raises(ValueError):
            FixedKeyAES(b"short")

    def test_hash_deterministic(self):
        kdf = HashKDF()
        assert kdf.hash(12345, 7) == kdf.hash(12345, 7)

    def test_hash_tweak_separates(self):
        kdf = HashKDF()
        assert kdf.hash(12345, 7) != kdf.hash(12345, 8)

    def test_hash_label_separates(self):
        for kdf in (HashKDF(), FixedKeyAES()):
            assert kdf.hash(1, 0) != kdf.hash(2, 0)

    def test_outputs_are_128_bit(self):
        for kdf in (HashKDF(), FixedKeyAES()):
            assert 0 <= kdf.hash(2 ** 127, 3) < 2 ** 128

    def test_gf_doubling_reduces(self):
        top = 1 << 127
        doubled = FixedKeyAES._double(top)
        assert doubled < 2 ** 128
        assert doubled == 0x87  # x^128 = x^7+x^2+x+1


class TestLabels:
    def test_delta_lsb_forced(self):
        rng = random.Random(1)
        for _ in range(20):
            assert random_delta(rng) & 1 == 1

    def test_select_and_decode(self, rng):
        store = LabelStore(rng=rng)
        store.assign_fresh(5)
        assert store.decode_bit(5, store.select(5, 0)) == 0
        assert store.decode_bit(5, store.select(5, 1)) == 1

    def test_decode_foreign_label_rejected(self, rng):
        store = LabelStore(rng=rng)
        store.assign_fresh(5)
        with pytest.raises(GarblingError):
            store.decode_bit(5, random_label(rng))

    def test_unassigned_wire_rejected(self, rng):
        store = LabelStore(rng=rng)
        with pytest.raises(GarblingError):
            store.zero(99)

    def test_even_delta_rejected(self):
        with pytest.raises(GarblingError):
            LabelStore(delta=2 ** 64)

    def test_labels_differ_by_delta(self, rng):
        store = LabelStore(rng=rng)
        store.assign_fresh(1)
        assert store.zero(1) ^ store.one(1) == store.delta

    def test_permute_bits_complementary(self, rng):
        store = LabelStore(rng=rng)
        store.assign_fresh(1)
        assert permute_bit(store.zero(1)) != permute_bit(store.one(1))


def _gate_circuit():
    bld = CircuitBuilder(fold_constants=False, use_structural_hashing=False)
    a = bld.add_alice_inputs(2)
    b = bld.add_bob_inputs(2)
    outs = [
        bld.emit_xor(a[0], b[0]),
        bld.emit_not(bld.emit_xor(a[0], b[0])),
        bld.emit_not(a[0]),
        bld.emit_and(a[0], b[0]),
        bld.emit_or(a[0], b[0]),
        bld.emit_nand(a[0], b[0]),
        bld.emit_nor(a[0], b[0]),
        bld.emit_andn(a[0], b[0]),
        bld.emit_mux(a[1], b[0], b[1]),
    ]
    bld.mark_output_bus(outs)
    return bld.build()


class TestGarbleEvaluate:
    @pytest.mark.parametrize("kdf_cls", [HashKDF, FixedKeyAES])
    def test_all_gate_types_all_inputs(self, kdf_cls):
        circuit = _gate_circuit()
        kdf = kdf_cls()
        rng = random.Random(3)
        for abits in itertools.product((0, 1), repeat=2):
            for bbits in itertools.product((0, 1), repeat=2):
                garbler = Garbler(circuit, kdf=kdf, rng=rng)
                garbled = garbler.garble()
                evaluator = Evaluator(circuit, kdf=kdf)
                alice = garbler.input_labels_for(list(circuit.alice_inputs), abits)
                bob = [garbler.labels.select(w, v)
                       for w, v in zip(circuit.bob_inputs, bbits)]
                wires = evaluator.evaluate(garbled, alice, bob)
                got = garbler.decode_outputs(evaluator.output_labels(wires))
                assert got == simulate(circuit, list(abits), list(bbits))

    def test_free_xor_produces_no_tables(self, rng):
        bld = CircuitBuilder()
        a = bld.add_alice_inputs(4)
        x = a[0]
        for w in a[1:]:
            x = bld.emit_xor(x, w)
        bld.mark_output(bld.emit_not(x))
        circuit = bld.build()
        garbled = Garbler(circuit, rng=rng).garble()
        assert len(garbled.tables) == 0
        assert garbled.size_bytes == 0

    def test_table_bytes_two_rows_per_non_xor(self, rng):
        circuit = _gate_circuit()
        garbled = Garbler(circuit, rng=rng).garble()
        non_xor = circuit.counts().non_xor
        assert len(garbled.tables) == non_xor
        assert len(garbled.tables_bytes()) == 32 * non_xor

    def test_bad_blob_rejected(self):
        """A tables blob that is not 32 bytes per non-free gate of the
        netlist is refused where the evaluator rebuilds its view."""
        alice, bob, _ = make_channel_pair()
        TABLES.send(alice, b"short")
        CONST_LABELS.send_labels(alice, [1, 2])
        ALICE_LABELS.send_labels(alice, [3])
        with pytest.raises(ChannelIntegrityError, match="carries 5 bytes; its shape fixes 64"):
            receive_garbled(bob, Shape(non_xor=2, n_alice=1))

    def test_evaluator_wrong_label_count_rejected(self, rng):
        circuit = _gate_circuit()
        garbled = Garbler(circuit, rng=rng).garble()
        with pytest.raises(GarblingError):
            Evaluator(circuit).evaluate(garbled, [1], [2, 3])

    def test_decode_wrong_count_rejected(self, rng):
        circuit = _gate_circuit()
        garbler = Garbler(circuit, rng=rng)
        garbler.garble()
        with pytest.raises(GarblingError):
            garbler.decode_outputs([1, 2])

    def test_evaluator_sees_single_labels_only(self, rng):
        """The evaluator's wire labels are one of the two valid labels,
        never both — spot-check the invariant on every wire (of the
        reference store, which keeps them all)."""
        circuit = _gate_circuit()
        garbler = Garbler(circuit, label_store=LabelStore(rng=rng))
        garbled = garbler.garble()
        evaluator = Evaluator(circuit)
        alice = garbler.input_labels_for(list(circuit.alice_inputs), [1, 0])
        bob = [garbler.labels.select(w, 1) for w in circuit.bob_inputs]
        wires = evaluator.evaluate(garbled, alice, bob)
        for wire, label in wires.items():
            assert label in (garbler.labels.zero(wire), garbler.labels.one(wire))

    def test_decode_with_bits_when_shared(self, rng):
        circuit = _gate_circuit()
        garbler = Garbler(circuit, rng=rng)
        garbled = garbler.garble()
        evaluator = Evaluator(circuit)
        alice = garbler.input_labels_for(list(circuit.alice_inputs), [0, 1])
        bob = [garbler.labels.select(w, 1) for w in circuit.bob_inputs]
        wires = evaluator.evaluate(garbled, alice, bob)
        local = evaluator.decode_with_bits(wires, garbled.decode_bits)
        assert local == garbler.decode_outputs(evaluator.output_labels(wires))
