"""Tests for the folded dense layer, cut-and-choose, and the service API."""

import random

import numpy as np
import pytest

from repro.circuits import CircuitBuilder, FixedPointFormat
from repro.compile import folded_mac_cell, run_folded_dense
from repro.engine import EngineConfig
from repro.errors import CompileError, GarblingError
from repro.gc import CutAndChooseGarbler, Evaluator, verify_opened_copy
from repro.gc.ot import TEST_GROUP_512
from repro.nn import Dense, Sequential, Tanh, TrainConfig, Trainer, fixed_mul
from repro.service import PrivateInferenceService


FMT = FixedPointFormat(2, 6)


class TestFoldedDense:
    def test_cell_constant_size(self):
        """The cell does not grow with the layer it folds; only its
        accumulator does — one bit per doubling of fan-in, five gates
        per bit."""
        cells = {f: folded_mac_cell(FMT, fan_in=f) for f in (4, 64, 1024)}
        assert {f: c.n_state for f, c in cells.items()} == {
            4: 15, 64: 19, 1024: 23
        }
        assert {f: len(c.core.gates) for f, c in cells.items()} == {
            4: 544, 64: 564, 1024: 584
        }

    def test_cell_is_built_once_per_format_and_fan_in(self):
        cell = folded_mac_cell(FMT, fan_in=5)
        assert folded_mac_cell(FMT, fan_in=5) is cell
        assert folded_mac_cell(FMT, fan_in=6) is not cell
        assert folded_mac_cell(FixedPointFormat(2, 5), fan_in=5) is not cell

    def test_folded_matches_reference(self):
        rng = np.random.default_rng(0)
        in_dim, out_dim = 5, 3
        x = FMT.encode_array(rng.uniform(-1, 1, size=in_dim))
        w = FMT.encode_array(rng.uniform(-1, 1, size=(in_dim, out_dim)))
        result = run_folded_dense(
            list(x), w, FMT, ot_group=TEST_GROUP_512, rng=random.Random(1)
        )
        reference = fixed_mul(x[:, None], w, FMT.frac_bits).sum(axis=0)
        assert result.outputs == list(reference)
        assert result.cycles == in_dim * out_dim

    def test_comm_scales_with_cycles_not_layer(self):
        """Sec. 3.5: per-cycle table traffic is constant; total traffic
        is cycles x constant, while the *netlist* stays fixed-size."""
        rng = np.random.default_rng(1)
        x4 = FMT.encode_array(rng.uniform(-1, 1, size=4))
        w4 = FMT.encode_array(rng.uniform(-1, 1, size=(4, 1)))
        x8 = FMT.encode_array(rng.uniform(-1, 1, size=8))
        w8 = FMT.encode_array(rng.uniform(-1, 1, size=(8, 1)))
        r4 = run_folded_dense(list(x4), w4, FMT, ot_group=TEST_GROUP_512,
                              rng=random.Random(2))
        r8 = run_folded_dense(list(x8), w8, FMT, ot_group=TEST_GROUP_512,
                              rng=random.Random(3))
        # the core grows only with log2(fan_in) (one accumulator bit),
        # not with the layer size — the Sec. 3.5 memory-footprint claim
        assert r8.core_gates - r4.core_gates <= 8
        assert r8.comm_bytes > r4.comm_bytes

    def test_width_mismatch_rejected(self):
        with pytest.raises(CompileError):
            run_folded_dense([1, 2], np.zeros((3, 1)), FMT)

    def test_bad_fan_in_rejected(self):
        with pytest.raises(CompileError):
            folded_mac_cell(FMT, fan_in=0)


def _demo_circuit():
    bld = CircuitBuilder()
    a = bld.add_alice_inputs(3)
    b = bld.add_bob_inputs(3)
    x = bld.emit_and(a[0], b[0])
    y = bld.emit_or(a[1], b[1])
    bld.mark_output(bld.emit_xor(x, y))
    bld.mark_output(bld.emit_and(a[2], b[2]))
    return bld.build()


class TestCutAndChoose:
    def test_honest_garbler_passes_all_opens(self):
        circuit = _demo_circuit()
        garbler = CutAndChooseGarbler(circuit, copies=4, rng=random.Random(1))
        commitments = garbler.commitments()
        tables = garbler.tables()
        challenge = [0, 2, 3]
        for opened in garbler.open(challenge):
            assert verify_opened_copy(
                circuit, opened, commitments[opened.index], tables[opened.index]
            )

    def test_tampered_tables_detected(self):
        circuit = _demo_circuit()
        garbler = CutAndChooseGarbler(circuit, copies=3, rng=random.Random(2))
        commitments = garbler.commitments()
        tables = garbler.tables()
        corrupted = bytearray(tables[1])
        corrupted[0] ^= 0xFF
        opened = garbler.open([1])[0]
        assert not verify_opened_copy(
            circuit, opened, commitments[1], bytes(corrupted)
        )

    def test_wrong_seed_detected(self):
        from repro.gc.cutandchoose import OpenedCopy

        circuit = _demo_circuit()
        garbler = CutAndChooseGarbler(circuit, copies=3, rng=random.Random(3))
        commitments = garbler.commitments()
        tables = garbler.tables()
        lying = OpenedCopy(index=0, seed=garbler.seeds[0] ^ 1)
        assert not verify_opened_copy(circuit, lying, commitments[0], tables[0])

    def test_surviving_copy_evaluates_correctly(self):
        from repro.circuits import simulate

        circuit = _demo_circuit()
        cnc = CutAndChooseGarbler(circuit, copies=3, rng=random.Random(4))
        surviving = 1
        garbler = cnc.evaluation_garbler(surviving)
        garbled = cnc.garbled[surviving]
        evaluator = Evaluator(circuit)
        a_bits, b_bits = [1, 0, 1], [1, 1, 1]
        alice = garbler.input_labels_for(list(circuit.alice_inputs), a_bits)
        bob = [garbler.labels.select(w, v)
               for w, v in zip(circuit.bob_inputs, b_bits)]
        wires = evaluator.evaluate(garbled, alice, bob)
        got = garbler.decode_outputs(evaluator.output_labels(wires))
        assert got == simulate(circuit, a_bits, b_bits)

    def test_cannot_open_everything(self):
        garbler = CutAndChooseGarbler(_demo_circuit(), copies=3,
                                      rng=random.Random(5))
        with pytest.raises(GarblingError):
            garbler.open([0, 1, 2])

    def test_too_few_copies_rejected(self):
        with pytest.raises(GarblingError):
            CutAndChooseGarbler(_demo_circuit(), copies=1)

    def test_deterministic_regarble(self):
        """Same seed -> identical ciphertexts (what makes opening work)."""
        from repro.gc.cutandchoose import _garble_from_seed
        from repro.gc.cipher import default_kdf

        circuit = _demo_circuit()
        _, one = _garble_from_seed(circuit, 12345, default_kdf())
        _, two = _garble_from_seed(circuit, 12345, default_kdf())
        assert one.tables_bytes() == two.tables_bytes()
        _, other = _garble_from_seed(circuit, 54321, default_kdf())
        assert one.tables_bytes() != other.tables_bytes()


class TestService:
    @pytest.fixture(scope="class")
    def service(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, size=(400, 8))
        w = rng.normal(size=(8, 3))
        y = (x @ w).argmax(axis=1)
        model = Sequential([Dense(5), Tanh(), Dense(3)], input_shape=(8,), seed=1)
        Trainer(model, TrainConfig(epochs=20, learning_rate=0.2)).fit(x, y)
        service = PrivateInferenceService(
            model,
            EngineConfig(
                fmt=FMT,
                activation="exact",
                ot_group=TEST_GROUP_512,
                rng=random.Random(6),
                history_limit=512,
            ),
        )
        return service, x

    def test_infer_matches_cleartext(self, service):
        svc, x = service
        record = svc.infer(x[0])
        assert record.label == svc.cleartext_label(x[0])
        assert record.comm_bytes > 0
        assert record.wall_seconds > 0

    def test_outsourced_inference(self, service):
        svc, x = service
        record = svc.infer(x[1], backend="outsourced")
        assert record.backend == "outsourced"
        assert record.label == svc.cleartext_label(x[1])

    def test_batch(self, service):
        svc, x = service
        labels = svc.infer_batch(x[:2])
        assert labels == [svc.cleartext_label(x[0]), svc.cleartext_label(x[1])]

    def test_history_recorded(self, service):
        svc, x = service
        before = len(svc.history)
        svc.infer(x[2])
        assert len(svc.history) == before + 1

    def test_cost_estimate_scales(self, service):
        svc, _ = service
        one = svc.cost_estimate(1)
        ten = svc.cost_estimate(10)
        assert ten.comm_bytes == pytest.approx(10 * one.comm_bytes)
        assert ten.execution_s == pytest.approx(10 * one.execution_s)

    def test_summary(self, service):
        svc, _ = service
        assert "non-XOR" in svc.circuit_summary

    def test_logits_output_rejected(self, service):
        svc, _ = service
        rng = np.random.default_rng(0)
        model = Sequential([Dense(2)], input_shape=(2,), seed=0)
        with pytest.raises(CompileError):
            PrivateInferenceService(
                model,
                EngineConfig(fmt=FMT, activation="exact", output="logits"),
            )
