"""Tests for the folded dense layer, cut-and-choose, and the service API."""

import hashlib
import math
import random

import numpy as np
import pytest

from repro.circuits import CircuitBuilder, FixedPointFormat
from repro.compile import folded_mac_cell, run_folded_dense
from repro.compile.folded import MAC_FOLD
from repro.engine import EngineConfig
from repro.errors import CompileError, GarblingError
from repro.gc import (
    CutAndChooseGarbler,
    Evaluator,
    SequentialSession,
    verify_opened_copy,
)
from repro.gc.ot import TEST_GROUP_512
from repro.gc.ot_extension import IKNPState
from repro.nn import Dense, Sequential, Tanh, TrainConfig, Trainer, fixed_mul
from repro.service import PrivateInferenceService


FMT = FixedPointFormat(2, 6)


@pytest.fixture
def folded_frames(monkeypatch, recording_channels):
    """The ``(tag, payload)`` of every frame the sessions inside
    ``run_folded_dense`` (which takes no channel factory) send."""
    factory, frames = recording_channels
    monkeypatch.setattr(
        "repro.gc.protocol.default_channel_factory", lambda: factory
    )
    return frames


def _wire_bytes(frames):
    """What ``ChannelStats`` charges: payload plus the length prefix."""
    return sum(len(payload) + 4 for _, payload in frames)


class TestFoldedDense:
    def test_cell_constant_size(self):
        """The cell does not grow with the layer it folds; only its
        accumulator does — one bit per doubling of fan-in, seven gates
        per bit — whether it clocks one MAC (the paper's point) or the
        default ``MAC_FOLD`` of them on one carry propagation."""
        one_mac = {4: 454, 64: 482, 1024: 510}
        cells = {f: folded_mac_cell(FMT, fan_in=f, fold=1) for f in one_mac}
        assert {f: c.n_state for f, c in cells.items()} == {
            4: 15, 64: 19, 1024: 23
        }
        assert {f: len(c.core.gates) for f, c in cells.items()} == one_mac
        wide = {}
        for fan_in in (16, 64, 1024):
            base = folded_mac_cell(FMT, fan_in=fan_in, fold=1)
            cell = folded_mac_cell(FMT, fan_in=fan_in)
            assert cell.n_state == base.n_state
            assert cell.core.n_alice == cell.core.n_bob == MAC_FOLD * FMT.width
            # the lanes share the heap's one propagation
            assert (
                cell.core.counts().non_xor
                < MAC_FOLD * base.core.counts().non_xor
            )
            wide[fan_in] = len(cell.core.gates)
        assert wide[64] - wide[16] == 2 * 7
        assert wide[1024] - wide[64] == 4 * 7

    @pytest.mark.parametrize("fold", [2, 3, 8])
    def test_a_clock_of_u_lanes_is_u_clocks_of_one(self, fold):
        """Any operand bits, the pattern ``-2**(width-1)`` included: the
        wide cell's register after ``n`` clocks is the one-MAC cell's
        after ``fold * n``."""
        one = folded_mac_cell(FMT, fan_in=24, fold=1)
        wide = folded_mac_cell(FMT, fan_in=24, fold=fold)
        rng = random.Random(fold)
        n = 3

        def words():
            return [
                [rng.getrandbits(1) for _ in range(FMT.width)]
                for _ in range(fold * n)
            ]

        def clocks(per_cycle):
            return [
                [bit for word in per_cycle[c * fold:(c + 1) * fold] for bit in word]
                for c in range(n)
            ]

        alice, bob = words(), words()
        # the cell's output is its accumulator after the clock
        assert wide.run(clocks(alice), clocks(bob), cycles=n)[-1] == (
            one.run(alice, bob, cycles=fold * n)[-1]
        )

    def test_products_wider_than_the_io_format(self):
        """The cell used to wrap each product at the I/O width:
        ``3.0 * 3.0`` at 1.3.12 came back as ``-26 624`` for 38 912."""
        fmt = FixedPointFormat(3, 12)
        x = fmt.encode_array([3.0, 1.0])
        w = fmt.encode_array([[3.0, -3.0], [0.5, 0.5]])
        assert int(fixed_mul(x[0], w[0, 0], fmt.frac_bits)) >= 1 << (fmt.width - 1)
        reference = fixed_mul(x[:, None], w, fmt.frac_bits).sum(axis=0)
        assert list(reference) == [38_912, -34_816]
        for fold in (1, MAC_FOLD):
            result = run_folded_dense(
                list(x), w, fmt, ot_group=TEST_GROUP_512,
                rng=random.Random(fold), fold=fold,
            )
            assert result.outputs == list(reference)

    def test_operands_outside_the_symmetric_range_rejected(self):
        low = -(1 << (FMT.width - 1))
        with pytest.raises(CompileError, match="operands must lie in"):
            run_folded_dense([low], np.array([[1]]), FMT, ot_group=TEST_GROUP_512)
        with pytest.raises(CompileError, match="operands must lie in"):
            run_folded_dense([1], np.array([[low]]), FMT, ot_group=TEST_GROUP_512)

    def test_cell_is_built_once_per_format_and_fan_in(self):
        cell = folded_mac_cell(FMT, fan_in=5)
        assert folded_mac_cell(FMT, fan_in=5) is cell
        assert folded_mac_cell(FMT, fan_in=6) is not cell
        assert folded_mac_cell(FixedPointFormat(2, 5), fan_in=5) is not cell

    def test_memo_keys_on_the_resolved_fold(self):
        """However the default is spelled it is one cached cell — and a
        fold above the fan-in is the fan-in."""
        cell = folded_mac_cell(FMT, fan_in=16)
        assert folded_mac_cell(FMT, 16, MAC_FOLD) is cell
        assert folded_mac_cell(FMT, fan_in=16, fold=MAC_FOLD) is cell
        assert folded_mac_cell(FMT, fan_in=16, fold=1) is not cell
        assert folded_mac_cell(FMT, fan_in=3, fold=64) is folded_mac_cell(
            FMT, fan_in=3, fold=3
        )

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
        lanes = min(MAC_FOLD, in_dim)
        assert result.cycles == out_dim * math.ceil(in_dim / lanes)

    @pytest.mark.parametrize("fold", [1, 2, 8])
    @pytest.mark.parametrize("out_dim", [1, 3])
    @pytest.mark.parametrize("in_dim", [1, 5, 8, 16, 19])
    def test_every_fold_computes_the_dot_product(
        self, folded_frames, base_batches, in_dim, out_dim, fold
    ):
        """19 and 5 leave spare lanes in the tail cycle (fed zero words);
        every tables frame is the cell's, and a call pays one base OT."""
        rng = np.random.default_rng(in_dim * 10 + out_dim)
        x = FMT.encode_array(rng.uniform(-1, 1, size=in_dim))
        w = FMT.encode_array(rng.uniform(-1, 1, size=(in_dim, out_dim)))
        result = run_folded_dense(
            list(x), w, FMT, ot_group=TEST_GROUP_512,
            rng=random.Random(fold), fold=fold,
        )
        reference = fixed_mul(x[:, None], w, FMT.frac_bits).sum(axis=0)
        assert result.outputs == list(reference)
        lanes = min(fold, in_dim)
        assert result.cycles == out_dim * math.ceil(in_dim / lanes)
        cell = folded_mac_cell(FMT, fan_in=in_dim, fold=fold)
        tables = [len(p) + 4 for tag, p in folded_frames if tag == "tables"]
        assert tables == [32 * cell.core.counts().non_xor + 4] * result.cycles
        assert _wire_bytes(folded_frames) == result.comm_bytes
        # the partial sums stay with the evaluator: one merge per unit
        tags = [tag for tag, _ in folded_frames]
        assert tags.count("output_labels") == out_dim
        assert base_batches == [1]

    def test_fold_of_one_is_the_one_mac_protocol_byte_for_byte(
        self, folded_frames
    ):
        """``fold=1`` against the loop ``run_folded_dense`` was before it
        took a fold (kept here as the reference): one word per cycle,
        every cycle merged.  Same rng -> the same frames, byte for byte
        (tables, constant labels, input labels, OT flights), except
        that the partial sums' ``output_labels`` no longer cross."""
        fmt = FixedPointFormat(3, 12)  # the layered benchmark's operands
        operands = np.random.default_rng(0)
        x = fmt.encode_array(operands.uniform(-1, 1, size=(8, 16)))[0]
        w = fmt.encode_array(operands.uniform(-1, 1, size=(8, 16)))[0]
        frames = folded_frames

        def word_bits(value):
            pattern = int(value) & ((1 << fmt.width) - 1)
            return [(pattern >> i) & 1 for i in range(fmt.width)]

        rng = random.Random(0)
        cell = folded_mac_cell(fmt, fan_in=16, fold=1)
        session = SequentialSession(
            cell, ot_group=TEST_GROUP_512, rng=rng,
            ot_state=IKNPState(group=TEST_GROUP_512, rng=rng),
        )
        reference = session.run(
            [word_bits(v) for v in x], [word_bits(v) for v in w], cycles=16
        )
        reference_frames, frames[:] = list(frames), []
        # 278 336 under the length-prefixed pair layout; the plane layout
        # sends 8 B less per transfer (16 cycles x 16), the cycle-0
        # register labels cross as one frame (25 x 16 + 4 + 4), and each
        # cycle's OT adds the u frame's counter and the e frame (8 + 2 + 4)
        total = 278_336 - 16 * 16 * 8 + 408 + 16 * (8 + 2 + 4)
        assert sum(reference.comm.values()) == total == 276_920
        assert reference.comm["state_labels"] == 408

        result = run_folded_dense(
            [int(v) for v in x], w[:, None], fmt, ot_group=TEST_GROUP_512,
            rng=random.Random(0), fold=1,
        )
        merges = [f for f in reference_frames if f[0] == "output_labels"]
        assert len(merges) == 16
        assert frames == (
            [f for f in reference_frames if f[0] != "output_labels"]
            + merges[-1:]
        )
        assert result.comm_bytes == total - _wire_bytes(merges[:-1])
        value = int(fixed_mul(x, w, fmt.frac_bits).sum())
        assert result.outputs == [value]
        acc = sum(bit << i for i, bit in enumerate(reference.final_outputs))
        assert acc == value % (1 << cell.n_state)

    def test_default_fold_clocks_the_cell_the_constructor_returns(self):
        """What ``benchmarks/layered`` reconciles: the tables on the wire
        are those of ``folded_mac_cell(fmt, fan_in=in_dim)``."""
        rng = np.random.default_rng(2)
        x = FMT.encode_array(rng.uniform(-1, 1, size=16))
        w = FMT.encode_array(rng.uniform(-1, 1, size=(16, 1)))
        result = run_folded_dense(
            list(x), w, FMT, ot_group=TEST_GROUP_512, rng=random.Random(4)
        )
        cell = folded_mac_cell(FMT, fan_in=16)
        assert result.core_gates == len(cell.core.gates)
        assert result.cycles == 16 // MAC_FOLD

    def test_comm_scales_with_cycles_not_layer(self):
        """Sec. 3.5: per-cycle table traffic is constant; total traffic
        is cycles x constant, while the *netlist* stays fixed-size."""
        rng = np.random.default_rng(1)
        x16 = FMT.encode_array(rng.uniform(-1, 1, size=16))
        w16 = FMT.encode_array(rng.uniform(-1, 1, size=(16, 1)))
        x64 = FMT.encode_array(rng.uniform(-1, 1, size=64))
        w64 = FMT.encode_array(rng.uniform(-1, 1, size=(64, 1)))
        r16 = run_folded_dense(list(x16), w16, FMT, ot_group=TEST_GROUP_512,
                               rng=random.Random(2))
        r64 = run_folded_dense(list(x64), w64, FMT, ot_group=TEST_GROUP_512,
                               rng=random.Random(3))
        # the core grows only with log2(fan_in) (two accumulator bits,
        # five gates each, per MAC), not with the layer size — the
        # Sec. 3.5 memory-footprint claim
        assert r64.core_gates - r16.core_gates <= 10 * MAC_FOLD
        assert r64.cycles == 4 * r16.cycles
        assert r64.comm_bytes > 3.9 * r16.comm_bytes

    def test_caller_ot_state_pays_the_base_ot_once(self, base_batches):
        """A caller's ``IKNPState`` carries across calls: two layers, one
        base OT; without one, each call pays its own."""
        rng = np.random.default_rng(3)
        x = FMT.encode_array(rng.uniform(-1, 1, size=8))
        w = FMT.encode_array(rng.uniform(-1, 1, size=(8, 2)))
        reference = list(fixed_mul(x[:, None], w, FMT.frac_bits).sum(axis=0))
        seeded = random.Random(6)
        state = IKNPState(group=TEST_GROUP_512, rng=seeded)
        for _ in range(2):
            result = run_folded_dense(
                list(x), w, FMT, ot_group=TEST_GROUP_512, rng=seeded,
                ot_state=state,
            )
            assert result.outputs == reference
        assert base_batches == [1]
        for _ in range(2):
            run_folded_dense(
                list(x), w, FMT, ot_group=TEST_GROUP_512, rng=seeded
            )
        assert base_batches == [3]

    def test_width_mismatch_rejected(self):
        with pytest.raises(CompileError):
            run_folded_dense([1, 2], np.zeros((3, 1)), FMT)

    def test_bad_fan_in_rejected(self):
        with pytest.raises(CompileError):
            folded_mac_cell(FMT, fan_in=0)

    def test_bad_fold_rejected(self):
        with pytest.raises(CompileError):
            folded_mac_cell(FMT, fan_in=4, fold=0)


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
        assert verify_opened_copy(
            circuit, garbler.open(challenge),
            [commitments[i] for i in challenge], [tables[i] for i in challenge],
        )

    def test_tampered_tables_detected(self):
        circuit = _demo_circuit()
        garbler = CutAndChooseGarbler(circuit, copies=3, rng=random.Random(2))
        commitments = garbler.commitments()
        tables = garbler.tables()
        corrupted = tables[1].copy()
        corrupted[0, 0] ^= 0xFF
        opened = garbler.open([0, 1])
        assert not verify_opened_copy(
            circuit, opened, commitments[:2], [tables[0], corrupted]
        )
        assert verify_opened_copy(circuit, opened, commitments[:2], tables[:2])

    def test_wrong_seed_detected(self):
        from repro.gc.cutandchoose import OpenedCopy

        circuit = _demo_circuit()
        garbler = CutAndChooseGarbler(circuit, copies=3, rng=random.Random(3))
        commitments = garbler.commitments()
        tables = garbler.tables()
        lying = OpenedCopy(index=0, seed=garbler.seeds[0] ^ 1)
        assert not verify_opened_copy(circuit, [lying], commitments[:1], tables[:1])
        with pytest.raises(GarblingError, match="per opening"):
            verify_opened_copy(circuit, [lying], commitments, tables[:1])

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
        from repro.gc import garble_many

        circuit = _demo_circuit()
        one, two, other = (
            garbled.tables_bytes()
            for _, garbled in garble_many(
                circuit, rngs=[random.Random(s) for s in (12345, 12345, 54321)]
            )
        )
        assert one == two
        assert one != other

    def test_copies_are_garbled_from_a_shake_stream_per_seed(self):
        """A copy's labels are SHAKE-256 draws under its seed, not a
        Mersenne Twister's (whose output is linear in its state, so the
        evaluator's labels would give away the others): an opened seed
        still re-garbles its copy byte for byte, and two seeds' copies
        share no label and no offset."""
        from repro.gc import garble_many
        from repro.gc.rng import XofStream

        circuit = _demo_circuit()
        cnc = CutAndChooseGarbler(circuit, copies=2, rng=random.Random(7))
        ((_, again),) = garble_many(circuit, rngs=[XofStream(cnc.seeds[0])])
        assert again.tables_bytes() == cnc.garbled[0].tables_bytes()
        commitments = cnc.commitments()
        assert verify_opened_copy(
            circuit, cnc.open([0]), commitments[:1], cnc.tables()[:1]
        )
        # draw 0 is SHAKE-256(seed || 0), and Δ is drawn first
        first = hashlib.shake_256(
            cnc.seeds[0].to_bytes(16, "little") + bytes(8)
        ).digest(16)
        assert XofStream(cnc.seeds[0]).getrandbits(128) == int.from_bytes(first, "little")
        assert cnc.garblers[0].labels.delta == int.from_bytes(first, "little") | 1
        one, two = (garbler.labels for garbler in cnc.garblers)
        assert one.delta != two.delta
        rows_one = {row.tobytes() for row in one.rows}
        assert not rows_one & {row.tobytes() for row in two.rows}
        offsets = {row.tobytes() for row in one.rows ^ two.rows}
        assert len(offsets) == len(one.rows)

    def test_xof_stream_replays_from_its_seed(self):
        from repro.gc.rng import XofStream

        widths = (1, 7, 128, 8 * 700, 128)
        one, same, other = (
            [stream.getrandbits(bits) for bits in widths]
            for stream in (XofStream(2**127 + 5), XofStream(2**127 + 5), XofStream(6))
        )
        assert one == same
        assert all(0 <= value < 2**bits for value, bits in zip(one, widths))
        assert one[2] != other[2] and one[2] != one[4]
        # a stream, not a draw per call: one 256-bit draw is two 128-bit
        # ones concatenated, least significant first, across a block edge too
        for skip in (0, XofStream.BLOCK_BYTES - 5):
            wide, narrow = XofStream(9), XofStream(9)
            wide.getrandbits(8 * skip)
            narrow.getrandbits(8 * skip)
            low, high = narrow.getrandbits(128), narrow.getrandbits(128)
            assert wide.getrandbits(256) == low | high << 128


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
            ),
        )
        return service, x

    def test_infer_matches_cleartext(self, service):
        svc, x = service
        record = svc.infer(x[0])
        assert record.label == svc.cleartext_label(x[0])
        assert record.comm_bytes > 0
        assert record.phase_seconds > 0

    def test_outsourced_inference(self, service):
        svc, x = service
        record = svc.infer(x[1], backend="outsourced")
        assert record.backend == "outsourced"
        assert record.label == svc.cleartext_label(x[1])

    def test_batch(self, service):
        svc, x = service
        labels = [r.label for r in svc.infer_many(list(x[:2]))]
        assert labels == [svc.cleartext_label(x[0]), svc.cleartext_label(x[1])]

    def test_summary(self, service):
        svc, _ = service
        assert "non-XOR" in svc.circuit_summary
