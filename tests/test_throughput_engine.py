"""PR 3 throughput tier: batched evaluation, parallel KDF, fused narrow
levels and the folded path.

The load-bearing contracts: every fast path is *byte-identical* to the
gate-at-a-time reference oracle (same rng stream -> same tables, labels
and outputs), ``ParallelKDF`` output is worker-count invariant, and the
serving layer's batched ``infer_many`` keeps the per-request error
isolation semantics of the thread-pool path.
"""

import random

import numpy as np
import pytest

from repro.analysis import build_gate_chain
from repro.circuits import CircuitBuilder, FixedPointFormat, bits_from_int
from repro.circuits.netlist import FreeStep, ScalarRun
from repro.circuits.simulate import simulate
from repro.compile import folded_mac_cell
from repro.engine import EngineConfig
from repro.errors import EngineError, GarblingError, ProtocolError
from repro.gc import (
    ArrayLabelStore,
    Evaluator,
    FastEvaluator,
    FixedKeyAES,
    Garbler,
    HashKDF,
    LabelStore,
    ParallelKDF,
    SequentialSession,
    garble_many,
)
from repro.gc.cipher import _hash_many_fallback
from repro.gc.fastgarble import garble_copies
from repro.gc.garble import GarbledCircuit
from repro.gc.labels import _label_row
from repro.gc.ot import TEST_GROUP_512
from repro.gc.protocol import TwoPartySession
from repro.service import InferenceRequest, PrivateInferenceService

FMT = FixedPointFormat(2, 6)


def _reference(circuit, seed, kdf=None):
    """The gate-at-a-time oracle, drawing labels from ``Random(seed)``."""
    return Garbler(
        circuit, kdf=kdf, label_store=LabelStore(rng=random.Random(seed))
    )


def _random_circuit(seed: int, n_gates: int = 120, n_inputs: int = 4):
    """A random netlist covering every gate type (incl. unary chains)."""
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
    for w in wires[-5:]:
        bld.mark_output(w)
    return bld.build()


def _request_batch(circuit, k, seed):
    """k independently garbled copies with per-request input labels."""
    pairs = garble_many(circuit, k, rng=random.Random(seed))
    rng = random.Random(seed ^ 0xBA7C4)
    garbleds, alices, bobs, plaintexts = [], [], [], []
    for garbler, garbled in pairs:
        a = [rng.randint(0, 1) for _ in range(circuit.n_alice)]
        b = [rng.randint(0, 1) for _ in range(circuit.n_bob)]
        garbleds.append(garbled)
        alices.append(
            garbler.input_labels_for(list(circuit.alice_inputs), a)
        )
        bobs.append(
            [garbler.labels.select(w, bit)
             for w, bit in zip(circuit.bob_inputs, b)]
        )
        plaintexts.append((a, b))
    return pairs, garbleds, alices, bobs, plaintexts


class TestParallelKDF:
    def _rows(self, n=600):
        rng = random.Random(11)
        return np.frombuffer(
            bytes(rng.getrandbits(8) for _ in range(24 * n)), dtype=np.uint8
        ).reshape(n, 24).copy()

    def test_worker_count_invariant(self):
        rows = self._rows()
        reference = HashKDF().hash_many(rows)
        for workers in (1, 2, 3, 4, 7):
            kdf = ParallelKDF(
                HashKDF(), workers=workers, min_rows_per_worker=16
            )
            assert np.array_equal(kdf.hash_many(rows), reference), workers
            kdf.close()

    def test_small_batches_run_inline(self):
        kdf = ParallelKDF(HashKDF(), workers=4, min_rows_per_worker=256)
        rows = self._rows(32)
        assert np.array_equal(
            kdf.hash_many(rows), HashKDF().hash_many(rows)
        )
        assert kdf._pool is None  # never spun up for a tiny batch
        kdf.close()

    def test_scalar_hash_delegates(self):
        kdf = ParallelKDF(HashKDF(), workers=4)
        assert kdf.hash(123, 45) == HashKDF().hash(123, 45)
        kdf.close()

    def test_garbling_identical_to_plain_kdf(self):
        circuit = _random_circuit(31)
        plain = Garbler(
            circuit, kdf=HashKDF(), rng=random.Random(2)
        ).garble()
        parallel_kdf = ParallelKDF(
            HashKDF(), workers=3, min_rows_per_worker=1
        )
        parallel = Garbler(
            circuit, kdf=parallel_kdf, rng=random.Random(2)
        ).garble()
        assert plain.tables_bytes() == parallel.tables_bytes()
        parallel_kdf.close()

    def test_wraps_fixed_key_aes(self):
        rows = self._rows(64)
        kdf = ParallelKDF(FixedKeyAES(), workers=2, min_rows_per_worker=8)
        assert np.array_equal(
            kdf.hash_many(rows), FixedKeyAES().hash_many(rows)
        )
        kdf.close()

    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            ParallelKDF(workers=-1)

    def test_engine_config_wiring(self):
        # kdf_workers=1 never wraps; the resolved oracle is the one
        # kdf_backend names, for the default and the explicit choice
        unwrapped = EngineConfig(kdf_workers=1).effective_kdf()
        assert isinstance(unwrapped, FixedKeyAES)
        sha = EngineConfig(kdf_backend="hashlib", kdf_workers=1)
        assert type(sha.effective_kdf()) is HashKDF
        wrapped = EngineConfig(kdf_workers=3).effective_kdf()
        assert isinstance(wrapped, ParallelKDF)
        assert isinstance(wrapped.inner, FixedKeyAES)
        assert wrapped.workers == 3
        # an already-parallel oracle is not double-wrapped
        assert EngineConfig(
            kdf=wrapped, kdf_workers=4
        ).effective_kdf() is wrapped
        with pytest.raises(EngineError):
            EngineConfig(kdf_workers=-1)


class TestFixedKeyAESBatch:
    def test_no_fallback_needed(self, monkeypatch):
        """The fixed-key cipher has a real batch path now."""
        import repro.gc.cipher as cipher_mod

        def boom(*args, **kwargs):
            raise AssertionError("FixedKeyAES.hash_many fell back")

        monkeypatch.setattr(cipher_mod, "_hash_many_fallback", boom)
        rows = np.arange(24 * 40, dtype=np.uint8).reshape(40, 24) % 251
        FixedKeyAES().hash_many(rows.copy())

    def test_batch_matches_scalar_large(self):
        kdf = FixedKeyAES()
        rng = random.Random(3)
        rows = np.frombuffer(
            bytes(rng.getrandbits(8) for _ in range(24 * 257)),
            dtype=np.uint8,
        ).reshape(257, 24).copy()
        assert np.array_equal(
            kdf.hash_many(rows), _hash_many_fallback(kdf, rows)
        )

    def test_encrypt_blocks_matches_scalar(self):
        kdf = FixedKeyAES(b"0123456789abcdef")
        rng = random.Random(4)
        blocks = np.frombuffer(
            bytes(rng.getrandbits(8) for _ in range(16 * 33)),
            dtype=np.uint8,
        ).reshape(33, 16).copy()
        batched = kdf.encrypt_blocks(blocks)
        for i in range(33):
            expected = kdf.encrypt_block(blocks[i].tobytes())
            assert batched[i].tobytes() == expected, f"block {i}"

    def test_empty_batch(self):
        rows = np.empty((0, 24), dtype=np.uint8)
        assert FixedKeyAES().hash_many(rows).shape == (0, 16)


class TestEvaluateMany:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_byte_identical_to_scalar_reference(self, seed):
        circuit = _random_circuit(seed, n_gates=150)
        k = 4
        pairs, garbleds, alices, bobs, plaintexts = _request_batch(
            circuit, k, seed
        )
        batch = FastEvaluator(circuit).evaluate_many(garbleds, alices, bobs)
        scalar = Evaluator(circuit)
        for i in range(k):
            ref = scalar.evaluate(garbleds[i], alices[i], bobs[i])
            # every wire label identical to the gate-at-a-time reference
            assert batch[i].as_dict() == ref
            a, b = plaintexts[i]
            outs = [batch[i][w] for w in circuit.outputs]
            assert pairs[i][0].decode_outputs(outs) == simulate(
                circuit, a, b
            )

    def test_single_copy_batch(self):
        circuit = _random_circuit(7)
        pairs, garbleds, alices, bobs, _ = _request_batch(circuit, 1, 7)
        batch = FastEvaluator(circuit).evaluate_many(garbleds, alices, bobs)
        single = FastEvaluator(circuit).evaluate(
            garbleds[0], alices[0], bobs[0]
        )
        assert batch[0].as_dict() == single.as_dict()

    def test_validation(self):
        circuit = _random_circuit(8)
        pairs, garbleds, alices, bobs, _ = _request_batch(circuit, 2, 8)
        evaluator = FastEvaluator(circuit)
        assert evaluator.evaluate_many([], [], []) == []
        with pytest.raises(GarblingError, match="every copy"):
            evaluator.evaluate_many(garbleds, alices[:1], bobs)
        garbleds[1].tweak_base = 4  # mixed tweak bases are ambiguous
        with pytest.raises(GarblingError, match="tweak"):
            evaluator.evaluate_many(garbleds, alices, bobs)

    def test_session_run_many_matches_run(self):
        circuit = _random_circuit(9, n_gates=140)
        rng_bits = random.Random(90)
        alices = [
            [rng_bits.randint(0, 1) for _ in range(circuit.n_alice)]
            for _ in range(3)
        ]
        bobs = [
            [rng_bits.randint(0, 1) for _ in range(circuit.n_bob)]
            for _ in range(3)
        ]
        session = TwoPartySession(
            circuit, ot_group=TEST_GROUP_512, rng=random.Random(91)
        )
        units = session.pregarble_many(1)
        results = session.run_many(
            alices, bobs, pregarbled=[units[0], None, None]
        )
        for (a, b), result in zip(zip(alices, bobs), results):
            assert result.outputs == simulate(circuit, a, b)
        assert results[0].times["garble"] == 0.0  # offline material
        assert results[1].times["garble"] > 0.0
        with pytest.raises(ProtocolError):
            session.run_many(alices, bobs[:2])

    def test_run_many_follows_pool_oracle_or_rejects_mixes(self):
        """The batch shares one evaluator: it follows the material's
        oracle (like run() does), and a mixed-oracle batch fails fast
        instead of raising a confusing label error mid-evaluation."""
        circuit = _random_circuit(10, n_gates=40)

        # both oracles named, so the test holds whichever is the default
        def foreign_unit(seed):
            return TwoPartySession(
                circuit, kdf=HashKDF(), ot_group=TEST_GROUP_512,
                rng=random.Random(seed),
            ).pregarble()

        session = TwoPartySession(
            circuit, kdf=FixedKeyAES(), ot_group=TEST_GROUP_512,
            rng=random.Random(2),
        )
        bits_a = [0] * circuit.n_alice
        bits_b = [1] * circuit.n_bob
        # all-foreign batch: evaluated under the material's own oracle
        results = session.run_many(
            [bits_a], [bits_b], pregarbled=[foreign_unit(1)]
        )
        assert results[0].outputs == simulate(circuit, bits_a, bits_b)
        # foreign + fresh (session-kdf) mix cannot share an evaluator
        with pytest.raises(ProtocolError, match="oracle"):
            session.run_many(
                [bits_a, bits_a],
                [bits_b, bits_b],
                pregarbled=[foreign_unit(3), None],
            )

    def test_zero_rows_bounds(self):
        store = ArrayLabelStore(4, rng=random.Random(6))
        store.assign_fresh(2)
        with pytest.raises(GarblingError, match="range"):
            store.zero_rows([-2])
        with pytest.raises(GarblingError, match="range"):
            store.zero_rows([10])
        with pytest.raises(GarblingError, match="without labels"):
            store.zero_rows([3])
        assert store.zero_rows([2]).shape == (1, 16)


class TestFusedNarrowRunner:
    """The schedule's step plan and the one walk per role that runs it."""

    @staticmethod
    def _mixed_chain(n, seed):
        """A deep narrow chain mixing free and non-free gate types."""
        rng = random.Random(seed)
        bld = CircuitBuilder(
            use_structural_hashing=False, fold_constants=False
        )
        a = bld.add_alice_inputs(2)
        b = bld.add_bob_inputs(2)
        wire, other = a[0], b[0]
        for i in range(n):
            op = rng.choice(["and", "nor", "nand", "xnor", "or"])
            wire = getattr(bld, f"emit_{op}")(wire, other)
            other = a[1] if i % 2 == 0 else b[1]
        bld.mark_output(wire)
        return bld.build()

    @staticmethod
    def _xor_only():
        """No table at all: the table plane is empty."""
        bld = CircuitBuilder()
        a = bld.add_alice_inputs(2)
        b = bld.add_bob_inputs(2)
        bld.mark_output(bld.emit_xor(bld.emit_xor(a[0], b[0]), a[1]))
        return bld.build()

    @classmethod
    def _circuits(cls):
        return [
            build_gate_chain(50, "and"),
            cls._mixed_chain(120, 0),
            cls._xor_only(),
            *(_random_circuit(seed, n_gates=160) for seed in (12, 13, 14)),
            folded_mac_cell(FMT, fan_in=5).core,
        ]

    def test_fused_runs_cover_narrow_stretches(self):
        circuit = build_gate_chain(50, "and")
        schedule = circuit.level_schedule()
        plan = schedule.step_plan(1, 8)
        # a chain is all narrow: one run holds every gate, in order
        assert len(plan) == 1 and isinstance(plan[0], ScalarRun)
        assert [g[2] for g in plan[0].gates] == [
            g.out for g in circuit.gates
        ]
        # a wide batch dissolves the runs
        assert not any(
            isinstance(step, ScalarRun) for step in schedule.step_plan(64, 8)
        )
        # and the cache returns the same object
        assert schedule.step_plan(1, 8) is plan

    @pytest.mark.parametrize("batch", [1, 3, 64])
    def test_plan_places_every_gate_once_in_dependency_order(self, batch):
        for circuit in self._circuits():
            schedule = circuit.level_schedule()
            driven = set(range(2 + circuit.n_inputs))
            driven.add(schedule.scratch_wire)
            placed, in_runs = [], 0
            for step in schedule.step_plan(batch, 8):
                if isinstance(step, ScalarRun):
                    in_runs += len(step.gates)
                    for a, b, out, tidx, *_ in step.gates:
                        assert a in driven and b in driven, circuit.name
                        driven.add(out)
                        placed.append((out, tidx))
                    continue
                if isinstance(step, FreeStep):
                    reads = step.a.tolist() + step.b.tolist()
                    outs = step.out.tolist()
                    tidx = [-1] * len(outs)
                else:  # an AND layer
                    reads = step.nf_a.tolist() + step.nf_b.tolist()
                    outs, tidx = step.nf_out.tolist(), step.nf_tidx.tolist()
                assert batch * len(outs) >= 8  # a wide step is wide
                assert driven.issuperset(reads), circuit.name
                driven.update(outs)
                placed.extend(zip(outs, tidx))
            # every gate in exactly one step, with its own table slot
            assert sorted(out for out, _ in placed) == sorted(
                g.out for g in circuit.gates
            )
            assert sorted(t for _, t in placed if t >= 0) == list(
                range(schedule.n_non_free)
            )
            # the width test alone decides array vs gate-by-gate
            assert in_runs == sum(
                n
                for level in schedule.levels
                for n in (*(free.out.size for free in level.free), level.nf_out.size)
                if batch * n < 8
            )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fused_garble_bit_exact(self, seed):
        circuit = self._mixed_chain(120, seed)
        kdf = HashKDF()
        for k in (1, 3):
            pairs = garble_many(
                circuit, kdf=kdf,
                rngs=[random.Random(seed + i) for i in range(k)],
            )
            for i, (garbler, garbled) in enumerate(pairs):
                scalar = _reference(circuit, seed + i, kdf=kdf)
                ref = scalar.garble()
                assert ref.tables_bytes() == garbled.tables_bytes()
                assert ref.decode_bits == garbled.decode_bits
                assert ref.const_labels == garbled.const_labels
                assert all(
                    scalar.labels.zero(w) == garbler.labels.zero(w)
                    for w in range(circuit.n_wires)
                )

    def test_fused_evaluate_bit_exact(self):
        circuit = build_gate_chain(90, "and")
        for k in (1, 3):
            _, garbleds, alices, bobs, _ = _request_batch(circuit, k, 5)
            evaluator = FastEvaluator(circuit)
            planes = evaluator.evaluate_many(garbleds, alices, bobs)
            for i in range(k):
                ref = Evaluator(circuit).evaluate(
                    garbleds[i], alices[i], bobs[i]
                )
                assert planes[i].as_dict() == ref
                single = evaluator.evaluate(garbleds[i], alices[i], bobs[i])
                assert single.as_dict() == ref

    def test_mixed_random_netlists_still_bit_exact(self):
        """Runs interleave with wide steps on arbitrary shapes."""
        for seed in (12, 13, 14):
            circuit = _random_circuit(seed, n_gates=160)
            scalar = _reference(circuit, seed).garble()
            fused = Garbler(circuit, rng=random.Random(seed)).garble()
            assert scalar.tables_bytes() == fused.tables_bytes()
            for k in (1, 3):
                _, garbleds, alices, bobs, _ = _request_batch(circuit, k, seed)
                planes = FastEvaluator(circuit).evaluate_many(
                    garbleds, alices, bobs
                )
                for i in range(k):
                    assert planes[i].as_dict() == Evaluator(circuit).evaluate(
                        garbleds[i], alices[i], bobs[i]
                    )

    def test_table_free_circuit(self):
        circuit = self._xor_only()
        garbler = Garbler(circuit, rng=random.Random(3))
        garbled = garbler.garble()
        assert garbled.tables_bytes() == b""
        assert _reference(circuit, 3).garble().decode_bits == garbled.decode_bits
        alice = [garbler.labels.select(w, 1) for w in circuit.alice_inputs]
        bob = [garbler.labels.select(w, 0) for w in circuit.bob_inputs]
        plane = FastEvaluator(circuit).evaluate(garbled, alice, bob)
        assert plane.as_dict() == Evaluator(circuit).evaluate(garbled, alice, bob)

    def test_evaluate_is_the_single_request_walk(self):
        circuit = _random_circuit(7, n_gates=160)
        _, garbleds, alices, bobs, _ = _request_batch(circuit, 1, 7)
        evaluator = FastEvaluator(circuit)
        single = evaluator.evaluate(garbleds[0], alices[0], bobs[0])
        batch = evaluator.evaluate_many(garbleds, alices, bobs)
        assert np.array_equal(single.plane, batch[0].plane)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_state_labels_as_ints_and_as_rows(self, seed):
        """A circuit with registers: carried state labels enter either
        role as ints or as ``(n_state, 16)`` rows, bit-exact both ways."""
        core = folded_mac_cell(FMT, fan_in=5).core
        carry_rng = random.Random(seed ^ 0x5EED)
        carried = [carry_rng.getrandbits(128) for _ in range(core.n_state)]
        rows = np.stack([_label_row(label) for label in carried])
        tweak = 2 * core.counts().non_xor
        ref_garbler = _reference(core, seed)
        ref = ref_garbler.garble(state_zero_labels=carried, tweak_base=tweak)
        for state in (carried, rows):
            garbler = Garbler(core, rng=random.Random(seed))
            garbled = garbler.garble(state_zero_labels=state, tweak_base=tweak)
            assert ref.tables_bytes() == garbled.tables_bytes()
            assert ref.decode_bits == garbled.decode_bits
            assert ref.const_labels == garbled.const_labels
        alice = [ref_garbler.labels.select(w, 1) for w in core.alice_inputs]
        bob = [ref_garbler.labels.select(w, 0) for w in core.bob_inputs]
        active = [ref_garbler.labels.select(w, 1) for w in core.state_inputs]
        active_rows = np.stack([_label_row(label) for label in active])
        expected = Evaluator(core).evaluate(ref, alice, bob, active)
        for state in (active, active_rows):
            plane = FastEvaluator(core).evaluate(ref, alice, bob, state)
            assert plane.as_dict() == expected

    def test_every_engine_error_is_still_raised(self):
        circuit = _random_circuit(8)
        _, garbleds, alices, bobs, _ = _request_batch(circuit, 2, 8)
        evaluator = FastEvaluator(circuit)
        g, a, b = garbleds[0], alices[0], bobs[0]
        # label counts, in both entry points
        with pytest.raises(GarblingError, match="Alice labels"):
            evaluator.evaluate(g, a[:-1], b)
        with pytest.raises(GarblingError, match="Bob labels"):
            evaluator.evaluate(g, a, b + b[:1])
        with pytest.raises(GarblingError, match="Alice labels"):
            evaluator.evaluate_many(garbleds, [a, a[:-1]], bobs)
        with pytest.raises(GarblingError, match="Bob labels"):
            evaluator.evaluate_many(garbleds, alices, [b[:-1], b])
        with pytest.raises(GarblingError, match="every copy"):
            evaluator.evaluate_many(garbleds, alices[:1], bobs)
        with pytest.raises(GarblingError, match="state labels"):
            evaluator.evaluate(g, a, b, state_labels=[1])
        # table shortage, in both entry points
        short = GarbledCircuit(
            tables=[], const_labels=g.const_labels, decode_bits=[],
            tables_plane=g.tables_plane[:-1],
        )
        with pytest.raises(GarblingError, match="ran out of garbled tables"):
            evaluator.evaluate(short, a, b)
        with pytest.raises(GarblingError, match="ran out of garbled tables"):
            evaluator.evaluate_many([g, short], alices, bobs)
        # mixed tweak bases
        garbleds[1].tweak_base = 4
        with pytest.raises(GarblingError, match="uniform tweak base"):
            evaluator.evaluate_many(garbleds, alices, bobs)
        # the garbler's side
        stores = [
            ArrayLabelStore(circuit.n_wires, rng=random.Random(i))
            for i in range(2)
        ]
        with pytest.raises(GarblingError, match="single copy"):
            garble_copies(circuit, HashKDF(), stores, state_zero_labels=[])
        with pytest.raises(GarblingError, match="label plane holds"):
            garble_copies(
                circuit, HashKDF(),
                [ArrayLabelStore(circuit.n_wires - 1, rng=random.Random(1))],
            )
        with pytest.raises(GarblingError, match="count must be"):
            garble_many(circuit, -1)
        # sequential state: wrong count either way, and never batched
        core = folded_mac_cell(FMT, fan_in=5).core
        for state in ([1], np.zeros((1, 16), dtype=np.uint8)):
            with pytest.raises(GarblingError, match="state labels"):
                Garbler(core, rng=random.Random(1)).garble(
                    state_zero_labels=state
                )
        garbler = Garbler(core, rng=random.Random(1))
        garbled = garbler.garble()
        alice = [garbler.labels.select(w, 0) for w in core.alice_inputs]
        bob = [garbler.labels.select(w, 0) for w in core.bob_inputs]
        for state in (None, [1], np.zeros((1, 16), dtype=np.uint8)):
            with pytest.raises(GarblingError, match="state labels"):
                FastEvaluator(core).evaluate(garbled, alice, bob, state)
        with pytest.raises(GarblingError, match="combinational"):
            FastEvaluator(core).evaluate_many([garbled], [alice], [bob])


class TestFoldedSession:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_folded_mac_matches_reference_oracle(
        self, seed, monkeypatch, recording_channels
    ):
        """Every cycle of the folded MAC session puts on the wire exactly
        what the gate-at-a-time oracle garbles from the same rng state and
        carried register labels, and decodes to the plaintext run."""
        cell = folded_mac_cell(FMT, fan_in=5)
        core = cell.core
        cycles = 5
        alice = [bits_from_int(seed + i, core.n_alice) for i in range(cycles)]
        bob = [bits_from_int(2 * i + seed, core.n_bob) for i in range(cycles)]

        rng = random.Random(seed)
        calls = []
        garble = Garbler.garble

        def spy(self, state_zero_labels=None, tweak_base=0):
            state = rng.getstate()
            garbled = garble(self, state_zero_labels, tweak_base)
            calls.append((state, state_zero_labels, tweak_base,
                          self.labels.delta, garbled))
            return garbled

        monkeypatch.setattr(Garbler, "garble", spy)
        factory, frames = recording_channels
        result = SequentialSession(
            cell, ot_group=TEST_GROUP_512, rng=rng, channel_factory=factory
        ).run(alice, bob, cycles=cycles)
        monkeypatch.undo()  # the oracle's own garble calls stay unrecorded

        assert result.outputs_per_cycle == cell.run(alice, bob, cycles=cycles)
        tables = [payload for tag, payload in frames if tag == "tables"]
        consts = [payload for tag, payload in frames if tag == "const_labels"]
        assert len(calls) == len(tables) == len(consts) == cycles
        n_non_xor = core.counts().non_xor
        assert result.comm["tables"] == cycles * (32 * n_non_xor + 4)
        for i, (state, rows, tweak, delta, garbled) in enumerate(calls):
            assert tweak == 2 * n_non_xor * i
            replay = random.Random()
            replay.setstate(state)
            ref = Garbler(
                core, label_store=LabelStore(delta=delta, rng=replay)
            ).garble(
                state_zero_labels=None if rows is None else [
                    int.from_bytes(row.tobytes(), "little") for row in rows
                ],
                tweak_base=tweak,
            )
            assert tables[i] == ref.tables_bytes()
            assert len(tables[i]) + 4 == 32 * n_non_xor + 4
            # label frames carry a 4-byte count, then 16 bytes per label
            assert consts[i][4:] == b"".join(
                label.to_bytes(16, "little") for label in ref.const_labels
            )
            assert garbled.decode_bits == ref.decode_bits

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_folded_mac_cross_evaluation(self, seed):
        """One MAC cycle: reference-garbled -> FastEvaluator and
        engine-garbled -> Evaluator give equal labels that decode to the
        plaintext cycle."""
        cell = folded_mac_cell(FMT, fan_in=5)
        core = cell.core
        alice = bits_from_int(seed + 3, core.n_alice)
        bob = bits_from_int(seed + 5, core.n_bob)
        init = cell.initial_state()
        reference = _reference(core, seed)
        engine = Garbler(core, rng=random.Random(seed))
        g_ref, g_eng = reference.garble(), engine.garble()
        assert g_ref.tables_bytes() == g_eng.tables_bytes()
        assert g_ref.const_labels == g_eng.const_labels
        assert g_ref.decode_bits == g_eng.decode_bits
        assert reference.labels.delta == engine.labels.delta
        labels = [
            engine.input_labels_for(list(wires), bits)
            for wires, bits in (
                (core.alice_inputs, alice),
                (core.bob_inputs, bob),
                (core.state_inputs, init),
            )
        ]
        fast = FastEvaluator(core).evaluate(g_ref, *labels)
        slow = Evaluator(core).evaluate(g_eng, *labels)
        fast_out = [fast[w] for w in core.outputs]
        assert fast_out == [slow[w] for w in core.outputs]
        expected = cell.run([alice], [bob], cycles=1)[0]
        assert engine.decode_outputs(fast_out) == expected
        assert reference.decode_outputs(fast_out) == expected

    def test_register_carry_stays_private(self):
        """No state transfer after cycle 0's (public) initial labels."""
        cell = folded_mac_cell(FMT, fan_in=3)
        session = SequentialSession(
            cell, ot_group=TEST_GROUP_512, rng=random.Random(4),
        )
        result = session.run(
            [bits_from_int(1, cell.core.n_alice)],
            [bits_from_int(1, cell.core.n_bob)],
            cycles=3,
        )
        assert set(result.comm) <= {
            "tables", "const_labels", "alice_labels", "state_labels", "ot",
            "output_labels",
        }
        # one frame over the three cycles: a label per register + count + prefix
        assert result.comm["state_labels"] == 16 * cell.n_state + 4 + 4
        assert len(result.garble_times) == 3
        assert len(result.evaluate_times) == 3


class TestServiceBatchedInfer:
    @pytest.fixture(scope="class")
    def service(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, size=(60, 5))
        y = (x @ rng.normal(size=(5, 3))).argmax(axis=1)
        from repro.nn import Dense, Sequential, Tanh, TrainConfig, Trainer

        model = Sequential(
            [Dense(4), Tanh(), Dense(3)], input_shape=(5,), seed=3
        )
        Trainer(model, TrainConfig(epochs=10, learning_rate=0.2)).fit(x, y)
        config = EngineConfig(
            fmt=FMT, activation="exact", ot_group=TEST_GROUP_512,
            rng=random.Random(7), pool_size=2, pool_refill="none",
            history_limit=64,
        )
        service = PrivateInferenceService(model, config)
        yield service, x
        service.close()

    def test_batched_matches_one_by_one_and_cleartext(self, service):
        svc, x = service
        expected = [svc.cleartext_label(s) for s in x[:3]]
        batched = svc.infer_many(list(x[:3]))
        assert [r.label for r in batched] == expected
        assert all(r.ok for r in batched)
        # the same requests one at a time: the per-request path
        one_by_one = [svc.infer(s) for s in x[:3]]
        assert [r.label for r in one_by_one] == expected

    def test_batched_consumes_pool_material(self, service):
        svc, x = service
        svc.prepare(2)
        results = svc.infer_many(list(x[3:6]))
        assert sum(1 for r in results if r.pregarbled) == 2

    def test_batched_error_isolation(self, service):
        svc, x = service
        results = svc.infer_many(
            [x[0], np.zeros(99), x[1]], return_errors=True
        )
        assert [r.ok for r in results] == [True, False, True]
        assert results[1].label == -1
        assert "width" in results[1].error or "Error" in results[1].error

    def test_mixed_backends_split_between_paths(self, service):
        svc, x = service
        requests = [
            InferenceRequest(sample=x[0], request_id="gc"),
            InferenceRequest(
                sample=x[1], request_id="sim", backend="simulate"
            ),
            InferenceRequest(sample=x[2], request_id="gc2"),
        ]
        results = svc.infer_many(requests)
        assert [r.request_id for r in results] == ["gc", "sim", "gc2"]
        assert results[1].backend == "simulate"
        assert results[0].backend == "two_party"

    def test_auto_mode_needs_two_requests(self, service):
        svc, x = service
        single = svc.infer_many([x[4]])  # a single request stays scalar
        assert single[0].label == svc.cleartext_label(x[4])
