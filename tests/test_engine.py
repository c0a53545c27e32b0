"""Tests for the unified execution engine (repro.engine).

Covers the backend contract (every backend yields the identical label on
the same compiled circuit and sample, in one ``ProtocolResult``), the
by-name lookup and its error paths,
the pre-garbled offline/online split, EngineConfig validation and its
pinned surface, and the redesigned service surface (typed requests,
concurrent serving, activation-variant fidelity).
"""

import dataclasses
import random
import threading

import numpy as np
import pytest

from repro.circuits import FixedPointFormat
from repro.compile import CompileOptions, compile_model, folded_mac_cell
from repro.engine import (
    EngineConfig,
    PregarbledPool,
    available_backends,
    get_backend,
)
from repro.errors import CompileError, EngineError, ProtocolError
from repro.gc import SequentialSession, make_channel_pair, make_kdf
from repro.gc.ot import TEST_GROUP_512
from repro.gc.protocol import ProtocolResult, TwoPartySession
from repro.nn import Dense, QuantizedModel, Sequential, Tanh, TrainConfig, Trainer
from repro.service import InferenceRequest, PrivateInferenceService

FMT = FixedPointFormat(2, 6)


def _trained_model(n_features=6, n_classes=3, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(300, n_features))
    y = (x @ rng.normal(size=(n_features, n_classes))).argmax(axis=1)
    model = Sequential(
        [Dense(4), Tanh(), Dense(n_classes)],
        input_shape=(n_features,),
        seed=seed,
    )
    Trainer(model, TrainConfig(epochs=15, learning_rate=0.2)).fit(x, y)
    return model, x


@pytest.fixture(scope="module")
def compiled_model():
    model, x = _trained_model()
    quantized = QuantizedModel(model, FMT, activation_variant="exact")
    compiled = compile_model(
        quantized, CompileOptions(activation="exact", output="argmax")
    )
    return model, compiled, quantized, x


class TestBackendLookup:
    def test_unknown_backend_rejected(self):
        with pytest.raises(EngineError, match="unknown backend"):
            get_backend("quantum_annealer")

    def test_bad_kwargs_rejected(self):
        with pytest.raises(EngineError, match="bad options"):
            get_backend("simulate", copies=7)
        with pytest.raises(EngineError, match="bad options"):
            get_backend("two_party", not_a_knob=True)


class TestBackendParity:
    @pytest.mark.parametrize("kdf_backend", ["hashlib", "fixed_key_aes"])
    @pytest.mark.parametrize(
        "name", ["two_party", "outsourced", "cut_and_choose", "simulate"]
    )
    def test_identical_label_every_backend(
        self, compiled_model, name, kdf_backend
    ):
        """Every backend agrees with the cleartext model under either
        oracle, and the oracle never changes what a table costs."""
        _, compiled, quantized, x = compiled_model
        links = []

        def memory_factory():
            link = make_channel_pair()
            links.append(link[2])
            return link

        backend = get_backend(
            name, kdf=make_kdf(kdf_backend), ot_group=TEST_GROUP_512,
            rng=random.Random(3), channel_factory=memory_factory,
        )
        result = backend.run(
            compiled.circuit, compiled.client_bits(x[0]), compiled.server_bits()
        )
        assert type(result) is ProtocolResult
        assert compiled.decode_output(result.outputs) == int(
            quantized.predict(x[0][None])[0]
        )
        assert result.n_non_xor > 0
        assert not result.pregarbled
        if name == "simulate":
            assert result.comm == {}
        else:
            assert result.total_comm_bytes > 0
        # half-gates: two 16-byte rows per non-free gate plus the frame
        # header, whichever oracle masked them; cut-and-choose's surviving
        # copy runs the same round on the wire (its opened copies' tables
        # are accounted, not framed)
        table_frames = [
            stats.by_tag()["tables"] for stats in links
            if "tables" in stats.by_tag()
        ]
        if name in ("two_party", "outsourced", "cut_and_choose"):
            assert table_frames == [32 * result.n_non_xor + 4]
        else:
            assert table_frames == []

    def test_cut_and_choose_copies_accounted(self, compiled_model):
        _, compiled, quantized, x = compiled_model
        backend = get_backend(
            "cut_and_choose",
            ot_group=TEST_GROUP_512,
            rng=random.Random(4),
            copies=2,
        )
        result = backend.run(
            compiled.circuit, compiled.client_bits(x[1]), compiled.server_bits()
        )
        # the opened copy's tables and both seed commitments are tags of
        # the round's comm, beside the surviving copy's framed tables
        table_bytes = 32 * result.n_non_xor
        assert result.comm["opened_tables"] == table_bytes
        assert result.comm["commitments"] == 2 * 32
        assert result.comm["tables"] == table_bytes + 4
        assert set(result.times) >= {"garble", "verify"}


class TestPregarbledPool:
    def test_online_run_skips_garbling(self, compiled_model):
        _, compiled, quantized, x = compiled_model
        pool = PregarbledPool(
            compiled.circuit, compiled.server_bits(), capacity=1, ot_group=TEST_GROUP_512,
            rng=random.Random(5),
        )
        assert pool.warm() == 1
        backend = get_backend(
            "two_party", ot_group=TEST_GROUP_512, rng=random.Random(5),
            pool=pool,
        )
        client_bits = compiled.client_bits(x[0])
        # a backend's first extension carries the base-OT batch; pay it
        # before the clock so both runs below are steady-state requests
        backend.ot_state.set_up()
        warm = backend.run(compiled.circuit, client_bits, compiled.server_bits())
        cold = backend.run(compiled.circuit, client_bits, compiled.server_bits())
        assert warm.pregarbled and not cold.pregarbled
        # the offline/online split: garbling leaves the critical path
        assert warm.times["garble"] < cold.times["garble"]
        assert sum(warm.times.values()) < sum(cold.times.values())
        assert warm.outputs == cold.outputs
        assert pool.hits == 1 and pool.misses == 1

    @pytest.mark.parametrize("half", [0, 1], ids=["alice", "bob"])
    def test_pregarbled_material_single_use(self, compiled_model, half):
        _, compiled, _, x = compiled_model
        session = TwoPartySession(
            compiled.circuit, ot_group=TEST_GROUP_512, rng=random.Random(6)
        )
        material = session.pregarble_many(1, compiled.server_bits())[0]
        bits = compiled.client_bits(x[0])
        session.run(bits, compiled.server_bits(), pregarbled=material)
        # either half alone is refused once used
        reused = (material[0], None) if half == 0 else (None, material[1])
        with pytest.raises(ProtocolError, match="reuse"):
            session.run(bits, compiled.server_bits(), pregarbled=reused)

    @pytest.mark.parametrize("half", [0, 1], ids=["alice", "bob"])
    def test_pregarbled_claim_atomic_under_races(self, compiled_model, half):
        """Exactly one of many racing claimers may win (label-reuse guard)."""
        _, compiled, _, _ = compiled_model
        session = TwoPartySession(
            compiled.circuit, ot_group=TEST_GROUP_512, rng=random.Random(6)
        )
        material = session.pregarble_many(1, compiled.server_bits())[0][half]
        wins, barrier = [], threading.Barrier(8)

        def race():
            barrier.wait()
            try:
                material.claim()
                wins.append(1)
            except ProtocolError:
                pass

        threads = [threading.Thread(target=race) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1

    def test_pool_rejects_foreign_circuit_material(self, compiled_model):
        _, compiled, _, x = compiled_model
        other = compile_model(
            QuantizedModel(_trained_model(seed=9)[0], FMT,
                           activation_variant="exact"),
            CompileOptions(activation="exact", output="argmax"),
        )
        session = TwoPartySession(
            other.circuit, ot_group=TEST_GROUP_512, rng=random.Random(7)
        )
        material = session.pregarble_many(1, other.server_bits())[0]
        victim = TwoPartySession(
            compiled.circuit, ot_group=TEST_GROUP_512, rng=random.Random(7)
        )
        with pytest.raises(ProtocolError, match="different circuit"):
            victim.run(
                compiled.client_bits(x[0]),
                compiled.server_bits(),
                pregarbled=material,
            )

    @pytest.mark.parametrize("lane, match", [
        ("halves_of_two_copies", "two copies"), ("a_used_half", "reuse"),
        ("one_copy_in_two_lanes", "reuse"),
        ("tables_sent_but_no_view", "sent them before it, Bob's has none"),
        ("a_view_but_tables_to_send", "Bob's holds them already"),
        ("other_bob_bits", "other input bits"),
    ])
    def test_pool_rejects_a_lane_of_mismatched_halves(self, compiled_model, lane, match):
        """Halves of two copies, a half used before, one copy in two
        lanes of a batch, halves that disagree on whether the tables
        crossed before the request (Alice's sent them, Bob's end has no
        view; or the reverse), or a copy made for other Bob bits than
        the lane's, are refused with no half claimed; the pool serves
        on."""
        _, compiled, _, x = compiled_model
        pool = PregarbledPool(
            compiled.circuit, compiled.server_bits(), capacity=3, ot_group=TEST_GROUP_512,
            rng=random.Random(7),
        )
        assert pool.warm() == 3
        (alice, bob), (_, other_bob) = pool.acquire(), pool.acquire()
        lanes = [(alice, other_bob)]
        if lane == "a_used_half":
            bob.claim()
            lanes = [(alice, bob)]
        elif lane == "one_copy_in_two_lanes":
            lanes = [(alice, bob)] * 2
        elif lane == "tables_sent_but_no_view":
            lanes = [(alice, None)]
        elif lane == "a_view_but_tables_to_send":
            lanes = [(None, other_bob)]
        session = TwoPartySession(
            compiled.circuit, ot_group=TEST_GROUP_512, rng=random.Random(7)
        )
        bits, server_bits = compiled.client_bits(x[0]), compiled.server_bits()
        lane_bits = server_bits
        if lane == "other_bob_bits":
            lanes = [(alice, bob)]
            lane_bits = server_bits[:-1] + [1 - server_bits[-1]]
        with pytest.raises(ProtocolError, match=match):
            session.run_many(
                [bits] * len(lanes), [lane_bits] * len(lanes), pregarbled=lanes
            )
        assert not alice.consumed and not other_bob.consumed
        assert bob.consumed is (lane == "a_used_half")
        backend = get_backend(
            "two_party", ot_group=TEST_GROUP_512, rng=random.Random(7), pool=pool,
        )
        served = backend.run(compiled.circuit, bits, server_bits)
        assert served.pregarbled and pool.hits == 3
        assert served.outputs == session.run(bits, server_bits).outputs

    def test_other_server_bits_run_cold_and_leave_the_pool(self, compiled_model):
        """A pool's copies are made for one set of weights: a backend
        asked to serve others runs cold and takes no copy from it."""
        _, compiled, _, x = compiled_model
        pool = PregarbledPool(
            compiled.circuit, compiled.server_bits(), capacity=1,
            ot_group=TEST_GROUP_512, rng=random.Random(10),
        )
        assert pool.warm() == 1
        backend = get_backend(
            "two_party", ot_group=TEST_GROUP_512, rng=random.Random(10), pool=pool,
        )
        bits = compiled.client_bits(x[0])
        other = [1 - bit for bit in compiled.server_bits()]
        result = backend.run(compiled.circuit, bits, other)
        assert not result.pregarbled
        assert result.outputs == get_backend("simulate").run(
            compiled.circuit, bits, other
        ).outputs
        assert len(pool) == 1 and pool.hits == pool.misses == 0
        assert backend.run(compiled.circuit, bits, compiled.server_bits()).pregarbled

    def test_malformed_request_does_not_burn_pool_unit(self, compiled_model):
        _, compiled, _, _ = compiled_model
        pool = PregarbledPool(
            compiled.circuit, compiled.server_bits(), capacity=1, ot_group=TEST_GROUP_512,
            rng=random.Random(9),
        )
        pool.warm()
        backend = get_backend(
            "two_party", ot_group=TEST_GROUP_512, rng=random.Random(9),
            pool=pool,
        )
        with pytest.raises(EngineError, match="width mismatch"):
            backend.run(compiled.circuit, [0, 1], compiled.server_bits())
        assert len(pool) == 1  # the pre-garbled unit survived

    def test_capacity_bounds_warm(self, compiled_model):
        _, compiled, _, _ = compiled_model
        pool = PregarbledPool(
            compiled.circuit, compiled.server_bits(), capacity=2, ot_group=TEST_GROUP_512,
            rng=random.Random(8),
        )
        assert pool.warm(5) == 2
        assert len(pool) == 2
        with pytest.raises(EngineError):
            PregarbledPool(compiled.circuit, compiled.server_bits(), capacity=0)
        with pytest.raises(EngineError, match="wide"):
            PregarbledPool(compiled.circuit, compiled.server_bits()[:-1])


class TestEngineConfig:
    def test_unknown_activation_rejected(self):
        with pytest.raises(EngineError, match="activation"):
            EngineConfig(activation="relu6")

    def test_negative_knobs_rejected(self):
        with pytest.raises(EngineError):
            EngineConfig(pool_size=-1)
        with pytest.raises(EngineError):
            EngineConfig(max_inflight=-2)

    def test_unknown_backend_name_fails_fast(self):
        """A typo'd backend is caught at config time, not first infer."""
        with pytest.raises(EngineError, match="unknown backend"):
            EngineConfig(backend="two-party")

    def test_compile_options_roundtrip(self):
        config = EngineConfig(activation="piecewise")
        options = config.compile_options()
        assert options.activation == "piecewise"
        # a service serves labels from a circuit that skips pruned weights
        assert options.output == "argmax" and options.honor_sparsity


class TestConfigSurface:
    """The configuration surface is what callers set, and no more."""

    FIELDS = {
        "fmt", "activation", "backend", "kdf_backend", "ot_group",
        "rng", "pool_size", "pool_refill", "request_timeout_s",
        "max_retries", "retry_backoff_s", "breaker_threshold",
        "breaker_cooldown_s", "fault_plan", "transport", "max_inflight",
    }

    def test_engine_config_has_the_sixteen_fields(self):
        assert {f.name for f in dataclasses.fields(EngineConfig)} == self.FIELDS

    def test_four_backends_remain(self):
        assert available_backends() == [
            "cut_and_choose", "outsourced", "simulate", "two_party",
        ]

    @pytest.mark.parametrize("kdf_backend", ["auto", "sha256_vec"])
    def test_sha_reimplementations_are_not_config_values(self, kdf_backend):
        with pytest.raises(
            EngineError, match="choose from fixed_key_aes, hashlib$"
        ):
            EngineConfig(kdf_backend=kdf_backend)

    def test_folded_is_not_a_backend(self):
        with pytest.raises(
            EngineError,
            match="registered: cut_and_choose, outsourced, simulate, two_party$",
        ):
            EngineConfig(backend="folded")

    @pytest.mark.parametrize("field, value", [
        ("output", "logits"), ("honor_sparsity", False),
        ("backend_options", {"copies": 4}), ("kdf_workers", 2),
        ("shards", 2), ("history_limit", 8), ("kdf", None),
    ])
    def test_deleted_fields_are_refused(self, field, value):
        with pytest.raises(TypeError, match=field):
            EngineConfig(**{field: value})


class TestServiceRedesign:
    @pytest.fixture(scope="class")
    def service(self):
        model, x = _trained_model(n_features=8, seed=2)
        config = EngineConfig(
            fmt=FMT,
            activation="exact",
            ot_group=TEST_GROUP_512,
            rng=random.Random(10),
        )
        return PrivateInferenceService(model, config), x

    def test_every_backend_through_service(self, service):
        svc, x = service
        expected = svc.cleartext_label(x[0])
        for name in available_backends():
            record = svc.infer(x[0], backend=name)
            assert record.label == expected, name
            assert record.backend == name

    def test_backend_from_config(self):
        model, x = _trained_model(n_features=5, seed=3)
        svc = PrivateInferenceService(
            model,
            EngineConfig(fmt=FMT, activation="exact", backend="simulate"),
        )
        record = svc.infer(x[0])
        assert record.backend == "simulate"
        assert record.label == svc.cleartext_label(x[0])

    def test_typed_request_roundtrip(self, service):
        svc, x = service
        record = svc.execute(
            InferenceRequest(sample=x[1], request_id="req-7",
                             backend="simulate")
        )
        assert record.request_id == "req-7"
        assert record.label == svc.cleartext_label(x[1])

    def test_infer_many_concurrent_matches_cleartext(self, service):
        svc, x = service
        svc.prepare(3)
        results = svc.infer_many(
            [InferenceRequest(sample=x[k], request_id=str(k)) for k in range(3)]
        )
        assert [r.request_id for r in results] == ["0", "1", "2"]
        assert [r.label for r in results] == [
            svc.cleartext_label(x[k]) for k in range(3)
        ]
        assert all(r.pregarbled for r in results)

    def test_deleted_forks_and_shims_are_rejected(self):
        """The scalar/pipelined options and the seed-era constructor and
        ``infer`` shims are gone: passing them raises, never a silent
        accept."""
        model, x = _trained_model(n_features=5, seed=5)
        with pytest.raises(TypeError):
            EngineConfig(vectorized=False)
        with pytest.raises(TypeError):
            SequentialSession(folded_mac_cell(FMT, fan_in=2), pipelined=True)
        with pytest.raises(CompileError, match="EngineConfig"):
            PrivateInferenceService(model, FMT)
        with pytest.raises(CompileError, match="EngineConfig"):
            PrivateInferenceService(model, {"backend": "simulate"})
        with pytest.raises(TypeError):
            PrivateInferenceService(model, EngineConfig(fmt=FMT), fmt=FMT)
        svc = PrivateInferenceService(
            model, EngineConfig(fmt=FMT, activation="exact",
                                backend="simulate")
        )
        with pytest.raises(TypeError):
            svc.infer(x[0], outsourced=True)

    def test_pool_created_cold_until_prepare(self):
        """Construction never garbles; prepare() is the offline phase."""
        model, _ = _trained_model(n_features=5, seed=5)
        svc = PrivateInferenceService(
            model, EngineConfig(fmt=FMT, activation="exact",
                                backend="simulate", pool_size=4)
        )
        assert svc.pool is not None and len(svc.pool) == 0
        assert svc.prepare(1) == 1  # explicit offline phase fills it
        # an explicit prepare beyond the configured capacity grows it
        assert svc.prepare(6) == 5
        assert len(svc.pool) == 6


class TestActivationVariantFidelity:
    """Satellite fix: requested variants are honored end to end."""

    @pytest.mark.parametrize("variant", ["truncated", "piecewise", "cordic"])
    def test_variant_respected_and_bit_exact(self, variant):
        model, x = _trained_model(n_features=5, seed=7)
        svc = PrivateInferenceService(
            model,
            EngineConfig(fmt=FMT, activation=variant, backend="simulate"),
        )
        assert svc.quantized.activation_variant == variant
        for sample in x[:4]:
            assert svc.infer(sample).label == svc.cleartext_label(sample)

    def test_unknown_activation_raises(self):
        model, _ = _trained_model(n_features=5, seed=8)
        with pytest.raises(EngineError, match="unknown activation"):
            PrivateInferenceService(model, EngineConfig(activation="gelu"))
