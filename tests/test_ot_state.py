"""The session-lived OT-extension state: base OT once, then symmetric work.

Covers :class:`repro.gc.ot_extension.IKNPState` bottom-up: chosen-message
correctness for every batch size, the IKNP correlation the two halves
of each extension must satisfy, the never-reuse guarantee on counters and hash indices
(threads and aborted extensions included), how often each owner pays the
base OT, and that hoisting it moved no byte of any request's traffic.

Runs in CI's chaos matrix too: channels come from
``default_channel_factory`` (``REPRO_TRANSPORT``) and the injected fault
is seeded by ``REPRO_CHAOS_SEED``.
"""

from __future__ import annotations

import os
import random
import socket
import sys
import threading

import numpy as np
import pytest

from repro.circuits import FixedPointFormat
from repro.circuits.sequential import SequentialCircuit
from repro.compile import CompileOptions, compile_model, folded_mac_cell
from repro.engine import EngineConfig, get_backend
from repro.errors import ReproError
from repro.gc import SequentialSession, ot
from repro.gc.channel import default_channel_factory
from repro.gc.ot import TEST_GROUP_512, OTGroup, run_ot_batch
from repro.gc.ot_extension import KAPPA, IKNPState, extension_ot
from repro.gc.outsourcing import OutsourcedSession
from repro.gc.protocol import TwoPartySession
from repro.nn import Dense, QuantizedModel, Sequential, Tanh, TrainConfig, Trainer
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    faulty_channel_factory,
    is_transient,
)
from repro.service import PrivateInferenceService
from repro.transport import ShardedService
from repro.transport.peer import run_folded_peer, run_two_party_peer
from repro.transport.worker import (
    WorkerServer,
    open_peer_session,
    recv_ctl,
    send_ctl,
)

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
FMT = FixedPointFormat(2, 6)


def _pairs(m, seed, length=16):
    rng = random.Random(seed)
    pairs = [(rng.randbytes(length), rng.randbytes(length)) for _ in range(m)]
    return pairs, [rng.getrandbits(1) for _ in range(m)]


def _plane(pairs):
    """Byte pairs as the extension's ``(m, 2, length)`` sender plane."""
    return np.frombuffer(
        b"".join(m0 + m1 for m0, m1 in pairs), dtype=np.uint8
    ).reshape(len(pairs), 2, -1)


def _chosen(pairs, choices):
    """The ``(m, length)`` rows the receiver must end up with."""
    return _plane(pairs)[np.arange(len(choices)), choices]


def _state(seed=0):
    return IKNPState(group=TEST_GROUP_512, rng=random.Random(seed))


def _channel():
    alice_end, bob_end, _stats = default_channel_factory()()
    return alice_end, bob_end


@pytest.fixture
def reservations(monkeypatch):
    """Every ``(counter, first_index, m)`` any state hands out."""
    seen = []
    original = IKNPState.reserve

    def recording(self, m, ends=(None, None)):
        counter, first_index = original(self, m, ends)
        seen.append((counter, first_index, m))
        return counter, first_index

    monkeypatch.setattr(IKNPState, "reserve", recording)
    return seen


def _assert_disjoint(reserved):
    """No counter handed out twice, no hash index inside two ranges."""
    counters = [counter for counter, _first, _m in reserved]
    assert len(set(counters)) == len(counters)
    spans = sorted((first, first + m) for _counter, first, m in reserved)
    for (_start, end), (next_start, _next_end) in zip(spans, spans[1:]):
        assert end <= next_start


class TestChosenMessages:
    @pytest.mark.parametrize("length", [16, 70])
    @pytest.mark.parametrize("m", [1, 16, 63, 64, 696])
    def test_receiver_gets_exactly_its_choice(self, m, length):
        # one plane layout for every m >= 1 and every message length
        state = _state(m)
        # two extensions from one state, the second over a channel: the
        # seeds, not a fresh base OT, must carry both
        for round_, channel in enumerate((None, _channel())):
            pairs, choices = _pairs(m, seed=100 * m + round_, length=length)
            out, _ = extension_ot(_plane(pairs), choices, channel=channel, state=state)
            assert np.array_equal(out, _chosen(pairs, choices))
        assert state.extensions == 2

    def test_private_link_and_callers_link_agree_byte_for_byte(self):
        # without a channel the same three steps run over a private
        # in-memory link: same messages, same two frames charged
        pairs, choices = _pairs(90, seed=3)
        (out, sent), (out_framed, sent_framed) = [
            extension_ot(_plane(pairs), choices, channel=channel, state=_state(9))
            for channel in (None, _channel())
        ]
        assert np.array_equal(out, out_framed) and sent == sent_framed
        assert sent == (KAPPA * 12 + 4) + (2 * 90 * 16 + 4)

    def test_channel_frames_keep_their_sizes(self):
        # the two "ot" frames the chaos matrix addresses by position:
        # kappa columns of ceil(m/8) bytes out, two m x 16 planes back
        m = 131
        pairs, choices = _pairs(m, seed=4)
        alice_end, bob_end, stats = default_channel_factory()()
        _, transferred = extension_ot(
            _plane(pairs), choices, channel=(alice_end, bob_end), state=_state(4)
        )
        sizes = [(d, size) for d, tag, size in stats.log if tag == "ot"]
        assert sizes == [("b2a", KAPPA * 17 + 4), ("a2b", 2 * m * 16 + 4)]
        assert transferred == sum(size for _d, size in sizes)


class TestCorrelation:
    def test_every_extension_satisfies_q_equals_t_xor_r_s(self):
        state = _state(21)
        rng = random.Random(22)
        for m in (5, 64, 301):
            counter, _first = state.reserve(m)
            r = np.array([rng.getrandbits(1) for _ in range(m)], dtype=np.uint8)
            # the receiver's half makes T and u; the sender's, Q from u
            t_rows, u_blob = state.receiver.columns(counter, r)
            q_rows, q_rows_flipped = state.sender.rows(counter, m, u_blob)
            s = state.sender.s_packed
            assert np.array_equal(q_rows, t_rows ^ (r[:, None] * s[None, :]))
            assert np.array_equal(q_rows_flipped, q_rows ^ s[None, :])
            assert len(u_blob) == KAPPA * ((m + 7) // 8)

    def test_counters_separate_the_expansions(self):
        state = _state(23)
        r = np.zeros(40, dtype=np.uint8)
        counters = [state.reserve(40)[0] for _ in range(2)]
        first, second = (state.receiver.columns(c, r)[0] for c in counters)
        assert not np.array_equal(first, second)


class TestNeverReused:
    def test_two_extensions_get_fresh_counter_and_indices(self, reservations):
        state = _state(31)
        for seed, m in ((1, 70), (2, 70), (3, 9)):
            pairs, choices = _pairs(m, seed)
            extension_ot(_plane(pairs), choices, state=state)
        assert reservations == [(0, 0, 70), (1, 70, 70), (2, 140, 9)]

    def test_eight_threads_share_one_state(self, reservations, base_batches):
        state = _state(32)
        rounds, failures = 12, []

        def worker(k):
            try:
                for i in range(rounds):
                    pairs, choices = _pairs(3 + (k + i) % 70, seed=1000 * k + i)
                    out, _ = extension_ot(_plane(pairs), choices, state=state)
                    if not np.array_equal(out, _chosen(pairs, choices)):
                        failures.append((k, i))
            except Exception as exc:  # surfaced by the assert below
                failures.append((k, repr(exc)))

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(reservations) == 8 * rounds == state.extensions
        _assert_disjoint(reservations)
        # the racing first extensions still paid for one base OT only
        assert base_batches == [1]

    def test_aborted_extension_burns_its_reservation(self, reservations):
        plan = FaultPlan([FaultSpec("corrupt", tag="ot", nth=0)], seed=CHAOS_SEED)
        factory = faulty_channel_factory(plan, inner=default_channel_factory())
        state = _state(33)
        pairs, choices = _pairs(80, seed=5)
        alice_end, bob_end, _stats = factory()
        with pytest.raises(ReproError) as caught:
            extension_ot(_plane(pairs), choices, channel=(alice_end, bob_end), state=state)
        assert is_transient(caught.value)
        alice_end, bob_end, _stats = factory()
        out, _ = extension_ot(
            _plane(pairs), choices, channel=(alice_end, bob_end), state=state
        )
        assert np.array_equal(out, _chosen(pairs, choices))
        assert reservations == [(0, 0, 80), (1, 80, 80)]


class TestSetupAccounting:
    def test_setup_bytes_are_the_three_base_ot_flights(self):
        state = _state(41)
        assert state.setup_bytes == 0  # nothing paid before the first use
        state.reserve(0)
        width = (TEST_GROUP_512.prime.bit_length() + 7) // 8
        assert state.setup_bytes == (
            (width + 4) + (KAPPA * width + 4) + (KAPPA * (width + 32) + 4)
        )

    def test_a_base_batch_is_387_modexps_and_one_inverse(self, monkeypatch):
        calls = {"power": 0, "inverse": 0}

        def counting(name):
            original = getattr(OTGroup, name)

            def spy(self, *args):
                calls[name] += 1
                return original(self, *args)

            monkeypatch.setattr(OTGroup, name, spy)

        counting("power")
        counting("inverse")
        _state(42).reserve(0)
        # c, g^r, c^r + 128 x (public key, PK_0^r, recover); PK_1^r is a
        # division, and the 128 divisions share one modular inverse
        assert calls == {"power": 1 + 2 + KAPPA * 3, "inverse": 1}
        assert calls["power"] == 387
        calls["power"] = 0
        group = TEST_GROUP_512
        for a in (2, 3, group.prime - 2, 0xDEADBEEF):
            assert group.mul(a, group.inverse(a)) == 1
        assert calls["power"] == 0  # inverse() is not a hidden modexp

    def test_xor_bytes_matches_the_bytewise_definition(self):
        rng = random.Random(43)
        for length in (0, 1, 16, 33):
            a, b = rng.randbytes(length), rng.randbytes(length)
            assert ot._xor_bytes(a, b) == bytes(x ^ y for x, y in zip(a, b))
        pairs, choices = _pairs(5, seed=44)
        assert run_ot_batch(
            pairs, choices, group=TEST_GROUP_512, rng=rng
        ) == [pair[c] for pair, c in zip(pairs, choices)]


# ---------------------------------------------------------------------------
# who pays the base OT, and how often
# ---------------------------------------------------------------------------


def _model(n_features=6, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(300, n_features))
    y = (x @ rng.normal(size=(n_features, 3))).argmax(axis=1)
    model = Sequential(
        [Dense(4), Tanh(), Dense(3)], input_shape=(n_features,), seed=seed
    )
    Trainer(model, TrainConfig(epochs=15, learning_rate=0.2)).fit(x, y)
    return model, x


def _service(**overrides):
    model, _x = _model()
    config = EngineConfig(
        fmt=FMT, activation="exact", ot_group=TEST_GROUP_512,
        rng=random.Random(3), **overrides,
    )
    return PrivateInferenceService(model, config)


@pytest.fixture(scope="module")
def compiled():
    model, x = _model()
    quantized = QuantizedModel(model, FMT, activation_variant="exact")
    compiled = compile_model(
        quantized, CompileOptions(activation="exact", output="argmax")
    )
    return compiled, x


class TestPaidOnce:
    def test_sixteen_cycle_run_pays_one_base_ot(self, base_batches):
        fmt = FixedPointFormat(3, 12)
        # the one-MAC cell: this is about 16 cycles sharing one batch
        cell = folded_mac_cell(fmt, fan_in=16, fold=1)
        rng = random.Random(51)
        words = [
            [[rng.getrandbits(1) for _ in range(fmt.width)] for _ in range(16)]
            for _ in range(2)
        ]
        session = SequentialSession(cell, ot_group=TEST_GROUP_512, rng=rng)
        result = session.run(words[0], words[1], cycles=16)
        assert len(result.outputs_per_cycle) == 16
        assert result.outputs_per_cycle == cell.run(words[0], words[1], cycles=16)
        assert base_batches == [1]
        # a session that was handed no state builds one per run
        session.run(words[0], words[1], cycles=2)
        assert base_batches == [2]

    def test_service_pays_once_over_singles_and_a_batch(self, base_batches):
        service = _service()
        _model_, x = _model()
        try:
            singles = [service.infer(x[i]) for i in range(5)]
            batch = service.infer_many(list(x[5:13]))
            results = singles + batch
            assert [r.label for r in results] == [
                service.cleartext_label(x[i]) for i in range(13)
            ]
            assert base_batches == [1]
            # warm-up request included: the base OT is in no comm_bytes
            assert len({r.comm_bytes for r in results}) == 1
            ot_stats = service.stats["ot"]
            assert ot_stats["base_batches"] == 1
            assert ot_stats["extensions"] == 13
            assert ot_stats["setup_bytes"] == service._backend(
                "two_party"
            ).ot_state.setup_bytes > 0
        finally:
            service.close()

    def test_first_prepare_keeps_the_backend_and_its_state(self, base_batches):
        service = _service()  # pool_size 0: prepare() creates the pool
        _model_, x = _model()
        try:
            assert not service.infer(x[0]).pregarbled
            assert service.prepare(2) == 2
            pooled = service.infer(x[1])
            assert pooled.pregarbled
            assert pooled.label == service.cleartext_label(x[1])
            assert base_batches == [1]
            assert service.stats["ot"]["extensions"] == 2
        finally:
            service.close()

    def test_retry_keeps_the_state_and_burns_a_counter(self, base_batches):
        plan = FaultPlan([FaultSpec("corrupt", tag="ot", nth=0)], seed=CHAOS_SEED)
        service = _service(fault_plan=plan, max_retries=2, retry_backoff_s=0.0)
        _model_, x = _model()
        try:
            result = service.infer(x[0])
            assert result.label == service.cleartext_label(x[0])
            stats = service.stats
            assert stats["retries"] == 1
            assert stats["ot"] == {
                "base_batches": 1,
                "setup_bytes": stats["ot"]["setup_bytes"],
                "extensions": 2,
                "group": f"test-25519[{TEST_GROUP_512.provider}]",
            }
            assert base_batches == [1]
        finally:
            service.close()

    def test_each_shard_pays_its_own(self):
        service = ShardedService(_service, shards=2)
        _model_, x = _model()
        try:
            reference = _service()
            expected = [reference.cleartext_label(x[i]) for i in range(8)]
            reference.close()
            for _ in range(2):
                results = service.infer_many(list(x[:8]))
                assert [r.label for r in results] == expected
            stats = service.stats()
            per_shard = [entry["service"]["ot"] for entry in stats["per_shard"]]
            assert [ot_["base_batches"] for ot_ in per_shard] == [1, 1]
            assert [ot_["extensions"] for ot_ in per_shard] == [8, 8]
            assert stats["ot"]["base_batches"] == 2
            assert stats["ot"]["setup_bytes"] == sum(
                ot_["setup_bytes"] for ot_ in per_shard
            )
            # each shard reports where its public-key work runs; the front
            # end carries the string through, it does not sum it
            assert stats["ot"]["group"] == per_shard[0]["group"]
            assert stats["ot"]["group"] == f"test-25519[{TEST_GROUP_512.provider}]"
        finally:
            service.close()


class TestTrafficUnmoved:
    """Per-tag traffic of one request on this file's 5691-table model
    (7574 before the compiler's dot unit; every tag but ``tables`` as
    recorded under the columns-through-base-OT extension)."""

    TAGS = {
        "tables": 182116, "const_labels": 40, "alice_labels": 872,
        "ot": 15624, "output_labels": 40,
    }

    def test_two_party(self, compiled):
        compiled, x = compiled
        state = _state(61)
        session = TwoPartySession(
            compiled.circuit, ot_group=TEST_GROUP_512, rng=random.Random(1),
            ot_state=state,
        )
        for i in range(2):  # the request that pays the base OT, and the next
            result = session.run(compiled.client_bits(x[i]), compiled.server_bits())
            assert result.comm == self.TAGS
        assert self.TAGS["tables"] == 32 * result.n_non_xor + 4

    def test_folded(self, compiled):
        compiled, x = compiled
        session = SequentialSession(
            SequentialCircuit(compiled.circuit, []), ot_group=TEST_GROUP_512,
            rng=random.Random(1), ot_state=_state(62),
        )
        for i in range(2):
            result = session.run(
                [compiled.client_bits(x[i])], [compiled.server_bits()], cycles=1
            )
            assert result.comm == self.TAGS

    def test_outsourced(self, compiled):
        compiled, x = compiled
        session = OutsourcedSession(
            compiled.circuit, ot_group=TEST_GROUP_512, rng=random.Random(1),
            ot_state=_state(63),
        )
        for i in range(2):
            result = session.run(compiled.client_bits(x[i]), compiled.server_bits())
            # the share bits ride the OT too: 54 more transfers
            assert result.proxy_result.comm == {**self.TAGS, "ot": 18248}

    def test_cut_and_choose(self, compiled, recording_channels):
        compiled, x = compiled
        factory, frames = recording_channels
        backend = get_backend(
            "cut_and_choose", ot_group=TEST_GROUP_512, rng=random.Random(1),
            channel_factory=factory,
        )
        for i in range(2):
            del frames[:]
            result = backend.run(
                compiled.circuit, compiled.client_bits(x[i]), compiled.server_bits()
            )
            # the surviving copy's round crosses the link frame for frame
            # like two_party's; the two opened copies' tables and the three
            # 32-byte seed commitments are accounted beside it.  That is
            # 60 B more than when only the OT was framed: the constant
            # labels (32 B) plus the four added frames' 4-byte headers and
            # the three label frames' 4-byte counts (28 B)
            assert [(tag, len(payload) + 4) for tag, payload in frames] == [
                ("tables", 182116), ("const_labels", 40), ("alice_labels", 872),
                ("ot", 5252), ("ot", 10372), ("output_labels", 40),
            ]
            assert result.comm_bytes == 563012 == (
                2 * (self.TAGS["tables"] - 4) + 3 * 32 + sum(self.TAGS.values())
            )
        assert backend.ot_state.extensions == 2


class TestPeerStateBelongsToItsConnection:
    """A worker whose service already holds an OT state hosts a peer
    session on a state of the *connection*: set up over that socket with
    the caller's independent half, paid once, and the service's own state
    is left alone."""

    @pytest.mark.parametrize("flow", ["two_party", "folded"])
    def test_peer_after_infer_pays_once_per_connection(self, flow, base_batches):
        service = _service(transport="memory")
        _model_, x = _model()
        server = WorkerServer(service)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"once": True}
        )
        thread.start()
        sock = socket.create_connection(server.address)
        try:
            send_ctl(sock, {
                "op": "infer",
                "samples": [[float(v) for v in x[0]]],
                "request_ids": ["warm"],
            })
            assert recv_ctl(sock, timeout=120.0)["ok"]
            assert service.stats["ot"]["base_batches"] == 1
            assert base_batches == [1]
            runner = run_two_party_peer if flow == "two_party" else run_folded_peer
            # the caller's half: its own rng, nothing shared with the worker
            state = IKNPState(group=TEST_GROUP_512, rng=random.Random(77))
            for index in (1, 2):
                open_peer_session(sock, flow, service.kdf)
                result = runner(
                    sock, "garbler", service.compiled.circuit,
                    service.compiled.client_bits(x[index]),
                    ot_group=TEST_GROUP_512, rng=random.Random(78),
                    ot_state=state,
                )
                outputs = result.final_outputs if flow == "folded" else result.outputs
                assert service.compiled.decode_output(outputs) == (
                    service.cleartext_label(x[index])
                )
                remote = recv_ctl(sock, timeout=120.0)
                assert remote == {
                    "ok": True, "op": "peer_result",
                    "comm_bytes": sum(result.comm.values()),
                }
                # only the connection's first session frames a set-up
                assert ("ot_setup" in result.comm) == (index == 1)
            # the worker paid one base OT for the connection (as its sender),
            # the caller hosts the receiver of that batch and pays no setup()
            assert base_batches == [2]
            assert state.extensions == 2
            assert state.sender is not None and state.receiver is None
            # the peer sessions left the service's own state alone
            assert service.stats["ot"]["extensions"] == 1
            send_ctl(sock, {"op": "shutdown"})
            assert recv_ctl(sock, timeout=30.0)["ok"]
        finally:
            sock.close()
            thread.join(timeout=30.0)
            service.close()
        assert not thread.is_alive()
