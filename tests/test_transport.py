"""Distributed serving tier: wire codec, socket channels, split peers,
worker protocol and the process-sharded front-end."""

from __future__ import annotations

import dataclasses
import os
import random
import signal
import socket
import threading
import time
import uuid

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import CircuitBuilder, FixedPointFormat, simulate
from repro.circuits.sequential import SequentialCircuit
from repro.engine import EngineConfig
from repro.errors import (
    ChannelClosedError,
    ChannelEmptyError,
    ChannelIntegrityError,
    EngineError,
    ServiceDrainingError,
    ServiceOverloadedError,
)
from repro.gc import SequentialSession, TwoPartySession
from repro.gc.channel import Frame, default_channel_factory, make_channel_pair
from repro.gc.ot import TEST_GROUP_512
from repro.gc.ot_extension import IKNPState
from repro.nn import Dense, Sequential, Tanh, TrainConfig, Trainer
from repro.resilience import FaultPlan, FaultSpec, faulty_channel_factory
from repro.service import InferenceResult
from repro.transport import (
    HEADER_SIZE,
    MAX_TAG_BYTES,
    FrameDecoder,
    ShardedService,
    ShardSupervisor,
    encode_frame,
    socketpair_channel_factory,
)
from repro.transport import sharded as sharded_module
from repro.transport.peer import peer_channel_factory, run_two_party_peer
from repro.transport.wire import checksummed, read_frame
from repro.transport.worker import (
    MAX_CTL_BYTES,
    WorkerServer,
    encode_ctl,
    open_peer_session,
    recv_ctl,
    retain_heap,
    send_ctl,
)


def random_circuit(seed, n_gates=60, n_inputs=4):
    rng = random.Random(seed)
    bld = CircuitBuilder()
    a = bld.add_alice_inputs(n_inputs)
    b = bld.add_bob_inputs(n_inputs)
    wires = list(a) + list(b)
    ops = ["xor", "and", "or", "nand", "andn", "not", "xnor", "nor"]
    for _ in range(n_gates):
        op = rng.choice(ops)
        x = rng.choice(wires)
        if op == "not":
            wires.append(bld.emit_not(x))
        elif op == "xnor":
            wires.append(bld.emit_not(bld.emit_xor(x, rng.choice(wires))))
        else:
            wires.append(getattr(bld, f"emit_{op}")(x, rng.choice(wires)))
    for w in wires[-5:]:
        bld.mark_output(w)
    return bld.build()


# ---------------------------------------------------------------------------
# wire codec
# ---------------------------------------------------------------------------


class TestWireCodec:
    def test_round_trip(self):
        frame = Frame(tag="tables", seq=7, payload=b"\x00\x01\xffdata",
                      crc=0xDEADBEEF, delay_s=1.5)
        data = encode_frame(frame)
        assert FrameDecoder().feed(data) == [frame]
        assert len(data) == HEADER_SIZE + len("tables") + len(frame.payload)

    def test_round_trip_empty_payload(self):
        frame = Frame(tag="ot", seq=0, payload=b"", crc=0)
        assert FrameDecoder().feed(encode_frame(frame)) == [frame]

    def test_crc_carried_verbatim_not_recomputed(self):
        # a pre-corrupted frame (wrong crc for its payload) must survive
        # the codec untouched so receive-side validation still fires
        frame = Frame(tag="x", seq=1, payload=b"corrupted", crc=12345)
        (decoded,) = FrameDecoder().feed(encode_frame(frame))
        assert decoded.crc == 12345

    def test_bad_magic_rejected(self):
        data = bytearray(encode_frame(Frame(tag="t", seq=0, payload=b"p", crc=0)))
        data[:4] = b"EVIL"
        with pytest.raises(ChannelIntegrityError, match="magic"):
            FrameDecoder().feed(bytes(data))

    def test_truncated_header_yields_nothing(self):
        assert FrameDecoder().feed(b"\x00" * (HEADER_SIZE - 1)) == []

    def test_truncated_body_yields_nothing(self):
        data = encode_frame(Frame(tag="t", seq=0, payload=b"payload", crc=0))
        assert FrameDecoder().feed(data[:-3]) == []

    def test_oversized_length_prefix_rejected_without_allocation(self):
        # a hostile length prefix must be refused from the header alone
        evil = bytearray(encode_frame(Frame(tag="t", seq=0, payload=b"small",
                                            crc=0)))
        evil[25:29] = (2**31).to_bytes(4, "little")  # payload_len field
        with pytest.raises(ChannelIntegrityError, match="cap"):
            FrameDecoder().feed(bytes(evil))

    def test_encode_rejects_oversized_payload(self):
        frame = Frame(tag="t", seq=0, payload=b"x" * 100, crc=0)
        with pytest.raises(ChannelIntegrityError, match="cap"):
            encode_frame(frame, max_payload=64)

    def test_encode_rejects_bad_tag(self):
        with pytest.raises(ChannelIntegrityError, match="tag"):
            encode_frame(Frame(tag="", seq=0, payload=b"", crc=0))
        with pytest.raises(ChannelIntegrityError, match="tag"):
            encode_frame(
                Frame(tag="x" * (MAX_TAG_BYTES + 1), seq=0, payload=b"", crc=0)
            )

    def test_encode_rejects_out_of_range_fields(self):
        with pytest.raises(ChannelIntegrityError, match="u64"):
            encode_frame(Frame(tag="t", seq=2**64, payload=b"", crc=0))
        with pytest.raises(ChannelIntegrityError, match="u32"):
            encode_frame(Frame(tag="t", seq=0, payload=b"", crc=2**32))
        with pytest.raises(ChannelIntegrityError, match="delay"):
            encode_frame(
                Frame(tag="t", seq=0, payload=b"", crc=0, delay_s=-1.0)
            )

    def test_streaming_decoder_reassembles_split_frames(self):
        frames = [
            Frame(tag=f"t{i}", seq=i, payload=bytes([i]) * (i * 7), crc=i)
            for i in range(5)
        ]
        stream = b"".join(encode_frame(f) for f in frames)
        decoder = FrameDecoder()
        out = []
        for i in range(0, len(stream), 3):  # worst-case 3-byte chunks
            out.extend(decoder.feed(stream[i : i + 3]))
        assert out == frames

    def test_streaming_decoder_rejects_bad_magic_fast(self):
        decoder = FrameDecoder()
        with pytest.raises(ChannelIntegrityError, match="magic"):
            decoder.feed(b"JUNKJUNKJUNK" + b"\x00" * HEADER_SIZE)

    @settings(max_examples=50, deadline=None)
    @given(
        tag=st.text(min_size=1, max_size=16).filter(
            lambda t: 0 < len(t.encode("utf-8")) <= MAX_TAG_BYTES
        ),
        seq=st.integers(min_value=0, max_value=2**64 - 1),
        payload=st.binary(max_size=512),
        crc=st.integers(min_value=0, max_value=2**32 - 1),
        delay=st.floats(min_value=0, max_value=1e6, allow_nan=False),
        chunk=st.integers(min_value=1, max_value=64),
    )
    def test_property_round_trip_any_frame(
        self, tag, seq, payload, crc, delay, chunk
    ):
        frame = Frame(tag=tag, seq=seq, payload=payload, crc=crc, delay_s=delay)
        data = encode_frame(frame)
        decoder = FrameDecoder()
        out = []
        for i in range(0, len(data), chunk):
            out.extend(decoder.feed(data[i : i + chunk]))
        assert out == [frame]

    @settings(max_examples=50, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=1000))
    def test_property_truncation_never_yields_a_frame(self, cut):
        frame = Frame(tag="tables", seq=3, payload=b"p" * 100, crc=9)
        encoded = encode_frame(frame)
        assert FrameDecoder().feed(encoded[: min(cut, len(encoded) - 1)]) == []

    def test_read_frame_never_over_reads(self):
        frames = [
            Frame(tag="a", seq=0, payload=b"first", crc=1),
            Frame(tag="b", seq=1, payload=b"second", crc=2),
        ]
        stream = b"".join(encode_frame(f) for f in frames)
        position = [0]

        def read_exact(n):
            chunk = stream[position[0] : position[0] + n]
            position[0] += n
            return chunk

        assert read_frame(read_exact) == frames[0]
        assert read_frame(read_exact) == frames[1]
        assert position[0] == len(stream)


# ---------------------------------------------------------------------------
# socket channels: loopback socketpair mode
# ---------------------------------------------------------------------------


class TestSocketChannel:
    def test_send_recv_round_trip(self):
        alice, bob, stats = socketpair_channel_factory()()
        alice.send_bytes(b"hello", tag="greet")
        assert bob.recv_bytes(expected_tag="greet") == b"hello"
        # accounting parity: payload + 4, recorded on the sender's side
        assert stats.by_tag()["greet"] == len(b"hello") + 4
        assert stats.bytes_a_to_b == len(b"hello") + 4
        alice.close()
        bob.close()

    def test_empty_channel_raises_typed_error(self):
        alice, bob, _ = socketpair_channel_factory()()
        with pytest.raises(ChannelEmptyError):
            bob.recv_bytes()
        alice.close()
        bob.close()

    def test_large_frame_survives_kernel_buffering(self):
        # bigger than any socketpair buffer: exercises the non-blocking
        # send path that drains the peer to avoid single-thread deadlock
        alice, bob, _ = socketpair_channel_factory()()
        blob = bytes(range(256)) * 4096  # 1 MiB
        alice.send_bytes(blob, tag="big")
        assert bob.recv_bytes(expected_tag="big") == blob
        alice.close()
        bob.close()

    def test_close_surfaces_as_channel_closed(self):
        alice, bob, _ = socketpair_channel_factory()()
        alice.close()
        with pytest.raises(ChannelClosedError):
            bob.recv_bytes()

    def test_frames_in_flight_survive_close(self):
        alice, bob, _ = socketpair_channel_factory()()
        alice.send_bytes(b"parting", tag="last")
        alice.close()
        assert bob.recv_bytes(expected_tag="last") == b"parting"
        with pytest.raises(ChannelClosedError):
            bob.recv_bytes()

    def test_remote_mode_eof_is_channel_closed(self):
        left, right = socket.socketpair()
        from repro.transport import SocketChannel

        channel = SocketChannel(right, "b2a", io_timeout_s=5.0)
        left.close()
        with pytest.raises(ChannelClosedError):
            channel.recv_bytes()
        channel.close()

    def test_sequence_validation_inherited(self):
        alice, bob, _ = socketpair_channel_factory()()
        alice.send_bytes(b"0", tag="t")
        alice.send_bytes(b"1", tag="t")
        bob.recv_bytes()
        bob._received += 1  # simulate a lost frame
        with pytest.raises(ChannelIntegrityError, match="out-of-sequence"):
            bob.recv_bytes()
        alice.close()
        bob.close()


# ---------------------------------------------------------------------------
# bit-identical protocol runs across transports
# ---------------------------------------------------------------------------


class TestTransportParity:
    @pytest.mark.parametrize("seed", range(3))
    def test_two_party_socket_matches_memory(self, seed):
        circuit = random_circuit(seed)
        rng = random.Random(seed)
        a = [rng.randrange(2) for _ in range(4)]
        b = [rng.randrange(2) for _ in range(4)]
        memory = TwoPartySession(
            circuit, ot_group=TEST_GROUP_512, rng=random.Random(7)
        ).run(a, b)
        socketed = TwoPartySession(
            circuit, ot_group=TEST_GROUP_512, rng=random.Random(7),
            channel_factory=socketpair_channel_factory(),
        ).run(a, b)
        assert socketed.outputs == memory.outputs == simulate(circuit, a, b)
        assert socketed.comm == memory.comm

    def test_folded_socket_matches_memory(self):
        circuit = random_circuit(11)
        rng = random.Random(11)
        a = [rng.randrange(2) for _ in range(4)]
        b = [rng.randrange(2) for _ in range(4)]
        memory = SequentialSession(
            SequentialCircuit(circuit, []), ot_group=TEST_GROUP_512,
            rng=random.Random(7),
        ).run([a], [b], cycles=1)
        socketed = SequentialSession(
            SequentialCircuit(circuit, []), ot_group=TEST_GROUP_512,
            rng=random.Random(7),
            channel_factory=socketpair_channel_factory(),
        ).run([a], [b], cycles=1)
        assert socketed.outputs_per_cycle == memory.outputs_per_cycle
        assert socketed.comm == memory.comm

    def test_fault_injection_composes_over_sockets(self):
        # a dropped message over the socket transport surfaces exactly
        # like the in-memory drop: a typed empty-channel error
        plan = FaultPlan([FaultSpec("drop", tag="x")], seed=0)
        alice, bob, _ = faulty_channel_factory(
            plan, inner=socketpair_channel_factory()
        )()
        alice.send_bytes(b"gone", tag="x")
        with pytest.raises(ChannelEmptyError):
            bob.recv_bytes()
        alice.close()
        bob.close()

    def test_default_factory_honors_env(self, monkeypatch):
        from repro.transport import SocketChannel

        monkeypatch.setenv("REPRO_TRANSPORT", "socket")
        alice, _, _ = default_channel_factory()()
        assert isinstance(alice, SocketChannel)
        monkeypatch.setenv("REPRO_TRANSPORT", "memory")
        assert default_channel_factory() is make_channel_pair
        assert EngineConfig().transport == "memory"
        # an unknown name: the environment's path and the config's
        # refuse it with one error
        monkeypatch.setenv("REPRO_TRANSPORT", "carrier-pigeon")
        with pytest.raises(EngineError) as from_env:
            default_channel_factory()
        with pytest.raises(EngineError) as from_config:
            EngineConfig()
        assert str(from_env.value) == str(from_config.value) == (
            "unknown transport 'carrier-pigeon'; choose from memory, socket"
        )

    def test_engine_config_transport_validation(self):
        assert EngineConfig(transport="socket").transport == "socket"
        with pytest.raises(EngineError):
            EngineConfig(transport="telepathy")


# ---------------------------------------------------------------------------
# split peer sessions: one party per endpoint
# ---------------------------------------------------------------------------


def _run_both_sides(runner, circuit, a, b):
    """Both roles on two threads over a socketpair: each is handed its
    own bits and its own rng, nothing else."""
    left, right = socket.socketpair()
    results = {}

    def side(role, sock, bits, seed):
        results[role] = runner(
            sock, role, circuit, bits, ot_group=TEST_GROUP_512,
            rng=random.Random(seed),
        )

    evaluator = threading.Thread(target=side, args=("evaluator", right, b, 8))
    evaluator.start()
    try:
        side("garbler", left, a, 7)
    finally:
        evaluator.join(timeout=60.0)
        left.close()
        right.close()
    assert not evaluator.is_alive()
    return results["garbler"], results["evaluator"]


class TestPeerSessions:
    @pytest.mark.parametrize("seed", range(3))
    def test_two_party_peer_matches_memory_on_both_ends(self, seed):
        circuit = random_circuit(seed)
        rng = random.Random(seed)
        a = [rng.randrange(2) for _ in range(4)]
        b = [rng.randrange(2) for _ in range(4)]
        reference = TwoPartySession(
            circuit, ot_group=TEST_GROUP_512, rng=random.Random(7)
        ).run(a, b)
        garbler, evaluator = _run_both_sides(run_two_party_peer, circuit, a, b)
        assert garbler.outputs == reference.outputs == simulate(circuit, a, b)
        assert evaluator.outputs == []  # it holds nothing that decodes
        assert garbler.comm == evaluator.comm
        # a bare peer session extends on a state of its own, whose base OT
        # crosses this link once; in one process it is handed across in
        # memory and charged to no request
        online = {tag: n for tag, n in garbler.comm.items() if tag != "ot_setup"}
        assert online == reference.comm
        assert garbler.comm["ot_setup"] == 8268  # TEST_GROUP_512

    def test_peer_rejects_unknown_role(self):
        left, right = socket.socketpair()
        try:
            with pytest.raises(EngineError, match="role"):
                peer_channel_factory(left, "adversary")
        finally:
            left.close()
            right.close()

    def test_dead_peer_surfaces_transient_error(self):
        circuit = random_circuit(1)
        left, right = socket.socketpair()
        right.close()  # evaluator never shows up
        try:
            with pytest.raises(ChannelClosedError):
                run_two_party_peer(
                    left, "garbler", circuit, [0] * 4,
                    ot_group=TEST_GROUP_512, rng=random.Random(1),
                )
        finally:
            left.close()


# ---------------------------------------------------------------------------
# worker control protocol + sharded front-end
# ---------------------------------------------------------------------------


def _tiny_service(**config):
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(40, 6))
    w = rng.normal(size=(6, 3))
    y = (x @ w).argmax(axis=1)
    model = Sequential([Dense(4), Tanh(), Dense(3)], input_shape=(6,), seed=1)
    Trainer(model, TrainConfig(epochs=5, learning_rate=0.2)).fit(x, y)
    from repro.service import PrivateInferenceService

    config = EngineConfig(
        fmt=FixedPointFormat(2, 6), activation="exact",
        ot_group=TEST_GROUP_512, rng=random.Random(3), transport="memory",
        **config,
    )
    return PrivateInferenceService(model, config)


def _tiny_samples(n):
    rng = np.random.default_rng(0)
    return list(rng.uniform(-1, 1, size=(40, 6))[:n])


def _unsupervised(service_factory, **kwargs):
    """A front-end whose supervisor thread is stopped right after
    construction (and would idle for an hour first): no shard comes back
    unless the test restarts it or drives ``ShardSupervisor.check_once``."""
    service = ShardedService(service_factory, probe_interval_s=3600.0, **kwargs)
    service._supervisor.close()
    return service


@pytest.fixture(scope="module")
def tiny_service():
    service = _tiny_service()
    yield service
    service.close()


class TestWorkerProtocol:
    def test_ctl_round_trip_and_validation(self):
        left, right = socket.socketpair()
        try:
            send_ctl(left, {"op": "ping", "n": 3})
            assert recv_ctl(right, timeout=5.0) == {"op": "ping", "n": 3}
            # a protocol frame is not a control record
            right.sendall(
                encode_frame(Frame(tag="tables", seq=0, payload=b"x", crc=0))
            )
            with pytest.raises(ChannelIntegrityError, match="control"):
                recv_ctl(left, timeout=5.0)
        finally:
            left.close()
            right.close()

    def test_ctl_crc_validated(self):
        left, right = socket.socketpair()
        try:
            bad = checksummed("ctl", b'{"op":"ping"}')
            bad = Frame(tag="ctl", seq=0, payload=bad.payload, crc=bad.crc ^ 1)
            left.sendall(encode_frame(bad))
            with pytest.raises(ChannelIntegrityError, match="checksum"):
                recv_ctl(right, timeout=5.0)
        finally:
            left.close()
            right.close()

    def test_ctl_eof_is_channel_closed(self):
        left, right = socket.socketpair()
        left.close()
        try:
            with pytest.raises(ChannelClosedError):
                recv_ctl(right, timeout=5.0)
        finally:
            right.close()

    def test_worker_serves_peer_and_infer_over_tcp(self, tiny_service):
        server = WorkerServer(tiny_service)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"once": True})
        thread.start()
        sample = _tiny_samples(1)[0]
        sock = socket.create_connection(server.address)
        try:
            send_ctl(sock, {"op": "ping"})
            assert recv_ctl(sock, timeout=30.0)["op"] == "pong"
            # infer op serves through the worker's own service
            send_ctl(sock, {
                "op": "infer",
                "samples": [[float(v) for v in sample]],
                "request_ids": ["r0"],
            })
            reply = recv_ctl(sock, timeout=120.0)
            assert reply["ok"]
            [record] = reply["results"]
            assert record["label"] == tiny_service.cleartext_label(sample)
            assert record["request_id"] == "r0"
            # peer op: split session, garbler here on the sample's bits,
            # evaluator there on the worker's own weights
            send_ctl(sock, {"op": "peer"})
            assert recv_ctl(sock, timeout=30.0)["ok"]
            result = run_two_party_peer(
                sock, "garbler", tiny_service.compiled.circuit,
                tiny_service.compiled.client_bits(sample),
                ot_group=TEST_GROUP_512, rng=random.Random(99),
            )
            assert recv_ctl(sock, timeout=120.0) == {
                "ok": True, "op": "peer_result",
                "comm_bytes": sum(result.comm.values()),
            }
            assert tiny_service.compiled.decode_output(result.outputs) == (
                tiny_service.cleartext_label(sample)
            )
            send_ctl(sock, {"op": "shutdown"})
            assert recv_ctl(sock, timeout=30.0)["ok"]
        finally:
            sock.close()
            thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert server.counters == {"ping": 1, "infer": 1, "peer": 1,
                                   "shutdown": 1}

    def test_foreign_oracle_refused_before_any_protocol_frame(self, tiny_service):
        """The oracle is part of the wire contract: a caller garbling
        under SHA against a worker evaluating under AES is told so in
        the ack, not by a label error after the tables have moved."""
        from repro.gc.cipher import FixedKeyAES, HashKDF

        assert isinstance(tiny_service.kdf, FixedKeyAES)  # the default
        server = WorkerServer(tiny_service)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"once": True})
        thread.start()
        sample = _tiny_samples(1)[0]
        client_bits = tiny_service.compiled.client_bits(sample)
        sock = socket.create_connection(server.address)
        try:
            with pytest.raises(EngineError, match="oracle mismatch.*sha256"):
                open_peer_session(sock, HashKDF())
            # the control stream is still in sync: nothing but the
            # refusal crossed the wire
            send_ctl(sock, {"op": "ping"})
            assert recv_ctl(sock, timeout=30.0)["op"] == "pong"
            # the infer record is held to the same contract
            send_ctl(sock, {
                "op": "infer", "samples": [[float(v) for v in sample]],
                "kdf": "sha256", "kdf_fingerprint": "00" * 16,
            })
            refusal = recv_ctl(sock, timeout=30.0)
            assert refusal["ok"] is False and "oracle" in refusal["error"]
            # the same oracle from another instance is accepted
            ack = open_peer_session(sock, FixedKeyAES())
            assert ack["kdf"] == "fixed-key-aes"
            result = run_two_party_peer(
                sock, "garbler", tiny_service.compiled.circuit,
                client_bits, kdf=FixedKeyAES(),
                ot_group=TEST_GROUP_512, rng=random.Random(5),
            )
            assert recv_ctl(sock, timeout=120.0)["ok"]
            assert tiny_service.compiled.decode_output(result.outputs) == (
                tiny_service.cleartext_label(sample)
            )
            send_ctl(sock, {"op": "shutdown"})
            recv_ctl(sock, timeout=30.0)
        finally:
            sock.close()
            thread.join(timeout=30.0)
        assert not thread.is_alive()
        # refusals are answers, not handler failures
        assert server.counters == {"peer": 2, "ping": 1, "infer": 1,
                                   "shutdown": 1}

    def test_peer_session_runs_under_the_services_kdf_backend(self):
        """A service configured with ``kdf_backend="hashlib"`` hosts its
        peer sessions under SHA, not under whatever the default is."""
        from repro.gc.cipher import HashKDF

        service = _tiny_service(kdf_backend="hashlib")
        server = WorkerServer(service)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"once": True})
        thread.start()
        sample = _tiny_samples(1)[0]
        client_bits = service.compiled.client_bits(sample)
        sock = socket.create_connection(server.address)
        # the worker keeps one OT state per connection: so does its caller
        ot_state = IKNPState(group=TEST_GROUP_512, rng=random.Random(9))
        try:
            for _ in range(2):
                ack = open_peer_session(sock, HashKDF())
                assert ack["kdf"] == "sha256"
                result = run_two_party_peer(
                    sock, "garbler", service.compiled.circuit, client_bits,
                    kdf=HashKDF(), ot_group=TEST_GROUP_512,
                    rng=random.Random(8), ot_state=ot_state,
                )
                remote = recv_ctl(sock, timeout=120.0)
                assert remote["comm_bytes"] == sum(result.comm.values())
                assert service.compiled.decode_output(result.outputs) == (
                    service.cleartext_label(sample)
                )
            send_ctl(sock, {"op": "shutdown"})
            recv_ctl(sock, timeout=30.0)
        finally:
            sock.close()
            thread.join(timeout=30.0)
            service.close()
        assert not thread.is_alive()

    def test_unknown_op_rejected_without_killing_connection(self, tiny_service):
        server = WorkerServer(tiny_service)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"once": True})
        thread.start()
        sock = socket.create_connection(server.address)
        try:
            send_ctl(sock, {"op": "exfiltrate"})
            assert recv_ctl(sock, timeout=30.0)["ok"] is False
            send_ctl(sock, {"op": "ping"})
            assert recv_ctl(sock, timeout=30.0)["op"] == "pong"
            send_ctl(sock, {"op": "shutdown"})
            recv_ctl(sock, timeout=30.0)
        finally:
            sock.close()
            thread.join(timeout=30.0)


class TestShardedService:
    def test_partitions_across_live_shards(self):
        service = ShardedService(_tiny_service, shards=2)
        try:
            samples = _tiny_samples(6)
            reference = _tiny_service()
            expected = [reference.cleartext_label(s) for s in samples]
            reference.close()
            results = service.infer_many(samples)
            assert [r.label for r in results] == expected
            stats = service.stats()
            assert stats["requests"] == 6
            assert stats["degraded_requests"] == 0
            assert stats["live_shards"] == 2
            per_shard = [s["requests"] for s in stats["per_shard"]]
            assert sorted(per_shard) == [3, 3]
            # the rollup carries each worker service's own counters
            assert all(
                s["service"]["requests"] == s["requests"]
                for s in stats["per_shard"]
            )
        finally:
            service.close()
        assert service.live_shards() == []

    def test_prepare_warms_every_live_shard(self):
        service = _unsupervised(_tiny_service, shards=2)
        try:
            assert service.prepare(2) == 4
            assert service.prepare(2) == 0  # the pools are already full
            samples = _tiny_samples(4)
            results = service.infer_many(samples)
            assert all(r.ok and r.pregarbled for r in results)
            assert service.prepare(2) == 4  # each shard spent its two copies
        finally:
            service.close()

    def test_worker_crash_reroutes_its_chunk_to_a_live_shard(self):
        # the supervisor stopped: this test pins the degraded path
        # alone; the healing path has its own tests below
        service = _unsupervised(_tiny_service, shards=2)
        try:
            victim = service._shards[1]
            victim.process.terminate()
            victim.process.join()
            samples = _tiny_samples(4)
            reference = _tiny_service()
            expected = [reference.cleartext_label(s) for s in samples]
            reference.close()
            results = service.infer_many(samples)
            # every label still correct: the dead shard's chunk rerouted
            assert [r.label for r in results] == expected
            stats = service.stats()
            assert stats["degraded_requests"] == 2
            assert stats["reroutes"] == 1
            assert stats["live_shards"] == 1
            # the live shard served its own chunk and the dead one's
            assert [s["requests"] for s in stats["per_shard"]] == [4, 0]
            assert stats["per_shard"][0]["service"]["requests"] == 4
            # the dead worker was reaped, not leaked: child joined (an
            # exit code exists) and the shard went suspect with the
            # failure recorded in the stats rollup
            assert victim.process.exitcode is not None
            assert victim.state == "suspect"
            entry = stats["per_shard"][1]
            assert entry["state"] == "suspect"
            assert entry["restarts"] == 0
            assert entry["last_shard_error"]
            # second batch: the suspect shard's chunk goes straight to
            # the live shard without touching the dead worker
            results = service.infer_many(_tiny_samples(2))
            assert [r.label for r in results] == expected[:2]
            stats = service.stats()
            assert stats["degraded_requests"] == 3
            assert [s["requests"] for s in stats["per_shard"]] == [6, 0]
            assert stats["per_shard"][1]["failures"] == 1
        finally:
            service.close()

    @pytest.mark.parametrize("fault", ["short", "unparseable"])
    def test_a_bad_reply_reroutes_its_chunk_in_request_order(
        self, fault, monkeypatch
    ):
        """A shard reply one result short, or with a record that does not
        parse, fails that chunk's RPC: the chunk reroutes degraded, every
        request keeps its own slot and label, and the link is retired."""
        service = _unsupervised(_tiny_service, shards=2)
        shard = service._shards[0]

        def bad_reply(sock, timeout=None):
            reply = recv_ctl(sock, timeout)
            if sock is shard.sock and reply.get("op") == "infer":
                if fault == "short":
                    reply["results"] = reply["results"][1:]
                else:
                    reply["results"][0]["surprise"] = True
            return reply

        monkeypatch.setattr(sharded_module, "recv_ctl", bad_reply)
        try:
            samples = _tiny_samples(4)
            reference = _tiny_service()
            expected = [reference.cleartext_label(s) for s in samples]
            reference.close()
            ids = [f"r{i}" for i in range(4)]
            results = service.infer_many(samples, request_ids=ids)
            assert [r.request_id for r in results] == ids
            assert [r.label for r in results] == expected
            stats = service.stats()
            assert stats["degraded_requests"] == 2 and stats["reroutes"] == 1
            assert stats["per_shard"][0]["failures"] == 1
            # a reply the front-end cannot parse retires the link: the
            # worker is reaped even though it was alive
            assert shard.state == "suspect"
            assert shard.process.exitcode is not None
        finally:
            service.close()

    def test_a_sample_that_is_no_feature_vector_fails_in_its_slot(self):
        service = _unsupervised(_tiny_service, shards=2)
        try:
            samples = list(_tiny_samples(3)) + [["not", "numbers"]]
            results = service.infer_many(samples, request_ids=list("abcd"))
            assert [r.request_id for r in results] == list("abcd")
            assert [r.ok for r in results] == [True, True, True, False]
            assert results[3].error_category == "permanent"
        finally:
            service.close()

    def test_a_late_reply_never_answers_a_later_request(self, tmp_path):
        """An RPC that times out retires its link: the worker's late
        reply to batch A is never read as batch B's answer, and the next
        ``stats()`` reads no stale record either."""
        marker = tmp_path / "slept"

        def slow_first_batch():
            service = _tiny_service()
            infer_many = service.infer_many

            def slow(*args, **kwargs):
                if not marker.exists():  # only the first worker sleeps
                    marker.touch()
                    time.sleep(1.0)
                return infer_many(*args, **kwargs)

            service.infer_many = slow
            return service

        service = _unsupervised(slow_first_batch, shards=1, rpc_timeout_s=0.3)
        try:
            samples = _tiny_samples(4)
            reference = _tiny_service()
            expected = [reference.cleartext_label(s) for s in samples]
            reference.close()
            batch_a = service.infer_many(samples[:2], request_ids=["a0", "a1"])
            time.sleep(1.5)  # long enough for a worker's late reply to A
            batch_b = service.infer_many(samples[2:], request_ids=["b0", "b1"])
            assert [r.request_id for r in batch_a + batch_b] == [
                "a0", "a1", "b0", "b1"
            ]
            # no shard is left alive: every slot is a typed error, never
            # another batch's label
            assert not any(r.ok for r in batch_a + batch_b)
            assert {r.error_category for r in batch_a + batch_b} == {"transient"}
            stats = service.stats()
            assert stats["per_shard"][0]["state"] == "suspect"
            assert stats["per_shard"][0]["failures"] == 1
            assert stats["degraded_requests"] == 4
            # a fresh link serves the same requests correctly
            assert service.restart_shard(0) is True
            batch_c = service.infer_many(samples[2:], request_ids=["c0", "c1"])
            assert [(r.request_id, r.label) for r in batch_c] == [
                ("c0", expected[2]), ("c1", expected[3])
            ]
            assert service.stats()["per_shard"][0]["service"]["requests"] == 2
        finally:
            service.close()

    def test_the_front_end_never_builds_a_service(self, tmp_path):
        """Every service is built in a shard process, also when a shard
        is killed mid-batch and its chunk must be served elsewhere."""
        builders = tmp_path / "pids"

        def recorded():
            with open(builders, "a") as log:
                log.write(f"{os.getpid()}\n")
            service = _tiny_service()
            infer_many = service.infer_many

            def slow(*args, **kwargs):
                time.sleep(0.5)  # the kill below lands mid-batch
                return infer_many(*args, **kwargs)

            service.infer_many = slow
            return service

        service = _unsupervised(recorded, shards=2)
        try:
            samples = _tiny_samples(4)
            reference = _tiny_service()
            expected = [reference.cleartext_label(s) for s in samples]
            reference.close()
            victim_pid = service._shards[0].process.pid
            killer = threading.Timer(
                0.2, lambda: os.kill(victim_pid, signal.SIGKILL)
            )
            killer.start()
            results = service.infer_many(samples)
            killer.join()
            assert [r.label for r in results] == expected
            pids = {int(line) for line in builders.read_text().split()}
            assert len(pids) == 2 and os.getpid() not in pids
            stats = service.stats()
            assert stats["degraded_requests"] == 2
            assert [s["requests"] for s in stats["per_shard"]] == [0, 4]
        finally:
            service.close()

    def test_a_request_no_record_can_carry_retires_no_shard(self):
        """Faults of the request are not faults of the link: a chunk too
        big for one control record is split, and a request id JSON cannot
        carry or a request over the cap fails in its own slot.  Nothing
        reroutes, and every shard stays alive."""
        service = _unsupervised(_tiny_service, shards=2)
        try:
            samples = _tiny_samples(6)
            reference = _tiny_service()
            expected = [reference.cleartext_label(s) for s in samples]
            reference.close()
            # three 400 kB ids overflow one record together, not alone
            ids = [f"{i}" + "x" * 400_000 for i in range(4)]
            ids += [uuid.UUID(int=5), "y" * (1 << 20)]
            results = service.infer_many(samples, request_ids=ids)
            assert [r.request_id for r in results] == ids
            assert [r.label for r in results[:4]] == expected[:4]
            for bad in results[4:]:
                assert bad.error_type == "EngineError"
                assert bad.error_category == "permanent"
            stats = service.stats()
            assert stats["live_shards"] == 2
            assert [s["state"] for s in stats["per_shard"]] == ["alive"] * 2
            assert [s["failures"] for s in stats["per_shard"]] == [0, 0]
            assert [s["requests"] for s in stats["per_shard"]] == [3, 1]
            assert stats["degraded_requests"] == 0 and stats["reroutes"] == 0
        finally:
            service.close()

    def test_a_chunk_over_the_rpc_sample_cap_is_split(self, monkeypatch):
        monkeypatch.setattr(sharded_module, "MAX_RPC_SAMPLES", 2)
        service = _unsupervised(_tiny_service, shards=1)
        try:
            samples = _tiny_samples(5)
            reference = _tiny_service()
            expected = [reference.cleartext_label(s) for s in samples]
            reference.close()
            results = service.infer_many(samples)
            assert [r.label for r in results] == expected
            stats = service.stats()
            assert stats["per_shard"][0]["state"] == "alive"
            assert stats["per_shard"][0]["service"]["requests"] == 5
        finally:
            service.close()

    def test_a_full_rpc_reply_fits_one_control_record(self, tiny_service):
        """A worker's reply to ``MAX_RPC_SAMPLES`` requests fits the cap
        with room to spare, so it never fails for its own size."""
        served = tiny_service.infer(_tiny_samples(1)[0], request_id="r" * 64)
        failed = InferenceResult.failed(
            EngineError("e" * 256), request_id="r" * 64
        )
        records = [
            dataclasses.asdict(r) for r in (served, failed)
        ] * (sharded_module.MAX_RPC_SAMPLES // 2)
        reply = {"ok": True, "op": "infer", "results": records}
        assert len(encode_ctl(reply)) < MAX_CTL_BYTES // 2

    def test_has_no_breaker_of_its_own(self):
        """A failed RPC retires the link, so there is nothing for a
        per-shard breaker to decide (the shard services keep theirs)."""
        assert not hasattr(sharded_module, "CircuitBreaker")
        for knob in ("breaker_threshold", "breaker_cooldown_s"):
            with pytest.raises(TypeError):
                ShardedService(_tiny_service, shards=1, **{knob: 1})

    def test_rejects_bad_shard_count(self):
        with pytest.raises(EngineError):
            ShardedService(_tiny_service, shards=0)


#: Run in a fresh interpreter (a forked child would inherit whatever
#: thresholds glibc has already adapted to in the test process): page
#: faults of four rounds of a batch-shaped allocation pattern — several
#: MB-sized arrays alive at once, all freed at the end of the round —
#: after one warm-up round.
_BATCH_LIKE_FAULTS = """
import resource, sys
import numpy as np
from repro.transport.worker import retain_heap

if sys.argv[1] == "retain":
    retain_heap()

def one_round():
    arrays = [np.empty(6 << 20, dtype=np.uint8) for _ in range(4)]
    for array in arrays:
        array[::4096] = 1  # touch every page

one_round()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(4):
    one_round()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestRetainHeap:
    """``retain_heap`` (shard start-up): later batches
    reuse the first batch's memory instead of faulting it in again."""

    @staticmethod
    def _faults(mode):
        import subprocess
        import sys

        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", _BATCH_LIKE_FAULTS, mode],
            capture_output=True, text=True, env=env, check=True,
        )
        return int(done.stdout)

    def test_later_rounds_fault_nothing(self):
        if self._faults("default") < 1000:
            pytest.skip("this allocator keeps freed memory by default")
        assert self._faults("retain") < 100

    def test_no_op_without_mallopt(self, monkeypatch):
        import ctypes

        def no_libc(name):
            raise OSError("no C library handle")

        monkeypatch.setattr(ctypes, "CDLL", no_libc)
        retain_heap()  # must not raise


def _wait_until(predicate, timeout=90.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return bool(predicate())


class TestShardSupervision:
    def test_supervisor_heals_worker_killed_mid_batch(self):
        service = ShardedService(
            _tiny_service, shards=2,
            probe_interval_s=0.1, restart_backoff_s=0.05,
            restart_backoff_cap_s=0.2,
        )
        try:
            samples = _tiny_samples(4)
            reference = _tiny_service()
            expected = [reference.cleartext_label(s) for s in samples]
            reference.close()
            victim_pid = service._shards[0].process.pid
            killer = threading.Timer(
                0.2, lambda: os.kill(victim_pid, signal.SIGKILL)
            )
            killer.start()
            results = service.infer_many(samples)
            killer.join()
            # the batch completed with every label correct despite the
            # SIGKILL: the dead shard's chunk rerouted to the live one
            assert [r.label for r in results] == expected
            # the supervisor re-forks the worker within its backoff
            # budget and the shard walks suspect -> restarting -> alive
            assert _wait_until(
                lambda: service.stats()["restarts"] >= 1
                and len(service.live_shards()) == 2
            )
            assert service.shard_states() == ["alive", "alive"]
            stats = service.stats()
            assert stats["per_shard"][0]["restarts"] == 1
            assert stats["supervisor"]["restarts"] >= 1
            # a later batch is served by the restarted shard: the
            # degraded counter stops growing
            degraded_before = stats["degraded_requests"]
            results = service.infer_many(samples)
            assert [r.label for r in results] == expected
            assert service.stats()["degraded_requests"] == degraded_before
        finally:
            service.close()

    def test_probe_detects_dead_worker_and_restart_revives_it(self):
        service = _unsupervised(_tiny_service, shards=2)
        try:
            victim = service._shards[0]
            victim.process.kill()
            victim.process.join()
            old_pid = victim.process.pid
            # the heartbeat proves the worker gone: suspect + reaped
            assert service.probe_shard(0) is False
            assert victim.state == "suspect"
            assert victim.process.exitcode is not None
            # a live shard probes healthy
            assert service.probe_shard(1) is True
            # restart re-forks and re-probes before the shard is alive
            assert service.restart_shard(0) is True
            assert victim.state == "alive"
            assert victim.process.pid != old_pid
            assert victim.last_error is None
            assert service.stats()["restarts"] == 1
            results = service.infer_many(_tiny_samples(2))
            assert all(r.ok for r in results)
            assert service.stats()["degraded_requests"] == 0
        finally:
            service.close()

    def test_restart_budget_exhausts_to_terminal_failed_state(self):
        service = _unsupervised(_tiny_service, shards=2)
        supervisor = ShardSupervisor(
            service, probe_interval_s=60.0, max_restarts=0
        )
        try:
            victim = service._shards[0]
            victim.process.kill()
            victim.process.join()
            assert service.probe_shard(0) is False
            # budget of zero: the first supervision pass retires it
            actions = supervisor.check_once()
            assert actions["gave_up"] == 1
            assert victim.state == "failed"
            # a failed shard is terminal: later passes leave it alone
            assert supervisor.check_once()["gave_up"] == 0
            assert victim.state == "failed"
            assert supervisor.stats()["gave_up"] == 1
            # ...but serving continues, rerouted to the live shard
            results = service.infer_many(_tiny_samples(2))
            assert all(r.ok for r in results)
            assert service.stats()["degraded_requests"] >= 1
        finally:
            supervisor.close()
            service.close()

    def test_backoff_schedule_caps_and_gates_restart_attempts(self):
        service = _unsupervised(_tiny_service, shards=1)
        fake_now = [100.0]
        supervisor = ShardSupervisor(
            service, max_restarts=5, backoff_s=0.25, backoff_cap_s=1.0,
            clock=lambda: fake_now[0],
        )
        try:
            shard = service._shards[0]
            shard.process.kill()
            assert service.probe_shard(0) is False
            assert shard.state == "suspect"

            # make every restart attempt fail without forking anything
            service.restart_shard = lambda index: False  # type: ignore[method-assign]
            delays = []
            for _ in range(4):
                assert supervisor.check_once()["restart_failures"] == 1
                delays.append(supervisor.next_restart_at[0] - fake_now[0])
                # before the backoff expires the shard is left alone
                assert supervisor.check_once()["restart_failures"] == 0
                fake_now[0] = supervisor.next_restart_at[0]
            # capped exponential: 0.25, 0.5, 1.0, 1.0 (cap)
            assert delays == [0.25, 0.5, 1.0, 1.0]
        finally:
            supervisor.close()
            service.close()


class TestAdmissionAndDrain:
    def test_overload_sheds_the_whole_batch(self):
        service = _unsupervised(_tiny_service, shards=1, max_inflight=2)
        try:
            box = []
            thread = threading.Thread(
                target=lambda: box.extend(service.infer_many(_tiny_samples(2)))
            )
            thread.start()
            assert _wait_until(lambda: service._gate.stats()["inflight"] == 2)
            # budget full: the incoming batch is shed whole, typed
            with pytest.raises(ServiceOverloadedError):
                service.infer_many(_tiny_samples(1))
            thread.join(timeout=90.0)
            assert not thread.is_alive()
            assert len(box) == 2 and all(r.ok for r in box)
            stats = service.stats()
            assert stats["shed_requests"] == 1
            assert stats["requests"] == 2  # shed work never counts as served
            assert stats["max_inflight"] == 2
            assert stats["inflight"] == 0
            # budget free again: the same batch is admitted
            assert all(r.ok for r in service.infer_many(_tiny_samples(1)))
        finally:
            service.close()

    def test_close_drains_inflight_batch_then_refuses_new_work(self):
        service = _unsupervised(_tiny_service, shards=1)
        box = []
        thread = threading.Thread(
            target=lambda: box.extend(service.infer_many(_tiny_samples(2)))
        )
        thread.start()
        assert _wait_until(lambda: service._gate.stats()["inflight"] == 2)
        service.close(drain_timeout_s=90.0)
        thread.join(timeout=90.0)
        assert not thread.is_alive()
        # the in-flight batch finished intact during the drain window
        assert len(box) == 2 and all(r.ok for r in box)
        stats = service.stats()
        assert stats["drained_requests"] == 2
        assert stats["aborted_requests"] == 0
        assert stats["draining"] is True
        with pytest.raises(ServiceDrainingError):
            service.infer_many(_tiny_samples(1))
        service.close()  # idempotent

    def test_expired_drain_grace_counts_aborted_requests(self):
        service = _unsupervised(_tiny_service, shards=1)
        box = []
        thread = threading.Thread(
            target=lambda: box.extend(service.infer_many(_tiny_samples(2)))
        )
        thread.start()
        assert _wait_until(lambda: service._gate.stats()["inflight"] == 2)
        service.close(drain_timeout_s=0.0)
        stats = service.stats()
        assert stats["aborted_requests"] == 2
        assert stats["drained_requests"] == 0
        thread.join(timeout=90.0)
        assert not thread.is_alive()


class TestWorkerLifecycle:
    def test_request_shutdown_drains_idle_server(self, tiny_service):
        server = WorkerServer(tiny_service)
        thread = threading.Thread(target=server.serve_forever)
        thread.start()
        try:
            # an idle server (blocked in accept) drains immediately
            server.request_shutdown()
            thread.join(timeout=30.0)
            assert not thread.is_alive()
            assert server.draining is True
        finally:
            server.close()

    def test_server_survives_mid_record_disconnect(self, tiny_service):
        server = WorkerServer(tiny_service)
        thread = threading.Thread(target=server.serve_forever)
        thread.start()
        try:
            # half a ctl frame, then vanish: the connection dies, the
            # server does not
            frame = encode_frame(checksummed("ctl", b'{"op":"ping"}'))
            sock = socket.create_connection(server.address)
            sock.sendall(frame[: len(frame) // 2])
            sock.close()
            # a fresh connection is served normally afterwards
            sock = socket.create_connection(server.address)
            try:
                send_ctl(sock, {"op": "ping"})
                assert recv_ctl(sock, timeout=30.0)["op"] == "pong"
            finally:
                sock.close()
            assert server.connections == 2
        finally:
            server.request_shutdown()
            thread.join(timeout=30.0)
            server.close()

    def test_garbage_bytes_drop_connection_not_server(self, tiny_service):
        server = WorkerServer(tiny_service)
        thread = threading.Thread(target=server.serve_forever)
        thread.start()
        try:
            bad = checksummed("ctl", b'{"op":"ping"}')
            bad = Frame(tag="ctl", seq=0, payload=bad.payload, crc=bad.crc ^ 1)
            sock = socket.create_connection(server.address)
            sock.sendall(encode_frame(bad))
            sock.close()
            sock = socket.create_connection(server.address)
            try:
                send_ctl(sock, {"op": "ping"})
                assert recv_ctl(sock, timeout=30.0)["op"] == "pong"
            finally:
                sock.close()
            assert _wait_until(
                lambda: server.counters.get("integrity_errors", 0) == 1,
                timeout=30.0,
            )
        finally:
            server.request_shutdown()
            thread.join(timeout=30.0)
            server.close()

    def test_handler_exception_reported_not_fatal(self, tiny_service):
        server = WorkerServer(tiny_service)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"once": True})
        thread.start()
        sock = socket.create_connection(server.address)
        try:
            # malformed infer payload: the handler raises, the reply is
            # a typed refusal, and the connection keeps serving
            send_ctl(sock, {"op": "infer", "samples": "garbage"})
            reply = recv_ctl(sock, timeout=30.0)
            assert reply["ok"] is False
            assert reply["error_type"]
            send_ctl(sock, {"op": "ping"})
            assert recv_ctl(sock, timeout=30.0)["op"] == "pong"
            send_ctl(sock, {"op": "shutdown"})
            recv_ctl(sock, timeout=30.0)
        finally:
            sock.close()
            thread.join(timeout=30.0)
        assert server.counters.get("op_errors", 0) == 1

    def test_port_file_written_then_removed_on_close(
        self, tiny_service, tmp_path
    ):
        server = WorkerServer(tiny_service)
        port_file = tmp_path / "worker.port"
        server.write_port_file(str(port_file))
        host, port = port_file.read_text().split()
        assert (host, int(port)) == tuple(server.address)
        server.close()
        assert not port_file.exists()
        server.close()  # idempotent
