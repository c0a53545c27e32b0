"""What PR 19 wrote once: the protocol round, the request path, the gate.

* one round puts the same frames on the link in the same order whether
  ``TwoPartySession.run``, a slot of ``run_many``, a
  ``SequentialSession`` cycle or cut-and-choose's surviving copy drives
  it, and the evaluator's view comes from those frames alone;
* ``transfer_input_labels`` accounts exactly what its channel carried;
* ``infer_many`` serves in the calling thread, in request order, with
  per-request error isolation on every backend;
* the outsourced backend builds its transformed circuit once;
* one failure record, one wire record, one admission gate.
"""

import dataclasses
import random
import threading
import zlib

import numpy as np
import pytest

from repro.circuits import CircuitBuilder, FixedPointFormat, simulate
from repro.circuits.netlist import LevelSchedule
from repro.circuits.sequential import SequentialCircuit
from repro.engine import EngineConfig, get_backend
from repro.errors import (
    ChannelIntegrityError,
    GarblingError,
    ServiceDrainingError,
    ServiceOverloadedError,
)
from repro.gc import SequentialSession, TwoPartySession, outsourcing
from repro.gc.channel import make_channel_pair
from repro.gc.garble import Garbler
from repro.gc.labels import label_rows
from repro.gc.ot import TEST_GROUP_512
from repro.gc.protocol import (
    OT_EXTENSION_THRESHOLD,
    receive_garbled,
    send_garbled,
    transfer_input_labels,
)
from repro.nn import Dense, Sequential, Tanh, TrainConfig, Trainer
from repro.resilience import (
    AdmissionGate,
    FaultPlan,
    FaultSpec,
    faulty_channel_factory,
    is_transient,
)
from repro.service import InferenceRequest, InferenceResult, PrivateInferenceService

N_ALICE = 4
#: wide enough that every flow takes the OT extension
N_BOB = OT_EXTENSION_THRESHOLD + 2

#: one round, as (direction, tag), in wire order
ROUND = [
    ("a2b", "tables"),
    ("a2b", "const_labels"),
    ("a2b", "alice_labels"),
    ("b2a", "ot"),
    ("a2b", "ot"),
    ("b2a", "output_labels"),
]


def wide_circuit():
    """``N_ALICE`` x ``N_BOB`` inputs, a few non-free gates, and the
    constant-one wire as an output (so the evaluator's constant labels
    reach the merge step)."""
    bld = CircuitBuilder()
    a = bld.add_alice_inputs(N_ALICE)
    b = bld.add_bob_inputs(N_BOB)
    acc = bld.emit_and(a[0], b[0])
    for i in range(1, N_BOB):
        acc = bld.emit_xor(acc, bld.emit_and(a[i % N_ALICE], b[i]))
    bld.mark_output(acc)
    bld.mark_output(bld.emit_or(a[1], b[1]))
    bld.mark_output(1)
    return bld.build()


def _inputs(seed=5):
    rng = random.Random(seed)
    return (
        [rng.randrange(2) for _ in range(N_ALICE)],
        [rng.randrange(2) for _ in range(N_BOB)],
    )


def _keeping_stats(inner=make_channel_pair):
    """``(factory, links)``: every link the factory builds leaves its
    ``ChannelStats`` in ``links``."""
    links = []

    def factory():
        alice, bob, stats = inner()
        links.append(stats)
        return alice, bob, stats

    return factory, links


def _session(cls, circuit, factory):
    return cls(
        circuit, ot_group=TEST_GROUP_512, rng=random.Random(1),
        channel_factory=factory,
    )


#: the drivers of a round, each ``(circuit, factory, a, b) -> outputs``
def _run(circuit, factory, a, b):
    return _session(TwoPartySession, circuit, factory).run(a, b).outputs


def _run_many(circuit, factory, a, b):
    session = _session(TwoPartySession, circuit, factory)
    first, second = session.run_many([a, a], [b, b])
    assert first.outputs == second.outputs
    return first.outputs


def _cycle(circuit, factory, a, b):
    session = _session(SequentialSession, SequentialCircuit(circuit, []), factory)
    return session.run([a], [b], cycles=1).final_outputs


def _cut_and_choose(circuit, factory, a, b):
    backend = get_backend(
        "cut_and_choose", ot_group=TEST_GROUP_512, rng=random.Random(1),
        channel_factory=factory,
    )
    return backend.run(circuit, a, b).outputs


FLOWS = {
    "run": _run, "run_many": _run_many, "sequential": _cycle,
    "cut_and_choose": _cut_and_choose,
}


class TestOneRoundOnTheWire:
    def test_every_flow_moves_the_same_frames_in_the_same_order(self):
        circuit = wide_circuit()
        a, b = _inputs()
        expected = simulate(circuit, a, b)
        logs = {}
        for name, flow in FLOWS.items():
            factory, links = _keeping_stats()
            assert flow(circuit, factory, a, b) == expected
            logs[name] = [stats.log for stats in links]
        assert len(logs["run_many"]) == 2  # one link per slot
        for name, links in logs.items():
            for log in links:
                assert [(d, tag) for d, tag, _ in log] == ROUND, name
        # same circuit, same widths: the frames have the same sizes too
        reference = logs["run"][0]
        assert logs["run_many"] == [reference, reference]
        assert logs["run"] == logs["sequential"] == logs["cut_and_choose"] == [reference]

    def test_run_and_run_many_account_the_same_bytes_per_tag(self):
        circuit = wide_circuit()
        a, b = _inputs(seed=9)
        session = TwoPartySession(
            circuit, ot_group=TEST_GROUP_512, rng=random.Random(2)
        )
        single = session.run(a, b)
        batched = session.run_many([a, a, a], [b, b, b])
        assert set(single.comm) == {tag for _, tag in ROUND}
        for result in batched:
            assert result.comm == single.comm
            assert result.outputs == single.outputs


class TestBobsView:
    def test_view_is_rebuilt_from_the_frames_alone(self):
        circuit = wide_circuit()
        a, _ = _inputs()
        garbler = Garbler(circuit, rng=random.Random(3))
        garbled = garbler.garble()
        alice_end, bob_end, _ = make_channel_pair()
        send_garbled(alice_end, garbler, garbled, a)
        view, alice_labels = receive_garbled(bob_end, circuit.counts().non_xor)
        assert view is not garbled
        assert garbled.decode_bits and view.decode_bits == []
        assert view.const_labels == tuple(garbled.const_labels)
        assert view.tables_bytes() == garbled.tables_bytes()
        assert view.tweak_base == 0
        assert alice_labels == garbler.input_labels_for(
            list(circuit.alice_inputs), a
        )

    @pytest.mark.parametrize("flow", sorted(FLOWS))
    def test_evaluator_uses_the_constant_labels_that_crossed_the_link(
        self, flow
    ):
        """A ``const_labels`` frame re-framed with other labels (valid
        checksum) must reach the evaluator: the constant-one output then
        fails Alice's decode instead of silently decoding from labels
        read off the garbler's object."""

        def relabelling():
            alice, bob, stats = make_channel_pair()

            def dispatch(frame, inner=alice._dispatch):
                if frame.tag == "const_labels":
                    payload = frame.payload[:4] + bytes(32)
                    frame = dataclasses.replace(
                        frame, payload=payload, crc=zlib.crc32(payload)
                    )
                inner(frame)

            alice._dispatch = dispatch
            return alice, bob, stats

        a, b = _inputs()
        with pytest.raises(GarblingError):
            FLOWS[flow](wide_circuit(), relabelling, a, b)

    @pytest.mark.parametrize("flow", sorted(FLOWS))
    def test_corrupt_const_labels_frame_is_a_typed_transient_error(self, flow):
        plan = FaultPlan([FaultSpec("corrupt", tag="const_labels")], seed=0)
        factory = faulty_channel_factory(plan, inner=make_channel_pair)
        a, b = _inputs()
        with pytest.raises(ChannelIntegrityError) as excinfo:
            FLOWS[flow](wide_circuit(), factory, a, b)
        assert is_transient(excinfo.value)
        assert plan.applied == [("corrupt", "const_labels", 1)]

    def test_a_constants_frame_of_the_wrong_length_is_rejected(self):
        alice_end, bob_end, _ = make_channel_pair()
        alice_end.send_bytes(bytes(64), tag="tables")
        alice_end.send_labels([1, 2, 3], tag="const_labels")
        alice_end.send_labels([], tag="alice_labels")
        with pytest.raises(ChannelIntegrityError, match="not 2"):
            receive_garbled(bob_end, 2)


class TestOTEntryPoint:
    @pytest.mark.parametrize("width", [3, OT_EXTENSION_THRESHOLD + 1])
    def test_reported_bytes_are_what_the_channel_carried(self, width):
        """Direct base OT below the threshold, extension above it: the
        returned total is the ``"ot"`` traffic the channel accounted."""
        bld = CircuitBuilder()
        a = bld.add_alice_inputs(1)
        b = bld.add_bob_inputs(width)
        bld.mark_output(bld.emit_and(a[0], b[0]))
        circuit = bld.build()
        rng = random.Random(4)
        garbler = Garbler(circuit, rng=rng)
        garbler.garble()
        bits = [rng.randrange(2) for _ in range(width)]
        alice_end, bob_end, stats = make_channel_pair()
        labels, total = transfer_input_labels(
            garbler, list(circuit.bob_inputs), bits, (alice_end, bob_end),
            group=TEST_GROUP_512, rng=rng,
        )
        assert total == stats.by_tag()["ot"] == stats.total_bytes
        # one row layout on both sides of the threshold
        assert np.array_equal(labels, label_rows(garbler.input_labels_for(
            list(circuit.bob_inputs), bits
        )))

    def test_channel_is_required(self):
        circuit = wide_circuit()
        garbler = Garbler(circuit, rng=random.Random(4))
        with pytest.raises(TypeError):
            transfer_input_labels(garbler, [], [])


# ---------------------------------------------------------------------------
# the request path
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, size=(40, 5))
    y = (x @ rng.normal(size=(5, 3))).argmax(axis=1)
    model = Sequential([Dense(4), Tanh(), Dense(3)], input_shape=(5,), seed=3)
    Trainer(model, TrainConfig(epochs=10, learning_rate=0.2)).fit(x, y)
    return model, x


def _config():
    return EngineConfig(
        fmt=FixedPointFormat(2, 6), activation="exact",
        ot_group=TEST_GROUP_512, rng=random.Random(7),
    )


@pytest.fixture(scope="module")
def service(trained):
    model, x = trained
    service = PrivateInferenceService(model, _config())
    yield service, x
    service.close()


class TestTablesFrameSize:
    @pytest.mark.parametrize("extra", [5, -1])
    def test_a_tables_frame_of_the_wrong_size_is_a_typed_transient_error(
        self, trained, monkeypatch, extra
    ):
        """Padded or short by whole tables, with a valid checksum: the
        evaluator refuses the frame as a transient wire fault naming both
        counts — it never evaluates the first ``n`` tables of a longer
        frame, and a short one is retryable like every other size check
        on the wire."""

        def resizing():
            alice, bob, stats = make_channel_pair()

            def dispatch(frame, inner=alice._dispatch):
                if frame.tag == "tables":
                    payload = frame.payload + bytes(32 * max(extra, 0))
                    payload = payload[: len(frame.payload) + 32 * extra]
                    frame = dataclasses.replace(
                        frame, payload=payload, crc=zlib.crc32(payload)
                    )
                inner(frame)

            alice._dispatch = dispatch
            return alice, bob, stats

        monkeypatch.setattr("repro.service.make_channel_pair", resizing)
        model, x = trained
        svc = PrivateInferenceService(model, _config())
        try:
            n_tables = svc.compiled.circuit.counts().non_xor
            with pytest.raises(
                ChannelIntegrityError,
                match=f"carries {n_tables + extra} tables .*the netlist has {n_tables}",
            ) as caught:
                svc.infer(x[0])
            assert is_transient(caught.value)
        finally:
            svc.close()


class TestServeInTheCallingThread:
    def test_cut_and_choose_batch_is_ordered_isolated_and_in_thread(
        self, service
    ):
        svc, x = service
        backend = svc._backend("cut_and_choose")
        served_on = []
        real_run = backend.run

        def spy(*args, **kwargs):
            served_on.append(threading.get_ident())
            return real_run(*args, **kwargs)

        backend.run = spy
        try:
            results = svc.infer_many(
                [
                    InferenceRequest(x[0], "first", "cut_and_choose"),
                    InferenceRequest(np.zeros(99), "bad", "cut_and_choose"),
                    InferenceRequest(x[1], "last", "cut_and_choose"),
                ],
                return_errors=True,
            )
        finally:
            del backend.run
        assert [r.request_id for r in results] == ["first", "bad", "last"]
        assert [r.ok for r in results] == [True, False, True]
        assert [r.backend for r in results] == ["cut_and_choose"] * 3
        assert results[1].error_type == "CompileError"
        assert results[1].error_category == "permanent"
        assert [results[0].label, results[2].label] == [
            svc.cleartext_label(x[0]), svc.cleartext_label(x[1])
        ]
        # the malformed sample never reached the backend; the other two
        # ran right here, one after the other
        assert served_on == [threading.get_ident()] * 2

    def test_the_removed_options_are_gone(self, service):
        svc, x = service
        with pytest.raises(TypeError):
            svc.infer_many([x[0]], max_workers=2)
        with pytest.raises(TypeError):
            svc.infer_many([x[0]], batch=False)


class TestOutsourcedBuildsOnce:
    def test_three_requests_transform_and_schedule_once(self, monkeypatch):
        calls = {"outsource_circuit": 0, "LevelSchedule.build": 0}
        real_transform = outsourcing.outsource_circuit
        real_build = LevelSchedule.build.__func__

        def transform(circuit):
            calls["outsource_circuit"] += 1
            return real_transform(circuit)

        def build(cls, circuit):
            calls["LevelSchedule.build"] += 1
            return real_build(cls, circuit)

        monkeypatch.setattr(outsourcing, "outsource_circuit", transform)
        monkeypatch.setattr(LevelSchedule, "build", classmethod(build))
        circuit = wide_circuit()
        backend = get_backend(
            "outsourced", ot_group=TEST_GROUP_512, rng=random.Random(6)
        )
        for seed in range(3):
            a, b = _inputs(seed)
            result = backend.run(circuit, a, b)
            assert result.outputs == simulate(circuit, a, b)
            assert result.backend == "outsourced"
        assert calls == {"outsource_circuit": 1, "LevelSchedule.build": 1}
        # another circuit gets its own transform
        other = wide_circuit()
        a, b = _inputs(7)
        assert backend.run(other, a, b).outputs == simulate(other, a, b)
        assert calls["outsource_circuit"] == 2


class TestOneRecord:
    def test_failed_record_round_trips_through_the_wire_form(self):
        try:
            raise ChannelIntegrityError("frame #3 failed its checksum")
        except ChannelIntegrityError as exc:
            failed = InferenceResult.failed(exc, backend="folded", request_id="r9")
        assert not failed.ok and failed.label == -1
        assert failed.comm_bytes == 0 and failed.times == {}
        assert failed.error == (
            "ChannelIntegrityError: frame #3 failed its checksum"
        )
        assert failed.error_type == "ChannelIntegrityError"
        assert failed.error_category == "transient"
        assert (failed.backend, failed.request_id) == ("folded", "r9")
        # what a shard worker sends is asdict(); the front-end's inverse
        assert InferenceResult(**dataclasses.asdict(failed)) == failed

    def test_served_record_round_trips_through_the_wire_form(self, service):
        svc, x = service
        record = svc.infer(x[2], backend="simulate", request_id="ok")
        assert InferenceResult(**dataclasses.asdict(record)) == record


class TestAdmissionGate:
    def test_group_admits_whole_or_is_shed_whole(self):
        gate = AdmissionGate(max_inflight=3)
        gate.admit(2)
        with pytest.raises(ServiceOverloadedError):
            gate.admit(2)
        stats = gate.stats()
        assert (stats["inflight"], stats["shed_requests"]) == (2, 2)
        gate.release(2)
        gate.admit(3)
        assert gate.stats()["inflight"] == 3

    def test_drain_counts_once_and_refuses_new_work(self):
        gate = AdmissionGate()
        gate.admit(2)
        finisher = threading.Timer(0.05, gate.release, args=(1,))
        finisher.start()
        try:
            assert gate.drain(timeout_s=0.5) is True
        finally:
            finisher.join(timeout=5.0)
        assert not finisher.is_alive()
        stats = gate.stats()
        assert stats["draining"] is True
        assert (stats["drained_requests"], stats["aborted_requests"]) == (1, 1)
        with pytest.raises(ServiceDrainingError):
            gate.admit(1)
        assert gate.drain(timeout_s=0.0) is False  # idempotent
        assert gate.stats() == stats
