"""Resilience-layer tests: the chaos matrix plus unit coverage.

The matrix drives every fault kind (drop / corrupt / truncate / delay)
against every protocol flight class (tables / OT / input labels) across
the two_party and cut_and_choose flows, and against a two-cycle run of
a core with registers (its carried ``state_labels`` flight too), and
asserts the core invariant: a faulted run either completes with the *correct*
outputs (the fault missed that flow's wire, or a retry cleared it) or
raises a clean typed transient :class:`repro.errors.ReproError` —
never a silent hang, never a wrong label.

Seeded end to end: set ``REPRO_CHAOS_SEED`` to re-run the matrix under
a different corruption/truncation randomness (CI runs three seeds).
"""

from __future__ import annotations

import os
import random
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.circuits import CircuitBuilder, FixedPointFormat, simulate
from repro.compile import folded_mac_cell
from repro.engine import EngineConfig, PregarbledPool, get_backend
from repro.errors import (
    ChannelClosedError,
    ChannelEmptyError,
    ChannelIntegrityError,
    CompileError,
    DeadlineExceeded,
    EngineError,
    ReproError,
    ServiceDrainingError,
    ServiceOverloadedError,
)
from repro.gc import SequentialSession, TwoPartySession
from repro.gc.channel import make_channel_pair
from repro.gc.ot import TEST_GROUP_512
from repro.nn import Dense, Sequential, Tanh, TrainConfig, Trainer
from repro.resilience import (
    TRANSIENT_ERRORS,
    CircuitBreaker,
    Deadline,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    StreamFaultPlan,
    StreamFaultSpec,
    fault_category,
    faulty_channel_factory,
    is_transient,
)
from repro.service import PrivateInferenceService
from repro.transport import SocketChannel, socketpair_channel_factory
from repro.transport.worker import (
    ctl_channel,
    encode_ctl,
    recv_ctl,
    send_ctl,
    serve_connection,
)

#: Chaos randomness seed — CI's chaos job sweeps several values.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

FMT = FixedPointFormat(2, 6)


def small_circuit(seed=7, n_gates=50, n_inputs=4):
    rng = random.Random(seed)
    bld = CircuitBuilder()
    a = bld.add_alice_inputs(n_inputs)
    b = bld.add_bob_inputs(n_inputs)
    wires = list(a) + list(b)
    ops = ["xor", "and", "or", "nand", "xnor", "nor"]
    for _ in range(n_gates):
        op = rng.choice(ops)
        x, y = rng.choice(wires), rng.choice(wires)
        if op == "xnor":
            wires.append(bld.emit_not(bld.emit_xor(x, y)))
        else:
            wires.append(getattr(bld, f"emit_{op}")(x, y))
    for w in wires[-4:]:
        bld.mark_output(w)
    return bld.build()


def _wait_until(predicate, timeout=15.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ---------------------------------------------------------------------------
# the chaos matrix
# ---------------------------------------------------------------------------


def _fault_spec(kind, tag):
    if kind == "delay":
        # far beyond the request deadline: must surface DeadlineExceeded
        return FaultSpec("delay", tag=tag, nth=0, delay_s=120.0)
    return FaultSpec(kind, tag=tag, nth=0)


class TestChaosMatrix:
    """Every fault x flight x flow: typed error or correct output."""

    @pytest.mark.parametrize("backend_name", ["two_party", "cut_and_choose"])
    @pytest.mark.parametrize("tag", ["tables", "ot", "alice_labels"])
    @pytest.mark.parametrize("kind", ["drop", "corrupt", "truncate", "delay"])
    def test_fault_never_yields_wrong_output(self, kind, tag, backend_name):
        circuit = small_circuit()
        rng = random.Random(CHAOS_SEED)
        a = [rng.randrange(2) for _ in range(4)]
        b = [rng.randrange(2) for _ in range(4)]
        expected = simulate(circuit, a, b)
        plan = FaultPlan([_fault_spec(kind, tag)], seed=CHAOS_SEED)
        backend = get_backend(
            backend_name,
            ot_group=TEST_GROUP_512,
            rng=random.Random(CHAOS_SEED + 1),
            channel_factory=faulty_channel_factory(plan),
            request_timeout_s=30.0,
        )
        try:
            result = backend.run(circuit, a, b)
        except ReproError as exc:
            # clean typed failure, classified transient (retryable)
            assert is_transient(exc), exc
            assert fault_category(exc) == "transient"
        else:
            # the fault missed this flow's wire (e.g. no frame with the
            # tag) — then the output must be the correct one
            assert result.outputs == expected

    @pytest.mark.parametrize(
        "tag", ["tables", "ot", "alice_labels", "state_labels"]
    )
    @pytest.mark.parametrize("kind", ["drop", "corrupt", "truncate", "delay"])
    def test_clocked_run_fault_never_yields_wrong_output(self, kind, tag):
        """Two cycles of the one-MAC cell, its accumulator carried as
        register labels: a fault on any flight, the carried state's
        included, ends in a typed transient error or in what
        ``SequentialCircuit.run`` computes."""
        cell = folded_mac_cell(FMT, fan_in=2, fold=1)
        rng = random.Random(CHAOS_SEED)
        a = [[rng.randrange(2) for _ in range(cell.core.n_alice)]
             for _ in range(2)]
        b = [[rng.randrange(2) for _ in range(cell.core.n_bob)]
             for _ in range(2)]
        plan = FaultPlan([_fault_spec(kind, tag)], seed=CHAOS_SEED)
        session = SequentialSession(
            cell,
            ot_group=TEST_GROUP_512,
            rng=random.Random(CHAOS_SEED + 1),
            channel_factory=faulty_channel_factory(plan),
        )
        try:
            result = session.run(a, b, deadline=Deadline(30.0))
        except ReproError as exc:
            assert is_transient(exc), exc
            assert fault_category(exc) == "transient"
        else:
            assert result.outputs_per_cycle == cell.run(a, b)
        # every one of these flights is on a clocked run's wire
        assert len(plan.applied) == 1

    @pytest.mark.parametrize("kind", ["drop", "corrupt", "truncate"])
    def test_retry_clears_oneshot_fault(self, kind):
        """Plan counters persist across attempts: retry #2 sails through."""
        circuit = small_circuit()
        a, b = [1, 0, 1, 0], [0, 1, 1, 0]
        expected = simulate(circuit, a, b)
        plan = FaultPlan([_fault_spec(kind, "tables")], seed=CHAOS_SEED)
        backend = get_backend(
            "two_party",
            ot_group=TEST_GROUP_512,
            rng=random.Random(CHAOS_SEED),
            channel_factory=faulty_channel_factory(plan),
        )
        retried = []
        policy = RetryPolicy(max_retries=2, backoff_s=0.0)
        result = policy.call(
            lambda: backend.run(circuit, a, b),
            on_retry=lambda exc, attempt: retried.append(type(exc).__name__),
        )
        assert result.outputs == expected
        assert len(retried) == 1
        assert len(plan.applied) == 1

    def test_delay_within_deadline_is_harmless(self):
        circuit = small_circuit()
        a, b = [1, 1, 0, 0], [0, 0, 1, 1]
        plan = FaultPlan(
            [FaultSpec("delay", tag="tables", nth=0, delay_s=1.0)],
            seed=CHAOS_SEED,
        )
        backend = get_backend(
            "two_party",
            ot_group=TEST_GROUP_512,
            rng=random.Random(CHAOS_SEED),
            channel_factory=faulty_channel_factory(plan),
            request_timeout_s=60.0,
        )
        result = backend.run(circuit, a, b)
        assert result.outputs == simulate(circuit, a, b)
        assert len(plan.applied) == 1


# ---------------------------------------------------------------------------
# channel integrity + deadline units
# ---------------------------------------------------------------------------


class TestChannelIntegrity:
    def test_empty_recv_names_tag_direction_and_index(self):
        alice, bob, _ = make_channel_pair()
        with pytest.raises(ChannelEmptyError) as err:
            bob.recv_bytes(expected_tag="tables")
        message = str(err.value)
        assert "'tables'" in message
        assert "'b2a'" in message  # bob's endpoint, named by send direction
        assert "#0" in message

    def test_corruption_detected_by_checksum(self):
        plan = FaultPlan([FaultSpec("corrupt", tag="blob")], seed=CHAOS_SEED)
        alice, bob, _ = faulty_channel_factory(plan)()
        alice.send_bytes(b"payload-bytes", tag="blob")
        with pytest.raises(ChannelIntegrityError, match="checksum"):
            bob.recv_bytes(expected_tag="blob")

    def test_truncation_detected_by_checksum(self):
        plan = FaultPlan([FaultSpec("truncate", tag="blob")], seed=CHAOS_SEED)
        alice, bob, _ = faulty_channel_factory(plan)()
        alice.send_bytes(b"a-long-enough-payload", tag="blob")
        with pytest.raises(ChannelIntegrityError, match="checksum"):
            bob.recv_bytes(expected_tag="blob")

    def test_duplicate_detected_by_sequence(self):
        plan = FaultPlan([FaultSpec("duplicate", tag="blob")], seed=CHAOS_SEED)
        alice, bob, _ = faulty_channel_factory(plan)()
        alice.send_bytes(b"once", tag="blob")
        assert bob.recv_bytes(expected_tag="blob") == b"once"
        with pytest.raises(ChannelIntegrityError, match="out-of-sequence"):
            bob.recv_bytes(expected_tag="blob")

    def test_drop_leaves_channel_empty(self):
        plan = FaultPlan([FaultSpec("drop", tag="blob")], seed=CHAOS_SEED)
        alice, bob, _ = faulty_channel_factory(plan)()
        alice.send_bytes(b"gone", tag="blob")
        with pytest.raises(ChannelEmptyError):
            bob.recv_bytes(expected_tag="blob")

    def test_tag_mismatch_rejected(self):
        alice, bob, _ = make_channel_pair()
        alice.send_bytes(b"x", tag="actual")
        with pytest.raises(ChannelIntegrityError, match="tag mismatch"):
            bob.recv_bytes(expected_tag="expected")

    def test_injected_delay_charges_the_deadline(self):
        plan = FaultPlan(
            [FaultSpec("delay", tag="blob", delay_s=10.0)], seed=CHAOS_SEED
        )
        alice, bob, _ = faulty_channel_factory(plan)()
        deadline = Deadline(5.0)
        alice.deadline = deadline
        bob.deadline = deadline
        alice.send_bytes(b"late", tag="blob")
        with pytest.raises(DeadlineExceeded, match="blob"):
            bob.recv_bytes(expected_tag="blob")


class TestDeadline:
    def test_virtual_consumption_and_check(self):
        clock = [0.0]
        deadline = Deadline(2.0, clock=lambda: clock[0])
        deadline.check("setup")
        deadline.consume(1.5, "transit")
        assert deadline.remaining() == pytest.approx(0.5)
        clock[0] = 0.6
        assert deadline.remaining() == 0.0
        with pytest.raises(DeadlineExceeded, match="evaluate"):
            deadline.check("evaluate")

    def test_start_none_is_none(self):
        assert Deadline.start(None) is None
        assert isinstance(Deadline.start(1.0), Deadline)


# ---------------------------------------------------------------------------
# fault plan semantics
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_spec_parse_roundtrip(self):
        spec = FaultSpec.parse("delay:tables:2:30")
        assert spec == FaultSpec("delay", tag="tables", nth=2, delay_s=30.0)
        assert FaultSpec.parse(spec.describe()) == spec
        assert FaultSpec.parse("drop") == FaultSpec("drop")

    def test_plan_parse_keeps_spec_order(self):
        plan = FaultPlan.parse(["delay:tables:0:5", "corrupt:ot:0"], seed=3)
        assert plan.specs == (
            FaultSpec("delay", tag="tables", nth=0, delay_s=5.0),
            FaultSpec("corrupt", tag="ot", nth=0),
        )
        assert plan.seed == 3
        with pytest.raises(EngineError):
            FaultPlan.parse(["drop:tables:0", "explode:ot:0"])

    def test_spec_validation(self):
        with pytest.raises(EngineError):
            FaultSpec("explode")
        with pytest.raises(EngineError):
            FaultSpec("delay", delay_s=0.0)
        with pytest.raises(EngineError):
            FaultSpec("drop", delay_s=1.0)
        with pytest.raises(EngineError):
            FaultSpec.parse("drop:t:notanint")

    def test_nth_counts_matching_messages_only(self):
        plan = FaultPlan([FaultSpec("drop", tag="b", nth=1)], seed=0)
        alice, bob, _ = faulty_channel_factory(plan)()
        alice.send_bytes(b"0", tag="a")  # not matching
        alice.send_bytes(b"1", tag="b")  # match #0: survives
        alice.send_bytes(b"2", tag="b")  # match #1: dropped
        alice.send_bytes(b"3", tag="b")  # match #2: survives
        assert bob.recv_bytes() == b"0"
        assert bob.recv_bytes() == b"1"
        with pytest.raises(ChannelIntegrityError, match="out-of-sequence"):
            bob.recv_bytes()
        assert plan.applied == [("drop", "b", 2)]

    def test_corruption_is_seed_deterministic(self):
        def corrupted(seed):
            plan = FaultPlan([FaultSpec("corrupt", tag="x")], seed=seed)
            alice, bob, _ = faulty_channel_factory(plan)()
            alice.send_bytes(b"deterministic-payload", tag="x")
            # the raw delivered frame, via the transport seam (works on
            # any transport; recv_bytes would reject the bad checksum)
            return bob._fetch(0, "x").payload

        assert corrupted(5) == corrupted(5)
        assert corrupted(5) != corrupted(6)


# ---------------------------------------------------------------------------
# retry policy + circuit breaker units
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_retries_transient_until_success(self):
        sleeps = []
        policy = RetryPolicy(
            max_retries=3, backoff_s=0.1, jitter=0.0, sleep=sleeps.append
        )
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise ChannelIntegrityError("bit flip")
            return "ok"

        assert policy.call(flaky) == "ok"
        assert len(attempts) == 3
        assert sleeps == pytest.approx([0.1, 0.2])

    def test_permanent_errors_never_retry(self):
        policy = RetryPolicy(max_retries=5, backoff_s=0.0)
        attempts = []

        def broken():
            attempts.append(1)
            raise EngineError("semantic bug")

        with pytest.raises(EngineError):
            policy.call(broken)
        assert len(attempts) == 1

    def test_exhaustion_reraises_last_transient(self):
        policy = RetryPolicy(max_retries=2, backoff_s=0.0)
        with pytest.raises(ChannelEmptyError):
            policy.call(lambda: (_ for _ in ()).throw(
                ChannelEmptyError("dropped")
            ))

    def test_jitter_is_seeded(self):
        a = RetryPolicy(backoff_s=1.0, jitter=0.5, rng=random.Random(9))
        b = RetryPolicy(backoff_s=1.0, jitter=0.5, rng=random.Random(9))
        assert [a.backoff_for(i) for i in (1, 2)] == [
            b.backoff_for(i) for i in (1, 2)
        ]

    def test_transient_taxonomy(self):
        assert all(is_transient(e("x")) for e in TRANSIENT_ERRORS)
        assert fault_category(EngineError("x")) == "permanent"
        assert fault_category(DeadlineExceeded("x")) == "transient"


class TestCircuitBreaker:
    def test_trips_after_threshold_and_half_opens(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            threshold=3, cooldown_s=10.0, clock=lambda: clock[0]
        )
        for _ in range(2):
            breaker.record_failure()
        assert breaker.stats()["state"] == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.stats()["state"] == "open" and not breaker.allow()
        clock[0] = 10.1  # cooldown elapsed: one probe allowed
        assert breaker.stats()["state"] == "half-open"
        assert breaker.allow()
        assert not breaker.allow()  # probe in flight; others degrade
        breaker.record_success()
        assert breaker.stats()["state"] == "closed" and breaker.allow()

    def test_failed_probe_reopens(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            threshold=1, cooldown_s=5.0, clock=lambda: clock[0]
        )
        breaker.record_failure()
        clock[0] = 5.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.stats()["state"] == "open"
        assert breaker.stats()["trips"] == 2

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(threshold=2, cooldown_s=1.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.stats()["state"] == "closed"


class BreakerModel:
    """What a :class:`CircuitBreaker` must be doing, in plain fields.

    Open turns half-open once ``cooldown_s`` has passed since it opened
    (or since a failure recorded while open), whenever anything looks.
    """

    def __init__(self, threshold, cooldown_s):
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.now = 100.0
        self.state = "closed"
        self.failures = 0
        self.opened_at = 0.0
        self.trips = 0
        self.probing = False

    def resolve(self):
        if self.state == "open" and self.now - self.opened_at >= self.cooldown_s:
            self.state = "half-open"
            self.probing = False
        return self.state

    def open(self):
        if self.state != "open":
            self.trips += 1
        self.state = "open"
        self.opened_at = self.now
        self.probing = False

    def allow(self):
        state = self.resolve()
        if state == "half-open" and not self.probing:
            self.probing = True
            return True
        return state == "closed"

    def record_success(self):
        self.failures = 0
        self.state = "closed"
        self.probing = False

    def record_failure(self):
        state = self.resolve()
        self.failures += 1
        if state == "half-open" or self.failures >= self.threshold:
            self.open()


#: Clock steps: multiples of 0.25 s, so cooldown boundaries are hit exactly.
CLOCK_STEPS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5])


class BreakerMachine(RuleBasedStateMachine):
    """:class:`CircuitBreaker` on a fake clock against :class:`BreakerModel`.

    Every rule first moves the clock, then calls the breaker before
    anything reads its state, so a cooldown can lapse unobserved.  Besides
    agreeing with the model after every step, each rule checks the
    docstring's promises directly: closed never denies, open denies until
    the cooldown has passed, half-open admits one probe until an outcome
    is recorded, ``trips`` counts transitions into open and nothing else,
    and a success resets the failure streak.
    """

    @initialize(
        threshold=st.integers(1, 3),
        cooldown_s=st.sampled_from([0.0, 0.5, 1.0]),
    )
    def build(self, threshold, cooldown_s):
        self.m = BreakerModel(threshold, cooldown_s)
        self.breaker = CircuitBreaker(
            threshold=threshold, cooldown_s=cooldown_s, clock=lambda: self.m.now
        )
        self.probes = 0  # admitted while half-open since the last outcome

    def _step(self, dt, name):
        """Advance by ``dt`` and run ``name`` on both, unobserved; check
        that ``trips`` moved by exactly the transitions into open."""
        self.m.now += dt
        trips = self.m.trips  # the invariant held the breaker to it
        result = getattr(self.breaker, name)()
        before = self.m.resolve()
        assert result == getattr(self.m, name)()
        entered_open = before != "open" and self.m.state == "open"
        assert self.breaker.stats()["trips"] == trips + entered_open
        return before, result

    @rule(dt=CLOCK_STEPS)
    def allow(self, dt):
        before, allowed = self._step(dt, "allow")
        if before == "closed":
            assert allowed
        elif before == "open":
            assert not allowed  # the cooldown has not passed
        else:
            self.probes += allowed
            assert self.probes <= 1

    @rule(dt=CLOCK_STEPS)
    def record_success(self, dt):
        self._step(dt, "record_success")
        self.probes = 0
        stats = self.breaker.stats()
        assert stats["consecutive_failures"] == 0
        assert stats["state"] == "closed"

    @rule(dt=CLOCK_STEPS)
    def record_failure(self, dt):
        self._step(dt, "record_failure")
        self.probes = 0

    @invariant()
    def agrees_with_the_model(self):
        stats = self.breaker.stats()
        assert stats["state"] == self.m.resolve()
        assert stats["consecutive_failures"] == self.m.failures
        assert stats["trips"] == self.m.trips


TestBreakerModel = BreakerMachine.TestCase
TestBreakerModel.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)


# ---------------------------------------------------------------------------
# pool self-healing + shutdown
# ---------------------------------------------------------------------------


class TestPoolSelfHealing:
    def test_refill_crash_counted_and_restarted(self, monkeypatch):
        calls = []
        real_refill = PregarbledPool._refill_loop

        def flaky(self):
            calls.append(1)
            if len(calls) <= 2:
                raise RuntimeError("poisoned garble")
            real_refill(self)

        monkeypatch.setattr(PregarbledPool, "_refill_loop", flaky)
        pool = PregarbledPool(
            small_circuit(), [0, 1, 1, 0], capacity=2, refill="idle",
            rng=random.Random(0),
        )
        try:
            assert pool.acquire() is None  # the first draw starts the refill
            assert _wait_until(
                lambda: pool.stats()["refill_crashes"] >= 2 and len(pool) == 2
            ), pool.stats()
            stats = pool.stats()
            assert "poisoned garble" in stats["last_refill_error"]
            assert stats["leaked_refill_thread"] is False
        finally:
            pool.close()

    def test_close_join_timeout_reports_leak(self, monkeypatch):
        release = threading.Event()
        monkeypatch.setattr(
            PregarbledPool, "_refill_loop",
            lambda self: release.wait(10.0),
        )
        pool = PregarbledPool(
            small_circuit(), [0, 1, 1, 0], capacity=1, refill="idle",
            rng=random.Random(0),
        )
        assert pool.acquire() is None  # the first draw starts the refill
        pool.close(timeout=0.1)
        assert pool.stats()["leaked_refill_thread"] is True
        release.set()
        assert _wait_until(lambda: not pool._refill_thread.is_alive())
        pool.close()  # idempotent; clears the leak flag after the join
        assert pool.stats()["leaked_refill_thread"] is False

    def test_close_is_idempotent_without_thread(self):
        pool = PregarbledPool(
            small_circuit(), [0, 1, 1, 0], capacity=1, refill="none", rng=random.Random(0)
        )
        pool.close()
        pool.close()


# ---------------------------------------------------------------------------
# service-level wiring: retries, error taxonomy, breaker degradation
# ---------------------------------------------------------------------------


def _trained_service(**config_kwargs):
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, size=(200, 5))
    y = (x @ rng.normal(size=(5, 3))).argmax(axis=1)
    model = Sequential([Dense(4), Tanh(), Dense(3)], input_shape=(5,), seed=3)
    Trainer(model, TrainConfig(epochs=10, learning_rate=0.2)).fit(x, y)
    config = EngineConfig(
        fmt=FMT,
        activation="exact",
        ot_group=TEST_GROUP_512,
        rng=random.Random(CHAOS_SEED),
        **config_kwargs,
    )
    return PrivateInferenceService(model, config), x


class TestServiceResilience:
    def test_retry_recovers_and_counts(self):
        plan = FaultPlan(
            [FaultSpec("corrupt", tag="tables", nth=0)], seed=CHAOS_SEED
        )
        service, x = _trained_service(
            max_retries=2, retry_backoff_s=0.0, fault_plan=plan
        )
        try:
            record = service.infer(x[0])
            assert record.ok
            assert record.label == service.cleartext_label(x[0])
            stats = service.stats
            assert stats["retries"] == 1
            assert stats["transient_faults"] == 1
            assert stats["errors"] == 0
            assert stats["faults"]["applied"] == 1
        finally:
            service.close()

    def test_unretried_transient_fault_is_typed(self):
        plan = FaultPlan(
            [FaultSpec("drop", tag="tables", nth=0)], seed=CHAOS_SEED
        )
        service, x = _trained_service(fault_plan=plan)
        try:
            results = service.infer_many([x[0]], return_errors=True)
            (result,) = results
            assert not result.ok and result.label == -1
            assert result.error_type in (
                "ChannelEmptyError", "ChannelIntegrityError"
            )
            assert result.error_category == "transient"
            assert result.error_type in result.error
        finally:
            service.close()

    def test_permanent_error_category(self):
        service, _ = _trained_service()
        try:
            (result,) = service.infer_many(
                [np.zeros(99)], return_errors=True  # wrong feature width
            )
            assert not result.ok
            assert result.error_category == "permanent"
            assert result.error_type == "CompileError"
            with pytest.raises(CompileError):
                service.infer(np.zeros(99))
        finally:
            service.close()

    def test_breaker_opens_and_serves_degraded(self):
        # two one-shot faults + no retries trip a threshold-2 breaker;
        # the third request must still be served (cold, pool bypassed).
        # A pool hit's tables crossed before it: the faults hit the
        # frame its request does carry
        plan = FaultPlan(
            [
                FaultSpec("corrupt", tag="alice_labels", nth=0),
                FaultSpec("corrupt", tag="alice_labels", nth=1),
            ],
            seed=CHAOS_SEED,
        )
        service, x = _trained_service(
            fault_plan=plan,
            breaker_threshold=2,
            breaker_cooldown_s=300.0,
            pool_size=2,
        )
        try:
            service.prepare()
            for i in range(2):
                (result,) = service.infer_many([x[i]], return_errors=True)
                assert not result.ok
            stats = service.stats
            assert stats["breakers"]["two_party"]["state"] == "open"
            record = service.infer(x[2])
            assert record.ok
            assert record.label == service.cleartext_label(x[2])
            assert not record.pregarbled  # degraded = cold garbling
            stats = service.stats
            assert stats["degraded"] >= 1
            # degraded is the same backend with the pool bypassed: it
            # keeps the OT state, so no second base OT is paid, and the
            # unused pool material is still there when the breaker closes
            assert stats["ot"]["base_batches"] == 1
            assert sorted(service._backends) == ["two_party"]
            assert not any("#" in name for name in service._backends)
            assert stats["pool"]["hits"] + stats["pool"]["misses"] == 2
        finally:
            service.close()

    def test_open_breaker_skips_batched_path(self):
        service, x = _trained_service(breaker_threshold=1, pool_size=0)
        try:
            breaker = service._breaker("two_party")
            breaker.record_failure()
            assert breaker.stats()["state"] == "open"
            results = service.infer_many(list(x[:2]), return_errors=True)
            assert all(r.ok for r in results)
            assert [r.label for r in results] == [
                service.cleartext_label(s) for s in x[:2]
            ]
            assert service.stats["degraded"] >= 1
        finally:
            service.close()

    def test_deadline_exceeded_is_transient_and_typed(self):
        plan = FaultPlan(
            [FaultSpec("delay", tag="tables", nth=0, delay_s=600.0)],
            seed=CHAOS_SEED,
        )
        service, x = _trained_service(
            fault_plan=plan, request_timeout_s=30.0
        )
        try:
            (result,) = service.infer_many([x[0]], return_errors=True)
            assert result.error_type == "DeadlineExceeded"
            assert result.error_category == "transient"
        finally:
            service.close()


# ---------------------------------------------------------------------------
# byte-level chaos: faults below the frame layer
# ---------------------------------------------------------------------------


class TestStreamFaultSpecs:
    def test_parse_round_trips(self):
        spec = StreamFaultSpec.parse("short_read:2:3")
        assert (spec.kind, spec.nth, spec.size) == ("short_read", 2, 3)
        assert spec.describe() == "short_read:2:3"
        stall = StreamFaultSpec.parse("stall:1:0.5")
        assert (stall.nth, stall.stall_s) == (1, 0.5)
        assert StreamFaultSpec.parse("disconnect").nth == 0

    def test_validation(self):
        with pytest.raises(EngineError, match="unknown stream fault"):
            StreamFaultSpec("gremlins")
        with pytest.raises(EngineError, match="nth"):
            StreamFaultSpec("short_read", nth=-1)
        with pytest.raises(EngineError, match="stall_s"):
            StreamFaultSpec("stall")
        with pytest.raises(EngineError, match="stall_s"):
            StreamFaultSpec("short_read", stall_s=1.0)
        with pytest.raises(EngineError, match="int"):
            StreamFaultSpec.parse("stall:x")

    def test_seeded_cut_points_are_deterministic(self):
        cuts = []
        for _ in range(2):
            plan = StreamFaultPlan(
                [StreamFaultSpec("partial_write", nth=0)], seed=CHAOS_SEED
            )
            cuts.append(plan.on_write(1000))
        assert cuts[0] == cuts[1]
        assert 1 <= cuts[0] < 1000  # strictly inside the buffer


class _ChannelFrame:
    """A protocol frame: a tagged payload on a remote SocketChannel."""

    message = bytes(range(256)) * 3
    size = len(message)
    channel = SocketChannel

    @staticmethod
    def send(end, message):
        end.send_bytes(message, tag="labels")

    @staticmethod
    def recv(end):
        return end.recv_bytes(expected_tag="labels")


class _ControlRecord:
    """A control record on one end of a connection's control channel."""

    message = {"op": "infer", "samples": [[0.5] * 16], "pad": "x" * 256}
    size = len(encode_ctl(message))
    channel = staticmethod(ctl_channel)
    send = staticmethod(send_ctl)
    recv = staticmethod(recv_ctl)


@pytest.fixture(
    params=[_ChannelFrame, _ControlRecord],
    ids=["a channel frame", "a control record"],
)
def wire(request):
    """What the faulted link carries; both ride the remote SocketChannel's
    one reader."""
    return request.param


def _remote_channel_pair(plan, wrap, wire, io_timeout_s=5.0):
    """A remote-mode channel pair for ``wire`` with one faulted endpoint."""
    left, right = socket.socketpair()
    if wrap == "sender":
        left = plan.wrap(left)
    else:
        right = plan.wrap(right)
    alice, bob = wire.channel(left, "a2b"), wire.channel(right, "b2a")
    alice.io_timeout_s = bob.io_timeout_s = io_timeout_s
    return alice, bob


class TestByteFaultsOnSocketChannel:
    def test_short_reads_reassemble_the_frame(self, wire):
        # a trickling peer: every recv returns at most 3 bytes, and the
        # channel's read loop must still reassemble the frame
        plan = StreamFaultPlan(
            [StreamFaultSpec("short_read", nth=0, size=3)], seed=CHAOS_SEED
        )
        alice, bob = _remote_channel_pair(plan, "receiver", wire)
        try:
            wire.send(alice, wire.message)
            assert wire.recv(bob) == wire.message
            # the cap forced byte-dribble reassembly, not one big recv
            assert plan.stats()["reads"] > wire.size // 3
        finally:
            alice.close()
            bob.close()

    def test_partial_write_surfaces_typed_close_on_both_ends(self, wire):
        plan = StreamFaultPlan(
            [StreamFaultSpec("partial_write", nth=0)], seed=CHAOS_SEED
        )
        alice, bob = _remote_channel_pair(plan, "sender", wire)
        try:
            # the sender's frame is cut mid-write: typed transient error
            with pytest.raises(ChannelClosedError) as sender_exc:
                wire.send(alice, wire.message)
            assert is_transient(sender_exc.value)
            # the receiver observes a torn frame: mid-frame EOF, never a
            # parsed-garbage frame
            with pytest.raises(ChannelClosedError) as receiver_exc:
                wire.recv(bob)
            assert is_transient(receiver_exc.value)
            assert plan.applied == [("partial_write", 0)]
        finally:
            alice.close()
            bob.close()

    # read 0 is the header, read 1 the rest of the frame
    @pytest.mark.parametrize("nth", [0, 1], ids=["before", "mid-frame"])
    def test_disconnect_is_channel_closed(self, wire, nth):
        plan = StreamFaultPlan(
            [StreamFaultSpec("disconnect", nth=nth)], seed=CHAOS_SEED
        )
        alice, bob = _remote_channel_pair(plan, "receiver", wire)
        try:
            wire.send(alice, wire.message)
            with pytest.raises(ChannelClosedError):
                wire.recv(bob)
        finally:
            alice.close()
            bob.close()

    def test_stalled_peer_times_out_within_io_budget(self, wire):
        plan = StreamFaultPlan(
            [StreamFaultSpec("stall", nth=0, stall_s=30.0)], seed=CHAOS_SEED
        )
        alice, bob = _remote_channel_pair(plan, "receiver", wire,
                                          io_timeout_s=0.3)
        try:
            start = time.monotonic()
            with pytest.raises(ChannelEmptyError):
                wire.recv(bob)
            # the 30 s stall was bounded by the 0.3 s socket timeout
            assert time.monotonic() - start < 5.0
        finally:
            alice.close()
            bob.close()

    def test_a_timeout_mid_frame_is_resumed_by_the_next_receive(self, wire):
        """The stall hits the read after the header: that receive times
        out, and the next one delivers the frame whole instead of reading
        its body as a header."""
        plan = StreamFaultPlan(
            [StreamFaultSpec("stall", nth=1, stall_s=30.0)], seed=CHAOS_SEED
        )
        alice, bob = _remote_channel_pair(plan, "receiver", wire,
                                          io_timeout_s=0.2)
        try:
            wire.send(alice, wire.message)
            with pytest.raises(ChannelEmptyError):
                wire.recv(bob)
            assert wire.recv(bob) == wire.message
            assert plan.applied == [("stall", 1)]
        finally:
            alice.close()
            bob.close()

    def test_a_trickling_peer_cannot_outlast_the_timeout(self):
        """A peer that sends a control record one byte every 50 ms: the
        receive gives up within its 0.3 s for the whole record, not 0.3 s
        per byte, and the next receive still delivers the record whole."""
        encoder, raw = socket.socketpair()
        send_ctl(ctl_channel(encoder), {"op": "ping", "pad": "x" * 32})
        record = raw.recv(4096)
        encoder.close()
        raw.close()
        caller, worker = socket.socketpair()
        ctl = ctl_channel(worker, "b2a")
        hurry = threading.Event()

        def trickle():
            for i in range(len(record)):
                caller.sendall(record[i:i + 1])
                hurry.wait(0.05)

        thread = threading.Thread(target=trickle)
        thread.start()
        try:
            start = time.monotonic()
            with pytest.raises(ChannelEmptyError):
                recv_ctl(ctl, timeout=0.3)
            assert time.monotonic() - start < 0.5
            hurry.set()
            assert recv_ctl(ctl, timeout=5.0) == {"op": "ping", "pad": "x" * 32}
        finally:
            hurry.set()
            thread.join(timeout=10.0)
            ctl.close()
            caller.close()
        assert not thread.is_alive()

    def test_a_record_straddling_a_poll_tick_is_served_whole(self):
        """A worker polls its control channel every tick: a record whose
        body arrives after a tick is served on the next one, and the
        connection stays up."""
        plan = StreamFaultPlan(
            [StreamFaultSpec("stall", nth=1, stall_s=30.0)], seed=CHAOS_SEED
        )
        left, right = socket.socketpair()
        caller = ctl_channel(left)
        try:
            send_ctl(caller, {"op": "ping"})
            send_ctl(caller, {"op": "shutdown"})
            counters = serve_connection(
                plan.wrap(right), service=None,
                should_stop=lambda: False, poll_interval_s=0.1,
            )
            assert counters == {"ping": 1, "shutdown": 1}
            assert plan.applied == [("stall", 1)]
            assert recv_ctl(caller, timeout=5.0) == {"ok": True, "op": "pong"}
            assert recv_ctl(caller, timeout=5.0)["op"] == "shutdown"
        finally:
            caller.close()
            right.close()

    def test_session_survives_short_reads_bit_exactly(self):
        # byte-dribble every socket of a whole garbled session: the
        # protocol output must be identical to the in-memory run
        circuit = small_circuit(seed=CHAOS_SEED)
        rng = random.Random(CHAOS_SEED)
        a = [rng.randrange(2) for _ in range(4)]
        b = [rng.randrange(2) for _ in range(4)]
        plan = StreamFaultPlan(
            [StreamFaultSpec("short_read", nth=0, size=7)], seed=CHAOS_SEED
        )
        result = TwoPartySession(
            circuit, ot_group=TEST_GROUP_512, rng=random.Random(5),
            channel_factory=socketpair_channel_factory(
                stream_wrap=plan.wrap
            ),
        ).run(a, b)
        assert result.outputs == simulate(circuit, a, b)
        assert plan.stats()["reads"] > 0


# ---------------------------------------------------------------------------
# admission control + graceful drain (single-process service)
# ---------------------------------------------------------------------------


class TestServiceAdmissionAndDrain:
    def test_overload_errors_are_permanent_and_never_retried(self):
        for error in (ServiceOverloadedError("x"), ServiceDrainingError("x")):
            assert fault_category(error) == "permanent"
            assert not is_transient(error)
        policy = RetryPolicy(max_retries=5, backoff_s=0.0)
        calls = []

        def shed():
            calls.append(1)
            raise ServiceOverloadedError("budget full")

        with pytest.raises(ServiceOverloadedError):
            policy.call(shed)
        assert len(calls) == 1  # shed work is never retried

    def test_full_budget_sheds_with_typed_error(self):
        service, x = _trained_service(max_inflight=1)
        try:
            service._gate.admit(1)  # occupy the whole budget
            with pytest.raises(ServiceOverloadedError):
                service.infer(x[0])
            assert service.stats["shed_requests"] == 1
            assert service.stats["inflight"] == 1
            service._gate.release(1)
            # budget free again: the same request is admitted and served
            record = service.infer(x[0])
            assert record.ok
            assert service.stats["inflight"] == 0
        finally:
            service.close()

    def test_close_drains_inflight_then_refuses_new_work(self):
        service, x = _trained_service()
        box = []
        thread = threading.Thread(
            target=lambda: box.append(service.infer(x[0]))
        )
        thread.start()
        assert _wait_until(lambda: service.stats["inflight"] == 1)
        service.close(drain_timeout_s=60.0)
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert box and box[0].ok
        stats = service.stats
        assert stats["drained_requests"] == 1
        assert stats["aborted_requests"] == 0
        assert stats["draining"] is True
        with pytest.raises(ServiceDrainingError):
            service.infer(x[1])
        service.close()  # idempotent

    def test_expired_grace_counts_aborted_requests(self):
        service, x = _trained_service()
        thread = threading.Thread(target=lambda: service.infer(x[0]))
        thread.start()
        assert _wait_until(lambda: service.stats["inflight"] == 1)
        service.close(drain_timeout_s=0.0)
        assert service.stats["aborted_requests"] == 1
        assert service.stats["drained_requests"] == 0
        thread.join(timeout=60.0)
        assert not thread.is_alive()

    def test_whole_batch_admission_is_all_or_nothing(self):
        service, x = _trained_service(max_inflight=2)
        try:
            service._gate.admit(1)
            # a 2-request batch cannot fit in the remaining budget: the
            # whole batch is shed, nothing partially admitted
            with pytest.raises(ServiceOverloadedError):
                service.infer_many(list(x[:2]))
            assert service.stats["shed_requests"] == 2
            assert service.stats["inflight"] == 1
            service._gate.release(1)
            results = service.infer_many(list(x[:2]), return_errors=True)
            assert all(r.ok for r in results)
        finally:
            service.close()
