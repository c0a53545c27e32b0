"""The pool's one refill, run only while nobody is waiting (PR 24).

Two models instead of sleeps (ROADMAP item 7(a)): the
:class:`AdmissionGate` on an injected clock, and the
:class:`PregarbledPool` with that gate as its owner's idle signal, its
refill loop body driven step by step from the test thread.  What the
models cannot reach — a wait that has to *block* — gets a few
deterministic threaded tests that hold the blocked side on an event.
"""

import random
import threading
import time

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.analysis import build_gate_chain
from repro.circuits import FixedPointFormat
from repro.engine import EngineConfig, PregarbledPool
from repro.errors import ServiceDrainingError, ServiceOverloadedError
from repro.gc.ot import TEST_GROUP_512
from repro.resilience import AdmissionGate
from repro.service import PrivateInferenceService

CIRCUIT = build_gate_chain(40, "and")
#: the evaluator's input every pooled copy is made for
BOB_BITS = [i % 2 for i in range(CIRCUIT.n_bob)]

MODEL_SETTINGS = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class GateModel:
    """What an :class:`AdmissionGate` must be doing, in plain fields."""

    def __init__(self, max_inflight):
        self.clock = FakeClock()
        self.gate = AdmissionGate(max_inflight, clock=self.clock)
        self.max_inflight = max_inflight
        self.inflight = 0
        self.shed = 0
        self.draining = False
        self.idle_since = None
        self.gap = None

    def admit(self, n):
        if self.draining:
            with pytest.raises(ServiceDrainingError):
                self.gate.admit(n)
        elif self.max_inflight and self.inflight + n > self.max_inflight:
            with pytest.raises(ServiceOverloadedError):
                self.gate.admit(n)
            self.shed += n
        else:
            self.gate.admit(n)
            if self.idle_since is not None:
                self.gap = self.clock.now - self.idle_since
                self.idle_since = None
            self.inflight += n

    def release(self, n):
        self.gate.release(n)
        self.inflight -= n
        if self.inflight == 0:
            self.idle_since = self.clock.now

    def expected(self):
        if self.idle_since is None or self.gap is None:
            return None
        return max(self.gap - (self.clock.now - self.idle_since), 0.0)

    def would_return(self, need_s):
        """What ``wait_idle(need_s)`` does now: True / False, or None
        when it would block."""
        if self.draining:
            return False
        expected = self.expected()
        return True if expected is not None and expected >= need_s else None

    def check(self):
        stats = self.gate.stats()
        assert stats["inflight"] == self.inflight
        assert not self.max_inflight or self.inflight <= self.max_inflight
        assert stats["shed_requests"] == self.shed
        assert stats["draining"] is self.draining
        # the expectation is the last release-to-admit gap less what has
        # passed of this one, and there is none while anything is in
        # flight or before a gap has been observed
        assert stats["expected_idle_s"] == self.expected()
        if self.inflight or self.gap is None:
            assert stats["expected_idle_s"] is None


class GateMachine(RuleBasedStateMachine):
    @initialize(max_inflight=st.integers(0, 4))
    def build(self, max_inflight):
        self.m = GateModel(max_inflight)
        self.inflight_at_drain = None

    @rule(n=st.integers(1, 3))
    def admit(self, n):
        self.m.admit(n)

    @precondition(lambda self: self.m.inflight > 0)
    @rule(n=st.integers(1, 3))
    def release(self, n):
        self.m.release(min(n, self.m.inflight))

    @rule(dt=st.floats(0.0, 2.0))
    def advance(self, dt):
        self.m.clock.now += dt

    @rule()
    def drain(self):
        first = not self.m.draining
        if first:
            self.inflight_at_drain = self.m.inflight
        # no grace: whatever is in flight now is aborted, not waited for
        assert self.m.gate.drain(0.0) is first
        self.m.draining = True

    @rule(need_s=st.floats(0.0, 2.0))
    def idle_wait(self, need_s):
        verdict = self.m.would_return(need_s)
        if verdict is None:
            # it would block: nothing in flight *and* enough expected
            # idle time is the only way to a True
            expected = self.m.gate.stats()["expected_idle_s"]
            assert expected is None or expected < need_s
        else:
            assert self.m.gate.wait_idle(need_s) is verdict
            if verdict:
                assert self.m.inflight == 0 and self.m.gap is not None

    @invariant()
    def agrees_with_the_model(self):
        self.m.check()
        if self.inflight_at_drain is not None:
            stats = self.m.gate.stats()
            assert (
                stats["drained_requests"] + stats["aborted_requests"]
                == self.inflight_at_drain
            )


TestGateModel = GateMachine.TestCase
TestGateModel.settings = MODEL_SETTINGS


class PoolMachine(RuleBasedStateMachine):
    """A pool owned by a gate.  The refill thread is replaced by a rule
    that runs the loop body in the test thread whenever the model says
    it would not block, so every interleaving is one hypothesis chose."""

    @initialize(
        capacity=st.integers(1, 4), refill=st.sampled_from(["none", "idle"])
    )
    def build(self, capacity, refill):
        self.g = GateModel(0)
        self.pool = PregarbledPool(
            CIRCUIT, BOB_BITS, capacity=capacity, refill=refill,
            idle_wait=self.g.gate.wait_idle, rng=random.Random(5),
            ot_group=TEST_GROUP_512,
        )
        # the thread acquire() starts ends at once; refill_step is the loop
        self.pool._refill_supervisor = lambda: None
        self.size = self.acquires = self.refills = 0
        self.closed = False
        self.handed = []  # strong references: ids stay unique
        self.stepping = False
        pregarble_many = self.pool._session.pregarble_many

        def watched(count, bob_bits):
            if self.stepping:
                # no refill garbles while the gate has anything in flight
                assert self.g.gate.stats()["inflight"] == 0
                assert count == 1
            # every copy, warmed or refilled, is made for the pool's bits
            assert bob_bits == BOB_BITS
            return pregarble_many(count, bob_bits)

        self.pool._session.pregarble_many = watched

    @rule(count=st.one_of(st.none(), st.integers(1, 3)))
    def warm(self, count):
        room = self.pool.capacity - self.size
        expected = room if count is None else min(room, count)
        assert self.pool.warm(count) == expected
        self.size += expected

    @rule()
    def acquire(self):
        item = self.pool.acquire()
        self.acquires += 1
        assert (item is None) == (self.size == 0)
        if item is not None:
            assert all(item is not other for other in self.handed)
            self.handed.append(item)
            self.size -= 1

    @rule()
    def request_starts(self):
        self.g.admit(1)

    @precondition(lambda self: self.g.inflight > 0)
    @rule()
    def request_ends(self):
        self.g.release(1)

    @rule(dt=st.floats(0.0, 0.5))
    def advance(self, dt):
        self.g.clock.now += dt

    @rule()
    def owner_drains(self):
        self.g.gate.drain(0.0)
        self.g.draining = True

    @precondition(lambda self: self.pool.refill == "idle")
    @rule()
    def refill_step(self):
        if not self.closed and self.size >= self.pool.capacity:
            return  # would block waiting for room
        need_s = self.pool.stats()["per_copy_s"] or 0.0
        verdict = False if self.closed else self.g.would_return(need_s)
        if verdict is None:
            return  # would block on the owner's idle signal
        self.stepping = True
        try:
            assert self.pool._refill_step() is verdict
        finally:
            self.stepping = False
        if verdict:
            self.size += 1
            self.refills += 1

    @rule()
    def close(self):
        self.pool.close()
        self.closed = True

    @invariant()
    def pool_agrees_with_the_model(self):
        stats = self.pool.stats()
        assert stats["size"] == self.size == len(self.pool)
        assert stats["size"] + stats["pending"] <= stats["capacity"]
        assert stats["hits"] + stats["misses"] == self.acquires
        assert stats["hits"] == len(self.handed)
        assert stats["refills"] == self.refills
        assert stats["refill_crashes"] == 0
        thread = self.pool._refill_thread
        if self.pool.refill == "none":
            assert thread is None
        elif thread is not None:
            thread.join(timeout=5.0)  # the stub: started, already over
            assert not thread.is_alive()

    def teardown(self):
        self.pool.close()


TestPoolModel = PoolMachine.TestCase
TestPoolModel.settings = MODEL_SETTINGS


# ---------------------------------------------------------------------------
# the waits that block
# ---------------------------------------------------------------------------


def _in_thread(fn):
    """Run ``fn`` in a thread; returns (thread, one-slot result list)."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()), daemon=True)
    thread.start()
    return thread, out


class TestGateIdleWait:
    def _gate_with_a_gap(self, gap_s=10.0):
        clock = FakeClock()
        gate = AdmissionGate(clock=clock)
        gate.admit(1)
        gate.release(1)
        clock.now += gap_s
        gate.admit(1)
        return gate, clock

    def test_no_gap_no_expectation(self):
        clock = FakeClock()
        gate = AdmissionGate(clock=clock)

        def expected():
            return gate.stats()["expected_idle_s"]

        clock.now += 50.0  # construction to first admit is not a gap
        assert expected() is None
        gate.admit(1)
        gate.release(1)
        clock.now += 50.0
        # one request seen: idle, but nothing to expect yet
        assert expected() is None
        gate.admit(1)  # a 50 s gap observed
        assert expected() is None  # in flight
        gate.release(1)
        assert expected() == 50.0
        clock.now += 20.0
        assert expected() == 30.0
        assert gate.wait_idle(30.0) is True
        clock.now += 40.0
        assert expected() == 0.0  # overdue, not negative

    def test_blocks_while_in_flight_and_release_wakes_it(self):
        gate, _clock = self._gate_with_a_gap()
        thread, out = _in_thread(lambda: gate.wait_idle(1.0))
        thread.join(timeout=0.2)
        assert thread.is_alive() and not out  # blocked: a request is in flight
        gate.release(1)
        thread.join(timeout=5.0)
        assert out == [True]

    def test_too_short_an_expectation_keeps_waiting(self):
        gate, clock = self._gate_with_a_gap(gap_s=0.5)
        thread, out = _in_thread(lambda: gate.wait_idle(1.0))
        gate.release(1)  # idle, but only 0.5 s expected
        thread.join(timeout=0.2)
        assert thread.is_alive() and not out
        clock.now += 3.0
        gate.admit(1)  # a 3 s gap observed
        gate.release(1)
        thread.join(timeout=5.0)
        assert out == [True]

    def test_drain_refuses_the_waiter(self):
        gate, _clock = self._gate_with_a_gap()
        thread, out = _in_thread(lambda: gate.wait_idle(1.0))
        thread.join(timeout=0.1)
        assert thread.is_alive()
        gate.drain(0.0)
        thread.join(timeout=5.0)
        assert out == [False]
        assert gate.wait_idle(0.0) is False  # and every later one


class TestRefillStep:
    """The loop body against a scripted owner signal: no thread, no sleep."""

    def _pool(self, answers, capacity=3):
        asked = []

        def idle_wait(need_s):
            asked.append(need_s)
            return answers.pop(0)

        pool = PregarbledPool(
            CIRCUIT, BOB_BITS, capacity=capacity, refill="idle", idle_wait=idle_wait,
            rng=random.Random(9),
        )
        return pool, asked

    def test_one_copy_per_idle_answer_and_false_ends_the_loop(self):
        pool, asked = self._pool([True, True, False])
        pool._refill_loop()  # returns instead of spinning: False ended it
        assert len(asked) == 3
        stats = pool.stats()
        assert (stats["size"], stats["refills"], stats["garbled_total"]) == (
            2, 2, 2,
        )

    def test_asks_for_the_fastest_copy_time_not_an_average(self, monkeypatch):
        import repro.engine.pool as pool_module

        pool, asked = self._pool([True, True, True, False], capacity=4)
        # warm() reads the clock twice per copy: 69 ms for the first
        # (contended, builds the level schedule), 9 ms, then 500 ms
        ticks = iter([0.0, 0.069, 1.0, 1.009, 2.0, 2.5])
        monkeypatch.setattr(
            pool_module.time, "monotonic", lambda: next(ticks)
        )
        pool._refill_loop()
        # nothing measured yet -> 0; then the first sample; then the
        # fastest seen, which the slow third sample does not raise
        assert asked == pytest.approx([0.0, 0.069, 0.009, 0.009])
        assert pool.stats()["per_copy_s"] == pytest.approx(0.009)

    def test_closed_pool_ends_the_loop_without_asking(self):
        pool, asked = self._pool([True])
        pool.close()
        assert pool._refill_step() is False
        assert asked == [] and len(pool) == 0

    def test_full_pool_waits_for_room_not_for_the_owner(self):
        pool, asked = self._pool([True, False], capacity=1)
        assert pool.warm() == 1
        thread, out = _in_thread(pool._refill_step)
        thread.join(timeout=0.2)
        assert thread.is_alive() and asked == []  # full: owner not asked
        pool._refill_supervisor = lambda: None
        assert pool.acquire() is not None  # room, and a notify
        thread.join(timeout=5.0)
        assert out == [True] and len(asked) == 1 and len(pool) == 1


@pytest.fixture
def make_service(tiny_model):
    model, x, _y = tiny_model

    def make(**config_kwargs):
        config = EngineConfig(
            fmt=FixedPointFormat(2, 6), activation="exact",
            ot_group=TEST_GROUP_512, **config_kwargs,
        )
        return PrivateInferenceService(model, config), x

    return make


def _wait_until(predicate, timeout=15.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and not predicate():
        time.sleep(interval)
    return predicate()


class TestServiceWiring:
    def test_refill_waits_for_the_request_to_leave(self, make_service):
        service, x = make_service(pool_size=2, rng=random.Random(3))
        try:
            assert service.prepare() == 2
            pool = service.pool
            garbled_inflight = []
            pregarble_many = pool._session.pregarble_many

            def watched(count, bob_bits):
                garbled_inflight.append(service.stats["inflight"])
                # the refill makes copies for the service's weights
                assert bob_bits == service.compiled.server_bits()
                return pregarble_many(count, bob_bits)

            pool._session.pregarble_many = watched
            assert service.infer(x[0]).pregarbled
            # one request seen: no gap yet, so nothing may be garbled
            assert pool.stats()["refills"] == 0
            threading.Event().wait(0.3)  # a gap worth many garble times
            assert service.infer(x[1]).pregarbled
            assert _wait_until(lambda: len(pool) == 2), pool.stats()
            assert garbled_inflight and set(garbled_inflight) == {0}
            assert service.infer(x[2]).pregarbled  # refilled material
            assert service.stats["expected_idle_s"] is not None
        finally:
            service.close()
        stats = service.stats["pool"]
        assert stats["leaked_refill_thread"] is False
        assert stats["refill_crashes"] == 0

    def test_prepare_after_traffic_still_returns_what_was_asked(self, make_service):
        # trap: a pool created by prepare() once the gate has seen a gap
        # must not lose slots to a refill thread — there is none until
        # the pool has been drawn from
        service, x = make_service(rng=random.Random(4))
        try:
            for i in range(3):
                service.infer(x[i])
            assert service.stats["expected_idle_s"] is not None
            assert service.prepare(3) == 3
            assert service.pool._refill_thread is None
        finally:
            service.close()

    def test_close_ends_a_refill_blocked_on_the_gate(self, make_service):
        service, x = make_service(pool_size=1, rng=random.Random(6))
        service.prepare()
        service.infer(x[0])  # starts the thread; one request = no gap
        thread = service.pool._refill_thread
        assert thread is not None and thread.is_alive()
        service.close()
        assert not thread.is_alive()
        assert service.stats["pool"]["leaked_refill_thread"] is False
