"""The pool's one refill, run only while nobody is waiting.

Two models instead of sleeps: the :class:`AdmissionGate` on an injected
clock, and the :class:`PregarbledPool` on a stub copy maker and the same
kind of clock, owned by such a gate or by nobody, its refill step driven
from the test thread.  What the models cannot reach — a wait that has
to *block* — gets a few threaded tests that learn the blocked side is
waiting from the condition it waits on, never from a sleep.  A few of
the models' paths are also pinned as examples, run in the test thread.
"""

import functools
import random
import threading
from types import SimpleNamespace

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


class OwnerWouldBlock(BaseException):
    """Where ``wait_idle`` would block (not an Exception: no crash)."""


#: the backoff of the n-th refill crash in a row; a copy restarts it
BACKOFF_SCHEDULE = [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 5.0]


def _stub_copies(count, bob_bits):
    """A copy maker that garbles nothing: fresh halves with the sizes
    ``warm()`` adds up, 40 B of them offline."""
    assert bob_bits == BOB_BITS
    half = functools.partial(SimpleNamespace, nbytes=100, offline_bytes=40)
    return [(half(), half()) for _ in range(count)]


class PoolMachine(RuleBasedStateMachine):
    """A pool on a stub copy maker and the model's fake clock, owned by a
    gate or by nobody.  The thread ``acquire()`` starts ends at once; a
    rule runs the refill step in the test thread instead, so every
    interleaving is one hypothesis chose."""

    @initialize(
        capacity=st.integers(1, 4),
        refill=st.sampled_from(["none", "idle"]),
        owned=st.booleans(),
        crashes_first=st.booleans(),
    )
    def build(self, capacity, refill, owned, crashes_first):
        self.g = GateModel(0)
        self.owned = owned
        self.pool = PregarbledPool(
            CIRCUIT, BOB_BITS, capacity=capacity, refill=refill,
            idle_wait=self.owner_idle_wait if owned else None,
            ot_group=TEST_GROUP_512,
        )
        self.pool._refill_run = lambda: None
        self.pool._clock = self.g.clock
        self.pool._session.pregarble_many = self.make_copies
        self.size = self.acquires = self.refills = self.garbled = 0
        self.crashes = self.streak = 0  # crashes in all, and since the last copy
        self.closed = self.started = False
        self.handed = []  # strong references: ids stay unique
        self.stepping = self.poisoned = False
        self.copy_s = 0.01  # what the next copy takes on the fake clock
        self.fastest = None  # the fastest per-copy time seen
        self.asked = []  # what each idle_wait was asked for
        self.violations = []
        # the thread's first turn, on a fresh pool: room for every copy,
        # and an owner that has seen no gap.  Hypothesis draws few such
        # states later on, and a refill bug shows in them at once
        if refill == "idle":
            if crashes_first and self.turn_runs():
                self.copy_maker_raises()
            else:
                self.refill_step()

    # -- the stubs ---------------------------------------------------------

    def make_copies(self, count, bob_bits):
        # recorded, not raised: the step would count an assertion as a crash
        if self.stepping and count != 1:
            self.violations.append(f"{count} copies in one wake")
        if self.stepping and self.owned and self.g.gate.stats()["inflight"]:
            self.violations.append("a copy while a request is in flight")
        if self.poisoned:
            raise RuntimeError("poisoned garble")
        self.g.clock.now += count * self.copy_s
        self.fastest = min(self.fastest or self.copy_s, self.copy_s)
        return _stub_copies(count, bob_bits)

    def owner_idle_wait(self, need_s):
        self.asked.append(need_s)
        verdict = self.g.would_return(need_s)
        if verdict is None:
            raise OwnerWouldBlock
        assert self.g.gate.wait_idle(need_s) is verdict
        return verdict

    # -- rules -------------------------------------------------------------

    @rule(count=st.one_of(st.none(), st.integers(1, 3)))
    def warm(self, count):
        room = self.pool.capacity - self.size
        expected = room if count is None else min(room, count)
        assert self.pool.warm(count) == expected
        self.size += expected
        self.garbled += expected

    @rule(copy_s=st.sampled_from([0.001, 0.009, 0.069, 0.5]))
    def copy_time(self, copy_s):
        self.copy_s = copy_s

    @rule()
    def acquire(self):
        item = self.pool.acquire()
        self.acquires += 1
        self.started |= self.pool.refill == "idle" and not self.closed
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

    @precondition(lambda self: self.acquires and not self.closed)
    @rule(how=st.sampled_from(["owner_drains", "close"]))
    def shutdown(self, how):
        # after a first draw: a pool closed at birth would end most runs
        if how == "close":
            self.pool.close()
            self.closed = True
        else:
            self.g.gate.drain(0.0)
            self.g.draining = True

    @precondition(lambda self: self.pool.refill == "idle")
    @rule(steps=st.integers(1, 3))
    def refill(self, steps):
        for _ in range(steps):  # stopping where the next turn would block
            if not self.refill_step():
                break

    def turn_runs(self):
        """Whether a refill turn would reach the copy maker now."""
        need_s = self.pool.stats()["per_copy_s"] or 0.0
        return (
            self.pool.refill == "idle" and not self.closed
            and self.size < self.pool.capacity
            and (not self.owned or self.g.would_return(need_s) is True)
        )

    @precondition(turn_runs)
    @rule()
    def copy_maker_raises(self):
        # nine crashes in a row reach the backoff's cap from any count
        self.poisoned = True
        try:
            for _ in range(9):
                assert self.refill_step()
        finally:
            self.poisoned = False

    def refill_step(self):
        """One turn, checked against the model; False where it blocks."""
        if not self.closed and self.size >= self.pool.capacity:
            return False  # it would wait for room: a threaded test's case
        verdict = True
        if self.closed:
            verdict = None
        elif self.owned:
            need_s = self.pool.stats()["per_copy_s"] or 0.0
            verdict = self.g.would_return(need_s)
        asked, fastest = len(self.asked), self.fastest  # before this turn's copy
        self.stepping = True
        try:
            backoff = self.pool._refill_step()
        except OwnerWouldBlock:
            assert verdict is None and not self.closed
            return False
        finally:
            self.stepping = False
        # a closed pool ends the loop without asking; an owner is asked
        # for the fastest per-copy time seen, never an average
        if self.owned and not self.closed:
            assert self.asked[asked:] == [pytest.approx(fastest or 0.0)]
        else:
            assert self.asked[asked:] == []
        if not verdict:
            assert backoff is None
            return False
        if self.poisoned:
            self.crashes += 1
            self.streak += 1
            assert backoff == BACKOFF_SCHEDULE[min(self.streak, 8) - 1]
        else:
            assert backoff == 0.0
            self.streak = 0
            self.size += 1
            self.refills += 1
            self.garbled += 1
        return True

    @invariant()
    def pool_agrees_with_the_model(self):
        assert self.violations == []
        stats = self.pool.stats()
        assert stats["size"] == self.size == len(self.pool)
        assert stats["size"] + stats["pending"] <= stats["capacity"]
        assert stats["hits"] + stats["misses"] == self.acquires
        assert stats["hits"] == len(self.handed)
        assert stats["refills"] == self.refills
        assert stats["garbled_total"] == self.garbled
        assert stats["offline_bytes"] == 40 * self.garbled
        if self.fastest is None:
            assert stats["per_copy_s"] is None
        else:
            assert stats["per_copy_s"] == pytest.approx(self.fastest)
        assert stats["refill_crashes"] == self.crashes
        if self.crashes:
            assert "poisoned garble" in stats["last_refill_error"]
        else:
            assert stats["last_refill_error"] is None
        # "none" never starts a thread; "idle" starts it on the first
        # draw from an open pool, and close() joins it
        thread = self.pool._refill_thread
        assert (thread is not None) == (self.started and not self.closed)
        assert stats["leaked_refill_thread"] is False

    def teardown(self):
        self.pool.close()


TestPoolModel = PoolMachine.TestCase
TestPoolModel.settings = MODEL_SETTINGS


# ---------------------------------------------------------------------------
# the waits that block
# ---------------------------------------------------------------------------


def _waits_on(cond):
    """A semaphore released each time a thread starts waiting on
    ``cond``.  The waiter holds the lock until the real wait lets go of
    it, so whatever the test does after acquiring happens while it
    waits."""
    entered = threading.Semaphore(0)
    wait = cond.wait

    def counted(timeout=None):
        entered.release()
        return wait(timeout)

    cond.wait = counted
    return entered


class TestGateIdleWait:
    def _gate_with_a_gap(self, gap_s=10.0):
        clock = FakeClock()
        gate = AdmissionGate(clock=clock)
        gate.admit(1)
        gate.release(1)
        clock.now += gap_s
        gate.admit(1)
        return gate, clock, _waits_on(gate._cond)

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

    def test_blocks_while_in_flight_and_release_wakes_it(self, in_thread):
        gate, _clock, waits = self._gate_with_a_gap()
        result = in_thread(gate.wait_idle, 1.0)
        assert waits.acquire(timeout=5.0)  # blocked: a request is in flight
        gate.release(1)
        assert result(5.0) is True

    def test_too_short_an_expectation_keeps_waiting(self, in_thread):
        gate, clock, waits = self._gate_with_a_gap(gap_s=0.5)
        result = in_thread(gate.wait_idle, 1.0)
        assert waits.acquire(timeout=5.0)
        gate.release(1)  # idle, but only 0.5 s expected
        assert waits.acquire(timeout=5.0)  # woken, and waiting again
        clock.now += 3.0
        gate.admit(1)  # a 3 s gap observed
        gate.release(1)
        assert result(5.0) is True

    def test_drain_refuses_the_waiter(self, in_thread):
        gate, _clock, waits = self._gate_with_a_gap()
        result = in_thread(gate.wait_idle, 1.0)
        assert waits.acquire(timeout=5.0)
        gate.drain(0.0)
        assert result(5.0) is False
        assert gate.wait_idle(0.0) is False  # and every later one


class TestRefillStep:
    """The refill against a scripted owner signal and the stub copy
    maker, run in the test thread: each case is one path the model
    also takes, pinned as an example."""

    def _pool(self, answers, capacity=3):
        asked = []

        def idle_wait(need_s):
            asked.append(need_s)
            return answers.pop(0)

        pool = PregarbledPool(
            CIRCUIT, BOB_BITS, capacity=capacity, refill="idle",
            idle_wait=idle_wait, ot_group=TEST_GROUP_512,
        )
        pool._session.pregarble_many = _stub_copies
        pool._refill_run = lambda: None  # acquire() starts no real loop
        return pool, asked

    def test_one_copy_per_idle_answer_and_false_ends_the_loop(self):
        pool, asked = self._pool([True, True, False])
        # the thread's loop, in the test thread: False ends it
        PregarbledPool._refill_run(pool)
        assert len(asked) == 3
        stats = pool.stats()
        assert (stats["size"], stats["refills"], stats["garbled_total"]) == (
            2, 2, 2,
        )

    def test_asks_for_the_fastest_copy_time_not_an_average(self):
        pool, asked = self._pool([True, True, True, False], capacity=4)
        # warm() reads the clock twice per copy: 69 ms for the first
        # (contended, builds the level schedule), 9 ms, then 500 ms
        ticks = iter([0.0, 0.069, 1.0, 1.009, 2.0, 2.5])
        pool._clock = lambda: next(ticks)
        PregarbledPool._refill_run(pool)
        # nothing measured yet -> 0; then the first sample; then the
        # fastest seen, which the slow third sample does not raise
        assert asked == pytest.approx([0.0, 0.069, 0.009, 0.009])
        assert pool.stats()["per_copy_s"] == pytest.approx(0.009)

    def test_a_copy_restarts_the_crash_backoff(self):
        pool, asked = self._pool([True] * 5, capacity=4)
        outcomes = iter([False, False, True, False, False])

        def flaky(count, bob_bits):
            if not next(outcomes):
                raise RuntimeError("poisoned garble")
            return _stub_copies(count, bob_bits)

        pool._session.pregarble_many = flaky
        # two crashes back off longer each time; the copy between them
        # and the next crash starts the schedule again
        backoffs = [pool._refill_step() for _ in range(5)]
        assert backoffs == BACKOFF_SCHEDULE[:2] + [0.0] + BACKOFF_SCHEDULE[:2]
        stats = pool.stats()
        assert (stats["refill_crashes"], stats["refills"]) == (4, 1)

    def test_closed_pool_ends_the_loop_without_asking(self):
        pool, asked = self._pool([True])
        pool.close()
        assert pool._refill_step() is None
        assert asked == [] and len(pool) == 0

    def test_full_pool_waits_for_room_not_for_the_owner(self, in_thread):
        pool, asked = self._pool([True], capacity=1)
        assert pool.warm() == 1
        waits = _waits_on(pool._cond)
        result = in_thread(pool._refill_step)
        assert waits.acquire(timeout=5.0) and asked == []  # full: owner not asked
        assert pool.acquire() is not None  # room, and a notify
        assert result(5.0) == 0.0 and len(asked) == 1 and len(pool) == 1


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


class TestServiceWiring:
    def test_refill_waits_for_the_request_to_leave(self, make_service):
        """The service's gate is its pool's owner: stepped by hand on the
        gate's fake clock, the refill garbles only once a gap has been
        seen and nothing is in flight."""
        service, x = make_service(pool_size=2, rng=random.Random(3))
        clock = FakeClock()
        service._gate._clock = clock
        try:
            assert service.prepare() == 2
            pool = service.pool
            pool._refill_run = lambda: None  # the test drives the step
            garbled_inflight = []
            pregarble_many = pool._session.pregarble_many

            def watched(count, bob_bits):
                garbled_inflight.append(service.stats["inflight"])
                # the refill makes copies for the service's weights
                assert bob_bits == service.compiled.server_bits()
                return pregarble_many(count, bob_bits)

            pool._session.pregarble_many = watched
            assert service.infer(x[0]).pregarbled
            # one request seen: no gap yet, so a step would block
            assert service.stats["expected_idle_s"] is None
            clock.now += 10.0  # a gap worth many garble times
            assert service.infer(x[1]).pregarbled
            assert service.stats["expected_idle_s"] == 10.0
            assert [pool._refill_step(), pool._refill_step()] == [0.0, 0.0]
            assert len(pool) == 2 and garbled_inflight == [0, 0]
            assert service.infer(x[2]).pregarbled  # refilled material
        finally:
            service.close()
        stats = service.stats["pool"]
        assert stats["refills"] == 2 and stats["refill_crashes"] == 0

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
