"""Regression tests for the PR 2 serving-path bug squash.

Three bugs shipped with the PR 1 serving layer:

* the pre-garbled pool never refilled — once the initial ``warm()``
  material drained, every later request was a cold miss forever;
* ``infer_many`` used ``executor.map``, so one failing request raised
  and discarded every completed result in the batch;
* ``execute`` bumped its counters without the service lock while
  running on ``infer_many``'s thread pool (the pool is gone; callers'
  own threads still call ``execute``).

Each test here fails against the PR 1 behavior.
"""

import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.analysis import build_gate_chain
from repro.circuits import FixedPointFormat
from repro.engine import EngineConfig, PregarbledPool
from repro.errors import BatchInferenceError, CompileError, EngineError
from repro.gc.ot import TEST_GROUP_512
from repro.nn import Dense, Sequential, Tanh, TrainConfig, Trainer
from repro.service import InferenceRequest, PrivateInferenceService

FMT = FixedPointFormat(2, 6)


def _wait_until(predicate, timeout=15.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _small_circuit():
    return build_gate_chain(60, "and")


def _pool(**kwargs):
    """A pool over the gate chain, its copies made for all-one Bob bits."""
    circuit = _small_circuit()
    return PregarbledPool(circuit, [1] * circuit.n_bob, **kwargs)


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
        **config_kwargs,
    )
    return PrivateInferenceService(model, config), x


class TestPoolRefill:
    def test_none_policy_stays_drained(self):
        """The PR 1 behavior is still available as an explicit opt-in."""
        pool = _pool(capacity=2, refill="none",
                              rng=random.Random(0))
        assert pool.warm() == 2
        assert pool.acquire() is not None
        assert pool.acquire() is not None
        time.sleep(0.1)
        assert len(pool) == 0 and pool.acquire() is None

    def test_idle_refills_after_drain(self):
        """Drain the pool dry; once its owner is idle, material comes back."""
        idle = threading.Event()

        def idle_wait(need_s):
            # the owner's signal: nobody is idle until the test says so,
            # so the drained acquire below is always a recorded miss
            assert idle.wait(timeout=10.0), "owner never went idle"
            return True

        pool = _pool(capacity=2, refill="idle", idle_wait=idle_wait,
            rng=random.Random(1),
        )
        assert pool.warm() == 2
        assert pool.acquire() is not None
        assert pool.acquire() is not None
        assert pool.acquire() is None  # drained: a miss
        assert pool.stats()["garbled_total"] == 2  # nothing while busy
        idle.set()
        assert _wait_until(lambda: pool.stats()["refills"] >= 1), \
            "pool never refilled"
        assert pool.acquire() is not None  # served warm again
        stats = pool.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 3
        assert stats["garbled_total"] > 2
        pool.close()

    def test_ownerless_idle_pool_tops_itself_up(self):
        pool = _pool(capacity=3, refill="idle", rng=random.Random(2),
        )
        # a pool nobody has drawn from has nothing to refill: no thread
        # yet, so an operator's warm() cannot lose slots to one
        assert pool._refill_thread is None
        assert pool.warm() == 3
        assert pool.acquire() is not None
        # no owner signal = owner always idle: one copy at a time, to the top
        assert _wait_until(lambda: len(pool) == 3), "no top-up after a draw"
        assert pool.stats()["refills"] == 1
        pool.close()
        # close is idempotent and stops the thread
        pool.close()
        assert pool._refill_thread is None

    def test_unknown_policy_rejected(self):
        # the two removed policies are refused by name like any other,
        # and the error names the two that exist
        for name in ("aggressive", "opportunistic", "background"):
            with pytest.raises(EngineError, match="refill.*none, idle"):
                _pool(refill=name)
            with pytest.raises(EngineError, match="pool_refill.*none, idle"):
                EngineConfig(pool_refill=name)
        assert EngineConfig().pool_refill == "idle"
        assert EngineConfig(pool_refill="none").pool_refill == "none"

    def test_warm_batches_and_respects_capacity(self):
        pool = _pool(capacity=4,
                              rng=random.Random(3))
        assert pool.warm(2) == 2
        assert pool.warm() == 2  # fills remaining room in one batch
        assert pool.warm() == 0
        assert pool.garbled_total == 4
        units = [pool.acquire() for _ in range(4)]
        assert all(u is not None for u in units)
        # single-use material is all distinct
        assert len({id(u) for u in units}) == 4

    def test_service_surfaces_pool_stats(self):
        service, x = _trained_service(
            pool_size=2, rng=random.Random(11),
        )
        service.prepare()
        service.infer(x[0])
        stats = service.stats
        assert stats["requests"] == 1
        assert stats["pool"]["hits"] == 1
        assert stats["pool"]["hit_rate"] == 1.0
        assert stats["pool"]["refill"] == "idle"
        service.close()


class TestBatchErrorIsolation:
    @pytest.fixture(scope="class")
    def service(self):
        service, x = _trained_service(backend="simulate", pool_refill="none")
        return service, x

    def test_one_bad_request_does_not_discard_batch(self, service):
        svc, x = service
        bad = InferenceRequest(sample=np.zeros(99), request_id="bad")
        requests = [
            InferenceRequest(sample=x[0], request_id="a"),
            bad,
            InferenceRequest(sample=x[1], request_id="b"),
        ]
        with pytest.raises(BatchInferenceError) as excinfo:
            svc.infer_many(requests)
        err = excinfo.value
        assert len(err.errors) == 1 and err.errors[0][0] == 1
        assert isinstance(err.errors[0][1], CompileError)
        # the completed neighbours survived, in request order
        assert err.results[0].request_id == "a"
        assert err.results[2].request_id == "b"
        assert err.results[1] is None
        assert err.__cause__ is err.errors[0][1]

    def test_return_errors_marks_failed_slots(self, service):
        svc, x = service
        requests = [
            InferenceRequest(sample=x[2], request_id="ok-0"),
            InferenceRequest(sample=np.zeros(99), request_id="oops"),
            InferenceRequest(sample=x[3], request_id="ok-1"),
        ]
        results = svc.infer_many(requests, return_errors=True)
        assert [r.request_id for r in results] == ["ok-0", "oops", "ok-1"]
        assert results[0].ok and results[2].ok
        assert not results[1].ok
        assert results[1].label == -1
        assert "CompileError" in results[1].error
        assert results[0].label == svc.cleartext_label(x[2])

    def test_single_worker_path_isolates_too(self, service):
        svc, x = service
        results = svc.infer_many(
            [x[0], np.zeros(99), x[1]], return_errors=True
        )
        assert [r.ok for r in results] == [True, False, True]

    def test_all_good_batch_unchanged(self, service):
        svc, x = service
        results = svc.infer_many(list(x[:3]))
        assert [r.label for r in results] == [
            svc.cleartext_label(s) for s in x[:3]
        ]

    def test_empty_batch(self, service):
        svc, _ = service
        assert svc.infer_many([]) == []


def _execute_concurrently(service, requests, workers=8):
    """Drive ``service.execute`` from ``workers`` caller threads.

    ``infer_many`` serves in the calling thread, so concurrency is the
    caller's to bring; failures come back as the exception instances.
    """

    def run_one(request):
        try:
            return service.execute(request)
        except Exception as exc:
            return exc

    with ThreadPoolExecutor(max_workers=workers) as executor:
        return list(executor.map(run_one, requests))


class TestCounterThreadSafety:
    def test_concurrent_execute_keeps_counters_consistent(self):
        service, x = _trained_service(backend="simulate", pool_refill="none")
        n = 48
        results = _execute_concurrently(
            service,
            [InferenceRequest(sample=x[i % 50], request_id=str(i))
             for i in range(n)],
        )
        assert len(results) == n and all(r.ok for r in results)
        assert {r.request_id for r in results} == {str(i) for i in range(n)}
        stats = service.stats
        assert stats["requests"] == n
        assert stats["errors"] == 0
        assert stats["by_backend"]["simulate"] == n

    def test_stats_snapshot_while_serving(self):
        """Readers never see a torn snapshot while writers count."""
        service, x = _trained_service(backend="simulate", pool_refill="none")
        stop = threading.Event()
        observed = []

        def reader():
            while not stop.is_set():
                snapshot = service.stats
                # a request and its backend are counted in one step
                observed.append(
                    sum(snapshot["by_backend"].values()) == snapshot["requests"]
                )

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            _execute_concurrently(
                service, [InferenceRequest(sample=s) for s in x[:32]]
            )
        finally:
            stop.set()
            thread.join()
        assert all(observed)
        assert service.stats["requests"] == 32

    def test_error_counter_updates_under_lock(self):
        service, x = _trained_service(backend="simulate", pool_refill="none")
        bad = [np.zeros(99)] * 6 + list(x[:6])
        results = _execute_concurrently(
            service, [InferenceRequest(sample=s) for s in bad], workers=6
        )
        assert sum(1 for r in results if isinstance(r, CompileError)) == 6
        assert sum(1 for r in results if not isinstance(r, Exception)) == 6
        stats = service.stats
        assert stats["requests"] == 12
        assert stats["errors"] == 6
