"""One serving path: a request is a batch of one.

``PrivateInferenceService.infer`` / ``execute`` serve a group of one and
``infer_many`` groups its requests by backend; every group takes one
breaker decision and one ``Backend.run_many`` call.  These tests pin
what that buys:

* an open breaker counts each degraded request once;
* a half-open breaker admits exactly one group as its probe;
* ``infer(x)``, ``infer_many([x])[0]`` and slot 0 of
  ``infer_many([x, y])`` are the same record, pooled or cold, on the
  in-memory and the socket transport;
* under a batch fault every request is counted once.
"""

import random

import numpy as np
import pytest

from repro.circuits import FixedPointFormat
from repro.engine import EngineConfig
from repro.gc.ot import TEST_GROUP_512
from repro.nn import Dense, Sequential, Tanh, TrainConfig, Trainer
from repro.resilience import FaultPlan, FaultSpec
from repro.service import PrivateInferenceService

PARITY_FIELDS = ("label", "comm_bytes", "n_non_xor", "backend", "pregarbled")


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, size=(40, 5))
    y = (x @ rng.normal(size=(5, 3))).argmax(axis=1)
    model = Sequential([Dense(4), Tanh(), Dense(3)], input_shape=(5,), seed=3)
    Trainer(model, TrainConfig(epochs=10, learning_rate=0.2)).fit(x, y)
    return model, x


@pytest.fixture
def make_service(trained):
    model, x = trained
    services = []

    def make(**config_kwargs):
        config = EngineConfig(
            fmt=FixedPointFormat(2, 6), activation="exact",
            ot_group=TEST_GROUP_512, rng=random.Random(7),
            pool_refill="none", **config_kwargs,
        )
        service = PrivateInferenceService(model, config)
        services.append(service)
        return service, x

    yield make
    for service in services:
        service.close()


def _counted_once(service, k):
    """Each of ``k`` requests landed in the counters exactly once."""
    stats = service.stats
    assert stats["requests"] == k
    assert stats["errors"] <= k and stats["degraded"] <= k
    assert sum(stats["by_backend"].values()) == k - stats["errors"]
    return stats


def _force_open(breaker):
    """Open ``breaker`` the way failing requests do."""
    for _ in range(breaker.threshold):
        breaker.record_failure()


class TestOpenBreaker:
    def test_a_batch_counts_each_degraded_request_once(self, make_service):
        service, x = make_service(pool_size=3, breaker_cooldown_s=300.0)
        service.prepare()
        _force_open(service._breaker("two_party"))
        results = service.infer_many(list(x[:3]))
        assert [r.label for r in results] == [
            service.cleartext_label(s) for s in x[:3]
        ]
        assert not any(r.pregarbled for r in results)  # cold: pool bypassed
        stats = _counted_once(service, 3)
        assert stats["degraded"] == 3
        assert stats["errors"] == 0
        assert stats["pool"]["hits"] == 0 and len(service.pool) == 3


class TestHalfOpenBreaker:
    def test_one_group_claims_the_probe(self, make_service):
        service, x = make_service(pool_size=3, breaker_cooldown_s=0.0)
        service.prepare()
        breaker = service._breaker("two_party")
        _force_open(breaker)
        assert breaker.stats()["state"] == "half-open"
        decisions = []
        allow = breaker.allow

        def spy():
            decisions.append(allow())
            return decisions[-1]

        breaker.allow = spy
        results = service.infer_many(list(x[:3]))
        assert decisions == [True]  # one group, one decision: the probe
        assert all(r.pregarbled for r in results)
        assert service.stats["degraded"] == 0
        assert breaker.stats()["state"] == "closed"  # the probe succeeded

    def test_a_group_serves_degraded_while_the_probe_is_out(
        self, make_service
    ):
        service, x = make_service(pool_size=2, breaker_cooldown_s=0.0)
        service.prepare()
        breaker = service._breaker("two_party")
        _force_open(breaker)
        assert breaker.allow()  # someone else's probe is in flight
        results = service.infer_many(list(x[:2]))
        assert all(r.ok and not r.pregarbled for r in results)
        assert service.stats["degraded"] == 2
        # a degraded group reports no outcome: the probe is still out
        assert breaker.stats()["state"] == "half-open" and not breaker.allow()


class TestParity:
    @pytest.mark.parametrize("transport", ["memory", "socket"])
    @pytest.mark.parametrize("pooled", [True, False], ids=["pooled", "cold"])
    def test_a_request_is_the_same_record_alone_or_in_a_batch(
        self, make_service, transport, pooled
    ):
        service, x = make_service(
            transport=transport, pool_size=4 if pooled else 0
        )
        if pooled:
            service.prepare()
        alone = service.infer(x[0])
        batch_of_one = service.infer_many([x[0]])[0]
        first_of_two = service.infer_many([x[0], x[1]])[0]
        for field in PARITY_FIELDS:
            assert (
                getattr(alone, field)
                == getattr(batch_of_one, field)
                == getattr(first_of_two, field)
            ), field
        assert alone.pregarbled is pooled
        assert alone.label == service.cleartext_label(x[0])


class TestBatchFault:
    @pytest.mark.parametrize("threshold", [1, 5])
    def test_every_request_is_counted_once(self, make_service, threshold):
        """A corrupted OT flight fails the group of three; it splits into
        groups of one, which serve (degraded once the failure opened a
        threshold-1 breaker).  Nothing is counted twice."""
        plan = FaultPlan([FaultSpec("corrupt", tag="ot", nth=0)], seed=0)
        service, x = make_service(
            fault_plan=plan, breaker_threshold=threshold,
            breaker_cooldown_s=300.0,
        )
        results = service.infer_many(list(x[:3]))
        assert [r.label for r in results] == [
            service.cleartext_label(s) for s in x[:3]
        ]
        stats = _counted_once(service, 3)
        assert stats["errors"] == 0
        assert stats["degraded"] == (3 if threshold == 1 else 0)
        assert stats["transient_faults"] == 1 and stats["retries"] == 0
        assert stats["faults"]["applied"] == 1

    def test_a_failing_request_is_one_error(self, make_service):
        """A fault on every OT flight: the group fails, each request
        then fails alone — one error per request, never one per attempt."""
        plan = FaultPlan(
            [FaultSpec("corrupt", tag="ot", nth=n) for n in range(4)], seed=0
        )
        service, x = make_service(fault_plan=plan)
        results = service.infer_many(list(x[:3]), return_errors=True)
        assert [r.error_category for r in results] == ["transient"] * 3
        stats = _counted_once(service, 3)
        assert stats["errors"] == 3 and stats["degraded"] == 0
