"""The five workloads of the layered benchmark.

Each is a closed loop of one client: ``run(i)`` makes the ``i``-th call
into the program's public surface and returns one :class:`Outcome` per
request it carried, with the value the program must have produced.  All
inputs derive from the seed; the model the four DL workloads serve is the
CLI demo model (``Dense(6) . Tanh . Dense(3)`` on 10 features in
``FixedPointFormat(2, 6)``, 15 915 non-XOR / 30 703 XOR gates), rebuilt
here from public pieces rather than through ``cli._demo_service``.

Apart from what a workload is about (backend, transport, pool) every
``EngineConfig`` field keeps its default, so that a later change which
deletes a knob cannot break the benchmark.  Base OT runs in
``TEST_GROUP_512`` like every other bench in the repository: the
production ``MODP_2048`` group costs ~20 s per request in pure Python.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Dict, List, Optional

import numpy as np

from repro.circuits import FixedPointFormat
from repro.compile import folded_mac_cell, run_folded_dense
from repro.engine import EngineConfig
from repro.gc.ot import TEST_GROUP_512
from repro.nn import (
    Dense,
    QuantizedModel,
    Sequential,
    Tanh,
    TrainConfig,
    Trainer,
    fixed_mul,
)
from repro.service import PrivateInferenceService
from repro.transport import ShardedService

__all__ = ["BATCH", "Outcome", "WORKLOADS"]

DL_FORMAT = FixedPointFormat(2, 6)
N_FEATURES = 10
N_SAMPLES = 64
#: requests in one ``infer_many`` call of the two batch workloads
BATCH = 8


@dataclasses.dataclass
class Outcome:
    """What one request produced, next to what it had to produce.

    ``reported_s`` is the program's own per-phase timer sum; the
    benchmark uses it only where it cannot look (inside a shard process).
    """

    value: Any
    expected: Any
    comm_bytes: int
    error: Optional[str] = None
    problem: Optional[str] = None
    reported_s: float = 0.0


def train_demo_model() -> Sequential:
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(N_SAMPLES, N_FEATURES))
    y = (x @ rng.normal(size=(N_FEATURES, 3))).argmax(axis=1)
    model = Sequential(
        [Dense(6), Tanh(), Dense(3)], input_shape=(N_FEATURES,), seed=1
    )
    Trainer(model, TrainConfig(epochs=20, learning_rate=0.2)).fit(x, y)
    return model


class _DLWorkload:
    """Shared set-up of the workloads that serve the demo model."""

    requests_per_op = 1
    #: stop after this many timed operations even if the window is open
    max_ops: Optional[int] = None
    #: every frame of a request crosses a ``Channel`` the tracer can see,
    #: so the traced frames must add up to the reported ``comm_bytes``
    reconciles = True

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed  # only DLPooledBatch sizes anything by the window

    def config(self, **overrides: Any) -> EngineConfig:
        return EngineConfig(
            fmt=DL_FORMAT,
            activation="exact",
            ot_group=TEST_GROUP_512,
            rng=random.Random(self.seed),
            **overrides,
        )

    def setup(self) -> None:
        self.model = train_demo_model()
        self.samples = np.random.default_rng(self.seed).uniform(
            -1, 1, size=(N_SAMPLES, N_FEATURES)
        )
        # the oracle: the label the server would compute in the clear
        self.expected = QuantizedModel(
            self.model, DL_FORMAT, activation_variant="exact"
        ).predict(self.samples)
        self.service = self.build()

    def build(self) -> Any:
        raise NotImplementedError

    def indices(self, i: int) -> List[int]:
        first = i * self.requests_per_op
        return [(first + j) % N_SAMPLES for j in range(self.requests_per_op)]

    def outcomes(self, indices: List[int], results: List[Any]) -> List[Outcome]:
        return [
            Outcome(
                value=result.label,
                expected=int(self.expected[k]),
                comm_bytes=result.comm_bytes,
                error=result.error,
                reported_s=sum(result.times.values()),
            )
            for k, result in zip(indices, results)
        ]

    def facts(self) -> Dict[str, float]:
        circuit = self.service.compiled.circuit
        counts = circuit.counts()
        return {
            "n_non_xor": counts.non_xor,
            "n_xor": counts.xor,
            "levels": len(circuit.level_schedule().levels),
        }

    def finish(self) -> Dict[str, Any]:
        stats = self.service.stats
        return {
            "retries": stats["retries"],
            "shed": stats["shed_requests"],
            "problems": [],
        }

    def close(self) -> None:
        self.service.close()


class DLCold(_DLWorkload):
    """``infer(x)`` on the two-party backend: nothing is prepared ahead."""

    backend: Optional[str] = None

    def build(self) -> PrivateInferenceService:
        return PrivateInferenceService(
            self.model, self.config(transport="memory")
        )

    def run(self, i: int) -> List[Outcome]:
        indices = self.indices(i)
        result = self.service.infer(
            self.samples[indices[0]], backend=self.backend
        )
        return self.outcomes(indices, [result])


class CutAndChoose(DLCold):
    """The same service, asked for the covert-security flow (3 copies)."""

    backend = "cut_and_choose"
    reconciles = False  # table traffic is computed, only the OT is framed


class DLPooledBatch(_DLWorkload):
    """``infer_many`` of 8 against a pool warmed in set-up, over sockets.

    The pool never refills (``pool_refill="none"``), so it is warmed for
    one batch per second of the window plus the warm-up batch, and the
    loop stops when that many batches have run: a pool miss would put
    garbling back on the path this workload exists to keep it off.
    """

    requests_per_op = BATCH

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.max_ops = max(2, int(seconds))  # a traced run needs one for each half

    def build(self) -> PrivateInferenceService:
        service = PrivateInferenceService(
            self.model,
            self.config(
                pool_size=BATCH * (self.max_ops + 1),
                pool_refill="none",
                transport="socket",
            ),
        )
        service.prepare()
        return service

    def run(self, i: int) -> List[Outcome]:
        indices = self.indices(i)
        results = self.service.infer_many(
            list(self.samples[indices]), return_errors=True
        )
        outcomes = self.outcomes(indices, results)
        for outcome, result in zip(outcomes, results):
            if not result.pregarbled:
                outcome.problem = "pool miss"
        return outcomes


class ShardedSocket(_DLWorkload):
    """``ShardedService.infer_many`` of 8 over two forked shard processes.

    The shards garble cold (``pool_size=0``): with an opportunistic pool
    the batch latency alternated between two values, depending on whether
    the refill thread had caught up.
    """

    requests_per_op = BATCH
    reconciles = False  # the channels live in the shard processes

    def build(self) -> ShardedService:
        def shard_service() -> PrivateInferenceService:
            return PrivateInferenceService(
                self.model, self.config(transport="socket", pool_size=0)
            )

        return ShardedService(shard_service, shards=2)

    def run(self, i: int) -> List[Outcome]:
        indices = self.indices(i)
        results = self.service.infer_many(list(self.samples[indices]))
        return self.outcomes(indices, results)

    def facts(self) -> Dict[str, float]:
        return {}  # the circuit is compiled inside the shards

    def finish(self) -> Dict[str, Any]:
        stats = self.service.stats()
        shards = [
            entry.get("service", {}) for entry in stats.get("per_shard", [])
        ]
        problems = [
            f"{key} = {stats[key]}"
            for key in ("degraded_requests", "restarts")
            if stats[key]
        ]
        return {
            "retries": sum(s.get("retries", 0) for s in shards),
            "shed": stats["shed_requests"],
            "problems": problems,
        }


class FoldedSeq:
    """``run_folded_dense`` of a 16-input unit: one MAC cell, 16 cycles."""

    requests_per_op = 1
    max_ops: Optional[int] = None
    reconciles = True
    fmt = FixedPointFormat(3, 12)
    in_dim = 16
    operand_sets = 8

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        shape = (self.operand_sets, self.in_dim)
        self.x = self.fmt.encode_array(rng.uniform(-1, 1, size=shape))
        self.w = self.fmt.encode_array(rng.uniform(-1, 1, size=shape))
        # the oracle: the integer dot product the circuit must reproduce
        self.expected = fixed_mul(self.x, self.w, self.fmt.frac_bits).sum(axis=1)
        self.protocol_rng = random.Random(self.seed)

    def run(self, i: int) -> List[Outcome]:
        k = i % self.operand_sets
        x, w = self.x[k], self.w[k]
        result = run_folded_dense(
            [int(v) for v in x],
            w[:, None],
            self.fmt,
            ot_group=TEST_GROUP_512,
            rng=self.protocol_rng,
        )
        return [
            Outcome(
                value=result.outputs,
                expected=[int(self.expected[k])],
                comm_bytes=result.comm_bytes,
            )
        ]

    def facts(self) -> Dict[str, float]:
        core = folded_mac_cell(self.fmt, fan_in=self.in_dim).core
        counts = core.counts()
        return {
            "n_non_xor": counts.non_xor,
            "n_xor": counts.xor,
            "levels": len(core.level_schedule().levels),
        }

    def finish(self) -> Dict[str, Any]:
        return {"retries": 0, "shed": 0, "problems": []}

    def close(self) -> None:
        pass


WORKLOADS = {
    "dl_cold": DLCold,
    "dl_pooled_batch": DLPooledBatch,
    "folded_seq": FoldedSeq,
    "cnc_garble_heavy": CutAndChoose,
    "sharded_socket": ShardedSocket,
}
