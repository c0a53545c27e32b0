"""High-level private-inference service API.

Wraps the full stack — quantize, compile, garble, OT, evaluate, merge —
behind the interface a deployment would expose: hand the service a
trained model once, then ask it for private inferences and cost
projections.  This is the "paid inference service" setting the paper's
HbC discussion motivates (Sec. 2.4).

The service is built on :mod:`repro.engine`: every execution flow is a
named backend, configuration lives in one :class:`repro.engine.EngineConfig`,
and the paper's input-independent garbling (Sec. 3) becomes an
offline/online split — :meth:`PrivateInferenceService.prepare` garbles a
pool of circuit copies ahead of requests so the online path pays only
transfer + OT + evaluate + merge.  :meth:`infer_many` serves a batch in
the calling thread; its requests on the two-party backend share one
batched evaluation pass.

``PrivateInferenceService(model, config)`` is the only constructor: every
knob lives on the :class:`repro.engine.EngineConfig`, and a request picks
its execution flow by backend name.
"""

from __future__ import annotations

import dataclasses
import functools
import random
import threading
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Union

import numpy as np

from .compile.compiler import CompiledModel, compile_model
from .compile.costmodel import CostBreakdown, GCCostModel
from .engine import (
    Backend,
    EngineConfig,
    PregarbledPool,
    TwoPartyBackend,
    get_backend,
)
from .engine.result import ExecutionResult
from .errors import BatchInferenceError, CompileError
from .gc.channel import make_channel_pair
from .gc.cipher import HashKDF
from .nn.model import Sequential
from .nn.quantize import QuantizedModel
from .resilience import (
    AdmissionGate,
    CircuitBreaker,
    RetryPolicy,
    fault_category,
    faulty_channel_factory,
    is_transient,
)

__all__ = [
    "InferenceRequest",
    "InferenceResult",
    "PrivateInferenceService",
]

@dataclasses.dataclass
class InferenceRequest:
    """One unit of serving work.

    Attributes:
        sample: the client's raw feature vector.
        request_id: opaque caller tag, echoed on the result.
        backend: per-request backend override (None = service default).
    """

    sample: np.ndarray
    request_id: Optional[str] = None
    backend: Optional[str] = None


@dataclasses.dataclass
class InferenceResult:
    """One private inference: the label plus full protocol accounting.

    Attributes:
        label: the decoded class index.
        comm_bytes: total protocol traffic.
        times: seconds per online phase.
        n_non_xor: non-free gates of the executed netlist.
        backend: name of the execution flow that served the request.
        request_id: echoed from the request, if any.
        pregarbled: True when the garbling came from the offline pool.
        error: failure description when the request did not complete
            (``infer_many(..., return_errors=True)`` marks failed slots
            this way instead of discarding the whole batch); ``label``
            is -1 for failed results.
        error_type: exception class name of the failure (``error`` keeps
            the human-readable message; this field survives formatting,
            so callers can branch on it).
        error_category: ``"transient"`` (wire fault / deadline — a retry
            could have cleared it) or ``"permanent"`` (semantic error);
            None for successful results.
    """

    label: int
    comm_bytes: int
    times: Dict[str, float]
    n_non_xor: int
    backend: str = "two_party"
    request_id: Optional[str] = None
    pregarbled: bool = False
    error: Optional[str] = None
    error_type: Optional[str] = None
    error_category: Optional[str] = None

    @classmethod
    def failed(
        cls,
        exc: BaseException,
        backend: str = "two_party",
        request_id: Optional[str] = None,
    ) -> "InferenceResult":
        """The record of a request that ended in ``exc`` (``label`` -1)."""
        return cls(
            label=-1,
            comm_bytes=0,
            times={},
            n_non_xor=0,
            backend=backend,
            request_id=request_id,
            error=f"{type(exc).__name__}: {exc}",
            error_type=type(exc).__name__,
            error_category=fault_category(exc),
        )

    @property
    def ok(self) -> bool:
        """True when the request completed (no per-request error)."""
        return self.error is None

    @property
    def wall_seconds(self) -> float:
        """Single-thread online protocol time."""
        return sum(self.times.values())


class PrivateInferenceService:
    """A server-side service object for DeepSecure-style inference.

    Args:
        model: the trained float model (the server's private asset).
        config: the full execution configuration.
    """

    def __init__(self, model: Sequential, config: EngineConfig) -> None:
        if not isinstance(config, EngineConfig):
            raise CompileError(
                f"config must be an EngineConfig, got {type(config).__name__}"
            )
        if config.output != "argmax":
            raise CompileError("the service API serves labels (argmax)")
        self.config = config
        # one oracle instance for the whole service: when kdf_workers > 1
        # this is a ParallelKDF whose worker pool the pool, backends and
        # sessions all share
        self._kdf = config.effective_kdf()
        self.quantized = QuantizedModel(
            model, config.fmt, activation_variant=config.activation
        )
        self.compiled: CompiledModel = compile_model(
            self.quantized, config.compile_options()
        )
        self._server_bits = self.compiled.server_bits()
        self._history: Deque[InferenceResult] = deque(
            maxlen=config.history_limit
        )
        self._backends: Dict[str, Backend] = {}
        self._lock = threading.Lock()
        # admission control + graceful drain: a bounded in-flight budget
        # sheds overload with a typed permanent error, and close() waits
        # for admitted work to finish before tearing the pool down
        self._gate = AdmissionGate(config.max_inflight)
        # transport + resilience wiring: the channel factory decides how
        # frames move (in-memory deques or the wire codec over kernel
        # socketpairs) and injects the configured fault plan into every
        # channel the backends build; the retry policy re-attempts
        # transient wire faults; one breaker per backend name gates
        # degraded serving.  Jitter rng is seeded so chaos runs are
        # reproducible end to end.
        if config.transport == "socket":
            # deferred import: repro.transport pulls in this module
            from .transport.socket_channel import socketpair_channel_factory

            base_factory = socketpair_channel_factory()
        else:
            # explicit rather than None: the config's transport choice is
            # authoritative for this service even if REPRO_TRANSPORT
            # changes between construction and the first request
            base_factory = make_channel_pair
        if config.fault_plan is not None:
            self._channel_factory = faulty_channel_factory(
                config.fault_plan, inner=base_factory
            )
        else:
            self._channel_factory = base_factory
        self._retry = RetryPolicy(
            max_retries=config.max_retries,
            backoff_s=config.retry_backoff_s,
            rng=random.Random(0),
        )
        self._breakers: Dict[str, CircuitBreaker] = {}
        # serving counters; mutated only under self._lock (callers may
        # serve from several threads, so unlocked += would drop updates)
        self._stats: Dict[str, object] = {
            "requests": 0,
            "errors": 0,
            "pregarbled": 0,
            "retries": 0,
            "transient_faults": 0,
            "degraded": 0,
            "by_backend": {},
        }
        # the pool is created at its configured capacity but stays cold:
        # prepare() is the explicit offline phase (garbling is work the
        # operator schedules, not a construction side effect)
        self._pool: Optional[PregarbledPool] = (
            self._make_pool(config.pool_size) if config.pool_size > 0 else None
        )

    @property
    def kdf(self) -> HashKDF:
        """The garbling oracle every backend, pool and session of this
        service shares — what a peer session must be run under."""
        return self._kdf

    @property
    def kdf_name(self) -> str:
        """Name of the garbling oracle serving requests, for operators.

        An oracle with more than one provider reports which one this
        host got — ``fixed-key-aes[libcrypto]`` or
        ``fixed-key-aes[numpy]``; a ``ParallelKDF`` wrapper prefixes
        ``parallel-``.  Providers of one oracle interoperate: what
        peers compare is :func:`repro.gc.cipher.oracle_fingerprint`.
        """
        kdf = self._kdf
        name = getattr(kdf, "name", type(kdf).__name__)
        provider = getattr(getattr(kdf, "inner", kdf), "provider", None)
        return f"{name}[{provider}]" if provider else name

    @property
    def ot_group_name(self) -> str:
        """The base-OT group and where its modular exponentiations run
        on this host, for operators: ``modp-2048[libcrypto]``, or
        ``[python]`` where no libcrypto offers the BIGNUM calls (same
        transcripts, an order of magnitude slower)."""
        group = self.config.ot_group
        return f"{group.name}[{group.provider}]"

    # -- offline phase ----------------------------------------------------

    def _make_pool(self, capacity: int) -> PregarbledPool:
        """A pool wired to this service's circuit and protocol params."""
        return PregarbledPool(
            self.compiled.circuit,
            capacity=capacity,
            kdf=self._kdf,
            ot_group=self.config.ot_group,
            rng=self.config.rng,
            refill=self.config.pool_refill,
            # the refill garbles only while this gate has nothing in flight
            idle_wait=self._gate.wait_idle,
        )

    @property
    def pool(self) -> Optional[PregarbledPool]:
        """The pre-garbled pool, when the config enables one."""
        with self._lock:
            return self._pool

    @property
    def history(self) -> List[InferenceResult]:
        """Consistent snapshot of retained inference records (newest last).

        Backed by a deque capped at ``EngineConfig.history_limit`` (0
        retains nothing).  Copied under the service lock so readers
        never observe a half-applied batch from a serving thread.
        """
        with self._lock:
            return list(self._history)

    @property
    def stats(self) -> Dict[str, object]:
        """Serving counters plus pool/breaker/fault stats (locked snapshot)."""
        with self._lock:
            snapshot: Dict[str, object] = dict(self._stats)
            snapshot["by_backend"] = dict(self._stats["by_backend"])
            breakers = dict(self._breakers)
            pool = self._pool
            ot_states = [b.ot_state for b in self._backends.values()]
        snapshot.update(self._gate.stats())
        # session-level OT figures: what the base OT cost this service,
        # charged to no request's comm_bytes
        setup_bytes = [state.setup_bytes for state in ot_states]
        snapshot["ot"] = {
            "base_batches": sum(1 for size in setup_bytes if size),
            "setup_bytes": sum(setup_bytes),
            "extensions": sum(state.extensions for state in ot_states),
            "group": self.ot_group_name,
        }
        # pool and breakers take their own locks; call outside ours
        if breakers:
            snapshot["breakers"] = {
                name: breaker.stats() for name, breaker in breakers.items()
            }
        if self.config.fault_plan is not None:
            snapshot["faults"] = self.config.fault_plan.stats()
        if pool is not None:
            snapshot["pool"] = pool.stats()
        return snapshot

    def close(self, drain_timeout_s: float = 30.0) -> None:
        """Drain in-flight requests, then release serving resources.

        New requests are refused the moment draining begins
        (:class:`~repro.errors.ServiceDrainingError`); admitted ones get
        up to ``drain_timeout_s`` to finish.  Requests that finished
        during the wait count as ``drained_requests``, any still running
        when the grace expires as ``aborted_requests``.  Idempotent.
        """
        self._gate.drain(drain_timeout_s)
        pool = self.pool
        if pool is not None:
            pool.close()

    def prepare(self, count: Optional[int] = None) -> int:
        """Pre-garble circuit copies ahead of requests (offline phase).

        Garbling is input-independent, so this work happens before any
        client shows up; subsequent :meth:`infer` calls on the two-party
        backend skip online garbling while the pool lasts.  Creates the
        pool on first use when ``EngineConfig.pool_size`` is 0 (sized to
        ``count``).  Returns the number of copies garbled.
        """
        with self._lock:
            pool = self._pool
            if pool is None:
                pool = self._pool = self._make_pool(count or 8)
                # a cached two-party backend predates the pool: hand it
                # the pool rather than rebuild it, so it keeps the OT
                # state it has already paid a base OT for
                backend = self._backends.get("two_party")
                if backend is not None and backend.pool is None:
                    backend.pool = pool
            if count is not None and count > pool.capacity:
                # capacity is a sizing knob, not a contract: an explicit
                # prepare(n) beyond it grows the pool rather than silently
                # warming fewer copies than asked
                pool.capacity = count
        # garbling is the expensive part — never under the service lock
        return pool.warm(count)

    # -- inference --------------------------------------------------------

    def _backend_options(self, name: str) -> Dict[str, object]:
        """Constructor keywords for backend ``name`` (caller holds the lock)."""
        options: Dict[str, object] = dict(
            kdf=self._kdf,
            ot_group=self.config.ot_group,
            rng=self.config.rng,
            channel_factory=self._channel_factory,
            request_timeout_s=self.config.request_timeout_s,
        )
        if name == self.config.backend:
            options.update(self.config.backend_options)
        if name == "two_party" and self._pool is not None:
            options.setdefault("pool", self._pool)
        return options

    def _backend(self, name: str) -> Backend:
        """Backend instance for ``name``, cached for the service's life.

        The cache is what makes the base OT a once-per-service cost: the
        backend owns the OT-extension state its requests share.
        """
        with self._lock:
            backend = self._backends.get(name)
            if backend is None:
                backend = get_backend(name, **self._backend_options(name))
                self._backends[name] = backend
        return backend

    def _breaker(self, name: str) -> CircuitBreaker:
        """The circuit breaker guarding backend ``name`` (lazily created)."""
        with self._lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                breaker = CircuitBreaker(
                    threshold=self.config.breaker_threshold,
                    cooldown_s=self.config.breaker_cooldown_s,
                )
                self._breakers[name] = breaker
        return breaker

    def _record_result(
        self, request: InferenceRequest, result: ExecutionResult
    ) -> InferenceResult:
        """Turn an execution outcome into a served record (locked stats)."""
        record = InferenceResult(
            label=self.compiled.decode_output(result.outputs),
            comm_bytes=result.comm_bytes,
            times=dict(result.times),
            n_non_xor=result.n_non_xor,
            backend=result.backend,
            request_id=request.request_id,
            pregarbled=bool(result.metadata.get("pregarbled", False)),
        )
        with self._lock:
            self._history.append(record)
            self._stats["requests"] += 1
            if record.pregarbled:
                self._stats["pregarbled"] += 1
            by_backend = self._stats["by_backend"]
            by_backend[record.backend] = by_backend.get(record.backend, 0) + 1
        return record

    def _record_error(self, exc: Optional[BaseException] = None) -> None:
        """Count one failed request (locked)."""
        with self._lock:
            self._stats["requests"] += 1
            self._stats["errors"] += 1
            if exc is not None and is_transient(exc):
                self._stats["transient_faults"] += 1

    def _note_retry(self, exc: BaseException, attempt: int) -> None:
        """RetryPolicy observer: count a transient fault + retry (locked)."""
        with self._lock:
            self._stats["retries"] += 1
            self._stats["transient_faults"] += 1

    def execute(self, request: InferenceRequest) -> InferenceResult:
        """Serve one typed request through the configured engine.

        Admission first: a full in-flight budget sheds the request with
        the permanent :class:`~repro.errors.ServiceOverloadedError`, and
        a draining service refuses it
        (:class:`~repro.errors.ServiceDrainingError`).

        Resilience path: transient wire faults (corruption, drops,
        expired deadlines) retry up to ``EngineConfig.max_retries``
        times with backoff — each attempt builds a fresh channel pair
        and deadline.  Outcomes feed the backend's circuit breaker;
        while it is open, two-party requests serve degraded (cold
        garbling, bypassing the pre-garbled pool) until a half-open
        probe succeeds.  Semantic errors never retry and surface
        immediately.

        Thread-safe: callers may run this from their own threads, so
        the shared history/stats mutation happens under the service lock
        (the protocol execution itself stays outside it).
        """
        self._gate.admit(1)
        try:
            return self._execute_one(request)
        finally:
            self._gate.release(1)

    def _execute_one(self, request: InferenceRequest) -> InferenceResult:
        """The :meth:`execute` body, after admission accepted the request."""
        backend_name = request.backend or self.config.backend
        try:
            sample = np.asarray(request.sample)
            client_bits = self.compiled.client_bits(sample)
        except Exception:
            # malformed input is the caller's fault: count the error but
            # never charge it to the backend's breaker
            self._record_error()
            raise
        breaker = self._breaker(backend_name)
        degraded = not breaker.allow()
        backend = self._backend(backend_name)
        if degraded:
            with self._lock:
                self._stats["degraded"] += 1

        run = backend.run
        if degraded and isinstance(backend, TwoPartyBackend):
            # degradation sheds the stateful fast path: the same backend
            # (it owns the OT state a base OT was paid for) garbles cold,
            # so a poisoned pool can't keep failing requests.  Other
            # backends have no pooled state to shed.
            run = functools.partial(backend.run, pooled=False)

        def attempt() -> ExecutionResult:
            return run(self.compiled.circuit, client_bits, self._server_bits)

        try:
            result: ExecutionResult = self._retry.call(
                attempt, on_retry=self._note_retry
            )
        except Exception as exc:
            if not degraded:
                breaker.record_failure()
            self._record_error(exc)
            raise
        if not degraded:
            breaker.record_success()
        return self._record_result(request, result)

    def infer(
        self,
        sample: np.ndarray,
        backend: Optional[str] = None,
        request_id: Optional[str] = None,
    ) -> InferenceResult:
        """Run one private inference (full garbled protocol).

        Args:
            sample: the client's raw feature vector.
            backend: execution flow override (None = config default).
            request_id: opaque tag echoed on the result.
        """
        return self.execute(
            InferenceRequest(
                sample=np.asarray(sample), request_id=request_id, backend=backend
            )
        )

    def _infer_batched(
        self,
        normalized: List[InferenceRequest],
        outcomes: List[Optional[InferenceResult]],
        errors: List[tuple],
    ) -> List[int]:
        """Serve eligible requests through one batched evaluation pass.

        Requests targeting the two-party backend are pushed
        through ``TwoPartyBackend.run_many`` — one ``garble_many`` pass
        for pool misses and one ``evaluate_many`` schedule walk for the
        whole group — instead of per-request protocol runs.
        Fills ``outcomes``/``errors`` in place for the requests it
        handles and returns the indices still pending (non-two-party
        requests, or the whole group when fewer than two requests are
        eligible, batching is unavailable or the batched run itself
        fails — per-request isolation then falls back to
        request-at-a-time serving).
        """
        n = len(normalized)
        everything = list(range(n))
        eligible = [
            i for i, r in enumerate(normalized)
            if (r.backend or self.config.backend) == "two_party"
        ]
        if len(eligible) < 2:
            return everything
        backend = self._backend("two_party")
        run_many = getattr(backend, "run_many", None)
        if run_many is None:
            return everything
        breaker = self._breaker("two_party")
        if breaker.state == "open":
            # breaker open: shed the batched fast path — the group falls
            # through to per-request serving, which degrades to
            # cold garbling under the same breaker
            with self._lock:
                self._stats["degraded"] += 1
            return everything
        eligible_set = set(eligible)
        pending = [i for i in everything if i not in eligible_set]
        bits: List[List[int]] = []
        good: List[int] = []
        for i in eligible:
            try:
                bits.append(
                    self.compiled.client_bits(
                        np.asarray(normalized[i].sample)
                    )
                )
                good.append(i)
            except Exception as exc:  # isolate malformed samples
                self._record_error()
                errors.append((i, exc))
        if good:
            try:
                results = run_many(
                    self.compiled.circuit, bits, self._server_bits
                )
            except Exception as exc:
                # a batch-level failure must not fail every request in
                # it: retry the group request-at-a-time, where errors
                # isolate per request (and transient faults get the
                # retry policy)
                breaker.record_failure()
                if is_transient(exc):
                    with self._lock:
                        self._stats["transient_faults"] += 1
                pending.extend(good)
                pending.sort()
            else:
                breaker.record_success()
                for i, result in zip(good, results):
                    outcomes[i] = self._record_result(normalized[i], result)
        return pending

    def infer_many(
        self,
        requests: Sequence[Union[InferenceRequest, np.ndarray]],
        return_errors: bool = False,
    ) -> List[InferenceResult]:
        """Serve a batch of requests, in the calling thread.

        GC gives no per-sample batching discount (Fig. 6's point), but
        the *engine* work batches: when two or more requests target the
        two-party backend they share one ``evaluate_many`` pass over the
        level schedule (and one ``garble_many`` pass for pool misses)
        instead of ``k`` protocol runs.  Every other request — and the
        whole group when the batched pass is unavailable, failed or shed
        by an open breaker — runs one after another: both parties of an
        in-process session run in the calling thread, so no request
        waits on I/O that a thread pool could overlap (more cores are
        ``transport.ShardedService``'s job).  Results come back in
        request order.

        Args:
            requests: samples or typed :class:`InferenceRequest` items.
            return_errors: see below.

        Per-request failures are isolated: every request runs to
        completion regardless of its neighbours.  With
        ``return_errors=False`` (default) a batch containing failures
        raises :class:`repro.errors.BatchInferenceError` *after* the
        whole batch finishes, carrying the completed results and the
        per-request exceptions; with ``return_errors=True`` failed slots
        come back as :class:`InferenceResult` records with ``error`` set
        (``label`` -1) so callers can stream partial batches.
        """
        normalized = [
            r
            if isinstance(r, InferenceRequest)
            else InferenceRequest(sample=np.asarray(r))
            for r in requests
        ]
        if not normalized:
            return []
        # the batch admits as one group: either every request gets a
        # slot or the whole batch is shed/refused (no partial admission,
        # so a shed batch never half-serves)
        self._gate.admit(len(normalized))
        try:
            outcomes: List[Optional[InferenceResult]] = [None] * len(normalized)
            errors: List[tuple] = []
            for index in self._infer_batched(normalized, outcomes, errors):
                try:
                    outcomes[index] = self._execute_one(normalized[index])
                except Exception as exc:
                    errors.append((index, exc))
            errors.sort(key=lambda pair: pair[0])
        finally:
            self._gate.release(len(normalized))

        if errors and not return_errors:
            raise BatchInferenceError(
                f"{len(errors)}/{len(normalized)} requests failed "
                f"(first: {errors[0][1]!r}); completed results attached",
                results=outcomes,
                errors=errors,
            ) from errors[0][1]
        for index, exc in errors:
            outcomes[index] = InferenceResult.failed(
                exc,
                backend=normalized[index].backend or self.config.backend,
                request_id=normalized[index].request_id,
            )
        return outcomes

    def infer_batch(self, samples: np.ndarray) -> List[int]:
        """Private inference over a batch (one protocol run per sample —
        GC has no batching discount, which is Fig. 6's whole point)."""
        return [result.label for result in self.infer_many(list(samples))]

    def cleartext_label(self, sample: np.ndarray) -> int:
        """The reference label the server would compute in the clear."""
        return int(self.quantized.predict(np.asarray(sample)[None])[0])

    # -- cost projection -------------------------------------------------------

    def cost_estimate(
        self, n_samples: int = 1, cost_model: Optional[GCCostModel] = None
    ) -> CostBreakdown:
        """Project per-batch cost from the compiled circuit's gate counts.

        Uses the paper's testbed coefficients by default; pass a model
        built from :func:`repro.analysis.characterize` for this host.
        """
        model = cost_model or GCCostModel()
        counts = self.compiled.circuit.counts()
        single = model.breakdown(counts)
        return CostBreakdown(
            xor=single.xor * n_samples,
            non_xor=single.non_xor * n_samples,
            comm_bytes=single.comm_bytes * n_samples,
            computation_s=single.computation_s * n_samples,
            execution_s=single.execution_s * n_samples,
        )

    # -- bookkeeping ---------------------------------------------------------------

    @property
    def circuit_summary(self) -> str:
        """One-line description of the compiled netlist."""
        counts = self.compiled.circuit.counts()
        return (
            f"{self.compiled.n_features} features -> "
            f"{self.compiled.n_classes} classes | "
            f"{counts.xor} XOR + {counts.non_xor} non-XOR gates | "
            f"{self.compiled.fmt.describe()} | "
            f"backend {self.config.backend}"
        )
