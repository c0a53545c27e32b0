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
pool of circuit copies ahead of requests, each with its tables sent and
its OT run for the weights, so the online path pays only Alice's labels
+ evaluate + merge.  One path serves every request:
:meth:`infer` is a group of one, :meth:`infer_many` groups a batch by
backend, and each group is one ``Backend.run_many`` call in the calling
thread (on the two-party backend, one batched evaluation pass).

``PrivateInferenceService(model, config)`` is the only constructor: every
knob lives on the :class:`repro.engine.EngineConfig`, and a request picks
its execution flow by backend name.
"""

from __future__ import annotations

import dataclasses
import random
import threading
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from .circuits.netlist import Circuit
from .compile.compiler import CompiledModel, compile_model
from .engine import (
    Backend,
    CutAndChooseBackend,
    EngineConfig,
    PregarbledPool,
    get_backend,
)
from .errors import BatchInferenceError, CompileError
from .gc.channel import channel_factory
from .gc.cipher import HashKDF, make_kdf
from .gc.ot_extension import IKNPState
from .gc.protocol import ProtocolResult
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
    def phase_seconds(self) -> float:
        """The sum of the request's phase timers: single-thread online
        protocol time, not the wall time the caller waited."""
        return sum(self.times.values())


#: a request's slot while the service serves it: its record, the
#: exception it ended in, or None until its group has run
Outcome = Union[InferenceResult, BaseException, None]


#: glibc's ceiling on its adaptive mmap threshold (``malloc.h``)
_MMAP_THRESHOLD_MAX = 32 << 20


def _size_heap_for_requests(circuit: Circuit, copies: int = 1) -> None:
    """Let glibc serve the scratch of a request that garbles ``copies``
    copies from its heap.

    At its peak such a request holds a ``(n_slots + 1, 16)`` label plane
    per copy and the evaluator's (the schedule's slot planes), and its
    tables ``2 copies + 1`` times over (each copy's walk stack and its
    own, or the frame that carries it, and the evaluator's halves).  A
    two-party request on the demo net: two 74 KB planes and three
    379 KB table blocks, 1.29 MB (``tracemalloc`` reads a 1.50 MB peak);
    a cut-and-choose request's three copies: 2.95 MB (3.67 MB).  The
    table blocks are above glibc's initial 128 KB mmap threshold, so
    glibc maps each fresh and unmaps it when it is freed, and every
    request would fault its scratch in again as zero pages until the
    process frees a larger mapped block: glibc then raises its mmap
    threshold to that block's size, and its trim threshold to twice
    that.  Allocating and freeing one untouched block of the request's
    scratch size does that before the first such request.  The trim
    threshold must clear what a request frees at the top of the heap:
    sized from the planes and one table block alone, a demo-net
    two-party request faulted 153-245 times and a cut-and-choose one
    about 800 (``ru_minflt`` over 40 and 60 requests); sized as here,
    0 and 3.
    Nothing is pinned, glibc keeps adapting; a process that only serves
    pins both thresholds instead
    (:func:`repro.transport.worker.retain_heap`).
    """
    plane = (circuit.level_schedule().n_slots + 1) * 16
    tables = 32 * circuit.counts().non_xor
    scratch = (copies + 1) * plane + (2 * copies + 1) * tables
    np.empty(min(scratch, _MMAP_THRESHOLD_MAX), dtype=np.uint8)


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
        self.config = config
        # one oracle instance for the whole service: the pool, backends
        # and sessions all garble and evaluate under it
        self._kdf = make_kdf(config.kdf_backend)
        self.quantized = QuantizedModel(
            model, config.fmt, activation_variant=config.activation
        )
        self.compiled: CompiledModel = compile_model(
            self.quantized, config.compile_options()
        )
        self._server_bits = self.compiled.server_bits()
        _size_heap_for_requests(self.compiled.circuit)
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
        # reproducible end to end.  The factory is resolved here, not per
        # request: the config's transport choice is authoritative for this
        # service even if REPRO_TRANSPORT changes before the first request.
        base_factory = channel_factory(config.transport)
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
        # the OT-extension state the pool's copies and the two-party
        # backend's requests share, so the service pays one base OT
        self._ot_state = IKNPState(config.ot_group, config.rng)
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
        ``fixed-key-aes[numpy]``.  Providers of one oracle interoperate:
        what peers compare is :func:`repro.gc.cipher.oracle_fingerprint`.
        """
        provider = getattr(self._kdf, "provider", None)
        return f"{self._kdf.name}[{provider}]" if provider else self._kdf.name

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
            # every copy's OT runs for the weights as it is made
            self._server_bits,
            capacity=capacity,
            kdf=self._kdf,
            ot_group=self.config.ot_group,
            rng=self.config.rng,
            refill=self.config.pool_refill,
            # the refill garbles only while this gate has nothing in flight
            idle_wait=self._gate.wait_idle,
            ot_state=self._ot_state,
        )

    @property
    def pool(self) -> Optional[PregarbledPool]:
        """The pre-garbled pool, when the config enables one."""
        with self._lock:
            return self._pool

    @property
    def stats(self) -> Dict[str, object]:
        """Serving counters plus pool/breaker/fault stats (locked snapshot)."""
        with self._lock:
            snapshot: Dict[str, object] = dict(self._stats)
            snapshot["by_backend"] = dict(self._stats["by_backend"])
            breakers = dict(self._breakers)
            pool = self._pool
            ot_states = [self._ot_state] + [
                b.ot_state for b in self._backends.values()
                if b.ot_state is not self._ot_state
            ]
        snapshot.update(self._gate.stats())
        # pool and breakers take their own locks; call outside ours
        pool_stats = pool.stats() if pool is not None else None
        # session-level OT figures: what the base OT cost this service
        # and what the pool moved offline (its copies' OTs, tables and
        # constant labels), charged to no request's comm_bytes
        setup_bytes = [state.setup_bytes for state in ot_states]
        snapshot["ot"] = {
            "base_batches": sum(1 for size in setup_bytes if size),
            "setup_bytes": sum(setup_bytes),
            "extensions": sum(state.extensions for state in ot_states),
            "offline_bytes": pool_stats["offline_bytes"] if pool_stats else 0,
            "group": self.ot_group_name,
        }
        if breakers:
            snapshot["breakers"] = {
                name: breaker.stats() for name, breaker in breakers.items()
            }
        if self.config.fault_plan is not None:
            snapshot["faults"] = self.config.fault_plan.stats()
        if pool_stats is not None:
            snapshot["pool"] = pool_stats
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
        if name == "two_party":
            options["ot_state"] = self._ot_state
            if self._pool is not None:
                options["pool"] = self._pool
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
                if isinstance(backend, CutAndChooseBackend):
                    _size_heap_for_requests(
                        self.compiled.circuit, backend.copies
                    )
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
        self,
        request: InferenceRequest,
        backend: str,
        result: ProtocolResult,
        degraded: bool,
    ) -> InferenceResult:
        """Turn backend ``backend``'s outcome into a served record
        (locked stats)."""
        record = InferenceResult(
            label=self.compiled.decode_output(result.outputs),
            comm_bytes=result.total_comm_bytes,
            times=result.times,
            n_non_xor=result.n_non_xor,
            backend=backend,
            request_id=request.request_id,
            pregarbled=result.pregarbled,
        )
        with self._lock:
            self._stats["requests"] += 1
            self._stats["degraded"] += degraded
            if record.pregarbled:
                self._stats["pregarbled"] += 1
            by_backend = self._stats["by_backend"]
            by_backend[record.backend] = by_backend.get(record.backend, 0) + 1
        return record

    def _record_error(
        self, exc: BaseException, degraded: bool = False
    ) -> BaseException:
        """Count one failed request (locked); returns ``exc``."""
        with self._lock:
            self._stats["requests"] += 1
            self._stats["errors"] += 1
            self._stats["degraded"] += degraded
            if is_transient(exc):
                self._stats["transient_faults"] += 1
        return exc

    def _note_retry(self, exc: BaseException, attempt: int) -> None:
        """RetryPolicy observer: count a transient fault + retry (locked)."""
        with self._lock:
            self._stats["retries"] += 1
            self._stats["transient_faults"] += 1

    def _serve(self, requests: Sequence[InferenceRequest]) -> List[Outcome]:
        """Turn admitted requests into records or exceptions, in order.

        The one serving path: :meth:`execute` is a group of one and
        :meth:`infer_many` groups its requests by backend name.  A
        malformed sample fails alone and never reaches the backend; each
        group's well-formed requests go through :meth:`_serve_group`.
        Every request is counted once, when its outcome is final.
        """
        outcomes: List[Outcome] = [None] * len(requests)
        groups: Dict[str, Dict[int, List[int]]] = {}
        for index, request in enumerate(requests):
            try:
                bits = self.compiled.client_bits(np.asarray(request.sample))
            except Exception as exc:
                # malformed input is the caller's fault: count the error
                # but never charge it to the backend's breaker
                outcomes[index] = self._record_error(exc)
                continue
            name = request.backend or self.config.backend
            groups.setdefault(name, {})[index] = bits
        for name, group in groups.items():
            self._serve_group(name, requests, group, outcomes)
        return outcomes

    def _serve_group(
        self,
        name: str,
        requests: Sequence[InferenceRequest],
        group: Dict[int, List[int]],
        outcomes: List[Outcome],
    ) -> None:
        """Serve one group (request index -> client bits) on backend
        ``name`` with one breaker decision and one ``run_many`` call.

        While the breaker is open the group serves degraded: the same
        backend (it owns the OT state a base OT was paid for) garbles
        cold, so a poisoned pool can't keep failing requests.  A group
        of one runs under the retry policy; a larger group that fails
        records one breaker failure and splits into groups of one, so
        errors isolate per request and transient faults get retried.
        """
        breaker = self._breaker(name)
        degraded = not breaker.allow()
        backend = self._backend(name)

        def attempt() -> List[ProtocolResult]:
            return backend.run_many(
                self.compiled.circuit, list(group.values()), self._server_bits,
                pooled=not degraded,
            )

        try:
            if len(group) == 1:
                results = self._retry.call(attempt, on_retry=self._note_retry)
            else:
                results = attempt()
        except Exception as exc:
            if not degraded:
                breaker.record_failure()
            if len(group) == 1:
                (index,) = group
                outcomes[index] = self._record_error(exc, degraded)
                return
            if is_transient(exc):
                with self._lock:
                    self._stats["transient_faults"] += 1
            for index, client_bits in group.items():
                self._serve_group(name, requests, {index: client_bits}, outcomes)
            return
        if not degraded:
            breaker.record_success()
        for index, result in zip(group, results):
            outcomes[index] = self._record_result(
                requests[index], name, result, degraded
            )

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
        the shared stats mutation happens under the service lock
        (the protocol execution itself stays outside it).
        """
        self._gate.admit(1)
        try:
            (outcome,) = self._serve([request])
        finally:
            self._gate.release(1)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

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

    def infer_many(
        self,
        requests: Sequence[Union[InferenceRequest, np.ndarray]],
        return_errors: bool = False,
    ) -> List[InferenceResult]:
        """Serve a batch of requests, in the calling thread.

        GC gives no per-sample batching discount (Fig. 6's point), but
        the *engine* work batches: the requests on one backend form one
        group, served by one ``run_many`` call — on the two-party
        backend one ``evaluate_many`` pass over the level schedule (and
        one ``garble_many`` pass for pool misses) instead of ``k``
        protocol runs; other backends run their group one request after
        another.  Both parties of an in-process session run in the
        calling thread, so no request waits on I/O that a thread pool
        could overlap (more cores are ``transport.ShardedService``'s
        job).  Results come back in request order.

        Args:
            requests: samples or typed :class:`InferenceRequest` items.
            return_errors: see below.

        Per-request failures are isolated: every request runs to
        completion regardless of its neighbours (a failed group is
        served again one request at a time).  With
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
            outcomes = self._serve(normalized)
        finally:
            self._gate.release(len(normalized))

        errors = [
            (index, outcome) for index, outcome in enumerate(outcomes)
            if isinstance(outcome, BaseException)
        ]
        if errors and not return_errors:
            for index, _ in errors:
                outcomes[index] = None  # the failure travels in ``errors``
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

    def cleartext_label(self, sample: np.ndarray) -> int:
        """The reference label the server would compute in the clear."""
        return int(self.quantized.predict(np.asarray(sample)[None])[0])

    # -- cost projection -------------------------------------------------------

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
