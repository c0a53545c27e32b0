"""Process-sharded serving front-end over the worker control protocol.

:class:`ShardedService` partitions ``infer_many`` batches across N
worker *processes*, each hosting a full
:class:`repro.service.PrivateInferenceService` of its own — compiled
circuit, pre-garbled pool shard, retry policy, breakers — built by the
same ``service_factory`` in every child.  The front-end speaks the
:mod:`repro.transport.worker` control protocol over one socketpair per
worker.

Failure semantics compose with the PR 8 resilience tier, and since this
PR they *heal*:

- every shard RPC failure (worker crash, EOF, malformed reply) feeds a
  per-shard :class:`repro.resilience.CircuitBreaker`;
- the failed chunk immediately reroutes to a lazily built *in-process*
  fallback service (same factory), so the batch still completes —
  degraded, counted, never dropped;
- a shard whose worker process died is *reaped* (socket closed, child
  joined) and handed to the :class:`~repro.transport.supervisor.ShardSupervisor`,
  which re-forks it with capped exponential backoff and a restart
  budget, rewarms its pool shard, and closes the breaker only after a
  successful liveness probe.  Each shard walks the state machine
  ``alive -> suspect -> restarting -> alive`` (or ``failed`` once the
  restart budget is spent) — degradation is transient, not terminal.

The front-end also polices its own intake: a bounded in-flight budget
(``max_inflight``) sheds overload with the typed permanent
:class:`repro.errors.ServiceOverloadedError`, and :meth:`close` drains —
in-flight batches finish, new ones are refused with
:class:`repro.errors.ServiceDrainingError`, and the drained/aborted
request counts land in :meth:`stats`.

``stats()`` rolls the shard services' counters up next to the
front-end's own routing counters, so one snapshot answers "what did the
fleet serve", "how degraded are we" and "what has the supervisor had to
fix".
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.context
import multiprocessing.process
import socket
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import EngineError, ProtocolError
from ..resilience.admission import AdmissionGate
from ..resilience.breaker import CircuitBreaker
from .supervisor import ShardSupervisor
from .worker import recv_ctl, retain_heap, send_ctl, serve_connection

__all__ = ["ShardedService"]

#: Cap on one shard RPC round trip (seconds): generous for a cold
#: worker garbling its first circuit, finite so a hung worker degrades
#: instead of hanging the batch.
DEFAULT_RPC_TIMEOUT_S = 120.0

#: Shard lifecycle states (the supervision state machine).
SHARD_STATES = ("alive", "suspect", "restarting", "failed")


def _shard_main(
    conn: socket.socket, service_factory: Callable[[], Any]
) -> None:  # pragma: no cover - runs in the forked child
    """Worker-process entry: build the shard's service, serve its socket."""
    service = None
    try:
        retain_heap()  # this process only serves batches: see the docstring
        service = service_factory()
        serve_connection(conn, service)
    finally:
        if service is not None:
            try:
                service.close()
            except Exception:
                pass
        try:
            conn.close()
        except OSError:
            pass


class _Shard:
    """One worker process plus the front-end's view of it."""

    def __init__(
        self,
        index: int,
        sock: socket.socket,
        process: multiprocessing.process.BaseProcess,
        breaker: CircuitBreaker,
    ) -> None:
        self.index = index
        self.sock = sock
        self.process = process
        self.breaker = breaker
        self.requests = 0
        self.failures = 0
        #: serializes RPCs on this shard's socket (the control protocol
        #: is turn-based; concurrent batches must not interleave frames)
        self.lock = threading.Lock()
        #: supervision state machine: alive -> suspect -> restarting ->
        #: alive, or failed once the restart budget is spent
        self.state = "alive"
        self.restarts = 0
        self.restart_attempts = 0
        self.next_restart_at = 0.0
        self.last_error: Optional[str] = None

    @property
    def alive(self) -> bool:
        """Whether this shard is in the serving state with a live child."""
        return self.state == "alive" and self.process.is_alive()

    def _roundtrip(
        self, record: Dict[str, Any], timeout: float
    ) -> Dict[str, Any]:
        """One control round trip (caller holds :attr:`lock`)."""
        send_ctl(self.sock, record)
        reply = recv_ctl(self.sock, timeout=timeout)
        if not reply.get("ok", False):
            raise ProtocolError(
                f"shard {self.index} rejected {record.get('op')!r}: "
                f"{reply.get('error', 'unknown error')}"
            )
        return reply

    def call(
        self, record: Dict[str, Any], timeout: float
    ) -> Dict[str, Any]:
        """One control round trip; typed errors on a dead/hung worker."""
        with self.lock:
            return self._roundtrip(record, timeout)

    def try_call(
        self, record: Dict[str, Any], timeout: float
    ) -> Optional[Dict[str, Any]]:
        """Like :meth:`call`, but returns ``None`` when the shard is busy.

        The supervisor's probe path: a shard mid-RPC holds the lock, and
        a busy shard is by definition talking — skipping the probe beats
        queueing behind a long batch.
        """
        if not self.lock.acquire(blocking=False):
            return None
        try:
            return self._roundtrip(record, timeout)
        finally:
            self.lock.release()


class ShardedService:
    """A multi-process, self-healing front-end for batch inference serving.

    Args:
        service_factory: zero-argument callable building one
            :class:`~repro.service.PrivateInferenceService`; invoked once
            per worker process (each worker owns its own pool shard) and
            at most once in-process for the degraded fallback.  Must be
            importable/fork-safe.
        shards: worker process count (>= 1).
        prepare: pre-garbled copies each worker warms before serving
            (0 skips the offline phase); restarted workers rewarm the
            same count before rejoining.
        breaker_threshold / breaker_cooldown_s: per-shard breaker knobs.
        rpc_timeout_s: cap on one shard RPC round trip.
        max_inflight: bound on concurrently admitted requests across all
            batches (0 = unbounded); excess is shed with the permanent
            :class:`~repro.errors.ServiceOverloadedError`.
        supervise: run a :class:`~repro.transport.supervisor.ShardSupervisor`
            thread that probes and re-forks workers.
        probe_interval_s / probe_timeout_s: heartbeat cadence and the
            liveness deadline one ping must answer within.
        max_restarts: consecutive failed restart attempts before a shard
            is declared terminally ``failed``.
        restart_backoff_s / restart_backoff_cap_s: capped exponential
            backoff between restart attempts.
        drain_timeout_s: default grace :meth:`close` waits for in-flight
            batches before abandoning them.
    """

    def __init__(
        self,
        service_factory: Callable[[], Any],
        shards: int = 2,
        prepare: int = 0,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 30.0,
        rpc_timeout_s: float = DEFAULT_RPC_TIMEOUT_S,
        max_inflight: int = 0,
        supervise: bool = True,
        probe_interval_s: float = 1.0,
        probe_timeout_s: float = 10.0,
        max_restarts: int = 3,
        restart_backoff_s: float = 0.25,
        restart_backoff_cap_s: float = 5.0,
        drain_timeout_s: float = 30.0,
    ) -> None:
        if shards < 1:
            raise EngineError("ShardedService needs shards >= 1")
        if max_inflight < 0:
            raise EngineError("max_inflight must be >= 0 (0 = unbounded)")
        if max_restarts < 0:
            raise EngineError("max_restarts must be >= 0")
        if min(restart_backoff_s, restart_backoff_cap_s, drain_timeout_s) < 0:
            raise EngineError("backoff and drain timeouts must be >= 0")
        self._factory = service_factory
        self._rpc_timeout_s = rpc_timeout_s
        self._probe_timeout_s = probe_timeout_s
        self._prepare_count = int(prepare)
        self._gate = AdmissionGate(max_inflight)
        self._drain_timeout_s = float(drain_timeout_s)
        self._lock = threading.Lock()
        self._fallback: Optional[Any] = None
        self._stats: Dict[str, int] = {
            "requests": 0,
            "degraded_requests": 0,
            "reroutes": 0,
            "restarts": 0,
        }
        self._context = multiprocessing.get_context("fork")
        self._shards: List[_Shard] = []
        for index in range(shards):
            sock, process = self._spawn_worker(index)
            self._shards.append(
                _Shard(
                    index,
                    sock,
                    process,
                    CircuitBreaker(
                        threshold=breaker_threshold,
                        cooldown_s=breaker_cooldown_s,
                    ),
                )
            )
        if prepare:
            # fail fast if a worker never came up, and warm every pool
            # shard before the first batch (the sharded offline phase)
            self.prepare(prepare)
        self._supervisor: Optional[ShardSupervisor] = None
        if supervise:
            self._supervisor = ShardSupervisor(
                self,
                probe_interval_s=probe_interval_s,
                max_restarts=max_restarts,
                backoff_s=restart_backoff_s,
                backoff_cap_s=restart_backoff_cap_s,
            )
            self._supervisor.start()

    # -- shard plumbing ----------------------------------------------------

    def _spawn_worker(
        self, index: int
    ) -> Tuple[socket.socket, multiprocessing.process.BaseProcess]:
        """Fork one worker process on a fresh socketpair."""
        parent_sock, child_sock = socket.socketpair()
        process = self._context.Process(
            target=_shard_main,
            args=(child_sock, self._factory),
            daemon=True,
            name=f"repro-shard-{index}",
        )
        process.start()
        child_sock.close()
        return parent_sock, process

    def _reap(self, shard: _Shard) -> None:
        """Close a dead/doomed worker's socket and join the child process.

        The satellite fix for the old leak: a crashed worker used to be
        marked dead but its zombie child and socket fd lived on for the
        front-end's lifetime.
        """
        try:
            shard.sock.close()
        except OSError:
            pass
        shard.process.join(timeout=2.0)
        if shard.process.is_alive():
            shard.process.terminate()
            shard.process.join(timeout=2.0)

    def _mark_suspect(self, shard: _Shard, error: BaseException) -> None:
        """Transition a shard to ``suspect`` and reap its dead worker."""
        with shard.lock:
            if shard.state != "alive":
                return
            shard.state = "suspect"
            shard.last_error = f"{type(error).__name__}: {error}"
            shard.next_restart_at = 0.0
        shard.breaker.trip()
        self._reap(shard)
        supervisor = self._supervisor
        if supervisor is not None:
            supervisor.kick()

    def live_shards(self) -> List[int]:
        """Indices of shards in the serving state with a live worker."""
        return [s.index for s in self._shards if s.alive]

    def shard_states(self) -> List[str]:
        """Per-shard supervision states, in shard order."""
        return [s.state for s in self._shards]

    def _shard_rpc(
        self,
        shard: _Shard,
        record: Dict[str, Any],
        parse: Callable[[Dict[str, Any]], Any] = lambda reply: reply,
    ) -> Any:
        """One breaker-audited RPC; a dead worker goes suspect and is reaped.

        ``parse`` turns the reply into what the caller needs; a reply it
        rejects fails the RPC like a dead link does.
        """
        try:
            reply = parse(shard.call(record, timeout=self._rpc_timeout_s))
        except Exception as exc:
            shard.breaker.record_failure()
            with self._lock:
                shard.failures += 1
            shard.last_error = f"{type(exc).__name__}: {exc}"
            if not shard.process.is_alive():
                self._mark_suspect(shard, exc)
            raise
        shard.breaker.record_success()
        return reply

    def probe_shard(self, index: int) -> bool:
        """Heartbeat one shard: ping with the liveness deadline.

        Returns ``False`` when the probe proves the worker gone or
        unresponsive (the shard goes ``suspect`` and is reaped); a busy
        shard — RPC in flight — counts as healthy without probing.
        """
        shard = self._shards[index]
        if shard.state != "alive":
            return False
        if not shard.process.is_alive():
            self._mark_suspect(
                shard, ProtocolError(f"shard {index} worker process died")
            )
            return False
        try:
            reply = shard.try_call({"op": "ping"}, timeout=self._probe_timeout_s)
        except Exception as exc:
            shard.breaker.record_failure()
            with self._lock:
                shard.failures += 1
            self._mark_suspect(shard, exc)
            return False
        if reply is not None:
            shard.breaker.record_success()
        return True

    def restart_shard(self, index: int) -> bool:
        """Re-fork one suspect shard's worker and bring it back to life.

        The recovery sequence: reap whatever is left of the old child,
        fork a fresh worker on a fresh socketpair, rewarm its pool shard
        (the constructor's ``prepare`` count), then require a successful
        liveness probe — only then does the breaker close and the state
        return to ``alive``.  Returns ``False`` (state stays
        ``suspect``) when any step fails; the supervisor retries with
        backoff until the restart budget runs out.
        """
        shard = self._shards[index]
        if self._gate.stats()["draining"]:
            return False
        with shard.lock:
            if shard.state not in ("suspect", "restarting"):
                return False
            shard.state = "restarting"
        shard.breaker.trip()  # no chunks route here while we re-fork
        self._reap(shard)
        sock, process = self._spawn_worker(index)
        with shard.lock:
            shard.sock = sock
            shard.process = process
        try:
            if self._prepare_count:
                shard.call(
                    {"op": "prepare", "count": self._prepare_count},
                    timeout=self._rpc_timeout_s,
                )
            shard.call({"op": "ping"}, timeout=self._probe_timeout_s)
        except Exception as exc:
            with shard.lock:
                shard.state = "suspect"
                shard.last_error = f"{type(exc).__name__}: {exc}"
            self._reap(shard)
            return False
        shard.breaker.record_success()
        with self._lock:
            shard.restarts += 1
            self._stats["restarts"] += 1
        with shard.lock:
            shard.state = "alive"
            shard.last_error = None
        return True

    def _fallback_service(self) -> Any:
        """The lazily built in-process service for degraded chunks."""
        with self._lock:
            if self._fallback is None:
                self._fallback = self._factory()
        return self._fallback

    # -- serving -----------------------------------------------------------

    def infer_many(
        self,
        samples: Sequence[Any],
        request_ids: Optional[Sequence[Optional[str]]] = None,
    ) -> List[Any]:
        """Serve a batch, partitioned across the worker shards.

        Samples are split into one contiguous chunk per shard; each
        chunk's RPC runs on its own front-end thread — the one place a
        thread waits on *another process* — so shards execute their
        garbled protocols genuinely in parallel (separate processes, no
        GIL coupling, one serving thread each).  Results come back in request
        order as :class:`repro.service.InferenceResult` records; failed
        shards degrade per chunk to the in-process fallback.

        Args:
            samples: feature vectors (anything ``np.asarray`` takes).
            request_ids: optional per-request tags, echoed on results.

        Raises:
            ServiceOverloadedError: the in-flight budget is full — the
                batch is shed whole (permanent: never retried).
            ServiceDrainingError: :meth:`close` has begun; no new work.
        """
        n = len(samples)
        if n == 0:
            return []
        ids: List[Optional[str]] = (
            list(request_ids) if request_ids is not None else [None] * n
        )
        if len(ids) != n:
            raise EngineError(
                f"request_ids length {len(ids)} != samples length {n}"
            )
        self._gate.admit(n)  # the batch admits whole or is shed whole
        try:
            with self._lock:
                self._stats["requests"] += n
            return self._infer_admitted(samples, ids, n)
        finally:
            self._gate.release(n)

    def _infer_admitted(
        self, samples: Sequence[Any], ids: List[Optional[str]], n: int
    ) -> List[Any]:
        """The batch body, after admission control accepted ``n`` requests."""
        from ..service import InferenceRequest, InferenceResult

        # contiguous chunking keeps result reassembly trivial and gives
        # every shard ~n/k requests; a dead shard's chunk reroutes whole
        chunks = self._partition(n)
        outcomes: List[Optional[Any]] = [None] * n

        def parse_results(reply: Dict[str, Any], size: int) -> List[Any]:
            """One record per request of the chunk, or a ProtocolError."""
            fields = reply.get("results")
            count = len(fields) if isinstance(fields, list) else None
            if count != size:
                raise ProtocolError(
                    f"shard replied with {count} results for a chunk of {size}"
                )
            try:
                return [InferenceResult(**record) for record in fields]
            except Exception as exc:
                raise ProtocolError(f"unparseable shard result: {exc}") from exc

        def serve_chunk(shard: _Shard, start: int, stop: int) -> None:
            try:
                record: Optional[Dict[str, Any]] = {
                    "op": "infer",
                    "samples": [_flatten(samples[i]) for i in range(start, stop)],
                    "request_ids": ids[start:stop],
                }
            except (TypeError, ValueError):
                # not a feature vector: the fallback fails it per request
                record = None
            if record is not None and shard.state == "alive" and shard.breaker.allow():
                try:
                    results = self._shard_rpc(
                        shard, record,
                        lambda reply: parse_results(reply, stop - start),
                    )
                except Exception:
                    pass  # the chunk reroutes below, like a dead shard's
                else:
                    with self._lock:
                        shard.requests += stop - start
                    outcomes[start:stop] = results
                    return
            with self._lock:
                self._stats["degraded_requests"] += stop - start
                self._stats["reroutes"] += 1
            try:
                requests = [
                    InferenceRequest(
                        sample=np.asarray(samples[i]), request_id=ids[i]
                    )
                    for i in range(start, stop)
                ]
                service = self._fallback_service()
                results = service.infer_many(requests, return_errors=True)
            except Exception as exc:
                # even a broken fallback must not drop requests: every
                # slot comes back as a typed error record
                results = [
                    InferenceResult.failed(exc, request_id=ids[i])
                    for i in range(start, stop)
                ]
            outcomes[start:stop] = results

        threads = [
            threading.Thread(
                target=serve_chunk,
                args=(self._shards[shard_index], start, stop),
                name=f"repro-front-{shard_index}",
            )
            for shard_index, (start, stop) in chunks
            if stop > start
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # every chunk fills all of its slots, served or failed
        return outcomes

    def _partition(self, n: int) -> List[Any]:
        """``[(shard_index, (start, stop)), ...]`` contiguous chunks."""
        k = len(self._shards)
        base, extra = divmod(n, k)
        chunks = []
        start = 0
        for index in range(k):
            stop = start + base + (1 if index < extra else 0)
            chunks.append((index, (start, stop)))
            start = stop
        return chunks

    # -- introspection / lifecycle ----------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Front-end routing counters plus per-shard service rollups."""
        with self._lock:
            snapshot: Dict[str, Any] = dict(self._stats)
        snapshot.update(self._gate.stats())
        snapshot["shards"] = len(self._shards)
        snapshot["live_shards"] = len(self.live_shards())
        per_shard: List[Dict[str, Any]] = []
        for shard in self._shards:
            entry: Dict[str, Any] = {
                "index": shard.index,
                "alive": shard.alive,
                "state": shard.state,
                "requests": shard.requests,
                "failures": shard.failures,
                "restarts": shard.restarts,
                "last_shard_error": shard.last_error,
                "breaker": shard.breaker.stats(),
            }
            # the state, not allow(): a snapshot never claims the probe
            if entry["alive"] and shard.breaker.state != "open":
                # non-blocking: a shard mid-batch holds its RPC lock, and
                # a stats snapshot must never queue behind a long batch
                try:
                    reply = shard.try_call(
                        {"op": "stats"}, timeout=self._rpc_timeout_s
                    )
                except Exception:
                    entry["alive"] = False
                else:
                    if reply is not None:
                        entry["service"] = reply["stats"]
            per_shard.append(entry)
        snapshot["per_shard"] = per_shard
        # every shard process pays its own base OT: session-level totals
        # over the shards that answered, never part of a request's comm
        shard_ot = [
            entry["service"].get("ot", {})
            for entry in per_shard if "service" in entry
        ]
        snapshot["ot"] = {
            key: sum(ot.get(key, 0) for ot in shard_ot)
            for key in ("base_batches", "setup_bytes", "extensions", "offline_bytes")
        }
        if shard_ot:  # forks of one configuration: the first speaks for all
            snapshot["ot"]["group"] = shard_ot[0].get("group")
        supervisor = self._supervisor
        if supervisor is not None:
            snapshot["supervisor"] = supervisor.stats()
        with self._lock:
            fallback = self._fallback
        if fallback is not None:
            # fallback.stats takes the service's own lock; call outside ours
            snapshot["fallback"] = fallback.stats
        return snapshot

    def prepare(self, count: int) -> int:
        """Warm every live worker's pre-garbled pool (offline phase).

        Returns the total copies garbled across shards.  The count is
        remembered: restarted workers rewarm the same amount before
        rejoining the rotation.
        """
        self._prepare_count = int(count)
        total = 0
        for shard in self._shards:
            if shard.state != "alive":
                continue
            try:
                reply = self._shard_rpc(
                    shard, {"op": "prepare", "count": count}
                )
            except Exception:
                continue
            total += int(reply.get("warmed", 0))
        return total

    def close(self, drain_timeout_s: Optional[float] = None) -> None:
        """Drain in-flight batches, then shut every worker down (idempotent).

        New batches are refused the moment draining begins
        (:class:`~repro.errors.ServiceDrainingError`); batches already
        admitted get up to ``drain_timeout_s`` (default: the
        constructor's) to finish.  Requests still in flight when the
        grace expires are counted as ``aborted_requests``; everything
        that finished during the wait lands in ``drained_requests`` —
        nothing is dropped silently, nothing served twice.
        """
        grace = (
            self._drain_timeout_s if drain_timeout_s is None else drain_timeout_s
        )
        if not self._gate.drain(grace):
            return
        supervisor = self._supervisor
        if supervisor is not None:
            supervisor.close()
        for shard in self._shards:
            if shard.alive:
                try:
                    shard.call({"op": "shutdown"}, timeout=5.0)
                except Exception:
                    pass
            self._reap(shard)
            with shard.lock:
                if shard.state != "failed":
                    shard.state = "suspect"
        with self._lock:
            fallback = self._fallback
        if fallback is not None:
            fallback.close()


def _flatten(sample: Any) -> List[float]:
    """A feature vector as a flat float list (JSON-safe shard payload)."""
    return [float(v) for v in np.asarray(sample, dtype=float).ravel()]
