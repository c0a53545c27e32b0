"""Process-sharded serving front-end over the worker control protocol.

:class:`ShardedService` partitions ``infer_many`` batches across N
worker *processes*, each hosting a full
:class:`repro.service.PrivateInferenceService` of its own — compiled
circuit, pre-garbled pool shard, retry policy, breakers — built by the
same ``service_factory`` in every child; the front-end never builds
one.  It speaks the :mod:`repro.transport.worker` control protocol over
one socketpair per worker, the shard's *link*, held as a control channel
(:func:`~repro.transport.worker.ctl_channel`).

Each shard is one state machine, :class:`_Shard`: ``alive -> suspect ->
restarting -> alive``, or ``failed`` once its restart budget is spent.
One rule covers every shard RPC (``infer``, ``stats``, ``prepare``,
``ping``): if it fails for any reason — a timeout, EOF, a bad frame, an
``ok: false`` reply, a reply the front-end cannot parse — its link is
retired.  The shard goes ``suspect``, the socket is closed, the child
is reaped whether or not it is alive, and the healing loop is kicked to
re-fork it.  A retired link is never read again, so a late reply can
never answer a later request.

The healing loop is one daemon thread per front-end: every
``probe_interval_s``, or at once when a link is retired, it pings each
``alive`` shard and steps each ``suspect`` one through
:meth:`_Shard.heal`, which keeps the shard's own restart schedule —
capped exponential backoff, and ``max_restarts`` consecutive failed
attempts before the shard is terminally ``failed``.

A chunk is routed only to an ``alive`` shard.  A failed chunk reroutes
to another one; when no shard is alive, each of its slots comes back as
a typed error record — degraded, counted, never dropped, never a wrong
label.  The rule is for faults of the link only: a chunk is encoded
before any shard sees it (and split into RPC-sized pieces), so a request
no record can carry fails in its own slot and retires nothing.

The front-end also polices its own intake: a bounded in-flight budget
(``max_inflight``) sheds overload with the typed permanent
:class:`repro.errors.ServiceOverloadedError`, and :meth:`close` drains —
in-flight batches finish, new ones are refused with
:class:`repro.errors.ServiceDrainingError`, and the drained/aborted
request counts land in :meth:`stats`.

``stats()`` rolls the shard services' counters up next to the
front-end's own routing counters, so one snapshot answers "what did the
fleet serve", "how degraded are we" and "what has healing had to fix".
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.process
import socket
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ChannelClosedError, ChannelIntegrityError, EngineError, ProtocolError
from ..resilience.admission import AdmissionGate
from .socket_channel import SocketChannel
from .worker import ctl_channel, encode_ctl, recv_ctl, retain_heap, send_ctl, serve_connection

__all__ = ["ShardedService"]

#: Cap on one shard RPC round trip (seconds): generous for a cold
#: worker garbling its first circuit, finite so a hung worker is retired
#: instead of hanging the batch.
DEFAULT_RPC_TIMEOUT_S = 120.0

#: Seconds a worker gets to answer ``shutdown`` (and a killed one to be
#: joined), and then to exit on its own before it is killed.
SHUTDOWN_TIMEOUT_S = 5.0
EXIT_GRACE_S = 2.0

#: Liveness deadline one heartbeat ``ping`` must answer within.
PROBE_TIMEOUT_S = 10.0

#: Ceiling on the backoff between two restart attempts of one shard.
RESTART_BACKOFF_CAP_S = 5.0

#: What one healing pass counts (``stats()["supervisor"]`` adds
#: ``passes`` and ``errors``).
HEALING_ACTIONS = ("probes", "probe_failures", "restarts", "restart_failures", "gave_up")

_PING = encode_ctl({"op": "ping"})

#: Most requests one ``infer`` RPC carries, so the worker's reply (a few
#: hundred bytes per result) stays well inside the control-record cap.
MAX_RPC_SAMPLES = 512

Link = Tuple[SocketChannel, multiprocessing.process.BaseProcess]


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
    """One worker process, its link, its restart schedule, and the tier's
    one state machine.

    ``state`` walks ``alive -> suspect -> restarting -> alive`` (or
    ``suspect -> failed``), and it and the schedule are written only by
    the methods below, each under :attr:`lock` — which also serializes
    the turn-based control protocol on the link, so an RPC never
    interleaves with another or with a transition.
    """

    def __init__(
        self,
        index: int,
        spawn: Callable[[int], Link],
        on_retire: Callable[[], None],
        max_restarts: int,
        backoff_s: float,
    ) -> None:
        self.index = index
        self._spawn = spawn
        self._on_retire = on_retire
        self.max_restarts = max_restarts
        self.backoff_s = backoff_s
        self.lock = threading.Lock()
        self.ctl, self.process = spawn(index)
        #: set once the first ``infer`` record has gone out on a link
        self.infer_sent = threading.Event()
        self.state = "alive"
        self.requests = 0
        self.failures = 0
        self.restarts = 0
        self.last_error: Optional[str] = None
        #: the restart schedule: consecutive failed attempts, and the
        #: clock time the next one waits for
        self.attempts = 0
        self.next_attempt_at = 0.0

    @property
    def alive(self) -> bool:
        """Whether chunks may be routed here (an unlocked read: RPCs
        check again under the lock)."""
        return self.state == "alive"

    def rpc(
        self,
        payload: bytes,
        timeout: float,
        parse: Optional[Callable[[Dict[str, Any]], Any]] = None,
        wait: bool = True,
        sent: Optional[threading.Event] = None,
    ) -> Any:
        """One round trip on the live link, its reply passed through ``parse``;
        ``sent`` is set once the record is on the link.

        ``payload`` is an already encoded record (:func:`encode_ctl`): a
        record that cannot be encoded is the caller's to fail, and never
        reaches the link.  Returns ``None`` without a round trip when
        ``wait`` is false and another RPC holds the link: a busy shard is
        by definition talking, and a probe or a stats snapshot must never
        queue behind a long batch.

        Raises:
            ChannelClosedError: the shard is not ``alive``.
            Exception: whatever failed the round trip, after the link
                was retired.
        """
        if not self.lock.acquire(blocking=wait):
            return None
        try:
            if self.state != "alive":
                raise ChannelClosedError(f"shard {self.index} is {self.state}")
            return self._exchange(payload, timeout, parse, sent)
        finally:
            self.lock.release()

    def _exchange(
        self,
        payload: bytes,
        timeout: float,
        parse: Optional[Callable[[Dict[str, Any]], Any]] = None,
        sent: Optional[threading.Event] = None,
    ) -> Any:
        """Send, receive, check and parse (lock held); any failure
        retires the link before it propagates."""
        try:
            send_ctl(self.ctl, payload)
            if sent is not None:
                sent.set()
            reply = recv_ctl(self.ctl, timeout=timeout)
            if not reply.get("ok", False):
                raise ProtocolError(
                    f"shard {self.index} rejected {reply.get('op')!r}: "
                    f"{reply.get('error', 'unknown error')}"
                )
            return reply if parse is None else parse(reply)
        except Exception as exc:
            self._retire(exc)
            raise

    def _retire(self, error: BaseException) -> None:
        """Retire the link (lock held): ``suspect``, socket closed,
        child reaped, healing loop kicked."""
        self.state = "suspect"
        self.failures += 1
        self.last_error = f"{type(error).__name__}: {error}"
        self._reap(grace_s=0.0)
        self._on_retire()

    def _reap(self, grace_s: float) -> None:
        """Close the link and join the child, killing it after ``grace_s``."""
        self.ctl.close()
        self.process.join(timeout=grace_s)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=SHUTDOWN_TIMEOUT_S)

    def heal(self, now: float, prepare: int, rpc_timeout_s: float) -> Optional[str]:
        """The one transition out of ``suspect``, once the backoff has passed.

        With the budget spent the shard goes ``failed``, which is terminal
        (``"gave_up"``).  Otherwise it is ``restarting``: a fresh worker on
        a fresh link rewarms ``prepare`` copies and must answer a ping.
        Success makes it ``alive`` and clears the schedule
        (``"restarts"``); a failure leaves it ``suspect``, the new link
        retired, with the backoff re-armed from ``now``
        (``"restart_failures"``).  ``None``: nothing was due.
        """
        with self.lock:
            if self.state != "suspect" or now < self.next_attempt_at:
                return None
            if self.attempts >= self.max_restarts:
                self.state = "failed"
                return "gave_up"
            self.state = "restarting"
            try:
                self.ctl, self.process = self._spawn(self.index)
                if prepare:
                    self._exchange(
                        encode_ctl({"op": "prepare", "count": prepare}),
                        rpc_timeout_s,
                    )
                self._exchange(_PING, PROBE_TIMEOUT_S)
            except Exception as exc:
                if self.state == "restarting":  # the fork itself failed
                    self._retire(exc)
                self.next_attempt_at = now + min(
                    self.backoff_s * 2 ** self.attempts, RESTART_BACKOFF_CAP_S
                )
                self.attempts += 1
                return "restart_failures"
            self.state = "alive"
            self.restarts += 1
            self.last_error = None
            self.attempts, self.next_attempt_at = 0, 0.0
            return "restarts"

    def close(self) -> None:
        """Shut the worker down and reap it (idempotent).

        The shard ends ``suspect`` (``failed`` stays ``failed``): a
        closed front-end serves nothing and restarts nothing.
        """
        with self.lock:
            if self.state == "alive":
                try:
                    self._exchange(
                        encode_ctl({"op": "shutdown"}), SHUTDOWN_TIMEOUT_S
                    )
                except Exception:
                    pass  # the failed round trip retired the link
            self._reap(grace_s=EXIT_GRACE_S)
            if self.state != "failed":
                self.state = "suspect"


class ShardedService:
    """A multi-process, self-healing front-end for batch inference serving.

    Args:
        service_factory: zero-argument callable building one
            :class:`~repro.service.PrivateInferenceService`; invoked once
            per worker process (each worker owns its own pool shard),
            never in the front-end.  Must be fork-safe.
        shards: worker process count (>= 1).
        rpc_timeout_s: cap on one shard RPC round trip.
        max_inflight: bound on concurrently admitted requests across all
            batches (0 = unbounded); excess is shed with the permanent
            :class:`~repro.errors.ServiceOverloadedError`.
        probe_interval_s: idle wait between two healing passes.
        max_restarts: consecutive failed restart attempts before a shard
            is declared terminally ``failed``.
        restart_backoff_s: first backoff between restart attempts; it
            doubles per failed attempt, up to :data:`RESTART_BACKOFF_CAP_S`.

    Workers start with cold pools: :meth:`prepare` warms them, and
    restarted workers rewarm the count it last asked for.
    """

    def __init__(
        self,
        service_factory: Callable[[], Any],
        shards: int = 2,
        rpc_timeout_s: float = DEFAULT_RPC_TIMEOUT_S,
        max_inflight: int = 0,
        probe_interval_s: float = 1.0,
        max_restarts: int = 3,
        restart_backoff_s: float = 0.25,
    ) -> None:
        if shards < 1:
            raise EngineError("ShardedService needs shards >= 1")
        if max_inflight < 0:
            raise EngineError("max_inflight must be >= 0 (0 = unbounded)")
        if max_restarts < 0:
            raise EngineError("max_restarts must be >= 0")
        if restart_backoff_s < 0:
            raise EngineError("restart_backoff_s must be >= 0")
        self._factory = service_factory
        self._rpc_timeout_s = rpc_timeout_s
        self._prepare_count = 0
        self._gate = AdmissionGate(max_inflight)
        self._lock = threading.Lock()
        self._stats: Dict[str, int] = {
            "requests": 0,
            "degraded_requests": 0,
            "reroutes": 0,
        }
        #: the healing loop's counters and schedule, ``stats()["supervisor"]``
        self._healing: Dict[str, int] = dict.fromkeys(
            ("passes",) + HEALING_ACTIONS + ("errors",), 0
        )
        self._schedule = {
            "probe_interval_s": probe_interval_s,
            "max_restarts": max_restarts,
            "backoff_s": restart_backoff_s,
            "backoff_cap_s": RESTART_BACKOFF_CAP_S,
        }
        self._wake = threading.Condition()
        self._kicked = False
        self._stopped = False
        self._context = multiprocessing.get_context("fork")
        self._shards: List[_Shard] = [
            _Shard(index, self._spawn_worker, self._kick, max_restarts, restart_backoff_s)
            for index in range(shards)
        ]
        #: the one thing that brings a retired shard back
        self._healer = threading.Thread(
            target=self._heal_forever, name="repro-shard-healer", daemon=True
        )
        self._healer.start()

    # -- shard plumbing ----------------------------------------------------

    def _spawn_worker(self, index: int) -> Link:
        """Fork one worker process on a fresh socketpair; our end is its link."""
        parent_sock, child_sock = socket.socketpair()
        process = self._context.Process(
            target=_shard_main,
            args=(child_sock, self._factory),
            daemon=True,
            name=f"repro-shard-{index}",
        )
        process.start()
        child_sock.close()
        return ctl_channel(parent_sock), process

    def live_shards(self) -> List[int]:
        """Indices of shards in the serving state."""
        return [s.index for s in self._shards if s.alive]

    def shard_states(self) -> List[str]:
        """Per-shard supervision states, in shard order."""
        return [s.state for s in self._shards]

    def wait_infer_sent(self, index: int, timeout: Optional[float] = None) -> bool:
        """Block until shard ``index`` has been sent its first ``infer``
        record, or ``timeout`` passes (``False``) — the protocol point a
        chaos drill keys a mid-batch fault to."""
        return self._shards[index].infer_sent.wait(timeout)

    # -- healing -----------------------------------------------------------

    def _kick(self) -> None:
        """A link was retired: run a healing pass now."""
        with self._wake:
            self._kicked = True
            self._wake.notify_all()

    def _heal_forever(self) -> None:
        """The healing loop: a pass every ``probe_interval_s``, or when kicked."""
        while True:
            with self._wake:
                if not self._kicked and not self._stopped:
                    self._wake.wait(timeout=self._schedule["probe_interval_s"])
                if self._stopped:
                    return
                self._kicked = False
            try:
                self.check_once()
            except Exception:
                # the healer must never die of its own bug; the counter
                # surfaces in stats() for the operator to notice
                with self._lock:
                    self._healing["errors"] += 1

    def _stop_healing(self) -> None:
        """Stop the healing loop and join its thread (idempotent)."""
        with self._wake:
            self._stopped = True
            self._wake.notify_all()
        if self._healer.is_alive():
            self._healer.join(timeout=10.0)

    def check_once(self, now: Optional[float] = None) -> Dict[str, int]:
        """Run one healing pass; returns its action counts.

        Pings every ``alive`` shard, without queueing behind an RPC in
        flight, and steps every other one through :meth:`_Shard.heal` at
        ``now`` (default: the monotonic clock).  No shard is restarted
        once :meth:`close` has begun draining.  The loop thread calls
        this; a test may call it directly, on its own clock.
        """
        now = time.monotonic() if now is None else now
        draining = self._gate.stats()["draining"]
        actions = dict.fromkeys(HEALING_ACTIONS, 0)
        for shard in self._shards:
            if shard.alive:
                actions["probes"] += 1
                try:
                    shard.rpc(_PING, PROBE_TIMEOUT_S, wait=False)
                except Exception:
                    actions["probe_failures"] += 1
            elif not draining:
                outcome = shard.heal(now, self._prepare_count, self._rpc_timeout_s)
                if outcome is not None:
                    actions[outcome] += 1
        with self._lock:
            self._healing["passes"] += 1
            for key, value in actions.items():
                self._healing[key] += value
        return actions

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
        GIL coupling, one serving thread each).  Results come back in
        request order as :class:`repro.service.InferenceResult` records;
        a chunk whose shard fails reroutes to another ``alive`` shard,
        and fails slot by slot with a typed error when none is left.

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
        from ..service import InferenceResult

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

        def serve_chunk(home: _Shard, start: int, stop: int) -> None:
            slots: List[int] = []
            vectors: List[List[float]] = []
            for i in range(start, stop):
                try:
                    vectors.append(_flatten(samples[i]))
                except (TypeError, ValueError) as exc:
                    outcomes[i] = InferenceResult.failed(
                        EngineError(f"sample is not a feature vector: {exc}"),
                        request_id=ids[i],
                    )
                else:
                    slots.append(i)
            for piece, payload in _infer_payloads(slots, vectors, ids):
                if isinstance(payload, Exception):
                    (i,) = piece  # a request no record can carry: its own slot
                    outcomes[i] = InferenceResult.failed(payload, request_id=ids[i])
                else:
                    serve_piece(home, piece, payload)

        def serve_piece(home: _Shard, slots: List[int], payload: bytes) -> None:
            error: BaseException = ChannelClosedError("no shard is alive")
            served_by: Optional[_Shard] = None
            k = len(self._shards)
            for step in range(k):  # home first, then every other shard once
                shard = self._shards[(home.index + step) % k]
                if not shard.alive:
                    continue
                try:
                    results = shard.rpc(
                        payload, self._rpc_timeout_s,
                        lambda reply: parse_results(reply, len(slots)),
                        sent=shard.infer_sent,
                    )
                except Exception as exc:
                    error = exc  # the link is retired; try the next shard
                    continue
                served_by = shard
                for i, result in zip(slots, results):
                    outcomes[i] = result
                break
            else:
                for i in slots:
                    outcomes[i] = InferenceResult.failed(error, request_id=ids[i])
            with self._lock:
                if served_by is not None:
                    served_by.requests += len(slots)
                if served_by is not home:
                    self._stats["degraded_requests"] += len(slots)
                    self._stats["reroutes"] += 1

        threads = [
            threading.Thread(
                target=serve_chunk,
                args=(self._shards[shard_index], start, stop),
                name=f"repro-front-{shard_index}",
            )
            for shard_index, (start, stop) in self._partition(n)
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
        per_shard: List[Dict[str, Any]] = []
        for shard in self._shards:
            service = None
            if shard.alive:
                try:
                    service = shard.rpc(
                        encode_ctl({"op": "stats"}), self._rpc_timeout_s,
                        lambda reply: dict(reply["stats"]), wait=False,
                    )
                except Exception:
                    pass  # the link is retired: the entry below says so
            entry: Dict[str, Any] = {
                "index": shard.index,
                "pid": shard.process.pid,
                "alive": shard.alive,
                "state": shard.state,
                "requests": shard.requests,
                "failures": shard.failures,
                "restarts": shard.restarts,
                "last_shard_error": shard.last_error,
            }
            if service is not None:
                entry["service"] = service
            per_shard.append(entry)
        snapshot["per_shard"] = per_shard
        snapshot["live_shards"] = len(self.live_shards())
        snapshot["restarts"] = sum(entry["restarts"] for entry in per_shard)
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
        with self._lock:
            snapshot["supervisor"] = {**self._healing, **self._schedule}
        return snapshot

    def prepare(self, count: int) -> int:
        """Warm every live worker's pre-garbled pool (offline phase).

        Returns the total copies garbled across shards.  The count is
        remembered: restarted workers rewarm the same amount before
        rejoining the rotation.
        """
        self._prepare_count = int(count)
        payload = encode_ctl({"op": "prepare", "count": self._prepare_count})
        total = 0
        for shard in self._shards:
            if not shard.alive:
                continue
            try:
                total += shard.rpc(
                    payload, self._rpc_timeout_s,
                    lambda reply: int(reply.get("warmed", 0)),
                )
            except Exception:
                continue  # retired: a restart rewarms it
        return total

    def close(self, drain_timeout_s: float = 30.0) -> None:
        """Drain in-flight batches, then shut every worker down (idempotent).

        New batches are refused the moment draining begins
        (:class:`~repro.errors.ServiceDrainingError`); batches already
        admitted get up to ``drain_timeout_s`` to finish.  Requests
        still in flight when the grace expires are counted as
        ``aborted_requests``; everything that finished during the wait
        lands in ``drained_requests`` — nothing is dropped silently,
        nothing served twice.
        """
        if not self._gate.drain(drain_timeout_s):
            return
        self._stop_healing()
        for shard in self._shards:
            shard.close()


def _infer_payloads(
    slots: List[int], vectors: List[List[float]], ids: List[Optional[str]]
) -> List[Tuple[List[int], Any]]:
    """One chunk's encoded ``infer`` records, ``[(slots, payload), ...]``.

    A chunk over :data:`MAX_RPC_SAMPLES` or the control-record cap is
    halved until each piece fits.  A single request no record can carry
    (a request id JSON cannot encode, a sample over the cap) gets a
    permanent :class:`EngineError` for its payload: it fails in its own
    slot and nothing is sent, so it never retires a shard's link.
    """
    if not slots:
        return []
    if len(slots) <= MAX_RPC_SAMPLES:
        record = {"op": "infer", "samples": vectors, "request_ids": [ids[i] for i in slots]}
        try:
            return [(slots, encode_ctl(record))]
        except (TypeError, ValueError, ChannelIntegrityError) as exc:
            if len(slots) == 1:
                return [(slots, EngineError(f"request cannot be sent to a shard: {exc}"))]
    half = len(slots) // 2
    head = _infer_payloads(slots[:half], vectors[:half], ids)
    return head + _infer_payloads(slots[half:], vectors[half:], ids)


def _flatten(sample: Any) -> List[float]:
    """A feature vector as a flat float list (JSON-safe shard payload)."""
    return [float(v) for v in np.asarray(sample, dtype=float).ravel()]
