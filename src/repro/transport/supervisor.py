""":class:`ShardSupervisor` — the healing loop behind ``ShardedService``.

A daemon thread that schedules the shard fleet's probes and restarts;
the shard state machine itself is
:class:`repro.transport.sharded._Shard`, which alone writes a shard's
state:

- **probe**: every ``probe_interval_s`` it heartbeats each ``alive``
  shard over the ctl protocol (``ping`` with a liveness deadline, via
  :meth:`ShardedService.probe_shard <repro.transport.sharded.ShardedService.probe_shard>`);
  a failed ping retires the shard's link, like any failed shard RPC.
- **restart**: ``suspect`` shards are re-forked
  (:meth:`~repro.transport.sharded.ShardedService.restart_shard`) with
  capped exponential backoff — ``min(backoff_s * 2**(attempt-1),
  backoff_cap_s)`` between attempts, the pool idiom from
  ``engine/pool.py`` — under a restart *budget*: after ``max_restarts``
  consecutive failed attempts the shard is declared terminally
  ``failed`` and its chunks reroute to the ``alive`` shards for good.
  A successful restart resets the attempt counter, so a shard that
  crashes again later gets a fresh budget.
- **kick**: a retired link wakes the loop immediately (:meth:`kick`),
  so recovery latency is the fork+rewarm time, not the probe interval.

Deterministic in tests: the clock is injectable and :meth:`check_once`
runs one synchronous supervision pass without the thread.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Callable, Dict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .sharded import ShardedService

__all__ = ["ShardSupervisor"]


class ShardSupervisor:
    """Health-probes and re-forks a :class:`ShardedService`'s workers.

    Args:
        service: the front-end whose shards to supervise.
        probe_interval_s: idle wait between supervision passes.
        max_restarts: consecutive failed restart attempts before a
            shard is declared terminally ``failed``.
        backoff_s / backoff_cap_s: capped exponential backoff between
            restart attempts on one shard.
        clock: monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        service: "ShardedService",
        probe_interval_s: float = 1.0,
        max_restarts: int = 3,
        backoff_s: float = 0.25,
        backoff_cap_s: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._service = service
        self.probe_interval_s = float(probe_interval_s)
        self.max_restarts = int(max_restarts)
        self.backoff_s = float(backoff_s)
        self.backoff_cap_s = float(backoff_cap_s)
        self._clock = clock
        #: the restart schedule, per shard index: consecutive failed
        #: attempts, and the clock time the next one waits for
        self.restart_attempts: Dict[int, int] = {}
        self.next_restart_at: Dict[int, float] = {}
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._stopped = False
        self._kicked = False
        self._counters: Dict[str, int] = {
            "passes": 0,
            "probes": 0,
            "probe_failures": 0,
            "restarts": 0,
            "restart_failures": 0,
            "gave_up": 0,
            "errors": 0,
        }
        self._thread: threading.Thread = threading.Thread(
            target=self._run, name="repro-shard-supervisor", daemon=True
        )

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start the supervision thread (idempotent-unsafe: call once)."""
        self._thread.start()

    def kick(self) -> None:
        """Wake the loop now — a shard just went suspect."""
        with self._cond:
            self._kicked = True
            self._cond.notify_all()

    def close(self) -> None:
        """Stop the loop and join the thread (idempotent)."""
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        if self._thread.is_alive():
            self._thread.join(timeout=10.0)

    def _run(self) -> None:
        while True:
            with self._cond:
                if not self._kicked and not self._stopped:
                    self._cond.wait(timeout=self.probe_interval_s)
                if self._stopped:
                    return
                self._kicked = False
            try:
                self.check_once()
            except Exception:
                # the healer must never die of its own bug; the counter
                # surfaces in stats() for the operator to notice
                with self._lock:
                    self._counters["errors"] += 1

    # -- one supervision pass ---------------------------------------------

    def check_once(self) -> Dict[str, int]:
        """Run one synchronous supervision pass; returns its action counts.

        Probes every ``alive`` shard, attempts backoff-gated restarts of
        every ``suspect`` shard, and retires shards whose restart budget
        is spent.  The thread loop calls this; deterministic tests call
        it directly.
        """
        actions = {"probes": 0, "probe_failures": 0, "restarts": 0,
                   "restart_failures": 0, "gave_up": 0}
        service = self._service
        now = self._clock()
        for shard in service._shards:
            index = shard.index
            if shard.state == "alive":
                actions["probes"] += 1
                if not service.probe_shard(index):
                    actions["probe_failures"] += 1
                continue
            if shard.state != "suspect" or now < self.next_restart_at.get(index, 0.0):
                continue
            attempts = self.restart_attempts.get(index, 0)
            if attempts >= self.max_restarts:
                if shard.give_up():
                    actions["gave_up"] += 1
                continue
            if service.restart_shard(index):
                self.restart_attempts.pop(index, None)
                self.next_restart_at.pop(index, None)
                actions["restarts"] += 1
            else:
                self.restart_attempts[index] = attempts + 1
                self.next_restart_at[index] = self._clock() + min(
                    self.backoff_s * (2 ** attempts), self.backoff_cap_s
                )
                actions["restart_failures"] += 1
        with self._lock:
            self._counters["passes"] += 1
            for key, value in actions.items():
                self._counters[key] += value
        return actions

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Supervision counters for operator output."""
        with self._lock:
            snapshot: Dict[str, object] = dict(self._counters)
        snapshot["probe_interval_s"] = self.probe_interval_s
        snapshot["max_restarts"] = self.max_restarts
        snapshot["backoff_s"] = self.backoff_s
        snapshot["backoff_cap_s"] = self.backoff_cap_s
        return snapshot

