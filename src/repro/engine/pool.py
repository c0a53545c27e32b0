"""Pre-garbled circuit pool — the offline/online split as a data structure.

Garbling is input-independent (paper Sec. 3: the tables depend only on
the public netlist), so a serving deployment garbles *ahead* of demand
and answers each request with material popped from a pool.  The online
critical path then contains only transfer + OT + evaluate + merge.

The pool is thread-safe: callers may drive one
:class:`repro.service.PrivateInferenceService` from several threads, and
the refill policies garble off-thread.  Refill policies
keep it from going permanently cold once the initial ``warm()`` material
is drained (the PR 1 pool never refilled — every request after the
first burst was a cold miss forever):

* ``refill="none"`` — the caller owns warming (PR 1 behavior).
* ``refill="opportunistic"`` — each ``acquire()`` kicks off one
  off-thread batch ``warm``, so sustained traffic keeps finding
  material.
* ``refill="background"`` — a daemon thread refills whenever the pool
  drops below the low watermark.

Refill batches are **watermark-driven and drain-rate-sized**: the pool
tracks recent acquisitions and its own per-copy garbling time, and each
refill warms enough copies to reach the watermark *plus* the demand
expected to arrive while that batch garbles — burst traffic gets one
amortized ``pregarble_many`` pass instead of a trickle of ``warm(1)``
top-ups that can never catch up.
"""

from __future__ import annotations

import math
import secrets
import threading
import time
from collections import deque
from typing import Deque, Dict, Optional

from ..circuits.netlist import Circuit
from ..errors import EngineError
from ..gc.cipher import HashKDF
from ..gc.ot import MODP_2048, OTGroup
from ..gc.protocol import Pregarbled, TwoPartySession
from ..gc.rng import RngLike

__all__ = ["PregarbledPool", "REFILL_POLICIES"]

#: Valid ``refill`` arguments.
REFILL_POLICIES = ("none", "opportunistic", "background")


class PregarbledPool:
    """A bounded FIFO of single-use pre-garbled circuit copies.

    Args:
        circuit: the netlist future requests will execute.
        capacity: maximum copies held at once (each copy holds all wire
            labels and tables in memory — size the pool to the burst you
            want to absorb, not to total traffic).
        kdf: garbling oracle (must match the online session's).
        ot_group: recorded so pooled and cold runs use the same session
            parameters.
        rng: label randomness source.
        refill: refill policy (see module docstring).  ``"background"``
            starts its daemon thread immediately, so the pool self-warms
            without an explicit ``warm()`` call.
        low_watermark: refills trigger whenever ready + pending copies
            drop below this level (default: the full capacity); batch
            sizes grow with the observed drain rate.
    """

    def __init__(
        self,
        circuit: Circuit,
        capacity: int = 8,
        kdf: Optional[HashKDF] = None,
        ot_group: OTGroup = MODP_2048,
        rng: RngLike = secrets,
        refill: str = "none",
        low_watermark: Optional[int] = None,
    ) -> None:
        if capacity < 1:
            raise EngineError("pool capacity must be positive")
        if refill not in REFILL_POLICIES:
            raise EngineError(
                f"unknown refill policy {refill!r}; "
                f"choose from {', '.join(REFILL_POLICIES)}"
            )
        if low_watermark is not None and low_watermark < 1:
            raise EngineError("low_watermark must be >= 1")
        self.circuit = circuit
        self.capacity = capacity
        self.refill = refill
        self.low_watermark = low_watermark
        self._session = TwoPartySession(
            circuit, kdf=kdf, ot_group=ot_group, rng=rng
        )
        self._items: Deque[Pregarbled] = deque()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._pending = 0
        self._stop = False
        self._opportunistic_inflight = False
        self._refill_thread: Optional[threading.Thread] = None
        self._leaked_refill_thread = False
        self.garbled_total = 0
        self.refills = 0
        self.hits = 0
        self.misses = 0
        self.refill_crashes = 0
        self.last_refill_error: Optional[str] = None
        # drain-rate observation window + per-copy garble-time EWMA: the
        # inputs to watermark-driven refill batch sizing
        self._acquire_times: Deque[float] = deque(maxlen=256)
        self._per_copy_s: Optional[float] = None
        if refill == "background":
            self._refill_thread = threading.Thread(
                target=self._refill_supervisor,
                name="pregarble-refill",
                daemon=True,
            )
            self._refill_thread.start()

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    # -- offline phase ----------------------------------------------------

    def warm(self, count: Optional[int] = None) -> int:
        """Garble up to ``count`` copies (default: fill to capacity).

        This is the offline phase: run it while the service is idle.
        Slots are reserved under the lock before the (expensive)
        garbling starts, so concurrent ``warm()`` calls split the
        remaining room instead of duplicating work; the reserved batch
        is then garbled in one vectorized ``pregarble_many`` pass.
        Returns the number of copies actually garbled by this call.
        """
        added = 0
        while count is None or added < count:
            with self._lock:
                room = self.capacity - len(self._items) - self._pending
                if room <= 0:
                    break
                batch = room if count is None else min(room, count - added)
                self._pending += batch
            items = []
            start = time.monotonic()
            try:
                items = self._session.pregarble_many(batch)
            finally:
                elapsed = time.monotonic() - start
                with self._lock:
                    self._pending -= batch
                    self._items.extend(items)
                    self.garbled_total += len(items)
                    if items:
                        per_copy = elapsed / len(items)
                        self._per_copy_s = (
                            per_copy
                            if self._per_copy_s is None
                            else 0.5 * self._per_copy_s + 0.5 * per_copy
                        )
            added += len(items)
            if len(items) < batch:  # pregarble failed partway; don't spin
                break
        return added

    # -- online phase -----------------------------------------------------

    def acquire(self) -> Optional[Pregarbled]:
        """Pop one pre-garbled copy, or None when the pool ran dry.

        A None return means the caller pays the cold garbling cost
        inline — the pool records the miss so operators can size
        ``capacity`` from the hit rate.  Under an ``"opportunistic"`` or
        ``"background"`` policy, every acquisition also triggers an
        off-thread refill so the pool recovers from drains instead of
        serving cold misses forever.
        """
        with self._lock:
            self._acquire_times.append(time.monotonic())
            if self._items:
                self.hits += 1
                item = self._items.popleft()
            else:
                self.misses += 1
                item = None
            if self.refill == "background":
                self._cond.notify()
        if self.refill == "opportunistic":
            self._spawn_opportunistic_refill()
        return item

    @property
    def hit_rate(self) -> float:
        """Fraction of acquisitions served from pre-garbled material."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def drain_rate(self, window: float = 10.0) -> float:
        """Observed acquisitions per second over the recent window."""
        with self._lock:
            return self._drain_rate_locked(window)

    def stats(self) -> Dict[str, object]:
        """Operator-facing snapshot (consistent under the pool lock)."""
        with self._lock:
            return {
                "size": len(self._items),
                "capacity": self.capacity,
                "pending": self._pending,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hit_rate,
                "garbled_total": self.garbled_total,
                "refills": self.refills,
                "refill": self.refill,
                "low_watermark": self.low_watermark,
                "drain_rate": self._drain_rate_locked(),
                "per_copy_s": self._per_copy_s,
                "refill_crashes": self.refill_crashes,
                "last_refill_error": self.last_refill_error,
                "leaked_refill_thread": self._leaked_refill_thread,
            }

    def close(self, timeout: float = 5.0) -> None:
        """Stop the background refill thread (idempotent).

        Joins with ``timeout`` so a wedged refill can never hang
        interpreter shutdown; a thread that outlives the join is
        reported as ``leaked_refill_thread`` in :meth:`stats` instead of
        blocking forever.
        """
        with self._lock:
            self._stop = True
            self._cond.notify_all()
            thread = self._refill_thread
        if thread is None:
            return
        thread.join(timeout=timeout)
        with self._lock:
            if thread.is_alive():
                self._leaked_refill_thread = True
            else:
                self._leaked_refill_thread = False
                self._refill_thread = None

    # -- refill machinery -------------------------------------------------

    def _watermark(self) -> int:
        return (
            self.capacity if self.low_watermark is None
            else min(self.low_watermark, self.capacity)
        )

    def _needs_refill(self) -> bool:
        """Caller must hold the lock."""
        return len(self._items) + self._pending < self._watermark()

    def _drain_rate_locked(self, window: float = 10.0) -> float:
        """Acquires/second over the recent window (lock held)."""
        now = time.monotonic()
        recent = [t for t in self._acquire_times if now - t <= window]
        if len(recent) < 2:
            return 0.0
        span = max(now - recent[0], 1e-6)
        return len(recent) / span

    def _refill_batch_locked(self) -> int:
        """Refill batch size: watermark deficit scaled for in-flight demand.

        Starts from the copies needed to reach the watermark, then
        inflates for the requests expected to drain *while the batch
        garbles* (observed drain rate x per-copy garble time) — a pool
        refilling one copy at a time under burst traffic never catches
        up.  Caller must hold the lock.
        """
        room = self.capacity - len(self._items) - self._pending
        need = self._watermark() - len(self._items) - self._pending
        if room <= 0 or need <= 0:
            return 0
        batch = need
        rate = self._drain_rate_locked()
        if rate > 0.0 and self._per_copy_s:
            drag = rate * self._per_copy_s  # copies drained per copy warmed
            if drag >= 1.0:
                batch = room  # demand outpaces garbling; warm all we can
            else:
                batch = math.ceil(need / (1.0 - drag))
        return max(1, min(room, batch))

    def _spawn_opportunistic_refill(self) -> None:
        """One off-thread batch ``warm`` per drain, never stacking workers."""
        with self._lock:
            if self._stop or self._opportunistic_inflight:
                return
            batch = self._refill_batch_locked()
            if batch <= 0:
                return
            self._opportunistic_inflight = True

        def work() -> None:
            try:
                if self.warm(batch):
                    with self._lock:
                        self.refills += 1
            except Exception as exc:  # keep serving; surface via stats
                with self._lock:
                    self.refill_crashes += 1
                    self.last_refill_error = repr(exc)
            finally:
                with self._lock:
                    self._opportunistic_inflight = False

        threading.Thread(
            target=work, name="pregarble-refill-once", daemon=True
        ).start()

    def _refill_supervisor(self) -> None:
        """Self-healing wrapper around :meth:`_refill_loop`.

        A crash in the refill worker is caught, counted
        (``refill_crashes`` in :meth:`stats`) and the loop restarted
        after a capped exponential backoff — a poisoned garble must not
        silently turn every future request into a cold miss.
        """
        crashes = 0
        while True:
            try:
                self._refill_loop()
                return  # clean _stop exit
            except Exception as exc:
                crashes += 1
                with self._lock:
                    self.refill_crashes += 1
                    self.last_refill_error = repr(exc)
                backoff = min(0.05 * (2 ** (crashes - 1)), 5.0)
                with self._cond:
                    if self._stop:
                        return
                    self._cond.wait(timeout=backoff)

    def _refill_loop(self) -> None:
        """Background policy: batch-refill whenever below the watermark.

        Exceptions propagate to :meth:`_refill_supervisor`, which counts
        the crash and restarts this loop with backoff.
        """
        while True:
            with self._cond:
                while not self._stop and not self._needs_refill():
                    self._cond.wait(timeout=0.5)
                if self._stop:
                    return
                batch = self._refill_batch_locked()
            if batch and self.warm(batch):
                with self._lock:
                    self.refills += 1
