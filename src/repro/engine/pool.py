"""Pre-garbled circuit pool — the offline/online split as a data structure.

Garbling is input-independent (paper Sec. 3: the tables depend only on
the public netlist), so a serving deployment garbles *ahead* of demand
and answers each request with a copy popped from a pool.  So are phase 1
of the evaluator's OTs (random OTs, :mod:`repro.gc.ot_extension`) and
the transfer of the tables: each copy, one half per party, is garbled
with its pads, and its tables and constant labels cross to Bob's half
as it is made.  The online critical path then holds only Alice's input
labels, OT derandomization, evaluation and merge: 24 048 B on the demo
net instead of a cold request's 414 248 B.  The pads' ``u`` frames, the
tables and the constant labels move while nobody waits;
:meth:`PregarbledPool.stats` reports them as ``offline_bytes``.

"Ahead of demand" has to mean *while nobody is waiting*: under the GIL a
thread that garbles during a request is on that request's path, and the
refills ``acquire()`` used to kick made a pooled service 2x slower than
no pool at all (DESIGN.md, "Threads under the GIL").  So there is one
refill, ``refill="idle"``: a supervised daemon thread, started by the
first ``acquire()`` (a pool nobody has drawn from has nothing to refill,
and ``prepare()`` cannot race it), that waits for room, has the pool's
owner block it until the line is idle for one copy's garbling time
(``idle_wait``), garbles **one** copy and starts over.  One copy per
wake bounds what a request arriving mid-copy loses to one garbling time.
The time asked for is the fastest per-copy garble measured here: an
average seeded by a slow, contended first copy kept the refill from ever
running.  ``refill="none"`` starts no thread and the caller owns warming
— for callers that keep garbling out of a window they time (the layered
benchmark, ``bench_engine_serving.py``).  Thread-safe.
"""

from __future__ import annotations

import secrets
import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, Optional

from ..circuits.netlist import Circuit
from ..errors import EngineError
from ..gc.cipher import HashKDF
from ..gc.ot import MODP_2048, OTGroup
from ..gc.ot_extension import IKNPState
from ..gc.protocol import Copy, TwoPartySession
from ..gc.rng import RngLike

__all__ = ["PregarbledPool"]


def check_refill(name: str, refill: str) -> None:
    """Refuse a ``refill`` that is not one of the two that exist."""
    if refill not in ("none", "idle"):
        raise EngineError(f"unknown {name} {refill!r}; choose from none, idle")


class PregarbledPool:
    """A bounded FIFO of single-use pre-garbled copies, each an
    ``(alice_half, bob_half)`` pair (:data:`repro.gc.protocol.Copy`).

    Args:
        circuit: the netlist future requests will execute.
        capacity: maximum copies held at once.  Alice's half of a copy
            holds Δ with its interface wires' labels and the sender's
            pads, Bob's half the receiver's pads and the tables that
            crossed to it: 35 216 B and 390 814 B, 426 030 B together on
            the demo net, 89 % of it tables (``stats()["copy_bytes"]``),
            so a pool costs about ``capacity`` times that — size it to
            the burst you want to absorb, not to total traffic.
        kdf: garbling oracle (must match the online session's).
        ot_group: so pooled and cold runs use the same session parameters.
        rng: label randomness source.
        refill: ``"none"`` or ``"idle"`` (see module docstring).
        idle_wait: the owner's idle signal for ``refill="idle"``: given
            one copy's garbling time in seconds, it blocks until the
            owner is idle for that long and returns True, or False when
            the owner is shutting down (the refill then ends; the owner
            closes the pool after its own drain, which wakes the wait).
            Without one the owner counts as always idle.
        ot_state: the OT-extension state the copies' pads extend on —
            the owner's, so that its base OT is paid once; ``None``
            builds one for the pool.
    """

    def __init__(
        self,
        circuit: Circuit,
        capacity: int = 8,
        kdf: Optional[HashKDF] = None,
        ot_group: OTGroup = MODP_2048,
        rng: RngLike = secrets,
        refill: str = "none",
        idle_wait: Optional[Callable[[float], bool]] = None,
        ot_state: Optional[IKNPState] = None,
    ) -> None:
        if capacity < 1:
            raise EngineError("pool capacity must be positive")
        check_refill("refill policy", refill)
        self.circuit = circuit
        self.capacity = capacity
        self.refill = refill
        self._idle_wait = idle_wait
        self._session = TwoPartySession(
            circuit, kdf=kdf, ot_group=ot_group, rng=rng, ot_state=ot_state,
        )
        self._items: Deque[Copy] = deque()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._pending = 0
        self._stop = False
        self._refill_thread: Optional[threading.Thread] = None
        self._leaked_refill_thread = False
        self.garbled_total = self.refills = self.refill_crashes = 0
        self.hits = self.misses = 0
        #: every copy's ``u``, tables and constant labels: traffic moved offline
        self.offline_bytes = 0
        #: what one ready copy holds in arrays (None before any garbling)
        self.copy_bytes: Optional[int] = None
        self.last_refill_error: Optional[str] = None
        # what the refill asks its owner to be idle for
        self._per_copy_s: Optional[float] = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    # -- offline phase ----------------------------------------------------

    def warm(self, count: Optional[int] = None) -> int:
        """Garble up to ``count`` copies (default: fill to capacity),
        each with its OT pads and its tables on Bob's half.

        The offline phase: run it while the service is idle.  Slots are
        reserved under the lock before the (expensive) garbling starts,
        so concurrent ``warm()`` calls split the remaining room instead
        of duplicating work; the reserved batch is then garbled in one
        vectorized ``pregarble_many`` pass.  Returns the number of
        copies actually garbled by this call.
        """
        # built once per circuit: not part of any copy's garbling time
        self.circuit.level_schedule()
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
                    self.offline_bytes += sum(bob.offline_bytes for _, bob in items if bob)
                    if items:  # the fastest seen, never an average
                        self.copy_bytes = sum(half.nbytes for half in items[-1] if half)
                        per_copy = elapsed / len(items)
                        self._per_copy_s = min(per_copy, self._per_copy_s or per_copy)
            added += len(items)
        return added

    # -- online phase -----------------------------------------------------

    def acquire(self) -> Optional[Copy]:
        """Pop one pre-garbled copy, or None when the pool ran dry.

        A None return means the caller pays the cold garbling cost
        inline — the pool records the miss so operators can size
        ``capacity`` from the hit rate.  Under ``refill="idle"`` the
        first acquisition starts the refill thread and each one tells it
        there is room: a drained pool recovers, in the owner's idle time.
        """
        with self._lock:
            if self._items:
                self.hits += 1
                item = self._items.popleft()
            else:
                self.misses += 1
                item = None
            if self.refill == "idle" and not self._stop:
                if self._refill_thread is None:
                    self._refill_thread = threading.Thread(
                        target=self._refill_supervisor,
                        name="pregarble-refill", daemon=True,
                    )
                    self._refill_thread.start()
                self._cond.notify()
        return item

    @property
    def hit_rate(self) -> float:
        """Fraction of acquisitions served from pre-garbled material."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

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
                "offline_bytes": self.offline_bytes,
                "copy_bytes": self.copy_bytes,
                "refills": self.refills,
                "refill": self.refill,
                "per_copy_s": self._per_copy_s,
                "refill_crashes": self.refill_crashes,
                "last_refill_error": self.last_refill_error,
                "leaked_refill_thread": self._leaked_refill_thread,
            }

    def close(self, timeout: float = 5.0) -> None:
        """Stop the refill thread (idempotent).

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
            self._leaked_refill_thread = thread.is_alive()
            if not self._leaked_refill_thread:
                self._refill_thread = None

    # -- refill machinery -------------------------------------------------

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
        """Refill until closed; the supervisor counts what this raises."""
        while self._refill_step():
            pass

    def _refill_step(self) -> bool:
        """Wait for room, then for the owner to be idle for one copy's
        garbling time; garble one copy.  False when the refill is over
        (the pool closed, or its owner shutting down)."""
        with self._cond:
            while not self._stop and len(self._items) + self._pending >= self.capacity:
                self._cond.wait()
            if self._stop:
                return False
            need_s = self._per_copy_s or 0.0
        if self._idle_wait is not None and not self._idle_wait(need_s):
            return False
        if self.warm(1):
            with self._lock:
                self.refills += 1
        return True
