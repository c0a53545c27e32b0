"""Per-backend circuit breaker for graceful degradation.

When a backend keeps failing (pool poisoned, transport flapping), the
service should stop hammering it and serve degraded — pooled falls back
to cold garbling — until the backend proves itself healthy again.  :class:`CircuitBreaker` implements the
classic three-state machine:

* **closed** — healthy; every call allowed, consecutive failures
  counted.
* **open** — tripped after ``threshold`` consecutive failures; calls
  denied (callers degrade) until ``cooldown_s`` elapses.  A failure
  recorded while open restarts the cooldown.
* **half-open** — after the cooldown one probe call is allowed; success
  closes the breaker, failure re-opens it for another cooldown.

Deterministic: the clock is injectable, and tests drive the state
machine with a fake clock instead of sleeping.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict

from ..errors import EngineError

__all__ = ["CircuitBreaker"]


class CircuitBreaker:
    """Consecutive-failure circuit breaker with half-open probing.

    Args:
        threshold: consecutive failures that trip the breaker.
        cooldown_s: seconds open before a half-open probe is allowed.
        clock: monotonic time source (injectable for tests).

    Thread-safe: callers may serve from their own threads.
    """

    def __init__(
        self,
        threshold: int = 5,
        cooldown_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise EngineError("breaker threshold must be >= 1")
        if cooldown_s < 0:
            raise EngineError("breaker cooldown_s must be >= 0")
        self.threshold = int(threshold)
        self.cooldown_s = float(cooldown_s)
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._state = "closed"
        self._opened_at = 0.0
        self._trips = 0
        self._probing = False

    def _resolve_state(self) -> str:
        """Advance open → half-open once the cooldown elapsed (lock held)."""
        if self._state == "open":
            if self._clock() - self._opened_at >= self.cooldown_s:
                self._state = "half-open"
                self._probing = False
        return self._state

    def allow(self) -> bool:
        """Whether the next call may use the protected backend.

        Open denies everything; half-open admits exactly one probe at a
        time (concurrent callers degrade while the probe is in flight).
        """
        with self._lock:
            state = self._resolve_state()
            if state == "closed":
                return True
            if state == "half-open" and not self._probing:
                self._probing = True
                return True
            return False

    def record_success(self) -> None:
        """Report a successful call: closes the breaker, resets counts."""
        with self._lock:
            self._failures = 0
            self._state = "closed"
            self._probing = False

    def record_failure(self) -> None:
        """Report a failed call: counts toward the trip threshold.

        A failure while half-open re-opens immediately; the breaker also
        trips once ``threshold`` consecutive failures accumulate.
        """
        with self._lock:
            state = self._resolve_state()
            self._failures += 1
            if state == "half-open" or self._failures >= self.threshold:
                if self._state != "open":
                    self._trips += 1
                self._state = "open"
                self._opened_at = self._clock()
                self._probing = False

    def stats(self) -> Dict[str, object]:
        """Counters for operator output."""
        with self._lock:
            return {
                "state": self._resolve_state(),
                "consecutive_failures": self._failures,
                "trips": self._trips,
                "threshold": self.threshold,
                "cooldown_s": self.cooldown_s,
            }

