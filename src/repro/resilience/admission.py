"""The admission gate every serving front door owns (service, shards)."""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

from ..errors import ServiceDrainingError, ServiceOverloadedError

__all__ = ["AdmissionGate"]


class AdmissionGate:
    """A bounded in-flight budget with a one-shot graceful drain.

    Overload is shed with a typed *permanent* error (retrying into
    overload only deepens it); a drain refuses new work the moment it
    begins, then waits for what was already admitted.  A group of ``n``
    requests admits whole or is shed whole, so a shed batch never
    half-serves.  Thread-safe.

    Counting in-flight requests, the gate is also where "nobody is
    waiting" is known, and offline work (the pool's refill) asks it:
    it remembers the last gap between nothing left in flight and the
    next admit; while idle, that gap minus what has passed of this one is
    the idle time still expected, and :meth:`wait_idle` blocks until it
    is long enough.  Construction to first admit is not a gap: a gate
    that has seen fewer than two requests expects nothing.  The cost on
    the request path is two clock reads.

    Args:
        max_inflight: bound on concurrently admitted requests (0 =
            unbounded).
        clock: monotonic seconds for the gap (tests inject one;
            :meth:`drain`'s grace period always runs on real time).
    """

    def __init__(
        self, max_inflight: int = 0, clock: Callable[[], float] = time.monotonic
    ) -> None:
        self.max_inflight = int(max_inflight)
        self._clock = clock
        self._cond = threading.Condition()
        self._inflight = 0
        self._draining = False
        self._shed = self._drained = self._aborted = 0
        # set while nothing is in flight and a request has completed
        self._idle_since: Optional[float] = None
        self._gap_s: Optional[float] = None

    def admit(self, n: int) -> None:
        """Admit ``n`` requests against the budget, or shed all of them.

        Raises:
            ServiceDrainingError: :meth:`drain` has begun.
            ServiceOverloadedError: the budget is full.
        """
        with self._cond:
            if self._draining:
                raise ServiceDrainingError(
                    "service is draining: close() has begun and no new "
                    "requests are admitted"
                )
            if self.max_inflight and self._inflight + n > self.max_inflight:
                self._shed += n
                raise ServiceOverloadedError(
                    f"in-flight budget full: {self._inflight} admitted + "
                    f"{n} requested > max_inflight={self.max_inflight}; "
                    "shedding"
                )
            if self._idle_since is not None:
                self._gap_s = self._clock() - self._idle_since
                self._idle_since = None
            self._inflight += n

    def release(self, n: int) -> None:
        """Return ``n`` admission slots; wake a waiting drain or idle wait."""
        with self._cond:
            self._inflight -= n
            if self._inflight == 0:
                self._idle_since = self._clock()
            self._cond.notify_all()

    def _expected_idle_locked(self) -> Optional[float]:
        """Seconds of idle time still expected: the last observed gap
        minus what has passed of this one.  None while anything is in
        flight or before a gap has been observed.  Caller must hold the
        condition."""
        if self._idle_since is None or self._gap_s is None:
            return None
        return max(self._gap_s - (self._clock() - self._idle_since), 0.0)

    def wait_idle(self, need_s: float) -> bool:
        """Block until nothing is in flight and at least ``need_s`` of
        idle time is still expected; False once a drain has begun.

        Never polls: what this waits on changes only in :meth:`release`
        and :meth:`drain`, and both notify.
        """
        with self._cond:
            while not self._draining:
                expected = self._expected_idle_locked()
                if expected is not None and expected >= need_s:
                    return True
                self._cond.wait()
            return False

    def drain(self, timeout_s: float) -> bool:
        """Refuse new work, then wait for admitted requests to finish.

        Requests that finish within ``timeout_s`` count as drained, any
        still running when the grace expires as aborted.  Only the first
        call waits and counts; it returns True, every later call False.
        """
        with self._cond:
            if self._draining:
                return False
            self._draining = True
            self._cond.notify_all()  # refuse idle waiters
            pending = self._inflight
            deadline = time.monotonic() + max(timeout_s, 0.0)
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(timeout=remaining)
            self._drained += pending - self._inflight
            self._aborted += self._inflight
            return True

    def stats(self) -> Dict[str, object]:
        """The gate's share of its owner's ``stats`` snapshot."""
        with self._cond:
            return {
                "inflight": self._inflight,
                "max_inflight": self.max_inflight,
                "draining": self._draining,
                "expected_idle_s": self._expected_idle_locked(),
                "shed_requests": self._shed,
                "drained_requests": self._drained,
                "aborted_requests": self._aborted,
            }
