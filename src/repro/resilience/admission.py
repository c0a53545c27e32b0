"""The admission gate every serving front door owns (service, shards)."""

from __future__ import annotations

import threading
import time
from typing import Dict

from ..errors import ServiceDrainingError, ServiceOverloadedError

__all__ = ["AdmissionGate"]


class AdmissionGate:
    """A bounded in-flight budget with a one-shot graceful drain.

    Overload is shed with a typed *permanent* error (retrying into
    overload only deepens it); a drain refuses new work the moment it
    begins, then waits for what was already admitted.  A group of ``n``
    requests admits whole or is shed whole, so a shed batch never
    half-serves.  Thread-safe.

    Args:
        max_inflight: bound on concurrently admitted requests (0 =
            unbounded).
    """

    def __init__(self, max_inflight: int = 0) -> None:
        self.max_inflight = int(max_inflight)
        self._cond = threading.Condition()
        self._inflight = 0
        self._draining = False
        self._shed = self._drained = self._aborted = 0

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
            self._inflight += n

    def release(self, n: int) -> None:
        """Return ``n`` admission slots and wake a waiting drain."""
        with self._cond:
            self._inflight -= n
            self._cond.notify_all()

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
                "shed_requests": self._shed,
                "drained_requests": self._drained,
                "aborted_requests": self._aborted,
            }
