"""Retry policy and fault classification for the serving boundary.

Faults split into two categories.  *Transient* faults are wire-level —
a corrupted, dropped or delayed message, an expired deadline — and a
fresh attempt over a fresh channel pair plausibly succeeds.  *Permanent*
faults are semantic — a malformed circuit, a protocol-order bug, a bad
configuration — and retrying only repeats them.  :class:`RetryPolicy`
retries the former with exponential backoff plus seeded jitter and
re-raises the latter immediately, so a buggy caller is never masked by
a retry loop.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Optional, Tuple, Type, TypeVar

from ..errors import (
    ChannelClosedError,
    ChannelEmptyError,
    ChannelIntegrityError,
    DeadlineExceeded,
    EngineError,
)

__all__ = [
    "TRANSIENT_ERRORS",
    "RetryPolicy",
    "fault_category",
    "is_transient",
]

T = TypeVar("T")

#: Error classes a fresh attempt can plausibly clear.  Everything else
#: (semantic/protocol errors) is permanent and must not be retried.
TRANSIENT_ERRORS: Tuple[Type[BaseException], ...] = (
    ChannelClosedError,
    ChannelEmptyError,
    ChannelIntegrityError,
    DeadlineExceeded,
)


def is_transient(error: BaseException) -> bool:
    """True when a fresh attempt can plausibly clear ``error``."""
    return isinstance(error, TRANSIENT_ERRORS)


def fault_category(error: BaseException) -> str:
    """Classify an error as ``"transient"`` or ``"permanent"``."""
    return "transient" if is_transient(error) else "permanent"


class RetryPolicy:
    """Bounded retry with exponential backoff and seeded jitter.

    Args:
        max_retries: additional attempts after the first (0 disables
            retrying).
        backoff_s: base sleep before the first retry; doubles per
            attempt.
        jitter: fraction of the backoff added as uniform noise (keeps
            concurrent retries from synchronising).
        rng: jitter source — injected so chaos tests are deterministic.
        sleep: injectable sleep (tests pass a recorder, no wall-clock
            cost).
    """

    def __init__(
        self,
        max_retries: int = 0,
        backoff_s: float = 0.05,
        jitter: float = 0.5,
        rng: Optional[random.Random] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if max_retries < 0:
            raise EngineError("max_retries must be >= 0")
        if backoff_s < 0:
            raise EngineError("backoff_s must be >= 0")
        if not 0 <= jitter <= 1:
            raise EngineError("jitter must be in [0, 1]")
        self.max_retries = int(max_retries)
        self.backoff_s = float(backoff_s)
        self.jitter = float(jitter)
        self._rng = rng if rng is not None else random.Random(0)
        self._sleep = sleep

    def backoff_for(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (1-based), with jitter."""
        base = self.backoff_s * (2 ** (attempt - 1))
        return base * (1.0 + self.jitter * self._rng.random())

    def call(
        self,
        fn: Callable[[], T],
        on_retry: Optional[Callable[[BaseException, int], None]] = None,
    ) -> T:
        """Run ``fn``, retrying transient faults up to ``max_retries`` times.

        Args:
            fn: zero-argument attempt; a fresh invocation must build
                fresh per-attempt state (channel pair, deadline).
            on_retry: observer called with ``(error, attempt)`` before
                each retry — the service uses it to count retries.

        Raises:
            The last transient error once attempts are exhausted, or the
            first permanent error immediately.
        """
        attempt = 0
        while True:
            try:
                return fn()
            except TRANSIENT_ERRORS as exc:
                attempt += 1
                if attempt > self.max_retries:
                    raise
                if on_retry is not None:
                    on_retry(exc, attempt)
                delay = self.backoff_for(attempt)
                if delay > 0:
                    self._sleep(delay)

