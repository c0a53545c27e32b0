"""Per-request time budgets for the serving protocol.

A :class:`Deadline` is armed once per request attempt and threaded
through the session, the channel and the OT phases: every ``recv`` and
every phase boundary calls :meth:`Deadline.check`, so a hung or delayed
round surfaces as a typed :class:`repro.errors.DeadlineExceeded` within
the budget instead of blocking forever.

Injected *virtual* delays (the fault harness's ``delay`` faults) are
charged through :meth:`Deadline.consume` — chaos tests stay fast and
deterministic because no wall-clock sleeping is involved, yet the
deadline machinery is exercised exactly as a slow wire would.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from ..errors import DeadlineExceeded

__all__ = ["Deadline"]


class Deadline:
    """A monotonic time budget for one protocol attempt.

    Args:
        budget_s: seconds allowed from construction; must be positive.
        clock: monotonic time source (injectable for deterministic
            tests).

    A deadline is owned by one request attempt — it is not shared
    across threads.  Elapsed time is real clock time *plus* any virtual
    delay charged via :meth:`consume`.
    """

    def __init__(
        self,
        budget_s: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if budget_s <= 0:
            raise ValueError("deadline budget must be positive seconds")
        self.budget_s = float(budget_s)
        self._clock = clock
        self._started = clock()
        self._consumed = 0.0

    @classmethod
    def start(cls, budget_s: Optional[float]) -> Optional["Deadline"]:
        """Arm a deadline, or return None for an unlimited budget."""
        return None if budget_s is None else cls(budget_s)

    def elapsed(self) -> float:
        """Seconds spent so far (real time + charged virtual delays)."""
        return (self._clock() - self._started) + self._consumed

    def remaining(self) -> float:
        """Seconds left in the budget (never negative)."""
        return max(self.budget_s - self.elapsed(), 0.0)

    def consume(self, seconds: float, context: str = "") -> None:
        """Charge a virtual delay against the budget, then check it.

        Raises:
            DeadlineExceeded: the charge exhausted the budget.
        """
        if seconds < 0:
            raise ValueError("cannot consume negative seconds")
        self._consumed += seconds
        self.check(context)

    def check(self, context: str = "") -> None:
        """Raise when the budget is spent; cheap no-op otherwise.

        Raises:
            DeadlineExceeded: with the phase context, the budget and the
                time actually spent — never any protocol secrets.
        """
        spent = self.elapsed()
        if spent >= self.budget_s:
            where = f" during {context}" if context else ""
            raise DeadlineExceeded(
                f"request deadline exceeded{where}: "
                f"{spent:.3f}s spent of a {self.budget_s:.3f}s budget"
            )

