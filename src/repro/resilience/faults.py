"""Deterministic fault injection for the wire protocol — the chaos harness.

A :class:`FaultPlan` is a seeded, reproducible schedule of wire faults:
*drop, corrupt, truncate, duplicate or delay the Nth message matching a
tag*.  A :class:`FaultyChannel` wraps any :class:`repro.gc.channel.Channel`
endpoint and applies the plan at the framing layer — after checksums are
computed — so every injected fault is exactly what a lossy or hostile
wire would produce, and the integrity layer must *detect* it (typed
:class:`repro.errors.ChannelIntegrityError` /
:class:`~repro.errors.ChannelEmptyError`), never emit a wrong label.

The same plan instance is shared by both directions of a link and by
every retry attempt, so its match counters persist: a fault scheduled
for the first ``tables`` message fires once, and the retried attempt
sails through — which is what makes retry-under-chaos testable.

Everything is deterministic under the seed: corrupt byte positions and
truncation points come from the plan's private ``random.Random``.
"""

from __future__ import annotations

import dataclasses
import random
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import EngineError
from ..gc.channel import Channel, ChannelStats, Frame, default_channel_factory

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "FaultyChannel",
    "faulty_channel_factory",
]

#: The injectable fault kinds.
FAULT_KINDS = ("drop", "corrupt", "truncate", "duplicate", "delay")

#: Matches every message tag.
ANY_TAG = "*"


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: apply ``kind`` to the Nth message matching ``tag``.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        tag: message tag to match (``"*"`` matches every message).
        nth: 0-based index among *matching* messages at which to fire.
        delay_s: virtual transit delay in seconds (``delay`` kind only).
    """

    kind: str
    tag: str = ANY_TAG
    nth: int = 0
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise EngineError(
                f"unknown fault kind {self.kind!r}; "
                f"choose from {', '.join(FAULT_KINDS)}"
            )
        if self.nth < 0:
            raise EngineError("fault nth must be >= 0")
        if self.kind == "delay" and self.delay_s <= 0:
            raise EngineError("delay faults need delay_s > 0")
        if self.kind != "delay" and self.delay_s:
            raise EngineError("delay_s is only valid for delay faults")

    def matches(self, tag: str) -> bool:
        """True when this spec watches messages of ``tag``."""
        return self.tag == ANY_TAG or self.tag == tag

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse ``kind:tag:nth[:delay_s]`` (e.g. ``delay:tables:0:30``)."""
        parts = text.strip().split(":")
        if not 1 <= len(parts) <= 4:
            raise EngineError(
                f"bad fault spec {text!r}; expected kind:tag:nth[:delay_s]"
            )
        kind = parts[0]
        tag = parts[1] if len(parts) > 1 and parts[1] else ANY_TAG
        try:
            nth = int(parts[2]) if len(parts) > 2 and parts[2] else 0
            delay = float(parts[3]) if len(parts) > 3 else 0.0
        except ValueError:
            raise EngineError(
                f"bad fault spec {text!r}: nth must be an int, "
                "delay_s a float"
            ) from None
        return cls(kind=kind, tag=tag, nth=nth, delay_s=delay)

    def describe(self) -> str:
        """Compact ``kind:tag:nth[:delay]`` form (inverse of parse)."""
        base = f"{self.kind}:{self.tag}:{self.nth}"
        return f"{base}:{self.delay_s:g}" if self.kind == "delay" else base


class FaultPlan:
    """A seeded, shared schedule of wire faults with persistent counters.

    Thread-safe: concurrent senders (a service driven from several
    caller threads) consult one plan without double-firing a spec.

    Args:
        specs: the scheduled faults.
        seed: drives corrupt byte positions and truncation points.
    """

    def __init__(self, specs: Sequence[FaultSpec], seed: int = 0) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()
        self._seen: List[int] = [0] * len(self.specs)
        self._applied: List[Tuple[str, str, int]] = []

    @classmethod
    def parse(cls, texts: Sequence[str], seed: int = 0) -> "FaultPlan":
        """Build a plan from ``kind:tag:nth[:delay_s]`` spec strings."""
        return cls([FaultSpec.parse(t) for t in texts], seed=seed)

    # -- application -------------------------------------------------------

    def apply(self, frame: Frame) -> List[Frame]:
        """Push one outgoing frame through the plan.

        Returns the frames that actually reach the wire: ``[]`` for a
        drop, two entries for a duplicate, a mutated single frame for
        corrupt/truncate/delay, or the original untouched.  Checksums
        are never recomputed — mutations must stay detectable.
        """
        with self._lock:
            out = [frame]
            for i, spec in enumerate(self.specs):
                if not spec.matches(frame.tag):
                    continue
                fire = self._seen[i] == spec.nth
                self._seen[i] += 1
                if not fire or not out:
                    continue
                out = self._fire(spec, out[0], len(out) > 1)
                self._applied.append((spec.kind, frame.tag, frame.seq))
            return out

    def _fire(
        self, spec: FaultSpec, frame: Frame, duplicated: bool
    ) -> List[Frame]:
        """Apply one spec to a frame (lock held)."""
        if spec.kind == "drop":
            return []
        if spec.kind == "duplicate":
            return [frame, dataclasses.replace(frame)]
        if spec.kind == "delay":
            mutated = dataclasses.replace(
                frame, delay_s=frame.delay_s + spec.delay_s
            )
        elif spec.kind == "corrupt":
            payload = bytearray(frame.payload)
            if payload:
                position = self._rng.randrange(len(payload))
                payload[position] ^= self._rng.randrange(1, 256)
            else:
                payload = bytearray(b"\xff")
            mutated = dataclasses.replace(frame, payload=bytes(payload))
        else:  # truncate
            payload = bytearray(frame.payload)
            cut = self._rng.randrange(len(payload)) if payload else 0
            mutated = dataclasses.replace(frame, payload=bytes(payload[:cut]))
        out = [mutated]
        if duplicated:
            out.append(dataclasses.replace(frame))
        return out

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Counters for operator output: scheduled vs applied faults."""
        with self._lock:
            return {
                "seed": self.seed,
                "specs": [s.describe() for s in self.specs],
                "applied": len(self._applied),
                "applied_log": list(self._applied),
            }

    @property
    def applied(self) -> List[Tuple[str, str, int]]:
        """``(kind, tag, seq)`` log of every fault actually fired."""
        with self._lock:
            return list(self._applied)


class FaultyChannel(Channel):
    """A channel endpoint that applies a :class:`FaultPlan` on send.

    Wraps any existing :class:`Channel` — in-memory *or* socket — by
    delegating the two transport seams (:meth:`Channel._dispatch` and
    :meth:`Channel._fetch`) to the wrapped endpoint, so all typed send
    helpers (labels, ints, bits) inherit fault coverage on every
    transport.  Receive validation stays this wrapper's (inherited) job,
    which is exactly what the harness probes.
    """

    def __init__(self, inner: Channel, plan: FaultPlan) -> None:
        super().__init__(
            outbox=inner._outbox,
            inbox=inner._inbox,
            stats=inner._stats,
            direction=inner._direction,
        )
        self._inner = inner
        self._link = inner._link
        self.deadline = inner.deadline
        self.plan = plan

    def _dispatch(self, frame: Frame) -> None:
        self._inner.deadline = self.deadline
        for mutated in self.plan.apply(frame):
            self._inner._dispatch(mutated)

    def _fetch(self, index: int, expected_tag: Optional[str]) -> Frame:
        # sessions arm deadlines on the wrapper; the socket transport
        # reads its own endpoint's deadline for recv timeouts — sync it
        # across the delegation boundary before blocking
        self._inner.deadline = self.deadline
        return self._inner._fetch(index, expected_tag)

    def close(self) -> None:
        self._inner.close()


def faulty_channel_factory(
    plan: FaultPlan,
    inner: Optional[Callable[[], Tuple[Channel, Channel, ChannelStats]]] = None,
) -> Callable[[], Tuple[Channel, Channel, ChannelStats]]:
    """A ``make_channel_pair``-compatible factory injecting ``plan``.

    Both endpoints share the plan (its counters span directions and
    survive retries), which is what makes Nth-message faults fire once
    per plan rather than once per attempt.

    Args:
        inner: the healthy factory to wrap; ``None`` resolves through
            :func:`repro.gc.channel.default_channel_factory`, so
            ``REPRO_TRANSPORT=socket`` pushes the whole chaos matrix
            through the wire codec and kernel socketpairs.
    """

    def factory() -> Tuple[Channel, Channel, ChannelStats]:
        base = inner if inner is not None else default_channel_factory()
        alice, bob, stats = base()
        return FaultyChannel(alice, plan), FaultyChannel(bob, plan), stats

    return factory
