"""In-memory duplex channel with byte accounting and wire integrity.

The paper's headline observation is that GC execution time is dominated
by *communication* (garbled-table transfer), so every protocol object in
this package moves data through a :class:`Channel` that counts bytes per
direction.  The in-memory implementation keeps the two parties in one
process (deterministic tests) while preserving exact wire sizes.

Messages travel as :class:`Frame` objects carrying a tag, a
per-direction sequence number and, wherever its bytes can change on the
way, a CRC-32 checksum over the payload.  ``recv`` validates all three,
so a corrupted, truncated, dropped or duplicated message surfaces as a
typed :class:`repro.errors.ChannelIntegrityError` instead of garbage
labels — the detection layer the fault-injection harness
(:mod:`repro.resilience`) and the socket transport
(:mod:`repro.transport`) both build on.  What a frame may carry, and
its length, is the message table's (:mod:`repro.gc.messages`), whose
entries send and receive through :meth:`Channel.send_bytes` and
:meth:`Channel.recv_bytes`.
A :class:`repro.resilience.Deadline` attached to an endpoint is checked
on every ``recv`` (and charged any virtual delay the fault injector's
receiving wrapper holds for the frame), so no receive outlives the
per-request budget.
"""

from __future__ import annotations

import collections
import dataclasses
import os
import zlib
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Tuple

from ..errors import (
    ChannelClosedError,
    ChannelEmptyError,
    ChannelIntegrityError,
    EngineError,
)
from .messages import LENGTH_PREFIX

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    import socket

    from ..resilience.deadline import Deadline

__all__ = [
    "Channel",
    "ChannelStats",
    "Frame",
    "channel_factory",
    "default_channel_factory",
    "make_channel_pair",
    "transport_from_env",
]


@dataclasses.dataclass
class Frame:
    """One wire message: payload plus the framing that protects it.

    Attributes:
        tag: message kind (``"tables"``, ``"ot"``, ...), validated on
            receive when the caller states an expectation.
        seq: per-direction sequence number, assigned by the sender;
            gaps and repeats reveal dropped or duplicated messages.
        payload: the raw bytes.
        crc: CRC-32 over the payload *as sent*, or ``None`` while no
            hop can change it: an in-memory frame's payload is the
            sender's own immutable ``bytes``.  The socket encoder
            (:func:`repro.transport.wire.encode_frame`) and the fault
            injector (:class:`repro.resilience.FaultyChannel`, before it
            mutates) set it; ``recv`` checks it whenever it is set.
    """

    tag: str
    seq: int
    payload: bytes
    crc: Optional[int] = None


class ChannelStats:
    """Bytes sent per direction and per tag, plus a message log for reports."""

    def __init__(self) -> None:
        self.bytes_a_to_b = 0
        self.bytes_b_to_a = 0
        self._by_tag: Dict[str, int] = {}
        self.log: List[Tuple[str, str, int]] = []

    def record(self, direction: str, tag: str, size: int) -> None:
        """Account one message."""
        if direction == "a2b":
            self.bytes_a_to_b += size
        else:
            self.bytes_b_to_a += size
        self._by_tag[tag] = self._by_tag.get(tag, 0) + size
        self.log.append((direction, tag, size))

    def by_tag(self) -> Dict[str, int]:
        """Aggregate traffic per message tag (e.g. 'tables', 'ot')."""
        return dict(self._by_tag)


class _LinkState:
    """Mutable state shared by both endpoints of one duplex link."""

    __slots__ = ("closed",)

    def __init__(self) -> None:
        self.closed = False


class Channel:
    """One endpoint of an in-memory duplex link.

    Also the base class of every other transport: the framing and the
    validation live here, while subclasses swap
    the two seams — :meth:`_dispatch` (put one frame on the wire) and
    :meth:`_fetch` (take the next frame off it).  The socket transport
    (:mod:`repro.transport`) and the fault injector
    (:class:`repro.resilience.FaultyChannel`) both plug in there, so
    ``recv`` semantics are identical across transports.
    """

    def __init__(
        self,
        outbox: Deque[Frame],
        inbox: Deque[Frame],
        stats: ChannelStats,
        direction: str,
    ) -> None:
        self._outbox = outbox
        self._inbox = inbox
        self._stats = stats
        self._direction = direction
        self._sent = 0
        self._received = 0
        self._link = _LinkState()
        #: optional per-request time budget, charged on every recv
        self.deadline: Optional["Deadline"] = None

    def close(self) -> None:
        """Close the link: the peer's drained ``recv`` turns typed.

        Frames already in flight stay deliverable (TCP semantics); once
        the inbox is drained, further receives raise
        :class:`repro.errors.ChannelClosedError` — a *transient* error,
        so retry/breaker handling matches a socket peer going away.
        """
        self._link.closed = True

    # -- raw bytes ---------------------------------------------------------

    def send_bytes(self, data: bytes, tag: str = "data") -> None:
        """Send a length-prefixed byte string (the hop that can change
        it checksums it: :attr:`Frame.crc`)."""
        frame = Frame(tag=tag, seq=self._sent, payload=bytes(data))
        self._sent += 1
        self._dispatch(frame)

    def _dispatch(self, frame: Frame) -> None:
        """Put one frame on the wire and account it.

        The single enqueue point — the fault-injection channel overrides
        this to checksum the original payload, then mutate, drop,
        duplicate or delay the frame.
        """
        self._outbox.append(frame)
        self._stats.record(self._direction, frame.tag, len(frame.payload) + LENGTH_PREFIX)

    def _fetch(self, index: int, expected_tag: Optional[str]) -> Frame:
        """Take the next inbound frame off the wire.

        The receive-side transport seam: the in-memory link pops its
        deque, the socket transport reads and decodes from its socket.
        ``index``/``expected_tag`` only flavor the error messages —
        validation stays in :meth:`recv_bytes`.

        Raises:
            ChannelEmptyError: no message is pending (protocol-order bug
                or a dropped message).
            ChannelClosedError: the peer closed the link and the inbox
                is drained.
        """
        if not self._inbox:
            expectation = (
                f" tagged {expected_tag!r}" if expected_tag is not None else ""
            )
            if self._link.closed:
                raise ChannelClosedError(
                    f"recv on closed channel: {self._direction!r} endpoint "
                    f"waiting for message #{index}{expectation} "
                    "(peer closed the link)"
                )
            raise ChannelEmptyError(
                f"recv on empty channel: {self._direction!r} endpoint "
                f"waiting for message #{index}{expectation} "
                "(protocol order bug or dropped message)"
            )
        return self._inbox.popleft()

    def recv_bytes(self, expected_tag: Optional[str] = None) -> bytes:
        """Receive and validate the next byte string.

        Args:
            expected_tag: when given, the frame's tag must match —
                mismatches (a dropped or reordered message upstream)
                raise :class:`ChannelIntegrityError` instead of letting
                the protocol parse the wrong payload.

        Raises:
            ChannelEmptyError: no message is pending (protocol-order bug
                or a dropped message).
            ChannelClosedError: the peer closed the link (EOF) — a
                transient error, so retries and breakers treat a dead
                peer like any other wire fault.
            ChannelIntegrityError: checksum, sequence or tag validation
                failed.
            DeadlineExceeded: the endpoint's deadline expired (a
                fault wrapper charges an injected transit delay in
                :meth:`_fetch`, before the check).
        """
        index = self._received
        frame = self._fetch(index, expected_tag)
        if self.deadline is not None:
            self.deadline.check(f"recv #{index} tagged {frame.tag!r}")
        if frame.seq != index:
            raise ChannelIntegrityError(
                f"out-of-sequence message on {self._direction!r}: expected "
                f"#{index}, got #{frame.seq} tagged {frame.tag!r} "
                "(dropped or duplicated message upstream)"
            )
        self._received += 1
        if frame.crc is not None and zlib.crc32(frame.payload) != frame.crc:
            raise ChannelIntegrityError(
                f"payload checksum mismatch on {self._direction!r} message "
                f"#{index} tagged {frame.tag!r} ({len(frame.payload)} bytes):"
                " corrupted or truncated on the wire"
            )
        if expected_tag is not None and frame.tag != expected_tag:
            raise ChannelIntegrityError(
                f"message tag mismatch on {self._direction!r} message "
                f"#{index}: expected {expected_tag!r}, got {frame.tag!r}"
            )
        return frame.payload


def make_channel_pair(
    deadline: Optional["Deadline"] = None,
) -> Tuple[Channel, Channel, ChannelStats]:
    """Create the two endpoints of a duplex link plus shared stats.

    Args:
        deadline: optional per-request budget attached to both endpoints
            (every recv is charged against it).

    Returns:
        ``(alice_end, bob_end, stats)`` — what Alice sends, Bob receives,
        and vice versa.
    """
    a_to_b: Deque[Frame] = collections.deque()
    b_to_a: Deque[Frame] = collections.deque()
    stats = ChannelStats()
    alice = Channel(outbox=a_to_b, inbox=b_to_a, stats=stats, direction="a2b")
    bob = Channel(outbox=b_to_a, inbox=a_to_b, stats=stats, direction="b2a")
    # one link state for the pair: close() on either end is visible to
    # the other end's drained recv
    bob._link = alice._link
    alice.deadline = deadline
    bob.deadline = deadline
    return alice, bob, stats


def transport_from_env() -> str:
    """The transport ``REPRO_TRANSPORT`` names, ``memory`` when unset."""
    return os.environ.get("REPRO_TRANSPORT", "memory")


def channel_factory(
    transport: str,
    stream_wrap: Optional[Callable[["socket.socket"], "socket.socket"]] = None,
) -> Callable[[], Tuple[Channel, Channel, ChannelStats]]:
    """The channel-pair factory of a transport name.

    ``memory`` is :func:`make_channel_pair`; ``socket`` is the loopback
    socketpair factory from :mod:`repro.transport`, so the same protocol
    code runs over real kernel sockets and the wire codec.  ``stream_wrap``
    wraps each socket of a ``socket`` pair: a fault plan's byte kinds,
    which :class:`repro.engine.EngineConfig` allows on ``socket`` only.

    Raises:
        EngineError: an unknown transport name.
    """
    if transport == "memory":
        return make_channel_pair
    if transport == "socket":
        # imported lazily: repro.transport builds on this module
        from ..transport import socketpair_channel_factory

        return socketpair_channel_factory(stream_wrap=stream_wrap)
    raise EngineError(f"unknown transport {transport!r}; choose from memory, socket")


def default_channel_factory() -> Callable[
    [], Tuple[Channel, Channel, ChannelStats]
]:
    """The channel-pair factory selected by ``REPRO_TRANSPORT`` — the CI
    chaos matrix sets it to ``socket`` to prove the fault taxonomy on
    the wire, not just in memory."""
    return channel_factory(transport_from_env())
