"""In-memory duplex channel with byte accounting and wire integrity.

The paper's headline observation is that GC execution time is dominated
by *communication* (garbled-table transfer), so every protocol object in
this package moves data through a :class:`Channel` that counts bytes per
direction.  The in-memory implementation keeps the two parties in one
process (deterministic tests) while preserving exact wire sizes.

Messages travel as :class:`Frame` objects carrying a tag, a
per-direction sequence number and a CRC-32 checksum over the payload.
``recv`` validates all three, so a corrupted, truncated, dropped or
duplicated message surfaces as a typed
:class:`repro.errors.ChannelIntegrityError` instead of garbage labels —
the detection layer the fault-injection harness
(:mod:`repro.resilience`) and the future socket transport both build on.
A :class:`repro.resilience.Deadline` attached to an endpoint is charged
on every ``recv`` (including injected virtual delays), so no receive
outlives the per-request budget.
"""

from __future__ import annotations

import collections
import dataclasses
import os
import struct
import zlib
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ChannelClosedError, ChannelEmptyError, ChannelIntegrityError
from .labels import LabelsLike, label_ints, label_rows

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..resilience.deadline import Deadline

__all__ = [
    "Channel",
    "ChannelStats",
    "Frame",
    "default_channel_factory",
    "make_channel_pair",
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
        crc: CRC-32 over the payload *as sent* — kept verbatim by the
            fault injector so corruption stays detectable.
        delay_s: virtual transit delay (seconds) charged against the
            receiver's deadline; 0 for a healthy link.
    """

    tag: str
    seq: int
    payload: bytes
    crc: int
    delay_s: float = 0.0


class ChannelStats:
    """Bytes sent per direction plus a message log for reports."""

    def __init__(self) -> None:
        self.bytes_a_to_b = 0
        self.bytes_b_to_a = 0
        self.log: List[Tuple[str, str, int]] = []

    def record(self, direction: str, tag: str, size: int) -> None:
        """Account one message."""
        if direction == "a2b":
            self.bytes_a_to_b += size
        else:
            self.bytes_b_to_a += size
        self.log.append((direction, tag, size))

    def by_tag(self) -> Dict[str, int]:
        """Aggregate traffic per message tag (e.g. 'tables', 'ot')."""
        agg: Dict[str, int] = {}
        for _, tag, size in self.log:
            agg[tag] = agg.get(tag, 0) + size
        return agg


class _LinkState:
    """Mutable state shared by both endpoints of one duplex link."""

    __slots__ = ("closed",)

    def __init__(self) -> None:
        self.closed = False


class Channel:
    """One endpoint of an in-memory duplex link.

    Also the base class of every other transport: the framing, the
    validation and the typed helpers live here, while subclasses swap
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
        """Send a length-prefixed, checksummed byte string."""
        payload = bytes(data)
        frame = Frame(
            tag=tag,
            seq=self._sent,
            payload=payload,
            crc=zlib.crc32(payload),
        )
        self._sent += 1
        self._dispatch(frame)

    def _dispatch(self, frame: Frame) -> None:
        """Put one frame on the wire and account it.

        The single enqueue point — the fault-injection channel overrides
        this to mutate, drop, duplicate or delay frames after framing
        (so checksums keep protecting the original payload).
        """
        self._outbox.append(frame)
        self._stats.record(self._direction, frame.tag, len(frame.payload) + 4)

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
            DeadlineExceeded: the endpoint's deadline expired (injected
                transit delays are charged before the check).
        """
        index = self._received
        frame = self._fetch(index, expected_tag)
        if self.deadline is not None:
            context = f"recv #{index} tagged {frame.tag!r}"
            if frame.delay_s > 0.0:
                self.deadline.consume(frame.delay_s, context)
            self.deadline.check(context)
        if frame.seq != index:
            raise ChannelIntegrityError(
                f"out-of-sequence message on {self._direction!r}: expected "
                f"#{index}, got #{frame.seq} tagged {frame.tag!r} "
                "(dropped or duplicated message upstream)"
            )
        self._received += 1
        if zlib.crc32(frame.payload) != frame.crc:
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

    # -- label vectors -----------------------------------------------------

    def send_labels(self, labels: LabelsLike, tag: str = "labels") -> None:
        """Send a vector of 128-bit labels (16 bytes each), ints or rows."""
        payload = label_rows(labels).tobytes()
        self.send_bytes(struct.pack("<I", len(labels)) + payload, tag)

    def recv_labels(self, expected_tag: Optional[str] = None) -> List[int]:
        """Receive a label vector."""
        return label_ints(self.recv_label_rows(expected_tag))

    def recv_label_rows(self, expected_tag: Optional[str] = None) -> np.ndarray:
        """Receive a label vector as a read-only ``(n, 16)`` uint8 view."""
        data = self.recv_bytes(expected_tag)
        if len(data) < 4:
            raise ChannelIntegrityError(
                f"label payload too short ({len(data)} bytes)"
            )
        (count,) = struct.unpack("<I", data[:4])
        if len(data) != 4 + 16 * count:
            raise ChannelIntegrityError(
                f"label payload size mismatch: declares {count} entries, "
                f"carries {len(data) - 4} bytes"
            )
        return np.frombuffer(data, dtype=np.uint8, offset=4).reshape(count, 16)


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


def default_channel_factory() -> Callable[
    [], Tuple[Channel, Channel, ChannelStats]
]:
    """The channel-pair factory selected by ``REPRO_TRANSPORT``.

    ``memory`` (default) returns :func:`make_channel_pair`;
    ``socket`` returns the loopback socketpair factory from
    :mod:`repro.transport`, so the same protocol code runs over real
    kernel sockets and the wire codec — the CI chaos matrix sets this
    to prove the fault taxonomy on the wire, not just in memory.
    """
    transport = os.environ.get("REPRO_TRANSPORT", "memory")
    if transport == "socket":
        # imported lazily: repro.transport builds on this module
        from ..transport import socketpair_channel_factory

        return socketpair_channel_factory()
    if transport != "memory":
        raise ValueError(
            f"unknown REPRO_TRANSPORT {transport!r}; use 'memory' or 'socket'"
        )
    return make_channel_pair
