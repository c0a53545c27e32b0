""":class:`SocketChannel` — the ``Channel`` surface over a stream socket.

The in-memory channel's framing, validation, byte accounting and typed
helpers all live in :class:`repro.gc.channel.Channel`; this subclass
swaps only the two transport seams:

- ``_dispatch`` encodes the frame with :mod:`repro.transport.wire` and
  writes it to a connected socket;
- ``_fetch`` decodes the next frame off it with the endpoint's
  :class:`~repro.transport.wire.FrameDecoder`.

Failure mapping onto the PR 8 transient taxonomy, so retry policies and
circuit breakers work unchanged:

- peer closed / connection reset  -> :class:`repro.errors.ChannelClosedError`
- read timeout, deadline expired  -> :class:`repro.errors.DeadlineExceeded`
  (when a deadline is armed) or :class:`repro.errors.ChannelEmptyError`
  (no deadline: the message never arrived — dropped-message semantics)
- malformed wire data             -> :class:`repro.errors.ChannelIntegrityError`

Two read modes:

- **remote** (default): blocking reads within one timeout per frame,
  derived from the endpoint's deadline (capped by ``io_timeout_s``) —
  the "deadlines map to socket timeouts" contract.  A read asks only
  for what the frame being decoded lacks, so endpoints sharing a socket
  (a connection's control channel and its peer sessions') never read
  each other's frames, and a timeout mid-frame is resumed by the next
  receive.  The other endpoint is in another process, so this one
  accounts what it *receives* under the far party's direction: each
  process reports the link's full per-tag traffic, equal on both ends
  and equal to an in-memory pair's.
- **loopback**: both endpoints of a ``socket.socketpair()`` live in one
  process and are driven by one thread (exactly how the sessions drive
  the in-memory pair).  Receives drain whatever the kernel has buffered
  and raise ``ChannelEmptyError`` when nothing is pending — identical
  semantics to the in-memory deque, but every byte crosses the codec
  and a real kernel socket.  Sends never deadlock on a full socket
  buffer: when the kernel would block, the sender drains its peer's
  inbound bytes into the peer's frame queue to free buffer space.

An endpoint is single-owner: one thread (or process) drives it, which
is the same ownership rule the sessions already follow.
"""

from __future__ import annotations

import collections
import select
import socket
import time
from typing import Callable, List, Optional, Tuple

from ..errors import ChannelClosedError, ChannelEmptyError
from ..gc.channel import Channel, ChannelStats, Frame
from ..gc.messages import LENGTH_PREFIX
from .wire import MAX_PAYLOAD_BYTES, FrameDecoder, encode_frame

__all__ = [
    "DEFAULT_IO_TIMEOUT_S",
    "SocketChannel",
    "socketpair_channel_factory",
]

#: Default cap on one blocking receive of a frame (seconds).  Generous
#: against CI scheduling noise, small enough that a dead peer surfaces as
#: a typed transient error instead of a hung job.
DEFAULT_IO_TIMEOUT_S = 30.0

_RECV_CHUNK = 1 << 16


class SocketChannel(Channel):
    """One endpoint of a duplex frame link over a connected socket.

    Args:
        sock: a connected stream socket (TCP or socketpair).  The
            channel owns it: :meth:`close` shuts it down.
        direction: ``"a2b"`` or ``"b2a"`` — which party's sends this
            endpoint carries (accounting direction, as in-memory).
        stats: byte accounting; loopback pairs share one instance so
            totals match the in-memory pair exactly.
        io_timeout_s: cap on one blocking receive of a whole frame,
            however its bytes trickle in (a public attribute, settable
            between receives); the armed deadline's remaining budget
            lowers it further.
        max_payload: wire codec size cap for this link.
    """

    def __init__(
        self,
        sock: socket.socket,
        direction: str,
        stats: Optional[ChannelStats] = None,
        io_timeout_s: float = DEFAULT_IO_TIMEOUT_S,
        max_payload: int = MAX_PAYLOAD_BYTES,
    ) -> None:
        super().__init__(
            outbox=collections.deque(),
            inbox=collections.deque(),
            stats=stats if stats is not None else ChannelStats(),
            direction=direction,
        )
        self._sock = sock
        self.io_timeout_s = io_timeout_s
        self._max_payload = max_payload
        self._decoder = FrameDecoder(max_payload=max_payload)
        #: set on both ends of a loopback pair; None for a remote link
        self._loopback_peer: Optional["SocketChannel"] = None

    # -- send side ---------------------------------------------------------

    def _dispatch(self, frame: Frame) -> None:
        data = encode_frame(frame, max_payload=self._max_payload)
        if self._loopback_peer is None:
            self._send_blocking(data)
        else:
            self._send_loopback(data)
        # accounting parity with the in-memory channel: payload + the
        # 4-byte length prefix the paper's comm model charges (the real
        # header is larger; the *protocol* cost model stays unchanged)
        self._stats.record(self._direction, frame.tag, len(frame.payload) + LENGTH_PREFIX)

    def _send_blocking(self, data: bytes) -> None:
        try:
            self._sock.sendall(data)
        except (BrokenPipeError, ConnectionResetError):
            self._link.closed = True
            raise ChannelClosedError(
                f"send on {self._direction!r} endpoint failed: peer closed "
                "the connection"
            ) from None

    def _send_loopback(self, data: bytes) -> None:
        """Send without deadlocking the single driving thread.

        Both loopback endpoints are driven by one thread, so a blocking
        ``sendall`` of a frame larger than the kernel buffers would wait
        for a reader that can never run.  Instead: non-blocking sends,
        and when the kernel would block, drain the peer's inbound bytes
        (our own earlier sends) into its decoded-frame queue.
        """
        peer = self._loopback_peer
        assert peer is not None
        view = memoryview(data)
        offset = 0
        self._sock.setblocking(False)
        try:
            while offset < len(view):
                try:
                    offset += self._sock.send(view[offset:])
                except (BlockingIOError, InterruptedError):
                    if not peer._drain_ready():
                        # nothing decodable yet: wait for writability
                        select.select([], [self._sock], [], 0.05)
                except (BrokenPipeError, ConnectionResetError):
                    self._link.closed = True
                    raise ChannelClosedError(
                        f"send on {self._direction!r} endpoint failed: peer "
                        "closed the loopback socket"
                    ) from None
        finally:
            self._sock.setblocking(True)

    # -- receive side ------------------------------------------------------

    def _drain_ready(self) -> int:
        """Pull every kernel-buffered byte into the frame queue (non-blocking).

        Returns the number of frames completed.
        """
        count = 0
        self._sock.setblocking(False)
        try:
            while True:
                try:
                    chunk = self._sock.recv(_RECV_CHUNK)
                except (BlockingIOError, InterruptedError):
                    break  # EAGAIN: nothing more is buffered
                except OSError:  # reset, or the fd is gone
                    chunk = b""
                if not chunk:
                    self._link.closed = True
                    break
                frames = self._decoder.feed(chunk)
                self._inbox.extend(frames)
                count += len(frames)
        finally:
            self._sock.setblocking(True)
        return count

    def _fetch(self, index: int, expected_tag: Optional[str]) -> Frame:
        if self._loopback_peer is None:
            return self._fetch_blocking(index, expected_tag)
        if not self._inbox:
            self._drain_ready()
        # the base class pops the frame, or raises the typed empty/closed error
        return super()._fetch(index, expected_tag)

    def _fetch_blocking(self, index: int, expected_tag: Optional[str]) -> Frame:
        if self._link.closed:
            return super()._fetch(index, expected_tag)
        expectation = (
            f" tagged {expected_tag!r}" if expected_tag is not None else ""
        )
        timeout = self.io_timeout_s
        if self.deadline is not None:
            # deadlines map to socket timeouts: never block past the
            # request budget (check() below turns expiry into the typed
            # DeadlineExceeded)
            self.deadline.check(f"recv #{index}{expectation}")
            timeout = min(timeout, max(self.deadline.remaining(), 1e-3))
        # one budget for the whole frame, not for each read: a peer
        # that trickles bytes cannot stretch the wait past it
        until = time.monotonic() + timeout
        frames: List[Frame] = []
        try:
            while not frames:
                left = until - time.monotonic()
                if left <= 0:
                    raise socket.timeout
                self._sock.settimeout(left)
                # never past this frame: the next one may be another
                # endpoint's on the same socket
                chunk = self._sock.recv(self._decoder.missing)
                if not chunk:
                    break
                frames = self._decoder.feed(chunk)
        except socket.timeout:
            if self.deadline is not None:
                # the wait itself was real elapsed time — check, don't
                # double-charge; expiry surfaces as DeadlineExceeded
                self.deadline.check(f"recv #{index}{expectation}")
            raise ChannelEmptyError(
                f"recv timeout on {self._direction!r} endpoint: no frame "
                f"#{index}{expectation} within {timeout:.3f}s "
                "(peer hung or message dropped)"
            ) from None
        except ConnectionResetError:
            pass  # the peer is gone: handled as EOF below
        finally:
            try:
                self._sock.settimeout(None)
            except OSError:  # pragma: no cover - fd already torn down
                pass
        if not frames:  # EOF or reset: the base class raises the typed close
            self._link.closed = True
            return super()._fetch(index, expected_tag)
        (frame,) = frames
        # the sender's accounting lives in its own process: charge the
        # frame here, as the far endpoint's _dispatch does there
        self._stats.record(
            "b2a" if self._direction == "a2b" else "a2b",
            frame.tag, len(frame.payload) + LENGTH_PREFIX,
        )
        return frame

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Close this end of the link.

        Already-decoded frames stay deliverable (matching the in-memory
        close semantics); the peer's next drained read surfaces the
        typed transient :class:`repro.errors.ChannelClosedError`.
        """
        if self._loopback_peer is not None:
            # preserve in-flight frames for ourselves before the fd goes
            self._drain_ready()
        self._link.closed = True
        try:
            self._sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass


def socketpair_channel_factory(
    io_timeout_s: float = DEFAULT_IO_TIMEOUT_S,
    max_payload: int = MAX_PAYLOAD_BYTES,
    stream_wrap: Optional[Callable[[socket.socket], socket.socket]] = None,
) -> Callable[[], Tuple[Channel, Channel, ChannelStats]]:
    """A ``make_channel_pair``-compatible factory over kernel socketpairs.

    Drop-in for the in-memory factory: both endpoints live in one
    process and share one :class:`~repro.gc.channel.ChannelStats`, but
    every frame round-trips through :func:`~repro.transport.wire.encode_frame`
    and a real ``socket.socketpair()`` — the configuration behind
    ``EngineConfig(transport="socket")`` and ``REPRO_TRANSPORT=socket``.

    Args:
        stream_wrap: optional socket wrapper applied to both endpoints —
            the seam for a fault plan's byte kinds
            (:meth:`repro.resilience.FaultPlan.wrap` pushes whole
            sessions through a :class:`~repro.resilience.FaultyStream`).
    """

    def factory() -> Tuple[Channel, Channel, ChannelStats]:
        left, right = socket.socketpair()
        if stream_wrap is not None:
            left = stream_wrap(left)
            right = stream_wrap(right)
        stats = ChannelStats()
        alice = SocketChannel(
            left, "a2b", stats=stats,
            io_timeout_s=io_timeout_s, max_payload=max_payload,
        )
        bob = SocketChannel(
            right, "b2a", stats=stats,
            io_timeout_s=io_timeout_s, max_payload=max_payload,
        )
        alice._loopback_peer = bob
        bob._loopback_peer = alice
        bob._link = alice._link
        return alice, bob, stats

    return factory
