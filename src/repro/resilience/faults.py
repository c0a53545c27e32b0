"""Deterministic fault injection for the wire protocol — the chaos harness.

A :class:`FaultPlan` is a seeded, reproducible schedule of wire faults
at two layers, under one spec grammar (``kind:tag:nth[:arg]``):

* **frame kinds** — *drop, corrupt, truncate, duplicate or delay the Nth
  message matching a tag*.  A :class:`FaultyChannel` wraps any
  :class:`repro.gc.channel.Channel` endpoint and applies them at the
  framing layer — checksumming each payload before it acts — so every
  injected fault is exactly what a lossy or hostile wire would produce,
  and the integrity layer must *detect* it (typed
  :class:`repro.errors.ChannelIntegrityError` /
  :class:`~repro.errors.ChannelEmptyError`), never emit a wrong label.
  A ``delay`` is virtual: the sending wrapper records it on its pair and
  the receiving wrapper charges it to the receiver's deadline.
* **byte kinds** — below frames, on a socket.  A :class:`FaultyStream`
  (:meth:`FaultPlan.wrap`) perturbs individual ``recv``/``send`` calls:

  - ``short_read`` — from the Nth read onward, every ``recv`` returns at
    most ``size`` bytes (a trickling peer); readers must loop, never
    assume one ``recv`` yields one frame;
  - ``stall`` — the Nth read blocks ``delay_s`` seconds before any data
    moves; with a shorter socket timeout armed it surfaces as
    ``socket.timeout`` exactly as a hung peer would;
  - ``partial_write`` — the Nth write delivers only a prefix, then the
    write side shuts down: the peer observes a mid-frame EOF and must
    raise the typed :class:`repro.errors.ChannelClosedError`, never
    parse a torn frame;
  - ``disconnect`` — the Nth read observes EOF (peer vanished); sticky.

  Bytes carry no tag, so a byte kind takes tag ``*`` only.

The same plan instance is shared by both directions of a link and by
every retry attempt, so its match counters persist: a fault scheduled
for the first ``tables`` message fires once, and the retried attempt
sails through — which is what makes retry-under-chaos testable.  The
byte counters are plan-wide too (every ``recv`` of every stream the plan
wraps), so the Nth op is deterministic for a single driving thread.

Everything is deterministic under the seed: corrupt byte positions,
truncation points, unspecified read caps and write cut points come from
the plan's private ``random.Random``.
"""

from __future__ import annotations

import dataclasses
import random
import socket
import threading
import time
import zlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple, cast

from ..errors import EngineError
from ..gc.channel import Channel, ChannelStats, Frame, default_channel_factory
from ..gc.messages import TAGS

__all__ = [
    "BYTE_KINDS",
    "FAULT_KINDS",
    "FRAME_KINDS",
    "FaultPlan",
    "FaultSpec",
    "FaultyChannel",
    "FaultyStream",
    "faulty_channel_factory",
    "require_socket",
]

#: The kinds that act on whole frames, at a channel wrapper.
FRAME_KINDS = ("drop", "corrupt", "truncate", "duplicate", "delay")

#: The kinds that act on socket bytes, at a stream wrapper.
BYTE_KINDS = ("short_read", "stall", "partial_write", "disconnect")

#: The injectable fault kinds.
FAULT_KINDS = FRAME_KINDS + BYTE_KINDS

#: Matches every message tag.
ANY_TAG = "*"

#: The kinds whose argument is seconds (the others' is bytes).
_TIMED = ("delay", "stall")


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: apply ``kind`` to the Nth matching message or op.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        tag: message tag to match, one the message table declares
            (:data:`repro.gc.messages.TAGS`), or ``"*"`` for every
            message; a byte kind takes ``"*"`` only, because bytes carry
            no tag.
        nth: 0-based index at which to fire — among messages matching
            ``tag`` (frame kinds), among ``recv`` calls (read kinds) or
            among ``send``/``sendall`` calls (``partial_write``).
        size: read cap in bytes (``short_read``; 0 = seeded 1..8) or
            written-prefix length (``partial_write``; 0 = seeded cut
            strictly inside the buffer).
        delay_s: seconds — a virtual transit delay charged to the
            receiver's deadline (``delay``), or a real block of the read
            (``stall``).
    """

    kind: str
    tag: str = ANY_TAG
    nth: int = 0
    size: int = 0
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise EngineError(
                f"unknown fault kind {self.kind!r}; "
                f"choose from {', '.join(FAULT_KINDS)}"
            )
        if self.nth < 0:
            raise EngineError("fault nth must be >= 0")
        if self.size < 0:
            raise EngineError("fault size must be >= 0")
        if self.kind in BYTE_KINDS and self.tag != ANY_TAG:
            raise EngineError(
                f"{self.kind} faults act on socket bytes, which carry no "
                f"tag: use tag '*', not {self.tag!r}"
            )
        if self.tag != ANY_TAG and self.tag not in TAGS:
            raise EngineError(
                f"no message is tagged {self.tag!r}; choose from *, "
                f"{', '.join(sorted(TAGS))}"
            )
        if self.kind in _TIMED and self.delay_s <= 0:
            raise EngineError(f"{self.kind} faults need delay_s > 0")
        if self.kind not in _TIMED and self.delay_s:
            raise EngineError("delay_s is only valid for delay and stall faults")

    def matches(self, tag: str) -> bool:
        """True when this spec watches messages of ``tag`` (a byte kind
        watches no message)."""
        return self.kind in FRAME_KINDS and self.tag in (ANY_TAG, tag)

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse ``kind:tag:nth[:arg]`` (e.g. ``delay:tables:0:30``,
        ``short_read:*:0:512``): ``arg`` is seconds for ``delay`` and
        ``stall``, bytes for ``short_read`` and ``partial_write``."""
        parts = text.strip().split(":")
        if not 1 <= len(parts) <= 4:
            raise EngineError(
                f"bad fault spec {text!r}; expected kind:tag:nth[:arg]"
            )
        kind = parts[0]
        tag = parts[1] if len(parts) > 1 and parts[1] else ANY_TAG
        arg = parts[3] if len(parts) > 3 else ""
        try:
            nth = int(parts[2]) if len(parts) > 2 and parts[2] else 0
            delay_s = float(arg or 0) if kind in _TIMED else 0.0
            size = 0 if kind in _TIMED else int(arg or 0)
        except ValueError:
            raise EngineError(
                f"bad fault spec {text!r}: nth must be an int, the arg "
                "seconds (delay, stall) or whole bytes"
            ) from None
        return cls(kind=kind, tag=tag, nth=nth, size=size, delay_s=delay_s)

    def describe(self) -> str:
        """Compact ``kind:tag:nth[:arg]`` form (inverse of parse)."""
        base = f"{self.kind}:{self.tag}:{self.nth}"
        if self.delay_s:
            return f"{base}:{self.delay_s:g}"
        return f"{base}:{self.size}" if self.size else base


def require_socket(specs: Sequence[FaultSpec], transport: str) -> None:
    """Refuse a byte kind among ``specs`` unless ``transport`` is the
    socket one: only a socket has bytes for it to act on."""
    for spec in specs:
        if spec.kind in BYTE_KINDS and transport != "socket":
            raise EngineError(
                f"fault kind {spec.kind!r} acts on socket bytes: it needs "
                f"transport 'socket', not {transport!r}"
            )


class FaultPlan:
    """A seeded, shared schedule of wire faults with persistent counters.

    Thread-safe: concurrent senders (a service driven from several
    caller threads) consult one plan without double-firing a spec.

    Args:
        specs: the scheduled faults.
        seed: drives corrupt byte positions, truncation points, read
            caps and write cut points.
    """

    def __init__(self, specs: Sequence[FaultSpec], seed: int = 0) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()
        self._seen: List[int] = [0] * len(self.specs)
        self._reads = 0
        self._writes = 0
        self._read_cap: Optional[int] = None
        self._disconnected = False
        self._applied: List[Tuple[str, str, int]] = []

    @property
    def byte_kinds(self) -> Tuple[str, ...]:
        """The plan's byte kinds, in spec order: they need a socket."""
        return tuple(s.kind for s in self.specs if s.kind in BYTE_KINDS)

    # -- frames ------------------------------------------------------------

    def apply(self, frame: Frame) -> Tuple[List[Frame], float]:
        """Push one outgoing frame through the plan.

        Returns the frames that actually reach the wire — ``[]`` for a
        drop, two entries for a duplicate, a mutated single frame for
        corrupt/truncate, or the original untouched — and the virtual
        transit delay (seconds) a ``delay`` fault puts on it.  Checksums
        are never recomputed — mutations must stay detectable.
        """
        with self._lock:
            out = [frame]
            delay_s = 0.0
            for i, spec in enumerate(self.specs):
                if not spec.matches(frame.tag):
                    continue
                fire = self._seen[i] == spec.nth
                self._seen[i] += 1
                if not fire or not out:
                    continue
                if spec.kind == "delay":
                    delay_s += spec.delay_s
                else:
                    out = self._fire(spec, out[0], len(out) > 1)
                self._applied.append((spec.kind, frame.tag, frame.seq))
            return out, delay_s

    def _fire(
        self, spec: FaultSpec, frame: Frame, duplicated: bool
    ) -> List[Frame]:
        """Apply one drop/duplicate/corrupt/truncate spec (lock held)."""
        if spec.kind == "drop":
            return []
        if spec.kind == "duplicate":
            return [frame, dataclasses.replace(frame)]
        payload = bytearray(frame.payload)
        if spec.kind == "corrupt":
            if payload:
                position = self._rng.randrange(len(payload))
                payload[position] ^= self._rng.randrange(1, 256)
            else:
                payload = bytearray(b"\xff")
        else:  # truncate
            cut = self._rng.randrange(len(payload)) if payload else 0
            payload = payload[:cut]
        out = [dataclasses.replace(frame, payload=bytes(payload))]
        if duplicated:
            out.append(dataclasses.replace(frame))
        return out

    # -- socket bytes ------------------------------------------------------

    def on_read(self) -> Tuple[Optional[int], float, bool]:
        """Advance the read-op counter and decide this ``recv``'s fate.

        Returns ``(cap, stall_s, disconnect)``: the most bytes the read
        may return (``None`` = uncapped), how long it blocks first, and
        whether it observes EOF instead.
        """
        with self._lock:
            index = self._reads
            self._reads += 1
            stall_s = 0.0
            for spec in self.specs:
                if spec.kind == "short_read" and index >= spec.nth:
                    if self._read_cap is None:
                        self._read_cap = spec.size or self._rng.randint(1, 8)
                        self._applied.append(("short_read", ANY_TAG, index))
                elif spec.kind == "stall" and index == spec.nth:
                    stall_s = max(stall_s, spec.delay_s)
                    self._applied.append(("stall", ANY_TAG, index))
                elif spec.kind == "disconnect" and index >= spec.nth:
                    if not self._disconnected:
                        self._applied.append(("disconnect", ANY_TAG, index))
                    self._disconnected = True
            return self._read_cap, stall_s, self._disconnected

    def on_write(self, nbytes: int) -> Optional[int]:
        """Advance the write-op counter; a cut length means partial write.

        Returns ``None`` to let the write through untouched, else the
        number of prefix bytes to deliver before the write side closes
        (always strictly less than ``nbytes`` when ``nbytes > 0``).
        """
        with self._lock:
            index = self._writes
            self._writes += 1
            for spec in self.specs:
                if spec.kind == "partial_write" and index == spec.nth:
                    self._applied.append(("partial_write", ANY_TAG, index))
                    if nbytes <= 1:
                        return 0
                    if spec.size:
                        return min(spec.size, nbytes - 1)
                    return self._rng.randrange(1, nbytes)
            return None

    def wrap(self, sock: socket.socket) -> socket.socket:
        """Wrap ``sock`` in a :class:`FaultyStream` applying this plan.

        Typed as returning a socket because the transport layer's
        annotations name ``socket.socket``; the wrapper implements the
        subset of the socket surface the transports use.
        """
        return cast(socket.socket, FaultyStream(sock, self))

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Counters for operator output: scheduled vs applied faults."""
        with self._lock:
            return {
                "seed": self.seed,
                "specs": [s.describe() for s in self.specs],
                "reads": self._reads,
                "writes": self._writes,
                "applied": len(self._applied),
                "applied_log": list(self._applied),
            }

    @property
    def applied(self) -> List[Tuple[str, str, int]]:
        """``(kind, tag, index)`` log of every fault actually fired: the
        frame's seq for a frame kind; tag ``*`` and the socket op's
        index for a byte kind."""
        with self._lock:
            return list(self._applied)


class FaultyChannel(Channel):
    """A channel endpoint that applies a :class:`FaultPlan`'s frame kinds.

    Wraps any existing :class:`Channel` — in-memory *or* socket — by
    delegating the two transport seams (:meth:`Channel._dispatch` and
    :meth:`Channel._fetch`) to the wrapped endpoint, so every message
    of the table (:mod:`repro.gc.messages`) inherits fault coverage on
    every transport.  Receive validation stays this wrapper's (inherited) job,
    which is exactly what the harness probes.

    A fired ``delay`` is recorded under its seq on the sending wrapper and
    charged to the deadline by the peer wrapper's :meth:`_fetch` when
    the frame arrives.  The records are per pair, because a retry's
    fresh pair restarts its seqs at 0; a lone end (no ``_peer``) charges
    no delay.
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
        #: seq -> virtual delay (seconds) of each delayed frame this end sent
        self._delays: Dict[int, float] = {}
        #: the other end of a pair built by :func:`faulty_channel_factory`
        self._peer: Optional["FaultyChannel"] = None

    def _dispatch(self, frame: Frame) -> None:
        self._inner.deadline = self.deadline
        # checksum the payload as sent, before the plan may change it:
        # on either transport a corrupted copy then fails recv's check
        if frame.crc is None:
            frame.crc = zlib.crc32(frame.payload)
        frames, delay_s = self.plan.apply(frame)
        if delay_s:
            self._delays[frame.seq] = delay_s
        for mutated in frames:
            self._inner._dispatch(mutated)

    def _fetch(self, index: int, expected_tag: Optional[str]) -> Frame:
        # sessions arm deadlines on the wrapper; the socket transport
        # reads its own endpoint's deadline for recv timeouts — sync it
        # across the delegation boundary before blocking
        self._inner.deadline = self.deadline
        frame = self._inner._fetch(index, expected_tag)
        peer = self._peer
        delay_s = peer._delays.pop(frame.seq, 0.0) if peer is not None else 0.0
        if delay_s and self.deadline is not None:
            self.deadline.consume(delay_s, f"recv #{index} tagged {frame.tag!r}")
        return frame

    def close(self) -> None:
        self._inner.close()


def faulty_channel_factory(
    plan: FaultPlan,
    inner: Optional[Callable[[], Tuple[Channel, Channel, ChannelStats]]] = None,
) -> Callable[[], Tuple[Channel, Channel, ChannelStats]]:
    """A ``make_channel_pair``-compatible factory injecting ``plan``'s
    frame kinds (its byte kinds ride ``inner``'s sockets, through
    ``socketpair_channel_factory(stream_wrap=plan.wrap)``).

    Both endpoints share the plan (its counters span directions and
    survive retries), which is what makes Nth-message faults fire once
    per plan rather than once per attempt; each pair gets its own delay
    records.

    Args:
        inner: the healthy factory to wrap; ``None`` resolves through
            :func:`repro.gc.channel.default_channel_factory`, so
            ``REPRO_TRANSPORT=socket`` pushes the whole chaos matrix
            through the wire codec and kernel socketpairs.
    """

    def factory() -> Tuple[Channel, Channel, ChannelStats]:
        base = inner if inner is not None else default_channel_factory()
        alice, bob, stats = base()
        a, b = FaultyChannel(alice, plan), FaultyChannel(bob, plan)
        a._peer, b._peer = b, a
        return a, b, stats

    return factory


class FaultyStream:
    """A socket proxy that injects a :class:`FaultPlan`'s byte kinds.

    Implements the subset of the ``socket.socket`` surface the transport
    layer uses (``recv``/``send``/``sendall``/``settimeout``/
    ``setblocking``/``shutdown``/``close``, and ``fileno`` for the
    loopback sender's ``select``), delegating the real I/O to the
    wrapped socket.  Single-owner like the channels: one thread drives
    an endpoint.
    """

    def __init__(self, sock: socket.socket, plan: FaultPlan) -> None:
        self._sock = sock
        self.plan = plan

    # -- reads -------------------------------------------------------------

    def recv(self, bufsize: int) -> bytes:
        cap, stall_s, disconnect = self.plan.on_read()
        if stall_s > 0.0:
            self._stall(stall_s)
        if disconnect:  # sticky: the plan keeps answering EOF
            try:
                self._sock.shutdown(socket.SHUT_RD)
            except OSError:
                pass
            return b""
        if cap is not None:
            bufsize = max(1, min(bufsize, cap))
        return self._sock.recv(bufsize)

    def _stall(self, stall_s: float) -> None:
        """Model a hung peer, honouring the armed socket timeout."""
        timeout = self._sock.gettimeout()
        if timeout is None or stall_s < timeout:
            time.sleep(stall_s)
            return
        time.sleep(timeout)
        if timeout == 0.0:
            raise BlockingIOError("stalled peer: no bytes available")
        raise socket.timeout("stalled peer: timed out waiting for bytes")

    # -- writes ------------------------------------------------------------

    def send(self, data: bytes) -> int:
        return cast(int, self._write(data, self._sock.send))

    def sendall(self, data: bytes) -> None:
        self._write(data, self._sock.sendall)

    def _write(
        self, data: bytes, write: Callable[[bytes], Optional[int]]
    ) -> Optional[int]:
        """One ``send``/``sendall``: a partial write delivers its prefix,
        shuts the write side down and raises, as a dropped peer would."""
        cut = self.plan.on_write(len(data))
        if cut is None:
            return write(data)
        if cut > 0:
            write(data[:cut])
        try:  # later writes fail as the peer's: EPIPE on a shut socket
            self._sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        raise BrokenPipeError(
            f"connection dropped after {cut}/{len(data)} bytes (injected)"
        )

    # -- socket plumbing ---------------------------------------------------

    def settimeout(self, timeout: Optional[float]) -> None:
        self._sock.settimeout(timeout)

    def setblocking(self, flag: bool) -> None:
        self._sock.setblocking(flag)

    def shutdown(self, how: int) -> None:
        self._sock.shutdown(how)

    def close(self) -> None:
        self._sock.close()

    def fileno(self) -> int:
        return self._sock.fileno()
