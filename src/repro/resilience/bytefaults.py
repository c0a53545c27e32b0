"""Byte-granularity fault injection for stream sockets — chaos below frames.

:mod:`repro.resilience.faults` mutates whole :class:`~repro.gc.channel.Frame`
objects at the dispatch seam; everything below that — the remote
``SocketChannel``'s read loop, which reassembles every frame (control
records too) through one ``FrameDecoder``, the deadline-to-socket-timeout
mapping — never sees a fault from it.  This
module injects failures at the *byte* layer instead: a
:class:`FaultyStream` wraps a connected socket and perturbs individual
``recv``/``send`` calls according to a seeded :class:`StreamFaultPlan`:

* ``short_read`` — from the Nth read onward, every ``recv`` returns at
  most ``size`` bytes (a trickling peer); readers must loop, never
  assume one ``recv`` yields one frame.
* ``stall`` — the Nth read blocks ``stall_s`` seconds before any data
  moves; with a shorter socket timeout armed it surfaces as
  ``socket.timeout`` exactly as a hung peer would.
* ``partial_write`` — the Nth write delivers only a prefix, then the
  write side shuts down: the peer observes a mid-frame EOF and must
  raise the typed :class:`repro.errors.ChannelClosedError`, never parse
  a torn frame.
* ``disconnect`` — the Nth read observes EOF (peer vanished); sticky.

Deterministic under the seed: unspecified cut points come from the
plan's private ``random.Random``, and counters live on the plan so a
schedule spans both endpoints of a link, mirroring ``FaultPlan``.
"""

from __future__ import annotations

import dataclasses
import random
import socket
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple, cast

from ..errors import EngineError

__all__ = [
    "STREAM_FAULT_KINDS",
    "FaultyStream",
    "StreamFaultPlan",
    "StreamFaultSpec",
]

#: The injectable byte-level fault kinds.
STREAM_FAULT_KINDS = ("short_read", "stall", "partial_write", "disconnect")


@dataclasses.dataclass(frozen=True)
class StreamFaultSpec:
    """One scheduled byte-level fault at the Nth matching socket op.

    Attributes:
        kind: one of :data:`STREAM_FAULT_KINDS`.
        nth: 0-based index among ``recv`` calls (read kinds) or
            ``send``/``sendall`` calls (``partial_write``) at which to
            fire.
        size: read cap in bytes (``short_read``; 0 = seeded 1..8) or
            written-prefix length (``partial_write``; 0 = seeded cut
            strictly inside the buffer).
        stall_s: how long the stalled read blocks (``stall`` only).
    """

    kind: str
    nth: int = 0
    size: int = 0
    stall_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in STREAM_FAULT_KINDS:
            raise EngineError(
                f"unknown stream fault kind {self.kind!r}; "
                f"choose from {', '.join(STREAM_FAULT_KINDS)}"
            )
        if self.nth < 0:
            raise EngineError("stream fault nth must be >= 0")
        if self.size < 0:
            raise EngineError("stream fault size must be >= 0")
        if self.kind == "stall" and self.stall_s <= 0:
            raise EngineError("stall faults need stall_s > 0")
        if self.kind != "stall" and self.stall_s:
            raise EngineError("stall_s is only valid for stall faults")

    @classmethod
    def parse(cls, text: str) -> "StreamFaultSpec":
        """Parse ``kind:nth[:arg]`` — arg is size, or stall_s for stalls."""
        parts = text.strip().split(":")
        if not 1 <= len(parts) <= 3:
            raise EngineError(
                f"bad stream fault spec {text!r}; expected kind:nth[:arg]"
            )
        kind = parts[0]
        try:
            nth = int(parts[1]) if len(parts) > 1 and parts[1] else 0
            arg = parts[2] if len(parts) > 2 else ""
            if kind == "stall":
                return cls(kind=kind, nth=nth, stall_s=float(arg or 0.0))
            return cls(kind=kind, nth=nth, size=int(arg or 0))
        except ValueError:
            raise EngineError(
                f"bad stream fault spec {text!r}: nth must be an int"
            ) from None

    def describe(self) -> str:
        """Compact ``kind:nth[:arg]`` form (inverse of parse)."""
        if self.kind == "stall":
            return f"{self.kind}:{self.nth}:{self.stall_s:g}"
        if self.size:
            return f"{self.kind}:{self.nth}:{self.size}"
        return f"{self.kind}:{self.nth}"


@dataclasses.dataclass(frozen=True)
class _ReadDecision:
    """What the plan wants done to one ``recv`` call."""

    cap: Optional[int] = None
    stall_s: float = 0.0
    disconnect: bool = False


class StreamFaultPlan:
    """A seeded schedule of byte-level socket faults with shared counters.

    Thread-safe; one plan may cover both endpoints of a link (its read
    and write op counters are global across every stream it wraps, so
    the Nth op is deterministic for a single driving thread).

    Args:
        specs: the scheduled faults.
        seed: drives unspecified read caps and write cut points.
    """

    def __init__(self, specs: Sequence[StreamFaultSpec], seed: int = 0) -> None:
        self.specs: Tuple[StreamFaultSpec, ...] = tuple(specs)
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()
        self._reads = 0
        self._writes = 0
        self._read_cap: Optional[int] = None
        self._disconnected = False
        self._applied: List[Tuple[str, int]] = []

    @classmethod
    def parse(cls, texts: Sequence[str], seed: int = 0) -> "StreamFaultPlan":
        """Build a plan from ``kind:nth[:arg]`` spec strings."""
        return cls([StreamFaultSpec.parse(t) for t in texts], seed=seed)

    # -- application -------------------------------------------------------

    def on_read(self) -> _ReadDecision:
        """Advance the read-op counter and decide this ``recv``'s fate."""
        with self._lock:
            index = self._reads
            self._reads += 1
            stall_s = 0.0
            for spec in self.specs:
                if spec.kind == "short_read" and index >= spec.nth:
                    if self._read_cap is None:
                        self._read_cap = spec.size or self._rng.randint(1, 8)
                        self._applied.append(("short_read", index))
                elif spec.kind == "stall" and index == spec.nth:
                    stall_s = max(stall_s, spec.stall_s)
                    self._applied.append(("stall", index))
                elif spec.kind == "disconnect" and index >= spec.nth:
                    if not self._disconnected:
                        self._applied.append(("disconnect", index))
                    self._disconnected = True
            return _ReadDecision(
                cap=self._read_cap,
                stall_s=stall_s,
                disconnect=self._disconnected,
            )

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
                    self._applied.append(("partial_write", index))
                    if nbytes <= 1:
                        return 0
                    if spec.size:
                        return min(spec.size, nbytes - 1)
                    return self._rng.randrange(1, nbytes)
            return None

    # -- convenience -------------------------------------------------------

    def wrap(self, sock: socket.socket) -> socket.socket:
        """Wrap ``sock`` in a :class:`FaultyStream` applying this plan.

        Typed as returning a socket because the transport layer's
        annotations name ``socket.socket``; the wrapper implements the
        subset of the socket surface the transports use.
        """
        return cast(socket.socket, FaultyStream(sock, self))

    def stats(self) -> Dict[str, object]:
        """Counters for operator output: scheduled vs fired faults."""
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
    def applied(self) -> List[Tuple[str, int]]:
        """``(kind, op_index)`` log of every fault actually fired."""
        with self._lock:
            return list(self._applied)

    def describe(self) -> str:
        """One-line plan summary for CLI output."""
        return ",".join(s.describe() for s in self.specs) or "none"


class FaultyStream:
    """A socket proxy that injects byte-level faults per the plan.

    Implements the subset of the ``socket.socket`` surface the transport
    layer uses (``recv``/``send``/``sendall``/``settimeout``/
    ``setblocking``/``shutdown``/``close``/``fileno``), delegating the
    real I/O to the wrapped socket.  Single-owner like the channels: one
    thread drives an endpoint.
    """

    def __init__(self, sock: socket.socket, plan: StreamFaultPlan) -> None:
        self._sock = sock
        self.plan = plan
        self._timeout: Optional[float] = None
        self._eof = False
        self._write_closed = False

    # -- reads -------------------------------------------------------------

    def recv(self, bufsize: int) -> bytes:
        decision = self.plan.on_read()
        if decision.stall_s > 0.0:
            self._stall(decision.stall_s)
        if decision.disconnect or self._eof:
            self._eof = True
            try:
                self._sock.shutdown(socket.SHUT_RD)
            except OSError:
                pass
            return b""
        if decision.cap is not None:
            bufsize = max(1, min(bufsize, decision.cap))
        return self._sock.recv(bufsize)

    def _stall(self, stall_s: float) -> None:
        """Model a hung peer, honouring the armed socket timeout."""
        timeout = self._timeout
        if timeout is None:
            time.sleep(stall_s)
            return
        if stall_s < timeout:
            time.sleep(stall_s)
            return
        time.sleep(timeout)
        if timeout == 0.0:
            raise BlockingIOError("stalled peer: no bytes available")
        raise socket.timeout("stalled peer: timed out waiting for bytes")

    # -- writes ------------------------------------------------------------

    def sendall(self, data: bytes) -> None:
        if self._write_closed:
            raise BrokenPipeError("write side already torn down by fault")
        cut = self.plan.on_write(len(data))
        if cut is None:
            self._sock.sendall(data)
            return
        if cut > 0:
            self._sock.sendall(data[:cut])
        self._shut_write()
        raise BrokenPipeError(
            f"connection dropped after {cut}/{len(data)} bytes (injected)"
        )

    def send(self, data: bytes) -> int:
        if self._write_closed:
            raise BrokenPipeError("write side already torn down by fault")
        cut = self.plan.on_write(len(data))
        if cut is None:
            return self._sock.send(data)
        if cut <= 0:
            self._shut_write()
            raise BrokenPipeError("connection dropped before any byte (injected)")
        sent = self._sock.send(data[:cut])
        self._shut_write()
        return sent

    def _shut_write(self) -> None:
        self._write_closed = True
        try:
            self._sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass

    # -- socket plumbing ---------------------------------------------------

    def settimeout(self, timeout: Optional[float]) -> None:
        self._timeout = timeout
        self._sock.settimeout(timeout)

    def gettimeout(self) -> Optional[float]:
        return self._timeout

    def setblocking(self, flag: bool) -> None:
        self._timeout = None if flag else 0.0
        self._sock.setblocking(flag)

    def shutdown(self, how: int) -> None:
        self._sock.shutdown(how)

    def close(self) -> None:
        self._sock.close()

    def fileno(self) -> int:
        return self._sock.fileno()

    def __repr__(self) -> str:
        return f"FaultyStream({self._sock!r}, plan={self.plan.describe()})"
