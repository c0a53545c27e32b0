"""The worker side of the distributed serving tier.

A worker process hosts a full :class:`repro.service.PrivateInferenceService`
(its own compiled circuit, pre-garbled pool and resilience wiring) behind
a tiny control protocol: JSON records as ``"ctl"`` frames of each end's
:func:`ctl_channel`, under the connection's sequence numbers, on the
same socket the protocol flights use.  The protocol is strictly
turn-based — one side sends a control record, the other replies — and a
remote ``SocketChannel`` never reads past its own frame, so control
records and garbled-protocol frames interleave safely on a single
connection.

Control operations:

``ping``
    liveness probe; replies ``pong``.
``peer``
    host the evaluator side of a split two-party session: the caller
    names its garbling oracle — nothing else;
    :func:`open_peer_session` builds the record — then each
    process runs its own party (:mod:`repro.transport.peer`) over this
    same socket: the worker evaluates on its service's own
    ``server_bits()`` under its own rng and oracle, and keeps one OT
    state per connection, so only a connection's first session pays the
    base OT.  The reply that follows the session carries the worker's
    comm total — it cannot decode a label, which is the point — so the
    caller can assert both ends counted the same traffic.
``infer``
    serve a batch shard through ``service.infer_many``, in this thread,
    and return the per-request records (``dataclasses.asdict`` of each
    ``InferenceResult``) — the :class:`~repro.transport.sharded.ShardedService`
    data path.  The worker reads ``samples``, ``request_ids`` and the
    oracle fields below, and ignores any other.

The garbling oracle is part of the wire contract (SHA and AES tables
differ), so ``peer`` and ``infer`` records may carry the caller's
``kdf`` name and ``kdf_fingerprint``; a worker whose service garbles
under a different oracle answers ``{"ok": false}`` before any protocol
frame moves, and both acks name the worker's oracle.
``prepare``
    warm the worker's pre-garbled pool (``service.prepare``) and report
    how many copies were garbled — the sharded offline phase.
``stats``
    the service's serving counters (pool, breakers, faults) as JSON.
``shutdown``
    acknowledge and stop serving this connection.

Failure mapping is the channel layer's own: EOF or reset surfaces as
the transient :class:`repro.errors.ChannelClosedError`, a receive
timeout as :class:`repro.errors.ChannelEmptyError`, and malformed
records as :class:`repro.errors.ChannelIntegrityError`.
"""

from __future__ import annotations

import ctypes
import dataclasses
import json
import os
import socket
import threading
from typing import Any, Callable, Dict, Optional, Union

from ..errors import (
    ChannelClosedError,
    ChannelEmptyError,
    ChannelIntegrityError,
    EngineError,
)
from ..gc.channel import ChannelStats
from ..gc.cipher import oracle_fingerprint
from ..gc.messages import CTL
from ..gc.ot_extension import IKNPState
from .socket_channel import SocketChannel

__all__ = [
    "WorkerServer",
    "ctl_channel",
    "encode_ctl",
    "open_peer_session",
    "recv_ctl",
    "retain_heap",
    "send_ctl",
    "serve_connection",
]

#: Cap on one control record's JSON payload (1 MiB — a batch shard of
#: feature vectors fits with room to spare; a rogue prefix does not).
MAX_CTL_BYTES = 1 << 20

#: glibc ``mallopt`` parameters (``malloc.h``).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def retain_heap() -> None:
    """Make this *process* keep the heap it has grown (glibc only).

    For the entry point of a process that does nothing but serve
    (:func:`repro.transport.sharded._shard_main`) — never for a library
    call, the setting is process-wide.  Every batch
    allocates the same ~13 MB of label planes and garbled tables and
    frees them once its results are sent.  With glibc's defaults those
    blocks are ``mmap``-ed and unmapped, or trimmed off the heap top,
    per batch, and come back as fresh zero pages: 2 700 page faults and
    8-10 ms of a 105 ms four-request batch, kernel work whose cost moves
    with the host rather than with the program.  A worker
    reaches its high-water mark on its first batch; pinning both
    thresholds (setting either switches glibc's own adaptation off)
    makes later batches reuse that memory and fault nothing.  A no-op
    where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not a glibc-like libc
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)  # the largest value glibc accepts
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def encode_ctl(record: Dict[str, Any]) -> bytes:
    """One control record's JSON payload: raises ``TypeError`` /
    ``ValueError`` if JSON cannot carry it, ``ChannelIntegrityError``
    if it is over ``MAX_CTL_BYTES`` — before anything is sent."""
    payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_CTL_BYTES:
        raise ChannelIntegrityError(
            f"control record of {len(payload)} bytes exceeds the "
            f"{MAX_CTL_BYTES}-byte cap"
        )
    return payload


class _LinkTotals(ChannelStats):
    """A control channel's accounting: the byte totals, without the
    per-frame ``log``, which would grow for as long as the connection
    serves."""

    def record(self, direction: str, tag: str, size: int) -> None:
        super().record(direction, tag, size)
        self.log.clear()


def ctl_channel(sock: socket.socket, direction: str = "a2b") -> SocketChannel:
    """The channel one end of a connection sends and receives its control
    records on: remote mode, capped at ``MAX_CTL_BYTES``; the caller's end
    is ``"a2b"``, the worker's ``"b2a"``.  Closing it closes ``sock``."""
    return SocketChannel(sock, direction, stats=_LinkTotals(), max_payload=MAX_CTL_BYTES)


def send_ctl(channel: SocketChannel, record: Union[Dict[str, Any], bytes]) -> None:
    """Send one JSON control record, or its :func:`encode_ctl` payload,
    as the channel's next ``"ctl"`` frame."""
    payload = record if isinstance(record, bytes) else encode_ctl(record)
    CTL.send(channel, payload)


def recv_ctl(channel: SocketChannel, timeout: Optional[float] = None) -> Dict[str, Any]:
    """Receive one control record: the channel checks the frame
    (sequence, CRC, ``"ctl"`` tag) and maps EOF and timeouts; this checks
    the JSON shape.  ``timeout``, when given, becomes the channel's
    :attr:`~SocketChannel.io_timeout_s`.

    Raises:
        ChannelClosedError: peer closed the connection (transient).
        ChannelEmptyError: no whole record arrived within the timeout; a
            partial one is resumed by the next call.
        ChannelIntegrityError: the record is malformed (wrong tag or
            sequence number, CRC mismatch, or non-object JSON).
    """
    if timeout is not None:
        channel.io_timeout_s = timeout
    payload = CTL.recv(channel)
    try:
        record = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise ChannelIntegrityError(
            "control record payload is not valid JSON"
        ) from None
    if not isinstance(record, dict):
        raise ChannelIntegrityError(
            f"control record must be a JSON object, got "
            f"{type(record).__name__}"
        )
    return record


def _oracle_fields(kdf: Any) -> Dict[str, str]:
    """How a control record names a garbling oracle: the name is for
    the operator, the fingerprint is what gets compared."""
    return {
        "kdf": getattr(kdf, "name", type(kdf).__name__),
        "kdf_fingerprint": oracle_fingerprint(kdf),
    }


def _foreign_oracle(service: Any, record: Dict[str, Any]) -> Optional[str]:
    """Why ``record``'s caller cannot share tables with ``service``.

    None when the record names no oracle (a caller that does not garble)
    or names this service's.
    """
    theirs = record.get("kdf_fingerprint")
    if theirs is None or theirs == oracle_fingerprint(service.kdf):
        return None
    return (
        f"garbling oracle mismatch: caller runs {record.get('kdf')!r}, "
        f"this worker {service.kdf_name!r}; tables garbled under one do "
        "not evaluate under the other — set the same kdf_backend on both"
    )


def open_peer_session(
    ctl: SocketChannel, kdf: Any, timeout: float = 60.0
) -> Dict[str, Any]:
    """The caller's half of the ``peer`` op: name the oracle, await the ack.

    The record carries the oracle fields — no input bit and no seed: each
    process holds its own.  ``ctl`` is the caller's control channel
    (:func:`ctl_channel`).  On return the worker is committed to reading
    protocol frames and the caller runs its side on ``ctl``'s socket
    (:func:`~repro.transport.peer.run_two_party_peer` as the garbler,
    with the same ``kdf``).

    Raises:
        EngineError: the worker refused — its service garbles under a
            different oracle than ``kdf``.  No protocol frame has moved.
    """
    send_ctl(ctl, {"op": "peer", **_oracle_fields(kdf)})
    ack = recv_ctl(ctl, timeout=timeout)
    if not ack.get("ok"):
        raise EngineError(
            f"worker refused the peer session: "
            f"{ack.get('error', 'unknown error')}"
        )
    return ack


def _handle_peer(
    ctl: SocketChannel, sock: socket.socket, service: Any, record: Dict[str, Any],
    ot_state: IKNPState,
) -> None:
    """Host the evaluator side of one split session on ``ctl``'s socket."""
    from .peer import run_two_party_peer

    refusal = _foreign_oracle(service, record)
    if refusal is not None:
        send_ctl(ctl, {"ok": False, "op": "peer", "error": refusal})
        return
    # ack first: the caller must not start its side of the session until
    # the worker is committed to reading protocol frames
    send_ctl(ctl, {"ok": True, "op": "peer", **_oracle_fields(service.kdf)})
    result = run_two_party_peer(
        sock,
        "evaluator",
        service.compiled.circuit,
        service.compiled.server_bits(),
        kdf=service.kdf,
        ot_group=service.config.ot_group,
        rng=service.config.rng,
        request_timeout_s=service.config.request_timeout_s,
        ot_state=ot_state,
    )
    send_ctl(
        ctl,
        {"ok": True, "op": "peer_result", "comm_bytes": sum(result.comm.values())},
    )


def _handle_infer(ctl: SocketChannel, service: Any, record: Dict[str, Any]) -> None:
    """Serve one batch shard through the worker's own service."""
    import numpy as np

    refusal = _foreign_oracle(service, record)
    if refusal is not None:
        send_ctl(ctl, {"ok": False, "op": "infer", "error": refusal})
        return
    samples = record.get("samples", [])
    request_ids = record.get("request_ids") or [None] * len(samples)
    from ..service import InferenceRequest

    requests = [
        InferenceRequest(
            sample=np.asarray(sample, dtype=float), request_id=request_id
        )
        for sample, request_id in zip(samples, request_ids)
    ]
    results = service.infer_many(requests, return_errors=True)
    send_ctl(
        ctl,
        {
            "ok": True,
            "op": "infer",
            # the front-end's inverse is InferenceResult(**record)
            "results": [dataclasses.asdict(r) for r in results],
            **_oracle_fields(service.kdf),
        },
    )


def serve_connection(
    sock: socket.socket,
    service: Any,
    should_stop: Optional[Callable[[], bool]] = None,
    poll_interval_s: float = 0.25,
) -> Dict[str, int]:
    """Serve control records on ``sock`` until shutdown or disconnect.

    An in-flight record is always finished before the loop re-checks
    anything — the drain guarantee: no request is dropped mid-handling.
    A malformed record (:class:`~repro.errors.ChannelIntegrityError`)
    drops *this connection* — framing sync with the peer is gone — but
    never the server; a handler exception is reported to the peer as an
    ``{"ok": False}`` reply and serving continues.

    Args:
        should_stop: optional drain signal, checked between records
            (the loop polls ``recv_ctl`` with ``poll_interval_s`` so an
            idle connection notices the signal promptly; a record whose
            bytes straddle a poll tick is resumed, not lost).

    Returns per-operation counters (``{"peer": 2, "infer": 1, ...}``)
    plus ``integrity_errors`` / ``op_errors`` for operator output.
    """
    counters: Dict[str, int] = {}
    peer_ot: Optional[IKNPState] = None
    ctl = ctl_channel(sock, "b2a")
    while True:
        if should_stop is not None and should_stop():
            break
        try:
            record = recv_ctl(
                ctl, timeout=poll_interval_s if should_stop is not None else None
            )
        except ChannelEmptyError:
            continue  # idle poll tick: re-check the drain signal
        except ChannelClosedError:
            break  # caller went away: a clean end of this connection
        except ChannelIntegrityError:
            # garbage bytes and replayed or stale records desync the
            # frame stream: drop the connection, keep the server alive
            counters["integrity_errors"] = counters.get("integrity_errors", 0) + 1
            break
        op = str(record.get("op", ""))
        counters[op] = counters.get(op, 0) + 1
        try:
            if op == "ping":
                send_ctl(ctl, {"ok": True, "op": "pong"})
            elif op == "peer":
                # the connection's OT half outlives every session on it,
                # a failed one too: the extension counter crosses the wire
                peer_ot = peer_ot or IKNPState(
                    service.config.ot_group, service.config.rng
                )
                _handle_peer(ctl, sock, service, record, peer_ot)
            elif op == "infer":
                _handle_infer(ctl, service, record)
            elif op == "prepare":
                count = record.get("count")
                warmed = service.prepare(int(count) if count is not None else None)
                send_ctl(ctl, {"ok": True, "op": "prepare", "warmed": warmed})
            elif op == "stats":
                send_ctl(ctl, {"ok": True, "op": "stats", "stats": service.stats})
            elif op == "shutdown":
                send_ctl(ctl, {"ok": True, "op": "shutdown"})
                break
            else:
                send_ctl(ctl, {"ok": False, "error": f"unknown op {op!r}"})
        except ChannelClosedError:
            break  # peer vanished mid-reply
        except Exception as exc:  # noqa: B902 - a handler bug must not kill the host
            counters["op_errors"] = counters.get("op_errors", 0) + 1
            try:
                send_ctl(
                    ctl,
                    {
                        "ok": False,
                        "op": op,
                        "error": str(exc),
                        "error_type": type(exc).__name__,
                    },
                )
            except ChannelClosedError:
                break
    return counters


class WorkerServer:
    """A TCP listener hosting one service for the ``cli worker`` command.

    Connections are served one at a time (the protocol is turn-based and
    CPU-bound; a worker *is* the unit of parallelism — run more workers
    for more concurrency, which is exactly what ``ShardedService`` does).

    Args:
        service: the :class:`~repro.service.PrivateInferenceService` to host.
        host / port: bind address; port 0 picks a free port (read it
            back from :attr:`address` or the ``port_file``).
    """

    def __init__(self, service: Any, host: str = "127.0.0.1", port: int = 0) -> None:
        self._service = service
        self._listener = socket.create_server((host, port))
        self.address = self._listener.getsockname()
        self.counters: Dict[str, int] = {}
        self.connections = 0
        self._draining = threading.Event()
        self._port_file: Optional[str] = None

    def write_port_file(self, path: str) -> None:
        """Publish ``host port`` for a front-end process to discover.

        The file is the worker's liveness token: :meth:`close` removes
        it again so a stale path never points at a dead worker.
        """
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"{self.address[0]} {self.address[1]}\n")
        self._port_file = path

    @property
    def draining(self) -> bool:
        """Whether :meth:`request_shutdown` has been called."""
        return self._draining.is_set()

    def request_shutdown(self) -> None:
        """Begin a graceful drain (signal-safe; callable from SIGTERM).

        Sets the drain flag — the connection loop finishes its in-flight
        record, then stops — and shuts the listener down so a blocked
        ``accept`` wakes immediately instead of waiting for a client
        (closing the fd alone does not interrupt an accept already
        parked in the syscall).
        """
        self._draining.set()
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # not listening yet / already closed: nothing to wake
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def serve_forever(self, once: bool = False) -> None:
        """Accept and serve connections until shutdown or drain.

        Stops on an explicit ``shutdown`` record, after the first
        connection when ``once`` is set (the CI smoke-test mode), or
        when :meth:`request_shutdown` fires — in-flight records always
        finish first.
        """
        try:
            while not self._draining.is_set():
                try:
                    conn, _ = self._listener.accept()
                except OSError:
                    if self._draining.is_set():
                        break  # listener closed by request_shutdown
                    raise
                self.connections += 1
                try:
                    served = serve_connection(
                        conn, self._service, should_stop=self._draining.is_set
                    )
                finally:
                    conn.close()
                for op, count in served.items():
                    self.counters[op] = self.counters.get(op, 0) + count
                if once or served.get("shutdown"):
                    break
        finally:
            self.close()

    def close(self) -> None:
        """Stop listening and remove the port file (idempotent)."""
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if self._port_file is not None:
            try:
                os.unlink(self._port_file)
            except OSError:
                pass
            self._port_file = None
