"""Socket transport for the garbled-circuit wire protocol.

Everything below the :class:`repro.gc.channel.Channel` surface moved
frames through in-process deques; this package moves the *same* frames
through real sockets so garbler and evaluator can live in separate
processes (or hosts), each holding its own secrets, on the session code
the in-memory runs execute:

- :mod:`repro.transport.wire` — the length-prefixed codec: one
  ``Frame`` (tag / seq / CRC / payload, behind a 21-byte header) per
  wire record, size-capped, with malformed input surfacing as the existing typed
  :class:`repro.errors.ChannelIntegrityError`; ``FrameDecoder`` reads
  every frame this package receives.
- :mod:`repro.transport.socket_channel` — :class:`SocketChannel`, a
  ``Channel`` whose dispatch/fetch seams are a connected stream socket;
  plus a loopback socketpair factory that is drop-in for
  ``make_channel_pair`` (deterministic tests over kernel sockets).
- :mod:`repro.transport.peer` — the session split: a channel factory
  that gives a session the hosted party's end and ``None`` for the
  other, so each process runs its own party's steps on its own input
  and rng; the frames (sizes, tags, order, comm accounting) are the
  in-memory run's, plus one framed base-OT set-up per connection.
- :mod:`repro.transport.worker` — the ``cli worker`` protocol: JSON
  control records as frames of a ``SocketChannel`` (``ctl_channel``),
  served by a loop hosting peer sessions and whole inference shards.
- :mod:`repro.transport.sharded` — :class:`ShardedService`, the
  multi-process front-end partitioning ``infer_many`` batches across
  worker processes that each own a ``PregarbledPool`` shard, and
  healing them: each shard's state machine keeps its own restart
  schedule, and the front-end's one loop probes and steps them.

Failure semantics are the PR 8 taxonomy: disconnects surface as the
transient :class:`repro.errors.ChannelClosedError`, timeouts as
:class:`repro.errors.ChannelEmptyError` /
:class:`repro.errors.DeadlineExceeded`, so ``RetryPolicy`` and
``CircuitBreaker`` work unchanged across transports.
"""

from .peer import peer_channel_factory, run_two_party_peer
from .sharded import ShardedService
from .socket_channel import SocketChannel, socketpair_channel_factory
from .wire import (
    HEADER_SIZE,
    MAGIC,
    MAX_PAYLOAD_BYTES,
    MAX_TAG_BYTES,
    FrameDecoder,
    encode_frame,
)
from .worker import WorkerServer, ctl_channel, recv_ctl, send_ctl

__all__ = [
    "HEADER_SIZE",
    "MAGIC",
    "MAX_PAYLOAD_BYTES",
    "MAX_TAG_BYTES",
    "FrameDecoder",
    "ShardedService",
    "SocketChannel",
    "WorkerServer",
    "ctl_channel",
    "encode_frame",
    "peer_channel_factory",
    "recv_ctl",
    "run_two_party_peer",
    "send_ctl",
    "socketpair_channel_factory",
]
