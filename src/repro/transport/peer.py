"""Lockstep-mirrored session split: one party per process, one wire.

The sessions (:class:`repro.gc.protocol.TwoPartySession`,
:class:`repro.gc.sequential.SequentialSession`) are written as the
textbook interleaving of *both* parties' protocol steps over one channel
pair — which is exactly what makes them deterministic and testable in
one process.  This module runs that same interleaved program on **two**
processes without changing a line of session code:

- Both processes construct the session with identical parameters and an
  identically seeded rng, so they execute the same deterministic
  protocol program in lockstep (label draws, OT matrices, every flight
  size — the reproduction's existing shared-randomness trust model).
  That is why neither runner below hands its session an ``ot_state``:
  each end builds a fresh OT-extension state from the shared seed, per
  call.  An end that reused an older state (a worker's service keeps
  one) would skip draws its peer makes and decode foreign labels.
- On the process hosting party P, P's endpoint is a real
  :class:`~repro.transport.socket_channel.SocketChannel`: its sends go
  on the wire (and are echoed into a local mirror queue), its receives
  come off the wire — produced by the *remote* process.
- The other party's endpoint is a :class:`_MirrorEnd`: its sends are
  locally recomputed duplicates of what the remote actually sent, so
  they are accounted (byte parity with the in-memory stats) and
  dropped; its receives pop the mirror queue fed by the real endpoint.

Net effect: every wire flight of the in-memory run crosses the real
socket exactly once, produced by its owning party and validated by the
other — so a two-process run yields byte-identical output labels *and*
byte-identical comm accounting to the in-memory run under the same
seed.  What the split distributes is the wire and the processes, not
cryptographic trust: mirroring requires the shared seed, which is the
trust model this reproduction already runs under (and documents).
"""

from __future__ import annotations

import collections
import socket
from typing import Callable, Deque, List, Optional, Tuple

from ..circuits.netlist import Circuit
from ..circuits.sequential import SequentialCircuit
from ..errors import EngineError
from ..gc.channel import Channel, ChannelStats, Frame
from ..gc.cipher import HashKDF
from ..gc.ot import MODP_2048, OTGroup
from ..gc.protocol import ProtocolResult, TwoPartySession
from ..gc.rng import RngLike
from ..gc.sequential import SequentialResult, SequentialSession
from .socket_channel import DEFAULT_IO_TIMEOUT_S, SocketChannel

__all__ = [
    "PEER_ROLES",
    "peer_channel_factory",
    "run_folded_peer",
    "run_two_party_peer",
]

#: The two sides of a split session: the garbler role hosts Alice's
#: endpoint (tables, input labels and OT masks go out on the wire), the
#: evaluator role hosts Bob's (OT choice columns and the merge-step
#: output labels go out).
PEER_ROLES = ("garbler", "evaluator")


class _MirrorEnd(Channel):
    """The remote party's endpoint, as mirrored on this process.

    Sends are locally recomputed duplicates of frames the remote process
    puts on the real wire: they are byte-accounted (so ``stats`` matches
    the in-memory run on *both* processes) and dropped.  Receives pop
    the echo queue fed by this process's real endpoint, inheriting the
    full seq/CRC/tag validation from the base class.
    """

    def _dispatch(self, frame: Frame) -> None:
        self._stats.record(self._direction, frame.tag, len(frame.payload) + 4)


def peer_channel_factory(
    sock: socket.socket,
    role: str,
    io_timeout_s: float = DEFAULT_IO_TIMEOUT_S,
) -> Callable[[], Tuple[Channel, Channel, ChannelStats]]:
    """A session channel factory for one process hosting one party.

    Each call returns a fresh ``(alice_end, bob_end, stats)`` over the
    *same* connected socket with reset sequence numbers — both peers
    call their factory once per session in lockstep, mirroring how the
    in-memory factory hands each request a fresh pair.
    """
    if role not in PEER_ROLES:
        raise EngineError(
            f"unknown peer role {role!r}; choose from {', '.join(PEER_ROLES)}"
        )

    def factory() -> Tuple[Channel, Channel, ChannelStats]:
        stats = ChannelStats()
        echo: Deque[Frame] = collections.deque()
        if role == "garbler":
            real = SocketChannel(
                sock, "a2b", stats=stats, io_timeout_s=io_timeout_s, echo=echo
            )
            mirror = _MirrorEnd(
                outbox=collections.deque(), inbox=echo,
                stats=stats, direction="b2a",
            )
            mirror._link = real._link
            return real, mirror, stats
        real = SocketChannel(
            sock, "b2a", stats=stats, io_timeout_s=io_timeout_s, echo=echo
        )
        mirror = _MirrorEnd(
            outbox=collections.deque(), inbox=echo,
            stats=stats, direction="a2b",
        )
        mirror._link = real._link
        return mirror, real, stats

    return factory


def run_two_party_peer(
    sock: socket.socket,
    role: str,
    circuit: Circuit,
    alice_bits: List[int],
    bob_bits: List[int],
    kdf: Optional[HashKDF] = None,
    ot_group: OTGroup = MODP_2048,
    rng: RngLike = None,
    request_timeout_s: Optional[float] = None,
    io_timeout_s: float = DEFAULT_IO_TIMEOUT_S,
) -> ProtocolResult:
    """Run one side of a split two-party session over ``sock``.

    Both processes call this with identical arguments (same seeded
    ``rng``!) and opposite ``role``; each gets the full
    :class:`~repro.gc.protocol.ProtocolResult`, byte-identical to the
    in-memory run under the same seed.
    """
    if rng is None:
        raise EngineError(
            "peer sessions need an explicitly seeded rng: both processes "
            "must draw the same randomness to stay in lockstep"
        )
    from ..resilience.deadline import Deadline

    session = TwoPartySession(
        circuit,
        kdf=kdf,
        ot_group=ot_group,
        rng=rng,
        channel_factory=peer_channel_factory(
            sock, role, io_timeout_s=io_timeout_s
        ),
    )
    return session.run(
        alice_bits, bob_bits, deadline=Deadline.start(request_timeout_s)
    )


def run_folded_peer(
    sock: socket.socket,
    role: str,
    circuit: Circuit,
    alice_bits: List[int],
    bob_bits: List[int],
    kdf: Optional[HashKDF] = None,
    ot_group: OTGroup = MODP_2048,
    rng: RngLike = None,
    request_timeout_s: Optional[float] = None,
    io_timeout_s: float = DEFAULT_IO_TIMEOUT_S,
) -> SequentialResult:
    """Run one side of a split folded (sequential) session over ``sock``.

    Wraps the combinational circuit as a one-cycle sequential core —
    the same path :class:`repro.engine.backends.FoldedBackend` drives —
    so the folded flow's per-cycle flights cross the real wire too.
    """
    if rng is None:
        raise EngineError(
            "peer sessions need an explicitly seeded rng: both processes "
            "must draw the same randomness to stay in lockstep"
        )
    if circuit.n_state:
        raise EngineError("folded peer expects a combinational circuit")
    from ..resilience.deadline import Deadline

    session = SequentialSession(
        SequentialCircuit(circuit, []),
        kdf=kdf,
        ot_group=ot_group,
        rng=rng,
        channel_factory=peer_channel_factory(
            sock, role, io_timeout_s=io_timeout_s
        ),
    )
    return session.run(
        [list(alice_bits)], [list(bob_bits)], cycles=1,
        deadline=Deadline.start(request_timeout_s),
    )
