"""Split sessions: one party per process, one wire, independent secrets.

A session (:class:`repro.gc.protocol.TwoPartySession`,
:class:`repro.gc.sequential.SequentialSession`) hosts the parties its
link has ends for.  :func:`peer_channel_factory` gives it the hosted
party's :class:`~repro.transport.socket_channel.SocketChannel` and
``None`` for the other, so each process runs its own party's steps of
the one protocol text and nothing else.  The **garbler** draws Δ, the
wire labels and ``s`` from its own rng, is given the client's bits only
and alone can decode an output label; the **evaluator** draws its OT
seeds from its own rng, is given the server's bits only and sees
tables, active labels and masked OT messages.  Shared: the public
netlist, the garbling oracle, the OT group.

The IKNP set-up crosses the socket once per *connection* (three
``ot_setup`` frames): hand one
:class:`~repro.gc.ot_extension.IKNPState` to every runner call on a
socket and only the first pays the 387 modexps — at every input width,
since a session holding a state always extends.  The processes count
extensions in lockstep: drop a state whose session failed.
"""

from __future__ import annotations

import secrets
import socket
from typing import Any, List, Optional, Tuple

from ..circuits.netlist import Circuit
from ..circuits.sequential import SequentialCircuit
from ..errors import EngineError
from ..gc.channel import Channel, ChannelStats
from ..gc.cipher import HashKDF
from ..gc.ot import MODP_2048, OTGroup
from ..gc.ot_extension import IKNPState
from ..gc.protocol import LinkFactory, ProtocolResult, TwoPartySession
from ..gc.rng import RngLike
from ..gc.sequential import SequentialResult, SequentialSession
from ..resilience.deadline import Deadline
from .socket_channel import DEFAULT_IO_TIMEOUT_S, SocketChannel

__all__ = ["PEER_ROLES", "peer_channel_factory", "run_folded_peer", "run_two_party_peer"]

#: The two sides of a split session: the garbler hosts Alice's endpoint
#: (tables, input labels and OT masks go out on the wire), the evaluator
#: Bob's (OT choice columns and the merge-step output labels go out).
PEER_ROLES = ("garbler", "evaluator")


def peer_channel_factory(
    sock: socket.socket, role: str, io_timeout_s: float = DEFAULT_IO_TIMEOUT_S
) -> LinkFactory:
    """A session channel factory for one process hosting one party.

    Each call returns ``(alice_end, bob_end, stats)``: a fresh endpoint
    (sequence numbers reset) over the *same* connected socket for the
    hosted party, ``None`` for the other — one call per session on both
    processes, as the in-memory factory hands each request a fresh pair.
    """
    if role not in PEER_ROLES:
        raise EngineError(
            f"unknown peer role {role!r}; choose from {', '.join(PEER_ROLES)}"
        )

    def factory() -> Tuple[Optional[Channel], Optional[Channel], ChannelStats]:
        stats = ChannelStats()
        if role == "garbler":
            return SocketChannel(sock, "a2b", stats, io_timeout_s), None, stats
        return None, SocketChannel(sock, "b2a", stats, io_timeout_s), stats

    return factory


def _run_peer(
    session_type: Any, netlist: Any, sock: socket.socket, role: str, bits: Any,
    request_timeout_s: Optional[float] = None,
    io_timeout_s: float = DEFAULT_IO_TIMEOUT_S, **session_options: Any,
) -> Any:
    """The one body of both runners: a session on a one-ended link, run
    on this party's input alone."""
    session = session_type(
        netlist, channel_factory=peer_channel_factory(sock, role, io_timeout_s),
        **session_options,
    )
    inputs = (bits, None) if role == "garbler" else (None, bits)
    return session.run(*inputs, deadline=Deadline.start(request_timeout_s))


def run_two_party_peer(
    sock: socket.socket,
    role: str,
    circuit: Circuit,
    bits: List[int],
    kdf: Optional[HashKDF] = None,
    ot_group: OTGroup = MODP_2048,
    rng: RngLike = secrets,
    request_timeout_s: Optional[float] = None,
    io_timeout_s: float = DEFAULT_IO_TIMEOUT_S,
    ot_state: Optional[IKNPState] = None,
) -> ProtocolResult:
    """Run one side of a split two-party session over ``sock``.

    The two processes call this with opposite ``role`` and their *own*
    ``bits`` (the client's on the garbler, the server's on the
    evaluator), each under its own ``rng``.  The garbler's result holds
    the decoded outputs, the evaluator's none; ``comm`` is equal on both
    and equal to the in-memory session's.  ``ot_state`` is the
    connection's: handed to every call on one socket, only the first
    pays the base OT.
    """
    return _run_peer(
        TwoPartySession, circuit, sock, role, bits, request_timeout_s,
        io_timeout_s, kdf=kdf, ot_group=ot_group, rng=rng, ot_state=ot_state,
    )


def run_folded_peer(
    sock: socket.socket, role: str, circuit: Circuit, bits: List[int], **options: Any
) -> SequentialResult:
    """Run one side of a split folded (sequential) session over ``sock``;
    ``options`` as for :func:`run_two_party_peer`.

    Wraps the combinational circuit as a one-cycle sequential core —
    the same path :class:`repro.engine.backends.FoldedBackend` drives —
    so the folded flow's per-cycle flights cross the real wire too.
    """
    if circuit.n_state:
        raise EngineError("folded peer expects a combinational circuit")
    core = SequentialCircuit(circuit, [])
    return _run_peer(SequentialSession, core, sock, role, [list(bits)], **options)
