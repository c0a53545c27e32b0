"""Secure outsourcing via XOR sharing (paper Sec. 3.3, Prop. 3.2).

A constrained client splits her input ``x`` into two one-time-pad shares
``s`` (uniform random) and ``x ^ s``, handing one to each of two
non-colluding servers.  The garbled circuit is the original one with a
single layer of XOR gates prepended to reconstruct ``x`` inside the
protocol — free under free-XOR, so outsourcing costs (almost) nothing.

In the reproduced flow the *proxy* server plays the garbler (Alice side,
input ``s``) and the *main* server plays the evaluator (Bob side, inputs
``x ^ s`` plus its own DL parameters).
"""

from __future__ import annotations

import dataclasses
import secrets
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..circuits.builder import CircuitBuilder
from ..circuits.netlist import Circuit
from ..errors import ProtocolError
from .cipher import HashKDF
from .ot import MODP_2048, OTGroup
from .ot_extension import IKNPState
from .protocol import ChannelFactory, ProtocolResult, TwoPartySession
from .rng import RngLike, rand_bits

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..resilience.deadline import Deadline

__all__ = ["split_input", "outsource_circuit", "OutsourcedSession"]


def split_input(bits: Sequence[int], rng: RngLike = secrets) -> Tuple[List[int], List[int]]:
    """One-time-pad share a bit vector: returns ``(s, x ^ s)``.

    Each share on its own is uniformly random (Prop. 3.2), so neither
    server learns anything about ``x`` absent collusion.
    """
    share = [rand_bits(rng, 1) for _ in bits]
    masked = [(b ^ s) & 1 for b, s in zip(bits, share)]
    return share, masked


def outsource_circuit(circuit: Circuit) -> Circuit:
    """Prepend the share-recombination XOR layer to ``circuit``.

    The original circuit's Alice inputs (the client's ``x``) are replaced
    by ``share_s`` (new Alice inputs, held by the proxy) XOR
    ``share_xs`` (prepended to Bob's inputs, held by the main server).
    Bob's original inputs (DL parameters) follow the share bits.

    Gate counts: adds exactly ``n_alice`` XOR gates — free under
    free-XOR, which is the paper's "almost free of charge" claim.
    """
    if circuit.n_state:
        raise ProtocolError("outsourcing transform expects a combinational core")
    builder = CircuitBuilder(name=f"{circuit.name}_outsourced")
    share_s = builder.add_alice_inputs(circuit.n_alice, name="share_s")
    share_xs = builder.add_bob_inputs(circuit.n_alice, name="share_xs")
    bob_inputs = builder.add_bob_inputs(circuit.n_bob, name="server_inputs")
    recombined = builder.emit_xor_bus(share_s, share_xs)

    remap = {0: 0, 1: 1}
    for old, new in zip(circuit.alice_inputs, recombined):
        remap[old] = new
    for old, new in zip(circuit.bob_inputs, bob_inputs):
        remap[old] = new
    emitters = {
        "xor": builder.emit_xor,
        "and": builder.emit_and,
        "or": builder.emit_or,
        "nand": builder.emit_nand,
        "nor": builder.emit_nor,
        "andn": builder.emit_andn,
    }
    for gate in circuit.gates:
        if gate.op.value == "not":
            remap[gate.out] = builder.emit_not(remap[gate.a])
        elif gate.op.value == "buf":
            remap[gate.out] = remap[gate.a]
        else:
            remap[gate.out] = emitters[gate.op.value](
                remap[gate.a], remap[gate.b]
            )
    for wire in circuit.outputs:
        builder.mark_output(remap[wire])
    return builder.build()


@dataclasses.dataclass
class OutsourcedResult:
    """Client-visible outcome of an outsourced execution."""

    outputs: List[int]
    proxy_result: ProtocolResult


class OutsourcedSession:
    """Runs the full outsourcing flow (paper Fig. 4).

    The client only generates a random pad and XORs her input — all GC
    work happens between the proxy (garbler) and the main server
    (evaluator).  The transformed netlist is input-independent: it and
    its level schedule are built once, here, for every :meth:`run`.
    """

    def __init__(
        self,
        circuit: Circuit,
        kdf: Optional[HashKDF] = None,
        ot_group: OTGroup = MODP_2048,
        rng: RngLike = secrets,
        channel_factory: Optional[ChannelFactory] = None,
        ot_state: Optional[IKNPState] = None,
    ) -> None:
        self.original = circuit
        self.transformed = outsource_circuit(circuit)
        self.rng = rng
        self._proxy = TwoPartySession(
            self.transformed, kdf=kdf, ot_group=ot_group, rng=rng,
            channel_factory=channel_factory, ot_state=ot_state,
        )

    def run(
        self,
        client_bits: Sequence[int],
        server_bits: Sequence[int],
        deadline: Optional["Deadline"] = None,
    ) -> OutsourcedResult:
        """Execute with the client's data and the main server's params."""
        if len(client_bits) != self.original.n_alice:
            raise ProtocolError("client input width mismatch")
        if len(server_bits) != self.original.n_bob:
            raise ProtocolError("server input width mismatch")
        share_s, share_xs = split_input(client_bits, rng=self.rng)
        result = self._proxy.run(
            share_s, list(share_xs) + list(server_bits), deadline=deadline
        )
        return OutsourcedResult(outputs=result.outputs, proxy_result=result)
