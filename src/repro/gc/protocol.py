"""The end-to-end two-party protocol (paper Fig. 3).

Roles follow DeepSecure: the *client* (Alice) owns the data, garbles the
circuit and sends tables + her input labels; the *cloud server* (Bob)
owns the DL parameters, receives his input labels through OT, evaluates,
and returns the encrypted inference for the merge step.  The session
records per-phase wall-clock times and exact per-tag traffic so the
benchmark harness can reproduce the paper's communication/computation
split (Table 2, Sec. 4.3).
"""

from __future__ import annotations

import dataclasses
import secrets
import threading
import time
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..circuits.netlist import Circuit
from ..errors import ChannelIntegrityError, ProtocolError
from .channel import Channel, ChannelStats, default_channel_factory

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..resilience.deadline import Deadline

#: Builds the two endpoints of a request's link plus shared accounting —
#: the seam where the fault-injection harness swaps in FaultyChannel.
ChannelFactory = Callable[[], Tuple[Channel, Channel, ChannelStats]]
from .cipher import HashKDF, default_kdf, oracle_fingerprint
from .fastgarble import FastEvaluator, garble_many
from .garble import GarbledCircuit, Garbler, LazyTables
from .ot import MODP_2048, OTGroup
from .ot_extension import IKNPState, extension_ot
from .rng import RngLike

__all__ = [
    "Pregarbled",
    "ProtocolResult",
    "TwoPartySession",
    "execute",
    "transfer_input_labels",
]

#: Below this many evaluator input bits, base OT is used directly;
#: above it, the IKNP extension amortizes the group operations.
OT_EXTENSION_THRESHOLD = 128


@dataclasses.dataclass
class Pregarbled:
    """Input-independent garbling material produced ahead of a request.

    Garbling depends only on the (public) netlist, never on either
    party's inputs — the paper's offline/online split lever: the garbler
    can prepare tables for future inferences while the line is idle, so
    the online critical path shrinks to transfer + OT + evaluate + merge.

    A unit is single-use: wire labels must never encrypt two different
    input sets (:meth:`claim` enforces this atomically, so concurrent
    ``run`` calls cannot share one unit).

    Attributes:
        circuit: the netlist this material belongs to.
        garbler: the garbler holding the secret wire labels.
        garbled: the evaluator-side tables.
        garble_seconds: offline wall time spent garbling.
    """

    circuit: Circuit
    garbler: Garbler
    garbled: GarbledCircuit
    garble_seconds: float
    consumed: bool = False
    _claim_lock: threading.Lock = dataclasses.field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def claim(self) -> None:
        """Mark the material used; at most one caller ever succeeds.

        Raises:
            ProtocolError: the material was already claimed.
        """
        with self._claim_lock:
            if self.consumed:
                raise ProtocolError("pregarbled material cannot be reused")
            self.consumed = True


@dataclasses.dataclass
class ProtocolResult:
    """Outcome and accounting of one protocol execution.

    Attributes:
        outputs: decoded plaintext output bits (held by Alice after the
            merge step; also by Bob when ``share_result``).
        times: seconds per phase ('garble', 'transfer', 'ot', 'evaluate',
            'merge').
        comm: per-tag byte counts ('tables', 'alice_labels', 'ot',
            'output_labels', ...).
        n_xor: free-gate count of the executed netlist.
        n_non_xor: non-free gate count (the communication driver).
    """

    outputs: List[int]
    times: Dict[str, float]
    comm: Dict[str, int]
    n_xor: int
    n_non_xor: int

    @property
    def total_time(self) -> float:
        """Sum of all phases (single-threaded reference time)."""
        return sum(self.times.values())

    @property
    def total_comm_bytes(self) -> int:
        """Total protocol traffic in bytes."""
        return sum(self.comm.values())


class TwoPartySession:
    """Drives garbler and evaluator through the four protocol steps.

    Both parties run in-process over a byte-counting channel; the code is
    written message-by-message so the flow mirrors a networked
    deployment.

    Args:
        circuit: the public netlist.
        kdf: garbling oracle shared by both parties.
        ot_group: group for base OTs.
        rng: randomness source for labels and OT.
        channel_factory: builds each request's channel pair — the seam
            where the chaos harness injects a
            :class:`repro.resilience.FaultyChannel`; defaults to the
            healthy in-memory link.
        ot_state: the owner's OT-extension state, so only its first
            request pays the base OT; ``None`` pays it on every request.
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
        if circuit.n_state:
            raise ProtocolError(
                "combinational protocol cannot run a sequential core; "
                "use repro.gc.sequential.SequentialSession"
            )
        self.circuit = circuit
        self.kdf = kdf or default_kdf()
        self.ot_group = ot_group
        self.rng = rng
        self.channel_factory: ChannelFactory = (
            channel_factory if channel_factory is not None
            else default_channel_factory()
        )
        self.ot_state = ot_state

    def _open_channel(
        self, deadline: Optional["Deadline"]
    ) -> Tuple[Channel, Channel, ChannelStats]:
        """Build one request's link and arm both endpoints' deadline."""
        alice_end, bob_end, stats = self.channel_factory()
        if deadline is not None:
            alice_end.deadline = deadline
            bob_end.deadline = deadline
        return alice_end, bob_end, stats

    def pregarble(self) -> Pregarbled:
        """Run the input-independent garbling phase ahead of time.

        Returns single-use material that a later :meth:`run` call can
        consume via ``pregarbled=``, removing garbling from the online
        critical path (the offline/online split of Sec. 3).
        """
        start = time.perf_counter()
        garbler = Garbler(self.circuit, kdf=self.kdf, rng=self.rng)
        garbled = garbler.garble()
        return Pregarbled(
            circuit=self.circuit,
            garbler=garbler,
            garbled=garbled,
            garble_seconds=time.perf_counter() - start,
        )

    def pregarble_many(self, count: int) -> List[Pregarbled]:
        """Batch offline phase: ``count`` single-use copies in one pass.

        All copies share one walk of the level schedule (and one KDF
        batch per level), so warming a pool of ``k`` copies costs much
        less than ``k`` :meth:`pregarble` calls.
        """
        if count < 0:
            raise ProtocolError("copy count must be >= 0")
        if count == 0:
            return []
        start = time.perf_counter()
        copies = garble_many(self.circuit, count, kdf=self.kdf, rng=self.rng)
        per_copy = (time.perf_counter() - start) / count
        return [
            Pregarbled(
                circuit=self.circuit,
                garbler=garbler,
                garbled=garbled,
                garble_seconds=per_copy,
            )
            for garbler, garbled in copies
        ]

    def run_many(
        self,
        alice_bits_list: Sequence[Sequence[int]],
        bob_bits_list: Sequence[Sequence[int]],
        pregarbled: Optional[Sequence[Optional[Pregarbled]]] = None,
        deadline: Optional["Deadline"] = None,
    ) -> List[ProtocolResult]:
        """Serve ``k`` requests through one batched evaluation pass.

        The throughput form of :meth:`run`: garbling for slots without
        pre-garbled material happens in one :func:`garble_many` pass,
        transfer and OT stay per request (every copy has its own
        labels), and evaluation pushes all ``k`` label planes through a
        single walk of the level schedule
        (:meth:`repro.gc.fastgarble.FastEvaluator.evaluate_many`)
        instead of ``k`` independent runs.  Outputs are identical
        to ``k`` :meth:`run` calls on the same material.

        Args:
            alice_bits_list: per-request client input bits.
            bob_bits_list: per-request server input bits (same length).
            pregarbled: optional per-request offline material; ``None``
                slots are garbled fresh in one batch.
            deadline: optional time budget for the whole batch, checked
                at every phase boundary and on every recv.

        Returns:
            One :class:`ProtocolResult` per request, in request order.
            The batched phases (garble, evaluate) report per-request
            shares of the batch wall time.
        """
        k = len(alice_bits_list)
        if len(bob_bits_list) != k:
            raise ProtocolError("run_many input list length mismatch")
        slots: List[Optional[Pregarbled]] = (
            list(pregarbled) if pregarbled is not None else [None] * k
        )
        if len(slots) != k:
            raise ProtocolError("run_many pregarbled list length mismatch")
        if k == 0:
            return []

        circuit = self.circuit
        # the batch shares one evaluator, so every copy must have been
        # garbled under one oracle (run() follows the per-slot garbler's
        # kdf; a mix cannot be honored here).  Equivalence is probed
        # functionally — distinct instances of the same oracle (or a
        # ParallelKDF wrapper around it) are compatible — and checked
        # BEFORE claiming, so a rejected batch burns no single-use
        # pre-garbled material.
        eval_kdf = next(
            (s.garbler.kdf for s in slots if s is not None),
            self.kdf or default_kdf(),
        )
        probe = oracle_fingerprint(eval_kdf)
        candidates = [s.garbler.kdf for s in slots if s is not None]
        if any(s is None for s in slots):
            candidates.append(self.kdf or default_kdf())
        for kdf in candidates:
            if kdf is not eval_kdf and oracle_fingerprint(kdf) != probe:
                raise ProtocolError(
                    "run_many needs one garbling oracle across the "
                    "batch; pregarbled material was garbled under a "
                    "different kdf"
                )

        # (i) garbling: claim offline material, batch-garble the rest
        material: List[Optional[Tuple[Garbler, GarbledCircuit]]] = [None] * k
        garble_s = [0.0] * k
        for i, slot in enumerate(slots):
            if slot is None:
                continue
            if slot.circuit is not circuit:
                raise ProtocolError(
                    "pregarbled material is for a different circuit"
                )
            slot.claim()
            material[i] = (slot.garbler, slot.garbled)
        missing = [i for i, m in enumerate(material) if m is None]
        if missing:
            start = time.perf_counter()
            fresh = garble_many(
                circuit, len(missing), kdf=self.kdf, rng=self.rng
            )
            per_copy = (time.perf_counter() - start) / len(missing)
            for i, pair in zip(missing, fresh):
                material[i] = pair
                garble_s[i] = per_copy
        if deadline is not None:
            deadline.check("garble")

        # (ii) transfer + OT, per request over its own accounted channel
        per_request = []
        garbled_views = []
        alice_label_lists = []
        bob_label_lists = []
        for i in range(k):
            garbler, garbled = material[i]
            alice_end, bob_end, stats = self._open_channel(deadline)
            start = time.perf_counter()
            alice_end.send_bytes(garbled.tables_bytes(), tag="tables")
            alice_end.send_labels(
                list(garbled.const_labels), tag="const_labels"
            )
            alice_end.send_labels(
                garbler.input_labels_for(
                    list(circuit.alice_inputs), list(alice_bits_list[i])
                ),
                tag="alice_labels",
            )
            tables_blob = bob_end.recv_bytes(expected_tag="tables")
            # const labels travel inside the view
            bob_end.recv_labels(expected_tag="const_labels")
            alice_labels = bob_end.recv_labels(expected_tag="alice_labels")
            transfer_s = time.perf_counter() - start
            start = time.perf_counter()
            bob_labels = self._oblivious_transfer(
                garbler, list(circuit.bob_inputs), list(bob_bits_list[i]),
                stats, channel=(alice_end, bob_end),
            )
            ot_s = time.perf_counter() - start
            garbled_views.append(self._parse_tables(tables_blob, garbled))
            alice_label_lists.append(alice_labels)
            bob_label_lists.append(bob_labels)
            per_request.append(
                (garbler, alice_end, bob_end, stats, transfer_s, ot_s)
            )

        # (iii) batched evaluation — one schedule pass for all requests
        evaluator = FastEvaluator(circuit, kdf=eval_kdf)
        start = time.perf_counter()
        planes = evaluator.evaluate_many(
            garbled_views, alice_label_lists, bob_label_lists
        )
        evaluate_per_request = (time.perf_counter() - start) / k
        if deadline is not None:
            deadline.check("evaluate")

        # (iv) merge per request
        counts = circuit.counts()
        results: List[ProtocolResult] = []
        for i in range(k):
            garbler, alice_end, bob_end, stats, transfer_s, ot_s = (
                per_request[i]
            )
            start = time.perf_counter()
            bob_end.send_labels(
                evaluator.output_labels(planes[i]), tag="output_labels"
            )
            outputs = garbler.decode_outputs(
                alice_end.recv_labels(expected_tag="output_labels")
            )
            merge_s = time.perf_counter() - start
            results.append(
                ProtocolResult(
                    outputs=outputs,
                    times={
                        "garble": garble_s[i],
                        "transfer": transfer_s,
                        "ot": ot_s,
                        "evaluate": evaluate_per_request,
                        "merge": merge_s,
                    },
                    comm=stats.by_tag(),
                    n_xor=counts.xor,
                    n_non_xor=counts.non_xor,
                )
            )
        return results

    def run(
        self,
        alice_bits: Sequence[int],
        bob_bits: Sequence[int],
        share_result: bool = False,
        pregarbled: Optional[Pregarbled] = None,
        deadline: Optional["Deadline"] = None,
    ) -> ProtocolResult:
        """Execute the protocol on plaintext inputs.

        Args:
            alice_bits: the client's input bits (kept on Alice's side).
            bob_bits: the server's input bits (transferred only via OT).
            share_result: if True, Alice sends the decoded result back to
                Bob (optional final step of Sec. 2.2.2).
            pregarbled: offline material from :meth:`pregarble`; skips
                the online garbling phase (``times['garble']`` is then
                the near-zero bookkeeping cost).
            deadline: optional per-request time budget, checked at every
                phase boundary and charged on every recv; expiry raises
                :class:`repro.errors.DeadlineExceeded`.
        """
        circuit = self.circuit
        alice_end, bob_end, stats = self._open_channel(deadline)
        times: Dict[str, float] = {}

        # (i) garbling — Alice (offline when pregarbled material exists)
        start = time.perf_counter()
        if pregarbled is not None:
            if pregarbled.circuit is not circuit:
                raise ProtocolError("pregarbled material is for a different circuit")
            pregarbled.claim()
            garbler, garbled = pregarbled.garbler, pregarbled.garbled
        else:
            garbler = Garbler(circuit, kdf=self.kdf, rng=self.rng)
            garbled = garbler.garble()
        times["garble"] = time.perf_counter() - start
        if deadline is not None:
            deadline.check("garble")

        # (ii) data transfer + OT
        start = time.perf_counter()
        alice_end.send_bytes(garbled.tables_bytes(), tag="tables")
        alice_end.send_labels(
            list(garbled.const_labels), tag="const_labels"
        )
        alice_end.send_labels(
            garbler.input_labels_for(list(circuit.alice_inputs), list(alice_bits)),
            tag="alice_labels",
        )
        tables_blob = bob_end.recv_bytes(expected_tag="tables")
        const_labels = bob_end.recv_labels(expected_tag="const_labels")
        alice_labels = bob_end.recv_labels(expected_tag="alice_labels")
        times["transfer"] = time.perf_counter() - start

        start = time.perf_counter()
        bob_labels = self._oblivious_transfer(
            garbler, list(circuit.bob_inputs), list(bob_bits), stats,
            channel=(alice_end, bob_end),
        )
        times["ot"] = time.perf_counter() - start

        # (iii) evaluation — Bob
        start = time.perf_counter()
        evaluator = FastEvaluator(circuit, kdf=garbler.kdf)
        received = self._parse_tables(tables_blob, garbled)
        wire_labels = evaluator.evaluate(received, alice_labels, bob_labels)
        output_labels = evaluator.output_labels(wire_labels)
        times["evaluate"] = time.perf_counter() - start
        if deadline is not None:
            deadline.check("evaluate")

        # (iv) merge — Bob returns output labels, Alice decodes
        start = time.perf_counter()
        bob_end.send_labels(output_labels, tag="output_labels")
        outputs = garbler.decode_outputs(
            alice_end.recv_labels(expected_tag="output_labels")
        )
        if share_result:
            alice_end.send_bits(outputs, tag="shared_result")
            bob_outputs = bob_end.recv_bits(expected_tag="shared_result")
            if bob_outputs != outputs:
                raise ProtocolError("result sharing corrupted")
        times["merge"] = time.perf_counter() - start

        counts = circuit.counts()
        return ProtocolResult(
            outputs=outputs,
            times=times,
            comm=stats.by_tag(),
            n_xor=counts.xor,
            n_non_xor=counts.non_xor,
        )

    # -- helpers -------------------------------------------------------------

    def _parse_tables(
        self, blob: bytes, garbled: GarbledCircuit
    ) -> GarbledCircuit:
        """Rebuild the evaluator's view from the wire blob.

        Deserializing (rather than handing Bob the garbler's object)
        keeps the information flow honest: Bob sees tables and constant
        labels only.
        """
        if len(blob) % 32:
            raise ProtocolError("corrupt garbled-table blob")
        # zero-copy view: the fast evaluator reads the plane directly
        plane = np.frombuffer(blob, dtype=np.uint8).reshape(-1, 32)
        return GarbledCircuit(
            tables=LazyTables(plane),
            const_labels=garbled.const_labels,
            decode_bits=[],  # withheld from the evaluator
            tweak_base=garbled.tweak_base,
            tables_plane=plane,
        )

    def _oblivious_transfer(
        self,
        garbler: Garbler,
        wires: List[int],
        bits: List[int],
        stats: ChannelStats,
        channel: Optional[Tuple[Channel, Channel]] = None,
    ) -> List[int]:
        """Transfer Bob's input labels obliviously; accounts traffic."""
        labels, _ = transfer_input_labels(
            garbler, wires, bits,
            group=self.ot_group, rng=self.rng, stats=stats,
            channel=channel, state=self.ot_state,
        )
        return labels


def transfer_input_labels(
    garbler: Garbler,
    wires: Sequence[int],
    bits: Sequence[int],
    group: OTGroup = MODP_2048,
    rng: RngLike = secrets,
    stats: Optional[ChannelStats] = None,
    channel: Optional[Tuple[Channel, Channel]] = None,
    state: Optional[IKNPState] = None,
) -> Tuple[List[int], int]:
    """Transfer the evaluator's input labels obliviously.

    The single OT entry point every flow shares: below
    :data:`OT_EXTENSION_THRESHOLD` input bits the base OT runs directly;
    above it the IKNP extension amortizes the group operations.

    Args:
        garbler: holder of the wire label pairs (OT sender messages).
        wires: the evaluator's input wire ids.
        bits: the evaluator's plaintext choice bits.
        group: group for base OTs.
        rng: randomness source.
        stats: optional channel accounting; traffic is recorded under
            the ``"ot"`` tag when given (ignored in channel mode, where
            the channel accounts its own frames).
        channel: optional ``(alice_end, bob_end)`` endpoints; when given
            every OT flight travels as checksummed ``"ot"``-tagged
            frames, so injected wire faults hit the OT data path and are
            detected by the framing layer (and deadlines are charged on
            every flight).
        state: the caller's OT-extension state (used at or above the
            threshold only); ``None`` pays a base-OT batch for this call.

    Returns:
        ``(labels, total_bytes)`` — the chosen labels and the OT traffic.
    """
    if len(wires) != len(bits):
        raise ProtocolError("Bob's input width mismatch")
    if not wires:
        return [], 0
    pairs = []
    for wire in wires:
        zero, one = garbler.wire_label_pair(wire)
        pairs.append((zero.to_bytes(16, "little"), one.to_bytes(16, "little")))
    total = 0

    def account(direction: str, size: int) -> None:
        nonlocal total
        total += size
        if stats is not None and channel is None:
            stats.record(direction, "ot", size)

    if len(wires) >= OT_EXTENSION_THRESHOLD:
        chosen, transferred = extension_ot(
            pairs, list(bits), group=group, rng=rng, channel=channel,
            state=state,
        )
        account("a2b", transferred)
    elif channel is not None:
        chosen = _base_ot_over_channel(pairs, list(bits), group, rng, channel)
        total = sum(
            size for _, tag, size in channel[0]._stats.log if tag == "ot"
        )
    else:
        from .ot import OTReceiver, OTSender

        sender = OTSender(pairs, group=group, rng=rng)
        receiver = OTReceiver(list(bits), group=group, rng=rng)
        c = sender.setup()
        account("a2b", (c.bit_length() + 7) // 8)
        keys = receiver.public_keys(c)
        account("b2a", sum((k.bit_length() + 7) // 8 for k in keys))
        responses = sender.respond(keys)
        account(
            "a2b",
            sum(
                (g.bit_length() + 7) // 8 + len(e0) + len(e1)
                for g, e0, e1 in responses
            ),
        )
        chosen = receiver.recover(responses)
    return [int.from_bytes(data, "little") for data in chosen], total


def _base_ot_over_channel(
    pairs: List[Tuple[bytes, bytes]],
    bits: List[int],
    group: OTGroup,
    rng: RngLike,
    channel: Tuple[Channel, Channel],
) -> List[bytes]:
    """Run the base OT with every flight framed over the channel.

    Group elements travel fixed-width (the group modulus width), so
    payload sizes are deterministic and truncation is structurally
    detectable on top of the checksum.
    """
    from .ot import OTReceiver, OTSender

    alice_end, bob_end = channel
    m = len(pairs)
    width = (group.prime.bit_length() + 7) // 8
    msg_len = len(pairs[0][0])

    sender = OTSender(pairs, group=group, rng=rng)
    receiver = OTReceiver(bits, group=group, rng=rng)

    alice_end.send_bytes(sender.setup().to_bytes(width, "little"), tag="ot")
    c_blob = bob_end.recv_bytes(expected_tag="ot")
    if len(c_blob) != width:
        raise ChannelIntegrityError(
            f"OT setup element size mismatch: expected {width} bytes, "
            f"got {len(c_blob)}"
        )
    keys = receiver.public_keys(int.from_bytes(c_blob, "little"))
    bob_end.send_bytes(
        b"".join(k.to_bytes(width, "little") for k in keys), tag="ot"
    )
    keys_blob = alice_end.recv_bytes(expected_tag="ot")
    if len(keys_blob) != width * m:
        raise ChannelIntegrityError(
            f"OT public-key payload size mismatch: expected {width * m} "
            f"bytes for {m} transfers, got {len(keys_blob)}"
        )
    responses = sender.respond(
        [
            int.from_bytes(keys_blob[i * width : (i + 1) * width], "little")
            for i in range(m)
        ]
    )
    alice_end.send_bytes(
        b"".join(
            g.to_bytes(width, "little") + e0 + e1 for g, e0, e1 in responses
        ),
        tag="ot",
    )
    resp_blob = bob_end.recv_bytes(expected_tag="ot")
    unit = width + 2 * msg_len
    if len(resp_blob) != unit * m:
        raise ChannelIntegrityError(
            f"OT response payload size mismatch: expected {unit * m} "
            f"bytes for {m} transfers, got {len(resp_blob)}"
        )
    wire_responses = []
    for i in range(m):
        chunk = resp_blob[i * unit : (i + 1) * unit]
        wire_responses.append(
            (
                int.from_bytes(chunk[:width], "little"),
                chunk[width : width + msg_len],
                chunk[width + msg_len :],
            )
        )
    return receiver.recover(wire_responses)


def execute(
    circuit: Circuit,
    alice_bits: Sequence[int],
    bob_bits: Sequence[int],
    kdf: Optional[HashKDF] = None,
    ot_group: OTGroup = MODP_2048,
    rng: RngLike = secrets,
    share_result: bool = False,
) -> ProtocolResult:
    """One-call secure evaluation of ``circuit`` (Fig. 3 flow)."""
    session = TwoPartySession(circuit, kdf=kdf, ot_group=ot_group, rng=rng)
    return session.run(alice_bits, bob_bits, share_result=share_result)
