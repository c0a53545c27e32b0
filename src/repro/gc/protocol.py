"""The end-to-end two-party protocol (paper Fig. 3).

Roles follow DeepSecure: the *client* (Alice) owns the data, garbles the
circuit and sends tables + her input labels; the *cloud server* (Bob)
owns the DL parameters, receives his input labels through OT, evaluates,
and returns the encrypted inference for the merge step.  The session
records per-phase wall-clock times and exact per-tag traffic so the
benchmark harness can reproduce the paper's communication/computation
split (Table 2, Sec. 4.3).

There is one protocol text and every step of it is run by the party it
belongs to: a session hosts the parties its link has ends for.  With
both ends in this process (the in-memory and loopback links) both run,
interleaved in flight order; with one end ``None`` that party is hosted
by another process (:mod:`repro.transport.peer`), its steps are skipped
and its objects — the :class:`Garbler` and its labels on one side, the
:class:`FastEvaluator` and the server's bits on the other — are never
built here.

The text is one round, clocked once per cycle, and one driver runs it
(``_Session._rounds``) over *lanes*: a lane is one request on its own
link.  ``TwoPartySession.run`` is one one-cycle lane, ``run_many`` a
batch of them, a ``SequentialSession`` run one lane of many cycles; a
combinational circuit is the one-cycle, zero-register case.  Cold lanes
are garbled in one batch and the lanes Bob hosts are evaluated in one
walk.
"""

from __future__ import annotations

import dataclasses
import itertools
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
from ..circuits.sequential import Register
from ..errors import CommitmentError, ProtocolError
from .channel import Channel, ChannelStats, default_channel_factory

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..resilience.deadline import Deadline

#: Builds the two endpoints of a request's link plus shared accounting —
#: the seam where the fault-injection harness swaps in FaultyChannel.
ChannelFactory = Callable[[], Tuple[Channel, Channel, ChannelStats]]
#: What a session accepts: a :data:`ChannelFactory`, or one whose link has
#: one end here and ``None`` for the party another process hosts.
LinkFactory = Callable[
    [], Tuple[Optional[Channel], Optional[Channel], ChannelStats]
]
from .cipher import HashKDF, default_kdf, oracle_fingerprint
from .fastgarble import FastEvaluator, garble_many
from .garble import GarbledCircuit, Garbler
from .labels import LabelsLike, label_ints
from .messages import ALICE_LABELS, CONST_LABELS, OUTPUT_LABELS, STATE_LABELS, TABLES, Shape
from .ot import MODP_2048, OTGroup
from .ot_extension import (
    Ends,
    IKNPState,
    chosen_ot,
    # not called here: the layered benchmark's tracer still wraps this
    # binding; it goes when that wrap list is retired (ROADMAP item 1(a))
    extension_ot,  # noqa: F401
)
from .rng import RngLike

__all__ = [
    "AliceHalf",
    "BobHalf",
    "Copy",
    "ProtocolResult",
    "TwoPartySession",
    "execute",
    "transfer_input_labels",
]

#: Copy ids: one counter per process, so no two copies share one.
_copy_ids = itertools.count()


@dataclasses.dataclass(eq=False)
class _Half:
    """One party's half of a pre-garbled copy, and the copy's id.
    Single-use: labels must never encrypt two input sets, so one
    :meth:`claim` succeeds."""

    copy_id: int = dataclasses.field(default_factory=_copy_ids.__next__, kw_only=True)
    _consumed: bool = dataclasses.field(default=False, init=False, repr=False)
    _claim_lock: threading.Lock = dataclasses.field(
        default_factory=threading.Lock, init=False, repr=False
    )

    @property
    def consumed(self) -> bool:
        """Whether the half has been claimed."""
        with self._claim_lock:
            return self._consumed

    def claim(self) -> None:
        """Mark the half used, or raise :class:`ProtocolError` if it was."""
        with self._claim_lock:
            if self._consumed:
                raise ProtocolError("pregarbled material cannot be reused")
            self._consumed = True


@dataclasses.dataclass(eq=False)
class AliceHalf(_Half):
    """Alice's half of a copy: her garbler (Δ and the interface wires'
    labels) and the tables she sends in the request — ``None`` once
    they and Bob's OT have crossed to Bob's half before it."""

    garbler: Garbler
    garbled: Optional[GarbledCircuit]

    @property
    def nbytes(self) -> int:
        """Bytes the half holds in arrays."""
        labels = self.garbler.labels
        arrays = [labels.rows, labels.delta_row]
        if self.garbled is not None:
            arrays.append(self.garbled.tables)
        return sum(a.nbytes for a in arrays)


@dataclasses.dataclass(eq=False)
class BobHalf(_Half):
    """Bob's half of a copy: all that crossed to him as it was made —
    the ``view`` :func:`receive_tables` rebuilt from the tables frames,
    and his ``(m, 16)`` input ``labels`` from the OT, with the ``bits``
    they encode, the only input the copy serves — and
    ``offline_bytes``, those frames as the link charged them."""

    view: GarbledCircuit
    labels: np.ndarray
    bits: np.ndarray
    offline_bytes: int = dataclasses.field(default=0, kw_only=True)

    @property
    def nbytes(self) -> int:
        """Bytes the half holds in arrays."""
        return self.view.tables.nbytes + self.labels.nbytes + self.bits.nbytes


#: A copy as ``(alice_half, bob_half)``, as a link is ``(alice_end,
#: bob_end)``: ``None`` for a half this process does not hold.
Copy = Tuple[Optional[AliceHalf], Optional[BobHalf]]


@dataclasses.dataclass
class ProtocolResult:
    """Outcome and accounting of one protocol execution — the record
    every flow returns, from a session up through every engine backend.

    Attributes:
        outputs: decoded plaintext output bits (held by Alice after the
            merge step).
        times: seconds per phase ('garble', 'transfer', 'ot', 'evaluate',
            'merge'; cut-and-choose adds 'verify', the plaintext
            reference has 'simulate' alone).
        comm: per-tag byte counts (:func:`repro.gc.messages.predict`;
            empty for the plaintext reference).
        n_xor: free-gate count of the executed netlist.
        n_non_xor: non-free gate count (the communication driver).
        pregarbled: the round ran on Alice's half of a pooled copy, so its
            garbling happened before the request.
    """

    outputs: List[int]
    times: Dict[str, float]
    comm: Dict[str, int]
    n_xor: int
    n_non_xor: int
    pregarbled: bool = False

    @property
    def total_time(self) -> float:
        """Sum of all phases (single-threaded reference time)."""
        return sum(self.times.values())

    @property
    def total_comm_bytes(self) -> int:
        """Total protocol traffic in bytes."""
        return sum(self.comm.values())


class _Session:
    """The protocol round and the steps it is made of, shared by every
    driver (arguments as for :class:`TwoPartySession`)."""

    def __init__(
        self,
        circuit: Circuit,
        kdf: Optional[HashKDF] = None,
        ot_group: OTGroup = MODP_2048,
        rng: RngLike = secrets,
        channel_factory: Optional[LinkFactory] = None,
        ot_state: Optional[IKNPState] = None,
    ) -> None:
        self.circuit = circuit
        self.kdf = kdf or default_kdf()
        self.rng = rng
        self.channel_factory: LinkFactory = (
            channel_factory if channel_factory is not None
            else default_channel_factory()
        )
        # the one OT rule: every transfer extends on a state, so its
        # base OT is paid once per owner
        self.ot_state = ot_state if ot_state is not None else IKNPState(ot_group, rng)
        #: what every frame of this circuit's rounds measures
        self.shape = Shape.of(circuit, self.ot_state.group)

    def _rounds(
        self,
        lanes: Sequence[Sequence[Tuple[Optional[Sequence[int]], Optional[Sequence[int]]]]],
        registers: Sequence[Register] = (),
        final_only: bool = False,
        pregarbled: Optional[Sequence[Optional[Copy]]] = None,
        deadline: Optional["Deadline"] = None,
        digests: Optional[Sequence[Optional[bytes]]] = None,
    ) -> List[List[ProtocolResult]]:
        """The protocol round once per cycle of every lane — one request
        on its own link, one ``(alice_bits, bob_bits)`` per cycle, as
        many cycles in every lane; per lane, one :class:`ProtocolResult`
        per cycle (its ``comm`` is the link's traffic so far).

        Each end claims its party's half of its lane's ``pregarbled``
        copy (``None`` garbles fresh) once :meth:`_claim` has checked
        them all; a lane whose Bob half holds his labels runs no OT.
        The lanes share one evaluator, so the oracles of the Alice
        halves and, for a fresh lane, the session's must agree.
        Cycle 0 garbles the lanes without an Alice half in one
        :func:`garble_many` call (the others' results say
        ``pregarbled``) and moves the labels of the public initial
        ``registers`` state; every later cycle re-garbles on the lane's
        garbler (one Δ, tweaks advanced by the public table count) with
        the d-wires' zero-labels as the q-wires', while the evaluator
        carries its active labels.  Each cycle, Bob's lanes are one
        :meth:`FastEvaluator.evaluate_many` walk.  ``final_only`` merges
        the last round alone.  A lane's entry of ``digests`` is the
        digest its garbler committed to for cycle 0's tables and
        constant labels: Bob's end checks his view against it before
        the walk.  More than one lane needs both ends of every link in
        this process.
        """
        circuit = self.circuit
        k = len(lanes)
        ends = [self.channel_factory() for _ in range(k)]
        if deadline is not None:  # armed on the ends held here
            for end in [e for link in ends for e in link[:2] if e is not None]:
                end.deadline = deadline
        if k > 1 and any(a is None or b is None for a, b, _ in ends):
            raise ProtocolError(
                "run_many batches both parties' work: it needs both ends "
                "of every link in this process"
            )
        # each end claims its own party's half of the lane's copy
        halves: List[Copy] = [
            (copy and alice_end and copy[0], copy and bob_end and copy[1])
            for copy, (alice_end, bob_end, _) in zip(pregarbled or [None] * k, ends)
        ]
        oracle = self._oracle([alice for alice, _ in halves])
        self._claim(halves, ends, [lane[0][1] for lane in lanes])
        n_cycles = len(lanes[0])
        d_wires = [reg.d_wire for reg in registers]
        initial_state = [reg.init & 1 for reg in registers]
        n_tables = circuit.counts().non_xor
        hosted = [i for i, (alice_end, _, _) in enumerate(ends) if alice_end is not None]
        garblers: Dict[int, Garbler] = {}
        evaluator: Optional[FastEvaluator] = None
        carried: List[Optional[LabelsLike]] = [None] * k  # Bob's register labels
        output_labels: List[List[int]] = [[] for _ in range(k)]
        results: List[List[ProtocolResult]] = [[] for _ in range(k)]
        for cycle in range(n_cycles):
            last = cycle == n_cycles - 1
            tweak_base = 2 * n_tables * cycle
            # (i) garbling — Alice (cycle 0 offline for a pooled copy)
            garbled: Dict[int, Optional[GarbledCircuit]] = {}
            garble_s = [0.0] * k
            if cycle == 0:
                for i, (alice, _) in enumerate(halves):
                    if alice is not None:
                        garblers[i], garbled[i] = alice.garbler, alice.garbled
                cold = [i for i in hosted if i not in garblers]
                if cold:
                    start = time.perf_counter()
                    fresh = garble_many(circuit, len(cold), kdf=self.kdf, rng=self.rng)
                    per_copy = (time.perf_counter() - start) / len(cold)
                    for i, (garbler, copy) in zip(cold, fresh):
                        garblers[i], garbled[i], garble_s[i] = garbler, copy, per_copy
            else:
                for i in hosted:
                    start = time.perf_counter()
                    garbled[i] = garblers[i].garble(
                        # the d-wires' zero-labels, off the OT's label rows
                        state_zero_labels=garblers[i].label_pair_rows(d_wires)[:, 0],
                        tweak_base=tweak_base,
                    )
                    garble_s[i] = time.perf_counter() - start
            if hosted and deadline is not None:
                deadline.check("garble")

            # (ii) data transfer + OT, per lane on its own link
            links = [
                self._transfer(
                    alice_end and (alice_end, garblers[i], garbled[i]),
                    bob_end and (bob_end, halves[i][1] if cycle == 0 else None),
                    stats, *lanes[i][cycle], garble_s[i], tweak_base,
                    initial_state if cycle == 0 else (),
                    digests[i] if digests and cycle == 0 else None,
                )
                for i, (alice_end, bob_end, stats) in enumerate(ends)
            ]

            # (iii) evaluation — Bob, every lane he hosts in one walk
            bob = [i for i, link in enumerate(links) if link.inputs is not None]
            if bob:
                start = time.perf_counter()
                if evaluator is None:
                    evaluator = FastEvaluator(circuit, kdf=oracle)
                views, alice_labels, bob_labels = zip(*(links[i].inputs for i in bob))
                planes = evaluator.evaluate_many(
                    views, alice_labels, bob_labels,
                    [carried[i] if cycle else links[i].state_labels for i in bob],
                )
                per_lane = (time.perf_counter() - start) / len(bob)
                for i, plane in zip(bob, planes):
                    links[i].times["evaluate"] = per_lane
                    output_labels[i] = evaluator.output_labels(plane)
                    carried[i] = plane.rows(d_wires)
                if deadline is not None:
                    deadline.check("evaluate")

            # (iv) merge — Bob returns output labels, Alice decodes
            for lane, link, labels, (alice, _) in zip(results, links, output_labels, halves):
                if last or not final_only:
                    result = self._merge(link, labels)
                else:  # an earlier cycle of a final_only run reveals nothing
                    result = self._result(link, [])
                result.pregarbled = alice is not None
                lane.append(result)
        return results

    def _oracle(self, alices: Sequence[Optional[AliceHalf]]) -> HashKDF:
        """The one garbling oracle of a round's lanes: the first Alice
        half's, else the session's.  Equivalence is probed functionally,
        so distinct instances of one oracle (or a wrapper around it) agree.
        """
        kdfs = [alice.garbler.kdf for alice in alices if alice is not None]
        if len(kdfs) < len(alices):
            kdfs.append(self.kdf)
        oracle = kdfs[0]
        if any(
            kdf is not oracle and oracle_fingerprint(kdf) != oracle_fingerprint(oracle)
            for kdf in kdfs
        ):
            raise ProtocolError(
                "a round needs one garbling oracle across its lanes; "
                "pregarbled material was garbled under a different kdf"
            )
        return oracle

    def _claim(
        self,
        halves: Sequence[Copy],
        ends: Sequence[Tuple[Optional[Channel], Optional[Channel], ChannelStats]],
        bob_bits: Sequence[Optional[Sequence[int]]],
    ) -> None:
        """Claim every lane's halves once all pass: Alice's is of this
        circuit, Bob's was made for the lane's ``bob_bits``, a lane's two
        are of one copy and agree on whether its tables and OT cross in
        the request, and none is used or held by two lanes.  Otherwise
        :class:`ProtocolError`, none claimed.

        An end hosted elsewhere sends or receives the tables and runs
        the OT in the request: they cross before it only between two
        halves in this process."""
        for (alice, bob), bits in zip(halves, bob_bits):
            if alice and alice.garbler.circuit is not self.circuit:
                raise ProtocolError("pregarbled material is for a different circuit")
            if alice and bob and alice.copy_id != bob.copy_id:
                raise ProtocolError(
                    f"a lane's halves are of two copies, {alice.copy_id} and {bob.copy_id}"
                )
            if bob and (bits is None or list(bits) != bob.bits.tolist()):
                raise ProtocolError(
                    f"copy {bob.copy_id} holds Bob's labels for other input bits"
                )
        held = [half for lane in halves for half in lane if half]
        if len(set(held)) < len(held) or any(half.consumed for half in held):
            raise ProtocolError("pregarbled material cannot be reused")
        for (alice, bob), (alice_end, bob_end, _) in zip(halves, ends):
            sends = alice_end is None or alice is None or alice.garbled is not None
            receives = bob_end is None or bob is None
            if sends != receives:
                raise ProtocolError(
                    "a lane's halves disagree on its tables: Alice's "
                    + ("sends them in the request, Bob's holds them already"
                       if sends else "sent them before it, Bob's has none")
                )
        for half in held:
            half.claim()

    def _transfer(
        self,
        alice: Optional[Tuple[Channel, Garbler, Optional[GarbledCircuit]]],
        bob: Optional[Tuple[Channel, Optional[BobHalf]]],
        stats: ChannelStats,
        alice_bits: Optional[Sequence[int]],
        bob_bits: Optional[Sequence[int]],
        garble_s: float,
        tweak_base: int = 0,
        initial_state: Sequence[int] = (),
        digest: Optional[bytes] = None,
    ) -> "_Link":
        """Step (ii) of one round: Alice's flights move, Bob's view is
        rebuilt from them, the OT runs for Bob's labels; ``transfer`` and
        ``ot`` are timed apart.  ``alice`` is her end, garbler and tables
        (``None`` once they crossed before the request), ``bob`` his end
        and his claimed half (``None`` to receive the view and run the
        OT now; :meth:`_claim` saw that Alice's half agrees).  A
        non-empty ``initial_state`` (the public power-on register bits,
        cycle 0 of a sequential run) moves its labels as one
        ``state_labels`` frame after Alice's.  ``digest``, when given,
        is checked against Bob's view (:func:`receive_garbled`)."""
        bob_end, held = bob or (None, None)
        link = _Link(alice, bob_end, stats, {} if alice is None else {"garble": garble_s})
        start = time.perf_counter()
        if alice is not None:
            alice_end, garbler, garbled = alice
            send_garbled(alice_end, garbler, garbled, alice_bits or ())
            if initial_state:
                STATE_LABELS.send_labels(
                    alice_end,
                    garbler.input_labels_for(self.circuit.state_inputs, initial_state),
                )
        if bob_end is not None:
            view, alice_labels = receive_garbled(
                bob_end, self.shape, tweak_base, held and held.view, digest,
            )
            if initial_state:
                link.state_labels = STATE_LABELS.recv_rows(bob_end, self.shape)
        link.times["transfer"] = time.perf_counter() - start
        start = time.perf_counter()
        if held is None:
            bob_labels, _ = transfer_input_labels(
                alice and alice[1], self.circuit.bob_inputs, bob_bits,
                (alice and alice[0], bob_end), self.ot_state, rng=self.rng,
            )
        else:  # the copy's OT ran as it was made
            bob_labels = held.labels
        link.times["ot"] = time.perf_counter() - start
        if bob_end is not None:
            link.inputs = (view, alice_labels, bob_labels)
        return link

    def _merge(self, link: "_Link", output_labels: List[int]) -> ProtocolResult:
        """Step (iv) of one round, and its accounting: Bob returns the
        output labels, Alice decodes them."""
        start = time.perf_counter()
        outputs: List[int] = []
        if link.bob_end is not None:
            OUTPUT_LABELS.send_labels(link.bob_end, output_labels)
        if link.alice is not None:
            alice_end, garbler, _ = link.alice
            rows = OUTPUT_LABELS.recv_rows(alice_end, self.shape)
            outputs = garbler.decode_outputs(label_ints(rows))
        link.times["merge"] = time.perf_counter() - start
        return self._result(link, outputs)

    def _result(self, link: "_Link", outputs: List[int]) -> ProtocolResult:
        """One round's outcome and its link's traffic so far."""
        counts = self.circuit.counts()
        return ProtocolResult(
            outputs, link.times, link.stats.by_tag(), counts.xor, counts.non_xor
        )


class TwoPartySession(_Session):
    """The combinational protocol: one round per request, or a batch of
    requests around one evaluation pass.

    Args:
        circuit: the public netlist; registers are refused
            (:class:`repro.gc.sequential.SequentialSession` clocks them).
        kdf: garbling oracle shared by both parties.
        ot_group: group for base OTs.
        rng: randomness source for labels and OT.
        channel_factory: builds each request's channel pair — the seam
            where the chaos harness injects a
            :class:`repro.resilience.FaultyChannel`; defaults to the
            healthy in-memory link.
        ot_state: the owner's OT-extension state, so only its first
            request pays the base OT; ``None`` builds one for this
            session.
    """

    def __init__(
        self,
        circuit: Circuit,
        kdf: Optional[HashKDF] = None,
        ot_group: OTGroup = MODP_2048,
        rng: RngLike = secrets,
        channel_factory: Optional[LinkFactory] = None,
        ot_state: Optional[IKNPState] = None,
    ) -> None:
        if circuit.n_state:
            raise ProtocolError(
                "combinational protocol cannot run a sequential core; "
                "use repro.gc.sequential.SequentialSession"
            )
        super().__init__(circuit, kdf, ot_group, rng, channel_factory, ot_state)

    def pregarble_many(
        self, count: int, bob_bits: Optional[Sequence[int]]
    ) -> List[Copy]:
        """Batch offline phase: ``count`` single-use copies in one pass,
        each made for Bob's input ``bob_bits``.

        All copies share one walk of the level schedule (and one KDF
        batch per level), so warming a pool of ``k`` copies costs much
        less than ``k`` one-copy passes.  Where the session's links host
        both parties, each copy's offline messages
        (:data:`repro.gc.messages.OFFLINE_COPY`, its OT for ``bob_bits``
        on the session's OT state included) cross one such link here, in
        copy order.  Alice's half lets its tables go as they are sent;
        Bob's keeps the view rebuilt from the frames and his input labels
        with the bits they encode, so a request with other Bob bits is
        refused.  A session hosting Alice alone keeps each copy
        whole in her half, for the request to send and run the OT in
        (``bob_bits`` is not read: pass ``None``); one hosting Bob alone
        garbles nothing and raises :class:`ProtocolError`.
        """
        if count < 0:
            raise ProtocolError("copy count must be >= 0")
        alice_end, bob_end, stats = self.channel_factory()
        if alice_end is None:
            raise ProtocolError("only Alice garbles: this session's links host Bob alone")
        wires = self.circuit.bob_inputs
        if bob_end is not None and (bob_bits is None or len(bob_bits) != len(wires)):
            raise ProtocolError("Bob's input width mismatch")
        if count == 0:
            return []
        fresh = garble_many(self.circuit, count, kdf=self.kdf, rng=self.rng)
        if bob_end is None:
            return [(AliceHalf(garbler, garbled), None) for garbler, garbled in fresh]
        bits = np.array(bob_bits, dtype=np.uint8)
        made: List[Copy] = []
        fresh.reverse()
        while fresh:  # each copy's tables are dropped here once they are sent
            garbler, garbled = fresh.pop()
            sent = stats.bytes_a_to_b + stats.bytes_b_to_a
            labels, _ = chosen_ot(
                garbler.label_pair_rows(wires), bits,
                (alice_end, bob_end), state=self.ot_state, rng=self.rng,
            )
            send_tables(alice_end, garbled)
            del garbled
            view = receive_tables(bob_end, self.shape)
            alice = AliceHalf(garbler, None)
            made.append((alice, BobHalf(
                view, labels, bits, copy_id=alice.copy_id,
                offline_bytes=stats.bytes_a_to_b + stats.bytes_b_to_a - sent,
            )))
        return made

    def run_many(
        self,
        alice_bits_list: Sequence[Sequence[int]],
        bob_bits_list: Sequence[Sequence[int]],
        pregarbled: Optional[Sequence[Optional[Copy]]] = None,
        deadline: Optional["Deadline"] = None,
    ) -> List[ProtocolResult]:
        """Serve ``k`` requests through one batched evaluation pass.

        Each request is one lane of the round :meth:`run` drives:
        slots without pre-garbled material are garbled in one
        :func:`garble_many` pass, transfer and OT stay per request
        (every copy has its own labels; a pooled copy's OT ran as it
        was made), and all ``k`` label planes go
        through one walk of the level schedule.  Outputs are identical
        to ``k`` :meth:`run` calls on the same material.  A batch of
        more than one request needs both ends of every link in this
        process: one with an end elsewhere is refused before any
        material is claimed.

        Args:
            alice_bits_list: per-request client input bits.
            bob_bits_list: per-request server input bits (same length).
            pregarbled: optional per-request copies from
                :meth:`pregarble_many`; ``None`` slots are garbled fresh
                in one batch.
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
        if pregarbled is not None and len(pregarbled) != k:
            raise ProtocolError("run_many pregarbled list length mismatch")
        if k == 0:
            return []
        lanes = self._rounds(
            [[bits] for bits in zip(alice_bits_list, bob_bits_list)],
            pregarbled=pregarbled, deadline=deadline,
        )
        return [lane[0] for lane in lanes]

    def run(
        self,
        alice_bits: Optional[Sequence[int]],
        bob_bits: Optional[Sequence[int]],
        pregarbled: Optional[Copy] = None,
        deadline: Optional["Deadline"] = None,
        digest: Optional[bytes] = None,
    ) -> ProtocolResult:
        """Execute the protocol on plaintext inputs.

        Args:
            alice_bits: the client's input bits (kept on Alice's side;
                not read where Alice is hosted elsewhere — pass ``None``).
            bob_bits: the server's input bits (transferred only via OT;
                ``None`` where Bob is hosted elsewhere).
            pregarbled: a copy from :meth:`pregarble_many`, each end
                claiming its party's half; Alice's skips the online
                garbling phase (``times['garble']`` is then 0), and a
                Bob half, made for ``bob_bits``, the OT.
            deadline: optional per-request time budget, checked at every
                phase boundary and charged on every recv; expiry raises
                :class:`repro.errors.DeadlineExceeded`.
            digest: the digest (:meth:`GarbledCircuit.digest`) the garbler
                committed to for the tables and constant labels Bob
                evaluates — cut-and-choose's surviving copy; a view that
                misses it raises :class:`repro.errors.CommitmentError`
                before Bob's walk.

        Returns:
            The request's result; ``outputs`` is ``[]`` on a process
            that hosts Bob alone.
        """
        return self._rounds(
            [[(alice_bits, bob_bits)]], pregarbled=[pregarbled], deadline=deadline,
            digests=[digest],
        )[0][0]


@dataclasses.dataclass
class _Link:
    """One round between its garbling and its merge step."""

    #: Alice's end, labels and tables; None where another process hosts her
    alice: Optional[Tuple[Channel, Garbler, Optional[GarbledCircuit]]]
    #: Bob's end; None where another process hosts him
    bob_end: Optional[Channel]
    stats: ChannelStats
    #: seconds per phase so far ('garble', 'transfer', 'ot', ...)
    times: Dict[str, float]
    #: what Bob evaluates: his rebuilt view, Alice's labels, his own rows
    inputs: Optional[Tuple[GarbledCircuit, np.ndarray, np.ndarray]] = None
    #: the initial register labels Bob received (cycle 0 of a sequential run)
    state_labels: Optional[np.ndarray] = None


# One round on the wire is these functions, the OT flights of
# transfer_input_labels and _Session._merge; the order and every frame's
# size are the message table's (repro.gc.messages.round_messages).


def send_tables(alice_end: Channel, garbled: GarbledCircuit) -> None:
    """Alice's input-independent flights: tables, constant-wire labels."""
    TABLES.send(alice_end, garbled.tables_bytes())
    CONST_LABELS.send_labels(alice_end, list(garbled.const_labels))


def receive_tables(bob_end: Channel, shape: Shape, tweak_base: int = 0) -> GarbledCircuit:
    """Bob's view, rebuilt from the wire alone.

    Deserializing (rather than handing Bob the garbler's object) keeps
    the information flow honest: Bob sees tables and the two constant
    labels that crossed the link — no decode bits, nothing read off the
    garbler.  ``shape`` (the netlist's public counts) fixes the tables
    frame's size; ``tweak_base`` is 0 for a combinational round, the
    running tweak count of a sequential run.
    """
    blob = TABLES.recv(bob_end, shape)
    consts = label_ints(CONST_LABELS.recv_rows(bob_end))
    return GarbledCircuit(
        # zero-copy view: the fast evaluator reads the plane directly
        tables=np.frombuffer(blob, dtype=np.uint8).reshape(-1, 32),
        const_labels=(consts[0], consts[1]),
        decode_bits=[],  # withheld from the evaluator
        tweak_base=tweak_base,
    )


def send_garbled(
    alice_end: Channel,
    garbler: Garbler,
    garbled: Optional[GarbledCircuit],
    alice_bits: Sequence[int],
) -> None:
    """Alice's flights: tables and constant-wire labels unless they
    crossed before the request (``garbled`` is ``None``), her input labels."""
    if garbled is not None:
        send_tables(alice_end, garbled)
    ALICE_LABELS.send_labels(
        alice_end, garbler.input_labels_for(garbler.circuit.alice_inputs, alice_bits)
    )


def receive_garbled(
    bob_end: Channel,
    shape: Shape,
    tweak_base: int = 0,
    view: Optional[GarbledCircuit] = None,
    digest: Optional[bytes] = None,
) -> Tuple[GarbledCircuit, np.ndarray]:
    """Bob's view and Alice's label rows: the view received by
    :func:`receive_tables` unless it was before the request (``view``),
    then her input labels.  A view that misses the garbler's committed
    ``digest`` raises :class:`CommitmentError` before her labels are
    read."""
    if view is None:
        view = receive_tables(bob_end, shape, tweak_base)
    if digest is not None and view.digest() != digest:
        raise CommitmentError(
            "the garbled tables and constant labels Bob received miss the "
            "digest their garbler committed to"
        )
    return view, ALICE_LABELS.recv_rows(bob_end, shape)


def transfer_input_labels(
    garbler: Optional[Garbler],
    wires: Sequence[int],
    bits: Optional[Sequence[int]],
    channel: Ends,
    state: IKNPState,
    rng: RngLike = secrets,
) -> Tuple[np.ndarray, int]:
    """Transfer the evaluator's input labels obliviously.

    The OT entry point of every request that runs one: both phases on
    ``state``, ``u`` then ``e`` and ``y``
    (:func:`repro.gc.ot_extension.chosen_ot`).  A pooled copy whose
    halves are both here ran its OT as it was made
    (:meth:`TwoPartySession.pregarble_many`), so its request calls
    nothing here.  The labels stay ``(m, 16)`` uint8 rows from the
    garbler's plane to the evaluator's.

    Args:
        garbler: holder of the wire label pairs (OT sender messages,
            :meth:`Garbler.label_pair_rows`); ``None`` where the garbler
            is hosted elsewhere.
        wires: the evaluator's input wire ids (public).
        bits: the evaluator's plaintext choice bits; ``None`` where the
            evaluator is hosted elsewhere.
        channel: the ``(alice_end, bob_end)`` endpoints, ``None`` for the
            one not hosted here; every OT flight travels as a checksummed
            frame of the message table, so injected wire faults hit the
            OT data path and are detected by the framing layer, deadlines
            are charged on every flight, and the channel accounts the
            traffic.
        state: the caller's OT-extension state, whose one base-OT batch
            every transfer extends.
        rng: randomness source (the evaluator's random choices among it).

    Returns:
        ``(labels, total_bytes)`` — the chosen labels as ``(m, 16)``
        uint8 rows (``(0, 16)`` where the evaluator is hosted elsewhere)
        and the OT traffic this call put on ``channel``.
    """
    if bits is not None and len(wires) != len(bits):
        raise ProtocolError("Bob's input width mismatch")
    if not wires:
        return np.empty((0, 16), dtype=np.uint8), 0
    messages = None if garbler is None else garbler.label_pair_rows(wires)
    return chosen_ot(messages, bits, channel, state=state, rng=rng)


def execute(
    circuit: Circuit,
    alice_bits: Sequence[int],
    bob_bits: Sequence[int],
    kdf: Optional[HashKDF] = None,
    ot_group: OTGroup = MODP_2048,
    rng: RngLike = secrets,
) -> ProtocolResult:
    """One-call secure evaluation of ``circuit`` (Fig. 3 flow)."""
    session = TwoPartySession(circuit, kdf=kdf, ot_group=ot_group, rng=rng)
    return session.run(alice_bits, bob_bits)
