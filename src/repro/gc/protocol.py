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

The text is one round, clocked once per cycle: a combinational circuit
is the one-cycle, zero-register case (its drivers are named where the
round's wire functions are defined, below).
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
from ..circuits.sequential import Register
from ..errors import ChannelIntegrityError, ProtocolError
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
from .garble import GarbledCircuit, Garbler, LazyTables
from .labels import LabelsLike
from .ot import MODP_2048, OTGroup, base_ot_bytes, base_ot_over_channel
from .ot_extension import Ends, IKNPState, extension_ot
from .rng import RngLike

__all__ = [
    "Pregarbled",
    "ProtocolResult",
    "TwoPartySession",
    "execute",
    "transfer_input_labels",
]

#: The one OT rule: a transfer extends when the caller holds an
#: :class:`IKNPState` (its base OT is paid once, so even a narrow
#: transfer is cheaper through it) or when it moves at least this many
#: evaluator input bits; otherwise the base OT runs directly.
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
        self.ot_group = ot_group
        self.rng = rng
        self.channel_factory: LinkFactory = (
            channel_factory if channel_factory is not None
            else default_channel_factory()
        )
        self.ot_state = ot_state

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

    def _rounds(
        self,
        inputs: Sequence[Tuple[Optional[Sequence[int]], Optional[Sequence[int]]]],
        registers: Sequence[Register] = (),
        final_only: bool = False,
        share_result: bool = False,
        pregarbled: Optional[Pregarbled] = None,
        deadline: Optional["Deadline"] = None,
    ) -> List[ProtocolResult]:
        """The protocol round once per ``(alice_bits, bob_bits)`` cycle
        of ``inputs``, on one link; one :class:`ProtocolResult` per cycle
        (its ``comm`` is the link's traffic so far).

        Cycle 0 claims ``pregarbled`` or garbles and moves the labels of
        the public initial ``registers`` state; every later cycle
        re-garbles on the same garbler (one Δ, tweaks advanced by the
        public table count) with the d-wires' zero-labels as the
        q-wires', while the evaluator carries its active labels.
        ``final_only`` merges the last round alone; ``share_result``
        applies to the last round.  A multi-cycle run handed no OT state
        builds one, so it pays the base OT once.
        """
        circuit = self.circuit
        alice_end, bob_end, stats = open_link(self.channel_factory, deadline)
        ot_state = self.ot_state
        if ot_state is None and len(inputs) > 1:
            ot_state = IKNPState(self.ot_group, self.rng)
        d_wires = [reg.d_wire for reg in registers]
        initial_state = [reg.init & 1 for reg in registers]
        n_tables = circuit.counts().non_xor
        garbler: Optional[Garbler] = None
        evaluator: Optional[FastEvaluator] = None
        carried: Optional[LabelsLike] = None  # the evaluator's register labels
        results: List[ProtocolResult] = []
        for cycle, (alice_bits, bob_bits) in enumerate(inputs):
            last = cycle == len(inputs) - 1
            tweak_base = 2 * n_tables * cycle
            # (i) garbling — Alice (cycle 0 offline when pregarbled)
            alice: Optional[Tuple[Channel, Garbler, GarbledCircuit]] = None
            garble_s = 0.0
            if alice_end is not None:
                start = time.perf_counter()
                if garbler is None:
                    garbler, garbled = self._claim(
                        pregarbled if pregarbled is not None else self.pregarble()
                    )
                else:
                    garbled = garbler.garble(
                        # the d-wires' zero-labels, off the OT's label rows
                        state_zero_labels=garbler.label_pair_rows(d_wires)[:, 0],
                        tweak_base=tweak_base,
                    )
                alice = (alice_end, garbler, garbled)
                garble_s = time.perf_counter() - start
                if deadline is not None:
                    deadline.check("garble")

            # (ii) data transfer + OT
            link = self._transfer(
                alice, bob_end, stats, alice_bits, bob_bits, garble_s, ot_state,
                tweak_base, initial_state if cycle == 0 else (),
            )

            # (iii) evaluation — Bob
            output_labels: List[int] = []
            if link.inputs is not None:
                start = time.perf_counter()
                if evaluator is None:
                    evaluator = FastEvaluator(
                        circuit, kdf=garbler.kdf if garbler else self.kdf
                    )
                plane = evaluator.evaluate(
                    *link.inputs,
                    state_labels=carried if cycle else link.state_labels,
                )
                output_labels = evaluator.output_labels(plane)
                carried = plane.plane[d_wires]
                link.times["evaluate"] = time.perf_counter() - start
                if deadline is not None:
                    deadline.check("evaluate")

            # (iv) merge — Bob returns output labels, Alice decodes
            if last or not final_only:
                results.append(self._merge(link, output_labels, share_result and last))
            else:  # an earlier cycle of a final_only run reveals nothing
                results.append(self._result(link, []))
        return results

    def _claim(self, pregarbled: Pregarbled) -> Tuple[Garbler, GarbledCircuit]:
        """Take single-use offline material garbled for this circuit."""
        if pregarbled.circuit is not self.circuit:
            raise ProtocolError("pregarbled material is for a different circuit")
        pregarbled.claim()
        return pregarbled.garbler, pregarbled.garbled

    def _transfer(
        self,
        alice: Optional[Tuple[Channel, Garbler, GarbledCircuit]],
        bob_end: Optional[Channel],
        stats: ChannelStats,
        alice_bits: Optional[Sequence[int]],
        bob_bits: Optional[Sequence[int]],
        garble_s: float,
        ot_state: Optional[IKNPState],
        tweak_base: int = 0,
        initial_state: Sequence[int] = (),
    ) -> "_Link":
        """Step (ii) of one round: Alice's flights move, Bob's view is
        rebuilt from them, the OT runs for Bob's labels; ``transfer`` and
        ``ot`` are timed apart.  A non-empty ``initial_state`` (the
        public power-on register bits, cycle 0 of a sequential run) moves
        its labels as one ``state_labels`` frame after Alice's."""
        link = _Link(alice, bob_end, stats, {} if alice is None else {"garble": garble_s})
        start = time.perf_counter()
        if alice is not None:
            alice_end, garbler, garbled = alice
            send_garbled(alice_end, garbler, garbled, alice_bits or ())
            if initial_state:
                alice_end.send_labels(
                    garbler.input_labels_for(self.circuit.state_inputs, initial_state),
                    tag="state_labels",
                )
        if bob_end is not None:
            view, alice_labels = receive_garbled(
                bob_end, self.circuit.counts().non_xor, tweak_base
            )
            if initial_state:
                state = bob_end.recv_labels(expected_tag="state_labels")
                if len(state) != len(initial_state):
                    raise ChannelIntegrityError(
                        f"state-label payload carries {len(state)} entries "
                        f"for {len(initial_state)} registers"
                    )
                link.state_labels = state
        link.times["transfer"] = time.perf_counter() - start
        start = time.perf_counter()
        bob_labels, _ = transfer_input_labels(
            alice and alice[1], self.circuit.bob_inputs, bob_bits,
            (alice and alice[0], bob_end),
            group=self.ot_group, rng=self.rng, state=ot_state,
        )
        link.times["ot"] = time.perf_counter() - start
        if bob_end is not None:
            link.inputs = (view, alice_labels, bob_labels)
        return link

    def _merge(
        self, link: "_Link", output_labels: List[int], share_result: bool = False
    ) -> ProtocolResult:
        """Step (iv) of one round, and its accounting."""
        start = time.perf_counter()
        outputs: List[int] = []
        if link.bob_end is not None:
            send_outputs(link.bob_end, output_labels)
        if link.alice is not None:
            alice_end, garbler, _ = link.alice
            outputs = receive_outputs(alice_end, garbler)
            if share_result:
                alice_end.send_bits(outputs, tag="shared_result")
        if share_result and link.bob_end is not None:
            shared = link.bob_end.recv_bits(expected_tag="shared_result")
            if link.alice is not None and shared != outputs:
                raise ProtocolError("result sharing corrupted")
            outputs = shared
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
            request pays the base OT; ``None`` pays it on every request
            that extends.
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
        to ``k`` :meth:`run` calls on the same material.  A both-parties
        method: a link with one end elsewhere is refused before any
        material is claimed.

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

        ends = [open_link(self.channel_factory, deadline) for _ in range(k)]
        if any(alice_end is None or bob_end is None for alice_end, bob_end, _ in ends):
            raise ProtocolError(
                "run_many batches both parties' work: it needs both ends "
                "of every link in this process"
            )

        # (i) garbling: claim offline material, batch-garble the rest
        material: Dict[int, Tuple[Garbler, GarbledCircuit]] = {
            i: self._claim(s) for i, s in enumerate(slots) if s is not None
        }
        garble_s = [0.0] * k
        missing = [i for i in range(k) if i not in material]
        if missing:
            start = time.perf_counter()
            fresh = garble_many(
                circuit, len(missing), kdf=self.kdf, rng=self.rng
            )
            per_copy = (time.perf_counter() - start) / len(missing)
            material.update(zip(missing, fresh))
            for i in missing:
                garble_s[i] = per_copy
        if deadline is not None:
            deadline.check("garble")

        # (ii) transfer + OT, per request over its own accounted channel
        links = [
            self._transfer(
                alice_end and (alice_end, *material[i]), bob_end, stats,
                alice_bits_list[i], bob_bits_list[i], garble_s[i], self.ot_state,
            )
            for i, (alice_end, bob_end, stats) in enumerate(ends)
        ]

        # (iii) batched evaluation — one schedule pass for all requests
        evaluator = FastEvaluator(circuit, kdf=eval_kdf)
        start = time.perf_counter()
        views, alice_labels, bob_labels = zip(
            *(link.inputs for link in links if link.inputs)
        )
        planes = evaluator.evaluate_many(views, alice_labels, bob_labels)
        evaluate_per_request = (time.perf_counter() - start) / k
        if deadline is not None:
            deadline.check("evaluate")

        # (iv) merge per request
        results: List[ProtocolResult] = []
        for link, plane in zip(links, planes):
            link.times["evaluate"] = evaluate_per_request
            results.append(self._merge(link, evaluator.output_labels(plane)))
        return results

    def run(
        self,
        alice_bits: Optional[Sequence[int]],
        bob_bits: Optional[Sequence[int]],
        share_result: bool = False,
        pregarbled: Optional[Pregarbled] = None,
        deadline: Optional["Deadline"] = None,
    ) -> ProtocolResult:
        """Execute the protocol on plaintext inputs.

        Args:
            alice_bits: the client's input bits (kept on Alice's side;
                not read where Alice is hosted elsewhere — pass ``None``).
            bob_bits: the server's input bits (transferred only via OT;
                ``None`` where Bob is hosted elsewhere).
            share_result: if True, Alice sends the decoded result back to
                Bob (optional final step of Sec. 2.2.2).
            pregarbled: offline material from :meth:`pregarble`; skips
                the online garbling phase (``times['garble']`` is then
                the near-zero bookkeeping cost).
            deadline: optional per-request time budget, checked at every
                phase boundary and charged on every recv; expiry raises
                :class:`repro.errors.DeadlineExceeded`.

        Returns:
            The request's result; ``outputs`` is ``[]`` on a process
            that hosts Bob alone, unless ``share_result``.
        """
        return self._rounds(
            [(alice_bits, bob_bits)], share_result=share_result,
            pregarbled=pregarbled, deadline=deadline,
        )[0]


def open_link(
    factory: LinkFactory, deadline: Optional["Deadline"]
) -> Tuple[Optional[Channel], Optional[Channel], ChannelStats]:
    """One request's link, its deadline armed on the ends held here."""
    alice_end, bob_end, stats = factory()
    for end in (alice_end, bob_end):
        if end is not None and deadline is not None:
            end.deadline = deadline
    return alice_end, bob_end, stats


@dataclasses.dataclass
class _Link:
    """One round between its garbling and its merge step."""

    #: Alice's end, labels and tables; None where another process hosts her
    alice: Optional[Tuple[Channel, Garbler, GarbledCircuit]]
    #: Bob's end; None where another process hosts him
    bob_end: Optional[Channel]
    stats: ChannelStats
    #: seconds per phase so far ('garble', 'transfer', 'ot', ...)
    times: Dict[str, float]
    #: what Bob evaluates: his rebuilt view, Alice's labels, his own rows
    inputs: Optional[Tuple[GarbledCircuit, List[int], np.ndarray]] = None
    #: the initial register labels Bob received (cycle 0 of a sequential run)
    state_labels: Optional[List[int]] = None


# One round on the wire — what crosses the link, in what order, and what
# the evaluator may see — is these four functions, with the OT flights
# of transfer_input_labels between the second and the third (and, at
# cycle 0 of a run with registers, one state_labels frame before them).
# _Session._transfer and _merge call them, each on the end of the party
# it belongs to, for the round's three drivers — TwoPartySession.run,
# each SequentialSession cycle and cut-and-choose's surviving copy — and
# for each slot of run_many(): two processes and fault plans that
# address frames by position rely on one order.


def send_garbled(
    alice_end: Channel,
    garbler: Garbler,
    garbled: GarbledCircuit,
    alice_bits: Sequence[int],
) -> None:
    """Alice's flights: tables, constant-wire labels, her input labels."""
    alice_end.send_bytes(garbled.tables_bytes(), tag="tables")
    alice_end.send_labels(list(garbled.const_labels), tag="const_labels")
    alice_end.send_labels(
        garbler.input_labels_for(garbler.circuit.alice_inputs, alice_bits),
        tag="alice_labels",
    )


def receive_garbled(
    bob_end: Channel, n_tables: int, tweak_base: int = 0
) -> Tuple[GarbledCircuit, List[int]]:
    """Bob's view and Alice's labels, rebuilt from the wire alone.

    Deserializing (rather than handing Bob the garbler's object) keeps
    the information flow honest: Bob sees tables and the two constant
    labels that crossed the link — no decode bits, nothing read off the
    garbler.  ``n_tables`` (the netlist's non-free gate count) and
    ``tweak_base`` are public: the tables frame must carry exactly that
    many tables; the base is 0 for a combinational round, the running
    tweak count of a sequential run.
    """
    blob = bob_end.recv_bytes(expected_tag="tables")
    consts = bob_end.recv_labels(expected_tag="const_labels")
    alice_labels = bob_end.recv_labels(expected_tag="alice_labels")
    if len(blob) != 32 * n_tables:
        raise ChannelIntegrityError(
            f"tables frame carries {len(blob) // 32} tables ({len(blob)} "
            f"bytes); the netlist has {n_tables}"
        )
    if len(consts) != 2:
        raise ChannelIntegrityError(
            f"constant-wire payload carries {len(consts)} entries, not 2"
        )
    # zero-copy view: the fast evaluator reads the plane directly
    plane = np.frombuffer(blob, dtype=np.uint8).reshape(-1, 32)
    view = GarbledCircuit(
        tables=LazyTables(plane),
        const_labels=(consts[0], consts[1]),
        decode_bits=[],  # withheld from the evaluator
        tweak_base=tweak_base,
        tables_plane=plane,
    )
    return view, alice_labels


def send_outputs(bob_end: Channel, output_labels: List[int]) -> None:
    """The merge step, Bob's half: return the output labels."""
    bob_end.send_labels(output_labels, tag="output_labels")


def receive_outputs(alice_end: Channel, garbler: Garbler) -> List[int]:
    """The merge step, Alice's half: decode what Bob returned."""
    return garbler.decode_outputs(
        alice_end.recv_labels(expected_tag="output_labels")
    )


def transfer_input_labels(
    garbler: Optional[Garbler],
    wires: Sequence[int],
    bits: Optional[Sequence[int]],
    channel: Ends,
    group: OTGroup = MODP_2048,
    rng: RngLike = secrets,
    state: Optional[IKNPState] = None,
) -> Tuple[np.ndarray, int]:
    """Transfer the evaluator's input labels obliviously.

    The single OT entry point every flow shares, with one rule: the IKNP
    extension runs when the caller holds an OT state or the transfer
    moves at least :data:`OT_EXTENSION_THRESHOLD` bits; otherwise the
    base OT runs directly (:func:`repro.gc.ot.base_ot_over_channel`).
    The labels stay ``(m, 16)`` uint8 rows from the garbler's plane to
    the evaluator's.

    Args:
        garbler: holder of the wire label pairs (OT sender messages,
            :meth:`Garbler.label_pair_rows`); ``None`` where the garbler
            is hosted elsewhere.
        wires: the evaluator's input wire ids (public).
        bits: the evaluator's plaintext choice bits; ``None`` where the
            evaluator is hosted elsewhere.
        channel: the ``(alice_end, bob_end)`` endpoints, ``None`` for the
            one not hosted here; every OT flight travels as checksummed
            ``"ot"``-tagged frames, so injected wire faults hit the OT
            data path and are detected by the framing layer, deadlines
            are charged on every flight, and the channel accounts the
            traffic.
        group: group for base OTs.
        rng: randomness source.
        state: the caller's OT-extension state, whose one base-OT batch
            every transfer then extends; ``None`` extends (on a base-OT
            batch of its own) only at or above the threshold.

    Returns:
        ``(labels, total_bytes)`` — the chosen labels as ``(m, 16)``
        uint8 rows (``(0, 16)`` where the evaluator is hosted elsewhere)
        and the OT traffic.
    """
    if bits is not None and len(wires) != len(bits):
        raise ProtocolError("Bob's input width mismatch")
    if not wires:
        return np.empty((0, 16), dtype=np.uint8), 0
    messages = None if garbler is None else garbler.label_pair_rows(wires)
    if state is not None or len(wires) >= OT_EXTENSION_THRESHOLD:
        return extension_ot(
            messages, bits, group=group, rng=rng, channel=channel, state=state
        )
    pairs = None if messages is None else [
        (zero.tobytes(), one.tobytes()) for zero, one in messages
    ]
    chosen = base_ot_over_channel(pairs, bits, 16, *channel, group=group, rng=rng)
    rows = np.frombuffer(b"".join(chosen), dtype=np.uint8).reshape(-1, 16)
    return rows, base_ot_bytes(group, len(wires), 16)


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
