"""Execution backends behind one ``run(circuit, client_bits, server_bits)``.

Every way this reproduction can execute a compiled inference circuit —
direct two-party GC (Fig. 3), XOR-share outsourcing (Fig. 4 / Sec. 3.3),
cut-and-choose covert security (Sec. 2.4), and the plaintext reference
simulator — is normalized behind the :class:`Backend` contract and one
name -> class table, so services, CLIs and benchmarks select a flow by
name instead of hand-wiring sessions.  Every flow returns the session's
own record, :class:`~repro.gc.protocol.ProtocolResult`.
"""

from __future__ import annotations

import secrets
import time
from typing import Any, Dict, List, Optional, Sequence, Type

from ..circuits.netlist import Circuit
from ..circuits.simulate import simulate
from ..errors import EngineError
from ..gc.cipher import HashKDF
from ..gc.cutandchoose import CutAndChooseGarbler, verify_opened_copy
from ..gc.ot import MODP_2048, OTGroup
from ..gc.ot_extension import IKNPState
from ..gc.outsourcing import OutsourcedSession
from ..gc.protocol import (
    AliceHalf,
    ChannelFactory,
    Copy,
    ProtocolResult,
    TwoPartySession,
    # not called here: the layered benchmark's tracer still wraps this
    # binding; it goes when that wrap list is retired (ROADMAP item 1(a))
    transfer_input_labels,  # noqa: F401
)
from ..gc.rng import RngLike
from ..resilience.deadline import Deadline
from .pool import PregarbledPool

__all__ = [
    "Backend",
    "TwoPartyBackend",
    "OutsourcedBackend",
    "CutAndChooseBackend",
    "SimulateBackend",
    "available_backends",
    "get_backend",
]


class Backend:
    """One uniform execution flow over a compiled circuit.

    Subclasses implement :meth:`run`; construction carries only
    input-independent protocol parameters so one backend instance can
    serve many requests and many threads.  The one piece of state a
    backend holds across requests is :attr:`ot_state`, its OT-extension
    state: the first request that extends pays the base-OT batch, every
    later one (retries included) only burns a fresh counter under the
    state's own lock.  A caller that wants the base OT paid once must
    therefore keep the backend, as ``PrivateInferenceService`` does (it
    hands the two-party backend the state its pool extends on).

    Args:
        kdf: garbling oracle shared by both parties.
        ot_group: group for base OTs.
        rng: randomness source for labels and OT.
        channel_factory: builds each request's channel pair — the seam
            where the chaos harness injects faulty links; defaults to
            the healthy in-memory channel.
        request_timeout_s: per-request time budget; each :meth:`run`
            arms a fresh :class:`repro.resilience.Deadline` so no recv
            or phase outlives it (None = unlimited).
    """

    def __init__(
        self,
        kdf: Optional[HashKDF] = None,
        ot_group: OTGroup = MODP_2048,
        rng: RngLike = secrets,
        channel_factory: Optional[ChannelFactory] = None,
        request_timeout_s: Optional[float] = None,
    ) -> None:
        self.kdf = kdf
        self.ot_group = ot_group
        self.rng = rng
        self.channel_factory = channel_factory
        if request_timeout_s is not None and request_timeout_s <= 0:
            raise EngineError("request_timeout_s must be positive (or None)")
        self.request_timeout_s = request_timeout_s
        self.ot_state = IKNPState(group=ot_group, rng=rng)

    def _deadline(self) -> Optional[Deadline]:
        """Arm one request attempt's time budget."""
        return Deadline.start(self.request_timeout_s)

    def run(
        self,
        circuit: Circuit,
        client_bits: Sequence[int],
        server_bits: Sequence[int],
    ) -> ProtocolResult:
        """Execute ``circuit`` on the two parties' plaintext input bits."""
        raise NotImplementedError

    def run_many(
        self,
        circuit: Circuit,
        client_bits_list: Sequence[Sequence[int]],
        server_bits: Sequence[int],
        pooled: bool = True,
    ) -> List[ProtocolResult]:
        """Execute one request per entry of ``client_bits_list``, in order
        (how ``PrivateInferenceService`` serves every group).  A flow with
        no batched form runs them one after another; ``pooled`` matters
        only to a backend that holds offline material."""
        return [
            self.run(circuit, client_bits, server_bits)
            for client_bits in client_bits_list
        ]


class TwoPartyBackend(Backend):
    """Direct client/server GC protocol (Fig. 3).

    Args:
        pool: optional :class:`PregarbledPool`; when it holds material
            for the executed circuit and server bits the online run
            skips garbling and its OT entirely (offline/online split);
            a request for another circuit or other server bits runs
            cold and leaves the pool's copies in it.
        ot_state: the OT-extension state to extend on — the one the
            pool's copies extend on, so that the base OT is paid once;
            ``None`` keeps the backend's own.
    """

    def __init__(
        self,
        kdf: Optional[HashKDF] = None,
        ot_group: OTGroup = MODP_2048,
        rng: RngLike = secrets,
        pool: Optional[PregarbledPool] = None,
        channel_factory: Optional[ChannelFactory] = None,
        request_timeout_s: Optional[float] = None,
        ot_state: Optional[IKNPState] = None,
    ) -> None:
        super().__init__(
            kdf=kdf, ot_group=ot_group, rng=rng,
            channel_factory=channel_factory,
            request_timeout_s=request_timeout_s,
        )
        self.ot_state = ot_state or self.ot_state
        if pool is not None and not isinstance(pool, PregarbledPool):
            raise EngineError("pool must be a PregarbledPool (or None)")
        self.pool = pool

    def _session(
        self,
        circuit: Circuit,
        client_bits_list: Sequence[Sequence[int]],
        server_bits: Sequence[int],
    ) -> TwoPartySession:
        """Check every request's input widths — before the pool is
        touched, so a malformed request or batch cannot burn single-use
        pre-garbled units — then build the session."""
        for i, bits in enumerate(client_bits_list):
            if len(bits) != circuit.n_alice:
                raise EngineError(
                    f"client input width mismatch in request {i}: got "
                    f"{len(bits)}, circuit expects {circuit.n_alice}"
                )
        if len(server_bits) != circuit.n_bob:
            raise EngineError(
                f"server input width mismatch: got {len(server_bits)}, "
                f"circuit expects {circuit.n_bob}"
            )
        return TwoPartySession(
            circuit, kdf=self.kdf, ot_group=self.ot_group, rng=self.rng,
            channel_factory=self.channel_factory, ot_state=self.ot_state,
        )

    def run(
        self,
        circuit: Circuit,
        client_bits: Sequence[int],
        server_bits: Sequence[int],
        pooled: bool = True,
    ) -> ProtocolResult:
        """One request: a batch of one through :meth:`run_many`."""
        return self.run_many(circuit, [client_bits], server_bits, pooled)[0]

    def run_many(
        self,
        circuit: Circuit,
        client_bits_list: Sequence[Sequence[int]],
        server_bits: Sequence[int],
        pooled: bool = True,
    ) -> List[ProtocolResult]:
        """Serve a batch of requests through one evaluation pass.

        All requests share one :meth:`TwoPartySession.run_many` call, so
        garbling for pool misses is batched and every request's label
        plane goes through a single level-schedule walk
        (``FastEvaluator.evaluate_many``) instead of per-request runs.
        Each request still runs its own protocol round over its own
        link.  ``pooled=False`` garbles cold for this call, pool or not
        (how the service degrades while this backend's breaker is open),
        as does a pool made for another circuit or other server bits.
        """
        k = len(client_bits_list)
        if k == 0:
            return []
        session = self._session(circuit, client_bits_list, server_bits)
        server_bits = list(server_bits)
        slots: List[Optional[Copy]] = [None] * k
        pool = self.pool
        # a pool's copies serve one circuit and one set of weights
        if (
            pooled and pool is not None and pool.circuit is circuit
            and pool.bob_bits == server_bits
        ):
            slots = [pool.acquire() for _ in range(k)]
        return session.run_many(
            client_bits_list,
            [server_bits] * k,
            pregarbled=slots,
            deadline=self._deadline(),
        )


class OutsourcedBackend(Backend):
    """XOR-share proxy flow for constrained clients (Sec. 3.3, Fig. 4)."""

    #: the session of the circuit served last: it owns the transformed
    #: netlist and, through it, that netlist's level schedule — both
    #: input-independent, so requests on one circuit build them once
    _session: Optional[OutsourcedSession] = None

    def run(
        self,
        circuit: Circuit,
        client_bits: Sequence[int],
        server_bits: Sequence[int],
    ) -> ProtocolResult:
        session = self._session
        if session is None or session.original is not circuit:
            session = self._session = OutsourcedSession(
                circuit, kdf=self.kdf, ot_group=self.ot_group, rng=self.rng,
                channel_factory=self.channel_factory, ot_state=self.ot_state,
            )
        return session.run(client_bits, server_bits, deadline=self._deadline())


class CutAndChooseBackend(Backend):
    """Covert-security execution: garble ``copies``, open all but one.

    The evaluator verifies every opened copy against the garbler's seed
    commitments, then the surviving copy runs ``two_party``'s protocol
    round as pre-garbled material (Sec. 2.4's cut-and-choose pointer),
    every flight on the wire.  A cheating garbler is detected with
    probability ``1 - 1/copies``.  ``comm`` is the round's traffic plus
    two tags beside it, ``opened_tables`` (the opened copies' tables)
    and ``commitments`` (the seed commitments); ``times`` are the
    round's phases, ``garble`` covering every copy, and ``verify``.

    Args:
        copies: independent garblings (>= 2).
    """

    def __init__(
        self,
        kdf: Optional[HashKDF] = None,
        ot_group: OTGroup = MODP_2048,
        rng: RngLike = secrets,
        copies: int = 3,
        channel_factory: Optional[ChannelFactory] = None,
        request_timeout_s: Optional[float] = None,
    ) -> None:
        super().__init__(
            kdf=kdf, ot_group=ot_group, rng=rng,
            channel_factory=channel_factory,
            request_timeout_s=request_timeout_s,
        )
        self.copies = copies

    def _choose_surviving(self) -> int:
        if hasattr(self.rng, "randrange"):
            return self.rng.randrange(self.copies)
        return secrets.randbelow(self.copies)

    def run(
        self,
        circuit: Circuit,
        client_bits: Sequence[int],
        server_bits: Sequence[int],
    ) -> ProtocolResult:
        deadline = self._deadline()

        # garbler: k committed, seed-derived garblings
        start = time.perf_counter()
        cnc = CutAndChooseGarbler(
            circuit, copies=self.copies, kdf=self.kdf, rng=self.rng,
        )
        commitments = cnc.commitments()
        tables = cnc.tables()
        garble_s = time.perf_counter() - start
        if deadline is not None:
            deadline.check("garble")

        # evaluator: challenge all copies but one, verify the openings
        start = time.perf_counter()
        surviving = self._choose_surviving()
        challenge = [i for i in range(self.copies) if i != surviving]
        if not verify_opened_copy(
            circuit,
            cnc.open(challenge),
            [commitments[i] for i in challenge],
            [tables[i] for i in challenge],
            kdf=self.kdf,
        ):
            raise EngineError(
                f"cut-and-choose: an opened copy of {challenge} failed verification"
            )
        verify_s = time.perf_counter() - start
        if deadline is not None:
            deadline.check("verify")

        # the surviving copy runs the protocol round (Fig. 3) on the wire
        result = TwoPartySession(
            circuit, kdf=cnc.kdf, ot_group=self.ot_group, rng=self.rng,
            channel_factory=self.channel_factory, ot_state=self.ot_state,
        ).run(
            client_bits, server_bits,
            # Alice's half alone: its tables and the OT cross in the round
            pregarbled=(
                AliceHalf(cnc.evaluation_garbler(surviving), cnc.garbled[surviving]),
                None,
            ),
            deadline=deadline,
        )
        # the surviving copy was garbled in this request, not in a pool
        result.pregarbled = False
        # beside the round: the opened copies' tables and the commitments
        result.comm["opened_tables"] = sum(tables[i].nbytes for i in challenge)
        result.comm["commitments"] = sum(len(c) for c in commitments)
        result.times["garble"] += garble_s
        result.times["verify"] = verify_s
        return result


class SimulateBackend(Backend):
    """Plaintext reference execution — no crypto, for tests and sizing."""

    def run(
        self,
        circuit: Circuit,
        client_bits: Sequence[int],
        server_bits: Sequence[int],
    ) -> ProtocolResult:
        start = time.perf_counter()
        outputs = simulate(circuit, client_bits, server_bits)
        elapsed = time.perf_counter() - start
        counts = circuit.counts()
        return ProtocolResult(
            outputs, {"simulate": elapsed}, {}, counts.xor, counts.non_xor
        )


_BACKENDS: Dict[str, Type[Backend]] = {
    "two_party": TwoPartyBackend,
    "outsourced": OutsourcedBackend,
    "cut_and_choose": CutAndChooseBackend,
    "simulate": SimulateBackend,
}


def available_backends() -> List[str]:
    """Sorted names of every backend."""
    return sorted(_BACKENDS)


def get_backend(name: str, **options: Any) -> Backend:
    """Instantiate a backend by name.

    Args:
        name: one of :func:`available_backends`.
        options: constructor keywords of the chosen backend (``kdf``,
            ``ot_group``, ``rng``, plus backend-specific knobs such as
            ``copies`` for cut-and-choose or ``pool`` for two-party).

    Raises:
        EngineError: unknown name, or options the backend rejects.
    """
    try:
        cls = _BACKENDS[name]
    except KeyError:
        raise EngineError(
            f"unknown backend {name!r}; registered: "
            f"{', '.join(available_backends())}"
        ) from None
    try:
        return cls(**options)
    except TypeError as exc:
        raise EngineError(f"bad options for backend {name!r}: {exc}") from None
