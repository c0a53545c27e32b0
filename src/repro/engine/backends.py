"""Execution backends behind one ``run(circuit, client_bits, server_bits)``.

Every way this reproduction can execute a compiled inference circuit —
direct two-party GC (Fig. 3), XOR-share outsourcing (Fig. 4 / Sec. 3.3),
single-cycle sequential garbling (the Sec. 3.5 folded machinery),
cut-and-choose covert security (Sec. 2.4), and the plaintext reference
simulator — is normalized behind the :class:`Backend` contract and a
string-keyed registry, so services, CLIs and benchmarks select a flow by
name instead of hand-wiring sessions.

Registering a new backend is one decorator::

    @register_backend("my_flow")
    class MyBackend(Backend):
        def run(self, circuit, client_bits, server_bits): ...
"""

from __future__ import annotations

import random
import secrets
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Type

from ..circuits.netlist import Circuit
from ..circuits.sequential import SequentialCircuit
from ..circuits.simulate import simulate
from ..errors import EngineError
from ..gc.cipher import HashKDF
from ..gc.cutandchoose import CutAndChooseGarbler, verify_opened_copy
from ..gc.ot import MODP_2048, OTGroup
from ..gc.ot_extension import IKNPState
from ..gc.outsourcing import OutsourcedSession
from ..gc.protocol import (
    ChannelFactory,
    Pregarbled,
    TwoPartySession,
    # not called here: the layered benchmark's tracer still wraps this
    # binding; it goes when that wrap list is retired (ROADMAP item 1(a))
    transfer_input_labels,  # noqa: F401
)
from ..gc.rng import RngLike
from ..gc.sequential import SequentialSession
from ..resilience.deadline import Deadline
from .pool import PregarbledPool
from .result import ExecutionResult

__all__ = [
    "Backend",
    "TwoPartyBackend",
    "OutsourcedBackend",
    "FoldedBackend",
    "CutAndChooseBackend",
    "SimulateBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "run",
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
    therefore keep the backend, as ``PrivateInferenceService`` does.

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

    #: Registry key, set by :func:`register_backend`.
    name: str = "abstract"

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
    ) -> ExecutionResult:
        """Execute ``circuit`` on the two parties' plaintext input bits."""
        raise NotImplementedError


_REGISTRY: Dict[str, Type[Backend]] = {}


def register_backend(name: str) -> Callable[[Type[Backend]], Type[Backend]]:
    """Class decorator: expose a :class:`Backend` under ``name``."""

    def decorator(cls: Type[Backend]) -> Type[Backend]:
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return decorator


def available_backends() -> List[str]:
    """Sorted names of every registered backend."""
    return sorted(_REGISTRY)


def get_backend(name: str, **options: Any) -> Backend:
    """Instantiate a registered backend by name.

    Args:
        name: registry key (see :func:`available_backends`).
        options: constructor keywords of the chosen backend (``kdf``,
            ``ot_group``, ``rng``, plus backend-specific knobs such as
            ``copies`` for cut-and-choose or ``pool`` for two-party).

    Raises:
        EngineError: unknown name, or options the backend rejects.
    """
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise EngineError(
            f"unknown backend {name!r}; registered: "
            f"{', '.join(available_backends())}"
        ) from None
    try:
        return cls(**options)
    except TypeError as exc:
        raise EngineError(f"bad options for backend {name!r}: {exc}") from None


def run(
    circuit: Circuit,
    client_bits: Sequence[int],
    server_bits: Sequence[int],
    backend: str = "two_party",
    **options: Any,
) -> ExecutionResult:
    """One-call execution through any registered backend."""
    return get_backend(backend, **options).run(circuit, client_bits, server_bits)


# ---------------------------------------------------------------------------
# the five built-in flows
# ---------------------------------------------------------------------------


@register_backend("two_party")
class TwoPartyBackend(Backend):
    """Direct client/server GC protocol (Fig. 3).

    Args:
        pool: optional :class:`PregarbledPool`; when it holds material
            for the executed circuit the online run skips garbling
            entirely (offline/online split).
    """

    def __init__(
        self,
        kdf: Optional[HashKDF] = None,
        ot_group: OTGroup = MODP_2048,
        rng: RngLike = secrets,
        pool: Optional[PregarbledPool] = None,
        channel_factory: Optional[ChannelFactory] = None,
        request_timeout_s: Optional[float] = None,
    ) -> None:
        super().__init__(
            kdf=kdf, ot_group=ot_group, rng=rng,
            channel_factory=channel_factory,
            request_timeout_s=request_timeout_s,
        )
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

    @staticmethod
    def _metadata(slot: Optional[Pregarbled], **extra: object) -> Dict[str, object]:
        """What a result says about the offline material it consumed."""
        metadata: Dict[str, object] = {"pregarbled": slot is not None, **extra}
        if slot is not None:
            metadata["offline_garble_s"] = slot.garble_seconds
        return metadata

    def run(
        self,
        circuit: Circuit,
        client_bits: Sequence[int],
        server_bits: Sequence[int],
        pooled: bool = True,
    ) -> ExecutionResult:
        """``pooled=False`` garbles cold for this call, pool or not (how
        the service degrades while this backend's breaker is open)."""
        session = self._session(circuit, [client_bits], server_bits)
        pregarbled = None
        if pooled and self.pool is not None and self.pool.circuit is circuit:
            pregarbled = self.pool.acquire()
        result = session.run(
            client_bits, server_bits, pregarbled=pregarbled,
            deadline=self._deadline(),
        )
        return ExecutionResult.from_protocol(
            result, self.name, self._metadata(pregarbled)
        )

    def run_many(
        self,
        circuit: Circuit,
        client_bits_list: Sequence[Sequence[int]],
        server_bits: Sequence[int],
    ) -> List[ExecutionResult]:
        """Serve a batch of requests through one evaluation pass.

        All requests share one :meth:`TwoPartySession.run_many` call, so
        garbling for pool misses is batched and every request's label
        plane goes through a single level-schedule walk
        (``FastEvaluator.evaluate_many``) instead of per-request runs.
        ``PrivateInferenceService.infer_many`` routes same-backend
        requests here.
        """
        k = len(client_bits_list)
        if k == 0:
            return []
        session = self._session(circuit, client_bits_list, server_bits)
        slots: List[Optional[Pregarbled]] = [None] * k
        if self.pool is not None and self.pool.circuit is circuit:
            slots = [self.pool.acquire() for _ in range(k)]
        protocol_results = session.run_many(
            client_bits_list,
            [list(server_bits)] * k,
            pregarbled=slots,
            deadline=self._deadline(),
        )
        return [
            ExecutionResult.from_protocol(
                result, self.name, self._metadata(slot, batched=k)
            )
            for result, slot in zip(protocol_results, slots)
        ]


@register_backend("outsourced")
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
    ) -> ExecutionResult:
        session = self._session
        if session is None or session.original is not circuit:
            session = self._session = OutsourcedSession(
                circuit, kdf=self.kdf, ot_group=self.ot_group, rng=self.rng,
                channel_factory=self.channel_factory, ot_state=self.ot_state,
            )
        outcome = session.run(
            client_bits, server_bits, deadline=self._deadline()
        )
        # the client-visible outputs are the proxy run's own
        return ExecutionResult.from_protocol(
            outcome.proxy_result, self.name,
            {"client_work_bits": len(client_bits)},
        )


@register_backend("folded")
class FoldedBackend(Backend):
    """Sequential-garbling execution path (the Sec. 3.5 machinery).

    The combinational circuit is wrapped as a zero-register sequential
    core and driven through :class:`repro.gc.sequential.SequentialSession`
    for one clock cycle — the driver that clocks folded MAC cells,
    exercised at service level, here running ``two_party``'s round frame
    for frame.
    """

    def run(
        self,
        circuit: Circuit,
        client_bits: Sequence[int],
        server_bits: Sequence[int],
    ) -> ExecutionResult:
        if circuit.n_state:
            raise EngineError(
                "folded backend expects a combinational compiled circuit"
            )
        sequential = SequentialCircuit(circuit, [])
        session = SequentialSession(
            sequential, kdf=self.kdf, ot_group=self.ot_group, rng=self.rng,
            channel_factory=self.channel_factory, ot_state=self.ot_state,
        )
        result = session.run(
            [list(client_bits)], [list(server_bits)], cycles=1,
            deadline=self._deadline(),
        )
        counts = circuit.counts()
        return ExecutionResult(
            outputs=list(result.final_outputs),
            backend=self.name,
            times=dict(result.times_per_cycle[0]),
            comm_bytes=sum(result.comm.values()),
            n_xor=counts.xor,
            n_non_xor=result.n_non_xor_per_cycle,
            metadata={"cycles": 1},
        )


@register_backend("cut_and_choose")
class CutAndChooseBackend(Backend):
    """Covert-security execution: garble ``copies``, open all but one.

    The evaluator verifies every opened copy against the garbler's seed
    commitments, then the surviving copy runs ``two_party``'s protocol
    round as pre-garbled material (Sec. 2.4's cut-and-choose pointer),
    every flight on the wire.  A cheating garbler is detected with
    probability ``1 - 1/copies``.  ``comm_bytes`` is the round's traffic
    plus the opened copies' tables and the seed commitments; ``times``
    are the round's phases, ``garble`` covering every copy.

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
    ) -> ExecutionResult:
        deadline = self._deadline()

        # garbler: k committed, seed-derived garblings.  The seed source
        # must expose getrandbits; bridge module-style rngs (secrets)
        # through a CSPRNG-seeded generator instead of downgrading to an
        # unseeded Mersenne Twister.
        start = time.perf_counter()
        if hasattr(self.rng, "getrandbits"):
            seed_rng = self.rng
        else:
            seed_rng = random.Random(secrets.randbits(128))
        cnc = CutAndChooseGarbler(
            circuit, copies=self.copies, kdf=self.kdf, rng=seed_rng,
        )
        commitments = cnc.commitments()
        tables = cnc.tables()
        garble_s = time.perf_counter() - start
        if deadline is not None:
            deadline.check("garble")

        # evaluator: challenge all copies but one, verify each opening
        start = time.perf_counter()
        surviving = self._choose_surviving()
        challenge = [i for i in range(self.copies) if i != surviving]
        for opened in cnc.open(challenge):
            if not verify_opened_copy(
                circuit,
                opened,
                commitments[opened.index],
                tables[opened.index],
                kdf=self.kdf,
            ):
                raise EngineError(
                    f"cut-and-choose: copy {opened.index} failed verification"
                )
        verify_s = time.perf_counter() - start
        if deadline is not None:
            deadline.check("verify")

        # the surviving copy runs the protocol round (Fig. 3) on the wire
        round_ = TwoPartySession(
            circuit, kdf=cnc.kdf, ot_group=self.ot_group, rng=self.rng,
            channel_factory=self.channel_factory, ot_state=self.ot_state,
        ).run(
            client_bits, server_bits,
            pregarbled=Pregarbled(
                circuit, cnc.evaluation_garbler(surviving),
                cnc.garbled[surviving], 0.0,
            ),
            deadline=deadline,
        )
        result = ExecutionResult.from_protocol(
            round_, self.name, {"copies": self.copies, "surviving": surviving}
        )
        # beside the round: the opened copies' tables and the commitments
        result.comm_bytes += sum(len(tables[i]) for i in challenge)
        result.comm_bytes += sum(len(c) for c in commitments)
        result.times["garble"] += garble_s
        result.times["verify"] = verify_s
        return result


@register_backend("simulate")
class SimulateBackend(Backend):
    """Plaintext reference execution — no crypto, for tests and sizing."""

    def run(
        self,
        circuit: Circuit,
        client_bits: Sequence[int],
        server_bits: Sequence[int],
    ) -> ExecutionResult:
        start = time.perf_counter()
        outputs = simulate(circuit, client_bits, server_bits)
        elapsed = time.perf_counter() - start
        counts = circuit.counts()
        return ExecutionResult(
            outputs=outputs,
            backend=self.name,
            times={"simulate": elapsed},
            comm_bytes=0,
            n_xor=counts.xor,
            n_non_xor=counts.non_xor,
            metadata={},
        )
