"""`EngineConfig`: one object for every execution knob.

A single validated configuration the whole stack shares — the compiler
reads the format and activation choice, :func:`repro.engine.get_backend`
reads the backend name, and the service reads the serving knobs
(pre-garbled pool, retries, breakers, admission budget).  A field is
here only because some caller sets it.
"""

from __future__ import annotations

import dataclasses
import secrets
from typing import Any, Optional

from ..circuits.fixedpoint import DEFAULT_FORMAT, FixedPointFormat
from ..compile.compiler import CompileOptions
from ..errors import EngineError
from ..gc.channel import channel_factory, transport_from_env
from ..gc.cipher import KDF_BACKENDS
from ..gc.ot import MODP_2048, OTGroup
from ..nn.quantize import ACTIVATION_VARIANTS
from ..resilience.faults import FaultPlan, require_socket

__all__ = ["EngineConfig"]


@dataclasses.dataclass(frozen=True)
class EngineConfig:
    """Everything needed to compile and execute private inferences.

    Attributes:
        fmt: fixed-point format (paper default 1.3.12).
        activation: Table 3 realization for tanh/sigmoid ("cordic",
            "exact", "truncated", "piecewise") — honored end to end: the
            compiler instantiates it and the cleartext reference uses
            the matching bit-exact table.
        backend: name of the execution flow ("two_party",
            "outsourced", "cut_and_choose" or "simulate").
        kdf_backend: registered oracle backend name.  The oracle is
            part of the wire contract — tables garbled under one do not
            evaluate under another — so it is named here, carried in
            worker control records and checked, never picked per host.
            ``"fixed_key_aes"`` (default) is the paper's fixed-key
            block cipher (JustGarble ``pi(2X ^ T) ^ (2X ^ T)``, AES in
            the system libcrypto, NumPy tables where none loads — same
            tables either way); ``"hashlib"`` is ``SHA256(label ||
            tweak)[:16]``, one hashlib call per row: same inference
            results, different table bytes.
        ot_group: group for base OTs (production default MODP-2048).
        rng: randomness source (``secrets``, or a seeded
            ``random.Random`` for reproducible runs).
        pool_size: pre-garbled circuit copies to keep ready (two-party
            backend only; 0 disables the offline/online split).  A copy's
            two halves, one per party, hold its interface labels, and
            Bob's his input labels for the weights and the tables that
            crossed to it when the copy was made: 383 118 B on the demo
            net (``pool.stats()["copy_bytes"]``), with 392 312 B sent
            offline (``pool.stats()["offline_bytes"]``).
        pool_refill: how the pool recovers once drained — ``"idle"``
            (default: one copy at a time, and only while the service has
            nothing in flight and expects to stay idle for a copy's
            garbling time) or ``"none"`` (``prepare()`` only).  Not a
            tuning choice: ``"none"`` is for callers that must keep
            garbling out of a window they time.
        request_timeout_s: per-request time budget; every protocol recv
            and phase boundary is checked against it, raising
            :class:`repro.errors.DeadlineExceeded` (None = unlimited).
        max_retries: additional attempts after a *transient* fault
            (wire corruption, dropped message, expired deadline); 0
            (default) disables retrying.  Semantic errors never retry.
        retry_backoff_s: base sleep before the first retry; doubles per
            attempt, with seeded jitter from the service rng.
        breaker_threshold: consecutive backend failures that trip the
            per-backend circuit breaker (degraded serving: pooled falls
            back to cold garbling).
        breaker_cooldown_s: seconds a tripped breaker stays open before
            a half-open probe is allowed.
        fault_plan: optional :class:`repro.resilience.FaultPlan` — the
            chaos harness; its frame kinds are injected into every
            channel the backends build, its byte kinds into every socket
            (``transport="socket"`` only).  Testing/ops only: never set
            in production serving.
        transport: how protocol frames move between the parties —
            ``"memory"`` (in-process deques, the default) or
            ``"socket"`` (every frame round-trips through the
            :mod:`repro.transport.wire` codec and a kernel socketpair;
            bit-exact with memory, exercises the real wire path).
            Defaults from the ``REPRO_TRANSPORT`` environment variable,
            so whole suites switch transports without code changes.
        max_inflight: bound on concurrently admitted requests (0 =
            unbounded).  When the budget is full, new work is shed with
            the typed permanent
            :class:`repro.errors.ServiceOverloadedError` instead of
            queueing without bound.
    """

    fmt: FixedPointFormat = DEFAULT_FORMAT
    activation: str = "cordic"
    backend: str = "two_party"
    kdf_backend: str = "fixed_key_aes"
    ot_group: OTGroup = MODP_2048
    rng: Any = secrets
    pool_size: int = 0
    pool_refill: str = "idle"
    request_timeout_s: Optional[float] = None
    max_retries: int = 0
    retry_backoff_s: float = 0.05
    breaker_threshold: int = 5
    breaker_cooldown_s: float = 30.0
    fault_plan: Optional[FaultPlan] = None
    transport: str = dataclasses.field(default_factory=transport_from_env)
    max_inflight: int = 0

    def __post_init__(self) -> None:
        from .backends import available_backends
        from .pool import check_refill

        if self.activation not in ACTIVATION_VARIANTS:
            raise EngineError(
                f"unknown activation variant {self.activation!r}; "
                f"choose from {', '.join(ACTIVATION_VARIANTS)}"
            )
        if self.backend not in available_backends():
            # fail fast: catching a typo here is milliseconds, catching it
            # on the first infer() is after a full model compile
            raise EngineError(
                f"unknown backend {self.backend!r}; registered: "
                f"{', '.join(available_backends())}"
            )
        if self.kdf_backend not in KDF_BACKENDS:
            raise EngineError(
                f"unknown kdf_backend {self.kdf_backend!r}; choose from "
                f"{', '.join(sorted(KDF_BACKENDS))}"
            )
        if self.pool_size < 0:
            raise EngineError("pool_size must be >= 0")
        check_refill("pool_refill", self.pool_refill)
        if self.request_timeout_s is not None and self.request_timeout_s <= 0:
            raise EngineError("request_timeout_s must be positive (or None)")
        if self.max_retries < 0:
            raise EngineError("max_retries must be >= 0")
        if self.retry_backoff_s < 0:
            raise EngineError("retry_backoff_s must be >= 0")
        if self.breaker_threshold < 1:
            raise EngineError("breaker_threshold must be >= 1")
        if self.breaker_cooldown_s < 0:
            raise EngineError("breaker_cooldown_s must be >= 0")
        if self.fault_plan is not None and not isinstance(
            self.fault_plan, FaultPlan
        ):
            raise EngineError(
                "fault_plan must be a repro.resilience.FaultPlan (or None)"
            )
        channel_factory(self.transport)  # refuses an unknown name
        if self.fault_plan is not None:
            require_socket(self.fault_plan.specs, self.transport)
        if self.max_inflight < 0:
            raise EngineError("max_inflight must be >= 0 (0 = unbounded)")

    def compile_options(self) -> CompileOptions:
        """The compiler view of this configuration: a label (argmax)
        circuit that skips masked-out weights."""
        return CompileOptions(activation=self.activation)

