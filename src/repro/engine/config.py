"""`EngineConfig`: one object for every execution knob.

A single validated configuration the whole stack shares — the compiler
reads the format and activation choice, the backend registry reads the
backend name and options, and the service reads the serving knobs
(pre-garbled pool size, history cap).
"""

from __future__ import annotations

import dataclasses
import os
import secrets
from typing import Any, Dict, Optional

from ..circuits.fixedpoint import DEFAULT_FORMAT, FixedPointFormat
from ..compile.compiler import CompileOptions
from ..errors import EngineError
from ..gc.cipher import HashKDF
from ..gc.ot import MODP_2048, OTGroup
from ..nn.quantize import ACTIVATION_VARIANTS
from ..resilience.faults import FaultPlan

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
        output: "argmax" (label index) or "logits" (raw scores).
        honor_sparsity: skip gates for masked-out weights.
        backend: registry name of the execution flow ("two_party",
            "outsourced", "folded", "cut_and_choose", "simulate", or any
            custom registration).
        backend_options: extra keywords for the chosen backend's
            constructor (e.g. ``{"copies": 4}`` for cut-and-choose).
        kdf: explicit garbling-oracle *instance*; overrides
            ``kdf_backend`` entirely when set.
        kdf_backend: registered oracle backend name.  The oracle is
            part of the wire contract — tables garbled under one do not
            evaluate under another — so it is named here, carried in
            worker control records and checked, never picked per host.
            ``"fixed_key_aes"`` (default) is the paper's fixed-key
            block cipher (JustGarble ``pi(2X ^ T) ^ (2X ^ T)``, AES in
            the system libcrypto, NumPy tables where none loads — same
            tables either way); ``"hashlib"`` is ``SHA256(label ||
            tweak)[:16]``, one hashlib call per row: same inference
            results, different table bytes.  ``"sha256_vec"`` and
            ``"auto"`` (a per-host calibration between the two) are
            other implementations of the SHA oracle, byte-identical to
            ``"hashlib"``.
        ot_group: group for base OTs (production default MODP-2048).
        rng: randomness source (``secrets``, or a seeded
            ``random.Random`` for reproducible runs).
        kdf_workers: worker threads for the batched garbling oracle.
            ``1`` (default) hashes inline; ``> 1`` wraps the KDF in a
            :class:`repro.gc.cipher.ParallelKDF` that splits each
            level's ``hash_many`` row block across a thread pool; ``0``
            selects the host core count.  Output is worker-count
            invariant.
        pool_size: pre-garbled circuit copies to keep ready (two-party
            backend only; 0 disables the offline/online split).  Each
            holds its tables, interface labels and OT pads — 426 030 B
            on the demo net (``pool.stats()["copy_bytes"]``).
        pool_refill: how the pool recovers once drained — ``"idle"``
            (default: one copy at a time, and only while the service has
            nothing in flight and expects to stay idle for a copy's
            garbling time) or ``"none"`` (``prepare()`` only).  Not a
            tuning choice: ``"none"`` is for callers that must keep
            garbling out of a window they time.
        history_limit: cap on retained inference records; 0 (default)
            disables history entirely — recording is opt-in so sustained
            traffic cannot grow memory without bound.
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
            back to cold garbling, batched to scalar).
        breaker_cooldown_s: seconds a tripped breaker stays open before
            a half-open probe is allowed.
        fault_plan: optional :class:`repro.resilience.FaultPlan` — the
            chaos harness; injected into every channel the backends
            build.  Testing/ops only: never set in production serving.
        transport: how protocol frames move between the parties —
            ``"memory"`` (in-process deques, the default) or
            ``"socket"`` (every frame round-trips through the
            :mod:`repro.transport.wire` codec and a kernel socketpair;
            bit-exact with memory, exercises the real wire path).
            Defaults from the ``REPRO_TRANSPORT`` environment variable,
            so whole suites switch transports without code changes.
        shards: worker-process count for
            :class:`repro.transport.ShardedService` front-ends (0 =
            single-process serving).  Also read by
            :meth:`effective_kdf`: with ``kdf_workers=0`` (host cores)
            and ``shards > 0``, each shard's service claims its
            ``1/shards`` share of the cores instead of every worker
            process oversubscribing the whole host.
        max_inflight: bound on concurrently admitted requests (0 =
            unbounded).  When the budget is full, new work is shed with
            the typed permanent
            :class:`repro.errors.ServiceOverloadedError` instead of
            queueing without bound.
    """

    fmt: FixedPointFormat = DEFAULT_FORMAT
    activation: str = "cordic"
    output: str = "argmax"
    honor_sparsity: bool = True
    backend: str = "two_party"
    backend_options: Dict[str, Any] = dataclasses.field(default_factory=dict)
    kdf: Optional[HashKDF] = None
    kdf_backend: str = "fixed_key_aes"
    ot_group: OTGroup = MODP_2048
    rng: Any = secrets
    kdf_workers: int = 1
    pool_size: int = 0
    pool_refill: str = "idle"
    history_limit: int = 0
    request_timeout_s: Optional[float] = None
    max_retries: int = 0
    retry_backoff_s: float = 0.05
    breaker_threshold: int = 5
    breaker_cooldown_s: float = 30.0
    fault_plan: Optional[FaultPlan] = None
    transport: str = dataclasses.field(
        default_factory=lambda: os.environ.get("REPRO_TRANSPORT", "memory")
    )
    shards: int = 0
    max_inflight: int = 0

    def __post_init__(self) -> None:
        from .backends import available_backends
        from .pool import check_refill

        if self.activation not in ACTIVATION_VARIANTS:
            raise EngineError(
                f"unknown activation variant {self.activation!r}; "
                f"choose from {', '.join(ACTIVATION_VARIANTS)}"
            )
        if self.output not in ("argmax", "logits"):
            raise EngineError(f"unknown output kind {self.output!r}")
        if self.backend not in available_backends():
            # fail fast: catching a typo here is milliseconds, catching it
            # on the first infer() is after a full model compile
            raise EngineError(
                f"unknown backend {self.backend!r}; registered: "
                f"{', '.join(available_backends())}"
            )
        from ..gc.cipher import KDF_BACKENDS

        if self.kdf_backend != "auto" and self.kdf_backend not in KDF_BACKENDS:
            raise EngineError(
                f"unknown kdf_backend {self.kdf_backend!r}; choose from "
                f"auto, {', '.join(sorted(KDF_BACKENDS))}"
            )
        if self.kdf_workers < 0:
            raise EngineError("kdf_workers must be >= 0 (0 = host cores)")
        if self.pool_size < 0:
            raise EngineError("pool_size must be >= 0")
        check_refill("pool_refill", self.pool_refill)
        if self.history_limit < 0:
            raise EngineError("history_limit must be >= 0")
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
        if self.transport not in ("memory", "socket"):
            raise EngineError(
                f"unknown transport {self.transport!r}; choose from "
                "memory, socket"
            )
        if self.shards < 0:
            raise EngineError("shards must be >= 0 (0 = single process)")
        if self.max_inflight < 0:
            raise EngineError("max_inflight must be >= 0 (0 = unbounded)")

    def effective_kdf(self) -> HashKDF:
        """The garbling oracle with ``kdf_backend``/``kdf_workers`` applied.

        An explicit ``kdf`` instance wins; otherwise the backend name is
        resolved through the oracle registry.  With ``kdf_workers`` > 1
        the resolved oracle is wrapped in a
        :class:`repro.gc.cipher.ParallelKDF` that chunk-splits each
        batch across threads (both the libcrypto call and the NumPy
        SHA-256 kernel release the GIL).  Call once per service so every
        backend, pool and session shares one oracle and one worker pool.
        """
        from ..gc.cipher import ParallelKDF, resolve_kdf_backend

        workers = self.kdf_workers
        if workers == 0:
            # "host cores", divided across shard processes: N sharded
            # workers each running host-cores KDF threads would
            # oversubscribe the machine N-fold, so a sharded config
            # claims its fair 1/shards slice (at least one thread)
            workers = max(1, (os.cpu_count() or 1) // max(1, self.shards or 1))
        kdf = self.kdf
        if kdf is None:
            # "auto" gets the worker count: its calibrated crossover
            # must be taken at kernel-throughput x workers
            kdf = resolve_kdf_backend(self.kdf_backend, workers=workers)
        if workers <= 1 or isinstance(kdf, ParallelKDF):
            return kdf
        return ParallelKDF(kdf, workers=workers)

    def compile_options(self) -> CompileOptions:
        """The compiler view of this configuration."""
        return CompileOptions(
            activation=self.activation,
            output=self.output,
            honor_sparsity=self.honor_sparsity,
        )

    def replace(self, **changes: Any) -> "EngineConfig":
        """A copy with some fields changed (frozen-dataclass helper)."""
        return dataclasses.replace(self, **changes)
