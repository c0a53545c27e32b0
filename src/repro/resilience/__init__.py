"""Resilience layer: fault injection, deadlines, retries, degradation.

The serving tier's answer to an imperfect world: a seeded chaos harness
(:mod:`~repro.resilience.faults`) that drops/corrupts/truncates/delays
wire messages deterministically, per-request time budgets
(:mod:`~repro.resilience.deadline`), a transient-only retry policy
(:mod:`~repro.resilience.retry`), a per-backend circuit breaker
(:mod:`~repro.resilience.breaker`) and the admission gate every serving
front door owns (:mod:`~repro.resilience.admission`).  The invariant the whole layer
defends: a faulty wire yields either the correct label after retries or
a typed :class:`repro.errors.ReproError` within the deadline — never a
wrong label, never a silent hang.
"""

from .admission import AdmissionGate
from .breaker import CircuitBreaker
from .bytefaults import (
    STREAM_FAULT_KINDS,
    FaultyStream,
    StreamFaultPlan,
    StreamFaultSpec,
)
from .deadline import Deadline
from .faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    FaultyChannel,
    faulty_channel_factory,
)
from .retry import TRANSIENT_ERRORS, RetryPolicy, fault_category, is_transient

__all__ = [
    "FAULT_KINDS",
    "STREAM_FAULT_KINDS",
    "TRANSIENT_ERRORS",
    "AdmissionGate",
    "CircuitBreaker",
    "Deadline",
    "FaultPlan",
    "FaultSpec",
    "FaultyChannel",
    "FaultyStream",
    "RetryPolicy",
    "StreamFaultPlan",
    "StreamFaultSpec",
    "fault_category",
    "faulty_channel_factory",
    "is_transient",
]
