"""Exception hierarchy for the DeepSecure reproduction.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class CircuitError(ReproError):
    """Raised when a netlist is malformed (bad wires, cycles, arity)."""


class GarblingError(ReproError):
    """Raised on protocol violations inside the garbled-circuit engine."""


class ProtocolError(ReproError):
    """Raised when the two-party session is driven out of order."""


class ChannelEmptyError(ProtocolError):
    """Raised on ``recv`` from a channel with no pending message.

    Either a protocol-order bug (a recv before the matching send) or a
    dropped message on a faulty link — the message carries the expected
    tag, direction and message index so chaos-test failures are
    diagnosable.  Transient under retry (a fresh attempt re-sends).
    """


class ChannelIntegrityError(ProtocolError):
    """Raised when wire framing fails validation on ``recv``.

    Covers payload checksum mismatches (corruption/truncation), message
    tag mismatches and sequence-number gaps (drops/duplicates).  The
    point of the typed error: corruption is *detected* at the framing
    layer instead of surfacing as garbage labels or a wrong inference.
    Transient under retry.
    """


class ChannelClosedError(ProtocolError):
    """Raised on ``recv`` from a channel whose peer has gone away.

    The socket transport maps EOF / connection-reset to this error; the
    in-memory channel raises it once an endpoint is :meth:`closed
    <repro.gc.channel.Channel.close>` and the inbox is drained.  Frames
    already in flight stay deliverable (TCP semantics).  Transient under
    retry: a fresh attempt reconnects or reroutes.
    """


class DeadlineExceeded(ReproError):
    """Raised when a request's time budget expires mid-protocol.

    Threaded through every channel ``recv`` and the OT phases via
    :class:`repro.resilience.Deadline`, so no phase blocks past the
    per-request budget (``EngineConfig.request_timeout_s``).  Transient
    under retry.
    """


class OTError(ReproError):
    """Raised on oblivious-transfer failures (bad counts, bad group element)."""


class QuantizationError(ReproError):
    """Raised when a value cannot be represented in the fixed-point format."""


class CompileError(ReproError):
    """Raised when a neural network cannot be lowered to a netlist."""


class TrainingError(ReproError):
    """Raised when model training is configured inconsistently."""


class PreprocessError(ReproError):
    """Raised by the data-projection / pruning pipeline."""


class EngineError(ReproError):
    """Raised by the unified execution engine (bad backend, bad options)."""


class ServiceOverloadedError(EngineError):
    """Raised when admission control sheds a request (in-flight budget full).

    Overload is *permanent* under the retry taxonomy: retrying an
    overloaded service from inside the service only deepens the
    overload, so ``RetryPolicy`` never retries it — the caller backs
    off or routes elsewhere.
    """


class ServiceDrainingError(EngineError):
    """Raised when a request arrives after ``close()`` began draining.

    A draining service finishes in-flight work but admits nothing new;
    permanent under the retry taxonomy (the service is going away).
    """


class BatchInferenceError(EngineError):
    """Raised after a batch finishes with per-request failures.

    Unlike a bare exception from one request, this carries everything
    the batch *did* complete, so one bad sample cannot discard its
    neighbours' results.

    Attributes:
        results: per-request outcomes in request order (``None`` at the
            failed positions).
        errors: ``[(request_index, exception), ...]`` for the failures.
    """

    def __init__(self, message: str, results, errors) -> None:
        super().__init__(message)
        self.results = results
        self.errors = errors
