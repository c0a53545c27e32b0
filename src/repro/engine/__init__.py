"""Unified execution engine: one API over every protocol flow.

The seed wired each execution path by hand; this package normalizes
them behind three ideas:

* **Backends by name** — every flow (direct two-party, outsourced,
  cut-and-choose, plaintext simulation) implements
  ``run(circuit, client_bits, server_bits) -> ProtocolResult``, the
  session's own outcome record, and is reachable via :func:`get_backend`
  by name.
* **EngineConfig** — a single validated object carrying the fixed-point
  format, activation variant, backend choice and serving knobs,
  replacing scattered constructor arguments.
* **Offline/online split** — garbling is input-independent (paper
  Sec. 3), so :class:`PregarbledPool` prepares circuit copies ahead of
  requests and the online path pays only transfer + OT + evaluate +
  merge.

Quick use::

    from repro.engine import get_backend

    backend = get_backend("outsourced", rng=random.Random(0))
    result = backend.run(compiled.circuit,
                         compiled.client_bits(sample),
                         compiled.server_bits())
"""

from .backends import (
    Backend,
    CutAndChooseBackend,
    OutsourcedBackend,
    SimulateBackend,
    TwoPartyBackend,
    available_backends,
    get_backend,
)
from .config import EngineConfig
from .pool import PregarbledPool

__all__ = [
    "Backend",
    "TwoPartyBackend",
    "OutsourcedBackend",
    "CutAndChooseBackend",
    "SimulateBackend",
    "available_backends",
    "get_backend",
    "EngineConfig",
    "PregarbledPool",
]
