"""The uniform outcome type every execution backend returns."""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Optional

from ..gc.protocol import ProtocolResult

__all__ = ["ExecutionResult"]


@dataclasses.dataclass
class ExecutionResult:
    """Outcome and accounting of one circuit execution, any backend.

    Attributes:
        outputs: decoded plaintext output bits.
        backend: registry name of the backend that produced them.
        times: seconds per phase (phase names vary by backend; the
            cleartext reference backend reports a single phase).
        comm_bytes: total protocol traffic (0 for plaintext simulation).
        n_xor: free-gate count of the executed netlist.
        n_non_xor: non-free gate count (the communication driver).
        metadata: backend-specific extras (e.g. ``pregarbled`` and
            ``offline_garble_s`` for the pooled two-party flow, or
            ``copies`` for cut-and-choose).
    """

    outputs: List[int]
    backend: str
    times: Dict[str, float]
    comm_bytes: int
    n_xor: int
    n_non_xor: int
    metadata: Dict[str, object] = dataclasses.field(default_factory=dict)

    @classmethod
    def from_protocol(
        cls,
        result: ProtocolResult,
        backend: str,
        metadata: Optional[Mapping[str, object]] = None,
    ) -> "ExecutionResult":
        """Adapt a two-party :class:`ProtocolResult`."""
        return cls(
            outputs=list(result.outputs),
            backend=backend,
            times=dict(result.times),
            comm_bytes=result.total_comm_bytes,
            n_xor=result.n_xor,
            n_non_xor=result.n_non_xor,
            metadata=dict(metadata or {}),
        )
