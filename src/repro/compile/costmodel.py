"""The GC performance model of Table 2 / Sec. 4.3-4.4.

Turns gate counts into the three quantities the paper's evaluation
tables report per benchmark:

* **Comm. (MB)** — garbled tables only: ``non_xor * 2 * 128 bit``
  (Eq. 4; OT and label traffic are negligible against the tables);
* **Comp. (s)** — ``(N_xor * 62 + N_nonxor * 164) / f_cpu`` (Eq. 3);
* **Execution (s)** — end-to-end including transfer, dominated by the
  effective non-XOR throughput (Sec. 4.4: 2.56M gates/s).

The coefficients default to the paper's measured values so Tables 4-6
regenerate exactly; pass your own :class:`CostCoefficients` (e.g. from
the microbenchmark) to model other hosts.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..circuits.netlist import GateCounts
from .paper_costs import PAPER_COEFFICIENTS, CostCoefficients

__all__ = ["CostBreakdown", "GCCostModel"]


@dataclasses.dataclass(frozen=True)
class CostBreakdown:
    """One benchmark row of Table 4/5."""

    xor: int
    non_xor: int
    comm_bytes: float
    computation_s: float
    execution_s: float

    @property
    def comm_mb(self) -> float:
        """Communication in the paper's MB (10^6 bytes)."""
        return self.comm_bytes / 1e6


class GCCostModel:
    """Maps :class:`GateCounts` to time/traffic figures."""

    def __init__(
        self, coefficients: Optional[CostCoefficients] = None
    ) -> None:
        self.coefficients = coefficients or PAPER_COEFFICIENTS

    def communication_bytes(self, counts: GateCounts) -> float:
        """Eq. 4: two 128-bit rows per non-XOR gate."""
        return counts.non_xor * self.coefficients.bits_per_non_xor / 8.0

    def computation_seconds(self, counts: GateCounts) -> float:
        """Eq. 3: per-gate garbling/evaluation cycles over the clock."""
        coeff = self.coefficients
        cycles = counts.xor * coeff.xor_clks + counts.non_xor * coeff.non_xor_clks
        return cycles / coeff.cpu_hz

    def execution_seconds(self, counts: GateCounts) -> float:
        """End-to-end time (transfer-dominated, Sec. 4.4)."""
        return counts.non_xor / self.coefficients.effective_non_xor_per_s

    def breakdown(self, counts: GateCounts) -> CostBreakdown:
        """All three table columns for a gate inventory."""
        return CostBreakdown(
            xor=counts.xor,
            non_xor=counts.non_xor,
            comm_bytes=self.communication_bytes(counts),
            computation_s=self.computation_seconds(counts),
            execution_s=self.execution_seconds(counts),
        )

