"""The GC-optimized cell library (paper Sec. 3.4).

The paper feeds Synopsys Design Compiler a custom library in which XOR
cells have area 0 and every other cell area 1, so minimum-area synthesis
minimizes the garbled-table count.  :class:`CellLibrary` captures that
cost model explicitly; it is what the optimization passes and the
synthesis reports charge against.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from ..circuits.gates import GateType
from ..circuits.netlist import Circuit, GateCounts

__all__ = ["Cell", "CellLibrary", "GC_LIBRARY"]


@dataclasses.dataclass(frozen=True)
class Cell:
    """One library cell with its GC cost.

    Attributes:
        gate: the Boolean function.
        area: synthesis area (0 for free gates, 1 otherwise).
        garble_ciphertexts: 128-bit rows transferred per instance
            (half-gates: 2 for non-free gates, 0 for free ones).
    """

    gate: GateType
    area: int
    garble_ciphertexts: int


def _build_default() -> Dict[GateType, Cell]:
    cells = {}
    for gate in GateType:
        free = gate.is_free
        cells[gate] = Cell(
            gate=gate,
            area=0 if free else 1,
            garble_ciphertexts=0 if free else 2,
        )
    return cells


class CellLibrary:
    """Maps gate types to costs; the synthesis objective function."""

    def __init__(self, cells: Dict[GateType, Cell] = None, name: str = "gc") -> None:
        self.cells = cells or _build_default()
        self.name = name

    def counts(self, circuit: Circuit) -> GateCounts:
        """Free/non-free inventory under this library."""
        non_free = sum(1 for g in circuit.gates if self.cells[g.op].area)
        return GateCounts(xor=len(circuit.gates) - non_free, non_xor=non_free)


#: The paper's library: XOR free, everything else area 1 / two rows.
GC_LIBRARY = CellLibrary()


