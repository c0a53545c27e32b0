"""Gate-level primitives for Boolean netlists.

DeepSecure represents every function evaluated under Yao's protocol as a
netlist of 2-input Boolean gates (paper Sec. 2.2.2).  Under the free-XOR
optimization (Kolesnikov-Schneider), XOR / XNOR / NOT gates cost nothing to
garble or transfer, while every other 2-input gate ("non-XOR" in the
paper's tables) costs one garbled table.  The :class:`GateType` enum
records, for each supported gate:

* its truth table (for plaintext simulation),
* whether it is free under free-XOR,
* its reduction to an AND gate with input/output inversions, which is what
  the half-gates garbler consumes (any non-degenerate, non-XOR 2-input
  gate is expressible as ``io ^ ((a ^ ia) & (b ^ ib))``).
"""

from __future__ import annotations

import enum
from typing import Dict, NamedTuple, Optional, Tuple

__all__ = [
    "GateType",
    "Gate",
    "INV",
    "FREE_GATES",
    "NONFREE_GATES",
    "OPS",
    "OP_CODE",
    "N_FREE_CODES",
]


class GateType(enum.Enum):
    """Supported gate operations.

    ``BUF`` and ``NOT`` are 1-input; everything else is 2-input.
    """

    BUF = "buf"
    NOT = "not"
    XOR = "xor"
    XNOR = "xnor"
    AND = "and"
    NAND = "nand"
    OR = "or"
    NOR = "nor"
    ANDN = "andn"  # a AND (NOT b)
    ORN = "orn"  # a OR (NOT b)

    @property
    def arity(self) -> int:
        """Number of input wires the gate consumes."""
        return 1 if self in (GateType.BUF, GateType.NOT) else 2

    @property
    def is_free(self) -> bool:
        """True when the gate is free under the free-XOR optimization."""
        return self in _FREE

    def eval(self, a: int, b: int = 0) -> int:
        """Evaluate the gate on bit operands (``b`` ignored for 1-input)."""
        return _EVAL[self](a, b)


_FREE = frozenset({GateType.BUF, GateType.NOT, GateType.XOR, GateType.XNOR})

FREE_GATES: frozenset = _FREE
NONFREE_GATES: frozenset = frozenset(
    {
        GateType.AND,
        GateType.NAND,
        GateType.OR,
        GateType.NOR,
        GateType.ANDN,
        GateType.ORN,
    }
)

#: Column codes: a netlist stores a gate's ``op`` as its index into
#: ``OPS`` (a ``uint8``).  The free gates come first, so a gate is free
#: exactly when its code is below ``N_FREE_CODES``.
OPS: Tuple[GateType, ...] = tuple(GateType)
OP_CODE: Dict[GateType, int] = {op: code for code, op in enumerate(OPS)}
N_FREE_CODES = len(_FREE)

_EVAL = {
    GateType.BUF: lambda a, b: a & 1,
    GateType.NOT: lambda a, b: (a ^ 1) & 1,
    GateType.XOR: lambda a, b: (a ^ b) & 1,
    GateType.XNOR: lambda a, b: (a ^ b ^ 1) & 1,
    GateType.AND: lambda a, b: a & b & 1,
    GateType.NAND: lambda a, b: (a & b) ^ 1,
    GateType.OR: lambda a, b: (a | b) & 1,
    GateType.NOR: lambda a, b: (a | b) ^ 1,
    GateType.ANDN: lambda a, b: a & (b ^ 1),
    GateType.ORN: lambda a, b: (a | (b ^ 1)) & 1,
}


class INV(NamedTuple):
    """AND-reduction of a non-free gate.

    ``gate(a, b) == out ^ ((a ^ ia) & (b ^ ib))`` where ``ia, ib, out`` are
    the inversion bits below.  The half-gates garbler applies the input
    inversions by offsetting zero-labels with the global delta, which is
    free, so every non-free gate costs exactly two ciphertexts.
    """

    ia: int
    ib: int
    out: int


#: AND-with-inversions decomposition for each non-free gate type.
AND_REDUCTION = {
    GateType.AND: INV(0, 0, 0),
    GateType.NAND: INV(0, 0, 1),
    GateType.OR: INV(1, 1, 1),
    GateType.NOR: INV(1, 1, 0),
    GateType.ANDN: INV(0, 1, 0),
    GateType.ORN: INV(1, 0, 1),
}


class Gate(NamedTuple):
    """A single gate instance inside a netlist.

    Attributes:
        op: the gate operation.
        a: first input wire id.
        b: second input wire id (``None`` for 1-input gates).
        out: output wire id.
    """

    op: GateType
    a: int
    b: Optional[int]
    out: int

    def inputs(self) -> Tuple[int, ...]:
        """Input wire ids as a tuple (length 1 or 2)."""
        if self.b is None:
            return (self.a,)
        return (self.a, self.b)

    def eval(self, a: int, b: int = 0) -> int:
        """Evaluate this gate's boolean function on bit operands."""
        return self.op.eval(a, b)


def _self_check() -> None:
    """Verify the AND-reduction table against the truth tables, and the
    free gates' place at the front of the column codes."""
    if set(OPS[:N_FREE_CODES]) != _FREE:
        raise AssertionError("free gates must take the lowest op codes")
    for op, inv in AND_REDUCTION.items():
        for a in (0, 1):
            for b in (0, 1):
                reduced = inv.out ^ ((a ^ inv.ia) & (b ^ inv.ib))
                if reduced != op.eval(a, b):
                    raise AssertionError(f"AND reduction broken for {op}")


_self_check()
