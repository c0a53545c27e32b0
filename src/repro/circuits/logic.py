"""Word-level selection logic: muxes, argmax / max trees, multi-operand sums.

These are the CMP/MUX compositions DeepSecure uses for Max pooling and for
Softmax.  The paper implements Softmax as an argmax because Softmax is
monotonic, so the inference label is unchanged (Sec. 4.2); Table 3 prices
it at ``(n-1)`` comparator+mux stages.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from ..errors import CircuitError
from .arith import BitHeap, less_than_signed, maximum
from .builder import Bus, CircuitBuilder

__all__ = [
    "max_tree",
    "argmax_tree",
    "mux_many",
    "adder_tree",
]


def max_tree(
    builder: CircuitBuilder, values: Sequence[Bus], signed: bool = True
) -> Bus:
    """Maximum of several equal-width words via a balanced CMP/MUX tree.

    Exactly ``len(values) - 1`` comparator+mux stages — the Table 3
    Softmax cost — and logarithmic non-XOR depth.
    """
    if not values:
        raise CircuitError("max_tree needs at least one value")
    level = [list(v) for v in values]
    while len(level) > 1:
        nxt: List[Bus] = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(maximum(builder, level[i], level[i + 1], signed=signed))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def argmax_tree(
    builder: CircuitBuilder, values: Sequence[Bus], signed: bool = True
) -> Tuple[Bus, Bus]:
    """Argmax over equal-width words.

    Returns ``(index_bus, max_value_bus)``; the index bus is
    ``ceil(log2(n))`` bits wide.  Compared to :func:`max_tree` each stage
    additionally muxes the index, which the paper's Softmax row does not
    price in (it returns the maximal label by value only); both variants
    are exposed so the component inventory can show the difference.
    """
    if not values:
        raise CircuitError("argmax_tree needs at least one value")
    index_width = max(1, math.ceil(math.log2(max(len(values), 2))))
    level = [
        (builder.constant_bus(i, index_width), list(v))
        for i, v in enumerate(values)
    ]
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            (idx_a, val_a), (idx_b, val_b) = level[i], level[i + 1]
            a_lt_b = less_than_signed(builder, val_a, val_b) if signed else None
            if a_lt_b is None:
                from .arith import less_than

                a_lt_b = less_than(builder, val_a, val_b)
            value = builder.emit_mux_bus(a_lt_b, val_b, val_a)
            index = builder.emit_mux_bus(a_lt_b, idx_b, idx_a)
            nxt.append((index, value))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    index, value = level[0]
    return index, value


def mux_many(
    builder: CircuitBuilder, select: Bus, options: Sequence[Bus]
) -> Bus:
    """N-to-1 word mux with an LSB-first select bus (recursive halving).

    Used by the LUT activation circuits: a ``2**k``-entry table is a
    ``k``-level mux tree over constant words.
    """
    if not options:
        raise CircuitError("mux_many needs at least one option")
    level = [list(o) for o in options]
    for bit in select:
        if len(level) == 1:
            break
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(builder.emit_mux_bus(bit, level[i + 1], level[i]))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def adder_tree(
    builder: CircuitBuilder,
    terms: Sequence[Bus],
    grow: bool = True,
) -> Bus:
    """Sum of many signed words through one :class:`BitHeap`.

    Args:
        builder: target builder.
        terms: signed addends.
        grow: widen by one bit per doubling of the term count to avoid
            overflow (the accumulator sizing DeepSecure uses for
            weighted sums); otherwise the sum wraps at the widest term.
    """
    if not terms:
        raise CircuitError("adder_tree needs at least one term")
    width = max(len(term) for term in terms)
    if grow:
        width += math.ceil(math.log2(len(terms)))
    heap = BitHeap(builder, width)
    for term in terms:
        heap.add_signed(term)
    return heap.sum()


