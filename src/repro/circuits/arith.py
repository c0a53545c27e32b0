"""GC-optimized arithmetic blocks.

Every construction here minimizes the number of non-XOR gates, since under
free-XOR only those need garbled tables (paper Sec. 3.4).  Reference
costs for ``n``-bit operands (non-XOR gates, as produced by these
generators with structural hashing on):

=====================  ======================  ==========================
block                  non-XOR                 notes
=====================  ======================  ==========================
adder                  n (n-1 without cout)    1 AND per full-adder cell
subtractor             n                       adder with ~b, cin=1
comparator (LT)        n                       borrow chain only
equality               2n-1                    n XNOR free, n-1 AND tree
2:1 word mux           n                       1 AND per bit
conditional negate     n-1                     increment via AND chain
bit heap               wires in - wires out    full adders only, then one
                                               carry propagation
multiplier (unsigned)  2n^2 - n                n^2 partial products into
                                               a bit heap
multiplier (signed)    2n^2 + 3n - 3           sign/magnitude: two
                                               absolutes, unsigned
                                               array, negate of 2n bits
dot unit, per element  2(n-1)^2 + 3n - 3 - f  f fraction bits; 483 at
                                               1.3.12 (Table 3's 228 is
                                               a mod-2^16 wrap
                                               multiplier, DESIGN.md #4)
saturation (W -> n)    W + n - 2               OR tree, AND tree, mux
divider (restoring)    ~2n^2                   n subtract/mux iterations
ReLU                   n-1                     sign-bit mux, MSB folded
=====================  ======================  ==========================

The dot unit (:func:`dot_product_fixed`) is what the model compiler and
the folded MAC cell are built from.

All buses are LSB-first lists of wire ids.  Signed values use two's
complement.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

from ..errors import CircuitError
from .builder import Bus, CircuitBuilder

__all__ = [
    "BitHeap",
    "ripple_add",
    "ripple_sub",
    "negate",
    "increment",
    "less_than",
    "less_than_signed",
    "equals",
    "conditional_add_sub",
    "conditional_negate",
    "clamp_signed",
    "saturate_to_width",
    "sign_magnitude",
    "dot_product_fixed",
    "multiply_accumulate",
    "absolute",
    "shift_left_const",
    "shift_right_arith_const",
    "shift_right_logic_const",
    "multiply_unsigned",
    "multiply_signed",
    "multiply_fixed",
    "multiply_fixed_full",
    "divide_unsigned",
    "divide_signed",
    "relu",
    "maximum",
    "minimum",
    "sign_extend",
    "truncate",
]


def _majority(builder: CircuitBuilder, a: int, b: int, c: int) -> int:
    """Carry of the GC-optimized full adder, ``((a ^ c) & (b ^ c)) ^ c``:
    1 AND, where the sum ``a ^ b ^ c`` is free.  With ``c`` the constant
    0 the builder folds it to the half adder's ``a & b``."""
    return builder.emit_xor(
        builder.emit_and(builder.emit_xor(a, c), builder.emit_xor(b, c)), c
    )


class BitHeap:
    """Wires waiting to be summed modulo ``2**width``, by bit position.

    Everything a dot product adds — partial products, sign-folded
    product words, bias words, an accumulator register — is dropped
    into one heap and the carries are propagated once.  Public
    constants are summed as one integer and enter as constant wires,
    which the builder folds.

    :meth:`sum` reduces every column to at most two wires with *full
    adders only* (one AND each under free-XOR; a half adder costs the
    same AND and removes no wire), always on the three wires of the
    column that arrive first (the three-greedy order of Stelling and
    Oklobdzija, by AND-depth, :meth:`CircuitBuilder.level`), then makes one
    carry-propagate pass.  The non-XOR count is the number of wires
    that have to go, so it is that of a chain of ripple adders over the
    same bits; the depth is logarithmic in the column height plus one
    propagation.
    """

    def __init__(self, builder: CircuitBuilder, width: int) -> None:
        self.builder = builder
        self.columns: List[List[int]] = [[] for _ in range(width)]
        self.constant = 0

    def add_bit(self, wire: int, position: int) -> None:
        """One wire of weight ``2**position`` (dropped at or above ``width``)."""
        if position >= len(self.columns) or wire == self.builder.zero:
            return
        if wire == self.builder.one:
            self.constant += 1 << position
        else:
            self.columns[position].append(wire)

    def add_unsigned(self, bus: Sequence[int]) -> None:
        """An unsigned word."""
        for position, wire in enumerate(bus):
            self.add_bit(wire, position)

    def add_signed(self, bus: Sequence[int]) -> None:
        """A two's-complement word without its sign-extension columns:
        ``-b * 2**t == (~b) * 2**t - 2**t`` for the sign bit ``b`` (at
        the heap's own width that is ``b * 2**t`` again)."""
        top = len(bus) - 1
        self.add_unsigned(bus[:-1])
        self.add_bit(self.builder.emit_not(bus[-1]), top)
        self.constant -= 1 << top

    def add_sign_magnitude(self, magnitude: Sequence[int], sign: int) -> None:
        """``-magnitude`` when ``sign`` is 1, else ``magnitude``.

        ``-P == (P ^ 1...1) + 1 - 2**m`` on ``m`` bits, so the sign rides
        the sum: ``P ^ s`` (free), ``s`` at column 0, and the borrow
        ``-s * 2**m`` as ``~s`` at column ``m`` minus the constant
        ``2**m`` — no negate chain, no sign-extension columns.
        """
        m = len(magnitude)
        self.add_unsigned([self.builder.emit_xor(bit, sign) for bit in magnitude])
        self.add_bit(sign, 0)
        self.add_bit(self.builder.emit_not(sign), m)
        self.constant -= 1 << m

    def sum(self, drop_low: int = 0) -> Bus:
        """Bits ``drop_low .. width-1`` of the heap's sum.

        The ``drop_low`` low columns produce their carries but no sum
        wires (a product about to be shifted right by ``frac_bits``).
        """
        builder = self.builder
        width = len(self.columns)
        columns = [list(column) for column in self.columns]
        for i in range(width):
            if (self.constant >> i) & 1:
                columns[i].append(builder.one)
        out: Bus = []
        carry = builder.zero
        for i, column in enumerate(columns):
            last = i + 1 == width
            # column i is complete once column i - 1 has sent its carries
            queue = [(builder.level(wire), wire) for wire in column]
            heapq.heapify(queue)
            while len(queue) > 2:
                (_, a), (_, c), (_, b) = (heapq.heappop(queue) for _ in range(3))
                total = builder.emit_xor(builder.emit_xor(a, c), b)
                heapq.heappush(queue, (builder.level(total), total))
                if not last:
                    columns[i + 1].append(_majority(builder, a, b, c))
            # the carry takes the adder's late input (its sum is one XOR
            # away); zeros go last, where the builder folds the cell to
            # x ^ y, x & y
            rest = [wire for _, wire in queue]
            live = [w for w in rest[:1] + [carry] + rest[1:] if w != builder.zero]
            a, b, c = (live + [builder.zero] * 3)[:3]
            if i >= drop_low:
                out.append(builder.emit_xor(builder.emit_xor(a, c), b))
            if not last:
                carry = _majority(builder, a, b, c)
        return out


def ripple_add(
    builder: CircuitBuilder,
    a: Sequence[int],
    b: Sequence[int],
    cin: Optional[int] = None,
    with_cout: bool = False,
) -> Bus:
    """Ripple-carry addition of two equal-width buses.

    Args:
        builder: target builder.
        a: first addend, LSB first.
        b: second addend.
        cin: optional carry-in wire (defaults to constant 0).
        with_cout: append the carry-out as the final (extra) bit.

    Returns:
        Sum bus of width ``len(a)`` (+1 when ``with_cout``).
    """
    if len(a) != len(b):
        raise CircuitError("adder operands must have equal width")
    carry = cin if cin is not None else builder.zero
    out: Bus = []
    for bit_a, bit_b in zip(a, b):
        out.append(builder.emit_xor(builder.emit_xor(bit_a, carry), bit_b))
        carry = _majority(builder, bit_a, bit_b, carry)
    if with_cout:
        out.append(carry)
    return out


def ripple_sub(
    builder: CircuitBuilder,
    a: Sequence[int],
    b: Sequence[int],
    with_borrow: bool = False,
) -> Bus:
    """Two's-complement subtraction ``a - b``.

    Implemented as ``a + ~b + 1``.  With ``with_borrow`` the final extra
    bit is the *borrow* (1 when ``a < b`` unsigned), i.e. the complement of
    the adder's carry-out.
    """
    not_b = builder.emit_not_bus(b)
    result = ripple_add(builder, a, not_b, cin=builder.one, with_cout=with_borrow)
    if with_borrow:
        result[-1] = builder.emit_not(result[-1])
    return result


def negate(builder: CircuitBuilder, a: Sequence[int]) -> Bus:
    """Two's-complement negation ``-a`` (same width, wraps on INT_MIN)."""
    return increment(builder, builder.emit_not_bus(a))


def increment(builder: CircuitBuilder, a: Sequence[int]) -> Bus:
    """``a + 1`` via a half-adder chain (n-1 AND gates)."""
    carry = builder.one
    out: Bus = []
    for i, bit in enumerate(a):
        out.append(builder.emit_xor(bit, carry))
        if i != len(a) - 1:
            carry = builder.emit_and(bit, carry)
    return out


def less_than(
    builder: CircuitBuilder, a: Sequence[int], b: Sequence[int]
) -> int:
    """Unsigned comparison ``a < b`` using only the borrow chain.

    Costs ``n`` AND gates and no sum bits, which is why the paper's
    Softmax/argmax stage is so cheap.
    """
    if len(a) != len(b):
        raise CircuitError("comparator operands must have equal width")
    carry = builder.one  # carry-in of a + ~b + 1
    for bit_a, bit_b in zip(a, b):
        carry = _majority(builder, bit_a, builder.emit_not(bit_b), carry)
    return builder.emit_not(carry)


def less_than_signed(
    builder: CircuitBuilder, a: Sequence[int], b: Sequence[int]
) -> int:
    """Signed (two's complement) comparison ``a < b``.

    Flips both sign bits and compares unsigned; the flips are free NOTs.
    """
    if not a:
        raise CircuitError("cannot compare empty buses")
    a_flip = list(a[:-1]) + [builder.emit_not(a[-1])]
    b_flip = list(b[:-1]) + [builder.emit_not(b[-1])]
    return less_than(builder, a_flip, b_flip)


def _reduce(emit, wires: Sequence[int], empty: int) -> int:
    """Balanced tree of a two-input associative gate over ``wires``
    (``empty``, the gate's identity, when there are none)."""
    level = list(wires) or [empty]
    while len(level) > 1:
        level = [
            emit(*level[i : i + 2]) if i + 1 < len(level) else level[i]
            for i in range(0, len(level), 2)
        ]
    return level[0]


def equals(builder: CircuitBuilder, a: Sequence[int], b: Sequence[int]) -> int:
    """Equality of two buses: free XNORs plus an AND tree."""
    if len(a) != len(b):
        raise CircuitError("equality operands must have equal width")
    bits = [builder.emit_xnor(x, y) for x, y in zip(a, b)]
    return _reduce(builder.emit_and, bits, builder.one)


def conditional_add_sub(
    builder: CircuitBuilder,
    a: Sequence[int],
    b: Sequence[int],
    sub: int,
) -> Bus:
    """Return ``a - b`` when ``sub`` is 1, else ``a + b`` (one adder).

    The subtraction flag conditionally complements ``b`` via free XORs and
    feeds the carry-in, so add-or-subtract costs the same ``n`` AND gates
    as a plain adder.  This is the workhorse of the CORDIC datapath, where
    the rotation direction is a secret sign bit.
    """
    flipped = [builder.emit_xor(bit, sub) for bit in b]
    return ripple_add(builder, list(a), flipped, cin=sub)


def conditional_negate(
    builder: CircuitBuilder, sel: int, a: Sequence[int]
) -> Bus:
    """Return ``sel ? -a : a`` using the XOR/increment trick.

    ``-a = ~a + 1``; conditionally complement with XOR against ``sel``
    (free) then add ``sel`` as carry-in (n-1 AND gates).
    """
    flipped = [builder.emit_xor(bit, sel) for bit in a]
    carry = sel
    out: Bus = []
    for i, bit in enumerate(flipped):
        out.append(builder.emit_xor(bit, carry))
        if i != len(flipped) - 1:
            carry = builder.emit_and(bit, carry)
    return out


def absolute(builder: CircuitBuilder, a: Sequence[int]) -> Bus:
    """Two's-complement absolute value (undefined only for INT_MIN)."""
    return conditional_negate(builder, a[-1], a)


def sign_extend(builder: CircuitBuilder, a: Sequence[int], width: int) -> Bus:
    """Extend a signed bus to ``width`` bits by repeating the sign wire."""
    if width < len(a):
        raise CircuitError("sign_extend target narrower than source")
    return list(a) + [a[-1]] * (width - len(a))


def truncate(a: Sequence[int], width: int) -> Bus:
    """Keep the low ``width`` bits of a bus (pure rewiring, zero gates)."""
    if width > len(a):
        raise CircuitError("truncate target wider than source")
    return list(a[:width])


def shift_left_const(
    builder: CircuitBuilder, a: Sequence[int], amount: int
) -> Bus:
    """Logical left shift by a public constant (pure rewiring)."""
    if amount < 0:
        raise CircuitError("shift amount must be non-negative")
    amount = min(amount, len(a))
    return [builder.zero] * amount + list(a[: len(a) - amount])


def shift_right_logic_const(
    builder: CircuitBuilder, a: Sequence[int], amount: int
) -> Bus:
    """Logical right shift by a public constant (pure rewiring)."""
    if amount < 0:
        raise CircuitError("shift amount must be non-negative")
    amount = min(amount, len(a))
    return list(a[amount:]) + [builder.zero] * amount


def shift_right_arith_const(
    builder: CircuitBuilder, a: Sequence[int], amount: int
) -> Bus:
    """Arithmetic right shift by a public constant (pure rewiring)."""
    if amount < 0:
        raise CircuitError("shift amount must be non-negative")
    if not a:
        return []
    amount = min(amount, len(a) - 1)
    return list(a[amount:]) + [a[-1]] * amount


def multiply_unsigned(
    builder: CircuitBuilder,
    a: Sequence[int],
    b: Sequence[int],
    max_width: Optional[int] = None,
    shift: int = 0,
) -> Bus:
    """Unsigned multiplier; returns ``(a * b) >> shift`` on
    ``len(a) + len(b) - shift`` bits.

    The AND partial products go into a :class:`BitHeap`: carry-save
    rows, one carry propagation.

    Args:
        builder: target builder.
        a: multiplicand (LSB first).
        b: multiplier.
        max_width: when set, product bits at positions >= max_width are
            not computed (exact modulo ``2**max_width``), trimming gates
            for fixed-point truncating multiplies.
        shift: the low ``shift`` product bits are not produced, only
            their carries (round toward zero, the fixed-point shift).
    """
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return []
    full = n + m
    limit = full if max_width is None else min(max_width, full)
    heap = BitHeap(builder, limit)
    for j, bit_b in enumerate(b):
        for i, bit_a in enumerate(a[: max(limit - j, 0)]):
            heap.add_bit(builder.emit_and(bit_a, bit_b), i + j)
    return heap.sum(drop_low=shift) + [builder.zero] * (full - max(limit, shift))


def multiply_signed(
    builder: CircuitBuilder, a: Sequence[int], b: Sequence[int]
) -> Bus:
    """Signed (two's complement) multiplier with full-width output.

    Uses the sign/magnitude decomposition: ``|a| * |b|`` through the
    unsigned array, then a conditional negate driven by the XOR of the
    sign bits.  This is the "enhanced ... signed input data" realization
    the paper contrasts with TinyGarble's unsigned matrix-vector product.
    """
    return multiply_fixed_full(builder, a, b, frac_bits=0)


def sign_magnitude(
    builder: CircuitBuilder, a: Sequence[int], symmetric: bool = False
) -> Tuple[Bus, int]:
    """``(|a|, sign wire)`` of a two's-complement word.

    ``symmetric`` is the caller's statement that ``a`` lies in
    ``[-H, H]`` with ``H = 2**(len(a) - 1) - 1`` (anything that passed a
    symmetric saturation): the magnitude then fits ``len(a) - 1`` bits
    and a multiplier array fed with it loses a row and a column.  The
    one pattern outside the statement, ``-2**(len(a) - 1)``, reads as
    zero on a symmetric lane.
    """
    sign = a[-1]
    return conditional_negate(builder, sign, a[:-1] if symmetric else a), sign


def dot_product_fixed(
    builder: CircuitBuilder,
    operands: Sequence[Tuple[Sequence[int], int]],
    weights: Sequence[Tuple[Sequence[int], int]],
    frac_bits: int,
    width: int,
    addends: Sequence[Sequence[int]] = (),
) -> Bus:
    """``sum_i +-((|x_i| * |w_i|) >> frac_bits) + sum(addends)`` modulo
    ``2**width`` — the one dot-product unit of the compiler's linear
    layers and of the folded MAC cell.

    ``operands`` and ``weights`` are ``(magnitude bus, sign wire)`` pairs
    (:func:`sign_magnitude`); ``addends`` are two's-complement words
    (bias, accumulator register).  Each product is truncated on its own,
    so the sum is :func:`repro.nn.quantize.fixed_mul` term for term;
    its sign is folded into the heap (:meth:`BitHeap.add_sign_magnitude`)
    and one carry propagation serves the whole unit.  ``width`` must
    hold the worst-case sum; the caller saturates.
    """
    heap = BitHeap(builder, width)
    for word in addends:
        heap.add_signed(word)
    for (x, x_sign), (w, w_sign) in zip(operands, weights):
        product = multiply_unsigned(builder, x, w, shift=frac_bits)
        heap.add_sign_magnitude(product, builder.emit_xor(x_sign, w_sign))
    return heap.sum()


def multiply_accumulate(
    builder: CircuitBuilder,
    acc: Sequence[int],
    a: Sequence[int],
    b: Sequence[int],
    frac_bits: int,
) -> Bus:
    """One fixed-point MAC step: ``acc + (a * b >> frac_bits)``.

    The one-lane :func:`dot_product_fixed` on full-range operands: the
    folded cell of the paper's sequential matrix-vector multiplier
    (Sec. 3.5).  The product is not wrapped at the operand width; the
    accumulator keeps its (wider) width to absorb sum growth.
    """
    return dot_product_fixed(
        builder,
        [sign_magnitude(builder, a)],
        [sign_magnitude(builder, b)],
        frac_bits,
        len(acc),
        addends=[acc],
    )


def multiply_fixed(
    builder: CircuitBuilder,
    a: Sequence[int],
    b: Sequence[int],
    frac_bits: int,
) -> Bus:
    """Fixed-point signed multiply returning ``len(a)`` bits.

    The product is shifted right by ``frac_bits`` and truncated back to
    the operand width, matching the paper's 16-bit (1.3.12) number
    format.  Computed as ``|a|*|b|`` with the array trimmed to the bits
    that survive truncation, then a conditional negate on the narrow
    result (valid because two's-complement negation commutes with
    reduction mod ``2**width``).
    """
    if not a or not b:
        return []
    width = len(a)
    sign = builder.emit_xor(a[-1], b[-1])
    mag = multiply_unsigned(
        builder,
        absolute(builder, a),
        absolute(builder, b),
        max_width=frac_bits + width,
        shift=frac_bits,
    )
    return conditional_negate(builder, sign, (mag + [builder.zero] * width)[:width])


def multiply_fixed_full(
    builder: CircuitBuilder,
    a: Sequence[int],
    b: Sequence[int],
    frac_bits: int,
) -> Bus:
    """Fixed-point signed multiply *without* output truncation.

    Returns ``len(a) + len(b) - frac_bits`` bits, enough to hold any
    product of the operands (overflow-free, matching
    :func:`repro.nn.quantize.fixed_mul`).
    """
    if not a or not b:
        return []
    sign = builder.emit_xor(a[-1], b[-1])
    mag = multiply_unsigned(
        builder, absolute(builder, a), absolute(builder, b), shift=frac_bits
    )
    return conditional_negate(builder, sign, mag)


def divide_unsigned(
    builder: CircuitBuilder,
    a: Sequence[int],
    b: Sequence[int],
    n_frac: int = 0,
) -> Bus:
    """Restoring division ``(a << n_frac) / b`` for unsigned buses.

    ``n_frac`` extra iterations produce fractional quotient bits, which is
    how the CORDIC Tanh obtains ``sinh/cosh`` in fixed point.  Division by
    zero yields the all-ones quotient (hardware convention).

    Returns:
        Quotient bus of width ``len(a) + n_frac``.
    """
    n = len(a)
    total_steps = n + n_frac
    width = n + 1  # remainder width: one guard bit
    remainder: Bus = [builder.zero] * width
    dividend = list(a)
    quotient: List[int] = []
    for step in range(total_steps):
        # shift remainder left by one, bring in next dividend bit (or 0)
        next_bit = dividend[n - 1 - step] if step < n else builder.zero
        remainder = [next_bit] + remainder[:-1]
        trial = ripple_sub(
            builder,
            remainder,
            list(b) + [builder.zero] * (width - len(b)),
            with_borrow=True,
        )
        borrow = trial[-1]
        keep = builder.emit_not(borrow)  # 1 when subtraction succeeded
        remainder = builder.emit_mux_bus(keep, trial[:-1], remainder)
        quotient.append(keep)
    quotient.reverse()
    return quotient


def divide_signed(
    builder: CircuitBuilder,
    a: Sequence[int],
    b: Sequence[int],
    n_frac: int = 0,
) -> Bus:
    """Signed division via magnitudes plus a conditional negate."""
    sign = builder.emit_xor(a[-1], b[-1])
    quotient = divide_unsigned(
        builder, absolute(builder, a), absolute(builder, b), n_frac=n_frac
    )
    return conditional_negate(builder, sign, quotient)


def clamp_signed(builder: CircuitBuilder, a: Sequence[int], limit: int) -> Bus:
    """Clamp a signed bus to ``[-limit, limit]`` (two CMP+MUX pairs).

    For general limits, such as clamping CORDIC angles into the
    convergence domain; a power-of-two bound is :func:`saturate_to_width`.
    """
    width = len(a)
    mask = (1 << width) - 1
    hi = builder.constant_bus(limit & mask, width)
    lo = builder.constant_bus((-limit) & mask, width)
    out = list(a)
    above = less_than_signed(builder, hi, out)
    out = builder.emit_mux_bus(above, hi, out)
    below = less_than_signed(builder, out, lo)
    return builder.emit_mux_bus(below, lo, out)


def saturate_to_width(
    builder: CircuitBuilder, a: Sequence[int], width: int
) -> Bus:
    """Symmetric saturation of a wide signed bus to ``width`` bits.

    Matches :func:`repro.nn.quantize.saturate`: values outside
    ``+-H``, ``H = 2**(width-1) - 1``, clamp to the bound.  With
    ``e = a ^ sign`` the value leaves the range when a bit of
    ``e[width-1:]`` is set, or is ``-H - 1`` when it is negative and
    ``e[:width-1]`` is all ones: one OR tree, one AND tree and one word
    mux against ``sign ? -H : H`` (whose top bit is the sign either way)
    instead of two comparators in series.
    """
    if len(a) < width:
        return sign_extend(builder, a, width)
    sign = a[-1]
    e = [builder.emit_xor(bit, sign) for bit in a[:-1]]
    clamp = builder.emit_or(
        _reduce(builder.emit_or, e[width - 1 :], builder.zero),
        builder.emit_and(
            sign, _reduce(builder.emit_and, e[: width - 1], builder.one)
        ),
    )
    bound = [builder.one] + [builder.emit_not(sign)] * (width - 2)
    return builder.emit_mux_bus(clamp, bound, a[: width - 1]) + [sign]


def relu(builder: CircuitBuilder, a: Sequence[int]) -> Bus:
    """Rectified linear unit: ``max(0, a)`` for a signed bus.

    A single sign-bit-driven mux against zero; with constant folding this
    is ``n-1`` AND gates because the output MSB is always 0, matching the
    paper's 15 non-XOR for 16-bit ReLu.
    """
    if not a:
        return []
    keep = builder.emit_not(a[-1])  # 1 when a >= 0
    out = [builder.emit_and(bit, keep) for bit in a[:-1]]
    out.append(builder.zero)
    return out


def maximum(
    builder: CircuitBuilder,
    a: Sequence[int],
    b: Sequence[int],
    signed: bool = True,
) -> Bus:
    """Word-level max via one comparator and one mux (2n non-XOR)."""
    a_lt_b = (
        less_than_signed(builder, a, b) if signed else less_than(builder, a, b)
    )
    return builder.emit_mux_bus(a_lt_b, list(b), list(a))


def minimum(
    builder: CircuitBuilder,
    a: Sequence[int],
    b: Sequence[int],
    signed: bool = True,
) -> Bus:
    """Word-level min via one comparator and one mux."""
    a_lt_b = (
        less_than_signed(builder, a, b) if signed else less_than(builder, a, b)
    )
    return builder.emit_mux_bus(a_lt_b, list(a), list(b))
