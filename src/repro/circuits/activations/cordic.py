"""CORDIC activation circuits (``TanhCORDIC`` / ``SigmoidCORDIC``).

The paper computes Tanh and Sigmoid with a COordinate Rotation DIgital
Computer operated in hyperbolic rotation mode: after the iterations the
state holds ``cosh(z)`` and ``sinh(z)``, from which
``tanh = sinh / cosh`` and ``sigmoid = 1 / (1 + cosh - sinh)`` follow
with one division (Sec. 4.2).  Each extra iteration adds one bit of
precision; iterations ``3i + 1`` (4, 13, 40, ...) must be repeated for
convergence, giving the paper's 14 iterations at 12 fractional bits.

Standard hyperbolic CORDIC only converges for ``|z| <= 1.1182``, which
does not cover the paper's +-4/+-8 activation inputs, so we add the
classic range expansion (Hu et al.): extra leading stages with
coefficients ``1 - 2**(k-2)`` for ``k = 0, -1, ...`` extend the domain to
~5.17 (three stages) or ~9.7 (five stages).  The expansion count and the
internal fixed-point width are sized automatically from a float
simulation of the exact datapath.

Two mirror implementations are provided and kept bit-exact to each other:

* :func:`rotate_reference` — integer software model (fast, testable);
* :func:`cordic_sinh_cosh` — the Boolean circuit.
"""

from __future__ import annotations

import dataclasses
import math
from functools import lru_cache
from typing import List, Sequence, Tuple

from ...errors import CircuitError
from ..arith import (
    clamp_signed,
    conditional_add_sub,
    conditional_negate,
    divide_unsigned,
    ripple_add,
    ripple_sub,
    shift_right_arith_const,
    sign_extend,
    truncate,
)
from ..builder import Bus, CircuitBuilder
from ..fixedpoint import FixedPointFormat
from .common import split_magnitude

__all__ = [
    "CordicPlan",
    "hyperbolic_plan",
    "rotate_reference",
    "cordic_sinh_cosh",
    "tanh_cordic",
    "sigmoid_cordic",
    "sigmoid_cordic_via_tanh",
    "tanh_reference",
    "sigmoid_reference",
    "sigmoid_via_tanh_reference",
]


@dataclasses.dataclass(frozen=True)
class CordicPlan:
    """A fully-resolved hyperbolic CORDIC schedule.

    Attributes:
        stages: ``k`` indices in execution order; ``k <= 0`` are range-
            expansion stages (coefficient ``1 - 2**(k-2)``), ``k >= 1``
            are standard stages (coefficient ``2**-k``), repeats included.
        internal: internal fixed-point format of the x/y/z datapath.
        gain: multiplicative gain ``G`` such that the final x equals
            ``G * x0 * cosh(z)``.
        z_max: convergence bound (sum of stage angles).
        x0: integer initializer ``round(scale / gain)``.
        angles: per-stage ``atanh`` constants in internal fixed point.
    """

    stages: Tuple[int, ...]
    internal: FixedPointFormat
    gain: float
    z_max: float
    x0: int
    angles: Tuple[int, ...]

    @property
    def z_limit(self) -> int:
        """Largest safe ``|z|`` in internal fixed point."""
        return int(self.z_max * self.internal.scale) - 1


def _stage_coefficient(k: int) -> float:
    return 1.0 - 2.0 ** (k - 2) if k <= 0 else 2.0 ** (-k)


def _float_rotate(z: float, stages: Sequence[int]) -> Tuple[float, float, float]:
    """Float CORDIC used only for sizing; returns (x, y, max_state)."""
    x, y = 1.0, 0.0
    peak = 1.0
    for k in stages:
        c = _stage_coefficient(k)
        angle = math.atanh(c)
        d = 1.0 if z >= 0 else -1.0
        x, y = x + d * c * y, y + d * c * x
        z -= d * angle
        peak = max(peak, abs(x), abs(y))
    return x, y, peak


@lru_cache(maxsize=None)
def hyperbolic_plan(
    frac_bits: int = 12,
    expansion: int = 2,
    guard_bits: int = 2,
) -> CordicPlan:
    """Build a CORDIC schedule for ``frac_bits`` of output precision.

    Args:
        frac_bits: output fractional bits (paper: 12).
        expansion: number of range-expansion stages (3 covers |z|<=5.17
            for Tanh; 5 covers |z|<=9.7 for Sigmoid).
        guard_bits: extra internal fractional bits against rounding drift.
    """
    stages: List[int] = list(range(1 - expansion, 1))  # most negative first
    last = frac_bits + 1
    for k in range(1, last + 1):
        stages.append(k)
        if k in (4, 13, 40) and k < last:
            # convergence repeats (3i+1 rule); repeating the final stage
            # adds nothing, so the 12-bit schedule is the paper's 14
            # iterations: k = 1..13 with stage 4 doubled
            stages.append(k)
    z_max = sum(math.atanh(_stage_coefficient(k)) for k in stages)
    gain, _, _ = _float_rotate(0.0, stages)
    # size the integer datapath from the float model across the domain
    peak = 0.0
    samples = 64
    for i in range(samples + 1):
        z = z_max * (i / samples)
        _, _, p = _float_rotate(z, stages)
        peak = max(peak, p / gain)
    peak *= 1.0  # states are scaled by x0 ~ 1/gain, so peak/gain bounds them
    int_bits = max(1, math.ceil(math.log2(peak * 1.05 + 1)))
    internal = FixedPointFormat(int_bits=int_bits, frac_bits=frac_bits + guard_bits)
    x0 = round(internal.scale / gain)
    angles = tuple(
        round(math.atanh(_stage_coefficient(k)) * internal.scale)
        for k in stages
    )
    return CordicPlan(
        stages=tuple(stages),
        internal=internal,
        gain=gain,
        z_max=z_max,
        x0=x0,
        angles=angles,
    )


# ---------------------------------------------------------------------------
# integer software model (bit-exact mirror of the circuit)
# ---------------------------------------------------------------------------


def rotate_reference(z_int: int, plan: CordicPlan) -> Tuple[int, int]:
    """Integer CORDIC rotation; returns ``(cosh, sinh)`` in internal scale.

    ``z_int`` is the angle in the *internal* fixed-point scale and is
    clamped to the convergence domain exactly as the circuit clamps it.
    """
    limit = plan.z_limit
    z = max(-limit, min(limit, z_int))
    x, y = plan.x0, 0
    for k, angle in zip(plan.stages, plan.angles):
        if k <= 0:
            shift = 2 - k
            tx = y - (y >> shift)
            ty = x - (x >> shift)
        else:
            tx = y >> k
            ty = x >> k
        if z >= 0:
            x, y, z = x + tx, y + ty, z - angle
        else:
            x, y, z = x - tx, y - ty, z + angle
    return x, y


def tanh_reference(value: float, io_fmt: FixedPointFormat, plan: CordicPlan) -> float:
    """Bit-exact software model of :func:`tanh_cordic` (for tests)."""
    z_io = io_fmt.encode(value)
    shift = plan.internal.frac_bits - io_fmt.frac_bits
    z_int = z_io << shift if shift >= 0 else z_io >> -shift
    cosh, sinh = rotate_reference(z_int, plan)
    quotient = (abs(sinh) << io_fmt.frac_bits) // cosh
    signed = -quotient if sinh < 0 else quotient
    return io_fmt.decode(io_fmt.from_unsigned(signed & ((1 << io_fmt.width) - 1)))


def sigmoid_reference(
    value: float, io_fmt: FixedPointFormat, plan: CordicPlan
) -> float:
    """Bit-exact software model of :func:`sigmoid_cordic` (for tests)."""
    z_io = io_fmt.encode(value)
    shift = plan.internal.frac_bits - io_fmt.frac_bits
    z_int = z_io << shift if shift >= 0 else z_io >> -shift
    cosh, sinh = rotate_reference(z_int, plan)
    denom = plan.internal.scale + cosh - sinh  # 1 + e^-x, internal scale
    quotient = (plan.internal.scale << io_fmt.frac_bits) // denom
    quotient = min(quotient, (1 << (io_fmt.width - 1)) - 1)
    return io_fmt.decode(quotient)


# ---------------------------------------------------------------------------
# circuits
# ---------------------------------------------------------------------------


def _to_internal(
    builder: CircuitBuilder,
    x: Sequence[int],
    io_fmt: FixedPointFormat,
    plan: CordicPlan,
) -> Bus:
    """Convert an io-format bus to the internal format and clamp it."""
    shift = plan.internal.frac_bits - io_fmt.frac_bits
    widened = sign_extend(builder, list(x), io_fmt.width + max(shift, 0))
    if shift >= 0:
        scaled = [builder.zero] * shift + widened[: len(widened) - shift]
    else:
        scaled = shift_right_arith_const(builder, widened, -shift)
    target = plan.internal.width
    if len(scaled) < target:
        scaled = sign_extend(builder, scaled, target)
    else:
        scaled = truncate(scaled, target)
    return clamp_signed(builder, scaled, plan.z_limit)


def cordic_sinh_cosh(
    builder: CircuitBuilder,
    z: Sequence[int],
    plan: CordicPlan,
) -> Tuple[Bus, Bus]:
    """Unrolled hyperbolic CORDIC; ``z`` is in the *internal* format.

    Returns ``(cosh_bus, sinh_bus)`` in the internal format.  Shift
    amounts and angle constants are folded per iteration, so each stage
    costs three conditional add/subs (plus two subtractions for the
    range-expansion stages).
    """
    width = plan.internal.width
    if len(z) != width:
        raise CircuitError(f"z must be {width} bits, got {len(z)}")
    x = builder.constant_bus(plan.x0, width)
    y = builder.constant_bus(0, width)
    z = list(z)
    for k, angle in zip(plan.stages, plan.angles):
        if k <= 0:
            shift = 2 - k
            tx = ripple_sub(builder, y, shift_right_arith_const(builder, y, shift))
            ty = ripple_sub(builder, x, shift_right_arith_const(builder, x, shift))
        else:
            tx = shift_right_arith_const(builder, y, k)
            ty = shift_right_arith_const(builder, x, k)
        negative = z[-1]  # 1 when z < 0 -> subtract
        x = conditional_add_sub(builder, x, tx, negative)
        y = conditional_add_sub(builder, y, ty, negative)
        angle_bus = builder.constant_bus(angle, width)
        positive = builder.emit_not(negative)
        z = conditional_add_sub(builder, z, angle_bus, positive)
    return x, y


def tanh_cordic(
    builder: CircuitBuilder,
    x: Sequence[int],
    fmt: FixedPointFormat,
    plan: CordicPlan = None,
) -> Bus:
    """``TanhCORDIC``: rotation, then one division ``sinh / cosh``.

    Three expansion stages give ``z_max ~= 5.17``; beyond the clamp,
    ``1 - tanh`` is below one output ulp, so clamping costs no accuracy.
    """
    plan = plan or hyperbolic_plan(frac_bits=fmt.frac_bits, expansion=3)
    z = _to_internal(builder, x, fmt, plan)
    cosh, sinh = cordic_sinh_cosh(builder, z, plan)
    sign, magnitude = split_magnitude(builder, sinh)
    quotient = divide_unsigned(
        builder, magnitude, cosh, n_frac=fmt.frac_bits
    )
    narrowed = truncate(quotient, fmt.width - 1) + [builder.zero]
    return conditional_negate(builder, sign, narrowed)


def sigmoid_cordic_via_tanh(
    builder: CircuitBuilder,
    x: Sequence[int],
    fmt: FixedPointFormat,
    plan: CordicPlan = None,
) -> Bus:
    """Cheaper sigmoid through ``sigmoid(x) = (1 + tanh(x/2)) / 2``.

    Halving the argument (a free shift) brings the required CORDIC
    domain down to the tanh plan's (|z| <= ~5.2 with three expansion
    stages instead of five), and the final fix-up is one free shift and
    a constant add — an optimization the paper's identity-based Sec. 4.2
    treatment invites but does not implement.  See the component inventory
    for the gate savings vs :func:`sigmoid_cordic`.
    """
    plan = plan or hyperbolic_plan(frac_bits=fmt.frac_bits, expansion=3)
    half = shift_right_arith_const(builder, list(x), 1)
    t = tanh_cordic(builder, half, fmt, plan=plan)
    # (1 + t) / 2 with one extra fractional bit of headroom
    widened = sign_extend(builder, t, fmt.width + 1)
    one = builder.constant_bus(fmt.scale, fmt.width + 1)
    summed = ripple_add(builder, widened, one)
    halved = shift_right_arith_const(builder, summed, 1)
    return truncate(halved, fmt.width)


def sigmoid_via_tanh_reference(
    value: float, io_fmt: FixedPointFormat, plan: CordicPlan
) -> float:
    """Bit-exact software model of :func:`sigmoid_cordic_via_tanh`."""
    half = io_fmt.encode(value) >> 1
    t = io_fmt.encode(tanh_reference(io_fmt.decode(half), io_fmt, plan))
    return io_fmt.decode((t + io_fmt.scale) >> 1)


def sigmoid_cordic(
    builder: CircuitBuilder,
    x: Sequence[int],
    fmt: FixedPointFormat,
    plan: CordicPlan = None,
) -> Bus:
    """``SigmoidCORDIC``: ``1 / (1 + cosh(x) - sinh(x))`` (paper Sec. 4.2).

    ``cosh - sinh`` reconstructs ``e**-x`` inside the circuit; the default
    plan uses five range-expansion stages (``z_max ~= 9.7``) so the whole
    representable input range of the 1.3.12 format is inside the
    convergence domain.
    """
    plan = plan or hyperbolic_plan(frac_bits=fmt.frac_bits, expansion=5)
    z = _to_internal(builder, x, fmt, plan)
    cosh, sinh = cordic_sinh_cosh(builder, z, plan)
    exp_neg = ripple_sub(builder, cosh, sinh)
    one = builder.constant_bus(plan.internal.scale, plan.internal.width)
    denominator = ripple_add(builder, one, exp_neg)
    numerator = builder.constant_bus(plan.internal.scale, plan.internal.width)
    quotient = divide_unsigned(
        builder, numerator, denominator, n_frac=fmt.frac_bits
    )
    return truncate(quotient, fmt.width - 1) + [builder.zero]
