"""Piecewise-linear activation circuits (``TanhPL`` / ``SigmoidPLAN``).

The cheap activation variants in Table 3 replace the non-linearity with a
handful of line segments whose slopes are sums of a few signed powers of
two, so the "multiplication" degenerates into free shifts plus one or two
adders (the PLAN approximation of Amin, Curtis & Hayes-Gill is the classic
example and is reproduced verbatim).  A generic minimax-ish fitter is
included so other activations can be lowered the same way.
"""

from __future__ import annotations

import dataclasses
import math
from functools import lru_cache
from typing import Callable, List, Sequence, Tuple

import numpy as np

from ...errors import CircuitError
from ..arith import conditional_add_sub, less_than, ripple_add
from ..builder import Bus, CircuitBuilder
from ..fixedpoint import FixedPointFormat
from .common import apply_odd_symmetry, apply_point_symmetry, split_magnitude

__all__ = [
    "csd_digits",
    "constant_multiply_positive",
    "Segment",
    "PiecewiseSpec",
    "fit_piecewise",
    "piecewise_positive",
    "tanh_piecewise",
    "sigmoid_plan",
    "sigmoid_plan_spec",
    "tanh_pl_spec",
]


def csd_digits(value: int, max_digits: int = 0) -> List[Tuple[int, int]]:
    """Canonical-signed-digit decomposition of a non-negative integer.

    Returns ``[(sign, position), ...]`` with ``sign`` in {+1, -1} such
    that ``value == sum(sign << position)`` and no two positions are
    adjacent (the CSD property, which minimizes the number of adders in a
    constant multiplier).

    Args:
        value: non-negative integer to decompose.
        max_digits: when positive, raise if more digits would be needed.
    """
    if value < 0:
        raise CircuitError("csd_digits expects a non-negative value")
    digits: List[Tuple[int, int]] = []
    position = 0
    while value:
        if value & 1:
            remainder = value & 3
            if remainder == 3:  # ...11 -> +4 -1
                digits.append((-1, position))
                value += 1
            else:
                digits.append((1, position))
                value -= 1
        value >>= 1
        position += 1
    if max_digits and len(digits) > max_digits:
        raise CircuitError(
            f"constant needs {len(digits)} CSD digits, limit {max_digits}"
        )
    return digits


def quantize_slope_csd(
    slope: float, frac_bits: int, max_digits: int
) -> Tuple[int, List[Tuple[int, int]]]:
    """Quantize a non-negative slope to at most ``max_digits`` CSD digits.

    Greedy residual matching: repeatedly subtract the closest signed power
    of two.  Returns ``(fixed_value, digits)`` where ``fixed_value`` is
    the realized slope scaled by ``2**frac_bits``.
    """
    if slope < 0:
        raise CircuitError("slopes must be non-negative here")
    target = slope * (1 << frac_bits)
    digits: List[Tuple[int, int]] = []
    residual = target
    for _ in range(max_digits):
        if abs(residual) < 0.5:
            break
        power = int(round(math.log2(abs(residual)))) if residual else 0
        sign = 1 if residual > 0 else -1
        digits.append((sign, power))
        residual -= sign * (1 << power) if power >= 0 else sign * 2.0 ** power
    value = sum(sign * (1 << pos) for sign, pos in digits if pos >= 0)
    value += sum(sign * 2.0 ** pos for sign, pos in digits if pos < 0)
    return int(round(value)), digits


def constant_multiply_positive(
    builder: CircuitBuilder,
    x: Sequence[int],
    constant: int,
    frac_bits: int,
    out_width: int,
) -> Bus:
    """Multiply an *unsigned* bus by a non-negative constant, then ``>> frac_bits``.

    The constant is decomposed into CSD digits so each term is a free
    shift of ``x``; terms are combined with one adder/subtractor each.
    Truncation (``>> frac_bits``) is folded into the shifts.
    """
    if constant < 0:
        raise CircuitError("constant must be non-negative")
    digits = csd_digits(constant)
    if not digits:
        return [builder.zero] * out_width
    padded = list(x) + [builder.zero] * (frac_bits + out_width)

    def term(position: int) -> Bus:
        shift = frac_bits - position
        if shift >= 0:
            shifted = padded[shift : shift + out_width]
        else:
            shifted = [builder.zero] * (-shift) + padded[: out_width + shift]
        return list(shifted)

    # start from the highest digit (always +1 in CSD)
    digits_sorted = sorted(digits, key=lambda d: -d[1])
    acc = term(digits_sorted[0][1])
    for sign, position in digits_sorted[1:]:
        operand = term(position)
        sub = builder.one if sign < 0 else builder.zero
        acc = conditional_add_sub(builder, acc, operand, sub)
    return acc


@dataclasses.dataclass(frozen=True)
class Segment:
    """One line segment ``y = slope * x + intercept`` on ``x >= lower``."""

    lower: float
    slope: float
    intercept: float


@dataclasses.dataclass(frozen=True)
class PiecewiseSpec:
    """A piecewise-linear approximation of ``f`` on ``x >= 0``.

    Attributes:
        name: label used in reports.
        segments: ascending by ``lower``; ``segments[0].lower`` must be 0.
        symmetry: ``"odd"`` (tanh-like) or ``"point"`` (sigmoid-like).
    """

    name: str
    segments: Tuple[Segment, ...]
    symmetry: str = "odd"

    def __post_init__(self) -> None:
        if not self.segments or self.segments[0].lower != 0.0:
            raise CircuitError("first segment must start at 0")
        lowers = [s.lower for s in self.segments]
        if lowers != sorted(lowers):
            raise CircuitError("segments must be ascending")
        if self.symmetry not in ("odd", "point"):
            raise CircuitError("symmetry must be 'odd' or 'point'")

    def evaluate_positive(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the approximation (float semantics) for ``x >= 0``."""
        x = np.asarray(x, dtype=np.float64)
        result = np.zeros_like(x)
        for seg in self.segments:
            mask = x >= seg.lower
            result = np.where(mask, seg.slope * x + seg.intercept, result)
        return result

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Evaluate on any sign using the declared symmetry."""
        x = np.asarray(x, dtype=np.float64)
        pos = self.evaluate_positive(np.abs(x))
        if self.symmetry == "odd":
            return np.where(x < 0, -pos, pos)
        return np.where(x < 0, 1.0 - pos, pos)


def fit_piecewise(
    fn: Callable[[np.ndarray], np.ndarray],
    n_segments: int,
    x_max: float,
    saturation: float,
    frac_bits: int = 12,
    max_slope_digits: int = 3,
    symmetry: str = "odd",
    name: str = "piecewise",
    iterations: int = 60,
) -> PiecewiseSpec:
    """Fit ``n_segments`` minimax-balanced line segments to ``fn`` on [0, x_max].

    A final saturation segment at ``x >= x_max`` outputs ``saturation``.
    Knots are iteratively moved to balance per-segment minimax error
    (a light-weight Remez analogue); slopes are then quantized to CSD
    form with ``max_slope_digits`` digits and intercepts re-centered.
    """
    inner = n_segments - 1
    if inner < 1:
        raise CircuitError("need at least two segments (one + saturation)")
    knots = np.linspace(0.0, x_max, inner + 1)
    grid = np.linspace(0.0, x_max, 4096)
    values = fn(grid)

    def segment_error(lo: float, hi: float) -> Tuple[float, float, float]:
        mask = (grid >= lo) & (grid <= hi)
        xs, ys = grid[mask], values[mask]
        if len(xs) < 2:
            return 0.0, 0.0, float(ys[0]) if len(ys) else 0.0
        slope = (fn(np.array([hi]))[0] - fn(np.array([lo]))[0]) / (hi - lo)
        resid = ys - slope * xs
        intercept = 0.5 * (resid.max() + resid.min())
        err = 0.5 * (resid.max() - resid.min())
        return err, slope, intercept

    for _ in range(iterations):
        errors = np.array(
            [segment_error(knots[i], knots[i + 1])[0] for i in range(inner)]
        )
        mean_err = errors.mean()
        if mean_err <= 0:
            break
        widths = np.diff(knots)
        # shrink high-error segments, grow low-error ones
        adjust = np.sqrt(mean_err / np.maximum(errors, 1e-12))
        new_widths = widths * np.clip(adjust, 0.8, 1.25)
        new_widths *= x_max / new_widths.sum()
        knots = np.concatenate([[0.0], np.cumsum(new_widths)])
        knots[-1] = x_max

    segments: List[Segment] = []
    quantum = 1.0 / (1 << frac_bits)
    for i in range(inner):
        _, slope, intercept = segment_error(knots[i], knots[i + 1])
        fixed_slope, _ = quantize_slope_csd(
            max(slope, 0.0), frac_bits, max_slope_digits
        )
        q_slope = fixed_slope * quantum
        mask = (grid >= knots[i]) & (grid <= knots[i + 1])
        resid = values[mask] - q_slope * grid[mask]
        q_intercept = (
            round(float(0.5 * (resid.max() + resid.min())) / quantum) * quantum
            if mask.any()
            else intercept
        )
        segments.append(Segment(float(knots[i]), q_slope, q_intercept))
    segments.append(
        Segment(float(x_max), 0.0, round(saturation / quantum) * quantum)
    )
    return PiecewiseSpec(name=name, segments=tuple(segments), symmetry=symmetry)


def piecewise_positive(
    builder: CircuitBuilder,
    mag: Sequence[int],
    spec: PiecewiseSpec,
    fmt: FixedPointFormat,
) -> Bus:
    """Evaluate ``spec`` on an unsigned magnitude bus.

    Each segment value is produced with a CSD constant multiplier plus a
    constant-intercept add; segment selection uses one comparator and one
    word mux per boundary (monotone mux chain).
    """
    width = fmt.width
    outputs: List[Bus] = []
    for seg in spec.segments:
        fixed_slope = int(round(seg.slope * fmt.scale))
        term = constant_multiply_positive(
            builder, mag, fixed_slope, fmt.frac_bits, width
        )
        fixed_intercept = int(round(seg.intercept * fmt.scale))
        if fixed_intercept:
            const = builder.constant_bus(fixed_intercept & ((1 << width) - 1), width)
            term = ripple_add(builder, term, const)
        outputs.append(term)
    result = outputs[0]
    for seg, candidate in zip(spec.segments[1:], outputs[1:]):
        bound = int(round(seg.lower * fmt.scale))
        const = builder.constant_bus(bound, len(mag))
        below = less_than(builder, list(mag), const)
        in_segment = builder.emit_not(below)
        result = builder.emit_mux_bus(in_segment, candidate, result)
    return result


def _piecewise_activation(
    builder: CircuitBuilder,
    x: Sequence[int],
    spec: PiecewiseSpec,
    fmt: FixedPointFormat,
) -> Bus:
    sign, mag = split_magnitude(builder, x)
    y = piecewise_positive(builder, mag, spec, fmt)
    if spec.symmetry == "odd":
        return apply_odd_symmetry(builder, sign, y)
    return apply_point_symmetry(builder, sign, y, fmt.frac_bits)


@lru_cache(maxsize=None)
def tanh_pl_spec(n_segments: int = 7, frac_bits: int = 12) -> PiecewiseSpec:
    """The paper's ``TanhPL``: seven lines for ``x >= 0``.

    With seven segments this fitter reaches ~0.49% max error; the paper
    quotes 0.22%, which our minimax floor analysis shows requires ~12
    segments (see EXPERIMENTS.md) — pass ``n_segments=12`` to match it.
    """
    return fit_piecewise(
        np.tanh,
        n_segments=n_segments,
        x_max=3.5,
        saturation=1.0,
        frac_bits=frac_bits,
        symmetry="odd",
        name=f"TanhPL{n_segments}",
    )


@lru_cache(maxsize=None)
def sigmoid_plan_spec() -> PiecewiseSpec:
    """The PLAN sigmoid of Amin, Curtis & Hayes-Gill (paper's ``SigmoidPLAN``).

    All slopes are single powers of two, so the circuit needs no true
    multiplier at all — Table 3 prices it at 73 non-XOR gates.
    """
    return PiecewiseSpec(
        name="SigmoidPLAN",
        symmetry="point",
        segments=(
            Segment(0.0, 0.25, 0.5),
            Segment(1.0, 0.125, 0.625),
            Segment(2.375, 0.03125, 0.84375),
            Segment(5.0, 0.0, 1.0),
        ),
    )


def tanh_piecewise(
    builder: CircuitBuilder,
    x: Sequence[int],
    fmt: FixedPointFormat,
    spec: PiecewiseSpec = None,
) -> Bus:
    """``TanhPL`` circuit (7 quantized segments by default)."""
    spec = spec or tanh_pl_spec(frac_bits=fmt.frac_bits)
    return _piecewise_activation(builder, x, spec, fmt)


def sigmoid_plan(
    builder: CircuitBuilder,
    x: Sequence[int],
    fmt: FixedPointFormat,
) -> Bus:
    """``SigmoidPLAN`` circuit (shift-only slopes)."""
    return _piecewise_activation(builder, x, sigmoid_plan_spec(), fmt)
