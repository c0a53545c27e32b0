"""Fixed-point number format used throughout DeepSecure.

The paper evaluates with a 16-bit format: 1 sign bit, 3 integer bits and
12 fractional bits (Sec. 4.2), giving a representational error bounded by
``2**-(frac_bits+1)``.  :class:`FixedPointFormat` encodes/decodes between
floats, two's-complement integers and LSB-first bit vectors, with numpy
vectorized variants for tensor quantization.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence, Union

import numpy as np

from ..errors import QuantizationError

__all__ = ["FixedPointFormat", "DEFAULT_FORMAT"]

ArrayLike = Union[float, Sequence[float], np.ndarray]


@dataclasses.dataclass(frozen=True)
class FixedPointFormat:
    """Signed fixed-point format ``Q<int_bits>.<frac_bits>`` plus sign.

    Attributes:
        int_bits: number of integer (magnitude) bits.
        frac_bits: number of fractional bits.
    """

    int_bits: int = 3
    frac_bits: int = 12

    def __post_init__(self) -> None:
        if self.int_bits < 0 or self.frac_bits < 0:
            raise QuantizationError("bit counts must be non-negative")
        if self.width > 64:
            raise QuantizationError("formats wider than 64 bits unsupported")

    @property
    def width(self) -> int:
        """Total width in bits including the sign bit."""
        return 1 + self.int_bits + self.frac_bits

    @property
    def scale(self) -> int:
        """Integer scale factor ``2**frac_bits``."""
        return 1 << self.frac_bits

    @property
    def max_value(self) -> float:
        """Largest representable value."""
        return ((1 << (self.width - 1)) - 1) / self.scale

    @property
    def resolution(self) -> float:
        """Quantization step ``2**-frac_bits``."""
        return 1.0 / self.scale

    def accumulator_width(self, fan_in: int) -> int:
        """Bits that hold any sum of ``fan_in`` full-precision products
        (the wide accumulator of a dot product, before saturation)."""
        growth = max(1, math.ceil(math.log2(max(fan_in, 2))) + 1)
        return 2 * self.width - self.frac_bits + growth

    # -- scalar conversions -------------------------------------------------

    def encode(self, value: float, saturate: bool = True) -> int:
        """Quantize a float to the signed integer representation.

        Args:
            value: real number to encode.
            saturate: clamp to the representable range instead of raising.

        Returns:
            Signed integer in ``[-2**(w-1), 2**(w-1) - 1]``.
        """
        raw = int(round(float(value) * self.scale))
        high = (1 << (self.width - 1)) - 1
        low = -high
        if raw < low or raw > high:
            if not saturate:
                raise QuantizationError(
                    f"{value} out of range for {self!r}"
                )
            raw = min(max(raw, low), high)
        return raw

    def decode(self, raw: int) -> float:
        """Convert a signed integer representation back to a float."""
        return raw / self.scale

    def to_unsigned(self, raw: int) -> int:
        """Map a signed representation to its two's-complement bit pattern."""
        return raw & ((1 << self.width) - 1)

    def from_unsigned(self, pattern: int) -> int:
        """Map a two's-complement bit pattern to the signed representation."""
        pattern &= (1 << self.width) - 1
        if pattern >> (self.width - 1):
            pattern -= 1 << self.width
        return pattern

    # -- vectorized conversions ------------------------------------------------

    def encode_array(self, values: ArrayLike) -> np.ndarray:
        """Vectorized :meth:`encode` with saturation; returns int64 array."""
        arr = np.asarray(values, dtype=np.float64)
        raw = np.rint(arr * self.scale).astype(np.int64)
        high = (1 << (self.width - 1)) - 1
        return np.clip(raw, -high, high)

    def describe(self) -> str:
        """Human-readable summary, e.g. ``fixed<1.3.12>``."""
        return f"fixed<1.{self.int_bits}.{self.frac_bits}>"


#: The paper's evaluation format: 1 sign + 3 integer + 12 fractional bits.
DEFAULT_FORMAT = FixedPointFormat(int_bits=3, frac_bits=12)
