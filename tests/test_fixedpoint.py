"""Fixed-point format tests (the paper's 1.3.12 representation)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import DEFAULT_FORMAT, FixedPointFormat, bits_from_int, int_from_bits
from repro.errors import QuantizationError


class TestFormatBasics:
    def test_paper_default(self):
        assert DEFAULT_FORMAT.width == 16
        assert DEFAULT_FORMAT.int_bits == 3
        assert DEFAULT_FORMAT.frac_bits == 12
        assert DEFAULT_FORMAT.scale == 4096

    def test_representational_error_bound(self):
        # paper Sec. 4.2: error <= 2^-(b+1) with b = 12
        fmt = DEFAULT_FORMAT
        assert fmt.resolution / 2 == 2.0 ** -13
        values = np.linspace(-fmt.max_value, fmt.max_value, 100_001)
        error = np.abs(fmt.encode_array(values) / fmt.scale - values)
        assert error.max() <= 2.0 ** -13 + 1e-12

    def test_range_is_symmetric(self):
        fmt = FixedPointFormat(3, 12)
        assert fmt.encode(-1e9) == -fmt.encode(1e9)
        assert fmt.decode(fmt.encode(-fmt.max_value)) == -fmt.max_value

    def test_describe(self):
        assert DEFAULT_FORMAT.describe() == "fixed<1.3.12>"

    def test_invalid_formats_rejected(self):
        with pytest.raises(QuantizationError):
            FixedPointFormat(-1, 4)
        with pytest.raises(QuantizationError):
            FixedPointFormat(40, 40)


class TestScalarConversions:
    @given(st.floats(-7.9, 7.9, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_within_resolution(self, value):
        fmt = DEFAULT_FORMAT
        decoded = fmt.decode(fmt.encode(value))
        assert abs(decoded - value) <= fmt.resolution / 2 + 1e-12

    def test_saturation(self):
        fmt = DEFAULT_FORMAT
        assert fmt.decode(fmt.encode(100.0)) == fmt.max_value
        assert fmt.decode(fmt.encode(-100.0)) == -fmt.max_value

    def test_strict_mode_raises(self):
        with pytest.raises(QuantizationError):
            DEFAULT_FORMAT.encode(100.0, saturate=False)

    @given(st.integers(-(2 ** 15) + 1, 2 ** 15 - 1))
    @settings(max_examples=30, deadline=None)
    def test_unsigned_pattern_roundtrip(self, raw):
        fmt = DEFAULT_FORMAT
        assert fmt.from_unsigned(fmt.to_unsigned(raw)) == raw

    @given(st.floats(-7.9, 7.9, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_bits_roundtrip(self, value):
        # the path an input takes into a circuit: encode, pattern, LSB-first bits
        fmt = DEFAULT_FORMAT
        bits = bits_from_int(fmt.to_unsigned(fmt.encode(value)), fmt.width)
        assert len(bits) == 16
        assert int_from_bits(bits, signed=True) == fmt.encode(value)
        decoded = fmt.decode(fmt.from_unsigned(int_from_bits(bits)))
        assert abs(decoded - value) <= fmt.resolution / 2 + 1e-12

    def test_pattern_bits_above_width_ignored(self):
        fmt = DEFAULT_FORMAT
        for pattern in (0, 1, 0x7FFF, 0x8001, 0xFFFF):
            assert fmt.from_unsigned(pattern | (0b101 << 16)) == fmt.from_unsigned(pattern)


class TestVectorized:
    def test_matches_scalar(self):
        fmt = DEFAULT_FORMAT
        values = np.linspace(-9, 9, 101)
        vector = fmt.encode_array(values)
        scalars = np.array([fmt.encode(v) for v in values])
        assert (vector == scalars).all()

    def test_int_min_never_produced(self):
        fmt = FixedPointFormat(3, 12)
        encoded = fmt.encode_array(np.array([-1e9, -8.0, 8.0, 1e9]))
        assert encoded.min() == -(2 ** 15 - 1)
        assert encoded.max() == 2 ** 15 - 1

    def test_empty_array(self):
        encoded = DEFAULT_FORMAT.encode_array(np.array([]))
        assert encoded.shape == (0,)
        assert encoded.dtype == np.int64
