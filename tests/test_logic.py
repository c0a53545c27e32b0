"""Word-level selection logic: max/argmax trees, muxes, adder trees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import CircuitBuilder, bits_from_int, int_from_bits, simulate
from repro.circuits.logic import adder_tree, argmax_tree, max_tree, mux_many
from repro.errors import CircuitError

WIDTH = 8


def run_values(build, values, out_specs):
    """Build a circuit over signed 8-bit Alice words, return decoded outs."""
    bld = CircuitBuilder()
    buses = [bld.add_alice_inputs(WIDTH) for _ in values]
    outputs = build(bld, buses)
    for bus, _ in outputs:
        bld.mark_output_bus(bus)
    circuit = bld.build()
    bits = []
    for value in values:
        bits.extend(bits_from_int(value & 255, WIDTH))
    out_bits = simulate(circuit, bits, [])
    decoded = []
    pos = 0
    for bus, is_signed in outputs:
        decoded.append(int_from_bits(out_bits[pos : pos + len(bus)], signed=is_signed))
        pos += len(bus)
    return decoded


values_strategy = st.lists(st.integers(-120, 120), min_size=1, max_size=9)


class TestMaxTree:
    @given(values_strategy)
    @settings(max_examples=30, deadline=None)
    def test_matches_python_max(self, values):
        (got,) = run_values(
            lambda bl, buses: [(max_tree(bl, buses), True)], values, 1
        )
        assert got == max(values)

    @given(st.lists(st.integers(0, 255), min_size=1, max_size=9))
    @settings(max_examples=25, deadline=None)
    def test_unsigned_matches_python_max(self, values):
        (got,) = run_values(
            lambda bl, buses: [(max_tree(bl, buses, signed=False), False)], values, 1
        )
        assert got == max(values)

    def test_stage_count_matches_table3(self):
        # Softmax_n = (n-1) CMP+MUX stages: 2*width non-XOR each
        bld = CircuitBuilder()
        buses = [bld.add_alice_inputs(16) for _ in range(10)]
        bld.mark_output_bus(max_tree(bld, buses))
        assert bld.build().counts().non_xor == 9 * 32

    def test_empty_rejected(self):
        bld = CircuitBuilder()
        with pytest.raises(CircuitError):
            max_tree(bld, [])


class TestArgmax:
    @given(values_strategy)
    @settings(max_examples=30, deadline=None)
    def test_tree_matches_numpy(self, values):
        got_idx, got_val = run_values(
            lambda bl, buses: [
                (argmax_tree(bl, buses)[0], False),
                (argmax_tree(bl, buses)[1], True),
            ],
            values,
            2,
        )
        assert got_val == max(values)
        assert got_idx == int(np.argmax(values))  # lowest-index ties

    @given(st.lists(st.integers(0, 255), min_size=1, max_size=9))
    @settings(max_examples=25, deadline=None)
    def test_unsigned_matches_numpy(self, values):
        # 200 > 100 unsigned, but its pattern is negative as a signed word
        got_idx, got_val = run_values(
            lambda bl, buses: [
                (argmax_tree(bl, buses, signed=False)[0], False),
                (argmax_tree(bl, buses, signed=False)[1], False),
            ],
            values,
            2,
        )
        assert got_val == max(values)
        assert got_idx == int(np.argmax(values))

    @pytest.mark.parametrize("n, width", [(1, 1), (2, 1), (3, 2), (5, 3), (8, 3), (9, 4)])
    def test_index_width_is_log2_of_the_class_count(self, n, width):
        bld = CircuitBuilder()
        index, _ = argmax_tree(bld, [bld.add_alice_inputs(WIDTH) for _ in range(n)])
        assert len(index) == width

    def test_tie_breaks_to_lowest_index(self):
        (idx,) = run_values(
            lambda bl, buses: [(argmax_tree(bl, buses)[0], False)],
            [5, 9, 9, 3],
            1,
        )
        assert idx == 1


class TestMuxMany:
    @given(st.integers(0, 7), st.lists(st.integers(0, 255), min_size=8, max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_selects_correct_option(self, select, table):
        bld = CircuitBuilder()
        sel = bld.add_alice_inputs(3)
        options = [bld.constant_bus(v, WIDTH) for v in table]
        bld.mark_output_bus(mux_many(bld, sel, options))
        circuit = bld.build()
        bits = simulate(circuit, bits_from_int(select, 3), [])
        assert int_from_bits(bits) == table[select]

    def test_non_power_of_two_options(self):
        bld = CircuitBuilder()
        sel = bld.add_alice_inputs(2)
        options = [bld.constant_bus(v, 4) for v in (3, 7, 11)]
        bld.mark_output_bus(mux_many(bld, sel, options))
        circuit = bld.build()
        for select, expected in [(0, 3), (1, 7), (2, 11)]:
            bits = simulate(circuit, bits_from_int(select, 2), [])
            assert int_from_bits(bits) == expected

    def test_single_option_ignores_select(self):
        bld = CircuitBuilder()
        sel = bld.add_alice_inputs(2)
        bld.mark_output_bus(mux_many(bld, sel, [bld.constant_bus(9, 4)]))
        circuit = bld.build()
        assert circuit.counts().total == 0
        for select in range(4):
            assert int_from_bits(simulate(circuit, bits_from_int(select, 2), [])) == 9

    def test_empty_rejected(self):
        bld = CircuitBuilder()
        with pytest.raises(CircuitError):
            mux_many(bld, [], [])


class TestAdderTree:
    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_sums_correctly(self, values):
        (got,) = run_values(
            lambda bl, buses: [(adder_tree(bl, buses), True)], values, 1
        )
        assert got == sum(values)

    def test_growth_prevents_overflow(self):
        values = [120] * 8  # sum 960 overflows 8 bits but not grown width
        (got,) = run_values(
            lambda bl, buses: [(adder_tree(bl, buses, grow=True), True)],
            values,
            1,
        )
        assert got == 960


