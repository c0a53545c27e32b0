"""Sequential-circuit tests: registers, multi-cycle runs, unrolling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import bits_from_int, int_from_bits, simulate
from repro.circuits.arith import ripple_add
from repro.circuits.sequential import SequentialBuilder, SequentialCircuit
from repro.errors import CircuitError


def make_accumulator(width=8, init=0):
    bld = SequentialBuilder("acc")
    x = bld.add_alice_inputs(width)
    acc = bld.add_registers(width, init=init)
    total = ripple_add(bld, acc, x)
    bld.bind_registers(acc, total)
    bld.mark_output_bus(total)
    return bld.build_sequential()


def make_counter(width=4):
    """Free-running counter with no inputs."""
    from repro.circuits.arith import increment

    bld = SequentialBuilder("counter")
    state = bld.add_registers(width)
    nxt = increment(bld, state)
    bld.bind_registers(state, nxt)
    bld.mark_output_bus(nxt)
    return bld.build_sequential()


class TestAccumulator:
    @given(st.lists(st.integers(0, 255), min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_running_sum(self, values):
        seq = make_accumulator()
        outs = seq.run([bits_from_int(v, 8) for v in values], [], cycles=len(values))
        total = 0
        for v, out in zip(values, outs):
            total = (total + v) & 255
            assert int_from_bits(out) == total

    def test_initial_value(self):
        seq = make_accumulator(init=10)
        outs = seq.run([bits_from_int(5, 8)], [], cycles=1)
        assert int_from_bits(outs[0]) == 15

    def test_constant_input_broadcast(self):
        seq = make_accumulator()
        outs = seq.run([bits_from_int(3, 8)], [], cycles=4)
        assert [int_from_bits(o) for o in outs] == [3, 6, 9, 12]

    def test_final_state(self):
        seq = make_accumulator()
        state = seq.final_state([bits_from_int(7, 8)], [], cycles=3)
        assert int_from_bits(state) == 21


class TestCounter:
    def test_counts_up(self):
        seq = make_counter()
        outs = seq.run([], [], cycles=5)
        assert [int_from_bits(o) for o in outs] == [1, 2, 3, 4, 5]

    def test_wraps(self):
        seq = make_counter(width=2)
        outs = seq.run([], [], cycles=5)
        assert [int_from_bits(o) for o in outs] == [1, 2, 3, 0, 1]


class TestUnroll:
    @given(st.lists(st.integers(0, 255), min_size=1, max_size=5))
    @settings(max_examples=20, deadline=None)
    def test_unroll_equivalence(self, values):
        seq = make_accumulator()
        cycles = len(values)
        per_cycle = [bits_from_int(v, 8) for v in values]
        sequential_out = seq.run(per_cycle, [], cycles=cycles)
        unrolled = seq.unroll(cycles)
        flat = [bit for cyc in per_cycle for bit in cyc]
        flat_out = simulate(unrolled, flat, [])
        for c in range(cycles):
            assert flat_out[c * 8 : (c + 1) * 8] == sequential_out[c]

    def test_unroll_scales_gate_count(self):
        seq = make_accumulator()
        core_gates = len(seq.core.gates)
        unrolled = seq.unroll(4)
        assert len(unrolled.gates) == 4 * core_gates

    def test_unroll_zero_cycles_rejected(self):
        with pytest.raises(CircuitError):
            make_accumulator().unroll(0)

    def test_memory_footprint_constant(self):
        """Sec. 3.5: the folded core is constant-size regardless of cycles."""
        seq = make_accumulator()
        assert len(seq.core.gates) == len(make_accumulator().core.gates)
        assert len(seq.unroll(8).gates) == 2 * len(seq.unroll(4).gates)


class TestCycleCount:
    def test_zero_cycles_rejected(self):
        """``cycles=0`` used to fall through to the input-list length."""
        seq = make_accumulator()
        with pytest.raises(CircuitError, match="cycles must be >= 1"):
            seq.run([bits_from_int(1, 8), bits_from_int(2, 8)], [], cycles=0)

    def test_default_is_the_longer_input_list(self):
        seq = make_accumulator()
        outs = seq.run([bits_from_int(1, 8), bits_from_int(2, 8)], [])
        assert [int_from_bits(o) for o in outs] == [1, 3]


class TestBindingErrors:
    def test_unbound_register_rejected(self):
        bld = SequentialBuilder()
        x = bld.add_alice_inputs(2)
        bld.add_registers(2)
        bld.mark_output(x[0])
        with pytest.raises(CircuitError):
            bld.build_sequential()

    def test_double_bind_rejected(self):
        bld = SequentialBuilder()
        x = bld.add_alice_inputs(1)
        regs = bld.add_registers(1)
        bld.bind_registers(regs, x)
        with pytest.raises(CircuitError):
            bld.bind_registers(regs, x)

    def test_bind_non_register_rejected(self):
        bld = SequentialBuilder()
        x = bld.add_alice_inputs(2)
        with pytest.raises(CircuitError):
            bld.bind_registers([x[0]], [x[1]])

    def test_width_mismatch_rejected(self):
        bld = SequentialBuilder()
        x = bld.add_alice_inputs(2)
        regs = bld.add_registers(2)
        with pytest.raises(CircuitError):
            bld.bind_registers(regs, x[:1])

    def test_register_count_mismatch(self):
        bld = SequentialBuilder()
        x = bld.add_alice_inputs(1)
        regs = bld.add_registers(1)
        bld.bind_registers(regs, x)
        core = bld.build()
        with pytest.raises(CircuitError):
            SequentialCircuit(core, [])

    def test_missing_cycle_input_rejected(self):
        seq = make_accumulator()
        with pytest.raises(CircuitError):
            seq.run([bits_from_int(1, 8), bits_from_int(2, 8)], [], cycles=3)
