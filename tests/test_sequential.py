"""Sequential-circuit tests: registers, multi-cycle runs, unrolling."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import FixedPointFormat, bits_from_int, int_from_bits, simulate
from repro.circuits.arith import ripple_add
from repro.circuits.sequential import SequentialBuilder, SequentialCircuit
from repro.compile import folded_mac_cell
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


def _mac_cell():
    return folded_mac_cell(FixedPointFormat(2, 6), fan_in=24, fold=1)


class TestFolded:
    """``seq.folded(u)`` does ``u`` of ``seq``'s cycles per clock."""

    @pytest.mark.parametrize("make", [make_accumulator, _mac_cell])
    @pytest.mark.parametrize("factor", [1, 2, 3, 8])
    def test_folded_clock_is_factor_cycles(self, make, factor):
        seq = make()
        core = seq.core
        wide = seq.folded(factor)
        n = 3
        rng = random.Random(factor)
        alice = [[rng.getrandbits(1) for _ in range(core.n_alice)]
                 for _ in range(factor * n)]
        bob = [[rng.getrandbits(1) for _ in range(core.n_bob)]
               for _ in range(factor * n)]

        def lanes(per_cycle, clock):
            """One clock's input: its ``factor`` cycles, copy-major."""
            chunk = per_cycle[clock * factor:(clock + 1) * factor]
            return [bit for cycle in chunk for bit in cycle]

        wide_alice = [lanes(alice, c) for c in range(n)]
        wide_bob = [lanes(bob, c) for c in range(n)]
        assert wide.core.n_alice == factor * core.n_alice
        assert wide.core.n_bob == factor * core.n_bob
        assert wide.n_state == seq.n_state
        assert wide.initial_state() == seq.initial_state()
        assert len(wide.core.gates) == factor * len(core.gates)
        assert wide.core.counts() == core.counts().scaled(factor)

        narrow_out = seq.run(alice, bob, cycles=factor * n)
        # every factor-th output, and the final state
        assert wide.run(wide_alice, wide_bob, cycles=n) == (
            narrow_out[factor - 1::factor]
        )
        assert wide.final_state(wide_alice, wide_bob, cycles=n) == (
            seq.final_state(alice, bob, cycles=factor * n)
        )
        # unrolled, the two are the same function: the wide circuit
        # keeps the last copy's outputs of each clock
        flat_alice = [bit for cycle in alice for bit in cycle]
        flat_bob = [bit for cycle in bob for bit in cycle]
        width = len(core.outputs)
        full = simulate(seq.unroll(factor * n), flat_alice, flat_bob)
        kept = [
            bit
            for clock in range(n)
            for bit in full[((clock + 1) * factor - 1) * width:
                            (clock + 1) * factor * width]
        ]
        assert simulate(wide.unroll(n), flat_alice, flat_bob) == kept

    def test_fold_of_one_is_the_circuit_itself(self):
        seq = make_accumulator()
        assert seq.folded(1) is seq

    def test_fold_keeps_register_inits(self):
        wide = make_accumulator(init=10).folded(2)
        outs = wide.run([bits_from_int(5, 8) + bits_from_int(1, 8)], [], cycles=2)
        assert [int_from_bits(o) for o in outs] == [16, 22]

    def test_fold_of_a_counter_without_inputs(self):
        wide = make_counter().folded(3)
        assert wide.core.n_alice == wide.core.n_bob == 0
        assert [int_from_bits(o) for o in wide.run([], [], cycles=3)] == [3, 6, 9]

    def test_fold_below_one_rejected(self):
        with pytest.raises(CircuitError):
            make_accumulator().folded(0)


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
