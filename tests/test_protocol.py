"""Two-party protocol tests: correctness, accounting, sequential mode,
outsourcing."""

import random

import pytest

from repro.circuits import CircuitBuilder, bits_from_int, int_from_bits, simulate
from repro.circuits.arith import multiply_unsigned, ripple_add
from repro.circuits.sequential import SequentialBuilder
from repro.errors import ProtocolError
from repro.gc import (
    OutsourcedSession,
    SequentialSession,
    TwoPartySession,
    execute,
    outsource_circuit,
    split_input,
)


def random_circuit(seed, n_gates=60, n_inputs=4):
    rng = random.Random(seed)
    bld = CircuitBuilder()
    a = bld.add_alice_inputs(n_inputs)
    b = bld.add_bob_inputs(n_inputs)
    wires = list(a) + list(b)
    ops = ["xor", "and", "or", "nand", "andn", "not", "xnor", "nor"]
    for _ in range(n_gates):
        op = rng.choice(ops)
        x = rng.choice(wires)
        if op == "not":
            wires.append(bld.emit_not(x))
        elif op == "xnor":
            wires.append(bld.emit_not(bld.emit_xor(x, rng.choice(wires))))
        else:
            wires.append(getattr(bld, f"emit_{op}")(x, rng.choice(wires)))
    for w in wires[-5:]:
        bld.mark_output(w)
    return bld.build()


class TestTwoParty:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_plaintext_simulation(self, seed, ot_group):
        rng = random.Random(seed)
        circuit = random_circuit(seed)
        a = [rng.randrange(2) for _ in range(4)]
        b = [rng.randrange(2) for _ in range(4)]
        result = execute(circuit, a, b, ot_group=ot_group, rng=rng)
        assert result.outputs == simulate(circuit, a, b)

    def test_communication_accounting(self, ot_group, rng):
        circuit = random_circuit(42)
        result = execute(circuit, [1, 0, 1, 0], [0, 1, 1, 0],
                         ot_group=ot_group, rng=rng)
        # paper Eq. 4: 2 x 128 bits per non-XOR gate (+4-byte frame)
        assert result.comm["tables"] == 32 * result.n_non_xor + 4
        assert result.total_comm_bytes > result.comm["tables"]

    def test_phase_times_recorded(self, ot_group, rng):
        result = execute(random_circuit(1), [0] * 4, [1] * 4,
                         ot_group=ot_group, rng=rng)
        assert set(result.times) == {"garble", "transfer", "ot", "evaluate", "merge"}
        assert result.total_time > 0

    def test_multiplier_under_gc(self, ot_group, rng):
        bld = CircuitBuilder()
        xa = bld.add_alice_inputs(6)
        xb = bld.add_bob_inputs(6)
        bld.mark_output_bus(multiply_unsigned(bld, xa, xb))
        circuit = bld.build()
        a, b = 13, 21
        result = execute(circuit, bits_from_int(a, 6), bits_from_int(b, 6),
                         ot_group=ot_group, rng=rng)
        assert int_from_bits(result.outputs) == a * b

    def test_sequential_core_rejected(self, ot_group):
        bld = SequentialBuilder()
        x = bld.add_alice_inputs(2)
        regs = bld.add_registers(2)
        bld.bind_registers(regs, x)
        bld.mark_output_bus(regs)
        core = bld.build()
        with pytest.raises(ProtocolError):
            TwoPartySession(core, ot_group=ot_group)

    def test_no_bob_inputs(self, ot_group, rng):
        bld = CircuitBuilder()
        a = bld.add_alice_inputs(3)
        bld.mark_output(bld.emit_and(bld.emit_and(a[0], a[1]), a[2]))
        circuit = bld.build()
        result = execute(circuit, [1, 1, 1], [], ot_group=ot_group, rng=rng)
        assert result.outputs == [1]


class TestSequentialProtocol:
    def _accumulator(self):
        bld = SequentialBuilder("acc")
        x = bld.add_alice_inputs(8)
        acc = bld.add_registers(8)
        total = ripple_add(bld, acc, x)
        bld.bind_registers(acc, total)
        bld.mark_output_bus(total)
        return bld.build_sequential()

    def test_matches_plaintext_run(self, ot_group, rng):
        seq = self._accumulator()
        values = [17, 200, 33, 90]
        inputs = [bits_from_int(v, 8) for v in values]
        result = SequentialSession(seq, ot_group=ot_group, rng=rng).run(
            inputs, [], cycles=4
        )
        plain = seq.run(inputs, [], cycles=4)
        assert result.outputs_per_cycle == plain

    def test_per_cycle_timings(self, ot_group, rng):
        seq = self._accumulator()
        result = SequentialSession(seq, ot_group=ot_group, rng=rng).run(
            [bits_from_int(9, 8)], [], cycles=3
        )
        assert len(result.garble_times) == 3
        assert len(result.evaluate_times) == 3
        assert result.n_non_xor_per_cycle == seq.core.counts().non_xor

    def test_tables_sent_every_cycle(self, ot_group, rng):
        seq = self._accumulator()
        result = SequentialSession(seq, ot_group=ot_group, rng=rng).run(
            [bits_from_int(5, 8)], [], cycles=4
        )
        per_cycle = 32 * seq.core.counts().non_xor + 4
        assert result.comm["tables"] == 4 * per_cycle


class TestOutsourcing:
    def test_shares_reconstruct(self, rng):
        bits = [1, 0, 1, 1, 0, 0, 1]
        s, xs = split_input(bits, rng=rng)
        assert [(a ^ b) & 1 for a, b in zip(s, xs)] == bits

    def test_share_marginals_uniform(self):
        """Each share bit should be ~uniform regardless of the input."""
        rng = random.Random(5)
        ones = 0
        trials = 2000
        for _ in range(trials):
            s, _ = split_input([1], rng=rng)
            ones += s[0]
        assert 0.44 <= ones / trials <= 0.56

    def test_transform_adds_only_free_gates(self):
        circuit = random_circuit(3)
        transformed = outsource_circuit(circuit)
        assert transformed.counts().non_xor == circuit.counts().non_xor
        assert transformed.n_alice == circuit.n_alice
        assert transformed.n_bob == circuit.n_alice + circuit.n_bob

    @pytest.mark.parametrize("seed", range(3))
    def test_outsourced_equals_direct(self, seed, ot_group):
        rng = random.Random(seed + 50)
        circuit = random_circuit(seed + 10)
        a = [rng.randrange(2) for _ in range(4)]
        b = [rng.randrange(2) for _ in range(4)]
        direct = simulate(circuit, a, b)
        session = OutsourcedSession(circuit, ot_group=ot_group, rng=rng)
        assert session.run(a, b).outputs == direct

    def test_input_width_checked(self, ot_group, rng):
        session = OutsourcedSession(random_circuit(4), ot_group=ot_group, rng=rng)
        with pytest.raises(ProtocolError):
            session.run([1], [0, 0, 0, 0])
