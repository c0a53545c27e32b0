"""Unit tests for the Circuit container: validation, counts, metrics."""

import pytest

from repro.circuits import CircuitBuilder, Circuit, GateCounts
from repro.circuits.gates import Gate, GateType
from repro.errors import CircuitError


def _simple_circuit():
    bld = CircuitBuilder()
    a = bld.add_alice_inputs(2)
    b = bld.add_bob_inputs(2)
    x = bld.emit_xor(a[0], b[0])
    y = bld.emit_and(a[1], b[1])
    bld.mark_output(bld.emit_or(x, y))
    return bld.build()


class TestCounts:
    def test_xor_vs_non_xor(self):
        circuit = _simple_circuit()
        counts = circuit.counts()
        assert counts.xor == 1
        assert counts.non_xor == 2
        assert counts.total == 3

    def test_counts_walk_the_gates_once(self):
        # sessions, backends and service.stats ask per request
        circuit = _simple_circuit()
        assert circuit.counts() is circuit.counts()
        assert _simple_circuit().counts() == circuit.counts()

    def test_gatecounts_add_and_scale(self):
        a = GateCounts(10, 5)
        b = GateCounts(1, 2)
        assert (a + b) == GateCounts(11, 7)
        assert a.scaled(3) == GateCounts(30, 15)

    def test_histogram(self):
        circuit = _simple_circuit()
        hist = circuit.histogram()
        assert hist[GateType.XOR] == 1
        assert hist[GateType.AND] == 1
        assert hist[GateType.OR] == 1


class TestValidation:
    def test_valid_circuit_passes(self):
        _simple_circuit().validate()

    def test_read_before_write_rejected(self):
        circuit = Circuit(
            n_alice=1, n_bob=0,
            gates=[Gate(GateType.AND, 2, 99, 3)],
            outputs=[3], n_wires=100,
        )
        with pytest.raises(CircuitError):
            circuit.validate()

    def test_multiply_driven_rejected(self):
        circuit = Circuit(
            n_alice=2, n_bob=0,
            gates=[Gate(GateType.AND, 2, 3, 4), Gate(GateType.OR, 2, 3, 4)],
            outputs=[4], n_wires=5,
        )
        with pytest.raises(CircuitError):
            circuit.validate()

    def test_undriven_output_rejected(self):
        circuit = Circuit(n_alice=1, n_bob=0, gates=[], outputs=[50], n_wires=51)
        with pytest.raises(CircuitError):
            circuit.validate()

    def test_missing_operand_rejected(self):
        circuit = Circuit(
            n_alice=2, n_bob=0,
            gates=[Gate(GateType.AND, 2, None, 4)],
            outputs=[4], n_wires=5,
        )
        with pytest.raises(CircuitError):
            circuit.validate()


class TestWireRanges:
    def test_input_partitions(self):
        bld = CircuitBuilder()
        a = bld.add_alice_inputs(3)
        b = bld.add_bob_inputs(2)
        s = bld.add_state_inputs(4)
        bld.mark_output(bld.emit_xor(a[0], b[0]))
        circuit = bld.build()
        assert list(circuit.alice_inputs) == [2, 3, 4]
        assert list(circuit.bob_inputs) == [5, 6]
        assert list(circuit.state_inputs) == [7, 8, 9, 10]
        assert circuit.n_inputs == 9

    def test_input_assignment_checks_widths(self):
        circuit = _simple_circuit()
        with pytest.raises(CircuitError):
            circuit.input_assignment([0], [0, 0])
        with pytest.raises(CircuitError):
            circuit.input_assignment([0, 0], [0])
        with pytest.raises(CircuitError):
            circuit.input_assignment([0, 0], [0, 0], [1])


class TestMetrics:
    def test_depth_counts_only_non_free(self):
        bld = CircuitBuilder()
        a = bld.add_alice_inputs(4)
        x = bld.emit_xor(a[0], a[1])       # free: depth 0
        y = bld.emit_and(x, a[2])          # depth 1
        z = bld.emit_xor(y, a[3])          # still depth 1
        w = bld.emit_and(z, a[0])          # depth 2
        bld.mark_output(w)
        assert bld.build().depth() == 2

    def test_fanout(self):
        bld = CircuitBuilder()
        a = bld.add_alice_inputs(2)
        x = bld.emit_and(a[0], a[1])
        y = bld.emit_xor(x, a[0])
        bld.mark_output(y)
        bld.mark_output(x)
        fanout = bld.build().fanout()
        assert fanout[x] == 2  # consumed by y and as output
        assert fanout[a[0]] == 2
