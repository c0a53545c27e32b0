"""Unit tests for the Circuit container: validation, counts, metrics."""

import random
from collections.abc import Iterable, Sequence, Sized

import pytest

from repro.circuits import CircuitBuilder, Circuit
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


    def test_gate_view_decodes_each_row(self):
        circuit = _simple_circuit()
        gates = list(circuit.gates)
        assert sorted(gate.op.name for gate in gates) == ["AND", "OR", "XOR"]
        assert len(circuit.gates) == circuit.n_gates == 3
        assert gates[-1].out == circuit.outputs[0]

    def test_gate_view_is_a_sized_iterable_over_the_columns(self):
        # each walk decodes the columns afresh; nothing indexes a gate
        circuit = _simple_circuit()
        view = circuit.gates
        assert isinstance(view, Sized) and isinstance(view, Iterable)
        assert not isinstance(view, Sequence)
        assert list(view) == list(view)
        assert [gate.out for gate in view] == view.columns.out.tolist()
        with pytest.raises(TypeError):
            view[0]


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


def _outcome(check):
    try:
        check()
    except CircuitError as exc:
        return str(exc)
    return None


def _reference_validate(circuit):
    """Validation gate by gate, then the outputs, on ``Gate`` rows."""
    circuit._validate_gates()
    driven = set(range(2 + circuit.n_inputs))
    driven.update(gate.out for gate in circuit.gates)
    for out in circuit.outputs:
        if out not in driven or not 0 <= out < circuit.n_wires:
            raise CircuitError(f"output wire {out} is never driven")


def _read(rng, out, n_wires):
    """A gate input: mostly an earlier wire, sometimes any id."""
    if rng.random() < 0.9:
        return rng.randrange(out)
    return rng.randint(-1, n_wires)


class TestColumnValidation:
    def test_agrees_with_the_gate_scan(self):
        """``validate`` checks the columns and names a failure with the
        gate-by-gate scan: it must accept and reject exactly the
        netlists the scan does, with its message."""
        rng = random.Random(11)
        rejected = 0
        for _ in range(500):
            n_in = rng.randint(1, 3)
            n_wires = 2 + n_in + rng.randint(0, 6)
            gates = []
            for out in range(2 + n_in, n_wires):
                op = rng.choice(list(GateType))
                a = _read(rng, out, n_wires)
                b = None if op.arity == 1 else _read(rng, out, n_wires)
                if rng.random() < 0.05:
                    b = None if b is not None else _read(rng, out, n_wires)
                drives = out if rng.random() > 0.05 else rng.randint(-1, n_wires)
                gates.append(Gate(op, a, b, drives))
            circuit = Circuit(
                n_alice=n_in, n_bob=0, gates=gates,
                outputs=[rng.randint(0, n_wires) for _ in range(2)],
                n_wires=n_wires,
            )
            want = _outcome(lambda: _reference_validate(circuit))
            assert _outcome(circuit.validate) == want
            rejected += want is not None
        assert 100 < rejected < 400


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

    def test_interface_wires_skip_internal_wires(self):
        bld = CircuitBuilder()
        a = bld.add_alice_inputs(2)
        b = bld.add_bob_inputs(2)
        x = bld.emit_xor(a[0], b[0])
        y = bld.emit_and(a[1], b[1])
        out = bld.emit_or(x, y)
        bld.mark_output(out)
        circuit = bld.build()
        assert circuit.interface_wires().tolist() == [0, 1, 2, 3, 4, 5, out]
        assert x not in circuit.interface_wires() and y not in circuit.interface_wires()

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

    def test_level_schedule_holds_every_table_once(self):
        bld = CircuitBuilder()
        a = bld.add_alice_inputs(4)
        x = bld.emit_and(a[0], a[1])       # layer 1
        y = bld.emit_or(a[2], a[3])        # layer 1
        z = bld.emit_and(bld.emit_xor(x, y), a[0])  # layer 2
        bld.mark_output(bld.emit_xor(z, a[1]))      # free, after the last layer
        circuit = bld.build()
        schedule = circuit.level_schedule()
        assert len(schedule.levels) == circuit.depth() + 1 == 3
        assert [level.n_non_free for level in schedule.levels] == [2, 1, 0]
        assert schedule.n_non_free == circuit.counts().non_xor
