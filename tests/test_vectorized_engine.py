"""Level-scheduled garbling engine vs the gate-at-a-time reference oracle.

The contract under test: given the same rng stream, the engine
(`Garbler` / `FastEvaluator`) and the reference loops (`Garbler` over a
scalar `LabelStore` / `Evaluator`) produce byte-identical tables, labels
and decode bits, on random netlists and on the compiled Table 3-style DL
circuits — and every registered backend keeps label parity with
cleartext.
"""

import dataclasses
import itertools
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import CircuitBuilder, FixedPointFormat
from repro.circuits.gates import AND_REDUCTION, Gate, GateType
from repro.circuits.netlist import (
    Circuit,
    FreeStep,
    LevelSchedule,
    ScalarRun,
    ScheduleLevel,
)
from repro.circuits.sequential import SequentialCircuit
from repro.circuits.simulate import simulate
from repro.compile import CompileOptions, compile_model, folded_mac_cell
from repro.engine import available_backends, get_backend
from repro.errors import CircuitError, GarblingError
from repro.gc import (
    ArrayLabelStore,
    Evaluator,
    FastEvaluator,
    Garbler,
    LabelStore,
    SequentialSession,
    fastgarble,
    garble_many,
)
from repro.gc.channel import make_channel_pair
from repro.gc.cipher import FixedKeyAES, HashKDF
from repro.gc.cutandchoose import (
    CutAndChooseGarbler,
    OpenedCopy,
    verify_opened_copy,
)
from repro.gc.garble import GarbledCircuit
from repro.gc.ot import TEST_GROUP_512
from repro.gc.ot_extension import IKNPState
from repro.gc.protocol import TwoPartySession
from repro.gc.rng import XofStream
from repro.nn import Dense, QuantizedModel, Sequential, Tanh, TrainConfig, Trainer

FMT = FixedPointFormat(2, 6)


def _as_dict(plane):
    """A label plane as the scalar evaluator's wire -> label dict, over
    the wires it holds: every wire on an :func:`_every_wire` circuit."""
    return {w: plane[w] for w in plane.held}


def _every_wire(circuit):
    """``circuit`` with every wire an output: its walk holds every wire
    to the end and reuses no slot, so its plane is the full wire plane
    a comparison with the reference evaluator's dict needs."""
    return Circuit(
        n_alice=circuit.n_alice, n_bob=circuit.n_bob, n_state=circuit.n_state,
        gates=circuit.gates, outputs=list(range(circuit.n_wires)),
        n_wires=circuit.n_wires, d_wires=circuit.d_wires,
    )


def _reference(circuit, seed, kdf=None, stream=random.Random):
    """The gate-at-a-time oracle, drawing labels from ``stream(seed)``."""
    return Garbler(
        circuit, kdf=kdf, label_store=LabelStore(rng=stream(seed))
    )


def _random_circuit(seed: int, n_gates: int = 120, n_inputs: int = 4):
    """A random netlist covering every gate type (incl. unary chains)."""
    rng = random.Random(seed)
    bld = CircuitBuilder(use_structural_hashing=False, fold_constants=False)
    a = bld.add_alice_inputs(n_inputs)
    b = bld.add_bob_inputs(n_inputs)
    wires = list(a) + list(b) + [bld.zero, bld.one]
    ops = ["xor", "xnor", "and", "or", "nand", "nor", "andn", "not"]
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


@pytest.fixture(scope="module")
def compiled_dl():
    """A compiled DL inference netlist (Table 3 component mix)."""
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, size=(300, 6))
    y = (x @ rng.normal(size=(6, 3))).argmax(axis=1)
    model = Sequential([Dense(4), Tanh(), Dense(3)], input_shape=(6,), seed=5)
    Trainer(model, TrainConfig(epochs=15, learning_rate=0.2)).fit(x, y)
    quantized = QuantizedModel(model, FMT, activation_variant="exact")
    compiled = compile_model(
        quantized, CompileOptions(activation="exact", output="argmax")
    )
    return compiled, quantized, x


class TestLevelSchedule:
    def test_schedule_partitions_every_gate(self):
        """Every gate drives a slot of its own when every wire is held
        (the slots are then a renaming of the wires), and the real
        circuit's plane is far smaller."""
        circuit = _random_circuit(3)
        for walked in (circuit, _every_wire(circuit)):
            schedule = walked.level_schedule()
            seen = []
            for level in schedule.levels:
                for free in level.free:
                    seen.extend(int(w) for w in free.out)
                seen.extend(int(w) for w in level.nf_out)
            assert len(seen) == circuit.n_gates
            assert schedule.n_non_free == circuit.counts().non_xor
        first = 2 + circuit.n_inputs
        assert sorted(seen) == list(range(first, circuit.n_wires))
        assert schedule.n_slots == circuit.n_wires
        assert sorted(schedule.held) == list(range(circuit.n_wires))
        assert circuit.level_schedule().n_slots < circuit.n_wires // 2

    def test_levels_respect_dependencies(self):
        """Steps in schedule order — each level's free sub-steps, then
        its AND layer — read only wires of strictly earlier steps."""
        circuit = _every_wire(_random_circuit(4))
        schedule = circuit.level_schedule()
        steps = []
        for level in schedule.levels:
            steps.extend((free.a, free.b, free.out) for free in level.free)
            steps.append((level.nf_a, level.nf_b, level.nf_out))
        produced_at = {}
        for position, (_, _, outs) in enumerate(steps):
            for w in outs:
                produced_at[int(w)] = position
        for position, (reads_a, reads_b, _) in enumerate(steps):
            for w in list(reads_a) + list(reads_b):
                # b may be the scratch row (unary gates)
                assert int(w) <= schedule.n_slots
                assert produced_at.get(int(w), -1) < position

    def test_schedule_cached(self):
        circuit = _random_circuit(5)
        assert circuit.level_schedule() is circuit.level_schedule()

    def test_misordered_netlist_rejected(self):
        """Use-before-definition must raise, not silently garble zeros."""
        gates = [
            Gate(GateType.AND, a=2, b=6, out=5),  # reads wire 6 early
            Gate(GateType.AND, a=2, b=3, out=6),
        ]
        circuit = Circuit(n_alice=1, n_bob=1, gates=gates,
                          outputs=[5], n_wires=7)
        with pytest.raises(CircuitError, match="topologically"):
            circuit.level_schedule()

    def test_table_indices_are_netlist_order(self):
        circuit = _every_wire(_random_circuit(6))
        schedule = circuit.level_schedule()
        order = {}
        tidx = 0
        for gate in circuit.gates:
            if not gate.op.is_free:
                order[schedule.held[gate.out]] = tidx
                tidx += 1
        for level in schedule.levels:
            for out, t in zip(level.nf_out, level.nf_tidx):
                assert order[int(out)] == int(t)


def _reference_schedule(circuit):
    """``LevelSchedule.build`` the slow, obvious way: every gate gets an
    ``(AND phase, free sub-step)`` pair, the non-free gates are grouped
    per AND layer and the free ones per pair in Python lists, converted
    at the end.  Kept as the reference the column build must equal
    field by field, once its index vectors are read through the build's
    slots (:func:`_assert_same_schedule`): its own steps index wires,
    each wire its own slot, the scratch row after them."""
    n_wires = circuit.n_wires
    scratch = n_wires
    place = [(0, 0)] * n_wires
    defined = bytearray(n_wires)
    for wire in range(min(2 + circuit.n_inputs, n_wires)):
        defined[wire] = 1
    layers, sub_steps = {}, {}
    table_index = 0
    for idx, gate in enumerate(circuit.gates):
        for src in gate.inputs():
            if not 0 <= src < n_wires or not defined[src]:
                raise CircuitError(
                    f"gate {idx} reads wire {src} before it is driven; "
                    "netlist is not topologically ordered"
                )
        if not 0 <= gate.out < n_wires:
            raise CircuitError(f"gate {idx} drives out-of-range wire")
        defined[gate.out] = 1
        phase, sub = max(place[w] for w in gate.inputs())
        if gate.op.is_free:
            place[gate.out] = (phase, sub + 1)
            sub_steps.setdefault(place[gate.out], []).append(gate)
            continue
        if gate.op not in AND_REDUCTION:
            raise CircuitError(
                f"gate {idx} ({gate.op}) has no AND reduction; "
                "cannot build a garbling schedule"
            )
        place[gate.out] = (phase + 1, 0)
        layers.setdefault(phase + 1, []).append((gate, table_index))
        table_index += 1

    def column(values, dtype=np.intp):
        return np.asarray(values, dtype=dtype)

    def mask(flags):
        """0/1 flags as (n, 2) 64-bit words, 0 or all ones; None when
        no flag is set."""
        if not any(flags):
            return None
        return column([[-f % 2**64] * 2 for f in flags], np.uint64)

    depth = max((place[g.out][0] for g in circuit.gates), default=0)
    levels, widest = [], 0
    for phase in range(depth + 1):
        free = []
        for key in sorted(k for k in sub_steps if k[0] == phase):
            gates = sub_steps[key]
            free.append(FreeStep(
                ab=column([g.a for g in gates]
                          + [scratch if g.b is None else g.b for g in gates]),
                out=column([g.out for g in gates]),
                inv=mask([int(g.op in (GateType.XNOR, GateType.NOT))
                          for g in gates]),
            ))
            widest = max(widest, 2 * len(gates))
        layer = layers.get(phase + 1, [])
        flags = [AND_REDUCTION[gate.op] for gate, _ in layer]
        halves = [2 * t for _, t in layer] + [2 * t + 1 for _, t in layer]
        levels.append(ScheduleLevel(
            free=tuple(free),
            nf_ab=column([gate.a for gate, _ in layer]
                         + [gate.b for gate, _ in layer]),
            nf_out=column([gate.out for gate, _ in layer]),
            tweaks=column(halves, np.uint64),
            halves=column(halves),
            nf_inv_ab=mask([f.ia for f in flags] + [f.ib for f in flags]),
            nf_io=mask([f.out for f in flags]),
        ))
        widest = max(widest, 2 * len(layer))
    return LevelSchedule(
        levels=tuple(levels),
        n_non_free=table_index,
        n_wires=n_wires,
        n_slots=n_wires,
        held={w: w for w in sorted({*circuit.outputs, *circuit.d_wires})},
        widest=widest,
    )


def _assert_same_fields(got_obj, want_obj, where):
    for field in dataclasses.fields(want_obj):
        got, want = getattr(got_obj, field.name), getattr(want_obj, field.name)
        here = f"{where}: {field.name}"
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, here
            assert got.shape == want.shape, here
            assert np.array_equal(got, want), here
            assert got.flags.c_contiguous, here
        elif isinstance(want, tuple):
            assert len(got) == len(want), here
            for i, (g, w) in enumerate(zip(got, want)):
                _assert_same_fields(g, w, f"{here}[{i}]")
        else:
            assert want is None and got is None, here


def _schedule_steps(schedule):
    """A schedule's steps in schedule order: each level's free sub-steps,
    then its AND layer, as ``(step, a, b, out)``."""
    for level in schedule.levels:
        for free in level.free:
            yield free, free.a, free.b, free.out
        yield level, level.nf_a, level.nf_b, level.nf_out


def _slot_map(circuit, built, reference):
    """Per wire (the scratch wire ``n_wires`` last), the slot ``built``
    gave it, read off each step's outputs against the wire-space
    ``reference``'s; the constants and inputs keep their own."""
    slot = np.full(circuit.n_wires + 1, -1, dtype=np.intp)
    slot[: 2 + circuit.n_inputs] = np.arange(2 + circuit.n_inputs)
    slot[circuit.n_wires] = built.n_slots
    for (*_, out), (*_, wires) in zip(
        _schedule_steps(built), _schedule_steps(reference)
    ):
        slot[wires] = out
    return slot


def _assert_same_schedule(built, reference, circuit):
    """``built`` is ``reference`` with every wire renamed to its slot:
    each step reads the slots its operands were written to, every other
    field is equal, and the held wires are where their gates put them."""
    for name in ("n_non_free", "n_wires", "widest"):
        value = getattr(built, name)
        assert type(value) is int and value == getattr(reference, name), name
    slot = _slot_map(circuit, built, reference)
    assert type(built.n_slots) is int
    assert built.n_slots == int(slot[: circuit.n_wires].max(initial=1)) + 1
    assert built.held == {w: int(slot[w]) for w in reference.held}
    renamed = [
        dataclasses.replace(
            level,
            free=tuple(
                dataclasses.replace(free, ab=slot[free.ab], out=slot[free.out])
                for free in level.free
            ),
            nf_ab=slot[level.nf_ab],
            nf_out=slot[level.nf_out],
        )
        for level in reference.levels
    ]
    assert len(built.levels) == len(renamed)
    for depth, (level, expected) in enumerate(zip(built.levels, renamed)):
        _assert_same_fields(level, expected, f"level {depth}")


@st.composite
def _netlists(draw, bob_widths=st.integers(0, 3), state_widths=st.integers(0, 3)):
    """Any gate type on any earlier wire, outputs numbered in any order,
    constants, state wires and unary gates included; the server and
    register input widths are drawn from the strategies given."""
    n_alice, n_bob, n_state = (
        draw(widths) for widths in (st.integers(0, 3), bob_widths, state_widths)
    )
    first = 2 + n_alice + n_bob + n_state
    picks = draw(st.lists(
        st.tuples(
            st.sampled_from(list(GateType)),
            st.integers(0, 10**6), st.integers(0, 10**6),
        ),
        max_size=40,
    ))
    outs = draw(st.permutations(range(first, first + len(picks))))
    driven = list(range(first))
    gates = []
    for (op, a, b), out in zip(picks, outs):
        gates.append(Gate(
            op, driven[a % len(driven)],
            None if op.arity == 1 else driven[b % len(driven)], out,
        ))
        driven.append(out)
    return Circuit(
        n_alice=n_alice, n_bob=n_bob, n_state=n_state, gates=gates,
        outputs=driven[-3:], n_wires=first + len(picks),
    )


class TestInterfaceWires:
    @given(_netlists())
    @settings(max_examples=60, deadline=None)
    def test_sorted_distinct_interface(self, circuit):
        expected = sorted(
            {*range(2 + circuit.n_inputs), *circuit.d_wires, *circuit.outputs}
        )
        wires = circuit.interface_wires()
        assert wires.dtype == np.intp and wires.tolist() == expected

    def test_garbling_leaves_numpy_ma_unloaded(self):
        """np.union1d and np.unique import numpy.ma on their first call;
        a process that garbles never pays for it."""
        code = (
            "import random, sys\n"
            "from repro.circuits import CircuitBuilder\n"
            "from repro.gc import Garbler\n"
            "bld = CircuitBuilder()\n"
            "a, b = bld.add_alice_inputs(3), bld.add_bob_inputs(3)\n"
            "bld.mark_output(bld.emit_and(bld.emit_xor(a[0], b[0]), a[1]))\n"
            "Garbler(bld.build(), rng=random.Random(1)).garble()\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath(src), env.get("PYTHONPATH", "")]
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            capture_output=True, text=True,
        ).stdout
        assert out.strip() == "False"


class TestScheduleAgainstReference:
    """The column-and-sort ``LevelSchedule.build`` hands the engine what
    the list-based AND-layer grouping does: same arrays, dtypes, flags,
    on every sub-step and every AND layer."""

    def test_demo_net(self):
        from repro.cli import _demo_service

        service, _ = _demo_service()
        try:
            circuit = service.compiled.circuit
        finally:
            service.close()
        schedule = LevelSchedule.build(circuit)
        assert len(schedule.levels) == circuit.depth() + 1
        _assert_same_schedule(schedule, _reference_schedule(circuit), circuit)
        # the demo net's plane: 3 732 slots for 33 372 wires, 11.2 %
        assert (circuit.n_wires, schedule.n_slots) == (33372, 3732)
        assert schedule.n_slots + 1 <= 0.15 * (circuit.n_wires + 1)

    @pytest.mark.parametrize("fold", [1, 8])
    def test_mac_cell(self, fold):
        core = folded_mac_cell(FixedPointFormat(3, 12), 16, fold).core
        _assert_same_schedule(
            LevelSchedule.build(core), _reference_schedule(core), core
        )

    def test_compiled_dl(self, compiled_dl):
        circuit = compiled_dl[0].circuit
        _assert_same_schedule(
            LevelSchedule.build(circuit), _reference_schedule(circuit), circuit
        )

    @given(_netlists())
    @settings(max_examples=60, deadline=None)
    def test_generated_netlists(self, circuit):
        circuit.validate()
        _assert_same_schedule(
            LevelSchedule.build(circuit), _reference_schedule(circuit), circuit
        )

    def test_read_before_driven_rejected(self):
        for bad in (6, 99, -1):  # driven later, out of range either way
            gates = [
                Gate(GateType.AND, a=2, b=bad, out=5),
                Gate(GateType.AND, a=2, b=3, out=6),
            ]
            circuit = Circuit(n_alice=1, n_bob=1, gates=gates,
                              outputs=[5], n_wires=7)
            for build in (LevelSchedule.build, _reference_schedule):
                with pytest.raises(
                    CircuitError,
                    match=f"gate 0 reads wire {bad} before it is driven",
                ):
                    build(circuit)

    def test_out_of_range_output_rejected(self):
        circuit = Circuit(n_alice=1, n_bob=1,
                          gates=[Gate(GateType.XOR, a=2, b=3, out=4)],
                          outputs=[], n_wires=4)
        for build in (LevelSchedule.build, _reference_schedule):
            with pytest.raises(
                CircuitError, match="gate 0 drives out-of-range wire"
            ):
                build(circuit)

    def test_gate_without_and_reduction_rejected(self):
        class Majority:
            """A non-free operation the half-gates engine cannot reduce."""

            is_free = False
            arity = 2

        # a netlist's op column holds GateType codes only, so such a
        # gate is refused when the circuit is made, before any schedule
        with pytest.raises(CircuitError, match="gate 0 .* is not a GateType"):
            Circuit(n_alice=1, n_bob=1,
                    gates=[Gate(Majority(), a=2, b=3, out=4)],
                    outputs=[4], n_wires=5)

    def test_non_free_gate_missing_an_input_rejected(self):
        """The list-based build died on this with a ``TypeError``."""
        circuit = Circuit(n_alice=1, n_bob=1,
                          gates=[Gate(GateType.AND, a=2, b=None, out=4)],
                          outputs=[4], n_wires=5)
        with pytest.raises(CircuitError, match="gate 0 .* is missing input b"):
            LevelSchedule.build(circuit)


def _replay(circuit, schedule, reference, batch, min_width):
    """Replay ``schedule.step_plan(batch, min_width)`` symbolically: each
    slot holds the wire last written to it.  Each plan step is paired
    with its gates in the wire-space ``reference`` — a wide step by the
    index vectors it shares with the schedule, a scalar run's records
    with the schedule's narrow gates in order — and the replay checks
    that every read finds the wire the schedule says it reads, that no
    write lands on a live wire (one a later gate still reads, an output
    or a d-wire: no two live wires share a slot), that every gate runs
    exactly once, and that the outputs and d-wires are held at the end.
    A wide step reads all its slots before it writes any.  Returns the
    number of wide AND-layer steps."""
    scratch = circuit.n_wires
    by_out, narrow = {}, []
    for (step, *_, out), (_, a, b, wires) in zip(
        _schedule_steps(schedule), _schedule_steps(reference)
    ):
        gates = (a.tolist(), b.tolist(), wires.tolist())
        by_out[id(out)] = gates
        if batch * out.size < min_width:
            narrow.extend(zip(*gates))
    narrow = iter(narrow)
    holds = np.full(schedule.n_slots + 1, -1, dtype=np.intp)
    holds[: 2 + circuit.n_inputs] = np.arange(2 + circuit.n_inputs)
    holds[schedule.n_slots] = scratch  # the zero row unary gates read
    unread = np.zeros(circuit.n_wires + 1, dtype=np.intp)
    for gate in circuit.gates:
        unread[gate.a] += 1
        unread[scratch if gate.b is None else gate.b] += 1
    kept = {*circuit.outputs, *circuit.d_wires, scratch}
    ran = np.zeros(circuit.n_wires + 1, dtype=np.intp)

    def run(reads, read_wires, outs, out_wires):
        assert holds[reads].tolist() == read_wires
        np.subtract.at(unread, read_wires, 1)
        for slot, wire in zip(outs, out_wires):
            old = int(holds[slot])
            assert old < 0 or (unread[old] == 0 and old not in kept), old
            holds[slot] = wire
            ran[wire] += 1

    wide_layers = 0
    for step in schedule.step_plan(batch, min_width):
        if isinstance(step, ScalarRun):
            for a, b, out, *_ in step.gates:
                wa, wb, wout = next(narrow)
                run([a, b], [wa, wb], [out], [wout])
            continue
        if isinstance(step, FreeStep):
            ab, out = step.ab, step.out
        else:  # an AND layer
            wide_layers += 1
            ab, out = step.nf_ab, step.nf_out
        assert batch * out.size >= min_width  # a wide step is wide
        a, b, wires = by_out[id(out)]
        run(ab, a + b, out.tolist(), wires)
    assert next(narrow, None) is None
    gate_outs = [gate.out for gate in circuit.gates]
    assert (ran[gate_outs] == 1).all() and ran.sum() == len(gate_outs)
    assert (unread == 0).all()
    held = sorted({*circuit.outputs, *circuit.d_wires})
    assert sorted(schedule.held) == held
    assert [int(holds[schedule.held[w]]) for w in held] == held
    return wide_layers


class TestPlanProperties:
    """The AND-layer schedule as a model: on generated netlists
    (constants, unary gates, state wires) and on folded MAC cells, every
    plan replays soundly over its slots (:func:`_replay`), the level
    count is the AND-depth plus the free tail, and the engine equals the
    reference loops and ``simulate``."""

    @staticmethod
    def _check_plans(circuit):
        schedule = LevelSchedule.build(circuit)
        layers = _every_wire(circuit).depth()
        assert len(schedule.levels) == layers + 1
        assert len(schedule.levels) >= circuit.depth() + 1
        for level in schedule.levels:
            # a step's a / b are the halves of its [a | b] vector, as
            # views; a level's tweak words are [2 tidx | 2 tidx + 1]
            steps = [(free.ab, free.a, free.b) for free in level.free]
            steps.append((level.nf_ab, level.nf_a, level.nf_b))
            for ab, a, b in steps:
                # views at ab's own addresses (empty ones included)
                assert a.base is not None and b.base is not None
                assert a.ctypes.data == ab.ctypes.data
                assert b.ctypes.data == ab.ctypes.data + a.nbytes
                assert np.array_equal(np.concatenate((a, b)), ab)
            tidx = level.nf_tidx.astype(np.uint64)
            assert np.array_equal(
                level.tweaks, np.concatenate((2 * tidx, 2 * tidx + 1))
            )
            assert level.halves.ctypes.data == level.tweaks.ctypes.data
        reference = _reference_schedule(circuit)
        # every width VECTOR_MIN_WIDTH's sweep compares, and 1 (all wide)
        for batch, min_width in itertools.product((1, 2, 3, 8), (1, 2, 3, 4, 8)):
            assert _replay(
                circuit, schedule, reference, batch, min_width
            ) <= layers

    def test_demo_net_plan_at_the_default_width(self):
        """One demo-net request's plan at ``VECTOR_MIN_WIDTH``, pinned so
        that a new threshold re-pins it on purpose: wide AND layers (one
        oracle call each per role), wide free sub-steps, scalar runs,
        the gates they hold and how many of those are non-free.  A
        ``k = 4`` walk of four requests has no scalar run left."""
        from repro.cli import _demo_service

        service, _ = _demo_service()
        try:
            schedule = service.compiled.circuit.level_schedule()
        finally:
            service.close()

        def shape(batch):
            plan = schedule.step_plan(batch, fastgarble.VECTOR_MIN_WIDTH)
            runs = [step for step in plan if isinstance(step, ScalarRun)]
            gates = [gate for run in runs for gate in run.gates]
            return (
                sum(isinstance(step, ScheduleLevel) for step in plan),
                sum(isinstance(step, FreeStep) for step in plan),
                len(runs), len(gates), sum(gate[3] >= 0 for gate in gates),
            )

        assert fastgarble.VECTOR_MIN_WIDTH == 4
        assert shape(1) == (67, 271, 19, 140, 28)
        assert shape(4) == (89, 328, 0, 0, 0)

    @staticmethod
    def _check_engine(circuit, seed, batches=((1, 0), (3, 2**33 + 6), (8, 0))):
        """Engine against the reference loops and ``simulate`` on both
        oracles, for each ``(k, tweak_base)`` of ``batches``: every copy
        of one ``garble_many(k)`` against its reference garble, and each
        lane of one ``evaluate_many(k)`` against ``evaluate`` of its
        request, wire for wire; copy 0 is also evaluated from a
        read-only, unaligned tables blob."""
        draw = random.Random(seed)
        bits = [draw.getrandbits(1) for _ in range(circuit.n_inputs)]
        alice = bits[: circuit.n_alice]
        bob = bits[circuit.n_alice : circuit.n_alice + circuit.n_bob]
        state = bits[circuit.n_alice + circuit.n_bob :]
        expected = simulate(circuit, alice, bob, state)
        for kdf, (k, tweak_base) in itertools.product(
            (HashKDF(), FixedKeyAES()), batches
        ):
            evaluator = FastEvaluator(circuit, kdf=kdf)
            copies = garble_many(
                circuit, kdf=kdf, tweak_base=tweak_base,
                rngs=[random.Random(seed + i) for i in range(k)],
            )
            inputs = []
            for i, (garbler, garbled) in enumerate(copies):
                ref = _reference(circuit, seed + i, kdf=kdf).garble(
                    tweak_base=tweak_base
                )
                assert ref.tables_bytes() == garbled.tables_bytes()
                assert ref.const_labels == garbled.const_labels
                assert ref.decode_bits == garbled.decode_bits
                inputs.append(tuple(
                    garbler.input_labels_for(list(wires), values)
                    for wires, values in (
                        (circuit.alice_inputs, alice),
                        (circuit.bob_inputs, bob),
                        (circuit.state_inputs, state),
                    )
                ))
            singles = [
                evaluator.evaluate(garbled, a, b, state_labels=s)
                for (_, garbled), (a, b, s) in zip(copies, inputs)
            ]
            outputs = [evaluator.output_labels(plane) for plane in singles]
            for (garbler, _), labels in zip(copies, outputs):
                assert garbler.decode_outputs(labels) == expected
            alices, bobs, states = (list(column) for column in zip(*inputs))
            lanes = evaluator.evaluate_many(
                [garbled for _, garbled in copies], alices, bobs, states
            )
            for lane, single in zip(lanes, singles):
                assert np.array_equal(lane.plane, single.plane)
            # what receive_garbled hands the evaluator: a frombuffer view
            # of frame bytes, here one byte off any word boundary
            garbled = copies[0][1]
            blob = np.frombuffer(
                b"\0" + garbled.tables_bytes(), dtype=np.uint8, offset=1
            ).reshape(-1, 32)
            assert not blob.flags.writeable and blob.ctypes.data % 8
            view = GarbledCircuit(
                tables=blob, const_labels=garbled.const_labels,
                decode_bits=[], tweak_base=tweak_base,
            )
            a, b, s = inputs[0]
            assert evaluator.output_labels(
                evaluator.evaluate(view, a, b, state_labels=s)
            ) == outputs[0]

    @given(_netlists())
    @settings(max_examples=60, deadline=None)
    def test_generated_plans(self, circuit):
        """The plan model alone, so that a broken plan fails (and
        shrinks) in seconds, without an engine run per example."""
        circuit.validate()
        self._check_plans(circuit)

    @given(
        _netlists(),
        st.integers(0, 2**16),
        # up to one past a full walk: garble_many's last walk is short
        st.integers(1, fastgarble.COPIES_PER_WALK + 1),
        st.sampled_from([0, 2**33 + 6]),
    )
    @settings(max_examples=40, deadline=None)
    def test_generated_netlists(self, circuit, seed, batch, tweak_base):
        circuit.validate()
        self._check_engine(circuit, seed, batches=((1, 0), (batch, tweak_base)))

    @pytest.mark.parametrize("fold", [1, 8])
    def test_folded_mac_cell(self, fold):
        core = folded_mac_cell(FMT, 4, fold).core
        self._check_plans(core)
        self._check_engine(core, fold)

    @given(
        _netlists(
            bob_widths=st.one_of(
                st.integers(0, 3),
                st.integers(126, 130),
            ),
            state_widths=st.just(0),
        ),
        st.booleans(),
        st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_a_combinational_circuit_is_the_one_cycle_case(
        self, circuit, caller_state, seed
    ):
        """One cycle of a zero-register core and the combinational round
        put the same frames, in the same order and sizes, and the same
        tables on the link, and decode the same outputs — narrow and
        wide, on the caller's OT state or on the session's own."""
        draw = random.Random(seed)
        alice = [draw.getrandbits(1) for _ in range(circuit.n_alice)]
        bob = [draw.getrandbits(1) for _ in range(circuit.n_bob)]

        def observed(drive):
            """``(link logs, tables payloads, outputs)`` of one run
            under ``Random(seed)``."""
            logs, tables = [], []

            def factory():
                alice_end, bob_end, stats = make_channel_pair()

                def dispatch(frame, inner=alice_end._dispatch):
                    if frame.tag == "tables":
                        tables.append(frame.payload)
                    inner(frame)

                alice_end._dispatch = dispatch
                logs.append(stats.log)
                return alice_end, bob_end, stats

            rng = random.Random(seed)
            state = IKNPState(TEST_GROUP_512, rng) if caller_state else None
            options = dict(
                ot_group=TEST_GROUP_512, rng=rng, channel_factory=factory,
                ot_state=state,
            )
            return logs, tables, drive(options)

        combinational = observed(
            lambda options: TwoPartySession(circuit, **options).run(alice, bob).outputs
        )
        one_cycle = observed(
            lambda options: SequentialSession(
                SequentialCircuit(circuit, []), **options
            ).run([alice], [bob], cycles=1).final_outputs
        )
        assert one_cycle == combinational
        assert combinational[2] == simulate(circuit, alice, bob)


def _label_words(n, seed):
    """``n`` random ``(label, tweak)`` pairs as ``(n, 2)`` label words
    and ``(n,)`` tweak words, the ``hash_many`` input."""
    words = np.random.default_rng(seed).integers(0, 2**64, (n, 3), dtype="<u8")
    return words[:, :2].copy(), words[:, 2].copy()


def _as_int(words):
    """One ``(2,)`` ``<u8`` label word pair as the scalar path's int."""
    return int(words[0]) | int(words[1]) << 64


class TestHashMany:
    @pytest.mark.parametrize("kdf", [HashKDF(), FixedKeyAES()])
    def test_matches_scalar_hash(self, kdf):
        rows, tweaks = _label_words(33, seed=1)
        batched = kdf.hash_many(rows, tweaks)
        assert batched.shape == (33, 2) and batched.dtype == np.dtype("<u8")
        for i in range(33):
            expected = kdf.hash(_as_int(rows[i]), int(tweaks[i]))
            assert _as_int(batched[i]) == expected, f"row {i}"

    @pytest.mark.parametrize("kdf", [HashKDF(), FixedKeyAES()])
    def test_empty_batch(self, kdf):
        rows = np.empty((0, 2), dtype="<u8")
        tweaks = np.empty(0, dtype="<u8")
        assert kdf.hash_many(rows, tweaks).shape == (0, 2)

    def test_subclass_overriding_only_hash_stays_consistent(self):
        """hash_many must route through an overridden hash() oracle."""

        class XorKDF(HashKDF):
            def hash(self, label, tweak):
                return (label ^ tweak ^ 0xA5A5) & ((1 << 128) - 1)

        kdf = XorKDF()
        rows, tweaks = _label_words(5, seed=2)
        batched = kdf.hash_many(rows, tweaks)
        for i in range(5):
            assert _as_int(batched[i]) == kdf.hash(_as_int(rows[i]), int(tweaks[i]))

    def test_custom_kdf_garbles_consistently(self):
        """Hybrid engine with a hash()-only subclass: wide and narrow
        levels must use the same oracle (and match the reference)."""

        class ShiftKDF(HashKDF):
            def hash(self, label, tweak):
                data = (label ^ 3).to_bytes(16, "little") + \
                    tweak.to_bytes(8, "little")
                import hashlib
                return int.from_bytes(
                    hashlib.sha256(b"x" + data).digest()[:16], "little"
                )

        circuit = _random_circuit(21)
        kdf = ShiftKDF()
        g_scalar = _reference(circuit, 4, kdf=kdf).garble()
        g_fast = Garbler(circuit, kdf=kdf, rng=random.Random(4)).garble()
        assert g_scalar.tables_bytes() == g_fast.tables_bytes()


class TestArrayLabelStore:
    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_one_draw_rows_equal_per_wire_draws(self, n):
        """``getrandbits(128 n)`` is ``n`` successive 128-bit draws, least
        significant first: the equivalence the engine's one input-label
        draw, and cut-and-choose's seeded re-garbling, rely on."""
        rows = ArrayLabelStore(range(n + 2), rng=random.Random(n))
        wires = LabelStore(rng=random.Random(n))
        assert rows.delta == wires.delta
        rows.assign_fresh_rows(range(n))
        expected = [wires.assign_fresh(wire) for wire in range(n)]
        assert [rows.zero(wire) for wire in range(n)] == expected
        # and the stream goes on from the same place
        rows.assign_fresh_rows([n])
        assert rows.zero(n) == wires.assign_fresh(n)

    def test_same_lookups_as_scalar_store(self):
        scalar = LabelStore(rng=random.Random(9))
        fast = ArrayLabelStore(range(8), rng=random.Random(9))
        assert scalar.delta == fast.delta
        fast.assign_fresh_rows(range(6))
        for wire in range(6):
            scalar.assign_fresh(wire)
            assert scalar.zero(wire) == fast.zero(wire)
            assert scalar.select(wire, 1) == fast.select(wire, 1)

    def test_decode_and_errors(self):
        store = ArrayLabelStore([0, 1, 2, 5], rng=random.Random(2))
        store.assign_fresh_rows([2])
        label = store.zero(2)
        assert store.decode_bits([2, 2], [label, label ^ store.delta]) == [0, 1]
        with pytest.raises(GarblingError):
            store.decode_bits([2], [label ^ 1 ^ store.delta ^ store.delta << 1])
        with pytest.raises(GarblingError, match="no label here"):
            store.zero(3)  # not one of the store's wires
        with pytest.raises(GarblingError, match="no label here"):
            store.set_zero_rows([6], np.zeros((1, 16), dtype=np.uint8))  # out of range
        with pytest.raises(GarblingError, match="ascending"):
            ArrayLabelStore([0, 2, 1])

    def test_internal_wire_raises(self):
        """A garbled copy keeps its interface wires only: reading an
        internal wire raises, and the reference ``LabelStore`` (which
        keeps every wire) holds what the walk computed there."""
        circuit = _random_circuit(5)
        fast = Garbler(circuit, rng=random.Random(5))
        fast.garble()
        reference = _reference(circuit, 5)
        reference.garble()
        interface = set(circuit.interface_wires().tolist())
        internal = [w for w in range(circuit.n_wires) if w not in interface]
        assert internal
        for wire in internal:
            with pytest.raises(GarblingError, match="no label here"):
                fast.labels.zero(wire)
            reference.labels.zero(wire)  # the reference store keeps it
        with pytest.raises(GarblingError, match="no label here"):
            fast.labels.zero_rows(internal[:3])
        assert fast.labels.rows.shape == (len(interface), 16)


class TestBitExactness:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_identical_garbling_material(self, seed):
        circuit = _random_circuit(seed)
        scalar = _reference(circuit, 100 + seed)
        fast = Garbler(circuit, rng=random.Random(100 + seed))
        assert isinstance(fast.labels, ArrayLabelStore)
        g_scalar = scalar.garble()
        g_fast = fast.garble()
        assert g_scalar.tables_bytes() == g_fast.tables_bytes()
        assert g_scalar.const_labels == g_fast.const_labels
        assert g_scalar.decode_bits == g_fast.decode_bits
        assert scalar.labels.delta == fast.labels.delta
        for wire in circuit.interface_wires().tolist():
            assert scalar.labels.zero(wire) == fast.labels.zero(wire), f"wire {wire}"

    @given(st.integers(0, 2**16), st.integers(10, 150))
    @settings(max_examples=15, deadline=None)
    def test_property_random_netlists(self, seed, n_gates):
        """Reference and engine garblers agree on arbitrary netlists."""
        circuit = _random_circuit(seed, n_gates=n_gates)
        rng_bits = random.Random(seed ^ 0x5EED)
        alice = [rng_bits.randint(0, 1) for _ in range(circuit.n_alice)]
        bob = [rng_bits.randint(0, 1) for _ in range(circuit.n_bob)]

        scalar = _reference(circuit, seed)
        fast = Garbler(circuit, rng=random.Random(seed))
        g_scalar = scalar.garble()
        g_fast = fast.garble()
        assert g_scalar.tables_bytes() == g_fast.tables_bytes()
        assert g_scalar.decode_bits == g_fast.decode_bits

        alice_labels = scalar.input_labels_for(
            list(circuit.alice_inputs), alice
        )
        bob_labels = [
            scalar.labels.select(w, bit)
            for w, bit in zip(circuit.bob_inputs, bob)
        ]
        ref = Evaluator(circuit).evaluate(g_scalar, alice_labels, bob_labels)
        vec = FastEvaluator(circuit).evaluate(g_fast, alice_labels, bob_labels)
        ref_out = [ref[w] for w in circuit.outputs]
        vec_out = [vec[w] for w in circuit.outputs]
        assert ref_out == vec_out
        assert scalar.decode_outputs(vec_out) == simulate(circuit, alice, bob)

    def test_cross_engine_evaluation(self):
        """Engine-garbled tables evaluate on the scalar evaluator and back."""
        circuit = _random_circuit(7)
        fast = Garbler(circuit, rng=random.Random(7))
        garbled = fast.garble()
        alice = [1] * circuit.n_alice
        bob = [0, 1] * (circuit.n_bob // 2)
        alice_labels = fast.input_labels_for(list(circuit.alice_inputs), alice)
        bob_labels = [
            fast.labels.select(w, bit)
            for w, bit in zip(circuit.bob_inputs, bob)
        ]
        # scalar evaluator reads the fast garbler's plane gate by gate
        ref = Evaluator(circuit).evaluate(garbled, alice_labels, bob_labels)
        # fast evaluator consumes a reference-garbled circuit
        scalar = _reference(circuit, 7)
        vec = FastEvaluator(circuit).evaluate(
            scalar.garble(), alice_labels, bob_labels
        )
        assert [ref[w] for w in circuit.outputs] == \
            [vec[w] for w in circuit.outputs]
        assert fast.decode_outputs([ref[w] for w in circuit.outputs]) == \
            simulate(circuit, alice, bob)

    def test_fixed_key_aes_kdf_supported(self):
        circuit = _random_circuit(8, n_gates=40)
        kdf = FixedKeyAES()
        g_scalar = _reference(circuit, 1, kdf=kdf).garble()
        g_fast = Garbler(circuit, kdf=kdf, rng=random.Random(1)).garble()
        assert g_scalar.tables_bytes() == g_fast.tables_bytes()


def _inversion_circuit():
    """One gate of each type whose garbling offsets a label by delta —
    XNOR and NOT (free), NAND, OR, NOR, ANDN and ORN (AND reductions) —
    with a plain XOR beside them, so each step's masks mix 0 and ones."""
    gates = [
        Gate(GateType.XNOR, 2, 4, 6),
        Gate(GateType.NOT, 3, None, 7),
        Gate(GateType.XOR, 3, 5, 8),
        Gate(GateType.NAND, 2, 5, 9),
        Gate(GateType.OR, 3, 4, 10),
        Gate(GateType.NOR, 6, 7, 11),
        Gate(GateType.ANDN, 9, 10, 12),
        Gate(GateType.ORN, 11, 8, 13),
    ]
    return Circuit(n_alice=2, n_bob=2, gates=gates,
                   outputs=list(range(6, 14)), n_wires=14)


class TestInversionBranches:
    """Every delta-offset branch of the wide steps (the ``inv`` / ``ia`` /
    ``ib`` / ``io`` word masks) with every step forced wide, byte for
    byte against the reference loops."""

    @pytest.mark.parametrize("kdf", [HashKDF(), FixedKeyAES()],
                             ids=["hashlib", "fixed_key_aes"])
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("tweak_base", [0, 2**33 + 6])
    def test_every_step_wide(self, monkeypatch, kdf, k, tweak_base):
        monkeypatch.setattr(fastgarble, "VECTOR_MIN_WIDTH", 1)
        circuit = _inversion_circuit()
        plan = circuit.level_schedule().step_plan(k, 1)
        assert not any(isinstance(step, ScalarRun) for step in plan)
        copies = garble_many(
            circuit, kdf=kdf, tweak_base=tweak_base,
            rngs=[random.Random(i) for i in range(k)],
        )
        assignments = list(itertools.product((0, 1), repeat=4))
        inputs, labels = [], []
        for i, (garbler, garbled) in enumerate(copies):
            reference = _reference(circuit, i, kdf=kdf)
            ref = reference.garble(tweak_base=tweak_base)
            assert ref.tables_bytes() == garbled.tables_bytes()
            assert ref.const_labels == garbled.const_labels
            assert ref.decode_bits == garbled.decode_bits
            assert [garbler.labels.zero(w) for w in range(14)] == \
                [reference.labels.zero(w) for w in range(14)]
            bits = assignments[(5 * i + 3) % 16]
            inputs.append((bits[:2], bits[2:]))
            labels.append((
                garbler.input_labels_for(circuit.alice_inputs, bits[:2]),
                garbler.input_labels_for(circuit.bob_inputs, bits[2:]),
            ))
        evaluator = FastEvaluator(circuit, kdf=kdf)
        every = FastEvaluator(_every_wire(circuit), kdf=kdf)

        def walk(evaluator):
            if k == 1:
                return [evaluator.evaluate(copies[0][1], *labels[0])]
            return evaluator.evaluate_many(
                [garbled for _, garbled in copies],
                [a for a, _ in labels], [b for _, b in labels],
            )

        for (garbler, garbled), (a, b), (alice, bob), plane, full in zip(
            copies, labels, inputs, walk(evaluator), walk(every)
        ):
            reference = Evaluator(circuit, kdf=kdf).evaluate(garbled, a, b)
            assert _as_dict(full) == reference
            assert _as_dict(plane) == {w: reference[w] for w in circuit.outputs}
            assert garbler.decode_outputs(evaluator.output_labels(plane)) == \
                simulate(circuit, list(alice), list(bob))


class TestGarbleMany:
    def test_copies_are_independent_and_correct(self):
        circuit = _random_circuit(11)
        pairs = garble_many(circuit, 4, rng=random.Random(3))
        assert len(pairs) == 4
        blobs = {g.tables_bytes() for _, g in pairs}
        assert len(blobs) == 4  # independent deltas/labels per copy
        alice = [0] * circuit.n_alice
        bob = [1] * circuit.n_bob
        for garbler, garbled in pairs:
            labels = FastEvaluator(circuit).evaluate(
                garbled,
                garbler.input_labels_for(list(circuit.alice_inputs), alice),
                [garbler.labels.select(w, b)
                 for w, b in zip(circuit.bob_inputs, bob)],
            )
            outs = [labels[w] for w in circuit.outputs]
            assert garbler.decode_outputs(outs) == simulate(circuit, alice, bob)

    def test_seeded_rngs_match_reference_regarble(self):
        """Cut-and-choose determinism: batch copies == reference re-garble."""
        circuit = _random_circuit(12)
        seeds = [101, 202, 303]
        pairs = garble_many(
            circuit, rngs=[random.Random(s) for s in seeds]
        )
        for seed, (garbler, garbled) in zip(seeds, pairs):
            reference = _reference(circuit, seed)
            ref = reference.garble()
            assert ref.tables_bytes() == garbled.tables_bytes()
            assert ref.const_labels == garbled.const_labels
            assert ref.decode_bits == garbled.decode_bits
            assert reference.labels.delta == garbler.labels.delta

    def test_bounded_walks_match_reference_garbles(self):
        """Twice the walk bound plus three copies — two full walks and a
        short one on the same scratch plane — each byte-identical to its
        own reference garble: tables, constant labels, decode bits and
        interface rows."""
        circuit = _random_circuit(15)
        count = 2 * fastgarble.COPIES_PER_WALK + 3
        pairs = garble_many(
            circuit, rngs=[random.Random(400 + i) for i in range(count)]
        )
        assert len(pairs) == count
        wires = circuit.interface_wires().tolist()
        for i, (garbler, garbled) in enumerate(pairs):
            reference = _reference(circuit, 400 + i)
            ref = reference.garble()
            assert ref.tables_bytes() == garbled.tables_bytes()
            assert ref.const_labels == garbled.const_labels
            assert ref.decode_bits == garbled.decode_bits
            assert garbler.labels.zero_rows(wires).tobytes() == b"".join(
                reference.labels.zero(w).to_bytes(16, "little") for w in wires
            )
        # every copy owns its tables: none is a view of a walk's stack
        planes = [garbled.tables for _, garbled in pairs]
        assert not any(map(np.shares_memory, planes, planes[1:]))

    def test_walks_bounded_by_plane_bytes(self, monkeypatch):
        """With the plane budget at three demo-net planes, ``garble_many(8)``
        walks 3 + 3 + 2 copies and stays byte-identical to the reference
        garbles."""
        model = Sequential(
            [Dense(6), Tanh(), Dense(3)], input_shape=(10,), seed=1
        )
        fmt = FixedPointFormat(2, 6)
        circuit = compile_model(
            QuantizedModel(model, fmt, activation_variant="exact"),
            CompileOptions(activation="exact"),
        ).circuit
        plane = (circuit.level_schedule().n_slots + 1) * 16
        assert fastgarble.WALK_PLANE_BYTES // plane >= fastgarble.COPIES_PER_WALK
        monkeypatch.setattr(fastgarble, "WALK_PLANE_BYTES", 3 * plane + 1)
        walks = []
        walk = fastgarble._garble_walk

        def recording(schedule, kdf, stores, *args):
            walks.append(len(stores))
            return walk(schedule, kdf, stores, *args)

        monkeypatch.setattr(fastgarble, "_garble_walk", recording)
        pairs = garble_many(
            circuit, rngs=[random.Random(700 + i) for i in range(8)]
        )
        assert walks == [3, 3, 2]
        wires = circuit.interface_wires().tolist()
        for i, (garbler, garbled) in enumerate(pairs):
            reference = _reference(circuit, 700 + i)
            ref = reference.garble()
            assert ref.tables_bytes() == garbled.tables_bytes()
            assert ref.const_labels == garbled.const_labels
            assert ref.decode_bits == garbled.decode_bits
            assert garbler.labels.zero_rows(wires).tobytes() == b"".join(
                reference.labels.zero(w).to_bytes(16, "little") for w in wires
            )

    def test_verify_opened_copy_against_reference(self):
        """Opened engine copies verify by digest; so does a copy the
        reference oracle garbles from the seed's SHAKE stream, and a
        digest of tables that differ in one bit does not."""
        circuit = _random_circuit(13)
        cnc = CutAndChooseGarbler(circuit, copies=3, rng=random.Random(5))
        commitments = cnc.commitments()
        openings = cnc.open([0, 2])
        assert verify_opened_copy(
            circuit, openings, [commitments[0], commitments[2]],
        )
        for opened in openings:
            claimed = _reference(circuit, opened.seed, stream=XofStream).garble()
            assert np.array_equal(claimed.tables, cnc.garbled[opened.index].tables)
            assert claimed.digest() == commitments[opened.index]
        seed = 0xC0FFEE
        opened = [OpenedCopy(index=0, seed=seed)]
        claimed = _reference(circuit, seed, stream=XofStream).garble()
        assert verify_opened_copy(circuit, opened, [claimed.digest()])
        tampered = dataclasses.replace(claimed, tables=claimed.tables.copy())
        tampered.tables[0, 0] ^= 1
        assert not verify_opened_copy(circuit, opened, [tampered.digest()])

    def test_count_validation(self):
        circuit = _random_circuit(14)
        assert garble_many(circuit, 0) == []
        with pytest.raises(GarblingError):
            garble_many(circuit)


class TestSessionAndBackends:
    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_session_matches_reference_oracle(
        self, compiled_dl, recording_channels, seed
    ):
        """What the session puts on the wire is what the gate-at-a-time
        oracle garbles from the same seed, and it decodes to simulate."""
        compiled, quantized, x = compiled_dl
        circuit = compiled.circuit
        bits_a = compiled.client_bits(x[0])
        bits_b = compiled.server_bits()
        factory, frames = recording_channels
        session = TwoPartySession(
            circuit, ot_group=TEST_GROUP_512, rng=random.Random(seed),
            channel_factory=factory,
        )
        unit = session.pregarble_many(1, bits_b)[0]
        result = session.run(bits_a, bits_b, pregarbled=unit)
        alice, bob = unit

        reference = _reference(circuit, seed)
        ref = reference.garble()
        # the tables and constants crossed on pregarble_many's link
        sent = {tag: payload for tag, payload in frames}
        assert sent["tables"] == ref.tables_bytes() == bob.view.tables_bytes()
        # label frames carry a 4-byte count, then 16 bytes per label
        assert sent["const_labels"][4:] == b"".join(
            label.to_bytes(16, "little") for label in ref.const_labels
        )
        assert alice.garbler.labels.output_decode_map(circuit.outputs) == ref.decode_bits
        assert alice.garbler.labels.delta == reference.labels.delta
        assert result.outputs == simulate(circuit, bits_a, bits_b)
        n_non_xor = circuit.counts().non_xor
        assert "tables" not in result.comm
        # so did the OT for Bob's bits: every frame so far is offline
        assert bob.offline_bytes == sum(
            len(payload) + 4 for tag, payload in frames
            if tag in ("ot", "tables", "const_labels")
        )
        assert len(sent["tables"]) == 32 * n_non_xor

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_cross_evaluation_on_dl_netlist(self, compiled_dl, seed):
        """Reference-garbled -> FastEvaluator and engine-garbled ->
        Evaluator both decode to simulate, with equal output labels."""
        compiled, quantized, x = compiled_dl
        circuit = compiled.circuit
        bits_a = compiled.client_bits(x[2])
        bits_b = compiled.server_bits()
        reference = _reference(circuit, seed)
        engine = Garbler(circuit, rng=random.Random(seed))
        g_ref, g_eng = reference.garble(), engine.garble()
        alice = engine.input_labels_for(list(circuit.alice_inputs), bits_a)
        bob = engine.input_labels_for(list(circuit.bob_inputs), bits_b)
        fast = FastEvaluator(circuit).evaluate(g_ref, alice, bob)
        slow = Evaluator(circuit).evaluate(g_eng, alice, bob)
        fast_out = [fast[w] for w in circuit.outputs]
        assert fast_out == [slow[w] for w in circuit.outputs]
        expected = simulate(circuit, bits_a, bits_b)
        assert engine.decode_outputs(fast_out) == expected
        assert reference.decode_outputs(fast_out) == expected

    def test_pregarble_many_units_serve_requests(self, compiled_dl):
        compiled, quantized, x = compiled_dl
        session = TwoPartySession(
            compiled.circuit, ot_group=TEST_GROUP_512, rng=random.Random(22)
        )
        bits_b = compiled.server_bits()
        units = session.pregarble_many(3, bits_b)
        assert len(units) == 3
        for i, unit in enumerate(units):
            result = session.run(
                compiled.client_bits(x[i]), bits_b, pregarbled=unit
            )
            assert compiled.decode_output(result.outputs) == int(
                quantized.predict(x[i][None])[0]
            )

    @pytest.mark.parametrize(
        "name", ["two_party", "outsourced", "cut_and_choose", "simulate"],
    )
    def test_label_parity_all_backends(self, compiled_dl, name):
        """All four backends agree with cleartext."""
        compiled, quantized, x = compiled_dl
        backend = get_backend(
            name, ot_group=TEST_GROUP_512, rng=random.Random(30),
        )
        result = backend.run(
            compiled.circuit, compiled.client_bits(x[1]),
            compiled.server_bits(),
        )
        assert compiled.decode_output(result.outputs) == int(
            quantized.predict(x[1][None])[0]
        )

    def test_registry_complete(self):
        assert set(
            ["two_party", "outsourced", "cut_and_choose", "simulate"]
        ) <= set(available_backends())
