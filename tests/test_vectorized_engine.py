"""Level-scheduled garbling engine vs the gate-at-a-time reference oracle.

The contract under test: given the same rng stream, the engine
(`Garbler` / `FastEvaluator`) and the reference loops (`Garbler` over a
scalar `LabelStore` / `Evaluator`) produce byte-identical tables, labels
and decode bits, on random netlists and on the compiled Table 3-style DL
circuits — and every registered backend keeps label parity with
cleartext.
"""

import dataclasses
import random

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
    _tweak_rows,
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
    garble_many,
)
from repro.gc.channel import make_channel_pair
from repro.gc.cipher import FixedKeyAES, HashKDF
from repro.gc.cutandchoose import (
    CutAndChooseGarbler,
    OpenedCopy,
    _commit,
    verify_opened_copy,
)
from repro.gc.ot import TEST_GROUP_512
from repro.gc.ot_extension import IKNPState
from repro.gc.protocol import OT_EXTENSION_THRESHOLD, TwoPartySession
from repro.nn import Dense, QuantizedModel, Sequential, Tanh, TrainConfig, Trainer

FMT = FixedPointFormat(2, 6)


def _reference(circuit, seed, kdf=None):
    """The gate-at-a-time oracle, drawing labels from ``Random(seed)``."""
    return Garbler(
        circuit, kdf=kdf, label_store=LabelStore(rng=random.Random(seed))
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
        circuit = _random_circuit(3)
        schedule = circuit.level_schedule()
        seen = []
        for level in schedule.levels:
            for free in level.free:
                seen.extend(int(w) for w in free.out)
            seen.extend(int(w) for w in level.nf_out)
        assert sorted(seen) == sorted(g.out for g in circuit.gates)
        counts = circuit.counts()
        assert schedule.n_non_free == counts.non_xor
        assert schedule.scratch_wire == circuit.n_wires

    def test_levels_respect_dependencies(self):
        """Steps in schedule order — each level's free sub-steps, then
        its AND layer — read only wires of strictly earlier steps."""
        circuit = _random_circuit(4)
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
                assert int(w) <= circuit.n_wires
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
        circuit = _random_circuit(6)
        schedule = circuit.level_schedule()
        order = {}
        tidx = 0
        for gate in circuit.gates:
            if not gate.op.is_free:
                order[gate.out] = tidx
                tidx += 1
        for level in schedule.levels:
            for out, t in zip(level.nf_out, level.nf_tidx):
                assert order[int(out)] == int(t)


def _reference_schedule(circuit):
    """``LevelSchedule.build`` the slow, obvious way: every gate gets an
    ``(AND phase, free sub-step)`` pair, the non-free gates are grouped
    per AND layer and the free ones per pair in Python lists, converted
    at the end.  Kept as the reference the column build must equal
    field by field."""
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

    depth = max((place[g.out][0] for g in circuit.gates), default=0)
    levels = []
    for phase in range(depth + 1):
        free = []
        for key in sorted(k for k in sub_steps if k[0] == phase):
            gates = sub_steps[key]
            inv = [int(g.op in (GateType.XNOR, GateType.NOT)) for g in gates]
            free.append(FreeStep(
                a=column([g.a for g in gates]),
                b=column([scratch if g.b is None else g.b for g in gates]),
                out=column([g.out for g in gates]),
                inv=column(inv, np.uint8),
                has_inv=any(inv),
            ))
        layer = layers.get(phase + 1, [])
        flags = [AND_REDUCTION[gate.op] for gate, _ in layer]
        tidx = column([t for _, t in layer], np.int64)
        levels.append(ScheduleLevel(
            free=tuple(free),
            nf_a=column([gate.a for gate, _ in layer]),
            nf_b=column([gate.b for gate, _ in layer]),
            nf_out=column([gate.out for gate, _ in layer]),
            nf_tidx=tidx,
            nf_ia=column([f.ia for f in flags], np.uint8),
            nf_ib=column([f.ib for f in flags], np.uint8),
            nf_io=column([f.out for f in flags], np.uint8),
            nf_has_ia=any(f.ia for f in flags),
            nf_has_ib=any(f.ib for f in flags),
            nf_has_io=any(f.out for f in flags),
            tw0_a=_tweak_rows(2 * tidx),
            tw0_b=_tweak_rows(2 * tidx + 1),
        ))
    return LevelSchedule(
        levels=tuple(levels),
        n_non_free=table_index,
        n_wires=n_wires,
        scratch_wire=scratch,
        gate_outs=np.asarray([g.out for g in circuit.gates], dtype=np.intp),
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
            assert type(got) is bool and got == want, here


def _assert_same_schedule(built, reference):
    for name in ("n_non_free", "n_wires", "scratch_wire"):
        value = getattr(built, name)
        assert type(value) is int and value == getattr(reference, name), name
    assert built.gate_outs.dtype == reference.gate_outs.dtype
    assert np.array_equal(built.gate_outs, reference.gate_outs)
    assert len(built.levels) == len(reference.levels)
    for depth, (level, expected) in enumerate(
        zip(built.levels, reference.levels)
    ):
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
        _assert_same_schedule(schedule, _reference_schedule(circuit))

    @pytest.mark.parametrize("fold", [1, 8])
    def test_mac_cell(self, fold):
        core = folded_mac_cell(FixedPointFormat(3, 12), 16, fold).core
        _assert_same_schedule(
            LevelSchedule.build(core), _reference_schedule(core)
        )

    def test_compiled_dl(self, compiled_dl):
        circuit = compiled_dl[0].circuit
        _assert_same_schedule(
            LevelSchedule.build(circuit), _reference_schedule(circuit)
        )

    @given(_netlists())
    @settings(max_examples=60, deadline=None)
    def test_generated_netlists(self, circuit):
        circuit.validate()
        _assert_same_schedule(
            LevelSchedule.build(circuit), _reference_schedule(circuit)
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

        circuit = Circuit(n_alice=1, n_bob=1,
                          gates=[Gate(Majority(), a=2, b=3, out=4)],
                          outputs=[4], n_wires=5)
        for build in (LevelSchedule.build, _reference_schedule):
            with pytest.raises(CircuitError, match="has no AND reduction"):
                build(circuit)

    def test_non_free_gate_missing_an_input_rejected(self):
        """The list-based build died on this with a ``TypeError``."""
        circuit = Circuit(n_alice=1, n_bob=1,
                          gates=[Gate(GateType.AND, a=2, b=None, out=4)],
                          outputs=[4], n_wires=5)
        with pytest.raises(CircuitError, match="gate 0 .* is missing input b"):
            LevelSchedule.build(circuit)


def _replay(circuit, plan):
    """Run ``plan`` on a driven-wire bitmap: every read is of a driven
    wire and every gate drives its wire exactly once.  Returns the
    number of wide AND-layer steps."""
    driven = np.zeros(circuit.n_wires + 1, dtype=bool)
    driven[: 2 + circuit.n_inputs] = True
    driven[circuit.n_wires] = True  # the scratch row unary gates read
    times = np.zeros(circuit.n_wires + 1, dtype=np.int64)
    wide_layers = 0
    for step in plan:
        if isinstance(step, ScalarRun):
            for a, b, out, *_ in step.gates:
                assert driven[a] and driven[b]
                driven[out] = True
                times[out] += 1
            continue
        if isinstance(step, FreeStep):
            reads, outs = (step.a, step.b), step.out
        else:  # an AND layer
            wide_layers += 1
            reads, outs = (step.nf_a, step.nf_b), step.nf_out
        assert all(driven[wires].all() for wires in reads)
        driven[outs] = True
        np.add.at(times, outs, 1)
    gate_outs = [gate.out for gate in circuit.gates]
    assert (times[gate_outs] == 1).all() and times.sum() == len(gate_outs)
    return wide_layers


class TestPlanProperties:
    """The AND-layer schedule as a model: on generated netlists
    (constants, unary gates, state wires) and on folded MAC cells, every
    plan replays soundly, the level count is the AND-depth plus the free
    tail, and the engine equals the reference loops and ``simulate``."""

    @staticmethod
    def _check_plans(circuit):
        schedule = LevelSchedule.build(circuit)
        every_wire = Circuit(
            n_alice=circuit.n_alice, n_bob=circuit.n_bob, n_state=circuit.n_state,
            gates=circuit.gates, outputs=list(range(circuit.n_wires)),
            n_wires=circuit.n_wires,
        )
        layers = every_wire.depth()
        assert len(schedule.levels) == layers + 1
        assert len(schedule.levels) >= circuit.depth() + 1
        for batch in (1, 3, 64):
            assert _replay(circuit, schedule.step_plan(batch, 8)) <= layers

    @staticmethod
    def _check_engine(circuit, seed):
        kdf = HashKDF()
        draw = random.Random(seed)
        bits = [draw.getrandbits(1) for _ in range(circuit.n_inputs)]
        alice = bits[: circuit.n_alice]
        bob = bits[circuit.n_alice : circuit.n_alice + circuit.n_bob]
        state = bits[circuit.n_alice + circuit.n_bob :]
        expected = simulate(circuit, alice, bob, state)
        evaluator = FastEvaluator(circuit, kdf=kdf)
        for k in (1, 3):
            copies = garble_many(
                circuit, kdf=kdf, rngs=[random.Random(seed + i) for i in range(k)]
            )
            inputs = []
            for i, (garbler, garbled) in enumerate(copies):
                ref = _reference(circuit, seed + i, kdf=kdf).garble()
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
            outputs = [
                evaluator.output_labels(
                    evaluator.evaluate(garbled, a, b, state_labels=s)
                )
                for (_, garbled), (a, b, s) in zip(copies, inputs)
            ]
            for (garbler, _), labels in zip(copies, outputs):
                assert garbler.decode_outputs(labels) == expected
            if not circuit.n_state:
                planes = evaluator.evaluate_many(
                    [garbled for _, garbled in copies],
                    [a for a, _, _ in inputs], [b for _, b, _ in inputs],
                )
                assert [evaluator.output_labels(p) for p in planes] == outputs

    @given(_netlists(), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_generated_netlists(self, circuit, seed):
        circuit.validate()
        self._check_plans(circuit)
        self._check_engine(circuit, seed)

    @pytest.mark.parametrize("fold", [1, 8])
    def test_folded_mac_cell(self, fold):
        core = folded_mac_cell(FMT, 4, fold).core
        self._check_plans(core)
        self._check_engine(core, fold)

    @given(
        _netlists(
            bob_widths=st.one_of(
                st.integers(0, 3),
                st.integers(OT_EXTENSION_THRESHOLD - 2, OT_EXTENSION_THRESHOLD + 2),
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
        tables on the link, and decode the same outputs — below and
        above the extension threshold, with and without the caller's OT
        state."""
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


class TestHashMany:
    @pytest.mark.parametrize("kdf", [HashKDF(), FixedKeyAES()])
    def test_matches_scalar_hash(self, kdf):
        rng = random.Random(1)
        rows = np.frombuffer(
            bytes(rng.getrandbits(8) for _ in range(24 * 33)), dtype=np.uint8
        ).reshape(33, 24).copy()
        batched = kdf.hash_many(rows)
        for i in range(33):
            label = int.from_bytes(rows[i, :16].tobytes(), "little")
            tweak = int.from_bytes(rows[i, 16:].tobytes(), "little")
            expected = kdf.hash(label, tweak)
            got = int.from_bytes(np.ascontiguousarray(batched[i]).tobytes(),
                                 "little")
            assert got == expected, f"row {i}"

    def test_empty_batch(self):
        rows = np.empty((0, 24), dtype=np.uint8)
        assert HashKDF().hash_many(rows).shape == (0, 16)

    def test_subclass_overriding_only_hash_stays_consistent(self):
        """hash_many must route through an overridden hash() oracle."""

        class XorKDF(HashKDF):
            def hash(self, label, tweak):
                return (label ^ tweak ^ 0xA5A5) & ((1 << 128) - 1)

        kdf = XorKDF()
        rows = np.arange(24 * 5, dtype=np.uint8).reshape(5, 24).copy()
        batched = kdf.hash_many(rows)
        for i in range(5):
            label = int.from_bytes(rows[i, :16].tobytes(), "little")
            tweak = int.from_bytes(rows[i, 16:].tobytes(), "little")
            got = int.from_bytes(
                np.ascontiguousarray(batched[i]).tobytes(), "little"
            )
            assert got == kdf.hash(label, tweak)

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
        rows = ArrayLabelStore(n + 2, rng=random.Random(n))
        wires = ArrayLabelStore(n + 2, rng=random.Random(n))
        rows.assign_fresh_rows(range(n))
        expected = [wires.assign_fresh(wire) for wire in range(n)]
        assert [rows.zero(wire) for wire in range(n)] == expected
        # and the stream goes on from the same place
        assert rows.assign_fresh(n) == wires.assign_fresh(n)

    def test_same_stream_as_scalar_store(self):
        scalar = LabelStore(rng=random.Random(9))
        fast = ArrayLabelStore(8, rng=random.Random(9))
        assert scalar.delta == fast.delta
        for wire in range(6):
            assert scalar.assign_fresh(wire) == fast.assign_fresh(wire)
            assert scalar.zero(wire) == fast.zero(wire)
            assert scalar.one(wire) == fast.one(wire)
            assert scalar.select(wire, 1) == fast.select(wire, 1)

    def test_decode_and_errors(self):
        store = ArrayLabelStore(4, rng=random.Random(2))
        label = store.assign_fresh(2)
        assert store.decode_bit(2, label) == 0
        assert store.decode_bit(2, label ^ store.delta) == 1
        with pytest.raises(GarblingError):
            store.decode_bit(2, label ^ 1 ^ store.delta ^ store.delta << 1)
        with pytest.raises(GarblingError):
            store.zero(3)  # never assigned
        with pytest.raises(GarblingError):
            store.set_zero(4, 1)  # out of range


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
        for wire in range(circuit.n_wires):
            try:
                expected = scalar.labels.zero(wire)
            except GarblingError:
                continue
            assert expected == fast.labels.zero(wire), f"wire {wire}"

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
        # scalar evaluator consumes the fast garbler's LazyTables
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

    def test_verify_opened_copy_against_reference(self):
        """Opened engine copies verify; so does a reference-garbled copy,
        and a copy whose tables differ in one bit does not."""
        circuit = _random_circuit(13)
        cnc = CutAndChooseGarbler(circuit, copies=3, rng=random.Random(5))
        tables = cnc.tables()
        commitments = cnc.commitments()
        for opened in cnc.open([0, 2]):
            assert verify_opened_copy(
                circuit, opened, commitments[opened.index],
                tables[opened.index],
            )
            claimed = _reference(circuit, opened.seed).garble().tables_bytes()
            assert claimed == tables[opened.index]
        seed = 0xC0FFEE
        opened = OpenedCopy(index=0, seed=seed)
        claimed = _reference(circuit, seed).garble().tables_bytes()
        assert verify_opened_copy(circuit, opened, _commit(seed), claimed)
        tampered = bytes([claimed[0] ^ 1]) + claimed[1:]
        assert not verify_opened_copy(
            circuit, opened, _commit(seed), tampered
        )

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
        unit = session.pregarble()
        result = session.run(bits_a, bits_b, pregarbled=unit)

        reference = _reference(circuit, seed)
        ref = reference.garble()
        sent = {tag: payload for tag, payload in frames}
        assert sent["tables"] == ref.tables_bytes()
        # label frames carry a 4-byte count, then 16 bytes per label
        assert sent["const_labels"][4:] == b"".join(
            label.to_bytes(16, "little") for label in ref.const_labels
        )
        assert unit.garbled.decode_bits == ref.decode_bits
        assert unit.garbler.labels.delta == reference.labels.delta
        assert result.outputs == simulate(circuit, bits_a, bits_b)
        n_non_xor = circuit.counts().non_xor
        assert result.comm["tables"] == 32 * n_non_xor + 4

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
        units = session.pregarble_many(3)
        assert len(units) == 3
        bits_b = compiled.server_bits()
        for i, unit in enumerate(units):
            result = session.run(
                compiled.client_bits(x[i]), bits_b, pregarbled=unit
            )
            assert compiled.decode_output(result.outputs) == int(
                quantized.predict(x[i][None])[0]
            )

    @pytest.mark.parametrize(
        "name",
        ["two_party", "outsourced", "folded", "cut_and_choose", "simulate"],
    )
    def test_label_parity_all_backends(self, compiled_dl, name):
        """All five backends agree with cleartext."""
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
            ["two_party", "outsourced", "folded", "cut_and_choose", "simulate"]
        ) <= set(available_backends())
