"""Invariants of sequential garbling: tweak freshness, label carry-over,
and state privacy across cycles."""

import random

import pytest

from repro.circuits import bits_from_int, int_from_bits
from repro.circuits.arith import ripple_add
from repro.circuits.sequential import SequentialBuilder
from repro.errors import ProtocolError
from repro.gc import Garbler, LabelStore, SequentialSession, make_channel_pair
from repro.gc.ot import TEST_GROUP_512


def accumulator(width=6):
    bld = SequentialBuilder("acc")
    x = bld.add_alice_inputs(width)
    acc = bld.add_registers(width)
    total = ripple_add(bld, acc, x)
    bld.bind_registers(acc, total)
    bld.mark_output_bus(total)
    return bld.build_sequential()


class TestTweakFreshness:
    def test_manual_two_cycle_tweaks_disjoint(self, rng):
        """Garbling two cycles with advancing tweak bases never reuses an
        (H, tweak) pair — the oracle-freshness requirement."""
        seq = accumulator()
        core = seq.core
        store = LabelStore(rng=rng)
        garbler = Garbler(core, label_store=store, rng=rng)
        first = garbler.garble(tweak_base=0)
        tables_per_cycle = len(first.tables)
        d_wires = [reg.d_wire for reg in seq.registers]
        carried = garbler.state_zero_labels_out(d_wires)
        second = garbler.garble(
            state_zero_labels=carried, tweak_base=2 * tables_per_cycle
        )
        assert second.tweak_base == 2 * tables_per_cycle
        # with fresh tweaks and labels, ciphertexts across cycles differ
        assert first.tables_bytes() != second.tables_bytes()

    def test_session_outputs_stay_correct_over_many_cycles(self, rng):
        seq = accumulator()
        cycles = 7
        values = [random.Random(5).randrange(64) for _ in range(cycles)]
        result = SequentialSession(seq, ot_group=TEST_GROUP_512, rng=rng).run(
            [bits_from_int(v, 6) for v in values], [], cycles=cycles
        )
        total = 0
        for v, out in zip(values, result.outputs_per_cycle):
            total = (total + v) & 63
            assert int_from_bits(out) == total


class TestStateLabelCarry:
    def test_register_labels_flow_without_transfer(self, rng):
        """The comm log of a sequential run has no per-cycle state
        transfer: the labels of the public initial state cross once, in
        cycle 0; after that only tables, input labels and outputs move."""
        seq = accumulator()
        result, log = _logged_run(seq, [bits_from_int(9, 6)], [], cycles=3)
        assert set(result.comm) <= {
            "tables", "const_labels", "alice_labels", "state_labels", "ot",
            "output_labels",
        }
        # cycle 0: tables, const_labels, alice_labels, then the 6 registers
        assert [
            (index, direction, size)
            for index, (direction, tag, size) in enumerate(log)
            if tag == "state_labels"
        ] == [(3, "a2b", 6 * 16 + 4 + 4)]

    def test_initial_state_is_public_constant(self, rng):
        """Cycle-0 outputs reflect the declared register init value."""
        bld = SequentialBuilder("acc_init")
        x = bld.add_alice_inputs(6)
        acc = bld.add_registers(6, init=17)
        total = ripple_add(bld, acc, x)
        bld.bind_registers(acc, total)
        bld.mark_output_bus(total)
        seq = bld.build_sequential()
        result = SequentialSession(seq, ot_group=TEST_GROUP_512, rng=rng).run(
            [bits_from_int(1, 6)], [], cycles=1
        )
        assert int_from_bits(result.final_outputs) == 18


def _logging_session(seq):
    """``(session, links)``: every link the session opens leaves its
    ``ChannelStats`` (with the ``(direction, tag, size)`` log) in ``links``."""
    links = []

    def factory():
        alice, bob, stats = make_channel_pair()
        links.append(stats)
        return alice, bob, stats

    session = SequentialSession(
        seq, ot_group=TEST_GROUP_512, rng=random.Random(3),
        channel_factory=factory,
    )
    return session, links


def _logged_run(seq, alice_cycles, bob_cycles, **kwargs):
    """``(result, [(direction, tag, size), ...])`` of one session run."""
    session, links = _logging_session(seq)
    result = session.run(alice_cycles, bob_cycles, **kwargs)
    (stats,) = links
    return result, stats.log


class TestFinalOnly:
    """``final_only``: the garbler decodes the run's result and none of
    the intermediate values the core marks as outputs."""

    def test_only_the_last_cycle_is_sent_back_and_decoded(self):
        seq = accumulator()
        values = [5, 9, 20]
        alice = [bits_from_int(v, 6) for v in values]
        every, every_log = _logged_run(seq, alice, [], cycles=3)
        last, last_log = _logged_run(seq, alice, [], cycles=3, final_only=True)
        assert [int_from_bits(o) for o in every.outputs_per_cycle] == [5, 14, 34]
        # one entry per cycle, nothing revealed before the last
        assert last.outputs_per_cycle == [[], [], every.final_outputs]
        assert last.final_outputs == every.final_outputs
        tags = [(direction, tag) for direction, tag, _ in last_log]
        assert tags.count(("b2a", "output_labels")) == 1
        assert tags[-1] == ("b2a", "output_labels")
        # everything else crosses as before, in the same order
        merges = [f for f in every_log if f[1] == "output_labels"]
        assert len(merges) == 3 and len({size for _, _, size in merges}) == 1
        assert [f for f in every_log if f[1] != "output_labels"] == last_log[:-1]
        assert sum(every.comm.values()) - sum(last.comm.values()) == (
            (3 - 1) * merges[0][2]
        )

    def test_one_cycle_run_is_unaffected(self):
        seq = accumulator()
        alice = [bits_from_int(7, 6)]
        every, every_log = _logged_run(seq, alice, [], cycles=1)
        last, last_log = _logged_run(seq, alice, [], cycles=1, final_only=True)
        assert last.outputs_per_cycle == every.outputs_per_cycle
        assert last_log == every_log


class TestCycleInputsChecked:
    """A cycle's input widths are checked before anything is garbled."""

    def _mixed(self):
        bld = SequentialBuilder("mixed")
        x = bld.add_alice_inputs(4)
        w = bld.add_bob_inputs(4)
        acc = bld.add_registers(4)
        total = ripple_add(bld, acc, [bld.emit_and(a, b) for a, b in zip(x, w)])
        bld.bind_registers(acc, total)
        bld.mark_output_bus(total)
        return bld.build_sequential()

    def _refused(self, alice, bob, match, **kwargs):
        """The run raises ``ProtocolError`` and no frame was sent."""
        session, links = _logging_session(self._mixed())
        with pytest.raises(ProtocolError, match=match):
            session.run(alice, bob, **kwargs)
        assert all(not stats.log for stats in links)

    def test_alice_bits_wider_than_the_core(self):
        """Was: silently truncated by ``zip``, wrong accumulator."""
        good = [1, 0, 1, 0]
        self._refused([good, good + [1]], [good], "cycle 1", cycles=2)

    def test_alice_bits_narrower_than_the_core(self):
        """Was: ``GarblingError`` after the cycle's tables were sent."""
        good = [1, 0, 1, 0]
        self._refused([good, good, good[:3]], [good], "cycle 2", cycles=3)

    def test_bob_bits_of_the_wrong_width(self):
        good = [1, 0, 1, 0]
        self._refused([good], [good + [0]], "cycle 0", cycles=2)

    def test_zero_cycles(self):
        """Was: ``cycles or ...`` ran ``max(len(...))`` cycles instead."""
        good = [1, 0, 1, 0]
        self._refused([good, good], [good], "cycles must be >= 1", cycles=0)
