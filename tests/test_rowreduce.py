"""Tests for the classic / GRR3 garbling schemes (Sec. 2.3 ladder)."""

import itertools
import random

import pytest

from repro.circuits import CircuitBuilder, simulate
from repro.errors import GarblingError
from repro.gc import Garbler, evaluate_rows, garble_rows


def all_gates_circuit():
    bld = CircuitBuilder(fold_constants=False, use_structural_hashing=False)
    a = bld.add_alice_inputs(2)
    b = bld.add_bob_inputs(2)
    outs = [
        bld.emit_and(a[0], b[0]),
        bld.emit_or(a[0], b[1]),
        bld.emit_nand(a[1], b[0]),
        bld.emit_xor(a[0], b[0]),
        bld.emit_nor(a[1], b[1]),
        bld.emit_andn(a[0], b[1]),
        bld.emit_not(bld.emit_xor(a[1], b[1])),
        bld.emit_not(a[0]),
        bld.emit_mux(a[1], b[0], b[1]),
    ]
    bld.mark_output_bus(outs)
    return bld.build()


class TestRowSchemes:
    @pytest.mark.parametrize("scheme", ["classic", "grr3"])
    def test_exhaustive_correctness(self, scheme):
        circuit = all_gates_circuit()
        for abits in itertools.product((0, 1), repeat=2):
            for bbits in itertools.product((0, 1), repeat=2):
                store, garbled = garble_rows(
                    circuit, scheme=scheme, rng=random.Random(1)
                )
                alice = [store.select(w, v)
                         for w, v in zip(circuit.alice_inputs, abits)]
                bob = [store.select(w, v)
                       for w, v in zip(circuit.bob_inputs, bbits)]
                labels = evaluate_rows(circuit, garbled, alice, bob)
                got = store.decode_bits(circuit.outputs, labels)
                assert got == simulate(circuit, list(abits), list(bbits))

    def test_bytes_per_gate_ladder(self):
        """classic 64 B > GRR3 48 B > half-gates 32 B per non-XOR gate."""
        circuit = all_gates_circuit()
        non_xor = circuit.counts().non_xor
        _, classic = garble_rows(circuit, "classic", rng=random.Random(2))
        _, grr3 = garble_rows(circuit, "grr3", rng=random.Random(2))
        half = Garbler(circuit, rng=random.Random(2)).garble()
        assert classic.size_bytes == 64 * non_xor
        assert grr3.size_bytes == 48 * non_xor
        assert half.size_bytes == 32 * non_xor

    def test_row_reduction_saves_25_percent(self):
        circuit = all_gates_circuit()
        _, classic = garble_rows(circuit, "classic", rng=random.Random(3))
        _, grr3 = garble_rows(circuit, "grr3", rng=random.Random(3))
        # paper Sec. 2.3: "almost 25% reduction in communication"
        assert grr3.size_bytes / classic.size_bytes == pytest.approx(0.75)

    def test_free_xor_unaffected(self):
        bld = CircuitBuilder()
        a = bld.add_alice_inputs(4)
        x = a[0]
        for w in a[1:]:
            x = bld.emit_xor(x, w)
        bld.mark_output(x)
        circuit = bld.build()
        for scheme in ("classic", "grr3"):
            _, garbled = garble_rows(circuit, scheme, rng=random.Random(4))
            assert garbled.size_bytes == 0

    def test_unknown_scheme_rejected(self):
        with pytest.raises(GarblingError):
            garble_rows(all_gates_circuit(), scheme="grr2")
