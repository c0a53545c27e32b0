"""Interchange tests: Bristol-Fashion roundtrip, Verilog export, and
``repro.circuits`` as the bottom layer."""

import ast
import pathlib
import random

import pytest

import repro.circuits
from repro.circuits import (
    CircuitBuilder,
    bits_from_int,
    dumps_bristol,
    dumps_verilog,
    int_from_bits,
    loads_bristol,
    simulate,
)
from repro.circuits.arith import ripple_add
from repro.circuits.bristol import lower_to_gc_basis
from repro.circuits.gates import GateType
from repro.errors import CircuitError


def adder_circuit(width=8):
    bld = CircuitBuilder()
    a = bld.add_alice_inputs(width)
    b = bld.add_bob_inputs(width)
    bld.mark_output_bus(ripple_add(bld, a, b))
    return bld.build()


def random_circuit(seed, n_gates=80):
    rng = random.Random(seed)
    bld = CircuitBuilder()
    a = bld.add_alice_inputs(4)
    b = bld.add_bob_inputs(4)
    wires = list(a) + list(b) + [bld.zero, bld.one]
    for _ in range(n_gates):
        op = rng.choice(["xor", "and", "or", "nand", "andn", "not", "xnor"])
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


class TestBristolRoundtrip:
    @pytest.mark.parametrize("seed", range(4))
    def test_roundtrip_preserves_semantics(self, seed):
        circuit = random_circuit(seed)
        recovered = loads_bristol(dumps_bristol(circuit))
        rng = random.Random(seed + 99)
        for _ in range(30):
            a = [rng.randrange(2) for _ in range(4)]
            b = [rng.randrange(2) for _ in range(4)]
            assert simulate(circuit, a, b) == simulate(recovered, a, b)

    def test_adder_roundtrip(self):
        circuit = adder_circuit()
        recovered = loads_bristol(dumps_bristol(circuit))
        out = simulate(recovered, bits_from_int(100, 8), bits_from_int(55, 8))
        assert int_from_bits(out) == 155

    def test_header_wellformed(self):
        text = dumps_bristol(adder_circuit())
        lines = text.splitlines()
        n_gates, n_wires = (int(v) for v in lines[0].split())
        assert lines[1] == "2 8 8"
        assert lines[2] == "1 8"
        assert lines[3] == ""
        assert len([l for l in lines[4:] if l.strip()]) == n_gates

    def test_outputs_are_final_wires(self):
        text = dumps_bristol(adder_circuit())
        lines = [l for l in text.splitlines() if l.strip()]
        n_gates, n_wires = (int(v) for v in lines[0].split())
        gate_lines = lines[3:]
        # the last 8 gates must drive the last 8 wires (EQW relocations)
        for i, line in enumerate(gate_lines[-8:]):
            parts = line.split()
            assert parts[-1] == "EQW"
            assert int(parts[-2]) == n_wires - 8 + i

    def test_gate_basis_restricted(self):
        text = dumps_bristol(random_circuit(7))
        ops = {l.split()[-1] for l in text.splitlines()[4:] if l.strip()}
        assert ops <= {"XOR", "AND", "INV", "EQW", "EQ"}

    def test_non_xor_preserved(self):
        circuit = random_circuit(3)
        text = dumps_bristol(circuit)
        and_count = sum(
            1 for l in text.splitlines()[4:] if l.strip().endswith("AND")
        )
        assert and_count <= circuit.counts().non_xor

    def test_sequential_rejected(self):
        from repro.circuits.sequential import SequentialBuilder

        bld = SequentialBuilder()
        x = bld.add_alice_inputs(2)
        regs = bld.add_registers(2)
        bld.bind_registers(regs, x)
        bld.mark_output_bus(regs)
        with pytest.raises(CircuitError):
            dumps_bristol(bld.build())


class TestGCBasisLowering:
    def test_lowering_basis(self):
        # every operator of the builder, none of them folded or hashed away
        rng = random.Random(7)
        bld = CircuitBuilder(use_structural_hashing=False, fold_constants=False)
        a = bld.add_alice_inputs(5)
        b = bld.add_bob_inputs(5)
        wires = list(a) + list(b) + [bld.zero, bld.one]
        for op in 10 * ["xor", "and", "or", "nand", "nor", "andn"]:
            wires.append(getattr(bld, f"emit_{op}")(rng.choice(wires), rng.choice(wires)))
        wires.append(bld.emit_not(wires[-1]))
        for w in wires[-6:]:
            bld.mark_output(w)
        circuit = bld.build()
        lowered = lower_to_gc_basis(circuit)
        assert {op for op, *_ in lowered.gates} <= {GateType.XOR, GateType.NOT, GateType.AND}
        # the non-XOR count never grows under the lowering
        assert lowered.counts().non_xor <= circuit.counts().non_xor
        for _ in range(40):
            x = [rng.randrange(2) for _ in range(5)]
            y = [rng.randrange(2) for _ in range(5)]
            assert simulate(lowered, x, y) == simulate(circuit, x, y)


class TestBristolParser:
    def test_truncated_rejected(self):
        with pytest.raises(CircuitError):
            loads_bristol("1 2")

    def test_gate_count_mismatch_rejected(self):
        with pytest.raises(CircuitError):
            loads_bristol("2 5\n2 1 1\n1 1\n\n2 1 0 1 4 AND\n")

    def test_unknown_gate_rejected(self):
        with pytest.raises(CircuitError):
            loads_bristol("1 3\n2 1 1\n1 1\n\n2 1 0 1 2 MAJ3\n")

    def test_standard_external_circuit(self):
        """A hand-written external Bristol circuit (full adder) loads and
        evaluates correctly — interop direction."""
        text = (
            "4 7\n"
            "2 2 1\n"
            "1 2\n"
            "\n"
            "2 1 0 1 3 XOR\n"
            "2 1 3 2 5 XOR\n"  # sum
            "2 1 0 1 4 AND\n"
            "2 1 4 4 6 EQW\n"  # carry (copy to the final wire block)
        )
        circuit = loads_bristol(text)
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    out = simulate(circuit, [a, b], [c])
                    assert out[0] == a ^ b ^ c
                    assert out[1] == a & b  # carry of the two Alice bits


class TestVerilogExport:
    def test_module_structure(self):
        text = dumps_verilog(adder_circuit(), module_name="adder8")
        assert text.startswith("// generated by repro")
        assert "module adder8(a, b, y);" in text
        assert "input  [7:0] a;" in text
        assert "output [7:0] y;" in text
        assert text.rstrip().endswith("endmodule")

    def test_every_gate_becomes_assign(self):
        circuit = adder_circuit(4)
        text = dumps_verilog(circuit)
        assigns = [l for l in text.splitlines() if "assign w" in l]
        assert len(assigns) == len(circuit.gates)

    def test_constants_rendered(self):
        bld = CircuitBuilder(fold_constants=False)
        a = bld.add_alice_inputs(1)
        bld.mark_output(bld.emit_and(a[0], bld.one))
        text = dumps_verilog(bld.build())
        assert "1'b1" in text

    def test_state_ports(self):
        from repro.circuits.sequential import SequentialBuilder

        bld = SequentialBuilder()
        x = bld.add_alice_inputs(2)
        regs = bld.add_registers(2)
        bld.bind_registers(regs, x)
        bld.mark_output_bus(regs)
        text = dumps_verilog(bld.build())
        assert "input  [1:0] q;" in text


CIRCUITS = pathlib.Path(repro.circuits.__file__).resolve().parent


def _imported_modules(path, package):
    """``(line, module)`` for every import in a module, deferred ones too,
    with relative imports resolved against ``package``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                parts = package.split(".")
                module = ".".join(parts[: len(parts) - node.level + 1] + [module]).rstrip(".")
            if node.module is None:  # ``from .. import name``: name is a module
                for alias in node.names:
                    yield node.lineno, f"{module}.{alias.name}"
            else:
                yield node.lineno, module


def test_circuits_is_a_leaf_layer():
    """Every layer above builds on ``repro.circuits``; it imports nothing
    of ``repro`` but itself and ``repro.errors``."""
    upward = []
    for path in sorted(CIRCUITS.rglob("*.py")):
        relative = path.relative_to(CIRCUITS.parent.parent)
        package = ".".join(relative.parent.parts)
        for line, module in _imported_modules(path, package):
            parts = module.split(".")
            if parts[0] != "repro" or parts[1:2] in (["errors"], ["circuits"]):
                continue
            upward.append(f"{relative}:{line} imports {module}")
    assert upward == []
