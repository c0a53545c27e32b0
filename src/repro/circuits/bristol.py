"""Bristol-Fashion netlist interchange.

"Bristol Fashion" is the de-facto standard exchange format for garbled-
circuit netlists (used by SCALE-MAMBA, emp-toolkit, MOTION, ...).
Exporting to it makes every netlist this package generates consumable by
other MPC frameworks, and importing lets their standard circuits (AES,
SHA, adders) run under this engine.

Format (new style)::

    <#gates> <#wires>
    <#inputs> <width_1> ... <width_n>
    <#outputs> <width_1> ... <width_m>
    <blank line>
    2 1 <a> <b> <out> AND
    2 1 <a> <b> <out> XOR
    1 1 <a> <out> INV
    1 1 <a> <out> EQW          (wire copy)
    1 1 <0|1> <out> EQ         (constant assignment)

Conventions: input wires come first (party 1 then party 2), output wires
are the *last* ``sum(output widths)`` wires.  Our circuits use dedicated
constant wires and arbitrary output positions, so the exporter lowers to
the {XOR, INV, AND} basis, materializes constants with ``EQ`` gates and
adds ``EQW`` copies to relocate outputs.
"""

from __future__ import annotations

from typing import Dict, List

from ..errors import CircuitError
from .builder import CircuitBuilder
from .gates import Gate, GateType
from .netlist import CONST_ONE, CONST_ZERO, Circuit

__all__ = ["dumps_bristol", "loads_bristol", "lower_to_gc_basis"]

_EXPORT_OPS = {
    GateType.XOR: "XOR",
    GateType.AND: "AND",
    GateType.NOT: "INV",
    GateType.BUF: "EQW",
}


def dumps_bristol(circuit: Circuit) -> str:
    """Serialize a circuit to Bristol-Fashion text.

    The circuit is lowered to the {XOR, INV, AND} basis first (cost-
    neutral under half-gates); state wires are not representable and are
    rejected.
    """
    if circuit.n_state:
        raise CircuitError("sequential cores cannot be exported to Bristol")
    lowered = lower_to_gc_basis(circuit)

    n_alice, n_bob = lowered.n_alice, lowered.n_bob
    n_out = len(lowered.outputs)
    # Bristol wire numbering: Alice inputs, Bob inputs, internals, outputs
    remap: Dict[int, int] = {}
    for i, wire in enumerate(lowered.alice_inputs):
        remap[wire] = i
    for i, wire in enumerate(lowered.bob_inputs):
        remap[wire] = n_alice + i
    next_wire = n_alice + n_bob

    lines: List[str] = []

    def fresh() -> int:
        nonlocal next_wire
        wire = next_wire
        next_wire += 1
        return wire

    # constants (only if actually referenced)
    used_wires = set()
    for gate in lowered.gates:
        used_wires.update(gate.inputs())
    used_wires.update(lowered.outputs)
    for const, value in ((CONST_ZERO, 0), (CONST_ONE, 1)):
        if const in used_wires:
            out = fresh()
            lines.append(f"1 1 {value} {out} EQ")
            remap[const] = out

    for gate in lowered.gates:
        op = _EXPORT_OPS.get(gate.op)
        if op is None:  # pragma: no cover - lowering guarantees the basis
            raise CircuitError(f"gate {gate.op} not exportable")
        out = fresh()
        remap[gate.out] = out
        if gate.b is None:
            lines.append(f"1 1 {remap[gate.a]} {out} {op}")
        else:
            lines.append(f"2 1 {remap[gate.a]} {remap[gate.b]} {out} {op}")

    # relocate outputs to the final wires with EQW copies
    output_lines = []
    for wire in lowered.outputs:
        out = fresh()
        output_lines.append(f"1 1 {remap[wire]} {out} EQW")
    lines.extend(output_lines)

    header = [
        f"{len(lines)} {next_wire}",
        f"2 {n_alice} {n_bob}",
        f"1 {n_out}",
        "",
    ]
    return "\n".join(header + lines) + "\n"


def lower_to_gc_basis(circuit: Circuit) -> Circuit:
    """Rewrite every gate of a combinational circuit into the {XOR, NOT,
    AND} basis.

    De Morgan rewrites; needs fresh wires for the intermediate NOTs, so
    the circuit is renumbered.  The non-XOR count never grows: each
    non-free gate maps to one AND, or to none where the builder folds it.
    """
    builder = CircuitBuilder(name=circuit.name)
    remap: Dict[int, int] = {CONST_ZERO: CONST_ZERO, CONST_ONE: CONST_ONE}
    remap.update(zip(circuit.alice_inputs, builder.add_alice_inputs(circuit.n_alice)))
    remap.update(zip(circuit.bob_inputs, builder.add_bob_inputs(circuit.n_bob)))
    for gate in circuit.gates:
        a = remap[gate.a]
        b = remap[gate.b] if gate.b is not None else None
        op = gate.op
        if op is GateType.BUF:
            out = a
        elif op is GateType.NOT:
            out = builder.emit_not(a)
        elif op is GateType.XOR:
            out = builder.emit_xor(a, b)
        elif op is GateType.XNOR:
            out = builder.emit_not(builder.emit_xor(a, b))
        elif op is GateType.AND:
            out = builder.emit_and(a, b)
        elif op is GateType.NAND:
            out = builder.emit_not(builder.emit_and(a, b))
        elif op is GateType.OR:
            out = builder.emit_not(
                builder.emit_and(builder.emit_not(a), builder.emit_not(b))
            )
        elif op is GateType.NOR:
            out = builder.emit_and(builder.emit_not(a), builder.emit_not(b))
        elif op is GateType.ANDN:
            out = builder.emit_and(a, builder.emit_not(b))
        else:  # ORN
            out = builder.emit_not(builder.emit_and(builder.emit_not(a), b))
        remap[gate.out] = out
    for wire in circuit.outputs:
        builder.mark_output(remap[wire])
    return builder.build()


_IMPORT_OPS = {
    "XOR": GateType.XOR,
    "AND": GateType.AND,
    "INV": GateType.NOT,
    "NOT": GateType.NOT,
    "EQW": GateType.BUF,
    "OR": GateType.OR,
    "NAND": GateType.NAND,
    "XNOR": GateType.XNOR,
}


def loads_bristol(text: str, name: str = "bristol") -> Circuit:
    """Parse Bristol-Fashion text into a :class:`Circuit`.

    Supports the gate set XOR/AND/INV/NOT/EQW/EQ plus the common
    extensions OR/NAND/XNOR.  Input group 1 maps to Alice, group 2 to
    Bob (a single group becomes all-Alice).
    """
    lines = [l.strip() for l in text.splitlines() if l.strip()]
    if len(lines) < 3:
        raise CircuitError("truncated Bristol file")
    n_gates, n_wires = (int(v) for v in lines[0].split())
    in_spec = [int(v) for v in lines[1].split()]
    out_spec = [int(v) for v in lines[2].split()]
    if in_spec[0] + 1 != len(in_spec):
        raise CircuitError("malformed input declaration")
    if out_spec[0] + 1 != len(out_spec):
        raise CircuitError("malformed output declaration")
    input_widths = in_spec[1:]
    n_alice = input_widths[0]
    n_bob = sum(input_widths[1:])
    n_outputs = sum(out_spec[1:])
    gate_lines = lines[3:]
    if len(gate_lines) != n_gates:
        raise CircuitError(
            f"header promises {n_gates} gates, file has {len(gate_lines)}"
        )

    # our numbering: 0/1 constants, then inputs, then the rest
    offset = 2
    remap: Dict[int, int] = {
        i: offset + i for i in range(n_alice + n_bob)
    }
    next_wire = offset + n_alice + n_bob
    gates: List[Gate] = []

    def map_out(bristol_wire: int) -> int:
        nonlocal next_wire
        ours = next_wire
        next_wire += 1
        remap[bristol_wire] = ours
        return ours

    for line in gate_lines:
        parts = line.split()
        op_name = parts[-1]
        if op_name == "EQ":
            value = int(parts[2])
            source = CONST_ONE if value else CONST_ZERO
            out = map_out(int(parts[3]))
            gates.append(Gate(GateType.BUF, source, None, out))
            continue
        op = _IMPORT_OPS.get(op_name)
        if op is None:
            raise CircuitError(f"unsupported Bristol gate {op_name!r}")
        n_in = int(parts[0])
        if n_in == 1:
            a = remap[int(parts[2])]
            out = map_out(int(parts[3]))
            gates.append(Gate(op, a, None, out))
        elif n_in == 2:
            a = remap[int(parts[2])]
            b = remap[int(parts[3])]
            out = map_out(int(parts[4]))
            gates.append(Gate(op, a, b, out))
        else:
            raise CircuitError(f"unsupported fan-in {n_in}")

    outputs = [
        remap[w] for w in range(n_wires - n_outputs, n_wires)
    ]
    circuit = Circuit(
        n_alice=n_alice,
        n_bob=n_bob,
        gates=gates,
        outputs=outputs,
        n_wires=next_wire,
        name=name,
    )
    circuit.validate()
    return circuit


