"""Structural Verilog export.

The paper's flow describes DL functions in Verilog HDL and compiles them
with Synopsys Design Compiler against the GC cell library (Sec. 2.3 /
4.2).  This module closes the loop in the other direction: any netlist
generated here can be emitted as a structural Verilog module using the
same conceptual cell set, so it can be re-synthesized, linted or
simulated with standard EDA tooling.
"""

from __future__ import annotations

from typing import List

from .gates import GateType
from .netlist import CONST_ONE, CONST_ZERO, Circuit

__all__ = ["dumps_verilog"]

_VERILOG_EXPR = {
    GateType.XOR: "{a} ^ {b}",
    GateType.XNOR: "~({a} ^ {b})",
    GateType.AND: "{a} & {b}",
    GateType.NAND: "~({a} & {b})",
    GateType.OR: "{a} | {b}",
    GateType.NOR: "~({a} | {b})",
    GateType.ANDN: "{a} & ~{b}",
    GateType.ORN: "{a} | ~{b}",
    GateType.NOT: "~{a}",
    GateType.BUF: "{a}",
}


def _wire_name(wire: int, circuit: Circuit) -> str:
    if wire == CONST_ZERO:
        return "1'b0"
    if wire == CONST_ONE:
        return "1'b1"
    alice = circuit.alice_inputs
    bob = circuit.bob_inputs
    state = circuit.state_inputs
    if wire in alice:
        return f"a[{wire - alice.start}]"
    if wire in bob:
        return f"b[{wire - bob.start}]"
    if wire in state:
        return f"q[{wire - state.start}]"
    return f"w{wire}"


def dumps_verilog(circuit: Circuit, module_name: str = None) -> str:
    """Emit the netlist as a flat structural Verilog module.

    Ports: ``a`` (Alice inputs), ``b`` (Bob inputs), optional ``q``
    (register state in), and ``y`` (outputs).  Gates become continuous
    assignments so any synthesis tool can re-map them onto its own
    library — with the paper's area model (XOR = 0) the non-XOR count
    is preserved.
    """
    module_name = module_name or circuit.name.replace("-", "_") or "netlist"
    ports: List[str] = []
    decls: List[str] = []
    if circuit.n_alice:
        ports.append("a")
        decls.append(f"  input  [{circuit.n_alice - 1}:0] a;")
    if circuit.n_bob:
        ports.append("b")
        decls.append(f"  input  [{circuit.n_bob - 1}:0] b;")
    if circuit.n_state:
        ports.append("q")
        decls.append(f"  input  [{circuit.n_state - 1}:0] q;")
    ports.append("y")
    decls.append(f"  output [{max(len(circuit.outputs) - 1, 0)}:0] y;")

    body: List[str] = []
    for gate in circuit.gates:
        expr = _VERILOG_EXPR[gate.op]
        a = _wire_name(gate.a, circuit)
        b = _wire_name(gate.b, circuit) if gate.b is not None else ""
        body.append(f"  wire w{gate.out};")
        body.append(
            f"  assign w{gate.out} = {expr.format(a=a, b=b)};"
        )
    for i, wire in enumerate(circuit.outputs):
        body.append(f"  assign y[{i}] = {_wire_name(wire, circuit)};")

    lines = [
        f"// generated by repro (DeepSecure reproduction)",
        f"// {circuit.counts().non_xor} non-XOR gates under the GC library",
        f"module {module_name}({', '.join(ports)});",
        *decls,
        *body,
        "endmodule",
    ]
    return "\n".join(lines) + "\n"


