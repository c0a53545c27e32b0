"""Sequential (folded) circuits: registers, cycles and unrolling.

DeepSecure follows TinyGarble in garbling *sequential* circuits: instead
of instantiating every MULT/ADD of a matrix multiplication, one folded
datapath plus registers is garbled and evaluated for multiple clock
cycles, keeping the netlist memory footprint constant (paper Sec. 3.5).

A :class:`SequentialCircuit` wraps a combinational core whose extra
"state" input wires are register outputs; each register binds one state
wire to the core wire whose value is latched at the end of every cycle.
The plaintext simulator and the sequential garbler both consume this
structure.  :meth:`SequentialCircuit.unroll` splices copies of the core,
cycle ``i``'s d-wires feeding cycle ``i+1``'s q-wires, into the
equivalent combinational circuit for cross-checking (all cycles, no
registers left).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from ..errors import CircuitError
from .builder import Bus, CircuitBuilder
from .gates import Gate
from .netlist import CONST_ONE, CONST_ZERO, Circuit

__all__ = ["Register", "SequentialCircuit", "SequentialBuilder"]


@dataclasses.dataclass(frozen=True)
class Register:
    """A one-bit register binding inside a sequential circuit.

    Attributes:
        q_wire: core wire carrying the register's current value (one of
            the core's state inputs).
        d_wire: core wire whose value is latched at the end of a cycle.
        init: power-on value (public, part of the netlist).
    """

    q_wire: int
    d_wire: int
    init: int = 0


class SequentialCircuit:
    """A combinational core plus register bindings.

    Attributes:
        core: the per-cycle netlist; its state inputs are register
            outputs, in the order of ``registers``.
        registers: bindings, one per state input wire of ``core``.
    """

    def __init__(self, core: Circuit, registers: Sequence[Register]) -> None:
        if len(registers) != core.n_state:
            raise CircuitError(
                f"core declares {core.n_state} state wires but "
                f"{len(registers)} registers are bound"
            )
        state_wires = list(core.state_inputs)
        for reg, expected in zip(registers, state_wires):
            if reg.q_wire != expected:
                raise CircuitError(
                    f"register q_wire {reg.q_wire} out of order "
                    f"(expected {expected})"
                )
            if reg.d_wire < 0 or reg.d_wire >= core.n_wires:
                raise CircuitError("register d_wire out of range")
        self.core = core
        self.registers = list(registers)

    @property
    def n_state(self) -> int:
        """Number of register bits."""
        return len(self.registers)

    def initial_state(self) -> List[int]:
        """Power-on register values."""
        return [reg.init & 1 for reg in self.registers]

    # -- simulation ---------------------------------------------------------

    def run(
        self,
        alice_cycles: Sequence[Sequence[int]],
        bob_cycles: Sequence[Sequence[int]],
        cycles: Optional[int] = None,
    ) -> List[List[int]]:
        """Simulate for several cycles; returns per-cycle output bits.

        Args:
            alice_cycles: per-cycle Alice input bits.  A single entry is
                reused for every cycle (constant input).
            bob_cycles: per-cycle Bob input bits, same convention.
            cycles: number of cycles (defaults to the longer input list).
        """
        if cycles is None:
            cycles = max(len(alice_cycles), len(bob_cycles), 1)
        if cycles < 1:
            raise CircuitError("cycles must be >= 1")
        state = self.initial_state()
        outputs: List[List[int]] = []
        for cycle in range(cycles):
            alice = self._cycle_input(alice_cycles, cycle, self.core.n_alice)
            bob = self._cycle_input(bob_cycles, cycle, self.core.n_bob)
            values = self._evaluate_wires(alice, bob, state)
            outputs.append([values[w] for w in self.core.outputs])
            state = [values[reg.d_wire] for reg in self.registers]
        return outputs

    def final_state(
        self,
        alice_cycles: Sequence[Sequence[int]],
        bob_cycles: Sequence[Sequence[int]],
        cycles: int,
    ) -> List[int]:
        """Register contents after ``cycles`` cycles (for tests)."""
        state = self.initial_state()
        for cycle in range(cycles):
            alice = self._cycle_input(alice_cycles, cycle, self.core.n_alice)
            bob = self._cycle_input(bob_cycles, cycle, self.core.n_bob)
            values = self._evaluate_wires(alice, bob, state)
            state = [values[reg.d_wire] for reg in self.registers]
        return state

    @staticmethod
    def _cycle_input(
        per_cycle: Sequence[Sequence[int]], cycle: int, width: int
    ) -> List[int]:
        if not per_cycle:
            return [0] * width
        if len(per_cycle) == 1:
            return list(per_cycle[0])
        if cycle >= len(per_cycle):
            raise CircuitError(f"no input provided for cycle {cycle}")
        return list(per_cycle[cycle])

    def _evaluate_wires(
        self, alice: Sequence[int], bob: Sequence[int], state: Sequence[int]
    ) -> Dict[int, int]:
        values: Dict[int, int] = {CONST_ZERO: 0, CONST_ONE: 1}
        values.update(self.core.input_assignment(alice, bob, state))
        for gate in self.core.gates:
            if gate.b is None:
                values[gate.out] = gate.eval(values[gate.a])
            else:
                values[gate.out] = gate.eval(values[gate.a], values[gate.b])
        return values

    # -- unrolling ----------------------------------------------------------

    def unroll(self, cycles: int) -> Circuit:
        """Expand to an equivalent combinational circuit over ``cycles``.

        Per-cycle inputs of both parties are concatenated
        (cycle-major); outputs likewise.  Register wires are spliced:
        cycle ``i``'s d-wire value feeds cycle ``i+1``'s q-wire, and the
        first cycle's q-wires are tied to the init constants.
        """
        if cycles < 1:
            raise CircuitError("cycles must be >= 1")
        core = self.core
        n_alice = core.n_alice * cycles
        n_bob = core.n_bob * cycles
        bob_base = 2 + n_alice
        d_wires = [reg.d_wire for reg in self.registers]
        state = [CONST_ONE if bit else CONST_ZERO for bit in self.initial_state()]
        gates: List[Gate] = []
        outputs: List[int] = []
        next_wire = bob_base + n_bob
        for cycle in range(cycles):
            # core wire -> new wire; the core's input ranges are
            # contiguous (constants, Alice, Bob, state), gates fill the rest
            remap = [CONST_ZERO, CONST_ONE]
            remap.extend(
                range(2 + cycle * core.n_alice, 2 + (cycle + 1) * core.n_alice)
            )
            remap.extend(
                range(bob_base + cycle * core.n_bob,
                      bob_base + (cycle + 1) * core.n_bob)
            )
            remap.extend(state)
            remap.extend([-1] * (core.n_wires - len(remap)))
            for op, a, b, out in core.gates:
                remap[out] = next_wire
                gates.append(
                    Gate(op, remap[a], None if b is None else remap[b], next_wire)
                )
                next_wire += 1
            outputs.extend(remap[w] for w in core.outputs)
            state = [remap[w] for w in d_wires]
        unrolled = Circuit(
            n_alice=n_alice,
            n_bob=n_bob,
            gates=gates,
            outputs=outputs,
            n_wires=next_wire,
            name=f"{core.name}_x{cycles}",
        )
        unrolled.validate()
        return unrolled


class SequentialBuilder(CircuitBuilder):
    """Builder with register support.

    Usage::

        bld = SequentialBuilder("accumulator")
        x = bld.add_alice_inputs(16)
        acc = bld.add_registers(16)           # q wires
        total = ripple_add(bld, acc, x)
        bld.bind_registers(acc, total)        # latch d wires
        seq = bld.build_sequential()
    """

    def __init__(self, name: str = "sequential", **kwargs) -> None:
        super().__init__(name=name, **kwargs)
        self._register_inits: Dict[int, int] = {}
        self._register_binds: Dict[int, int] = {}

    def add_registers(self, count: int, init: int = 0) -> Bus:
        """Allocate ``count`` register-output (q) wires.

        Args:
            count: number of one-bit registers.
            init: initial value, encoded little-endian across the bus.
        """
        bus = self.add_state_inputs(count)
        for i, wire in enumerate(bus):
            self._register_inits[wire] = (init >> i) & 1
        return bus

    def bind_registers(self, q_bus: Sequence[int], d_bus: Sequence[int]) -> None:
        """Bind next-state (d) wires to previously allocated q wires."""
        if len(q_bus) != len(d_bus):
            raise CircuitError("q/d bus width mismatch")
        for q_wire, d_wire in zip(q_bus, d_bus):
            if q_wire not in self._register_inits:
                raise CircuitError(f"wire {q_wire} is not a register output")
            if q_wire in self._register_binds:
                raise CircuitError(f"register {q_wire} bound twice")
            self._register_binds[q_wire] = d_wire

    def build_sequential(self) -> SequentialCircuit:
        """Finalize the core and its register bindings."""
        core = self.build()
        registers = []
        for q_wire in core.state_inputs:
            if q_wire not in self._register_binds:
                raise CircuitError(f"register {q_wire} never bound")
            registers.append(
                Register(
                    q_wire=q_wire,
                    d_wire=self._register_binds[q_wire],
                    init=self._register_inits[q_wire],
                )
            )
        return SequentialCircuit(core, registers)
