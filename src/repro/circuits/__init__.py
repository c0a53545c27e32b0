"""Boolean-circuit substrate: netlists, builders, arithmetic, activations.

This subpackage is the foundation of the reproduction: every function that
DeepSecure evaluates under Yao's protocol is first expressed as a netlist
built here.
"""

from .bristol import dumps_bristol, loads_bristol
from .builder import Bus, CircuitBuilder
from .fixedpoint import DEFAULT_FORMAT, FixedPointFormat
from .gates import Gate, GateType
from .netlist import CONST_ONE, CONST_ZERO, Circuit, GateCounts
from .simulate import bits_from_int, int_from_bits, simulate
from .verilog import dumps_verilog

__all__ = [
    "Bus",
    "CircuitBuilder",
    "Circuit",
    "GateCounts",
    "Gate",
    "GateType",
    "FixedPointFormat",
    "DEFAULT_FORMAT",
    "CONST_ZERO",
    "CONST_ONE",
    "simulate",
    "bits_from_int",
    "int_from_bits",
    "dumps_bristol",
    "loads_bristol",
    "dumps_verilog",
]
