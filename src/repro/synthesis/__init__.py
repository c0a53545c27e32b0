"""Logic-synthesis stand-in: GC cost library, optimization passes, reports."""

from .library import GC_LIBRARY, Cell, CellLibrary
from .optimize import (
    OptimizationReport,
    deduplicate_gates,
    eliminate_dead_gates,
    lower_to_gc_basis,
    optimize,
    propagate_constants,
)
from .report import (
    ComponentReport,
    component_inventory,
    measure_activation_error,
    render_table3,
)
from .verilog import dumps_verilog

__all__ = [
    "CellLibrary",
    "Cell",
    "GC_LIBRARY",
    "optimize",
    "propagate_constants",
    "deduplicate_gates",
    "eliminate_dead_gates",
    "lower_to_gc_basis",
    "OptimizationReport",
    "component_inventory",
    "render_table3",
    "ComponentReport",
    "measure_activation_error",
    "dumps_verilog",
]
