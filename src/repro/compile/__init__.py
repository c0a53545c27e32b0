"""Model-to-netlist compiler, analytic gate counts, the Table 3 component
inventory and GC cost model."""

from .compiler import CompiledModel, CompileOptions, compile_model
from .costmodel import CostBreakdown, GCCostModel
from .folded import FoldedDenseResult, folded_mac_cell, run_folded_dense
from .gatecount import (
    Architecture,
    Layer,
    activation,
    architecture_counts,
    conv,
    fc,
    measured_component_costs,
    softmax,
)
from .inventory import (
    ComponentReport,
    component_inventory,
    measure_activation_error,
    render_table3,
)
from .paper_costs import (
    CRYPTONETS_BATCH,
    CRYPTONETS_COMM_BYTES,
    CRYPTONETS_FIG6_LATENCY_S,
    CRYPTONETS_LATENCY_S,
    PAPER_COEFFICIENTS,
    PAPER_COMPONENT_COSTS,
    PAPER_TABLE3,
    PAPER_TABLE4,
    PAPER_TABLE5,
    ComponentCosts,
    CostCoefficients,
)

__all__ = [
    "compile_model",
    "CompileOptions",
    "CompiledModel",
    "GCCostModel",
    "CostBreakdown",
    "folded_mac_cell",
    "run_folded_dense",
    "FoldedDenseResult",
    "Architecture",
    "Layer",
    "fc",
    "conv",
    "activation",
    "softmax",
    "architecture_counts",
    "measured_component_costs",
    "ComponentReport",
    "component_inventory",
    "measure_activation_error",
    "render_table3",
    "ComponentCosts",
    "CostCoefficients",
    "PAPER_COMPONENT_COSTS",
    "PAPER_COEFFICIENTS",
    "PAPER_TABLE3",
    "PAPER_TABLE4",
    "PAPER_TABLE5",
    "CRYPTONETS_LATENCY_S",
    "CRYPTONETS_COMM_BYTES",
    "CRYPTONETS_BATCH",
    "CRYPTONETS_FIG6_LATENCY_S",
]
