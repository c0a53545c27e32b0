"""GC-optimized activation-function circuits (paper Table 3).

Every realization is registered in :data:`VARIANTS` under the exact name
used in the paper's Table 3, so the component inventory and the benchmark
harness can enumerate them.
"""

from typing import Callable, Dict

from .common import apply_odd_symmetry, apply_point_symmetry, split_magnitude
from .cordic import (
    CordicPlan,
    cordic_sinh_cosh,
    hyperbolic_plan,
    rotate_reference,
    sigmoid_cordic,
    sigmoid_cordic_via_tanh,
    sigmoid_reference,
    sigmoid_via_tanh_reference,
    tanh_cordic,
    tanh_reference,
)
from .lut import (
    lut_lookup,
    sigmoid_lut,
    sigmoid_truncated,
    tanh_lut,
    tanh_truncated,
)
from .piecewise import (
    PiecewiseSpec,
    Segment,
    csd_digits,
    fit_piecewise,
    sigmoid_plan,
    sigmoid_plan_spec,
    tanh_piecewise,
    tanh_pl_spec,
)

#: Table 3 name -> circuit generator ``f(builder, x_bus, fmt) -> Bus``.
VARIANTS: Dict[str, Callable] = {
    "TanhLUT": tanh_lut,
    "Tanh2.10.12": tanh_truncated,
    "TanhPL": tanh_piecewise,
    "TanhCORDIC": tanh_cordic,
    "SigmoidLUT": sigmoid_lut,
    "Sigmoid3.10.12": sigmoid_truncated,
    "SigmoidPLAN": sigmoid_plan,
    "SigmoidCORDIC": sigmoid_cordic,
    "SigmoidCORDICviaTanh": sigmoid_cordic_via_tanh,
}

#: Compiler variant choice -> Table 3 realization per non-linearity.
#: The single source of truth shared by the model-to-netlist compiler
#: and the quantized reference tables, so the "bit-exact end to end"
#: guarantee cannot silently drift.
VARIANT_CIRCUITS: Dict[str, Dict[str, str]] = {
    "exact": {"tanh": "TanhLUT", "sigmoid": "SigmoidLUT"},
    "cordic": {"tanh": "TanhCORDIC", "sigmoid": "SigmoidCORDIC"},
    "truncated": {"tanh": "Tanh2.10.12", "sigmoid": "Sigmoid3.10.12"},
    "piecewise": {"tanh": "TanhPL", "sigmoid": "SigmoidPLAN"},
}

__all__ = [
    "VARIANTS",
    "VARIANT_CIRCUITS",
    "CordicPlan",
    "hyperbolic_plan",
    "rotate_reference",
    "cordic_sinh_cosh",
    "tanh_cordic",
    "sigmoid_cordic",
    "sigmoid_cordic_via_tanh",
    "tanh_reference",
    "sigmoid_reference",
    "sigmoid_via_tanh_reference",
    "tanh_lut",
    "sigmoid_lut",
    "tanh_truncated",
    "sigmoid_truncated",
    "tanh_piecewise",
    "sigmoid_plan",
    "tanh_pl_spec",
    "sigmoid_plan_spec",
    "fit_piecewise",
    "PiecewiseSpec",
    "Segment",
    "csd_digits",
    "lut_lookup",
    "split_magnitude",
    "apply_odd_symmetry",
    "apply_point_symmetry",
]
