"""The Table 3 component inventory.

Builds each DL circuit component at the paper's 16-bit (1.3.12) format,
counts its XOR / non-XOR gates, measures the numeric approximation error
against the float reference, and renders the comparison against the
published Table 3.  :func:`component` and :func:`activation_component`
are also how :func:`repro.compile.gatecount.measured_component_costs`
builds what it prices.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, List, Optional

import numpy as np

from ..circuits import (
    Bus,
    Circuit,
    CircuitBuilder,
    FixedPointFormat,
    arith,
    int_from_bits,
    simulate,
)
from ..circuits.activations import VARIANTS
from ..circuits.logic import max_tree
from .paper_costs import PAPER_TABLE3

__all__ = [
    "ComponentReport",
    "component",
    "activation_component",
    "component_inventory",
    "render_table3",
    "measure_activation_error",
]


@dataclasses.dataclass
class ComponentReport:
    """One Table 3 row: ours vs the paper."""

    name: str
    xor: int
    non_xor: int
    error: Optional[float]
    paper_xor: Optional[int]
    paper_non_xor: Optional[int]
    paper_error: Optional[float]

    @property
    def non_xor_ratio(self) -> Optional[float]:
        """Our non-XOR count over the paper's (shape check)."""
        if not self.paper_non_xor:
            return None
        return self.non_xor / self.paper_non_xor


def component(build: Callable[[CircuitBuilder], Bus]) -> Circuit:
    """The circuit of one component: ``build`` adds its inputs to a fresh
    builder and returns its output bus."""
    builder = CircuitBuilder()
    builder.mark_output_bus(build(builder))
    return builder.build()


def activation_component(name: str, fmt: FixedPointFormat) -> Circuit:
    """One Table 3 activation realization on a ``fmt``-width input."""
    return component(
        lambda builder: VARIANTS[name](builder, builder.add_alice_inputs(fmt.width), fmt)
    )


def _binary_component(build: Callable, fmt: FixedPointFormat) -> Circuit:
    return component(
        lambda builder: build(
            builder,
            builder.add_alice_inputs(fmt.width),
            builder.add_bob_inputs(fmt.width),
        )
    )


def measure_activation_error(
    name: str,
    fmt: FixedPointFormat,
    samples: int = 400,
    domain: Optional[float] = None,
) -> float:
    """Max |circuit(x) - f(x)| over a sweep of the representable domain.

    This is the "error" column of Table 3 for our realizations, measured
    by actually simulating the netlist.
    """
    reference = (
        math.tanh if name.startswith("Tanh") else (lambda v: 1 / (1 + math.exp(-v)))
    )
    circuit = activation_component(name, fmt)
    domain = domain if domain is not None else fmt.max_value * 0.999
    worst = 0.0
    for value in np.linspace(-domain, domain, samples):
        encoded = fmt.decode(fmt.encode(float(value)))
        pattern = fmt.to_unsigned(fmt.encode(float(value)))
        bits = [(pattern >> i) & 1 for i in range(fmt.width)]
        got_bits = simulate(circuit, bits, [])
        got = fmt.decode(
            fmt.from_unsigned(int_from_bits(got_bits) & ((1 << fmt.width) - 1))
        )
        worst = max(worst, abs(got - reference(encoded)))
    return worst


def component_inventory(
    fmt: Optional[FixedPointFormat] = None,
    include_full_luts: bool = False,
    softmax_n: int = 10,
    measure_errors: bool = False,
) -> List[ComponentReport]:
    """Build every Table 3 component and report its inventory.

    Args:
        fmt: fixed-point format (default: the paper's 1.3.12).
        include_full_luts: also synthesize the full-domain LUT variants
            (2**15-entry tables at 16 bits — slow; benchmarks only).
        softmax_n: number of classes priced for the Softmax row.
        measure_errors: simulate each activation over a sweep for the
            error column (slower).
    """
    if fmt is None:
        fmt = FixedPointFormat(3, 12)
    rows: List[ComponentReport] = []

    def add(name: str, circuit: Circuit, error=None, paper_name=None) -> None:
        counts = circuit.counts()
        paper = PAPER_TABLE3.get(paper_name or name)
        rows.append(
            ComponentReport(
                name=name,
                xor=counts.xor,
                non_xor=counts.non_xor,
                error=error,
                paper_xor=paper[0] if paper else None,
                paper_non_xor=paper[1] if paper else None,
                paper_error=paper[2] if paper else None,
            )
        )

    activation_names = ["Tanh2.10.12", "TanhPL", "TanhCORDIC",
                        "Sigmoid3.10.12", "SigmoidPLAN", "SigmoidCORDIC",
                        "SigmoidCORDICviaTanh"]
    if include_full_luts:
        activation_names = ["TanhLUT", "SigmoidLUT"] + activation_names
    for name in activation_names:
        error = (
            measure_activation_error(name, fmt) if measure_errors else None
        )
        add(name, activation_component(name, fmt), error)

    add("ADD", _binary_component(arith.ripple_add, fmt))
    add(
        "MULT",
        _binary_component(
            lambda b, x, y: arith.multiply_fixed(b, x, y, fmt.frac_bits), fmt
        ),
    )
    # the family Table 3's MULT belongs to: the product modulo 2**width,
    # no fixed-point shift (DESIGN.md #4)
    add(
        "MULTwrap",
        _binary_component(
            lambda b, x, y: arith.multiply_unsigned(b, x, y, max_width=fmt.width)[
                : fmt.width
            ],
            fmt,
        ),
        paper_name="MULT",
    )
    add("DIV", _binary_component(arith.divide_unsigned, fmt))
    add("ReLu", _binary_component(lambda b, x, y: arith.relu(b, x), fmt))

    # Softmax: (n-1) CMP+MUX stages over fmt-width logits
    add(
        f"Softmax{softmax_n}",
        component(
            lambda b: max_tree(b, [b.add_alice_inputs(fmt.width) for _ in range(softmax_n)])
        ),
    )
    return rows


def render_table3(rows: List[ComponentReport]) -> str:
    """Render the comparison as a fixed-width text table."""
    header = (
        f"{'component':<16}{'XOR':>10}{'non-XOR':>10}"
        f"{'paper XOR':>12}{'paper nXOR':>12}{'ratio':>8}  error"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        ratio = f"{row.non_xor_ratio:.2f}" if row.non_xor_ratio else "-"
        err = "-" if row.error is None else f"{row.error:.2e}"
        lines.append(
            f"{row.name:<16}{row.xor:>10}{row.non_xor:>10}"
            f"{row.paper_xor if row.paper_xor is not None else '-':>12}"
            f"{row.paper_non_xor if row.paper_non_xor is not None else '-':>12}"
            f"{ratio:>8}  {err}"
        )
    return "\n".join(lines)
