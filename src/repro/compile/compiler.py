"""Model-to-netlist compiler.

Lowers a :class:`repro.nn.quantize.QuantizedModel` to a single Boolean
circuit implementing the full private inference:

* the client's features are Alice's input bits (she garbles), in two's
  complement;
* the server's weights and biases are Bob's input bits (transferred via
  OT), each word in sign-magnitude (:meth:`CompiledModel.server_bits`):
  the magnitude a multiplier needs is computed once per model where the
  weights live, so no gate depends on the server's input alone;
* each output of a linear layer is one carry-save dot-product unit
  (:func:`dot_unit`): sign/magnitude products and the bias in one bit
  heap, one carry propagation per product and one per unit, honoring
  pruning masks (masked weights produce *no* gates — the paper's
  sparsity payoff, Sec. 3.2.2);
* the unit's wide accumulator saturates back to the I/O width exactly
  like :func:`repro.nn.quantize.saturate`;
* magnitudes take ``width - 1`` bits wherever a value is known to lie in
  ``[-H, H]``, ``H = 2**(width-1) - 1`` — encoded features and weights,
  saturated sums, ReLU and pool outputs, and any tanh/sigmoid variant
  whose reference table stays above ``-2**(width-1)`` (checked at
  compile time; the layer keeps the bit otherwise);
* non-linearities instantiate the selected Table 3 variant;
* the output layer is the CMP/MUX argmax (the paper's Softmax), emitting
  the inference label index;
* the builder drops every gate that reaches no output (logic
  synthesis's dead-gate removal), so none is garbled or sent.

The compiled circuit is *bit-exact* with ``QuantizedModel.forward_fixed``
(integration-tested), so the GC protocol provably computes the same
label the server would compute in the clear.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.activations import VARIANT_CIRCUITS, VARIANTS
from ..circuits.activations.piecewise import constant_multiply_positive
from ..circuits.arith import (
    conditional_negate,
    dot_product_fixed,
    relu as relu_circuit,
    saturate_to_width,
    sign_magnitude,
    sign_magnitude_pattern,
)
from ..circuits.builder import Bus, CircuitBuilder
from ..circuits.fixedpoint import FixedPointFormat
from ..circuits.logic import adder_tree, argmax_tree, max_tree
from ..circuits.gates import N_FREE_CODES
from ..circuits.netlist import CONST_ONE, SUB_BITS, Circuit
from ..errors import CompileError
from ..nn.quantize import (
    QuantizedConv2D,
    QuantizedDense,
    QuantizedModel,
    activation_table,
)

__all__ = ["CompileOptions", "CompiledModel", "compile_model"]


@dataclasses.dataclass(frozen=True)
class CompileOptions:
    """Compiler knobs.

    Attributes:
        activation: which Table 3 realization to instantiate for
            tanh/sigmoid ("cordic", "exact" -> full LUTs, "truncated",
            "piecewise").
        output: "argmax" (label index, the DeepSecure deliverable) or
            "logits" (raw scores, for bit-exactness tests).
        honor_sparsity: skip gates for masked-out weights.
    """

    activation: str = "cordic"
    output: str = "argmax"
    honor_sparsity: bool = True


@dataclasses.dataclass
class CompiledModel:
    """A compiled inference circuit plus its interface metadata.

    Attributes:
        circuit: the netlist (Alice = features, Bob = weights).
        fmt: I/O fixed-point format.
        n_features: client inputs (words).
        weight_values: Bob's weight words in input-wire order (the
            server feeds these to the protocol).
        output_kind: "argmax" or "logits".
        n_classes: logit count.
        layer_report: per step ``(name, XOR, non-XOR, levels entered,
            levels left)`` — the netlist's AND-depth before and after
            the step's gates, so the rows' ``left - entered`` add up to
            the AND layers the engine walks (its level count less the
            free tail).
    """

    circuit: Circuit
    fmt: FixedPointFormat
    n_features: int
    weight_values: List[int]
    output_kind: str
    n_classes: int
    layer_report: List[Tuple[str, int, int, int, int]] = dataclasses.field(
        default_factory=list
    )

    def render_layer_report(self) -> str:
        """Per-layer XOR / non-XOR / depth breakdown as a text table."""
        lines = [
            f"{'layer':<16}{'XOR':>10}{'non-XOR':>10}{'levels':>8}{'enter':>8}{'leave':>8}"
        ]
        for name, xor, non_xor, entered, left in self.layer_report:
            lines.append(
                f"{name:<16}{xor:>10}{non_xor:>10}"
                f"{left - entered:>8}{entered:>8}{left:>8}"
            )
        return "\n".join(lines)

    def client_bits(self, features: np.ndarray) -> List[int]:
        """Encode one sample into Alice's input bit vector."""
        flat = np.asarray(features, dtype=np.float64).reshape(-1)
        if flat.size != self.n_features:
            raise CompileError(
                f"expected {self.n_features} features, got {flat.size}"
            )
        bits: List[int] = []
        for value in flat:
            pattern = self.fmt.to_unsigned(self.fmt.encode(float(value)))
            bits.extend((pattern >> i) & 1 for i in range(self.fmt.width))
        return bits

    def server_bits(self) -> List[int]:
        """Encode the model weights into Bob's input bit vector, each
        word in sign-magnitude (:func:`sign_magnitude_pattern`): the
        circuit multiplies and adds them as ``(magnitude, sign)``, and
        computing that here, once per model where the weights live,
        garbles no gate for it."""
        width = self.fmt.width
        bits: List[int] = []
        for word in self.weight_values:
            pattern = sign_magnitude_pattern(int(word), width)
            bits.extend((pattern >> i) & 1 for i in range(width))
        return bits

    def decode_output(self, output_bits: Sequence[int]) -> int:
        """Decode the protocol's output bits into a class label."""
        if self.output_kind != "argmax":
            raise CompileError("decode_output requires argmax output")
        value = 0
        for i, bit in enumerate(output_bits):
            value |= (bit & 1) << i
        return value


def dot_unit(
    builder: CircuitBuilder,
    fmt: FixedPointFormat,
    operands: Sequence[Bus],
    weights: Sequence[Bus],
    bias: Optional[Bus] = None,
    symmetric: bool = True,
) -> Bus:
    """One output of a linear layer: ``saturate(sum x_i * w_i + bias)``.

    Products are exact ``fixed_mul`` terms summed in an accumulator wide
    enough for the worst case and saturated to the I/O width at the end
    — ``QuantizedModel`` bit for bit.  Weights and bias are the server's
    words, encoded with a symmetric clip and fed in sign-magnitude
    (:meth:`CompiledModel.server_bits`): each bus is ``width - 1``
    magnitude bits then the sign, taken apart by slicing.  The operands
    are two's complement; their magnitudes take ``width - 1`` bits when
    ``symmetric`` (the caller's statement that they lie in ``[-H, H]``,
    see :func:`sign_magnitude`).  ``|x_i|`` is the same gates in every
    unit that reads ``x_i`` (structural hashing).
    """
    acc = dot_product_fixed(
        builder,
        [sign_magnitude(builder, x, symmetric) for x in operands],
        [(w[:-1], w[-1]) for w in weights],
        fmt.frac_bits,
        fmt.accumulator_width(len(operands) + (bias is not None)),
        bias=None if bias is None else (bias[:-1], bias[-1]),
    )
    return saturate_to_width(builder, acc, fmt.width)


class _Compiler:
    def __init__(self, qmodel: QuantizedModel, options: CompileOptions) -> None:
        self.qmodel = qmodel
        self.options = options
        self.fmt = qmodel.fmt
        self.builder = CircuitBuilder(name="deepsecure_inference")
        self.weight_values: List[int] = []
        self._weight_wires: List[Bus] = []
        # every value of the current layer is known to lie in [-H, H],
        # H = 2**(width-1) - 1: true of encoded features, of anything
        # saturated, of ReLU and pool outputs; checked per table for the
        # other non-linearities
        self._symmetric = True

    # -- input staging ------------------------------------------------------

    def _collect_weights(self) -> None:
        """Pre-scan layers so all Bob inputs are declared up front."""
        for kind, op in self.qmodel.steps:
            if kind == "dense":
                mask = self._dense_mask(op)
                for j in range(op.weights.shape[1]):
                    for i in range(op.weights.shape[0]):
                        if mask is None or mask[i, j]:
                            self.weight_values.append(int(op.weights[i, j]))
                if op.bias is not None:
                    self.weight_values.extend(int(b) for b in op.bias)
            elif kind == "conv2d":
                weights = op.weights
                for index in np.ndindex(weights.shape):
                    if weights[index] or not self.options.honor_sparsity:
                        self.weight_values.append(int(weights[index]))
                if op.bias is not None:
                    self.weight_values.extend(int(b) for b in op.bias)

    def _dense_mask(self, op: QuantizedDense) -> Optional[np.ndarray]:
        if not self.options.honor_sparsity:
            return None
        if op.mask is not None:
            return op.mask.astype(bool)
        # treat exactly-zero quantized weights as pruned only when a mask
        # exists; otherwise keep them (gate counts must match the dense
        # architecture)
        return None

    # -- compilation --------------------------------------------------------------

    def compile(self) -> CompiledModel:
        qmodel = self.qmodel
        fmt = self.fmt
        n_features = int(np.prod(qmodel.input_shape))
        feature_bits = self.builder.add_alice_inputs(
            n_features * fmt.width, name="features"
        )
        self._collect_weights()
        weight_bits = self.builder.add_bob_inputs(
            len(self.weight_values) * fmt.width, name="weights"
        )
        self._weight_wires = [
            weight_bits[k * fmt.width : (k + 1) * fmt.width]
            for k in range(len(self.weight_values))
        ]
        self._next_weight = 0

        # values flow as a list of word buses; spatial shapes tracked
        values: List[Bus] = [
            feature_bits[k * fmt.width : (k + 1) * fmt.width]
            for k in range(n_features)
        ]
        shape: Tuple[int, ...] = tuple(qmodel.input_shape)

        # per step, its label and the gates emitted when it ends
        marks: List[Tuple[str, int]] = []

        def checkpoint(label: str) -> None:
            marks.append((label, self.builder.gate_count))

        for index, (kind, op) in enumerate(qmodel.steps):
            if kind == "dense":
                values = self._compile_dense(op, values)
                shape = (len(values),)
                self._symmetric = True
            elif kind == "conv2d":
                values, shape = self._compile_conv(op, values, shape)
                self._symmetric = True
            elif kind == "flatten":
                shape = (len(values),)
            elif kind == "maxpool":
                values, shape = self._compile_pool(op, values, shape, maximum=True)
            elif kind == "meanpool":
                values, shape = self._compile_pool(op, values, shape, maximum=False)
            elif kind in ("relu", "tanh", "sigmoid"):
                values = self._compile_activation(kind, values)
                self._symmetric = kind == "relu" or bool(
                    activation_table(kind, fmt, self.options.activation).min()
                    > -(1 << (fmt.width - 1))
                )
            else:  # pragma: no cover - QuantizedModel restricts kinds
                raise CompileError(f"cannot compile step {kind!r}")
            checkpoint(f"{index}:{kind}")

        n_classes = len(values)
        if self.options.output == "argmax":
            index_bus, _ = argmax_tree(self.builder, values, signed=True)
            self.builder.mark_output_bus(index_bus, name="label")
            checkpoint("output:argmax")
        elif self.options.output == "logits":
            for i, bus in enumerate(values):
                self.builder.mark_output_bus(bus, name=f"logit{i}")
        else:
            raise CompileError(f"unknown output kind {self.options.output!r}")
        circuit = self.builder.build()
        return CompiledModel(
            circuit=circuit,
            fmt=fmt,
            n_features=n_features,
            weight_values=self.weight_values,
            output_kind=self.options.output,
            n_classes=n_classes,
            layer_report=_layer_report(circuit, self.builder.survivors, marks),
        )

    def _take_weight(self) -> Bus:
        bus = self._weight_wires[self._next_weight]
        self._next_weight += 1
        return bus

    def _compile_dense(self, op: QuantizedDense, values: List[Bus]) -> List[Bus]:
        mask = self._dense_mask(op)
        in_dim, out_dim = op.weights.shape
        if len(values) != in_dim:
            raise CompileError("dense input width mismatch")
        # consume weight wires in exactly the _collect_weights order:
        # all weights (output-major), then all biases
        units: List[Tuple[List[Bus], List[Bus]]] = []
        for j in range(out_dim):
            kept = [
                i for i in range(in_dim) if mask is None or mask[i, j]
            ]
            units.append(
                ([values[i] for i in kept], [self._take_weight() for _ in kept])
            )
        bias_buses = (
            [self._take_weight() for _ in range(out_dim)]
            if op.bias is not None
            else [None] * out_dim
        )

        def emit(j: int) -> Bus:
            (operands, weights), bias = units[j], bias_buses[j]
            return dot_unit(
                self.builder, self.fmt, operands, weights, bias, self._symmetric
            )

        if mask is not None:  # masked units differ: emit each
            return [emit(j) for j in range(out_dim)]
        return self._same_units(
            [
                [wire for bus in weights + [bias or []] for wire in bus]
                for (_, weights), bias in zip(units, bias_buses)
            ],
            emit,
        )

    def _same_units(
        self, ports: List[List[int]], emit: Callable[[int], Bus]
    ) -> List[Bus]:
        """Units ``emit(j)`` that differ only in their input wires
        ``ports[j]``: unit 0 goes through the builder and is recorded as a
        template, the others are instantiated from it (or, when a unit's
        ports do not look to the builder as unit 0's did, emitted too).
        Units whose ports overlap are all emitted."""
        wires = [wire for unit in ports for wire in unit if wire > CONST_ONE]
        if len(ports) < 2 or len(set(wires)) < len(wires):
            return [emit(j) for j in range(len(ports))]
        builder = self.builder
        first, template = builder.record(ports[0], lambda: emit(0))
        buses = [first]
        for j in range(1, len(ports)):
            bus = None if template is None else builder.instantiate(
                template, ports[j]
            )
            buses.append(emit(j) if bus is None else bus)
        return buses

    def _compile_conv(
        self, op: QuantizedConv2D, values: List[Bus], shape: Tuple[int, ...]
    ) -> Tuple[List[Bus], Tuple[int, ...]]:
        fmt = self.fmt
        h, w, cin = shape
        k, s = op.kernel_size, op.stride
        out_h = (h - k) // s + 1
        out_w = (w - k) // s + 1
        cout = op.weights.shape[-1]

        def value_at(row: int, col: int, channel: int) -> Bus:
            return values[(row * w + col) * cin + channel]

        # weight wires, same order as _collect_weights (np.ndindex)
        weight_wire: Dict[Tuple[int, int, int, int], Bus] = {}
        for index in np.ndindex(op.weights.shape):
            if op.weights[index] or not self.options.honor_sparsity:
                weight_wire[index] = self._take_weight()
        bias_buses = (
            [self._take_weight() for _ in range(cout)]
            if op.bias is not None
            else None
        )

        outputs: List[Bus] = []
        for row in range(out_h):
            for col in range(out_w):
                for ch_out in range(cout):
                    keys = [
                        (di, dj, ch_in, ch_out)
                        for di in range(k)
                        for dj in range(k)
                        for ch_in in range(cin)
                        if (di, dj, ch_in, ch_out) in weight_wire
                    ]
                    bias = bias_buses[ch_out] if bias_buses else None
                    outputs.append(
                        dot_unit(
                            self.builder,
                            fmt,
                            [
                                value_at(row * s + di, col * s + dj, ch_in)
                                for di, dj, ch_in, _ in keys
                            ],
                            [weight_wire[key] for key in keys],
                            bias,
                            self._symmetric,
                        )
                    )
        return outputs, (out_h, out_w, cout)

    def _compile_pool(
        self,
        layer,
        values: List[Bus],
        shape: Tuple[int, ...],
        maximum: bool,
    ) -> Tuple[List[Bus], Tuple[int, ...]]:
        fmt = self.fmt
        h, w, c = shape
        k = layer.pool_size
        s = layer.stride
        out_h = (h - k) // s + 1
        out_w = (w - k) // s + 1

        def value_at(row: int, col: int, channel: int) -> Bus:
            return values[(row * w + col) * c + channel]

        outputs: List[Bus] = []
        for row in range(out_h):
            for col in range(out_w):
                for channel in range(c):
                    window = [
                        value_at(row * s + i, col * s + j, channel)
                        for i in range(k)
                        for j in range(k)
                    ]
                    if maximum:
                        outputs.append(max_tree(self.builder, window, signed=True))
                    else:
                        outputs.append(self._mean_window(window))
        return outputs, (out_h, out_w, c)

    def _mean_window(self, window: List[Bus]) -> Bus:
        """Mean pooling: saturated sum then fixed multiply by 1/area."""
        fmt = self.fmt
        total = saturate_to_width(
            self.builder, adder_tree(self.builder, window), fmt.width
        )
        inverse = fmt.encode(1.0 / len(window))
        magnitude, sign = sign_magnitude(self.builder, total, symmetric=True)
        magnitude = magnitude + [self.builder.zero]
        scaled = constant_multiply_positive(
            self.builder, magnitude, inverse, fmt.frac_bits, fmt.width
        )
        return conditional_negate(self.builder, sign, scaled)

    def _compile_activation(self, kind: str, values: List[Bus]) -> List[Bus]:
        return self._same_units(
            values, lambda j: self._activation(kind, values[j])
        )

    def _activation(self, kind: str, bus: Bus) -> Bus:
        fmt = self.fmt
        if kind == "relu":
            return relu_circuit(self.builder, bus)
        choice = self.options.activation
        realizations = VARIANT_CIRCUITS.get(choice)
        if realizations is None:
            raise CompileError(f"unknown activation choice {choice!r}")
        return VARIANTS[realizations[kind]](self.builder, bus, fmt)


def _layer_report(
    circuit: Circuit, survivors: np.ndarray, marks: List[Tuple[str, int]]
) -> List[Tuple[str, int, int, int, int]]:
    """:attr:`CompiledModel.layer_report` of the built netlist: each
    step's rows are the kept gates it emitted (``survivors`` are their
    indices among the gates emitted, ``marks`` each step's end there),
    so the rows add up to the netlist's counts."""
    ends = np.searchsorted(
        survivors, [end for _, end in marks]
    ).tolist()
    non_free = circuit.columns.op >= N_FREE_CODES
    # per gate, the netlist's AND-depth up to and including it
    depth = np.maximum.accumulate(circuit._gate_places() >> SUB_BITS)
    rows = []
    start, entered = 0, 0
    for (label, _), end in zip(marks, ends):
        non_xor = int(np.count_nonzero(non_free[start:end]))
        left = int(depth[end - 1]) if end else 0
        rows.append((label, end - start - non_xor, non_xor, entered, left))
        start, entered = end, left
    return rows


def compile_model(
    qmodel: QuantizedModel, options: Optional[CompileOptions] = None
) -> CompiledModel:
    """Compile a quantized model to a private-inference netlist."""
    return _Compiler(qmodel, options or CompileOptions()).compile()
