"""Compiler tests: bit-exactness against QuantizedModel, sparsity,
gate-count model validity, cost model."""

import numpy as np
import pytest

from repro.circuits import FixedPointFormat, GateCounts, simulate
from repro.compile import (
    CompileOptions,
    GCCostModel,
    PAPER_COMPONENT_COSTS,
    architecture_counts,
    compile_model,
    fc,
    measured_component_costs,
    softmax,
)
from repro.compile.gatecount import Architecture, activation
from repro.errors import CompileError
from repro.nn import (
    Dense,
    Flatten,
    MaxPool2D,
    MeanPool2D,
    Conv2D,
    QuantizedModel,
    ReLU,
    Sequential,
    Sigmoid,
)

FMT9 = FixedPointFormat(2, 6)


def circuit_logits(compiled, sample):
    out_bits = simulate(
        compiled.circuit, compiled.client_bits(sample), compiled.server_bits()
    )
    width = compiled.fmt.width
    logits = []
    for i in range(compiled.n_classes):
        word = 0
        for j, bit in enumerate(out_bits[i * width : (i + 1) * width]):
            word |= bit << j
        logits.append(compiled.fmt.from_unsigned(word))
    return logits


def circuit_label(compiled, sample):
    out_bits = simulate(
        compiled.circuit, compiled.client_bits(sample), compiled.server_bits()
    )
    return compiled.decode_output(out_bits)


class TestBitExactness:
    def test_dense_tanh_cordic(self, tiny_model):
        model, x, _ = tiny_model
        quantized = QuantizedModel(model, FMT9, activation_variant="cordic")
        compiled = compile_model(
            quantized, CompileOptions(activation="cordic", output="logits")
        )
        for k in range(6):
            got = circuit_logits(compiled, x[k])
            ref = quantized.forward_fixed(FMT9.encode_array(x[k][None]))[0]
            assert got == list(ref)

    def test_dense_tanh_exact_lut(self, tiny_model):
        model, x, _ = tiny_model
        quantized = QuantizedModel(model, FMT9, activation_variant="exact")
        compiled = compile_model(
            quantized, CompileOptions(activation="exact", output="logits")
        )
        for k in range(6):
            got = circuit_logits(compiled, x[k])
            ref = quantized.forward_fixed(FMT9.encode_array(x[k][None]))[0]
            assert got == list(ref)

    def test_argmax_output(self, tiny_model):
        model, x, _ = tiny_model
        quantized = QuantizedModel(model, FMT9, activation_variant="exact")
        compiled = compile_model(
            quantized, CompileOptions(activation="exact", output="argmax")
        )
        for k in range(8):
            assert circuit_label(compiled, x[k]) == int(
                quantized.predict(x[k][None])[0]
            )

    def test_sigmoid_network(self, nprng):
        model = Sequential(
            [Dense(5), Sigmoid(), Dense(3)], input_shape=(6,), seed=3
        )
        quantized = QuantizedModel(model, FMT9, activation_variant="exact")
        compiled = compile_model(
            quantized, CompileOptions(activation="exact", output="logits")
        )
        for _ in range(4):
            sample = nprng.uniform(-1, 1, size=6)
            got = circuit_logits(compiled, sample)
            ref = quantized.forward_fixed(FMT9.encode_array(sample[None]))[0]
            assert got == list(ref)

    def test_relu_with_bias(self, nprng):
        model = Sequential(
            [Dense(4, use_bias=True), ReLU(), Dense(3, use_bias=True)],
            input_shape=(5,),
            seed=2,
        )
        model.layers[0].bias[:] = nprng.uniform(-0.5, 0.5, size=4)
        quantized = QuantizedModel(model, FMT9)
        compiled = compile_model(quantized, CompileOptions(output="logits"))
        for _ in range(4):
            sample = nprng.uniform(-1, 1, size=5)
            got = circuit_logits(compiled, sample)
            ref = quantized.forward_fixed(FMT9.encode_array(sample[None]))[0]
            assert got == list(ref)

    def test_conv_maxpool_network(self, nprng):
        model = Sequential(
            [Conv2D(2, kernel_size=2, stride=1), ReLU(), MaxPool2D(2),
             Flatten(), Dense(3)],
            input_shape=(5, 5, 1),
            seed=4,
        )
        quantized = QuantizedModel(model, FMT9)
        compiled = compile_model(quantized, CompileOptions(output="logits"))
        for _ in range(3):
            sample = nprng.uniform(0, 1, size=(5, 5, 1))
            got = circuit_logits(compiled, sample)
            ref = quantized.forward_fixed(
                FMT9.encode_array(sample[None])
            ).reshape(-1)
            assert got == list(ref)

    def test_meanpool_network(self, nprng):
        model = Sequential(
            [MeanPool2D(2), Flatten(), Dense(2)], input_shape=(4, 4, 1), seed=5
        )
        quantized = QuantizedModel(model, FMT9)
        compiled = compile_model(quantized, CompileOptions(output="logits"))
        for _ in range(3):
            sample = nprng.uniform(-1, 1, size=(4, 4, 1))
            got = circuit_logits(compiled, sample)
            ref = quantized.forward_fixed(
                FMT9.encode_array(sample[None])
            ).reshape(-1)
            assert got == list(ref)


class TestSparsity:
    def test_pruned_weights_produce_no_gates(self, tiny_model):
        model, _, _ = tiny_model
        dense_full = compile_model(
            QuantizedModel(model, FMT9), CompileOptions(activation="exact")
        )
        pruned = model.clone()
        rng = np.random.default_rng(0)
        mask = (rng.uniform(size=pruned.layers[0].weights.shape) > 0.5).astype(float)
        mask[:, mask.sum(axis=0) == 0] = 1.0
        pruned.layers[0].mask = mask
        pruned.layers[0].weights *= mask
        sparse = compile_model(
            QuantizedModel(pruned, FMT9), CompileOptions(activation="exact")
        )
        assert sparse.circuit.counts().non_xor < dense_full.circuit.counts().non_xor
        assert len(sparse.weight_values) < len(dense_full.weight_values)

    def test_sparse_circuit_still_correct(self, tiny_model):
        model, x, _ = tiny_model
        pruned = model.clone()
        rng = np.random.default_rng(1)
        mask = (rng.uniform(size=pruned.layers[0].weights.shape) > 0.4).astype(float)
        mask[:, mask.sum(axis=0) == 0] = 1.0
        pruned.layers[0].mask = mask
        quantized = QuantizedModel(pruned, FMT9, activation_variant="exact")
        compiled = compile_model(
            quantized, CompileOptions(activation="exact", output="logits")
        )
        for k in range(4):
            got = circuit_logits(compiled, x[k])
            ref = quantized.forward_fixed(FMT9.encode_array(x[k][None]))[0]
            assert got == list(ref)


class TestOptionsAndErrors:
    def test_unknown_activation_rejected(self, tiny_model):
        model, _, _ = tiny_model
        with pytest.raises(CompileError):
            compile_model(
                QuantizedModel(model, FMT9), CompileOptions(activation="bogus")
            )

    def test_unknown_output_rejected(self, tiny_model):
        model, _, _ = tiny_model
        with pytest.raises(CompileError):
            compile_model(
                QuantizedModel(model, FMT9),
                CompileOptions(activation="exact", output="bogus"),
            )

    def test_wrong_feature_count_rejected(self, tiny_model):
        model, _, _ = tiny_model
        compiled = compile_model(
            QuantizedModel(model, FMT9), CompileOptions(activation="exact")
        )
        with pytest.raises(CompileError):
            compiled.client_bits(np.zeros(5))

    def test_decode_requires_argmax(self, tiny_model):
        model, _, _ = tiny_model
        compiled = compile_model(
            QuantizedModel(model, FMT9),
            CompileOptions(activation="exact", output="logits"),
        )
        with pytest.raises(CompileError):
            compiled.decode_output([0, 1])


class TestGateCountModel:
    def test_paper_table4_rows(self):
        """The analytic model with Table 3 costs reproduces Table 4."""
        from repro.compile import PAPER_TABLE4
        from repro.zoo import PAPER_ARCHITECTURES

        for name, arch in PAPER_ARCHITECTURES.items():
            counts = architecture_counts(arch, PAPER_COMPONENT_COSTS)
            _, xor_ref, nxor_ref, *_ = PAPER_TABLE4[name]
            assert abs(counts.xor - xor_ref) / xor_ref < 0.01, name
            assert abs(counts.non_xor - nxor_ref) / nxor_ref < 0.01, name

    def test_paper_table5_rows(self):
        from repro.compile import PAPER_TABLE5
        from repro.zoo import PAPER_ARCHITECTURES, PAPER_FOLDS

        for name, arch in PAPER_ARCHITECTURES.items():
            fold = PAPER_FOLDS[name]
            counts = architecture_counts(arch, mac_fold=fold)
            nxor_ref = PAPER_TABLE5[name][2]
            assert abs(counts.non_xor - nxor_ref) / nxor_ref < 0.05, name

    def test_measured_costs_predict_compiled_circuit(self, tiny_model):
        """The analytic model with measured component costs must land
        within 5% of an actually compiled netlist."""
        model, _, _ = tiny_model
        fmt = FixedPointFormat(3, 12)
        quantized = QuantizedModel(model, fmt)
        compiled = compile_model(
            quantized, CompileOptions(activation="cordic", output="argmax")
        )
        actual = compiled.circuit.counts().non_xor
        costs = measured_component_costs(3, 12)
        arch = Architecture(
            name="tiny",
            layers=(
                fc(12, 8), activation("tanh", 8), fc(8, 4), softmax(4),
            ),
        )
        predicted = architecture_counts(arch, costs).non_xor
        assert abs(predicted - actual) / actual < 0.05


class TestCostModel:
    def test_communication_formula(self):
        model = GCCostModel()
        counts = GateCounts(xor=0, non_xor=1000)
        assert model.communication_bytes(counts) == 32000

    def test_computation_formula(self):
        model = GCCostModel()
        counts = GateCounts(xor=3_400_000, non_xor=0)
        # 3.4M XOR at 62 clks / 3.4 GHz = 62 ms
        assert model.computation_seconds(counts) == pytest.approx(0.062)

    def test_execution_effective_throughput(self):
        model = GCCostModel()
        counts = GateCounts(xor=0, non_xor=2_560_000)
        assert model.execution_seconds(counts) == pytest.approx(1.0)

    def test_breakdown_is_the_three_formulas(self):
        model = GCCostModel()
        counts = GateCounts(xor=3_400_000, non_xor=2_560_000)
        row = model.breakdown(counts)
        assert (row.xor, row.non_xor) == (counts.xor, counts.non_xor)
        assert row.comm_bytes == model.communication_bytes(counts)
        assert row.comm_mb == pytest.approx(81.92)  # the paper's MB: 10^6 bytes
        assert row.computation_s == model.computation_seconds(counts)
        assert row.execution_s == pytest.approx(1.0)
