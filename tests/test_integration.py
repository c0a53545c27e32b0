"""End-to-end integration: the full DeepSecure story on one stack.

train -> (preprocess) -> quantize -> compile -> garble -> OT -> evaluate
-> merge, asserting the private inference equals the cleartext one, in
direct, sequential and outsourced modes.
"""

import random

import numpy as np
import pytest

from repro.circuits import FixedPointFormat, simulate
from repro.compile import CompileOptions, compile_model
from repro.gc import OutsourcedSession, execute
from repro.nn import (
    Dense,
    QuantizedModel,
    Sequential,
    Tanh,
    TrainConfig,
    Trainer,
)
from repro.preprocess import ProjectionConfig, preprocess_model

FMT9 = FixedPointFormat(2, 6)


@pytest.fixture(scope="module")
def task():
    rng = np.random.default_rng(11)
    x = rng.uniform(-1, 1, size=(600, 10))
    w = rng.normal(size=(10, 3))
    y = (x @ w).argmax(axis=1)
    return x, y


@pytest.fixture(scope="module")
def trained(task):
    x, y = task
    model = Sequential([Dense(6), Tanh(), Dense(3)], input_shape=(10,), seed=3)
    Trainer(model, TrainConfig(epochs=20, learning_rate=0.2)).fit(x, y)
    return model


class TestPrivateInference:
    def test_gc_label_equals_cleartext(self, trained, task, ot_group):
        x, _ = task
        quantized = QuantizedModel(trained, FMT9, activation_variant="exact")
        compiled = compile_model(
            quantized, CompileOptions(activation="exact", output="argmax")
        )
        rng = random.Random(0)
        server_bits = compiled.server_bits()
        for k in range(3):
            result = execute(
                compiled.circuit,
                compiled.client_bits(x[k]),
                server_bits,
                ot_group=ot_group,
                rng=rng,
            )
            label = compiled.decode_output(result.outputs)
            assert label == int(quantized.predict(x[k][None])[0])

    def test_comm_dominated_by_tables(self, trained, task, ot_group):
        x, _ = task
        quantized = QuantizedModel(trained, FMT9, activation_variant="exact")
        compiled = compile_model(
            quantized, CompileOptions(activation="exact", output="argmax")
        )
        result = execute(
            compiled.circuit,
            compiled.client_bits(x[0]),
            compiled.server_bits(),
            ot_group=ot_group,
            rng=random.Random(1),
        )
        # paper Sec. 3.2: table transfer dominates communication
        assert result.comm["tables"] > 0.5 * result.total_comm_bytes
        assert result.comm["tables"] == 32 * result.n_non_xor + 4

    def test_outsourced_inference_matches(self, trained, task, ot_group):
        x, _ = task
        quantized = QuantizedModel(trained, FMT9, activation_variant="exact")
        compiled = compile_model(
            quantized, CompileOptions(activation="exact", output="argmax")
        )
        session = OutsourcedSession(
            compiled.circuit, ot_group=ot_group, rng=random.Random(2)
        )
        result = session.run(compiled.client_bits(x[0]), compiled.server_bits())
        label = compiled.decode_output(result.outputs)
        assert label == int(quantized.predict(x[0][None])[0])


class TestPreprocessedPrivateInference:
    def test_condensed_model_private_inference(self, task, ot_group):
        """The full Fig. 2 flow: project + prune, retrain, compile the
        condensed model, run GC — label matches the condensed cleartext
        model and accuracy stays near the original."""
        x, y = task
        xt, yt, xv, yv = x[:450], y[:450], x[450:], y[450:]
        model = Sequential([Dense(6), Tanh(), Dense(3)], input_shape=(10,), seed=3)
        Trainer(model, TrainConfig(epochs=20, learning_rate=0.2)).fit(xt, yt)
        report = preprocess_model(
            model, xt, yt, xv, yv,
            projection_config=ProjectionConfig(gamma=0.25, batch_size=1000),
            prune_sparsity=0.4,
            retrain_config=TrainConfig(epochs=15, learning_rate=0.2),
        )
        assert report.fold > 1.2
        assert report.accuracy_condensed >= report.accuracy_original - 0.08

        quantized = QuantizedModel(
            report.condensed, FMT9, activation_variant="exact"
        )
        compiled = compile_model(
            quantized, CompileOptions(activation="exact", output="argmax")
        )
        embedded = report.projection.embed(xv[:2])
        for k in range(2):
            result = execute(
                compiled.circuit,
                compiled.client_bits(embedded[k]),
                compiled.server_bits(),
                ot_group=ot_group,
                rng=random.Random(k),
            )
            label = compiled.decode_output(result.outputs)
            assert label == int(quantized.predict(embedded[k][None])[0])

    def test_preprocessing_shrinks_circuit(self, task):
        x, y = task
        xt, yt, xv, yv = x[:450], y[:450], x[450:], y[450:]
        model = Sequential([Dense(6), Tanh(), Dense(3)], input_shape=(10,), seed=3)
        Trainer(model, TrainConfig(epochs=15, learning_rate=0.2)).fit(xt, yt)
        dense_circuit = compile_model(
            QuantizedModel(model, FMT9, activation_variant="exact"),
            CompileOptions(activation="exact"),
        ).circuit
        report = preprocess_model(
            model, xt, yt, xv, yv,
            projection_config=ProjectionConfig(gamma=0.3, batch_size=1000),
            prune_sparsity=0.5,
            retrain_config=TrainConfig(epochs=10, learning_rate=0.2),
        )
        condensed_circuit = compile_model(
            QuantizedModel(report.condensed, FMT9, activation_variant="exact"),
            CompileOptions(activation="exact"),
        ).circuit
        assert (
            condensed_circuit.counts().non_xor < dense_circuit.counts().non_xor
        )


class TestAccuracyRetention:
    def test_gc_pipeline_accuracy(self, trained, task):
        """Simulated (not garbled, for speed) circuit inference over many
        samples tracks the float model — 'no drop in accuracy'."""
        x, y = task
        quantized = QuantizedModel(trained, FMT9, activation_variant="exact")
        compiled = compile_model(
            quantized, CompileOptions(activation="exact", output="argmax")
        )
        server_bits = compiled.server_bits()
        float_preds = trained.predict(x[:40])
        agree = 0
        for k in range(40):
            bits = simulate(
                compiled.circuit, compiled.client_bits(x[k]), server_bits
            )
            agree += int(compiled.decode_output(bits) == float_preds[k])
        assert agree >= 36  # >= 90% agreement with the float model
