"""Model container and trainer tests."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.nn import (
    SGD,
    Adam,
    Dense,
    Sequential,
    Tanh,
    TrainConfig,
    Trainer,
    accuracy,
    softmax,
    softmax_cross_entropy,
)


def blobs(n=300, seed=0):
    rng = np.random.default_rng(seed)
    centers = np.array([[2, 0], [-2, 0], [0, 2]])
    labels = rng.integers(0, 3, size=n)
    x = centers[labels] + rng.normal(scale=0.4, size=(n, 2))
    return x, labels


class TestSequentialModel:
    def test_forward_shapes(self):
        model = Sequential([Dense(5), Tanh(), Dense(3)], input_shape=(4,))
        assert model.output_shape == (3,)
        assert model.forward(np.zeros((7, 4))).shape == (7, 3)

    def test_mac_count(self):
        model = Sequential([Dense(50), Tanh(), Dense(26)], input_shape=(617,))
        assert model.mac_count() == 617 * 50 + 50 * 26

    def test_parameter_count_lenet(self):
        # paper Sec. 4.5: LeNet-300-100 has ~267K parameters
        from repro.nn import Sigmoid

        model = Sequential(
            [Dense(300), Sigmoid(), Dense(100), Sigmoid(), Dense(10)],
            input_shape=(784,),
        )
        count = sum(p.size for p in model.parameters())
        assert model.mac_count() == 784 * 300 + 300 * 100 + 100 * 10
        assert abs(count - 267_000) < 1_500
        # bias-free dense layers: one weight per multiply-accumulate
        assert len(model.parameters()) == 3
        assert count == model.mac_count()

    def test_predict_is_the_softmax_argmax(self):
        model = Sequential([Dense(4), Tanh(), Dense(3)], input_shape=(2,), seed=3)
        x = np.random.default_rng(1).normal(size=(50, 2))
        probs = softmax(model.forward(x))
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert (model.predict(x) == probs.argmax(axis=1)).all()

    def test_clone_is_independent(self):
        model = Sequential([Dense(2)], input_shape=(2,), seed=1)
        clone = model.clone()
        clone.layers[0].weights += 1.0
        assert not np.allclose(model.layers[0].weights, clone.layers[0].weights)

    def test_architecture_string(self):
        model = Sequential(
            [Dense(50), Tanh(), Dense(26)], input_shape=(617,)
        )
        assert model.architecture_string() == "617-50FC-Tanh-26FC"


class TestLossesAndMetrics:
    def test_softmax_normalizes(self):
        probs = softmax(np.array([[1.0, 2.0, 3.0]]))
        assert probs.sum() == pytest.approx(1.0)
        assert probs.argmax() == 2

    def test_cross_entropy_gradient_direction(self):
        logits = np.zeros((1, 3))
        loss, grad = softmax_cross_entropy(logits, np.array([1]))
        assert loss == pytest.approx(np.log(3))
        assert grad[0, 1] < 0 < grad[0, 0]

    def test_accuracy(self):
        pred = np.array([0, 1, 2, 2])
        true = np.array([0, 1, 1, 2])
        assert accuracy(pred, true) == 0.75

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.array([1, 2]), np.array([1]))


class TestTrainer:
    def test_learns_blobs(self):
        x, y = blobs()
        model = Sequential([Dense(8), Tanh(), Dense(3)], input_shape=(2,), seed=0)
        history = Trainer(model, TrainConfig(epochs=20, learning_rate=0.1)).fit(x, y)
        assert history.train_error[-1] < 0.05
        assert history.loss[-1] < history.loss[0]

    def test_early_stopping(self):
        x, y = blobs()
        config = TrainConfig(epochs=200, learning_rate=0.1, patience=2)
        model = Sequential([Dense(8), Tanh(), Dense(3)], input_shape=(2,), seed=0)
        history = Trainer(model, config).fit(x, y, x, y)
        assert len(history.loss) < 200

    def test_adam_optimizer(self):
        x, y = blobs()
        model = Sequential([Dense(8), Tanh(), Dense(3)], input_shape=(2,), seed=0)
        Trainer(model, TrainConfig(epochs=25), optimizer=Adam(0.01)).fit(x, y)
        assert accuracy(model.predict(x), y) > 0.9

    def test_update_hooks(self):
        """The Alg. 1 hooks: one batch step and a validation read."""
        x, y = blobs(100)
        model = Sequential([Dense(4), Tanh(), Dense(3)], input_shape=(2,), seed=0)
        trainer = Trainer(model, TrainConfig(learning_rate=0.05))
        before = trainer.update_validation_error(x, y)
        for _ in range(40):
            trainer.update_dl(x, y)
        after = trainer.update_validation_error(x, y)
        assert after < before

    def test_length_mismatch_rejected(self):
        model = Sequential([Dense(2)], input_shape=(2,))
        with pytest.raises(TrainingError):
            Trainer(model).fit(np.zeros((3, 2)), np.zeros(2, dtype=int))

    def test_sgd_momentum_accumulates(self):
        param = np.array([1.0])
        sgd = SGD(learning_rate=0.1, momentum=0.9)
        sgd.step([param], [np.array([1.0])])
        first = param.copy()
        sgd.step([param], [np.array([1.0])])
        assert (1.0 - first[0]) < (first[0] - param[0])  # velocity grows
