"""Pre-processing tests: Algorithm 1 projection, pruning, the pipeline,
and the Proposition 3.1 security properties."""

import dataclasses

import numpy as np
import pytest

from repro.data import generate_audio_features
from repro.errors import PreprocessError
from repro.nn import Dense, Sequential, Tanh, TrainConfig, Trainer
from repro.preprocess import (
    ProjectionConfig,
    build_projection,
    condense_architecture,
    preprocess_model,
    prune_model,
)


def low_rank_data(n=200, dim=40, rank=8, seed=0, noise=0.02):
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.normal(size=(dim, rank)))[0]
    coords = rng.normal(size=(n, rank))
    return coords @ basis.T + rng.normal(size=(n, dim)) * noise


class TestAlgorithm1:
    def test_rank_tracks_data_rank(self):
        data = low_rank_data(rank=8)
        result = build_projection(data, ProjectionConfig(gamma=0.3))
        assert 8 <= result.rank <= 14

    def test_gamma_monotone(self):
        data = low_rank_data(rank=12, noise=0.05)
        loose = build_projection(data, ProjectionConfig(gamma=0.5)).rank
        tight = build_projection(data, ProjectionConfig(gamma=0.1)).rank
        assert tight >= loose

    def test_max_rank_cap(self):
        data = low_rank_data(rank=20, noise=0.1)
        result = build_projection(
            data, ProjectionConfig(gamma=0.05, max_rank=5)
        )
        assert result.rank == 5

    def test_embeddings_reconstruct(self):
        data = low_rank_data(noise=0.0)
        result = build_projection(data, ProjectionConfig(gamma=0.2))
        reconstructed = result.embeddings @ result.dictionary.T
        rel = np.linalg.norm(reconstructed - data) / np.linalg.norm(data)
        assert rel < 0.25

    def test_retraining_hooks_called(self):
        data = low_rank_data(n=128)
        calls = []
        build_projection(
            data,
            ProjectionConfig(gamma=0.3, batch_size=32),
            update_dl=lambda C, idx: calls.append(len(idx)),
            update_validation_error=lambda: 0.5,
        )
        assert calls == [32, 64, 96, 128]

    def test_all_rejected_raises(self):
        data = np.zeros((10, 4))
        with pytest.raises(PreprocessError):
            build_projection(data, ProjectionConfig(gamma=0.5))

    def test_non_2d_rejected(self):
        with pytest.raises(PreprocessError):
            build_projection(np.zeros((4, 4, 4)))


class TestProposition31:
    """W = D D^+ reveals only the column space: W = U U^T, idempotent,
    symmetric — the paper's security proof, checked numerically."""

    @pytest.mark.parametrize("seed", range(4))
    def test_w_equals_uut(self, seed):
        data = low_rank_data(seed=seed)
        result = build_projection(data, ProjectionConfig(gamma=0.3))
        w = result.projection
        u = result.basis
        assert np.allclose(w, u @ u.T, atol=1e-6)

    @pytest.mark.parametrize("seed", range(3))
    def test_w_idempotent_and_symmetric(self, seed):
        data = low_rank_data(seed=seed + 10)
        w = build_projection(data, ProjectionConfig(gamma=0.3)).projection
        assert np.allclose(w @ w, w, atol=1e-5)
        assert np.allclose(w, w.T, atol=1e-8)

    def test_dictionary_not_recoverable_from_w(self):
        """Infinitely many dictionaries share the same W: rotating D's
        columns leaves W unchanged."""
        data = low_rank_data(seed=3)
        result = build_projection(data, ProjectionConfig(gamma=0.3))
        rng = np.random.default_rng(0)
        rotation = np.linalg.qr(rng.normal(size=(result.rank, result.rank)))[0]
        rotated = result.dictionary @ rotation
        gram = rotated.T @ rotated
        w_rotated = rotated @ np.linalg.inv(gram + 1e-10 * np.eye(len(gram))) @ rotated.T
        assert np.allclose(w_rotated, result.projection, atol=1e-5)

    def test_embed_equivalent_to_project(self):
        """U^T x carries the same information as W x (W x = U (U^T x))."""
        data = low_rank_data(seed=4)
        result = build_projection(data, ProjectionConfig(gamma=0.3))
        x = data[:5]
        assert np.allclose(result.embed(x) @ result.basis.T, x @ result.projection.T, atol=1e-6)


class TestPruning:
    @pytest.fixture()
    def trained(self):
        x, y = generate_audio_features(800, seed=1)
        model = Sequential([Dense(30), Tanh(), Dense(26)], input_shape=(617,), seed=0)
        Trainer(model, TrainConfig(epochs=8, learning_rate=0.05)).fit(x, y)
        return model, x, y

    def test_sparsity_achieved(self, trained):
        model, x, y = trained
        report = prune_model(model.clone(), 0.6)
        for sparsity in report.per_layer_sparsity:
            assert 0.55 <= sparsity <= 0.65

    def test_fold_reflects_sparsity(self, trained):
        model, x, y = trained
        pruned = model.clone()
        report = prune_model(pruned, 0.5)
        assert 1.8 <= report.macs_before / report.macs_after <= 2.3

    def test_accuracy_retained_after_retraining(self, trained):
        model, x, y = trained
        pruned = model.clone()
        report = prune_model(
            pruned, 0.5, x, y, x, y,
            retrain_config=TrainConfig(epochs=4, learning_rate=0.05),
        )
        assert report.accuracy_after >= report.accuracy_before - 0.05

    def test_outputs_protected(self, trained):
        model, _, _ = trained
        pruned = model.clone()
        prune_model(pruned, 0.95)
        for layer in [layer for layer in pruned.layers if isinstance(layer, Dense)]:
            assert (layer.mask.sum(axis=0) >= 1).all()

    def test_invalid_sparsity_rejected(self, trained):
        model, _, _ = trained
        with pytest.raises(PreprocessError):
            prune_model(model.clone(), 1.5)


class TestPipeline:
    def test_end_to_end_fold_and_accuracy(self):
        x, y = generate_audio_features(1200, seed=2)
        xt, yt, xv, yv = x[:900], y[:900], x[900:], y[900:]
        model = Sequential([Dense(40), Tanh(), Dense(26)], input_shape=(617,), seed=1)
        Trainer(model, TrainConfig(epochs=8, learning_rate=0.05)).fit(xt, yt)
        report = preprocess_model(
            model, xt, yt, xv, yv,
            projection_config=ProjectionConfig(gamma=0.45, batch_size=2000),
            prune_sparsity=0.5,
            retrain_config=TrainConfig(epochs=6, learning_rate=0.05),
        )
        assert report.fold > 3.0
        assert report.accuracy_condensed >= report.accuracy_original - 0.05
        assert report.condensed.input_shape == (report.projection.rank,)

    def test_report_fold_and_accuracy_drop(self):
        from repro.preprocess import PreprocessReport

        model = Sequential([Dense(2)], input_shape=(3,))
        report = PreprocessReport(
            projection=None, prune=None, condensed=model,
            macs_dense=31_150, macs_condensed=3_115,
            accuracy_original=0.9, accuracy_condensed=0.875,
        )
        assert report.fold == pytest.approx(10.0)
        assert report.accuracy_drop == pytest.approx(0.025)
        # a fully pruned model cannot divide by zero
        empty = dataclasses.replace(report, macs_condensed=0)
        assert empty.fold == 31_150

    def test_condense_architecture_shape(self):
        model = Sequential([Dense(50), Tanh(), Dense(26)], input_shape=(617,))
        condensed = condense_architecture(model, 64)
        assert condensed.input_shape == (64,)
        assert condensed.layers[0].units == 50

    def test_condense_rejects_conv(self):
        from repro.nn import Conv2D, Flatten

        model = Sequential(
            [Conv2D(2, 3), Flatten(), Dense(4)], input_shape=(8, 8, 1)
        )
        with pytest.raises(PreprocessError):
            condense_architecture(model, 10)
