"""Synthetic dataset tests: shapes, balance, determinism, structure."""

import numpy as np
import pytest

from repro.data import (
    generate_audio_features,
    generate_digits,
    generate_sensing,
    render_digit,
    train_val_test_split,
)


class TestDigits:
    def test_shapes(self):
        x, y = generate_digits(50)
        assert x.shape == (50, 28, 28, 1)
        assert y.shape == (50,)
        x_flat, _ = generate_digits(50, flat=True)
        assert x_flat.shape == (50, 784)

    def test_pixel_range(self):
        x, _ = generate_digits(30)
        assert x.min() >= 0.0 and x.max() <= 1.0

    def test_class_balance(self):
        _, y = generate_digits(100)
        counts = np.bincount(y, minlength=10)
        assert (counts == 10).all()

    def test_deterministic(self):
        x1, y1 = generate_digits(20, seed=5)
        x2, y2 = generate_digits(20, seed=5)
        assert (x1 == x2).all() and (y1 == y2).all()

    def test_canonical_glyphs_distinct(self):
        rng = np.random.default_rng(0)
        glyphs = [render_digit(d, rng, jitter=0.0).reshape(-1) for d in range(10)]
        for i in range(10):
            for j in range(i + 1, 10):
                assert np.abs(glyphs[i] - glyphs[j]).mean() > 0.01

    def test_classes_linearly_separable_enough(self):
        """A trivial centroid classifier should beat 60% — the data must
        carry class signal for the DL experiments to mean anything."""
        x, y = generate_digits(400, seed=1, flat=True)
        centroids = np.stack([x[y == d].mean(axis=0) for d in range(10)])
        predictions = np.argmin(
            ((x[:, None, :] - centroids[None]) ** 2).sum(-1), axis=1
        )
        assert (predictions == y).mean() > 0.6


class TestAudio:
    def test_shapes_match_isolet(self):
        x, y = generate_audio_features(100)
        assert x.shape == (100, 617)
        assert y.max() == 25

    def test_low_rank_structure(self):
        """The generator promises an ~effective_rank subspace (what Alg. 1
        exploits): energy outside the top-r singular values must be small."""
        x, _ = generate_audio_features(400, effective_rank=60, noise=0.1, seed=2)
        s = np.linalg.svd(x - x.mean(0), compute_uv=False)
        energy = (s ** 2) / (s ** 2).sum()
        assert energy[:80].sum() > 0.85

    def test_algorithm1_compacts_audio(self):
        """Alg. 1 should admit far fewer columns than 617 on this data —
        the premise of the paper's benchmark-3 projection fold."""
        from repro.preprocess import ProjectionConfig, build_projection

        x, _ = generate_audio_features(400, effective_rank=60, seed=3)
        result = build_projection(x, ProjectionConfig(gamma=0.45))
        assert result.rank < 617 / 4

    def test_values_in_fixed_range(self):
        x, _ = generate_audio_features(50)
        assert np.abs(x).max() <= 1.0


class TestSensing:
    def test_shapes_match_dsa(self):
        x, y = generate_sensing(40)
        assert x.shape == (40, 5625)
        assert y.max() == 18

    def test_periodicity_gives_low_rank(self):
        x, _ = generate_sensing(150, seed=4)
        s = np.linalg.svd(x - x.mean(0), compute_uv=False)
        energy = (s ** 2) / (s ** 2).sum()
        assert energy[:120].sum() > 0.9

    def test_deterministic(self):
        x1, _ = generate_sensing(10, seed=9)
        x2, _ = generate_sensing(10, seed=9)
        assert (x1 == x2).all()


class TestUtil:
    def test_split_sizes(self):
        x = np.arange(100).reshape(100, 1).astype(float)
        y = np.arange(100)
        xtr, ytr, xv, yv, xte, yte = train_val_test_split(x, y, 0.2, 0.1, seed=0)
        assert len(xtr) == 70 and len(xv) == 20 and len(xte) == 10
        recovered = sorted(
            np.concatenate([xtr, xv, xte]).reshape(-1).astype(int).tolist()
        )
        assert recovered == list(range(100))

    def test_split_is_a_seeded_shuffle(self):
        x = np.arange(50).reshape(50, 1).astype(float)
        y = np.arange(50)
        first = train_val_test_split(x, y, seed=4)
        again = train_val_test_split(x, y, seed=4)
        other = train_val_test_split(x, y, seed=5)
        assert all((a == b).all() for a, b in zip(first, again))
        assert not (first[1] == other[1]).all()
        for xs, ys in zip(first[0::2], first[1::2]):
            assert (xs[:, 0].astype(int) == ys).all()  # pairs stay together

    def test_split_length_mismatch(self):
        with pytest.raises(ValueError):
            train_val_test_split(np.zeros((5, 1)), np.zeros(4))

