"""Unit tests for t-SNE and clustering metrics."""

import numpy as np
import pytest

from repro.analysis.clustering import centroid_alignment, cosine_silhouette
from repro.analysis.tsne import tsne_embed


def _two_clusters(rng, n_per=15, dim=10, separation=4.0):
    a = rng.standard_normal((n_per, dim)) + separation
    b = rng.standard_normal((n_per, dim)) - separation
    points = np.vstack([a, b])
    labels = np.array([0] * n_per + [1] * n_per)
    return points, labels


class TestTsne:
    def test_output_shape(self, rng):
        points, _ = _two_clusters(rng)
        emb = tsne_embed(points, perplexity=8.0, num_iters=120)
        assert emb.shape == (30, 2)
        assert np.isfinite(emb).all()

    def test_separated_clusters_stay_separated(self, rng):
        points, labels = _two_clusters(rng, separation=6.0)
        emb = tsne_embed(points, perplexity=8.0, num_iters=250, seed=1)
        center_a = emb[labels == 0].mean(axis=0)
        center_b = emb[labels == 1].mean(axis=0)
        # Every point must sit closer to its own cluster's center.
        for point, label in zip(emb, labels):
            own = center_a if label == 0 else center_b
            other = center_b if label == 0 else center_a
            assert np.linalg.norm(point - own) < np.linalg.norm(point - other)

    def test_deterministic_given_seed(self, rng):
        points, _ = _two_clusters(rng)
        a = tsne_embed(points, perplexity=8.0, num_iters=60, seed=5)
        b = tsne_embed(points, perplexity=8.0, num_iters=60, seed=5)
        assert np.allclose(a, b)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            tsne_embed(np.ones((3, 4)), perplexity=5.0)  # too few points
        with pytest.raises(ValueError):
            tsne_embed(np.ones((10, 4)), perplexity=10.0)  # perplexity >= n
        with pytest.raises(ValueError):
            tsne_embed(np.ones(10))  # not 2-D


class TestClusteringMetrics:
    def test_alignment_perfect_when_entry_is_mean(self, rng):
        samples = rng.standard_normal((20, 6)) + 3.0
        labels = np.zeros(20, dtype=int)
        entries = samples.mean(axis=0, keepdims=True)
        assert centroid_alignment(entries, samples, labels) == pytest.approx(1.0)

    def test_alignment_penalizes_offset_entries(self, rng):
        samples = rng.standard_normal((20, 6)) + 3.0
        labels = np.zeros(20, dtype=int)
        good = samples.mean(axis=0, keepdims=True)
        bad = -good
        assert centroid_alignment(good, samples, labels) > centroid_alignment(
            bad, samples, labels
        )

    def test_alignment_requires_samples(self, rng):
        with pytest.raises(ValueError):
            centroid_alignment(np.ones((1, 4)), np.ones((0, 4)), np.array([]))

    def test_silhouette_high_for_tight_clusters(self, rng):
        points, labels = _two_clusters(rng, separation=8.0)
        assert cosine_silhouette(points, labels) > 0.5

    def test_silhouette_low_for_mixed_labels(self, rng):
        points, _ = _two_clusters(rng, separation=8.0)
        shuffled = rng.permutation(np.array([0] * 15 + [1] * 15))
        assert cosine_silhouette(points, shuffled) < 0.2

    def test_silhouette_needs_two_clusters(self, rng):
        points, _ = _two_clusters(rng)
        with pytest.raises(ValueError):
            cosine_silhouette(points, np.zeros(30, dtype=int))

    def test_silhouette_shape_mismatch(self, rng):
        points, _ = _two_clusters(rng)
        with pytest.raises(ValueError):
            cosine_silhouette(points, np.zeros(5, dtype=int))
