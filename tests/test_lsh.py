"""Unit + property tests for the A-LSH index and H-kNN voting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsh.alsh import AdaptiveLSH
from repro.lsh.hknn import homogenized_knn


def _unit_rows(rng, n, d):
    mat = rng.standard_normal((n, d))
    return mat / np.linalg.norm(mat, axis=1, keepdims=True)


class TestAdaptiveLSH:
    def test_insert_and_query_same_vector(self, rng):
        index = AdaptiveLSH(dim=8, rng=rng)
        vec = _unit_rows(rng, 1, 8)[0]
        item = index.insert(vec)
        assert item in index.query(vec)

    def test_similar_vectors_share_bucket(self, rng):
        index = AdaptiveLSH(dim=16, rng=rng, base_bits=4)
        base = _unit_rows(rng, 1, 16)[0]
        ids = [index.insert(base + 0.01 * rng.standard_normal(16)) for _ in range(5)]
        found = index.query(base)
        assert set(ids).issubset(set(found))

    def test_len_counts_live_entries(self, rng):
        index = AdaptiveLSH(dim=8, rng=rng)
        a = index.insert(_unit_rows(rng, 1, 8)[0])
        index.insert(_unit_rows(rng, 1, 8)[0])
        assert len(index) == 2
        index.delete(a)
        assert len(index) == 1

    def test_deleted_entries_not_returned(self, rng):
        index = AdaptiveLSH(dim=8, rng=rng)
        vec = _unit_rows(rng, 1, 8)[0]
        item = index.insert(vec)
        index.delete(item)
        assert item not in index.query(vec)

    def test_delete_unknown_id_rejected(self, rng):
        index = AdaptiveLSH(dim=8, rng=rng)
        with pytest.raises(KeyError):
            index.delete(3)

    def test_buckets_split_under_density(self, rng):
        index = AdaptiveLSH(dim=8, rng=rng, base_bits=2, max_bucket_size=4)
        cluster = _unit_rows(rng, 1, 8)[0]
        for _ in range(40):
            index.insert(cluster + 0.3 * rng.standard_normal(8))
        # With max bucket size 4 and 40 clustered points, splits happened.
        assert index.num_buckets > 4

    def test_query_cost_bounded_by_split(self, rng):
        index = AdaptiveLSH(dim=8, rng=rng, base_bits=2, max_bucket_size=8, max_bits=12)
        vectors = _unit_rows(rng, 200, 8)
        for vec in vectors:
            index.insert(vec)
        sizes = [len(index.query(vec)) for vec in vectors[:50]]
        assert np.mean(sizes) < 80  # far below scanning all 200

    def test_dimension_checked(self, rng):
        index = AdaptiveLSH(dim=8, rng=rng)
        with pytest.raises(ValueError):
            index.insert(np.ones(5))
        with pytest.raises(ValueError):
            index.query(np.ones(5))

    def test_constructor_validation(self, rng):
        with pytest.raises(ValueError):
            AdaptiveLSH(dim=0, rng=rng)
        with pytest.raises(ValueError):
            AdaptiveLSH(dim=8, rng=rng, base_bits=10, max_bits=5)
        with pytest.raises(ValueError):
            AdaptiveLSH(dim=8, rng=rng, max_bucket_size=0)
        with pytest.raises(ValueError):
            AdaptiveLSH(dim=8, rng=rng, max_bits=65)  # codes are one uint64

    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=20, deadline=None)
    def test_all_live_entries_findable(self, seed):
        rng = np.random.default_rng(seed)
        index = AdaptiveLSH(dim=8, rng=rng, base_bits=3, max_bucket_size=6)
        vectors = _unit_rows(rng, 60, 8)
        ids = [index.insert(v) for v in vectors]
        for item, vec in zip(ids, vectors):
            assert item in index.query(vec)


class TestHomogenizedKnn:
    def test_unanimous_neighbourhood_hits(self, rng):
        center = _unit_rows(rng, 1, 8)[0]
        vectors = center + 0.05 * rng.standard_normal((8, 8))
        labels = np.full(8, 3)
        vote = homogenized_knn(center, vectors, labels, k=8, threshold=0.9)
        assert vote.hit
        assert vote.label == 3
        assert vote.homogeneity == pytest.approx(1.0)

    def test_mixed_neighbourhood_misses(self, rng):
        center = _unit_rows(rng, 1, 8)[0]
        vectors = center + 0.05 * rng.standard_normal((8, 8))
        labels = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        vote = homogenized_knn(center, vectors, labels, k=8, threshold=0.9)
        assert not vote.hit

    def test_insufficient_candidates_miss(self, rng):
        center = _unit_rows(rng, 1, 8)[0]
        vectors = np.stack([center, center])
        vote = homogenized_knn(center, vectors, np.array([1, 1]), k=8)
        assert not vote.hit
        assert vote.num_candidates == 2

    def test_empty_candidates_miss(self):
        vote = homogenized_knn(np.ones(4), np.zeros((0, 4)), np.zeros(0), k=3)
        assert not vote.hit
        assert vote.label == -1

    def test_min_similarity_filters_far_neighbours(self, rng):
        """A homogeneous but *distant* neighbourhood must not vote."""
        center = np.eye(8)[0]
        far = np.tile(np.eye(8)[1], (8, 1)) + 0.01 * rng.standard_normal((8, 8))
        labels = np.full(8, 2)
        loose = homogenized_knn(center, far, labels, k=8, threshold=0.8)
        strict = homogenized_knn(
            center, far, labels, k=8, threshold=0.8, min_similarity=0.7
        )
        assert loose.hit  # without the distance criterion it would reuse
        assert not strict.hit

    def test_centering_recovers_structure(self, rng):
        """With a large common component, centering separates classes."""
        common = 5.0 * np.ones(8) / np.sqrt(8)
        a_center = common + np.eye(8)[0]
        b_center = common + np.eye(8)[1]
        vectors = np.vstack(
            [
                a_center + 0.05 * rng.standard_normal((6, 8)),
                b_center + 0.05 * rng.standard_normal((6, 8)),
            ]
        )
        labels = np.array([0] * 6 + [1] * 6)
        query = a_center
        centered = homogenized_knn(
            query, vectors, labels, k=6, threshold=0.9, center=vectors.mean(axis=0)
        )
        assert centered.hit
        assert centered.label == 0

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            homogenized_knn(np.ones(4), np.ones((2, 4)), np.ones(3), k=2)
        with pytest.raises(ValueError):
            homogenized_knn(np.ones(4), np.ones((2, 4)), np.ones(2), k=0)
        with pytest.raises(ValueError):
            homogenized_knn(np.ones(4), np.ones((2, 4)), np.ones(2), threshold=0.0)

    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=20, deadline=None)
    def test_homogeneity_bounded(self, seed):
        rng = np.random.default_rng(seed)
        vectors = _unit_rows(rng, 12, 6)
        labels = rng.integers(0, 3, 12)
        vote = homogenized_knn(_unit_rows(rng, 1, 6)[0], vectors, labels, k=5)
        assert 0.0 <= vote.homogeneity <= 1.0


class TestStorageReclamation:
    def test_heavy_deletion_compacts_automatically(self, rng):
        """Once dead rows outnumber live ones, storage compacts on its
        own — and surviving ids stay valid."""
        index = AdaptiveLSH(dim=8, rng=rng, base_bits=3, max_bucket_size=8)
        vectors = _unit_rows(rng, 120, 8)
        ids = [index.insert(vec) for vec in vectors]
        peak = index.storage_rows
        for item in ids[:100]:
            index.delete(item)
        assert index.storage_rows < peak
        assert len(index) == 20
        for item, vec in zip(ids[100:], vectors[100:]):
            assert item in index.query(vec)
            assert np.allclose(index.vector(item), vec)

    def test_delete_is_idempotent(self, rng):
        index = AdaptiveLSH(dim=8, rng=rng)
        item = index.insert(_unit_rows(rng, 1, 8)[0])
        index.delete(item)
        index.delete(item)  # no-op, no error
        assert len(index) == 0
