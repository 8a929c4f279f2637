"""Unit + property tests for non-IID and long-tail constructions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.partition import (
    apply_longtail,
    dirichlet_class_distribution,
    dirichlet_partition,
    head_mass,
    longtail_weights,
)


class TestDirichlet:
    def test_iid_level_is_uniform(self, rng):
        probs = dirichlet_class_distribution(10, 0.0, rng)
        assert np.allclose(probs, 0.1)

    def test_returns_probability_vector(self, rng):
        probs = dirichlet_class_distribution(20, 2.0, rng)
        assert probs.shape == (20,)
        assert probs.sum() == pytest.approx(1.0)
        assert np.all(probs > 0)

    def test_higher_level_concentrates_mass(self):
        rng = np.random.default_rng(0)
        mild = [
            head_mass(dirichlet_class_distribution(50, 1.0, rng)) for _ in range(30)
        ]
        harsh = [
            head_mass(dirichlet_class_distribution(50, 10.0, rng)) for _ in range(30)
        ]
        assert np.mean(harsh) > np.mean(mild)

    def test_partition_shape(self, rng):
        dists = dirichlet_partition(12, 5, 1.0, rng)
        assert dists.shape == (5, 12)
        assert np.allclose(dists.sum(axis=1), 1.0)

    def test_rejects_bad_args(self, rng):
        with pytest.raises(ValueError):
            dirichlet_class_distribution(0, 1.0, rng)
        with pytest.raises(ValueError):
            dirichlet_class_distribution(5, -1.0, rng)
        with pytest.raises(ValueError):
            dirichlet_partition(5, 0, 1.0, rng)


class TestLongtail:
    def test_imbalance_ratio_exact(self):
        weights = longtail_weights(100, 90.0)
        assert weights.max() / weights.min() == pytest.approx(90.0)

    def test_paper_head_mass_property(self):
        """rho=90 over 100 classes: top 20% of classes hold ~60% of mass."""
        weights = longtail_weights(100, 90.0)
        assert head_mass(weights, 0.2) == pytest.approx(0.60, abs=0.03)

    def test_uniform_when_rho_one(self):
        weights = longtail_weights(10, 1.0)
        assert np.allclose(weights, 0.1)

    def test_single_class(self):
        assert longtail_weights(1, 5.0) == pytest.approx(1.0)

    def test_rejects_rho_below_one(self):
        with pytest.raises(ValueError):
            longtail_weights(10, 0.5)

    def test_apply_longtail_preserves_normalization(self, rng):
        base = np.full(40, 1 / 40)
        tailed = apply_longtail(base, 50.0, rng)
        assert tailed.sum() == pytest.approx(1.0)
        assert head_mass(tailed, 0.2) > head_mass(base, 0.2)

    def test_apply_longtail_deterministic_head(self):
        """The head class is the one the generator's shuffle gives the
        largest long-tail weight: equal seeds, equal heads."""
        base = np.full(10, 0.1)
        tailed = apply_longtail(base, 10.0, np.random.default_rng(3))
        head = int(np.flatnonzero(np.random.default_rng(3).permutation(10) == 0)[0])
        assert tailed[head] == tailed.max()
        assert np.allclose(np.sort(tailed)[::-1], longtail_weights(10, 10.0))

    def test_apply_longtail_validates_input(self, rng):
        with pytest.raises(ValueError):
            apply_longtail(np.array([0.5, 0.6]), 10.0, rng)  # not normalized
        with pytest.raises(ValueError):
            apply_longtail(np.ones((2, 2)) / 4, 10.0, rng)  # not 1-D


class TestProperties:
    @given(
        num_classes=st.integers(min_value=2, max_value=80),
        rho=st.floats(min_value=1.0, max_value=500.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_longtail_weights_always_valid(self, num_classes, rho):
        weights = longtail_weights(num_classes, rho)
        assert weights.shape == (num_classes,)
        assert weights.sum() == pytest.approx(1.0)
        assert np.all(weights > 0)
        # Monotone non-increasing by construction.
        assert np.all(np.diff(weights) <= 1e-12)

    @given(
        num_classes=st.integers(min_value=1, max_value=60),
        level=st.floats(min_value=0.0, max_value=20.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_dirichlet_always_probability_vector(self, num_classes, level, seed):
        rng = np.random.default_rng(seed)
        probs = dirichlet_class_distribution(num_classes, level, rng)
        assert probs.shape == (num_classes,)
        assert probs.sum() == pytest.approx(1.0)
        assert np.all(probs > 0)
