"""Unit tests for the shared Scenario builder."""

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from repro.core.deployment import Scenario
from repro.data.datasets import get_dataset


def _scenario(**overrides):
    defaults = dict(
        dataset=get_dataset("ucf101", 20),
        model_name="resnet50",
        num_clients=3,
        non_iid_level=1.0,
        seed=9,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


class TestScenario:
    def test_model_is_cached(self):
        scenario = _scenario()
        assert scenario.model is scenario.model

    def test_distributions_shape(self):
        scenario = _scenario()
        dists = scenario.distributions
        assert dists.shape == (3, 20)
        assert np.allclose(dists.sum(axis=1), 1.0)

    def test_longtail_applies(self):
        uniform = _scenario(non_iid_level=0.0).distributions
        tailed = _scenario(non_iid_level=0.0, longtail_rho=50.0).distributions
        assert tailed.max() > uniform.max() * 3

    def test_same_seed_same_everything(self):
        a, b = _scenario(), _scenario()
        assert np.allclose(a.distributions, b.distributions)
        assert np.allclose(a.model.ideal_centroids(2), b.model.ideal_centroids(2))
        fa = a.make_stream(0, a.client_rng(0)).take_block(50)
        fb = b.make_stream(0, b.client_rng(0)).take_block(50)
        assert np.array_equal(fa.class_ids, fb.class_ids)

    def test_clients_have_distinct_streams(self):
        scenario = _scenario()
        f0 = scenario.make_stream(0, scenario.client_rng(0)).take_block(80)
        f1 = scenario.make_stream(1, scenario.client_rng(1)).take_block(80)
        assert not np.array_equal(f0.class_ids, f1.class_ids)

    def test_client_rng_bounds(self):
        scenario = _scenario()
        with pytest.raises(IndexError):
            scenario.client_rng(3)

    def test_replace_copy_rebuilds_identically(self):
        scenario = _scenario()
        _ = scenario.model  # derive the deployment
        copy = replace(scenario)
        assert copy.model is not scenario.model
        assert copy.seed == scenario.seed
        assert np.array_equal(
            copy.model.ideal_centroids(1), scenario.model.ideal_centroids(1)
        )
        assert np.array_equal(copy.distributions, scenario.distributions)

    def test_replace_after_use_derives_the_new_setting(self):
        scenario = _scenario()
        _ = scenario.model  # derive the deployment
        changed = replace(scenario, non_iid_level=10.0, model_name="vgg16_bn")
        expected = _scenario(non_iid_level=10.0, model_name="vgg16_bn")
        assert changed.model.name == "vgg16_bn"
        assert changed.model.num_cache_layers == expected.model.num_cache_layers
        assert np.array_equal(
            changed.model.ideal_centroids(1), expected.model.ideal_centroids(1)
        )
        assert np.array_equal(changed.distributions, expected.distributions)
        assert not np.array_equal(changed.distributions, scenario.distributions)

    def test_fields_are_frozen(self):
        scenario = _scenario()
        with pytest.raises(FrozenInstanceError):
            scenario.non_iid_level = 10.0

    def test_multi_client_model_has_drift(self):
        scenario = _scenario()
        assert scenario.model.feature_space.config.client_drift_scale > 0
