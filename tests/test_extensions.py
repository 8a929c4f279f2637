"""Tests for the extension features: temporal drift, client dropout,
global-cache persistence, and the design-ablation drivers."""

import numpy as np
import pytest

from repro import contracts
from repro.core.config import CoCaConfig
from repro.core.framework import CoCaFramework
from repro.core.server import CoCaServer, calibrate
from repro.data.datasets import get_dataset
from repro.experiments import (
    Scenario,
    run_alpha_ablation,
    run_hotspot_mass_ablation,
    run_local_blend_ablation,
    run_update_weighting_ablation,
    format_design_points,
)


@pytest.fixture(scope="module")
def dataset():
    return get_dataset("ucf101", 20)


@pytest.fixture(scope="module")
def config():
    return CoCaConfig(theta=0.05, frames_per_round=60)


class TestTemporalDrift:
    def test_evolve_moves_client_centroids(self, tiny_model, rng):
        space = tiny_model.feature_space
        # Enable drift on a copy of the config via direct evolution: with
        # zero drift scale, evolve is a no-op by contract.
        before = space.client_centroid(0, 0, 2).copy()
        space.evolve_drift(0.5, rng)
        after = space.client_centroid(0, 0, 2)
        if space.config.client_drift_scale == 0:
            assert np.allclose(before, after)
        else:
            assert not np.allclose(before, after)

    def test_evolve_changes_drifted_space(self, tiny_dataset, rng):
        from repro.models.base import SimulatedModel
        from repro.models.feature import FeatureSpaceConfig
        from repro.models.profiles import build_profile

        model = SimulatedModel(
            name="tiny-drift",
            dataset=tiny_dataset,
            profile=build_profile(10.0, 4, [8] * 4),
            feature_config=FeatureSpaceConfig(dim=16, client_drift_scale=0.3),
            num_clients=2,
            seed=3,
        )
        space = model.feature_space
        before = space.client_centroid(1, 2, 1).copy()
        space.evolve_drift(0.4, rng)
        after = space.client_centroid(1, 2, 1)
        assert not np.allclose(before, after)
        # Ideal (undrifted) centroids are untouched.
        assert np.allclose(space.centroid(2, 1), model.ideal_centroids(1)[2])

    def test_evolve_validates_magnitude(self, tiny_model, rng):
        with pytest.raises(ValueError):
            tiny_model.feature_space.evolve_drift(-0.1, rng)

    def test_framework_applies_drift_per_round(self, dataset, config):
        fw = CoCaFramework(
            dataset,
            model_name="resnet50",
            num_clients=2,
            config=config,
            seed=4,
            non_iid_level=1.0,
            temporal_drift_per_round=0.3,
        )
        space = fw.model.feature_space
        before = space.client_centroid(0, 0, 5).copy()
        fw.run_round(0)
        after = space.client_centroid(0, 0, 5)
        assert not np.allclose(before, after)

    def test_framework_rejects_negative_drift(self, dataset, config):
        with pytest.raises(ValueError):
            CoCaFramework(
                dataset,
                model_name="resnet50",
                num_clients=2,
                config=config,
                seed=4,
                temporal_drift_per_round=-1.0,
            )


    def test_round_rejects_negative_drift_set_after_construction(
        self, dataset, config
    ):
        fw = CoCaFramework(
            dataset, model_name="resnet50", num_clients=2, config=config, seed=4
        )
        fw.temporal_drift_per_round = -0.3
        space = fw.model.feature_space
        drift_dirs = space._drift_dirs.copy()
        with pytest.raises(ValueError, match="temporal_drift_per_round must be >= 0"):
            fw.run_round(0)
        assert np.array_equal(space._drift_dirs, drift_dirs)
        assert all(client.engine.cache is None for client in fw.clients)


class TestClientDropout:
    def test_full_participation_by_default(self, dataset, config):
        fw = CoCaFramework(
            dataset, model_name="resnet50", num_clients=3, config=config, seed=4
        )
        assert len(fw.run_round(0)) == 3


def _rewrite_meta(snapshot, **replace):
    """Rewrite a snapshot's meta arrays in place (``None`` drops one)."""
    with np.load(snapshot / "meta.npz") as archive:
        arrays = dict(archive)
    arrays.update(replace)
    np.savez(
        snapshot / "meta.npz",
        **{name: array for name, array in arrays.items() if array is not None},
    )
    return arrays


class TestTablePersistence:
    def test_save_load_roundtrip(self, tiny_model, rng, tmp_path, config):
        server = CoCaServer(tiny_model, config)
        server.initialize(calibrate(tiny_model, rng, 100))
        server.table.class_freq[3] = 123.0
        path = tmp_path / "table.snapshot"
        server.save_snapshot(path)

        other = CoCaServer(tiny_model, config)
        other.load_table(path)
        assert np.array_equal(other.table.entries, server.table.entries)
        assert np.array_equal(other.table.filled, server.table.filled)
        assert other.table.class_freq[3] == 123.0
        assert np.array_equal(other.reference_hit_ratio, server.reference_hit_ratio)

    def test_load_rejects_shape_mismatch(self, tiny_model, rng, tmp_path, config):
        server = CoCaServer(tiny_model, config)
        server.initialize(calibrate(tiny_model, rng, 100))
        path = tmp_path / "table.snapshot"
        server.save_snapshot(path)

        from repro.models.base import SimulatedModel
        from repro.models.feature import FeatureSpaceConfig
        from repro.models.profiles import build_profile

        other_model = SimulatedModel(
            name="other",
            dataset=tiny_model.dataset,
            profile=build_profile(10.0, 3, [8] * 3),  # different layer count
            feature_config=FeatureSpaceConfig(dim=16),
            seed=1,
        )
        other = CoCaServer(other_model, config)
        with pytest.raises(ValueError, match="geometry"):
            other.load_table(path)

    def test_load_rejects_corrupt_auxiliary_arrays(
        self, tiny_model, rng, tmp_path, config
    ):
        """Every meta array is validated, not only the entry shards: a
        mismatched filled/class_freq/reference array is named."""
        server = CoCaServer(tiny_model, config)
        server.initialize(calibrate(tiny_model, rng, 100))
        path = tmp_path / "table.snapshot"
        server.save_snapshot(path)
        good = _rewrite_meta(path)

        corruptions = {
            "filled": ("fill mask", good["filled"][:, :-1]),
            "class_freq": ("class_freq", good["class_freq"][:-1]),
            "reference_hit_ratio": (
                "reference_hit_ratio", good["reference_hit_ratio"][:-1]
            ),
        }
        # The shape checks are what is under test; with contracts armed
        # the checksum contract would reject the edited file first.
        with contracts.activated(False):
            for key, (named, bad_value) in corruptions.items():
                _rewrite_meta(path, **{**good, key: bad_value})
                fresh = CoCaServer(tiny_model, config)
                with pytest.raises(ValueError, match=named):
                    fresh.load_table(path)
                # Failed loads must not half-mutate server state.
                assert not fresh.table.filled.any()

    def test_load_rejects_missing_array(self, tiny_model, rng, tmp_path, config):
        server = CoCaServer(tiny_model, config)
        server.initialize(calibrate(tiny_model, rng, 100))
        path = tmp_path / "table.snapshot"
        server.save_snapshot(path)
        _rewrite_meta(path, filled=None)
        fresh = CoCaServer(tiny_model, config)
        with contracts.activated(False), pytest.raises(ValueError, match="filled"):
            fresh.load_table(path)

    def test_warm_started_server_allocates(self, tiny_model, rng, tmp_path, config):
        server = CoCaServer(tiny_model, config)
        server.initialize(calibrate(tiny_model, rng, 100))
        path = tmp_path / "table.snapshot"
        server.save_snapshot(path)

        warm = CoCaServer(tiny_model, config)
        warm.load_table(path)
        cache, result = warm.allocate(
            timestamps=np.zeros(8),
            hit_ratio=warm.reference_hit_ratio,
            budget_bytes=500,
        )
        assert result.size_bytes <= 500


class TestDesignAblations:
    @pytest.fixture(scope="class")
    def scenario(self, ):
        return Scenario(
            dataset=get_dataset("ucf101", 20),
            model_name="resnet50",
            num_clients=2,
            non_iid_level=1.0,
            seed=55,
        )

    def test_alpha_ablation_runs_all_points(self, scenario):
        points = run_alpha_ablation(scenario, alphas=(0.0, 0.5), rounds=1, warmup=0)
        assert [p.value for p in points] == ["0", "0.5"]
        assert all(p.latency_ms > 0 for p in points)

    def test_hotspot_mass_widens_cache(self, scenario):
        # A single measured round is dominated by allocation noise at
        # this scale (2 clients); three rounds make the relationship
        # observable.
        points = run_hotspot_mass_ablation(
            scenario, masses=(0.80, 0.999), rounds=3, warmup=1
        )
        # Near-total mass caches more classes => hit ratio at least as high.
        assert points[1].hit_ratio_pct >= points[0].hit_ratio_pct - 5.0

    def test_local_blend_variants_run(self, scenario):
        points = run_local_blend_ablation(scenario, rounds=1, warmup=1)
        assert {p.value for p in points} == {"global+local", "global-only"}

    def test_update_weighting_variants_run(self, scenario):
        points = run_update_weighting_ablation(scenario, rounds=2, warmup=0)
        assert len(points) == 2
        table = format_design_points(points, "design ablation")
        assert "eq4_weighting" in table


class TestHeterogeneousBudgets:
    def test_per_client_budgets_respected(self, dataset, config):
        """Clients may have different cache-size thresholds Pi; the server
        personalizes each allocation to the requester's budget."""
        fw = CoCaFramework(
            dataset,
            model_name="resnet50",
            num_clients=3,
            config=config,
            seed=12,
            non_iid_level=1.0,
        )
        budgets = [5_000, 50_000, 500_000]
        for client, budget in zip(fw.clients, budgets):
            client.cache_budget_bytes = budget
        fw.run_round(0)
        sizes = []
        for client in fw.clients:
            cache = client.engine.cache
            size = (
                cache.size_bytes(fw.model.profile.entry_size_bytes)
                if cache is not None
                else 0
            )
            sizes.append(size)
            assert size <= client.cache_budget_bytes
        # Bigger budgets buy bigger caches (weakly monotone).
        assert sizes[0] <= sizes[1] <= sizes[2]
