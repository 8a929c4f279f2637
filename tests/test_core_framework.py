"""Integration tests of the multi-client CoCa framework."""

import numpy as np
import pytest

from repro.core.config import CoCaConfig
from repro.core.framework import CoCaFramework
from repro.data.datasets import get_dataset


@pytest.fixture(scope="module")
def small_setup():
    dataset = get_dataset("ucf101", 20)
    config = CoCaConfig(theta=0.05, frames_per_round=80)
    return dataset, config


def _framework(dataset, config, **kwargs):
    defaults = dict(num_clients=3, seed=4, non_iid_level=1.0)
    defaults.update(kwargs)
    return CoCaFramework(dataset, model_name="resnet50", config=config, **defaults)


class TestFrameworkConstruction:
    def test_builds_clients_and_server(self, small_setup):
        dataset, config = small_setup
        fw = _framework(dataset, config)
        assert len(fw.clients) == 3
        assert fw.server.table.filled.all()
        # Every client got the reference hit-ratio vector.
        for client in fw.clients:
            assert np.allclose(client.hit_ratio, fw.server.reference_hit_ratio)

    def test_invalid_client_count(self, small_setup):
        dataset, config = small_setup
        with pytest.raises(ValueError):
            _framework(dataset, config, num_clients=0)

    def test_deterministic_given_seed(self, small_setup):
        dataset, config = small_setup
        a = _framework(dataset, config).run(1).summary()
        b = _framework(dataset, config).run(1).summary()
        assert a.avg_latency_ms == pytest.approx(b.avg_latency_ms)
        assert a.accuracy == pytest.approx(b.accuracy)

    def test_different_seeds_differ(self, small_setup):
        dataset, config = small_setup
        a = _framework(dataset, config, seed=1).run(1).summary()
        b = _framework(dataset, config, seed=2).run(1).summary()
        assert a.avg_latency_ms != pytest.approx(b.avg_latency_ms)


class TestFrameworkRuns:
    def test_run_shape(self, small_setup):
        dataset, config = small_setup
        result = _framework(dataset, config).run(2, warmup_rounds=1)
        # 2 measured rounds x 3 clients x 80 frames.
        assert result.summary().num_samples == 2 * 3 * 80
        assert len(result.rounds) == 2
        assert result.rounds[0].round_index == 1

    def test_caching_reduces_latency(self, small_setup):
        dataset, config = small_setup
        result = _framework(dataset, config).run(2, warmup_rounds=1)
        summary = result.summary()
        edge_latency = result.clients[0].model.total_compute_ms
        assert summary.avg_latency_ms < edge_latency
        assert summary.hit_ratio > 0.2

    def test_accuracy_loss_is_bounded(self, small_setup):
        dataset, config = small_setup
        fw = _framework(dataset, config)
        result = fw.run(2, warmup_rounds=1)
        rng = np.random.default_rng(0)
        edge_acc = fw.model.measure_accuracy(800, rng)
        assert result.summary().accuracy > edge_acc - 0.08

    def test_global_frequencies_accumulate(self, small_setup):
        dataset, config = small_setup
        fw = _framework(dataset, config)
        before = fw.server.table.class_freq.sum()
        fw.run_round(0)
        after = fw.server.table.class_freq.sum()
        assert after == pytest.approx(before + 3 * 80)

    def test_gcu_disabled_freezes_entries(self, small_setup):
        dataset, config = small_setup
        fw = _framework(dataset, config, enable_gcu=False)
        before = fw.server.table.entries.copy()
        fw.run_round(0)
        assert np.allclose(fw.server.table.entries, before)
        # Frequencies still accumulate (bookkeeping).
        assert fw.server.table.class_freq.sum() > before.shape[0]

    def test_gcu_enabled_moves_entries(self, small_setup):
        dataset, config = small_setup
        fw = _framework(dataset, config, enable_gcu=True)
        before = fw.server.table.entries.copy()
        fw.run_round(0)
        assert not np.allclose(fw.server.table.entries, before)

    def test_dca_disabled_uses_static_allocation(self, small_setup):
        dataset, config = small_setup
        fw = _framework(dataset, config, enable_dca=False)
        fw.run_round(0)
        # Every client runs the preset cache: every class on every layer.
        for client in fw.clients:
            cache = client.engine.cache
            assert cache.active_layers == list(range(fw.model.num_cache_layers))
            assert cache.layer_pack().ids.tolist() == list(range(fw.model.num_classes))

    def test_longtail_workload_runs(self, small_setup):
        dataset, config = small_setup
        fw = _framework(dataset, config, longtail_rho=20.0)
        summary = fw.run(1).summary()
        assert summary.num_samples == 3 * 80

    def test_invalid_round_count(self, small_setup):
        dataset, config = small_setup
        with pytest.raises(ValueError):
            _framework(dataset, config).run(0)


class TestWorkspaceAndTimings:
    def test_clients_share_the_framework_workspace(self, small_setup):
        dataset, config = small_setup
        fw = _framework(dataset, config)
        assert all(
            client.batch_engine.workspace is fw.workspace
            for client in fw.clients
        )

    def test_run_round_accumulates_stage_timings(self, small_setup):
        dataset, config = small_setup
        fw = _framework(dataset, config)
        timings = {}
        fw.run_round(0, timings=timings)
        for stage in ("allocate", "sample-gen", "probe", "collect", "merge"):
            assert timings[stage] >= 0.0
        # A second instrumented round accumulates (doesn't reset).
        first_probe = timings["probe"]
        fw.run_round(1, timings=timings)
        assert timings["probe"] >= first_probe


def _coca_runner(dataset, config):
    return _framework(dataset, config)


def _cluster_runner(dataset, config):
    from repro.cluster import ClusterFramework

    return ClusterFramework(
        dataset, model_name="resnet50", num_shards=2, num_clients=2, config=config
    )


def _baseline_runner(dataset, config):
    from repro.baselines import EdgeOnly
    from repro.core.deployment import Scenario

    scenario = Scenario(dataset=dataset, model_name="resnet50", num_clients=2)
    return EdgeOnly(scenario, frames_per_round=config.frames_per_round)


@pytest.mark.parametrize(
    "build, warmup",
    [(_coca_runner, -3), (_cluster_runner, -1), (_baseline_runner, -2)],
    ids=["framework", "cluster", "baseline"],
)
def test_negative_warmup_rounds_rejected(small_setup, build, warmup):
    runner = build(*small_setup)
    with pytest.raises(ValueError, match=f"warmup_rounds must be >= 0, got {warmup}"):
        runner.run(2, warmup_rounds=warmup)
