"""Smoke + shape tests for the per-figure experiment drivers.

These use miniature workloads (few rounds, small subsets) so the full
suite stays fast; the benchmarks run the paper-scale versions.
"""

import numpy as np
import pytest

from repro.core.config import CoCaConfig
from repro.data.datasets import get_dataset
from repro.experiments import (
    MethodPoint,
    Scenario,
    format_ablation_table,
    format_method_points,
    format_slo_table,
    run_ablation,
    run_allocation_comparison,
    run_cache_size_sweep,
    run_client_load_sweep,
    run_delta_sweep,
    run_gamma_sweep,
    run_global_update_study,
    run_hotspot_count_sweep,
    run_longtail_comparison,
    run_noniid_sweep,
    run_per_layer_stats,
    run_slo_experiment,
    run_theta_sweep,
    run_update_cycle_sweep,
)


@pytest.fixture(scope="module")
def dataset():
    return get_dataset("ucf101", 20)


@pytest.fixture(scope="module")
def scenario(dataset):
    return Scenario(
        dataset=dataset,
        model_name="resnet50",
        num_clients=2,
        non_iid_level=1.0,
        seed=33,
    )


class TestMotivationDrivers:
    def test_cache_size_sweep_shape(self, dataset):
        points = run_cache_size_sweep(
            dataset, model_name="resnet50",
            layer_counts=(0, 3, 9, 17), num_samples=400,
        )
        assert len(points) == 4
        assert points[0].size_fraction == 0.0
        assert points[-1].size_fraction == pytest.approx(1.0)
        # No-cache latency equals the model budget; a moderate cache wins.
        assert points[0].latency_ms == pytest.approx(30.50, abs=0.01)
        assert min(p.latency_ms for p in points[1:]) < points[0].latency_ms

    def test_per_layer_stats_cover_all_layers(self, dataset):
        points = run_per_layer_stats(
            dataset, model_name="resnet50", num_samples=400
        )
        assert len(points) == 17
        assert all(0 <= p.hit_ratio_pct <= 100 for p in points)

    def test_hotspot_count_clamps_to_task(self, dataset):
        points = run_hotspot_count_sweep(
            dataset, model_name="resnet50",
            class_counts=(0, 5, 20, 90), num_samples=300,
        )
        assert [p.num_hotspot_classes for p in points] == [0, 5, 20, 90]
        # Count 0 means no cache: full-model latency.
        assert points[0].latency_ms == pytest.approx(30.50, abs=0.01)


class TestThresholdDrivers:
    def test_theta_sweep_monotone_hit_ratio(self, scenario):
        points = run_theta_sweep(scenario, thetas=(0.03, 0.10), rounds=1, warmup=1)
        assert len(points) == 2
        assert points[0].hit_ratio_pct >= points[1].hit_ratio_pct

    def test_gamma_sweep_monotone_absorption(self, scenario):
        points = run_gamma_sweep(scenario, gammas=(0.02, 0.30), rounds=1, warmup=0)
        assert points[0].absorption_ratio_pct >= points[1].absorption_ratio_pct

    def test_delta_sweep_monotone_absorption(self, scenario):
        points = run_delta_sweep(scenario, deltas=(0.05, 0.60), rounds=1, warmup=0)
        assert points[0].absorption_ratio_pct >= points[1].absorption_ratio_pct


class TestSloDriver:
    def test_slo_rows_and_formatting(self, scenario):
        results = run_slo_experiment(
            scenario,
            accuracy_loss_budgets=(0.05,),
            methods=("SMTM", "CoCa"),
            rounds=1,
            warmup=1,
            grids={"SMTM": [0.05], "CoCa": [0.05]},
        )
        rows = results[0.05]
        assert [r.method for r in rows] == ["Edge-Only", "SMTM", "CoCa"]
        assert rows[0].latency_ms == pytest.approx(30.50, abs=0.01)
        table = format_slo_table(results, "Table II (smoke)")
        assert "Edge-Only" in table and "CoCa" in table


class TestDistributionDrivers:
    def test_noniid_sweep_rows(self, scenario):
        points = run_noniid_sweep(
            scenario, levels=(0.0, 10.0), methods=("Edge-Only", "CoCa"),
            rounds=1, warmup=1,
        )
        assert len(points) == 4
        table = format_method_points(points, "Fig 7 (smoke)")
        assert "p=0" in table and "p=10" in table

    def test_method_points_keep_first_seen_setting_order(self):
        points = [
            MethodPoint(method, setting, 1.0, 90.0, 50.0)
            for method in ("Edge-Only", "CoCa")
            for setting in ("p=0", "p=2", "p=10", "uniform", "long-tail")
        ]
        header = format_method_points(points, "order").splitlines()[1]
        columns = [cell.split()[0] for cell in header.split(" | ")[1:]]
        assert columns == ["p=0", "p=2", "p=10", "uniform", "long-tail"]

    def test_edge_only_insensitive_to_noniid(self, scenario):
        points = run_noniid_sweep(
            scenario, levels=(0.0, 10.0), methods=("Edge-Only",),
            rounds=1, warmup=0,
        )
        lats = [p.latency_ms for p in points]
        assert lats[0] == pytest.approx(lats[1])

    def test_longtail_comparison_rows(self, scenario):
        points = run_longtail_comparison(
            scenario, methods=("Edge-Only", "CoCa"), rounds=1, warmup=1
        )
        settings = {p.setting for p in points}
        assert settings == {"uniform", "long-tail"}


class TestAllocationDriver:
    def test_policies_and_aca_compared(self, scenario):
        points = run_allocation_comparison(
            scenario, cache_sizes=(8,), rounds=1, warmup=1
        )
        policies = [p.policy for p in points]
        assert policies == ["LRU", "FIFO", "RAND", "ACA"]


class TestAblationDriver:
    def test_four_variants_per_model(self, scenario):
        points = run_ablation(
            scenario, model_names=("resnet50",), rounds=1, warmup=1
        )
        assert [p.variant for p in points] == ["Normal", "GCU", "DCA", "DCA+GCU"]
        table = format_ablation_table(points, "Fig 9 (smoke)")
        assert "DCA+GCU" in table


class TestSystemLoadDrivers:
    def test_update_cycle_sweep(self, scenario):
        points = run_update_cycle_sweep(
            scenario, cycles=(100, 400), total_frames=800, warmup_frames=0
        )
        assert [p.frames_per_round for p in points] == [100, 400]

    def test_client_load_matches_network_model(self):
        points = run_client_load_sweep(client_counts=(60, 160))
        assert points[0].response_latency_ms < points[1].response_latency_ms
        assert points[0].response_latency_ms == pytest.approx(56.7, abs=1.0)


class TestGlobalUpdateDriver:
    def test_study_produces_metrics_and_embeddings(self, scenario):
        result = run_global_update_study(
            scenario,
            num_classes_shown=3,
            samples_per_class=10,
            rounds=2,
            compute_embedding=True,
        )
        assert 0 <= result.layer < scenario.model.num_cache_layers
        assert -1.0 <= result.silhouette_with <= 1.0
        assert -1.0 <= result.silhouette_without <= 1.0
        n_points = 3 * 10 + 3
        assert result.embedding_with.shape == (n_points, 2)
        assert result.embedding_without.shape == (n_points, 2)
        assert result.labels.shape == (30,)
