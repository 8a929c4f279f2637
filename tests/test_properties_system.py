"""System-level property tests: invariants that must hold for any seed.

These complement the per-module property tests with hypothesis-driven
checks over whole protocol rounds and the allocation machinery, plus
failure-injection cases (degenerate budgets, empty caches, single-class
streams).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import SemanticCache
from repro.core.config import CoCaConfig
from repro.core.engine import BatchedInferenceEngine
from repro.core.framework import CoCaFramework
from repro.data.datasets import DatasetSpec, get_dataset


@pytest.fixture(scope="module")
def dataset():
    return get_dataset("ucf101", 20)


class TestRoundInvariants:
    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=5, deadline=None)
    def test_one_round_invariants(self, seed):
        """For any seed: budgets respected, records complete, latency in
        [min block prefix, full + all lookups], entries unit-norm."""
        dataset = get_dataset("ucf101", 15)
        fw = CoCaFramework(
            dataset,
            model_name="resnet50",
            num_clients=2,
            config=CoCaConfig(theta=0.05, frames_per_round=40),
            seed=seed,
            non_iid_level=1.0,
        )
        reports = fw.run_round(0)
        assert len(reports) == 2
        for report, client in zip(reports, fw.clients):
            assert len(report.records) == 40
            cache = client.engine.cache
            if cache is not None:
                size = cache.size_bytes(fw.model.profile.entry_size_bytes)
                assert size <= client.cache_budget_bytes
            records = report.records
            assert np.all(records.latency_ms > 0)
            assert np.all(records.latency_ms <= fw.model.total_compute_ms * 2)
            assert np.all(records.predicted_class >= 0)
            assert np.all(records.predicted_class < fw.model.num_classes)
            assert report.frequencies.sum() == pytest.approx(40.0)
        norms = np.linalg.norm(fw.server.table.entries, axis=2)
        assert np.allclose(norms[fw.server.table.filled], 1.0)

    @given(
        theta=st.floats(min_value=0.01, max_value=0.3),
        budget_fraction=st.floats(min_value=0.02, max_value=0.5),
    )
    @settings(max_examples=5, deadline=None)
    def test_any_config_terminates_with_valid_metrics(self, theta, budget_fraction):
        dataset = get_dataset("ucf101", 12)
        fw = CoCaFramework(
            dataset,
            model_name="resnet50",
            num_clients=2,
            config=CoCaConfig(
                theta=theta, frames_per_round=30, cache_budget_fraction=budget_fraction
            ),
            seed=3,
        )
        summary = fw.run(1).summary()
        assert 0.0 <= summary.accuracy <= 1.0
        assert 0.0 <= summary.hit_ratio <= 1.0
        assert summary.avg_latency_ms > 0


class TestFailureInjection:
    def test_tiny_budget_degrades_to_edge_only(self, dataset):
        """A budget too small for any layer leaves clients cache-less but
        functional."""
        fw = CoCaFramework(
            dataset,
            model_name="resnet50",
            num_clients=2,
            config=CoCaConfig(
                theta=0.05, frames_per_round=30, cache_budget_fraction=0.0001
            ),
            seed=5,
        )
        summary = fw.run(1).summary()
        assert summary.hit_ratio == 0.0
        assert summary.avg_latency_ms == pytest.approx(
            fw.model.total_compute_ms, rel=0.05
        )

    def test_single_dominant_class_stream(self):
        """A stream collapsed onto one class caches it and hits heavily."""
        dataset = get_dataset("ucf101", 10)
        fw = CoCaFramework(
            dataset,
            model_name="resnet50",
            num_clients=1,
            config=CoCaConfig(theta=0.05, frames_per_round=60),
            seed=6,
            non_iid_level=50.0,  # extreme concentration
        )
        summary = fw.run(2, warmup_rounds=1).summary()
        assert summary.hit_ratio > 0.5

    def test_engine_with_floor_rejects_distant_queries(self, tiny_model, rng, make_block):
        cache = SemanticCache(tiny_model.num_classes, theta=0.0)
        layer = 3
        cache.set_layer_entries(
            layer, np.arange(4), tiny_model.ideal_centroids(layer)[:4]
        )
        cache.set_similarity_floor(layer, 0.99)  # virtually unreachable
        engine = BatchedInferenceEngine(tiny_model, cache)
        outcome = engine.infer_batch_soa(
            tiny_model.draw_samples(make_block([6], difficulty=0.1), 0, rng)
        )
        assert not outcome.hit[0]

    def test_floor_validation(self):
        cache = SemanticCache(4)
        with pytest.raises(ValueError):
            cache.set_similarity_floor(0, 2.0)
        assert cache.similarity_floor(0) == -1.0
        cache.set_similarity_floor(0, 0.5)
        assert cache.similarity_floor(0) == 0.5
        cache.clear()
        assert cache.similarity_floor(0) == -1.0

    def test_two_class_task_runs(self):
        """The minimum viable task (2 classes) exercises every code path
        without degenerate-index crashes."""
        dataset = DatasetSpec(
            name="binary", num_classes=2, mean_run_length=5.0, difficulty=0.3
        )
        fw = CoCaFramework(
            dataset,
            model_name="resnet50",
            num_clients=2,
            config=CoCaConfig(theta=0.05, frames_per_round=25),
            seed=8,
        )
        summary = fw.run(1).summary()
        assert summary.num_samples == 50
