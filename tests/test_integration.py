"""End-to-end integration tests of the paper's headline behaviours.

These run the full multi-client protocol at moderate scale and assert the
*shape* of the paper's results: caching cuts latency substantially at a
small accuracy cost, CoCa beats the static configuration, non-IID helps
cache methods, the cache adapts to class churn.
"""

import numpy as np
import pytest

from repro.baselines import CoCaRunner, EdgeOnly, SMTM
from repro.core.config import CoCaConfig
from repro.core.deployment import Scenario
from repro.data.datasets import get_dataset


@pytest.fixture(scope="module")
def scenario():
    return Scenario(
        dataset=get_dataset("ucf101", 30),
        model_name="resnet101",
        num_clients=3,
        non_iid_level=1.0,
        seed=77,
    )


@pytest.fixture(scope="module")
def coca_summary(scenario):
    runner = CoCaRunner(scenario, config=CoCaConfig(theta=0.05))
    return runner.run(3, warmup_rounds=1).summary()


@pytest.fixture(scope="module")
def edge_summary(scenario):
    # Same rounds/warmup as the CoCa run: the streams are seed-identical,
    # so this pairs the two methods frame-for-frame.
    return EdgeOnly(scenario).run(3, warmup_rounds=1).summary()


class TestHeadlineClaims:
    def test_coca_cuts_latency_by_20_to_60_percent(self, coca_summary, edge_summary):
        reduction = 1 - coca_summary.avg_latency_ms / edge_summary.avg_latency_ms
        assert 0.20 < reduction < 0.65

    def test_accuracy_loss_is_small(self, coca_summary, edge_summary):
        loss = edge_summary.accuracy - coca_summary.accuracy
        assert loss < 0.06

    def test_hits_are_more_reliable_than_model(self, coca_summary):
        # Hits fire on unambiguous samples, so hit accuracy beats overall.
        assert coca_summary.hit_accuracy > coca_summary.accuracy

    def test_substantial_hit_ratio(self, coca_summary):
        assert coca_summary.hit_ratio > 0.35


class TestAdaptivity:
    def test_cache_tracks_class_churn(self, scenario):
        """After the stream's working set rotates, the allocation follows:
        hot-spot sets differ between early and late rounds."""
        runner = CoCaRunner(scenario, config=CoCaConfig(theta=0.05))
        fw = runner.framework
        fw.run_round(0)
        client = fw.clients[0]
        status_early = client.status()
        _, early = fw.server.allocate(
            status_early.timestamps,
            status_early.hit_ratio,
            status_early.cache_budget_bytes,
            local_freq=status_early.frequencies,
        )
        for r in range(1, 5):
            fw.run_round(r)
        status_late = client.status()
        _, late = fw.server.allocate(
            status_late.timestamps,
            status_late.hit_ratio,
            status_late.cache_budget_bytes,
            local_freq=status_late.frequencies,
        )
        assert set(early.hotspot_classes.tolist()) != set(
            late.hotspot_classes.tolist()
        )

    def test_noniid_speeds_up_caching(self, scenario):
        """Higher non-IID level concentrates streams => better hit ratios
        (Fig. 7's mechanism)."""
        import dataclasses

        iid = dataclasses.replace(scenario, non_iid_level=0.0)
        skewed = dataclasses.replace(scenario, non_iid_level=10.0)
        hr_iid = (
            CoCaRunner(iid, config=CoCaConfig(theta=0.05))
            .run(2, warmup_rounds=1)
            .summary()
            .hit_ratio
        )
        hr_skewed = (
            CoCaRunner(skewed, config=CoCaConfig(theta=0.05))
            .run(2, warmup_rounds=1)
            .summary()
            .hit_ratio
        )
        assert hr_skewed > hr_iid - 0.05  # at least comparable, usually better


class TestProtocolConsistency:
    def test_budget_respected_every_round(self, scenario):
        runner = CoCaRunner(scenario, config=CoCaConfig(theta=0.05))
        fw = runner.framework
        for r in range(3):
            fw.run_round(r)
            for client in fw.clients:
                cache = client.engine.cache
                if cache is None:
                    continue
                size = cache.size_bytes(fw.model.profile.entry_size_bytes)
                assert size <= client.cache_budget_bytes

    def test_cached_classes_exist_in_global_table(self, scenario):
        runner = CoCaRunner(scenario, config=CoCaConfig(theta=0.05))
        fw = runner.framework
        fw.run_round(0)
        for client in fw.clients:
            cache = client.engine.cache
            for layer in cache.active_layers:
                ids, _ = cache.entries_at(layer)
                assert fw.server.table.filled[ids, layer].all()

    def test_global_entries_stay_unit_norm(self, scenario):
        runner = CoCaRunner(scenario, config=CoCaConfig(theta=0.05))
        fw = runner.framework
        for r in range(2):
            fw.run_round(r)
        norms = np.linalg.norm(fw.server.table.entries, axis=2)
        assert np.allclose(norms[fw.server.table.filled], 1.0)

    def test_coca_beats_smtm_accuracy_at_same_theta(self, scenario):
        """The collaborative global cache should outperform purely local
        adaptation in accuracy at a matched threshold (Table II shape)."""
        coca = (
            CoCaRunner(scenario, config=CoCaConfig(theta=0.05))
            .run(3, warmup_rounds=1)
            .summary()
        )
        smtm = SMTM(scenario, theta=0.05).run(3, warmup_rounds=1).summary()
        assert coca.accuracy > smtm.accuracy - 0.02
