"""Unit + integration tests for the baseline pipelines."""

import numpy as np
import pytest

import oracle

from repro.baselines import (
    METHODS,
    CoCaRunner,
    EdgeOnly,
    FoggyCache,
    LearnedCache,
    ReplacementPolicyCache,
    SMTM,
    build_runner,
)
from repro.baselines.base import BATCH_WINDOW, evenly_spaced_layers
from repro.baselines.foggy_cache import LshLruCache
from repro.core.config import CoCaConfig
from repro.core.deployment import Scenario
from repro.data.datasets import get_dataset
from repro.models.zoo import available_models, build_model
from repro.sim.metrics import RecordBatch


@pytest.fixture(scope="module")
def small_scenario():
    return Scenario(
        dataset=get_dataset("ucf101", 20),
        model_name="resnet50",
        num_clients=2,
        non_iid_level=1.0,
        seed=21,
    )


class TestEvenlySpacedLayers:
    """The one static layer set gives the sets of the two forms it
    replaced: the count capped at the layers in range (SMTM, LRU/FIFO/
    RAND, LearnedCache's exits) and uncapped (the motivation studies)."""

    @staticmethod
    def _capped(num_layers, count, start):
        count = min(count, num_layers - start)
        return sorted(
            {int(round(x)) for x in np.linspace(start, num_layers - 1, count)}
        )

    @staticmethod
    def _uncapped(num_layers, count, start):
        if count <= 0:
            return []
        return sorted(
            {int(round(x)) for x in np.linspace(start, num_layers - 1, count)}
        )

    @pytest.mark.parametrize("name", available_models())
    def test_every_zoo_model(self, name):
        num_layers = build_model(name, get_dataset("ucf101", 5)).num_cache_layers
        for start in range(num_layers):
            for count in range(90):
                layers = evenly_spaced_layers(num_layers, count, start)
                assert layers == self._capped(num_layers, count, start)
                assert layers == self._uncapped(num_layers, count, start)
        assert evenly_spaced_layers(num_layers, -1) == []
        assert evenly_spaced_layers(num_layers, num_layers) == list(range(num_layers))

    def test_runner_defaults(self, small_scenario):
        num_layers = small_scenario.model.num_cache_layers  # resnet50: 17
        assert SMTM(small_scenario).active_layers == [4, 6, 9, 11, 14, 16]
        assert ReplacementPolicyCache(small_scenario).active_layers == [
            4, 6, 9, 11, 14, 16
        ]
        assert LearnedCache(small_scenario).exit_layers == self._capped(
            num_layers, 6, max(1, num_layers // 4)
        )


class TestEdgeOnly:
    def test_latency_is_constant_full_compute(self, small_scenario):
        runner = EdgeOnly(small_scenario, frames_per_round=40)
        metrics = runner.run(1)
        summary = metrics.summary()
        assert summary.avg_latency_ms == pytest.approx(
            runner.model.total_compute_ms
        )
        assert summary.hit_ratio == 0.0
        assert summary.num_samples == 2 * 40

    def test_warmup_rounds_excluded(self, small_scenario):
        runner = EdgeOnly(small_scenario, frames_per_round=30)
        metrics = runner.run(1, warmup_rounds=1)
        assert metrics.summary().num_samples == 2 * 30

    def test_invalid_args(self, small_scenario):
        with pytest.raises(ValueError):
            EdgeOnly(small_scenario, frames_per_round=0)
        runner = EdgeOnly(small_scenario)
        with pytest.raises(ValueError):
            runner.run(0)


class TestLearnedCache:
    def test_exits_reduce_latency(self, small_scenario):
        runner = LearnedCache(small_scenario, frames_per_round=60)
        summary = runner.run(1).summary()
        assert summary.hit_ratio > 0.1
        # Early exits skip compute but pay head + retraining overheads.
        assert summary.avg_latency_ms < runner.model.total_compute_ms + 5

    def test_strict_margin_blocks_exits(self, small_scenario):
        runner = LearnedCache(
            small_scenario, exit_margin=10.0, frames_per_round=40
        )
        summary = runner.run(1).summary()
        assert summary.hit_ratio == 0.0
        # Pays full compute + per-exit heads + retraining amortization.
        floor = runner.model.total_compute_ms
        assert summary.avg_latency_ms > floor

    def test_exit_layers_skip_shallow_quarter(self, small_scenario):
        runner = LearnedCache(small_scenario)
        L = runner.model.num_cache_layers
        assert min(runner.exit_layers) >= L // 4


class TestFoggyCache:
    def test_reuse_hits_after_warm_cache(self, small_scenario):
        runner = FoggyCache(small_scenario, frames_per_round=80)
        summary = runner.run(1, warmup_rounds=1).summary()
        assert summary.hit_ratio > 0.2
        assert summary.avg_latency_ms < runner.model.total_compute_ms

    def test_hits_are_mostly_correct(self, small_scenario):
        runner = FoggyCache(small_scenario, frames_per_round=80)
        summary = runner.run(1, warmup_rounds=1).summary()
        assert summary.hit_accuracy > 0.8

    def test_server_cache_fills_after_round(self, small_scenario):
        runner = FoggyCache(small_scenario, frames_per_round=50)
        runner.run(1)
        assert len(runner._server) > 0


class TestLshLruCache:
    def test_capacity_enforced(self, rng):
        store = LshLruCache(capacity=5, dim=8, rng=rng)
        for i in range(12):
            vec = np.zeros(8)
            vec[i % 8] = 1.0
            store.insert(vec, i)
        assert len(store) == 5

    def test_lru_eviction_order(self, rng):
        store = LshLruCache(capacity=2, dim=4, rng=rng)
        store.insert(np.eye(4)[0], 0)
        store.insert(np.eye(4)[1], 1)
        store.insert(np.eye(4)[2], 2)  # evicts label 0 (oldest)
        _, labels, _ = store.candidates(np.eye(4)[0])
        assert 0 not in labels

    def test_capacity_validation(self, rng):
        with pytest.raises(ValueError):
            LshLruCache(capacity=0, dim=4, rng=rng)


class TestSMTM:
    def test_caching_reduces_latency(self, small_scenario):
        runner = SMTM(small_scenario, frames_per_round=60)
        summary = runner.run(1, warmup_rounds=1).summary()
        assert summary.hit_ratio > 0.3
        assert summary.avg_latency_ms < runner.model.total_compute_ms

    def test_layers_are_static(self, small_scenario):
        runner = SMTM(small_scenario, frames_per_round=40)
        layers_before = list(runner.active_layers)
        runner.run(1)
        assert runner.active_layers == layers_before
        for engine in runner._engines:
            assert engine.cache.active_layers == layers_before

    def test_local_adaptation_changes_centroids(self, small_scenario):
        runner = SMTM(small_scenario, frames_per_round=80)
        layer = runner.active_layers[0]
        before = runner._centroids[layer].copy()
        runner.run(1)
        assert not np.allclose(runner._centroids[layer], before)

    def test_clients_do_not_share_state(self, small_scenario):
        runner = SMTM(small_scenario, frames_per_round=80)
        runner.run(1)
        layer = runner.active_layers[0]
        assert not np.allclose(
            runner._centroids[layer][0], runner._centroids[layer][1]
        )


class TestReplacementPolicies:
    @pytest.mark.parametrize("policy", ["lru", "fifo", "rand"])
    def test_policies_run_and_cache(self, small_scenario, policy):
        runner = ReplacementPolicyCache(
            small_scenario, policy=policy, cache_size=10, frames_per_round=50
        )
        summary = runner.run(1).summary()
        assert summary.num_samples == 2 * 50
        assert summary.hit_ratio > 0.0

    def test_resident_set_bounded(self, small_scenario):
        runner = ReplacementPolicyCache(
            small_scenario, policy="lru", cache_size=6, frames_per_round=60
        )
        runner.run(1)
        for resident in runner._resident:
            assert len(resident) <= 6

    def test_unknown_policy_rejected(self, small_scenario):
        with pytest.raises(ValueError):
            ReplacementPolicyCache(small_scenario, policy="mru")

    def test_memory_accounting(self, small_scenario):
        runner = ReplacementPolicyCache(
            small_scenario, policy="fifo", cache_size=10
        )
        expected = 10 * sum(
            runner.model.profile.entry_size_bytes(j) for j in runner.active_layers
        )
        assert runner.memory_bytes() == expected


def _runner(scenario, method, frames_per_round=60):
    if method == "smtm":
        return SMTM(scenario, frames_per_round=frames_per_round)
    return ReplacementPolicyCache(
        scenario, policy=method, cache_size=8, frames_per_round=frames_per_round
    )


class TestBaselinesMatchOracle:
    """SMTM and the replacement policies run a round's frames through the
    batched engine a window at a time; every row must decide and charge
    exactly what the scalar oracle does on the cache installed then, and
    the records must be those of running the frames one at a time."""

    @pytest.mark.parametrize("method", ["smtm", "lru", "fifo", "rand"])
    def test_every_frame_matches_the_oracle(self, small_scenario, method):
        runner = _runner(small_scenario, method)
        hit_layers = []

        def checked(engine):
            infer = engine.infer_batch_soa

            def run(window):
                cache = engine.cache
                assert cache.dtype == np.float32
                out = infer(window)
                for i, vectors in enumerate(window.vectors):
                    expected = oracle.infer(runner.model, cache, vectors)
                    hit_layer = int(out.hit_layer[i])
                    assert int(out.predicted_class[i]) == expected.predicted_class
                    assert (hit_layer if hit_layer >= 0 else None) == expected.hit_layer
                    assert float(out.latency_ms[i]) == expected.latency_ms
                    hit_layers.append(expected.hit_layer)
                return out

            return run

        for engine in runner._engines:
            engine.infer_batch_soa = checked(engine)
        assert runner.run(2).summary().num_samples == 2 * 2 * 60
        assert len(hit_layers) >= 2 * 2 * 60
        assert {layer is None for layer in hit_layers} == {True, False}

    @pytest.mark.parametrize("method", ["smtm", "lru", "fifo", "rand"])
    def test_windowed_rounds_equal_frame_by_frame(self, small_scenario, method):
        batched = _runner(small_scenario, method, frames_per_round=150)
        single = _runner(small_scenario, method, frames_per_round=150)
        process_round = type(single).process_round
        single.process_round = lambda client_id, batch: RecordBatch.concat(
            [
                process_round(single, client_id, batch[i : i + 1])
                for i in range(len(batch))
            ]
        )
        calls = []
        for engine in batched._engines:
            infer = engine.infer_batch_soa
            engine.infer_batch_soa = lambda s, infer=infer: calls.append(len(s)) or infer(s)

        got, want = (
            runner.run(2, warmup_rounds=1).records for runner in (batched, single)
        )
        assert len(got) == len(want) == 2 * 2 * 150
        for column in (
            "true_class", "predicted_class", "latency_ms", "hit_layer", "client_id"
        ):
            assert np.array_equal(getattr(got, column), getattr(want, column))
        assert max(calls) == BATCH_WINDOW
        if method == "smtm":
            for layer, centroids in batched._centroids.items():
                assert np.array_equal(centroids, single._centroids[layer])
        else:
            assert batched._resident == single._resident


class TestCoCaRunner:
    def test_runs_under_common_interface(self, small_scenario):
        runner = CoCaRunner(
            small_scenario, config=CoCaConfig(theta=0.05, frames_per_round=60)
        )
        summary = runner.run(1, warmup_rounds=1).summary()
        assert summary.num_samples == 2 * 60
        assert summary.avg_latency_ms < runner.model.total_compute_ms

    def test_budget_override(self, small_scenario):
        runner = CoCaRunner(
            small_scenario,
            config=CoCaConfig(theta=0.05, frames_per_round=40),
            budget_bytes=12345,
        )
        assert all(
            c.cache_budget_bytes == 12345 for c in runner.framework.clients
        )


class TestFairComparison:
    def test_all_methods_see_identical_model(self, small_scenario):
        """Same scenario seed => same feature geometry for every method."""
        edge = EdgeOnly(small_scenario)
        smtm = SMTM(small_scenario)
        a = edge.model.ideal_centroids(3)
        b = smtm.model.ideal_centroids(3)
        assert np.allclose(a, b)

    def test_every_method_draws_the_same_frames(self, small_scenario, monkeypatch):
        """Every method runs each (client, round) on bit-identical class
        ids and vectors: a round is one block and one draw on the
        client's generator, for CoCa as for the baselines."""
        rounds, frames = 3, 40
        config = CoCaConfig(frames_per_round=frames)
        draws = {}
        for method in METHODS:
            if method == "CoCa":
                runner = CoCaRunner(small_scenario, config=config)
            else:
                runner = build_runner(method, small_scenario)
                runner.frames_per_round = frames
            # Wrapped after construction: CoCa's calibration draws at
            # construction are not round draws.
            seen = draws[method] = []
            draw = runner.model.draw_samples

            def record(block, client_id, rng, draw=draw, seen=seen):
                batch = draw(block, client_id, rng)
                seen.append((client_id, batch.class_ids.copy(), batch.vectors.copy()))
                return batch

            with monkeypatch.context() as patch:
                patch.setattr(runner.model, "draw_samples", record)
                runner.run(rounds)
        reference = draws.pop("CoCa")
        assert len(reference) == rounds * small_scenario.num_clients
        for method, seen in draws.items():
            assert len(seen) == len(reference), method
            for (client, ids, vectors), (ref_client, ref_ids, ref_vectors) in zip(
                seen, reference
            ):
                assert client == ref_client, method
                assert np.array_equal(ids, ref_ids), method
                assert np.array_equal(vectors, ref_vectors), method


class TestBuildRunner:
    @pytest.mark.parametrize("method", list(METHODS))
    def test_threshold_reaches_its_keyword(self, small_scenario, method):
        _, cls, keyword = METHODS[method]
        runner = build_runner(method, small_scenario)
        assert type(runner) is cls and runner.name == method
        if keyword is None:
            return
        runner = build_runner(method, small_scenario, 0.123)
        owner = runner.config if method == "CoCa" else runner
        assert getattr(owner, keyword) == 0.123

    def test_none_keeps_the_constructor_default(self, small_scenario):
        assert build_runner("SMTM", small_scenario).theta == SMTM(small_scenario).theta
        assert build_runner("CoCa", small_scenario).config == CoCaConfig()

    def test_rejects_unknown_method_and_stray_threshold(self, small_scenario):
        with pytest.raises(KeyError):
            build_runner("edge", small_scenario)
        with pytest.raises(ValueError):
            build_runner("Edge-Only", small_scenario, 0.05)

    def test_runners_sharing_a_scenario_match_runners_on_copies(self, small_scenario):
        from dataclasses import replace

        for method in ("Edge-Only", "LearnedCache", "SMTM"):
            shared = build_runner(method, small_scenario).run(1).summary()
            copied = build_runner(method, replace(small_scenario)).run(1).summary()
            assert shared == copied, method
