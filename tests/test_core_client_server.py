"""Unit tests for the CoCa client and server protocol pieces."""

from dataclasses import replace

import numpy as np
import pytest

import oracle
from repro.core.client import CoCaClient, UpdateTable
from repro.core.config import CoCaConfig
from repro.core.framework import CoCaFramework
from repro.core.server import (
    CoCaServer,
    GlobalCacheTable,
    calibrate,
    measure_layer_statistics,
    measure_similarity_floors,
)
from repro.data.datasets import get_dataset
from repro.data.stream import StreamGenerator
from repro.experiments.slo import DEFAULT_GRIDS
from repro.models.zoo import build_model


@pytest.fixture
def config():
    return CoCaConfig(theta=0.04, frames_per_round=60)


@pytest.fixture
def server(tiny_model, config, rng):
    server = CoCaServer(tiny_model, config, freq_prior=10.0)
    server.initialize(calibrate(tiny_model, rng, 150))
    return server


def _client(tiny_model, config, client_id=0, seed=5, budget=None):
    """A client on a uniform stream; ``budget=None`` gives it the
    framework's Pi (the server's ``cache_size_limit_bytes``)."""
    if budget is None:
        budget = CoCaServer(tiny_model, config).cache_size_limit_bytes()
    rng = np.random.default_rng(seed)
    stream = StreamGenerator(
        class_distribution=np.full(8, 1 / 8),
        mean_run_length=6.0,
        rng=rng,
        base_difficulty=0.3,
    )
    return CoCaClient(
        client_id=client_id,
        model=tiny_model,
        stream=stream,
        config=config,
        rng=rng,
        cache_budget_bytes=budget,
    )


class TestGlobalCacheTable:
    def test_install_normalizes(self):
        table = GlobalCacheTable(4, 3, 8)
        table.install(1, 2, np.full(8, 2.0))
        assert np.linalg.norm(table.entries[1, 2]) == pytest.approx(1.0)
        assert table.filled[1, 2]

    def test_install_rejects_zero(self):
        table = GlobalCacheTable(4, 3, 8)
        with pytest.raises(ValueError):
            table.install(0, 0, np.zeros(8))

    def test_eq4_weighted_merge(self):
        """E = gamma * Phi/(Phi+phi) * E + phi/(Phi+phi) * U, normalized."""
        table = GlobalCacheTable(2, 1, 4)
        table.class_freq[:] = 30.0
        old = np.array([1.0, 0.0, 0.0, 0.0])
        new = np.array([0.0, 1.0, 0.0, 0.0])
        table.install(0, 0, old)
        table.merge_updates(np.array([0]), np.array([0]), new[None, :], np.array([10.0]), 0.99)
        expected = 0.99 * (30 / 40) * old + (10 / 40) * new
        expected /= np.linalg.norm(expected)
        assert np.allclose(table.entries[0, 0], expected)

    def test_merge_with_zero_frequency_is_noop(self):
        table = GlobalCacheTable(2, 1, 4)
        table.install(0, 0, np.eye(4)[0])
        before = table.entries[0, 0].copy()
        table.merge_updates(np.array([0]), np.array([0]), np.eye(4)[1:2], np.array([0.0]), 0.99)
        assert np.allclose(table.entries[0, 0], before)

    def test_merge_into_unfilled_installs(self):
        table = GlobalCacheTable(2, 1, 4)
        table.merge_updates(np.array([1]), np.array([0]), np.eye(4)[2:3], np.array([5.0]), 0.99)
        assert table.filled[1, 0]

    def test_eq5_frequency_accumulation(self):
        table = GlobalCacheTable(3, 1, 4)
        table.add_frequencies(np.array([1.0, 2.0, 0.0]))
        table.add_frequencies(np.array([0.5, 0.0, 1.0]))
        assert np.allclose(table.class_freq, [1.5, 2.0, 1.0])

    def test_frequency_validation(self):
        table = GlobalCacheTable(3, 1, 4)
        with pytest.raises(ValueError):
            table.add_frequencies(np.array([1.0, -1.0, 0.0]))
        with pytest.raises(ValueError):
            table.add_frequencies(np.ones(2))


class TestServer:
    def test_initialization_fills_table(self, server, tiny_model):
        # Every (class, layer) cell filled is what lets ACA hand every
        # activated layer the same hot-spot set, the one class set a
        # cache may hold (build_cache would refuse diverging ones).
        assert server.table.filled.all()
        # Entries equal ideal centroids.
        assert np.allclose(
            server.table.entries[:, 2, :], tiny_model.ideal_centroids(2)
        )

    def test_reference_statistics_shapes(self, server, tiny_model):
        L = tiny_model.num_cache_layers
        assert server.reference_hit_ratio.shape == (L,)
        assert server.reference_exit_loss.shape == (L,)
        assert np.all(server.reference_hit_ratio >= 0)
        assert np.all(server.reference_hit_ratio <= 1)

    def test_hit_ratio_grows_with_depth_overall(self, server):
        ratios = server.reference_hit_ratio
        assert ratios[-1] > ratios[0]

    def test_eligible_layers_subset(self, server, tiny_model):
        eligible = server.eligible_layers()
        assert np.all((eligible >= 0) & (eligible < tiny_model.num_cache_layers))
        # A zero budget leaves nothing eligible.
        assert server.eligible_layers(accuracy_loss_budget=-1.0).size == 0

    def test_allocate_respects_budget(self, server, tiny_model):
        budget = 200
        cache, result = server.allocate(
            timestamps=np.zeros(8),
            hit_ratio=server.reference_hit_ratio,
            budget_bytes=budget,
        )
        assert result.size_bytes <= budget
        assert cache.size_bytes(tiny_model.profile.entry_size_bytes) <= budget

    def test_allocate_skips_a_layer_with_an_unfilled_cell(self):
        """A table column with one unfilled hot-spot cell (as a snapshot
        handed to ``load_table`` may hold) cannot give its layer the
        whole hot-spot set: allocation leaves that layer out instead of
        building a cache of two class sets, which the cache refuses."""
        model = build_model("resnet50", get_dataset("ucf101", 12), seed=1)
        server = CoCaServer(model, CoCaConfig())
        server.initialize(calibrate(model, np.random.default_rng(0)))
        request = dict(
            timestamps=np.zeros(model.num_classes),
            hit_ratio=server.reference_hit_ratio,
            budget_bytes=server.cache_size_limit_bytes(),
        )
        _, full = server.allocate(**request)
        assert len(full.layers) > 1
        layer, hot = full.layers[0], int(full.hotspot_classes[0])
        server.table.filled[hot, layer] = False
        server.table.entries[hot, layer] = 0.0
        cache, result = server.allocate(**request)
        assert result.layers and layer not in result.layers
        assert cache.active_layers == sorted(result.layers)
        assert cache.layer_pack().ids.tolist() == result.hotspot_classes.tolist()

    def test_apply_client_update_moves_entry(self, server, tiny_model):
        layer = tiny_model.num_cache_layers - 1
        before = server.table.entries[0, layer].copy()
        new_vec = -before  # maximally different
        server.apply_client_update(
            UpdateTable(np.array([0]), np.array([layer]), new_vec[None, :]),
            local_freq=np.array([30.0] + [0.0] * 7),
        )
        after = server.table.entries[0, layer]
        assert not np.allclose(after, before)
        assert float(server.table.class_freq[0]) == pytest.approx(40.0)

    def test_cache_size_limit_fraction(self, server, tiny_model):
        full = 8 * sum(
            tiny_model.profile.entry_size_bytes(j)
            for j in range(tiny_model.num_cache_layers)
        )
        half = CoCaServer(tiny_model, replace(server.config, cache_budget_fraction=0.5))
        assert half.cache_size_limit_bytes() == int(0.5 * full)


#: Every theta the repository runs CoCa at: the SLO sweep's grid
#: (``DEFAULT_GRIDS["CoCa"]``), Fig. 5's values for vgg16_bn and
#: resnet101 (``benchmarks/test_fig5_theta.py``), the config default and 0.
CALIBRATION_THETAS = sorted(
    {
        *DEFAULT_GRIDS["CoCa"],
        *(0.03, 0.045, 0.06, 0.075, 0.09),
        *(0.02, 0.035, 0.05, 0.065, 0.08),
        CoCaConfig().theta,
        0.0,
    }
)


class TestCalibrationMatchesOracle:
    """Calibration keeps a theta-free score table; at every theta its
    statistics are the bits of ``oracle.layer_statistics``, a per-layer
    loop that counts fires at that theta, from the same draws."""

    @staticmethod
    def _check(model, config, seed, num_samples):
        rng = np.random.default_rng(seed)
        table = measure_layer_statistics(model, rng, num_samples=num_samples)
        for theta in CALIBRATION_THETAS:
            expected_rng = np.random.default_rng(seed)
            expected = oracle.layer_statistics(model, expected_rng, num_samples, theta)
            got = table.statistics(theta)
            for a, b in zip(got, expected, strict=True):
                assert np.array_equal(a, b), theta
            # Both consumed the same draws.
            assert rng.bit_generator.state == expected_rng.bit_generator.state
        # The case is not vacuous: some layer fires at the config's theta.
        assert table.statistics(config.theta)[0].any()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tiny_model(self, tiny_model, config, seed):
        self._check(tiny_model, config, seed, num_samples=150)

    @pytest.mark.parametrize("seed", [1000, 1001, 1002])
    def test_resnet101_ucf101_50(self, seed):
        model = build_model("resnet101", get_dataset("ucf101", 50), seed=0)
        self._check(model, CoCaConfig(), seed, num_samples=600)

    @pytest.mark.parametrize("seed", [0, 1000])
    def test_resnet152_ucf101(self, seed):
        model = build_model("resnet152", get_dataset("ucf101"), num_clients=4, seed=0)
        self._check(model, CoCaConfig(), seed, num_samples=600)


class TestLayerScores:
    def test_fires_and_hit_ratio_fall_as_theta_rises(self, tiny_model, config):
        table = measure_layer_statistics(tiny_model, np.random.default_rng(0), num_samples=150)
        thetas = np.linspace(0.0, 0.3, 31)
        fires = np.array([(table.scores > theta).sum(axis=1) for theta in thetas])
        ratios = np.array([table.statistics(theta)[0] for theta in thetas])
        assert np.all(np.diff(fires, axis=0) <= 0)
        assert np.all(np.diff(ratios, axis=0) <= 0)
        # Not vacuous: the grid spans firing and silent thresholds.
        assert ratios[0].any() and ratios[0].sum() > ratios[-1].sum()

    def test_a_non_positive_best_never_fires(self, tiny_model, config, monkeypatch):
        """Cached centroids negated on odd layers, where the best
        similarities turn negative.  Those scores are -inf, so not even
        theta = -inf fires them, as in the oracle's rule (fire only on a
        positive best)."""
        ideal = tiny_model.ideal_centroids
        monkeypatch.setattr(
            tiny_model, "ideal_centroids", lambda layer: ideal(layer) * (-1) ** layer
        )
        table = measure_layer_statistics(tiny_model, np.random.default_rng(0), num_samples=150)
        assert np.isneginf(table.scores).any() and np.isfinite(table.scores).any()
        expected = oracle.layer_statistics(tiny_model, np.random.default_rng(0), 150, -np.inf)
        for a, b in zip(table.statistics(-np.inf), expected, strict=True):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("model_name", ["tiny", "resnet101"])
    def test_initialization_is_two_passes_then_floors(
        self, tiny_model, config, model_name
    ):
        model, num_samples = tiny_model, 150
        if model_name == "resnet101":
            model = build_model("resnet101", get_dataset("ucf101", 50), seed=0)
            config, num_samples = CoCaConfig(), 600
        server = CoCaServer(model, config)
        server.initialize(calibrate(model, np.random.default_rng(3), num_samples))
        rng = np.random.default_rng(3)
        first = oracle.layer_statistics(model, rng, num_samples, config.theta)
        second = oracle.layer_statistics(model, rng, num_samples, config.theta)
        floors = oracle.similarity_floors(model, rng, num_samples)
        assert np.array_equal(server.reference_hit_ratio, (first[0] + second[0]) / 2.0)
        assert np.array_equal(server.reference_exit_loss, (first[1] + second[1]) / 2.0)
        assert np.array_equal(server.reference_similarity_floor, floors)
        assert server.reference_hit_ratio.any()


class TestFloorsPinnedToOracle:
    """``measure_similarity_floors`` scores the own-class cosines in row
    blocks; ``oracle.similarity_floors`` scores every kept row at once.
    The floors and the generator state afterwards must be bit-equal."""

    @staticmethod
    def _check(model, seed, num_samples):
        rng = np.random.default_rng(seed)
        expected_rng = np.random.default_rng(seed)
        got = measure_similarity_floors(model, rng, num_samples=num_samples)
        expected = oracle.similarity_floors(model, expected_rng, num_samples)
        assert np.array_equal(got, expected)
        assert rng.bit_generator.state == expected_rng.bit_generator.state
        # The case is not vacuous: the floors come from kept rows.
        assert np.all(got > -1.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tiny_model(self, tiny_model, config, seed):
        self._check(tiny_model, seed, num_samples=150)

    @pytest.mark.parametrize("seed", [1000, 1001, 1002])
    def test_resnet101_ucf101_50(self, seed):
        model = build_model("resnet101", get_dataset("ucf101", 50), seed=0)
        self._check(model, seed, num_samples=600)

    @pytest.mark.parametrize("seed", [1000, 1001, 1002])
    def test_resnet152_ucf101(self, seed):
        model = build_model("resnet152", get_dataset("ucf101"), num_clients=4, seed=0)
        self._check(model, seed, num_samples=600)


class TestClient:
    def test_status_reports_budget_and_vectors(self, tiny_model, config):
        client = _client(tiny_model, config, budget=500)
        status = client.status()
        assert status.cache_budget_bytes == 500
        assert status.timestamps.shape == (8,)
        assert status.frequencies.shape == (8,)
        assert status.hit_ratio.shape == (tiny_model.num_cache_layers,)

    def test_default_budget_uses_fraction(self):
        """A framework gives every client Pi = ``cache_budget_fraction``
        of the full table."""
        config = CoCaConfig(frames_per_round=20, cache_budget_fraction=0.2)
        fw = CoCaFramework(
            get_dataset("ucf101", 12), model_name="resnet50", num_clients=2,
            config=config, seed=1,
        )
        profile = fw.model.profile
        full = fw.model.num_classes * sum(
            profile.entry_size_bytes(j) for j in range(fw.model.num_cache_layers)
        )
        budgets = [client.cache_budget_bytes for client in fw.clients]
        assert budgets == [int(0.2 * full)] * 2

    def test_round_without_cache_runs_full_model(self, tiny_model, config):
        client = _client(tiny_model, replace(config, frames_per_round=30))
        report = client.run_round()
        assert len(report.records) == 30
        assert not report.records.hit.any()
        lat = np.mean(report.records.latency_ms)
        assert lat == pytest.approx(tiny_model.total_compute_ms)

    def test_timestamps_track_recency(self, tiny_model, config):
        client = _client(tiny_model, replace(config, frames_per_round=20))
        report = client.run_round()
        last = report.records.predicted_class[-1]
        assert client.timestamps[last] == 0.0
        # Total counts: every inference increments all, then zeroes one.
        assert client.timestamps.max() <= 20

    def test_frequencies_sum_to_round_length(self, tiny_model, config):
        client = _client(tiny_model, replace(config, frames_per_round=25))
        report = client.run_round()
        assert report.frequencies.sum() == pytest.approx(25.0)
        assert np.allclose(client.last_frequencies, report.frequencies)

    def test_update_entries_are_unit_norm(self, tiny_model, config, server):
        client = _client(tiny_model, replace(config, frames_per_round=80))
        cache, _ = server.allocate(
            np.zeros(8), server.reference_hit_ratio, client.cache_budget_bytes
        )
        client.install_cache(cache)
        report = client.run_round()
        assert len(report.update_entries) > 0
        for vec in report.update_entries.vectors:
            assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_collection_respects_thresholds(self, tiny_model, server):
        """With impossibly strict Gamma/Delta nothing is collected."""
        strict = CoCaConfig(
            theta=0.04, frames_per_round=60, collect_gamma=10.0, collect_delta=10.0
        )
        client = _client(tiny_model, strict)
        cache, _ = server.allocate(
            np.zeros(8), server.reference_hit_ratio, client.cache_budget_bytes
        )
        client.install_cache(cache)
        report = client.run_round()
        assert len(report.update_entries) == 0
        assert report.update_entries.vectors.shape == (0, tiny_model.feature_space.config.dim)
        assert report.absorbed_hits == 0
        assert report.absorbed_misses == 0
        # An empty upload leaves the global table as it was.
        before = server.table.entries.copy()
        server.apply_client_update(report.update_entries, report.frequencies)
        assert np.array_equal(server.table.entries, before)

    def test_hit_ratio_seeding_validates_shape(self, tiny_model, config):
        client = _client(tiny_model, config)
        with pytest.raises(ValueError):
            client.seed_hit_ratio(np.zeros(3))

    def test_invalid_budget(self, tiny_model, config):
        with pytest.raises(ValueError):
            _client(tiny_model, config, budget=0)


class TestUpdateTable:
    """The update table a round uploads: one row per collected
    ``(class, layer)`` key."""

    def _collect_everything(self, tiny_model, server, frames=80):
        # Gamma = Delta = 0: every frame is collected.
        config = CoCaConfig(
            theta=0.04, frames_per_round=frames, collect_gamma=0.0, collect_delta=0.0
        )
        client = _client(tiny_model, config)
        cache, _ = server.allocate(
            np.zeros(8), server.reference_hit_ratio, client.cache_budget_bytes
        )
        client.install_cache(cache)
        report = client.run_round()
        assert report.collected_total == frames
        return report

    def test_len_is_the_row_count(self, tiny_model, server):
        table = self._collect_everything(tiny_model, server).update_entries
        dim = tiny_model.feature_space.config.dim
        assert len(table) == table.class_ids.size == table.layers.size > 0
        assert table.vectors.shape == (len(table), dim)
        keys = set(zip(table.class_ids.tolist(), table.layers.tolist()))
        assert len(keys) == len(table)

    def test_key_order(self, tiny_model, server):
        report = self._collect_everything(tiny_model, server)
        table = report.update_entries
        keys = list(zip(table.class_ids.tolist(), table.layers.tolist()))
        assert keys == sorted(keys)
        records = report.records
        assert {k[0] for k in keys} == set(records.predicted_class.tolist())
        # A miss collects every preset layer: its class has a full row set.
        missed = set(records.predicted_class[~records.hit].tolist())
        for class_id in missed:
            layers = table.layers[table.class_ids == class_id]
            assert np.array_equal(layers, np.arange(tiny_model.num_cache_layers))
