"""Round-report equivalence: vectorized round pipeline vs scalar reference.

Runs in the float64 exact mode (``lookup_dtype="float64"``, pruning
off): the scalar reference probes through BLAS gemv and the vectorized
round through gemm, which round differently in float32 — single
precision is the serving default, double precision the equivalence
contract.

The end-to-end vectorized round (block frame generation, batched sample
draw, SoA inference, grouped Eq. 3 collection, one-pass Eq. 4 merge) must
be a pure performance optimization.  Given the *same* pre-drawn
:class:`~repro.models.feature.SampleBatch`, ``CoCaClient.run_round`` and
``oracle.run_round`` (``tests/oracle.py``) must produce identical
:class:`RoundReport` contents — records, update tables, phi/tau vectors,
absorption diagnostics — and ``CoCaServer.apply_client_update`` /
``oracle.apply_client_update`` must then produce identical global
tables.
"""

import numpy as np
import pytest

import oracle

from repro.core.client import CoCaClient
from repro.core.config import CoCaConfig
from repro.core.server import CoCaServer, GlobalCacheTable, calibrate
from repro.data.stream import StreamGenerator
from repro.models.feature import SampleBatch


def _build_client(tiny_model, seed, frames=120, theta=0.05, **overrides):
    config = CoCaConfig(
        frames_per_round=frames, theta=theta, lookup_dtype="float64", **overrides
    )
    stream = StreamGenerator(
        class_distribution=np.full(
            tiny_model.num_classes, 1.0 / tiny_model.num_classes
        ),
        mean_run_length=tiny_model.dataset.mean_run_length,
        rng=np.random.default_rng(seed + 1),
        base_difficulty=tiny_model.dataset.difficulty,
    )
    return CoCaClient(
        client_id=0,
        model=tiny_model,
        stream=stream,
        config=config,
        rng=np.random.default_rng(seed),
        cache_budget_bytes=1,  # read by allocation only; none runs here
    )


def _all_layer_cache(tiny_model, theta=0.05):
    from repro.core.cache import SemanticCache

    cache = SemanticCache(tiny_model.num_classes, theta=theta, dtype=np.float64)
    for layer in range(tiny_model.num_cache_layers):
        cache.set_layer_entries(
            layer,
            np.arange(tiny_model.num_classes),
            tiny_model.ideal_centroids(layer),
        )
    return cache


def _assert_reports_equal(fast, ref):
    assert len(fast.records) == len(ref.records)
    for column in ("true_class", "predicted_class", "hit_layer", "client_id"):
        assert np.array_equal(getattr(fast.records, column), getattr(ref.records, column))
    assert np.allclose(
        fast.records.latency_ms, ref.records.latency_ms, rtol=1e-12, atol=1e-12
    )
    assert np.array_equal(fast.frequencies, ref.frequencies)
    # Same keys, vectors to rounding.
    fast_table, ref_table = fast.update_entries, ref.update_entries
    assert np.array_equal(fast_table.class_ids, ref_table.class_ids)
    assert np.array_equal(fast_table.layers, ref_table.layers)
    assert np.allclose(fast_table.vectors, ref_table.vectors, atol=1e-9)
    assert fast.eligible_hits == ref.eligible_hits
    assert fast.eligible_misses == ref.eligible_misses
    assert fast.absorbed_hits == ref.absorbed_hits
    assert fast.absorbed_misses == ref.absorbed_misses
    assert fast.collected_total == ref.collected_total
    assert fast.collected_correct == ref.collected_correct


class TestClientRoundEquivalence:
    @pytest.mark.parametrize("seed", [0, 3, 21])
    def test_round_report_matches_reference(self, tiny_model, seed):
        fast = _build_client(tiny_model, seed)
        ref = _build_client(tiny_model, seed)
        cache = _all_layer_cache(tiny_model)
        fast.install_cache(cache)
        ref.install_cache(cache)
        block = fast.stream.take_block(fast.config.frames_per_round)
        batch = tiny_model.draw_samples(block, 0, fast._rng)

        report_fast = fast.run_round(batch=batch)
        report_ref = oracle.run_round(ref, batch)

        _assert_reports_equal(report_fast, report_ref)
        assert np.array_equal(fast.timestamps, ref.timestamps)
        assert np.array_equal(fast.last_frequencies, ref.last_frequencies)
        assert np.allclose(fast.hit_ratio, ref.hit_ratio)

    def test_cacheless_round_matches_reference(self, tiny_model):
        fast = _build_client(tiny_model, 5, frames=60)
        ref = _build_client(tiny_model, 5, frames=60)
        block = fast.stream.take_block(60)
        batch = tiny_model.draw_samples(block, 0, fast._rng)
        _assert_reports_equal(
            fast.run_round(batch=batch), oracle.run_round(ref, batch)
        )

    def test_low_gamma_collects_everything_identically(self, tiny_model):
        """Force heavy collection (Gamma=Delta=0) so the grouped Eq. 3
        fold exercises long per-key chains."""
        config = CoCaConfig(
            frames_per_round=100,
            collect_gamma=0.0,
            collect_delta=0.0,
            lookup_dtype="float64",
        )
        clients = []
        for _ in range(2):
            stream = StreamGenerator(
                class_distribution=np.full(
                    tiny_model.num_classes, 1.0 / tiny_model.num_classes
                ),
                mean_run_length=tiny_model.dataset.mean_run_length,
                rng=np.random.default_rng(8),
                base_difficulty=tiny_model.dataset.difficulty,
            )
            client = CoCaClient(
                client_id=0,
                model=tiny_model,
                stream=stream,
                config=config,
                rng=np.random.default_rng(9),
                cache_budget_bytes=1,  # read by allocation only; none runs here
            )
            client.install_cache(_all_layer_cache(tiny_model))
            clients.append(client)
        fast, ref = clients
        batch = tiny_model.draw_samples(fast.stream.take_block(100), 0, fast._rng)
        report_fast = fast.run_round(batch=batch)
        report_ref = oracle.run_round(ref, batch)
        assert report_fast.collected_total == 100
        _assert_reports_equal(report_fast, report_ref)

    def test_zero_norm_miss_fold_keeps_the_previous_row(self, tiny_model, make_block):
        """A collected miss whose level ``j`` is exactly ``-beta`` times
        the running U row folds to a zero vector there: U[j] keeps its
        previous row, a level that folds to zero on a class's first
        sample stays unset, and every other layer folds."""
        space = tiny_model.feature_space
        num_layers, dim = tiny_model.num_cache_layers, space.config.dim
        class_id, j, unset = 2, 3, 1
        rng = np.random.default_rng(4)
        vectors = rng.standard_normal((2, num_layers + 1, dim))
        vectors /= np.linalg.norm(vectors, axis=-1, keepdims=True)
        # The final level is the class's own centroid: a confident miss.
        vectors[:, num_layers] = space.centroid(class_id, space.final_layer)
        basis = np.eye(dim)[5]  # unit norm: the first fold stores it exactly
        vectors[0, j] = basis
        beta = CoCaConfig().beta
        vectors[1, j] = -(beta * basis)  # V + beta * U == 0
        vectors[:, unset] = 0.0
        batch = SampleBatch(
            block=make_block([class_id, class_id]),
            client_id=0,
            vectors=vectors,
            space=space,
            confusion_targets=np.zeros(2, dtype=np.int64),
            confusion_weights=np.zeros(2),
        )
        fast, ref = (
            _build_client(tiny_model, 0, frames=2, collect_delta=0.0) for _ in range(2)
        )
        report = fast.run_round(batch=batch)
        assert report.absorbed_misses == 2
        _assert_reports_equal(report, oracle.run_round(ref, batch))

        table = report.update_entries
        assert np.all(table.class_ids == class_id)
        expected_layers = [layer for layer in range(num_layers) if layer != unset]
        assert table.layers.tolist() == expected_layers
        assert np.array_equal(table.vectors[expected_layers.index(j)], basis)
        other = 0
        first = vectors[0, other] / np.linalg.norm(vectors[0, other])
        folded = vectors[1, other] + beta * first
        assert np.allclose(
            table.vectors[expected_layers.index(other)],
            folded / np.linalg.norm(folded),
        )

    def test_run_round_draws_from_stream_when_no_batch(self, tiny_model):
        client = _build_client(tiny_model, 13, frames=40)
        client.install_cache(_all_layer_cache(tiny_model))
        report = client.run_round()
        assert len(report.records) == 40
        assert report.frequencies.sum() == 40

    def test_rejects_empty_round(self, tiny_model):
        client = _build_client(tiny_model, 1)
        empty = tiny_model.draw_samples(client.stream.take_block(0), 0, client._rng)
        with pytest.raises(ValueError):
            client.run_round(batch=empty)
        with pytest.raises(ValueError):
            oracle.run_round(client, empty)


class TestServerMergeEquivalence:
    def _update_table(self, tiny_model, seed, entries=30):
        rng = np.random.default_rng(seed)
        table: dict[tuple[int, int], np.ndarray] = {}
        dim = tiny_model.feature_space.config.dim
        while len(table) < entries:
            key = (
                int(rng.integers(tiny_model.num_classes)),
                int(rng.integers(tiny_model.num_cache_layers)),
            )
            vec = rng.standard_normal(dim)
            table[key] = vec / np.linalg.norm(vec)
        return oracle.update_table(table, dim)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_vectorized_merge_matches_reference(self, tiny_model, seed):
        config = CoCaConfig()
        fast = CoCaServer(tiny_model, config)
        ref = CoCaServer(tiny_model, config)
        for server in (fast, ref):
            server.initialize(calibrate(tiny_model, np.random.default_rng(0), 60))
        updates = self._update_table(tiny_model, seed)
        freq = np.random.default_rng(seed + 1).integers(
            0, 12, tiny_model.num_classes
        ).astype(float)
        fast.apply_client_update(updates, freq)
        oracle.apply_client_update(ref, updates, freq)
        assert np.allclose(fast.table.entries, ref.table.entries, atol=1e-12)
        assert np.array_equal(fast.table.filled, ref.table.filled)
        assert np.array_equal(fast.table.class_freq, ref.table.class_freq)

    def test_merge_into_partially_filled_table(self, tiny_model):
        """Unfilled slots install, filled slots blend — in one pass."""
        dim = tiny_model.feature_space.config.dim
        tables = [
            GlobalCacheTable(tiny_model.num_classes, tiny_model.num_cache_layers, dim)
            for _ in range(2)
        ]
        rng = np.random.default_rng(3)
        for table in tables:
            table.class_freq += 5.0
            table.install(0, 0, np.eye(dim)[0])
            table.install(2, 1, np.eye(dim)[1])
        updates = self._update_table(tiny_model, 4, entries=20)
        freq = rng.integers(1, 6, tiny_model.num_classes).astype(float)
        fast, ref = tables
        ids, layers = updates.class_ids, updates.layers
        fast.merge_updates(ids, layers, updates.vectors, freq[ids], 0.99)
        for class_id, layer, vec in zip(ids.tolist(), layers.tolist(), updates.vectors):
            oracle.merge_update(ref, class_id, layer, vec, float(freq[class_id]), 0.99)
        assert np.allclose(fast.entries, ref.entries, atol=1e-12)
        assert np.array_equal(fast.filled, ref.filled)

    def test_zero_frequency_entries_skipped(self, tiny_model):
        dim = tiny_model.feature_space.config.dim
        table = GlobalCacheTable(tiny_model.num_classes, tiny_model.num_cache_layers, dim)
        vec = np.eye(dim)[0]
        table.merge_updates(
            np.array([1]), np.array([0]), vec[None, :], np.array([0.0]), 0.99
        )
        assert not table.filled[1, 0]

    def test_merge_updates_validation(self, tiny_model):
        dim = tiny_model.feature_space.config.dim
        table = GlobalCacheTable(tiny_model.num_classes, tiny_model.num_cache_layers, dim)
        vec = np.eye(dim)[:1]
        with pytest.raises(ValueError):  # duplicate keys
            table.merge_updates(
                np.array([1, 1]),
                np.array([0, 0]),
                np.vstack([vec, vec]),
                np.array([1.0, 1.0]),
                0.99,
            )
        with pytest.raises(ValueError):  # negative frequency
            table.merge_updates(
                np.array([1]), np.array([0]), vec, np.array([-1.0]), 0.99
            )
        with pytest.raises(ValueError):  # class out of range
            table.merge_updates(
                np.array([tiny_model.num_classes]),
                np.array([0]),
                vec,
                np.array([1.0]),
                0.99,
            )
        with pytest.raises(ValueError):  # layer out of range
            table.merge_updates(
                np.array([0]),
                np.array([tiny_model.num_cache_layers]),
                vec,
                np.array([1.0]),
                0.99,
            )
        with pytest.raises(ValueError):  # shape mismatch
            table.merge_updates(
                np.array([0]), np.array([0]), vec[:, :4], np.array([1.0]), 0.99
            )


class TestEndToEndEquivalence:
    def test_multi_client_round_and_merge(self, tiny_model):
        """Two identical deployments: one runs the vectorized pipeline,
        one the scalar reference, both on the same pre-drawn batches —
        the merged global tables must coincide."""
        config = CoCaConfig(frames_per_round=80, theta=0.05, lookup_dtype="float64")
        servers = [CoCaServer(tiny_model, config) for _ in range(2)]
        for server in servers:
            server.initialize(calibrate(tiny_model, np.random.default_rng(1), 80))
        fast_server, ref_server = servers
        collected = 0
        for client_seed in range(3):
            fast = _build_client(tiny_model, client_seed, frames=80)
            ref = _build_client(tiny_model, client_seed, frames=80)
            status = fast.status()
            cache_fast, _ = fast_server.allocate(
                status.timestamps,
                status.hit_ratio,
                status.cache_budget_bytes,
                local_freq=status.frequencies,
            )
            status_ref = ref.status()
            cache_ref, _ = ref_server.allocate(
                status_ref.timestamps,
                status_ref.hit_ratio,
                status_ref.cache_budget_bytes,
                local_freq=status_ref.frequencies,
            )
            fast.install_cache(cache_fast)
            ref.install_cache(cache_ref)
            batch = tiny_model.draw_samples(
                fast.stream.take_block(80), 0, fast._rng
            )
            report_fast = fast.run_round(batch=batch)
            report_ref = oracle.run_round(ref, batch)
            _assert_reports_equal(report_fast, report_ref)
            collected += report_fast.collected_total
            fast_server.apply_client_update(
                report_fast.update_entries, report_fast.frequencies
            )
            oracle.apply_client_update(
                ref_server, report_ref.update_entries, report_ref.frequencies
            )
        assert np.allclose(
            fast_server.table.entries, ref_server.table.entries, atol=1e-9
        )
        assert np.array_equal(fast_server.table.filled, ref_server.table.filled)
        assert np.array_equal(
            fast_server.table.class_freq, ref_server.table.class_freq
        )
        assert collected > 0, "the equivalence rounds collected nothing"

    def test_soa_outcomes_match_object_outcomes(self, tiny_model):
        """BatchOutcomes arrays must mirror the scalar engine's per-sample
        outcome objects on the batch a client round runs."""
        cache = _all_layer_cache(tiny_model)
        client = _build_client(tiny_model, 2, frames=60)
        client.install_cache(cache)
        batch = tiny_model.draw_samples(client.stream.take_block(60), 0, client._rng)
        soa = client.batch_engine.infer_batch_soa(batch)
        for i in range(len(batch)):
            outcome = oracle.infer(tiny_model, cache, batch.vectors[i])
            assert soa.predicted_class[i] == outcome.predicted_class
            expected_layer = -1 if outcome.hit_layer is None else outcome.hit_layer
            assert soa.hit_layer[i] == expected_layer
            assert soa.latency_ms[i] == pytest.approx(outcome.latency_ms, rel=1e-12)
            if outcome.hit_score is None:
                assert np.isnan(soa.hit_score[i])
            else:
                assert soa.hit_score[i] == pytest.approx(outcome.hit_score, rel=1e-9)
            if outcome.top2_prob_gap is None:
                assert np.isnan(soa.top2_prob_gap[i])
            else:
                assert soa.top2_prob_gap[i] == pytest.approx(
                    outcome.top2_prob_gap, rel=1e-9
                )
