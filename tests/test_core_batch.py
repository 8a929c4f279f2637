"""Scalar/batch equivalence suite.

The batched inference subsystem must be a pure performance optimization:
for any cache configuration,
:meth:`BatchedInferenceEngine.infer_batch_soa` must reproduce
the scalar oracle's ``infer`` (``tests/oracle.py``) outcome for outcome, field by field —
predictions, hit layers, latencies, hit scores and top-2 gaps — and
:class:`BatchedLookupSession` the scalar session's per-layer probe
records.

Caches here are built in the float64 exact mode: scalar probes run
through BLAS gemv and batched probes through gemm, whose float32
rounding differs in the last ulp — the documented single-precision
tolerance.  The float32-vs-float64 *decision* parity has its own suite
(``tests/test_dtype_parity.py``); this one pins the exact path.
"""

import numpy as np
import pytest

import oracle

from repro.core.cache import BatchedLookupSession, SemanticCache
from repro.core.engine import BatchedInferenceEngine
from repro.data.stream import StreamGenerator


def _draw_samples(model, seed, count, client_id=0):
    rng = np.random.default_rng(seed)
    stream = StreamGenerator(
        class_distribution=np.full(model.num_classes, 1.0 / model.num_classes),
        mean_run_length=model.dataset.mean_run_length,
        rng=rng,
        base_difficulty=model.dataset.difficulty,
    )
    return model.draw_samples(stream.take_block(count), client_id, rng)


def _build_cache(model, variant):
    num_classes = model.num_classes
    all_ids = np.arange(num_classes)
    if variant == "all_layers":
        cache = SemanticCache(num_classes, theta=0.05, dtype=np.float64)
        for layer in range(model.num_cache_layers):
            cache.set_layer_entries(layer, all_ids, model.ideal_centroids(layer))
    elif variant == "floored":
        cache = SemanticCache(num_classes, theta=0.02, dtype=np.float64)
        for layer in range(model.num_cache_layers):
            cache.set_layer_entries(layer, all_ids, model.ideal_centroids(layer))
            cache.set_similarity_floor(layer, 0.85)
    elif variant == "partial":
        # Some of the classes on some of the layers.
        cache = SemanticCache(num_classes, theta=0.02, alpha=0.7, dtype=np.float64)
        for layer in (1, 3):
            cache.set_layer_entries(layer, all_ids[:5], model.ideal_centroids(layer)[:5])
    elif variant == "single_entry":
        # One class on every layer: no runner-up, so nothing ever hits.
        cache = SemanticCache(num_classes, theta=0.0, dtype=np.float64)
        for layer in (0, 4):
            cache.set_layer_entries(layer, all_ids[2:3], model.ideal_centroids(layer)[2:3])
    elif variant == "impossible":
        cache = SemanticCache(num_classes, theta=np.inf, dtype=np.float64)
        for layer in range(model.num_cache_layers):
            cache.set_layer_entries(layer, all_ids, model.ideal_centroids(layer))
    else:  # pragma: no cover - guard against typos in parametrize
        raise ValueError(variant)
    return cache


def _assert_outcomes_match(scalar, soa):
    """Scalar ``InferenceOutcome`` objects against ``BatchOutcomes``
    arrays, field by field (``None`` is ``-1`` / ``nan`` in the arrays)."""
    assert all(len(column) == len(scalar) for column in soa)
    for i, a in enumerate(scalar):
        assert soa.predicted_class[i] == a.predicted_class
        assert soa.hit_layer[i] == (-1 if a.hit_layer is None else a.hit_layer)
        assert bool(soa.hit[i]) == a.hit
        assert soa.latency_ms[i] == pytest.approx(a.latency_ms, rel=1e-12, abs=1e-12)
        if a.hit_score is None:
            assert np.isnan(soa.hit_score[i])
        else:
            assert soa.hit_score[i] == pytest.approx(a.hit_score, rel=1e-9, abs=1e-12)
        if a.top2_prob_gap is None:
            assert np.isnan(soa.top2_prob_gap[i])
        else:
            assert soa.top2_prob_gap[i] == pytest.approx(
                a.top2_prob_gap, rel=1e-9, abs=1e-12
            )


class TestBatchEquivalence:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    @pytest.mark.parametrize(
        "variant", ["all_layers", "floored", "partial", "single_entry", "impossible"]
    )
    def test_batch_matches_scalar(self, tiny_model, seed, variant):
        cache = _build_cache(tiny_model, variant)
        samples = _draw_samples(tiny_model, seed, 50)
        batch_engine = BatchedInferenceEngine(tiny_model, cache)
        scalar = [oracle.infer(tiny_model, cache, v) for v in samples.vectors]
        _assert_outcomes_match(scalar, batch_engine.infer_batch_soa(samples))

    def test_no_cache_matches_scalar(self, tiny_model):
        samples = _draw_samples(tiny_model, 5, 20)
        batch_engine = BatchedInferenceEngine(tiny_model, cache=None)
        _assert_outcomes_match(
            [oracle.infer(tiny_model, None, v) for v in samples.vectors],
            batch_engine.infer_batch_soa(samples),
        )

    def test_empty_cache_matches_scalar(self, tiny_model):
        cache = SemanticCache(tiny_model.num_classes, dtype=np.float64)
        samples = _draw_samples(tiny_model, 5, 10)
        batch_engine = BatchedInferenceEngine(tiny_model, cache)
        _assert_outcomes_match(
            [oracle.infer(tiny_model, cache, v) for v in samples.vectors],
            batch_engine.infer_batch_soa(samples),
        )

    def test_empty_batch(self, tiny_model):
        empty = _draw_samples(tiny_model, 0, 0)
        for cache in (_build_cache(tiny_model, "all_layers"), None):
            outcomes = BatchedInferenceEngine(tiny_model, cache).infer_batch_soa(empty)
            assert all(column.shape == (0,) for column in outcomes)

    def test_set_cache_swaps(self, tiny_model):
        engine = BatchedInferenceEngine(tiny_model, cache=None)
        samples = _draw_samples(tiny_model, 1, 3)
        total = tiny_model.profile.total_compute_ms
        assert np.all(engine.infer_batch_soa(samples).latency_ms == total)
        engine.set_cache(_build_cache(tiny_model, "all_layers"))
        # Every frame now probes: it exits early or pays lookups on top.
        assert np.all(engine.infer_batch_soa(samples).latency_ms != total)

    def test_row_slices_match_the_whole_batch(self, tiny_model):
        """Row slices of a batch (views, as the baselines' windows are)
        run to the outcomes of the whole batch's rows (scores to the
        last ulps a product of another row count may differ in)."""
        batch = _draw_samples(tiny_model, 31, 40)
        engine = BatchedInferenceEngine(tiny_model, _build_cache(tiny_model, "all_layers"))
        # Outcome arrays are workspace views: copy before the next call.
        parts = [
            [column.copy() for column in engine.infer_batch_soa(batch[a:b])]
            for a, b in ((0, 17), (17, 18), (18, 40))
        ]
        whole = engine.infer_batch_soa(batch)
        for i, column in enumerate(whole):
            joined = np.concatenate([part[i] for part in parts])
            assert np.allclose(joined, column, rtol=1e-12, atol=0, equal_nan=True)
            if column.dtype.kind == "i":
                assert np.array_equal(joined, column)
        assert (whole.hit_layer >= 0).any() and (whole.hit_layer < 0).any()


class TestBatchedLookupSession:
    def test_matches_scalar_session_accumulation(self, tiny_model):
        cache = _build_cache(tiny_model, "all_layers")
        samples = _draw_samples(tiny_model, 9, 8).vectors
        batch = cache.start_batch_session(len(samples))
        scalars = [oracle.accumulator(cache) for _ in samples]
        for layer in cache.active_layers:
            vectors = samples[:, layer, :]
            result = batch.probe(layer, vectors)
            for i, acc in enumerate(scalars):
                probe = oracle.probe(cache, acc, layer, vectors[i])
                assert result.top_class[i] == probe.top_class
                assert result.second_class[i] == probe.second_class
                assert bool(result.hit[i]) == probe.hit
                assert result.score[i] == pytest.approx(probe.score, rel=1e-9)
        for i, acc in enumerate(scalars):
            for class_id in range(tiny_model.num_classes):
                assert batch.accumulated_score(i, class_id) == pytest.approx(
                    float(acc[class_id]), rel=1e-9, abs=1e-12
                )

    def test_rejects_unknown_layer(self, tiny_model):
        cache = _build_cache(tiny_model, "partial")
        session = cache.start_batch_session(2)
        with pytest.raises(KeyError):
            session.probe(0, np.zeros((2, tiny_model.feature_space.config.dim)))

    def test_rejects_shape_mismatch(self, tiny_model):
        cache = _build_cache(tiny_model, "all_layers")
        session = cache.start_batch_session(2)
        with pytest.raises(ValueError):
            session.probe(0, np.zeros((3, tiny_model.feature_space.config.dim)))

    def test_rejects_empty_batch(self, tiny_model):
        cache = _build_cache(tiny_model, "all_layers")
        with pytest.raises(ValueError):
            BatchedLookupSession(cache, 0)


class TestClientRoundUsesBatchPath:
    def test_round_report_matches_scalar_replay(self, tiny_model):
        """A full client round through the batch engine must match a
        frame-by-frame scalar replay of the same stream (status vectors,
        frequencies, records, and collected update entries)."""
        from repro.core.client import CoCaClient
        from repro.core.config import CoCaConfig

        config = CoCaConfig(frames_per_round=80)
        cache = _build_cache(tiny_model, "all_layers")

        def build_client(seed):
            rng = np.random.default_rng(seed)
            stream = StreamGenerator(
                class_distribution=np.full(
                    tiny_model.num_classes, 1.0 / tiny_model.num_classes
                ),
                mean_run_length=tiny_model.dataset.mean_run_length,
                rng=np.random.default_rng(seed + 1),
                base_difficulty=tiny_model.dataset.difficulty,
            )
            client = CoCaClient(
                client_id=0,
                model=tiny_model,
                stream=stream,
                config=config,
                rng=rng,
                cache_budget_bytes=1,  # read by allocation only; none runs here
            )
            client.install_cache(cache)
            return client

        client = build_client(42)
        report = client.run_round()

        # Scalar replay of the identical block/batch draw: consuming the
        # stream and feature rngs at the same (block) granularity yields
        # the identical sample sequence, which is then replayed frame by
        # frame on the scalar engine.
        replay = build_client(42)
        block = replay.stream.take_block(config.frames_per_round)
        batch = replay.model.draw_samples(block, 0, replay._rng)
        timestamps = np.zeros(tiny_model.num_classes)
        phi = np.zeros(tiny_model.num_classes)
        outcomes = [oracle.infer(tiny_model, cache, v) for v in batch.vectors]
        for outcome in outcomes:
            timestamps += 1.0
            timestamps[outcome.predicted_class] = 0.0
            phi[outcome.predicted_class] += 1.0

        assert np.array_equal(client.timestamps, timestamps)
        assert np.array_equal(report.frequencies, phi)
        records = report.records
        assert len(records) == config.frames_per_round
        assert np.array_equal(records.true_class, batch.class_ids)
        assert records.predicted_class.tolist() == [o.predicted_class for o in outcomes]
        assert records.hit_layer.tolist() == [
            -1 if o.hit_layer is None else o.hit_layer for o in outcomes
        ]
        assert np.allclose(
            records.latency_ms, [o.latency_ms for o in outcomes], rtol=1e-12, atol=0
        )
        assert np.array_equal(records.client_id, np.zeros(len(records)))
