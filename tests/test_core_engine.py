"""Unit tests for the cache-instrumented inference engine."""

import numpy as np
import pytest

from repro.core.cache import SemanticCache
from repro.core.engine import BatchedInferenceEngine
from repro.data.stream import FrameBlock


def _all_layer_cache(model, theta):
    cache = SemanticCache(model.num_classes, theta=theta)
    for layer in range(model.num_cache_layers):
        cache.set_layer_entries(
            layer, np.arange(model.num_classes), model.ideal_centroids(layer)
        )
    return cache


def _easy_samples(model, rng, count):
    block = FrameBlock(
        class_ids=np.arange(count) % 8,
        difficulties=np.full(count, 0.05),
        run_positions=np.full(count, 5),
        stream_indices=np.arange(count),
    )
    return model.draw_samples(block, 0, rng)


class TestEngineNoCache:
    def test_full_latency_charged(self, tiny_model, rng):
        engine = BatchedInferenceEngine(tiny_model, cache=None)
        out = engine.infer_batch_soa(_easy_samples(tiny_model, rng, 1))
        assert out.latency_ms[0] == pytest.approx(tiny_model.total_compute_ms)
        assert out.hit_layer[0] == -1
        assert not out.hit[0]
        assert not np.isnan(out.top2_prob_gap[0])

    def test_empty_cache_behaves_like_no_cache(self, tiny_model, rng):
        engine = BatchedInferenceEngine(tiny_model, SemanticCache(tiny_model.num_classes))
        out = engine.infer_batch_soa(_easy_samples(tiny_model, rng, 1))
        assert out.latency_ms[0] == pytest.approx(tiny_model.total_compute_ms)


class TestEngineWithCache:
    def test_easy_sample_hits_and_saves_time(self, tiny_model, rng):
        cache = _all_layer_cache(tiny_model, theta=0.05)
        out = BatchedInferenceEngine(tiny_model, cache).infer_batch_soa(
            _easy_samples(tiny_model, rng, 30)
        )
        hits = np.flatnonzero(out.hit)
        assert np.array_equal(out.predicted_class[hits], hits % 8)
        assert (out.latency_ms[hits] < tiny_model.total_compute_ms).all()
        assert (out.hit_score[hits] > 0.05).all()
        assert hits.size >= 20  # easy samples should mostly hit

    def test_impossible_threshold_never_hits(self, tiny_model, rng):
        cache = _all_layer_cache(tiny_model, theta=np.inf)
        out = BatchedInferenceEngine(tiny_model, cache).infer_batch_soa(
            _easy_samples(tiny_model, rng, 1)
        )
        assert not out.hit[0]
        # Paid every lookup plus full compute.
        expected = tiny_model.total_compute_ms + sum(
            tiny_model.lookup_cost_ms(8) for _ in range(tiny_model.num_cache_layers)
        )
        assert out.latency_ms[0] == pytest.approx(expected)

    def test_hit_latency_decomposition(self, tiny_model, rng):
        """Latency = prefix compute + lookup costs of the probed layers."""
        cache = SemanticCache(tiny_model.num_classes, theta=0.02)
        for layer in (1, 3):
            cache.set_layer_entries(
                layer, np.arange(8), tiny_model.ideal_centroids(layer)
            )
        out = BatchedInferenceEngine(tiny_model, cache).infer_batch_soa(
            _easy_samples(tiny_model, rng, 40)
        )
        at_one = np.flatnonzero(out.hit_layer == 1)
        assert at_one.size, "no hit at layer 1 in 40 easy samples"
        expected = tiny_model.profile.compute_up_to_layer_ms(
            1
        ) + tiny_model.lookup_cost_ms(8)
        assert np.allclose(out.latency_ms[at_one], expected)

    def test_probes_stop_at_hit(self, tiny_model, rng):
        """A hit at layer j pays the lookups of layers 0..j and no more."""
        cache = _all_layer_cache(tiny_model, theta=0.02)
        out = BatchedInferenceEngine(tiny_model, cache).infer_batch_soa(
            _easy_samples(tiny_model, rng, 20)
        )
        hits = np.flatnonzero(out.hit)
        assert hits.size
        lookup = tiny_model.lookup_cost_ms(8)
        for i in hits:
            layer = int(out.hit_layer[i])
            expected = tiny_model.profile.compute_up_to_layer_ms(layer) + (
                layer + 1
            ) * lookup
            assert out.latency_ms[i] == pytest.approx(expected)

    def test_set_cache_swaps(self, tiny_model, rng):
        engine = BatchedInferenceEngine(tiny_model, cache=None)
        engine.set_cache(_all_layer_cache(tiny_model, theta=0.02))
        out = engine.infer_batch_soa(_easy_samples(tiny_model, rng, 1))
        # The cache is active now: the frame exited early or paid lookups.
        assert out.latency_ms[0] != pytest.approx(tiny_model.total_compute_ms)

    def test_edited_installed_cache_is_charged_as_edited(self, tiny_model, rng):
        """Layers added to or removed from the installed cache change the
        Eq. 7 latency exactly as installing the edited cache would."""
        cache = SemanticCache(tiny_model.num_classes, theta=np.inf)
        cache.set_layer_entries(0, np.arange(8), tiny_model.ideal_centroids(0))
        engine = BatchedInferenceEngine(tiny_model, cache)
        samples = _easy_samples(tiny_model, rng, 4)
        engine.infer_batch_soa(samples)
        lookup = tiny_model.lookup_cost_ms(8)
        for layers in ((0, 1, 2), (0,), ()):
            for layer in range(tiny_model.num_cache_layers):
                entries = np.arange(8) if layer in layers else np.arange(0)
                centroids = tiny_model.ideal_centroids(layer)[entries]
                cache.set_layer_entries(layer, entries, centroids)
            out = engine.infer_batch_soa(samples)
            expected = tiny_model.total_compute_ms + len(layers) * lookup
            assert np.allclose(out.latency_ms, expected)

    def test_miss_exposes_probability_gap(self, tiny_model, rng):
        cache = _all_layer_cache(tiny_model, theta=np.inf)
        out = BatchedInferenceEngine(tiny_model, cache).infer_batch_soa(
            _easy_samples(tiny_model, rng, 1)
        )
        assert 0.0 <= out.top2_prob_gap[0] <= 1.0
