"""Integration tests for the similarity-floor hit criterion.

The floor is the robustness mechanism that keeps samples of *uncached*
classes from erroneously hitting whichever cached entry happens to be
nearest (DESIGN.md, implementation decision 5).  These tests verify the
calibration produces sensible floors and that erroneous absent-class hits
are rare end-to-end.
"""

import numpy as np
import pytest

from repro.core.cache import SemanticCache
from repro.core.config import CoCaConfig
from repro.core.engine import BatchedInferenceEngine
from repro.core.server import CoCaServer, calibrate
from repro.data.datasets import get_dataset
from repro.data.stream import StreamGenerator
from repro.models.zoo import build_model


@pytest.fixture(scope="module")
def calibrated():
    dataset = get_dataset("ucf101", 30)
    model = build_model("resnet101", dataset, seed=9)
    server = CoCaServer(model, CoCaConfig(theta=0.05))
    server.initialize(calibrate(model, np.random.default_rng(2), 400))
    return dataset, model, server


class TestFloorCalibration:
    def test_floors_are_valid_cosines(self, calibrated):
        _, model, server = calibrated
        floors = server.reference_similarity_floor
        assert floors.shape == (model.num_cache_layers,)
        assert np.all(floors >= -1.0)
        assert np.all(floors <= 1.0)
        # Deep layers have tighter clusters => higher floors.
        assert floors[-1] > floors[0]

    def test_built_caches_carry_floors(self, calibrated):
        _, model, server = calibrated
        cache = server.build_cache([5], np.arange(10))
        assert cache.similarity_floor(5) == pytest.approx(
            float(server.reference_similarity_floor[5])
        )

    def test_true_class_samples_clear_the_floor(self, calibrated):
        """Easy cached-class samples still hit with floors active."""
        dataset, model, server = calibrated
        cache = server.build_cache((5, 10, 15, 20), np.arange(model.num_classes))
        engine = BatchedInferenceEngine(model, cache)
        rng = np.random.default_rng(4)
        stream = StreamGenerator(
            np.full(30, 1 / 30), dataset.mean_run_length, rng,
            base_difficulty=dataset.difficulty,
        )
        samples = model.draw_samples(stream.take_block(300), 0, rng)
        hits = int(engine.infer_batch_soa(samples).hit.sum())
        assert hits > 100  # floors must not suffocate legitimate hits

    def test_absent_class_samples_rarely_hit(self, calibrated):
        """Samples of uncached classes fall through to the model."""
        dataset, model, server = calibrated
        cached = np.arange(20)  # classes 20-29 absent
        cache = server.build_cache((5, 10, 15, 20), cached)
        engine = BatchedInferenceEngine(model, cache)
        rng = np.random.default_rng(6)
        absent_only = np.r_[np.zeros(20), np.full(10, 1 / 10)]
        stream = StreamGenerator(
            absent_only, dataset.mean_run_length, rng,
            base_difficulty=dataset.difficulty,
        )
        total = 300
        samples = model.draw_samples(stream.take_block(total), 0, rng)
        confident = samples.confusion_weights < 0.5
        erroneous = int((engine.infer_batch_soa(samples).hit & confident).sum())
        assert erroneous / total < 0.08

    def test_floor_reduces_erroneous_hits(self, calibrated):
        """Same partial cache, floors on vs off: floors cut absent-class
        erroneous hits."""
        dataset, model, server = calibrated
        cached = np.arange(20)
        layers = (5, 10, 15, 20)

        def erroneous_count(with_floor: bool) -> int:
            cache = SemanticCache(model.num_classes, theta=0.05)
            for j in layers:
                cache.set_layer_entries(
                    j, cached, server.table.entries[cached, j]
                )
                if with_floor:
                    cache.set_similarity_floor(
                        j, float(server.reference_similarity_floor[j])
                    )
            engine = BatchedInferenceEngine(model, cache)
            rng = np.random.default_rng(11)
            absent_only = np.r_[np.zeros(20), np.full(10, 1 / 10)]
            stream = StreamGenerator(
                absent_only, dataset.mean_run_length, rng,
                base_difficulty=dataset.difficulty,
            )
            samples = model.draw_samples(stream.take_block(250), 0, rng)
            return int(engine.infer_batch_soa(samples).hit.sum())

        assert erroneous_count(True) <= erroneous_count(False)
