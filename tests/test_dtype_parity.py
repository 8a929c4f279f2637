"""Serving-precision parity: float32 probe path vs the float64 exact mode.

The dtype policy's contract (see ``repro.core.cache``): storing centroids
and running probe math in single precision must not change any observable
*decision*.  Scores carry ~1e-6 relative rounding, but hit thresholds and
top-2 margins sit orders of magnitude above it, so a full framework run on
the preset cache must produce identical hit/miss decisions, predictions,
and per-class hit rates in both precisions — and, since collection is
decision-driven and update vectors stay float64, bit-identical merged
global tables.
"""

import numpy as np

from repro.core.cache import SemanticCache
from repro.core.config import CoCaConfig
from repro.core.framework import CoCaFramework
from repro.data.datasets import get_dataset
from repro.sim.metrics import RecordBatch, per_class_hit_rates


def _framework(lookup_dtype: str) -> CoCaFramework:
    return CoCaFramework(
        dataset=get_dataset("ucf101", 30),
        model_name="resnet101",
        num_clients=4,
        seed=11,
        enable_dca=False,  # the preset cache: every class at every layer
        config=CoCaConfig(frames_per_round=150, lookup_dtype=lookup_dtype),
    )


class TestFrameworkPrecisionParity:
    def test_full_run_decisions_identical(self):
        fast = _framework("float32")
        exact = _framework("float64")
        records32: list[RecordBatch] = []
        records64: list[RecordBatch] = []
        for r in range(3):
            records32.extend(report.records for report in fast.run_round(r))
            records64.extend(report.records for report in exact.run_round(r))
        rows32 = RecordBatch.concat(records32)
        rows64 = RecordBatch.concat(records64)
        assert len(rows32) == len(rows64) == 4 * 150 * 3
        for column in ("true_class", "predicted_class", "hit_layer", "client_id"):
            assert np.array_equal(getattr(rows32, column), getattr(rows64, column))
        # Identical decisions -> identical per-class hit rates, every class
        # seen at least once...
        assert per_class_hit_rates(rows32) == per_class_hit_rates(rows64)
        # ...and identical collection, hence bit-identical merged tables
        # (update vectors are drawn and folded in float64 either way).
        assert np.array_equal(
            fast.server.table.entries, exact.server.table.entries
        )
        assert np.array_equal(
            fast.server.table.class_freq, exact.server.table.class_freq
        )

    def test_float32_is_the_serving_default(self):
        assert CoCaConfig().lookup_dtype == "float32"
        assert CoCaConfig().cache_dtype == np.dtype(np.float32)
        assert SemanticCache(4).dtype == np.dtype(np.float32)

    def test_served_caches_follow_config_dtype(self):
        fast = _framework("float32")
        exact = _framework("float64")
        for framework, dtype in ((fast, np.float32), (exact, np.float64)):
            framework.run_round(0)
            cache = framework.clients[0].engine.cache
            assert cache is not None
            assert cache.dtype == np.dtype(dtype)
            for layer in cache.active_layers:
                _, mat = cache.entries_at(layer)
                assert mat.dtype == np.dtype(dtype)
                assert mat.flags.c_contiguous
