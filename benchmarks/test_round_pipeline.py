"""End-to-end round-pipeline throughput: vectorized vs seed per-sample path.

A 10-client ResNet101 deployment on UCF101-50 executes one full protocol
round — status upload, cache allocation, frame generation, sample draw,
cached inference, status/Eq. 3 collection, Eq. 4/5 global merge — through
the vectorized pipeline (``CoCaFramework.run_round()``) and through the
seed per-frame scalar path (``run_round(reference=True)``).  This
measures the *whole* round: sample generation, collection, and merging
included.

The vectorized pipeline must deliver at least a 3x end-to-end speedup
(2x under CI, where shared runners have noisy clocks) and, on identical
pre-drawn batches, reproduce the scalar round outcome for outcome
(predictions, hit layers, latencies, update tables).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core.config import CoCaConfig
from repro.core.framework import CoCaFramework
from repro.data.datasets import get_dataset

NUM_CLIENTS = 10
FRAMES_PER_CLIENT = 300
TRIALS = 3


def _build(enable_dca: bool, exact: bool = False) -> CoCaFramework:
    # Timings run the serving default (float32 caches); the outcome
    # equivalence below runs the float64 exact mode, where scalar (gemv)
    # and batched (gemm) probes agree bit for bit.
    config = CoCaConfig(lookup_dtype="float64") if exact else None
    return CoCaFramework(
        dataset=get_dataset("ucf101", 50),
        model_name="resnet101",
        num_clients=NUM_CLIENTS,
        config=config,
        seed=3,
        enable_dca=enable_dca,
    )


def _measure(enable_dca: bool) -> tuple[float, float]:
    """Best-of-N wall time of one full framework round on each path.

    Rounds mutate client and server state, so every timing runs on a
    freshly built (identically seeded) framework.
    """
    scalar_s = batch_s = float("inf")
    for _ in range(TRIALS):
        fw = _build(enable_dca)
        start = time.perf_counter()
        fw.run_round(0)
        batch_s = min(batch_s, time.perf_counter() - start)
        fw = _build(enable_dca)
        start = time.perf_counter()
        fw.run_round(0, reference=True)
        scalar_s = min(scalar_s, time.perf_counter() - start)
    return scalar_s, batch_s


def _assert_outcome_equivalence() -> int:
    """Both paths, fed identical pre-drawn batches, must agree exactly."""
    fw_fast = _build(enable_dca=True, exact=True)
    fw_ref = _build(enable_dca=True, exact=True)
    collected = 0
    for fast, ref in zip(fw_fast.clients, fw_ref.clients):
        status = fast.status()
        cache_fast, _ = fw_fast.server.allocate(
            status.timestamps,
            status.hit_ratio,
            status.cache_budget_bytes,
            local_freq=status.frequencies,
        )
        status_ref = ref.status()
        cache_ref, _ = fw_ref.server.allocate(
            status_ref.timestamps,
            status_ref.hit_ratio,
            status_ref.cache_budget_bytes,
            local_freq=status_ref.frequencies,
        )
        fast.install_cache(cache_fast)
        ref.install_cache(cache_ref)
        batch = fw_fast.model.draw_samples(
            fast.stream.take_block(FRAMES_PER_CLIENT), fast.client_id, fast._rng
        )
        report_fast = fast.run_round(batch=batch)
        report_ref = ref.run_round_reference(batch=batch)
        for a, b in zip(report_fast.records, report_ref.records):
            assert a.predicted_class == b.predicted_class
            assert a.hit_layer == b.hit_layer
            assert abs(a.latency_ms - b.latency_ms) < 1e-9
        assert set(report_fast.update_entries) == set(report_ref.update_entries)
        for key in report_fast.update_entries:
            assert np.allclose(
                report_fast.update_entries[key],
                report_ref.update_entries[key],
                atol=1e-9,
            )
        assert np.array_equal(report_fast.frequencies, report_ref.frequencies)
        fw_fast.server.apply_client_update(
            report_fast.update_entries, report_fast.frequencies
        )
        fw_ref.server.apply_client_update_reference(
            report_ref.update_entries, report_ref.frequencies
        )
        collected += report_fast.collected_total
    assert np.allclose(
        fw_fast.server.table.entries, fw_ref.server.table.entries, atol=1e-9
    )
    assert np.array_equal(fw_fast.server.table.filled, fw_ref.server.table.filled)
    assert collected > 0, "the equivalence round collected nothing"
    return collected


def test_round_pipeline_speedup(benchmark, report):
    def run_all():
        collected = _assert_outcome_equivalence()
        results = {
            label: _measure(enable_dca)
            for enable_dca, label in (
                (False, "full preset cache"),
                (True, "ACA-allocated"),
            )
        }
        return collected, results

    collected, results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    total = NUM_CLIENTS * FRAMES_PER_CLIENT
    rows = []
    speedups = {}
    for label, (scalar_s, batch_s) in results.items():
        speedups[label] = scalar_s / batch_s
        rows.append(
            f"{label:22s} scalar {scalar_s * 1e3:8.1f} ms "
            f"({total / scalar_s:9.0f} inf/s)   batch {batch_s * 1e3:8.1f} ms "
            f"({total / batch_s:9.0f} inf/s)   speedup {scalar_s / batch_s:5.1f}x"
        )
    report(
        "round_pipeline",
        "End-to-end round pipeline: 10 clients x 300 frames, "
        "ResNet101 / UCF101-50\n"
        "(full framework round: allocation + generation + inference + "
        "collection + merge)\n"
        + "\n".join(rows)
        + f"\nequivalence round: {collected} samples collected, outcomes "
        "identical on both paths",
    )
    # The round pipeline's reason to exist: >= 3x end to end on the full
    # preset cache (the paper's "Normal" configuration, where the scalar
    # engine dominates the round).  Shared CI runners have noisy clocks,
    # so only demand a clear win there.
    required = 2.0 if os.environ.get("CI") else 3.0
    assert speedups["full preset cache"] >= required, speedups
    # The ACA sub-table round is draw-dominated and lighter per sample;
    # still a clear end-to-end win.
    assert speedups["ACA-allocated"] >= 2.0, speedups
