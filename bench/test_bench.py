"""Checks of the benchmark itself (``pytest bench -q``; not tier-1).

Every workload runs at ``--seconds 2``, untraced and traced, twice with
the same seed: the runs must emit exactly the names ``BENCHMARK.json``
declares, be correct, and agree bit for bit on everything that is a
count.  The estimator and the span arithmetic are checked on synthetic
series where the right answer is known.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from bench import ROOT, measure, runner
from bench.measure import REQUEST_PIECE, REQUEST_WINDOW, median_of, pw
from bench.spec import load_spec
from bench.trace import Tracer

SECONDS = 2
SEED = 7

#: Metrics that are counts (or ratios of counts) of the inputs, not times.
COUNTED = {
    "hit_ratio", "sim_accuracy", "sim_latency_ms",
    "ipc.request_bytes_frame", "ipc.request_bytes_clip", "ipc.reply_bytes",
    "probe.layers_probed_mean", "probe.full_walk_share",
    "probe.hit_depth_p50", "probe.hit_depth_p90",
    "store.snapshot_mb", "store.delta_bytes_share",
    "client.collected_per_round", "server.rows_merged_per_round",
    "alloc.entries_per_client", "alloc.layers_active_mean",
    "cluster.sync_bytes_per_round", "cluster.delta_sync_share",
    "frontend.lost_overload",
}

SPEC = load_spec()
CASES = [(w, t) for w in SPEC.workloads for t in (False, True)]


@pytest.fixture(scope="module")
def results():
    """Two same-seed runs of every (workload, traced) pair."""
    return {
        case: [runner.execute(case[0], SEED, SECONDS, case[1]) for _ in range(2)]
        for case in CASES
    }


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-trace{int(c[1])}")
def test_emits_declared_metrics_and_is_correct(results, case):
    workload, traced = case
    declared = [m.name for m in SPEC.metrics(traced)]
    for result in results[case]:
        assert list(result.metrics) == declared
        assert all(math.isfinite(v) for v in result.metrics.values())
        assert result.correct, result.notes["checks.failed"]
        assert result.failed == 0
        assert result.attempted >= 1
        if not traced:
            assert all(v > 0 for v in result.metrics.values())
        else:
            assert result.metrics["frontend.lost_overload"] == 0
            assert result.metrics["trace.unattributed_share"] <= 0.10


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-trace{int(c[1])}")
def test_counts_repeat_exactly(results, case):
    first, second = results[case]
    assert first.attempted == second.attempted
    for name in first.metrics:
        if name in COUNTED:
            assert first.metrics[name] == second.metrics[name], name


@pytest.mark.parametrize("workload", ["round-fleet", "cluster-publish"])
def test_round_shares_sum_to_one(results, workload):
    metrics = results[(workload, True)][0].metrics
    shares = [v for k, v in metrics.items() if k.startswith(("round.share_", "cluster.share_"))]
    assert sum(shares) == pytest.approx(1.0, abs=0.01)


def test_layers_off_the_path_report_zero(results):
    serve = results[("serve-frame", True)][0]
    assert "round.share_engine" in serve.notes["layers.not_on_path"]
    assert serve.metrics["round.share_engine"] == 0.0
    assert serve.metrics["ipc.request_bytes_frame"] == 0.0  # thread mode
    mixed = results[("serve-mixed-proc", True)][0].metrics
    assert mixed["ipc.request_bytes_clip"] > 64 * mixed["ipc.request_bytes_frame"] * 0.9


def test_cli_ends_with_one_json_line():
    done = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", "round-fleet",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert list(result["metrics"]) == [m.name for m in SPEC.end_to_end]
    for metric in SPEC.end_to_end:
        assert result["metrics"][metric.name]["unit"] == metric.unit


def test_unknown_workload_is_refused():
    with pytest.raises(SystemExit):
        runner.execute("no-such-workload", 1, 1, False)


# ----------------------------------------------------------------------
# The estimator on series with a known answer
# ----------------------------------------------------------------------

PIECES_PER_WINDOW = REQUEST_WINDOW // REQUEST_PIECE


class FakeReference(measure.Reference):
    """A reference whose blocks are given, not measured."""

    nominal_us = 100.0

    def __init__(self, blocks):
        super().__init__()
        self.blocks = list(blocks)


def _two_state(rng, windows=40, contended=1.5, quiet_every=4):
    """A host that is quiet one stretch in ``quiet_every``, in stretches of
    three windows.  Returns per-request times (quiet level 1.0, 2% jitter)
    and the per-request factors of a reference that runs a block around
    every piece and slows as the host does (1% jitter)."""
    pieces = windows * PIECES_PER_WINDOW
    state = np.array(
        [
            1.0 if (k // (3 * PIECES_PER_WINDOW)) % quiet_every == 0 else contended
            for k in range(pieces + 1)
        ]
    )
    reference = FakeReference(100.0 * state * (1.0 + 0.01 * rng.standard_normal(pieces + 1)))
    times = np.repeat(state[:pieces], REQUEST_PIECE)
    times = times * (1.0 + 0.02 * rng.standard_normal(times.size))
    return times, np.repeat(reference.factors(0, pieces), REQUEST_PIECE)


def test_pairing_recovers_the_nominal_host():
    times, factors = _two_state(np.random.default_rng(0))
    estimate = pw(times * factors, REQUEST_WINDOW, median_of, REQUEST_PIECE)
    assert abs(estimate - 1.0) <= 0.02
    assert abs(np.median(times) - 1.0) >= 0.25  # the pooled median is far off


def test_pairing_repeats_across_different_mixes():
    rng = np.random.default_rng(1)
    estimates = []
    for quiet_every in (1, 2, 3, 5, 1000):  # always quiet ... never quiet
        times, factors = _two_state(rng, quiet_every=quiet_every)
        estimates.append(pw(times * factors, REQUEST_WINDOW, median_of, REQUEST_PIECE))
    assert max(estimates) / min(estimates) - 1.0 <= 0.02


def test_periodic_stall_stays_in_the_series():
    rng = np.random.default_rng(2)
    calm = 1.0 + 0.02 * rng.standard_normal(30 * REQUEST_WINDOW)
    stalled = calm.copy()
    # A stall the program makes itself: every third window runs 1.5x slow,
    # and no reference block feels it, so no factor takes it out.
    for window in range(0, 30, 3):
        stalled[window * REQUEST_WINDOW : (window + 1) * REQUEST_WINDOW] *= 1.5

    def share(series):
        per_window = median_of(measure.windows(series, REQUEST_WINDOW))
        return measure.quiet_share(per_window, measure.across(per_window))

    assert share(calm) == 1.0
    assert share(stalled) <= 0.7
    assert np.mean(stalled) / pw(stalled, REQUEST_WINDOW, median_of) >= 1.15


def test_factors_pair_each_gap_with_its_two_blocks():
    reference = FakeReference([100.0, 200.0, 100.0, 50.0])
    assert reference.factors(0, 3).tolist() == pytest.approx([100 / 150, 100 / 150, 100 / 75])
    assert reference.factors(2, 1).tolist() == pytest.approx([100 / 75])
    with pytest.raises(ValueError):
        reference.factors(2, 2)
    assert reference.floor_us() == 50.0
    assert reference.floor_us(since=0) == measure.best_fifth(reference.blocks)


def test_windows_disjoint_and_overlapping():
    series = np.arange(10.0)
    assert measure.windows(series, 4).tolist() == [[0, 1, 2, 3], [4, 5, 6, 7]]
    assert measure.windows(series, 4, stride=3).tolist() == [
        [0, 1, 2, 3], [3, 4, 5, 6], [6, 7, 8, 9],
    ]
    with pytest.raises(ValueError):
        measure.windows(series[:3], 4)
    with pytest.raises(ValueError):
        measure.across([])


def test_references_measure_something():
    import asyncio

    rounds = measure.RoundReference()
    assert all(rounds.block() > 0 for _ in range(3))
    assert len(rounds.blocks) == 3

    async def trips(reference):
        return [await reference.block() for _ in range(3)]

    serve = measure.ServeReference()
    try:
        assert all(value > 0 for value in asyncio.run(trips(serve)))
        assert serve.factors(0, 2).shape == (2,)
    finally:
        serve.close()


def test_one_cpu_pins_and_restores():
    import os

    before = os.sched_getaffinity(0)
    with measure.one_cpu() as cpu:
        assert os.sched_getaffinity(0) == {cpu}
    assert os.sched_getaffinity(0) == before


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------


def test_self_time_and_coverage():
    tracer = Tracer()
    root = tracer.add("root", 0.0, 10.0)
    tracer.add("a", 1.0, 4.0, root)
    tracer.add("a", 3.0, 6.0, root)  # overlaps the first: union is 1..6
    inner = tracer.add("b", 6.0, 9.5, root)
    tracer.add("c", 6.0, 7.0, inner)
    self_times = tracer.self_times()
    assert self_times["root"] == pytest.approx(10.0 - 5.0 - 3.5)
    assert self_times["b"] == pytest.approx(2.5)
    assert tracer.unattributed_share() == pytest.approx(0.15)


def test_wrap_is_instance_level_and_reversible():
    class Layer:
        def work(self, x):
            return x + 1

    tracer = Tracer()
    traced, other = Layer(), Layer()
    tracer.wrap(traced, "work", "layer.work")
    with tracer.span("root"):
        assert traced.work(1) == 2
        assert other.work(1) == 2
    assert tracer.names == ["root", "layer.work"]
    assert tracer.parents == [-1, 0]
    tracer.unwrap_all()
    assert "work" not in vars(traced)
    assert traced.work(2) == 3 and len(tracer.names) == 2
