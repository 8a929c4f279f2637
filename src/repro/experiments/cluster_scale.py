"""Cluster scale-out study: aggregate throughput vs shard count.

The single-server deployment serializes every cache-allocation request
and every Eq. 4 merge on one edge server; under a request-heavy regime
(short update cycles F — the left end of Fig. 10a — and many connected
clients — beyond the right end of Fig. 10b) that serialization, not
client compute, bounds aggregate throughput.  The study runs the same
deployment as a 1..N-shard cluster under one
:class:`~repro.sim.network.ServerLoadModel` and reads the event-driven
virtual timeline: aggregate inferences per virtual second, mean request
queueing wait, and the quality metrics (which sharding must *not* move
at sync interval 1, since the sharded Eq. 4 write path is exact).

The per-request service time here is deliberately heavier than the
Fig. 10b calibration (25 ms vs 1.35 ms): the scale-out regime ships the
full preset table (the "Normal" configuration of Fig. 1a) instead of an
ACA-pruned sub-table, and the study's point is the *mechanism* — work a
single node serializes, N nodes split — not the absolute numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster import ClusterFramework
from repro.core.config import CoCaConfig
from repro.core.deployment import Scenario
from repro.data.datasets import DatasetSpec
from repro.sim.network import ServerLoadModel

#: The request-heavy regime the scale-out study runs under.
SCALE_OUT_LOAD = ServerLoadModel(
    base_latency_ms=52.8,
    service_time_ms=25.0,
    round_duration_ms=800.0,
    contention_ms_per_client=0.042,
)


@dataclass(frozen=True)
class ClusterScalePoint:
    """One shard-count point of the scale-out sweep."""

    num_shards: int
    throughput_inferences_per_s: float
    speedup: float  # vs the 1-shard (single-server) pipeline
    mean_response_wait_ms: float
    hit_ratio: float
    accuracy: float
    avg_latency_ms: float


def run_cluster_scale(
    dataset: DatasetSpec,
    model_name: str = "resnet101",
    shard_counts: tuple[int, ...] = (1, 2, 4),
    num_clients: int = 128,
    frames_per_round: int = 30,
    rounds: int = 2,
    seed: int = 3,
    enable_dca: bool = False,
) -> list[ClusterScalePoint]:
    """Aggregate throughput and quality per shard count, at sync interval 1.

    Every shard count runs a fleet over one shared
    :class:`~repro.core.deployment.Scenario` (one model, one calibration),
    so the quality columns are constant across rows by construction and
    only the virtual timeline changes.
    """
    if not shard_counts:
        raise ValueError("shard_counts must not be empty")
    if 1 not in shard_counts:
        raise ValueError("shard_counts must include 1 (the speedup baseline)")
    config = CoCaConfig(frames_per_round=frames_per_round)
    scenario = Scenario(dataset, model_name, num_clients, seed=seed)
    runs = []
    for shards in shard_counts:
        cluster = ClusterFramework.from_scenario(
            scenario, config, enable_dca, num_shards=shards,
            load=SCALE_OUT_LOAD, merge_service_ms=5.0,
        )
        result = cluster.run(rounds)
        throughput = result.throughput_inferences_per_s
        assert throughput is not None  # a cluster keeps clocks
        runs.append((shards, result, throughput))
    baseline = next(throughput for shards, _, throughput in runs if shards == 1)
    points: list[ClusterScalePoint] = []
    for shards, result, throughput in runs:
        summary = result.summary()
        points.append(
            ClusterScalePoint(
                num_shards=shards,
                throughput_inferences_per_s=throughput,
                speedup=throughput / baseline if baseline > 0 else 0.0,
                mean_response_wait_ms=float(
                    np.mean([r.mean_response_wait_ms for r in result.rounds])
                ),
                hit_ratio=summary.hit_ratio,
                accuracy=summary.accuracy,
                avg_latency_ms=summary.avg_latency_ms,
            )
        )
    return points


def format_cluster_table(points: list[ClusterScalePoint]) -> str:
    """Fixed-width table of the scale-out sweep."""
    lines = [
        f"{'shards':>7s}{'throughput':>13s}{'speedup':>9s}"
        f"{'mean wait':>11s}{'hit ratio':>11s}{'accuracy':>10s}"
    ]
    for p in points:
        lines.append(
            f"{p.num_shards:7d}{p.throughput_inferences_per_s:10.0f}/vs"
            f"{p.speedup:8.2f}x{p.mean_response_wait_ms:9.1f}ms"
            f"{100 * p.hit_ratio:10.1f}%{100 * p.accuracy:9.1f}%"
        )
    return "\n".join(lines)
