"""Round-path workloads: the paper's protocol loop and the publish path.

``round-fleet`` times unchanged ``CoCaFramework.run_round()``;
``cluster-publish`` times ``ClusterFramework.run_round()`` and, on every
5th round, a publish of the merged table through the snapshot store.
One operation is one round (with its publish, when it has one); windows
are ``ROUND_WINDOW`` consecutive rounds.

A traced run alternates untraced and traced blocks of one window each:
before a traced block, instance-level wrappers are put on the public
methods at each layer boundary, and removed after it, so the untraced
blocks run the same unchanged code an untraced run does and the pair
gives the tracing overhead.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ContextManager

import numpy as np

from bench import measure
from bench.measure import ROUND_WINDOW, mean_of, median_of, percentile_of, pw
from bench.serve import layer_probe_metrics, snapshot_mb
from bench.spec import NUM_CLIENTS, SETUP_REPEATS, SYSTEM_SEED
from bench.system import (
    Checks,
    RunResult,
    build_cluster,
    build_framework,
    reseed_traffic,
    traffic_stream,
)
from bench.trace import Tracer
from repro.cluster import ClusterFramework
from repro.core.client import RoundReport
from repro.core.config import CoCaConfig
from repro.core.framework import CoCaFramework
from repro.data.datasets import get_dataset
from repro.core.probe import walk_cache_batch
from repro.core.cache import LookupWorkspace
from repro.core.server import GlobalCacheTable
from repro.sim.metrics import MetricsCollector, MetricsSummary, merge_summaries
from repro.store import MappedTableStore, diff_tables, full_rows_nbytes, write_snapshot
from repro.store.delta import HEADER_NBYTES

WARM_ROUNDS = 5
PUBLISH_EVERY = 5


@dataclass(frozen=True)
class RoundWorkload:
    """A fleet and how many rounds of it one second of ``--seconds`` buys
    (a round is ~0.15 s at 8 x 300 frames, ~0.07 s at 8 x 60, on the
    reference host)."""

    name: str
    model: str
    dataset: str
    classes: int | None
    shards: int  # 0 = the single-server CoCaFramework
    frames_per_round: int
    rounds_per_second: float


WORKLOADS = {
    w.name: w
    for w in (
        RoundWorkload("round-fleet", "resnet101", "ucf101", 50, 0, 300, 4.0),
        # The largest table the zoo has (101 classes x 51 layers, 2 MB) and
        # short rounds, so that a publish is a visibly slower round.
        RoundWorkload("cluster-publish", "resnet152", "ucf101", None, 4, 60, 8.0),
    )
}

Fleet = CoCaFramework | ClusterFramework


def _single(fleet: Fleet) -> CoCaFramework:
    return fleet.framework if isinstance(fleet, ClusterFramework) else fleet


def deploy(workload: RoundWorkload, seed: int) -> tuple[Fleet, float]:
    """Build the fleet and warm it; time the program's calls only."""
    dataset = get_dataset(workload.dataset, workload.classes)
    clock = time.perf_counter
    started = clock()
    config = CoCaConfig(frames_per_round=workload.frames_per_round)
    fleet: Fleet = (
        build_cluster(workload.model, dataset, workload.shards, config)
        if workload.shards
        else build_framework(workload.model, dataset, config)
    )
    spent = clock() - started
    reseed_traffic(_single(fleet), dataset, seed)
    started = clock()
    for round_index in range(WARM_ROUNDS):
        fleet.run_round(round_index)
    return fleet, spent + clock() - started


# ----------------------------------------------------------------------
# Publish (cluster-publish only)
# ----------------------------------------------------------------------


class Publisher:
    """Publishes the cluster's merged table as a snapshot epoch.

    ``merged_table() -> write_snapshot -> MappedTableStore -> serving_cache
    -> diff_tables`` against the previous epoch: what a serving tier would
    need from every publish (the new bytes, a cache over them, and how
    much a delta to the old epoch would ship).
    """

    def __init__(self, cluster: ClusterFramework, path: Path) -> None:
        self.cluster = cluster
        self.path = path
        self.previous: GlobalCacheTable = cluster.merged_table()
        self.published = 0
        self.delta_bytes = 0
        self.span: Callable[[str], ContextManager[Any]] = lambda name: nullcontext()

    def publish(self) -> None:
        span = self.span
        config = self.cluster.config
        with span("publish"):
            with span("cluster.merged_table"):
                merged = self.cluster.merged_table()
            with span("store.write"):
                write_snapshot(self.path, merged)
            with span("store.open"):
                store = MappedTableStore(self.path)
            with span("store.serving_cache"):
                store.serving_cache(alpha=config.alpha, theta=config.theta)
            with span("store.diff"):
                delta = diff_tables(self.previous, merged)
            store.close()
        self.previous = merged
        self.published += 1
        self.delta_bytes += delta.nbytes

    def full_bytes(self) -> int:
        table = self.previous
        return HEADER_NBYTES + full_rows_nbytes(
            table.num_classes, table.num_layers, table.dim
        )

    def verify(self, checks: Checks, frame: np.ndarray) -> dict[str, float]:
        """Re-open the last published epoch: checksums hold and it equals
        the merged table, row for row.  Returns the read-side timings
        (``frame`` is one ``(1, L+1, d)`` request for the first walk)."""
        clock = time.perf_counter
        t0 = clock()
        with MappedTableStore(self.path) as store:
            store.verify_checksums()  # raises SnapshotIntegrityError on damage
            t1 = clock()
            reopened = store.as_table()
            cache = store.serving_cache(
                alpha=self.cluster.config.alpha, theta=self.cluster.config.theta
            )
            t2 = clock()
            with LookupWorkspace() as workspace:
                walk_cache_batch(cache, frame, workspace)
            t3 = clock()
            checks.require(
                store.epoch == self.published, "publish: epoch is not the publish count"
            )
        delta = diff_tables(self.previous, reopened)
        checks.require(
            delta.entry_rows.size == 0 and delta.freq_rows.size == 0,
            "publish: re-opened snapshot differs from the merged table",
        )
        return {
            "store.verify_ms": 1e3 * (t1 - t0),
            "store.first_walk_ms": 1e3 * (t3 - t2),
        }


# ----------------------------------------------------------------------
# Tracing the round path from outside
# ----------------------------------------------------------------------


def install_wrappers(tracer: Tracer, fleet: Fleet, publisher: Publisher | None) -> None:
    """Instance-level span wrappers on the public method at each layer
    boundary (removed again by ``tracer.unwrap_all``)."""
    single = _single(fleet)

    def reporting_collect(original: Callable[..., RoundReport]) -> Callable[..., RoundReport]:
        # ``run_round(timings=...)`` is the program's own stage report;
        # its "collect" entry is the one stage no public method bounds.
        def call(*args: Any, **kwargs: Any) -> RoundReport:
            timings: dict[str, float] = {}
            report = original(*args, timings=timings, **kwargs)
            # Collection follows the engine pass: lay it out right after.
            after = tracer.ends[_last(tracer, "engine.infer")]
            tracer.add(
                "client.collect", after, after + timings.get("collect", 0.0),
                tracer.current(),
            )
            return report

        return call

    tracer.wrap(single.model, "draw_samples", "feature.draw")
    for client in single.clients:
        tracer.wrap(client, "run_round", "client.run_round", around=reporting_collect)
        tracer.wrap(client.stream, "take_block", "stream.take_block")
        tracer.wrap(client.batch_engine, "infer_batch_soa", "engine.infer")
    if isinstance(fleet, ClusterFramework):
        servers = [node.server for node in fleet.nodes]
        tracer.wrap(fleet.sharded, "apply_client_update", "server.merge")
        tracer.wrap(fleet.coordinator, "sync_all", "cluster.sync")
        # One method, two callers: the coordinator's replica refresh and
        # the row gather behind ``merged_table()``.
        tracer.wrap(
            fleet.sharded,
            "sync_into",
            lambda: "cluster.refresh"
            if tracer.current_name() == "cluster.sync"
            else "cluster.gather",
        )
        tracer.wrap(fleet.sharded, "sync_delta_into", "cluster.delta")
    else:
        servers = [fleet.server]
        tracer.wrap(fleet.server, "apply_client_update", "server.merge")
    for server in servers:
        tracer.wrap(server, "allocate", "server.allocate")
        tracer.wrap(server, "build_cache", "server.build_cache")
    if publisher is not None:
        publisher.span = tracer.span


def remove_wrappers(tracer: Tracer, publisher: Publisher | None) -> None:
    tracer.unwrap_all()
    if publisher is not None:
        publisher.span = lambda name: nullcontext()


def _last(tracer: Tracer, name: str) -> int:
    for index in range(len(tracer.names) - 1, -1, -1):
        if tracer.names[index] == name:
            return index
    raise LookupError(f"no {name} span recorded yet")


# ----------------------------------------------------------------------
# The measured loop
# ----------------------------------------------------------------------


@dataclass
class Rounds:
    """Observations of the measured rounds, in order."""

    wall_s: list[float] = field(default_factory=list)
    cpu_s: list[float] = field(default_factory=list)
    #: Per round: what carries its times to the nominal host.
    factor: np.ndarray = field(default_factory=lambda: np.empty(0))
    traced: list[bool] = field(default_factory=list)
    summaries: list[MetricsSummary] = field(default_factory=list)
    collected: list[int] = field(default_factory=list)
    rows_merged: list[int] = field(default_factory=list)
    entries: list[int] = field(default_factory=list)
    layers: list[int] = field(default_factory=list)

    def nominal_ms(self, traced: bool | None = None) -> np.ndarray:
        """Round times on the nominal host (``traced``: only the rounds
        that were, or were not, traced)."""
        wall_ms = 1e3 * np.array(self.wall_s) * self.factor
        return wall_ms if traced is None else wall_ms[np.array(self.traced) == traced]


def run_rounds(
    fleet: Fleet,
    count: int,
    publisher: Publisher | None,
    tracer: Tracer | None,
    host: measure.RoundReference,
) -> Rounds:
    """``count`` rounds after the warm ones, a host-reference block before
    the first and after each; with a tracer, every second window of rounds
    is traced."""
    seen = Rounds()
    clock, cpu_clock = time.perf_counter, time.process_time
    single = _single(fleet)
    first_block = len(host.blocks)
    host.block()
    for index in range(count):
        traced = tracer is not None and (index // ROUND_WINDOW) % 2 == 1
        if tracer is not None and index % ROUND_WINDOW == 0:
            if traced:
                install_wrappers(tracer, fleet, publisher)
            else:
                remove_wrappers(tracer, publisher)
        root: ContextManager[Any] = nullcontext()
        if traced:
            assert tracer is not None
            tracer.op = index
            root = tracer.span("round")
        c0, t0 = cpu_clock(), clock()
        with root:
            reports = fleet.run_round(WARM_ROUNDS + index)
            if publisher is not None and (index + 1) % PUBLISH_EVERY == 0:
                publisher.publish()
        t1, c1 = clock(), cpu_clock()
        host.block()
        seen.wall_s.append(t1 - t0)
        seen.cpu_s.append(c1 - c0)
        seen.traced.append(traced)
        round_metrics = MetricsCollector()
        for report in reports:
            round_metrics.extend(report.records)
        seen.summaries.append(round_metrics.summary())
        seen.collected.append(sum(r.collected_total for r in reports))
        seen.rows_merged.append(sum(len(r.update_entries) for r in reports))
        caches = [client.engine.cache for client in single.clients]
        seen.entries.append(sum(c.total_entries for c in caches if c is not None))
        seen.layers.append(sum(len(c.active_layers) for c in caches if c is not None))
    if tracer is not None:
        remove_wrappers(tracer, publisher)
    seen.factor = host.factors(first_block, count)
    return seen


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def timing_metrics(
    seen: Rounds, frames_per_round: int, publishes: bool, normalise: bool = True
) -> dict[str, float]:
    """The four timing metrics over every run of ten consecutive rounds
    (``normalise=False``: of the times as measured, for the notes)."""
    factor = seen.factor if normalise else 1.0
    wall_ms = 1e3 * np.array(seen.wall_s) * factor
    cpu_ms = 1e3 * np.array(seen.cpu_s) * factor
    frames = frames_per_round * ROUND_WINDOW
    if publishes:
        # The slow mode is known here — every window holds two publish
        # rounds — so the tail is read from them directly: a percentile of
        # ten rounds is moved off the publish rounds by in-window drift.
        is_publish = (np.arange(1, wall_ms.size + 1) % PUBLISH_EVERY == 0).astype(float)
        tail = measure.across(
            measure.windows(wall_ms * is_publish, ROUND_WINDOW, 1).sum(axis=1)
            / measure.windows(is_publish, ROUND_WINDOW, 1).sum(axis=1)
        )
    else:
        tail = pw(wall_ms, ROUND_WINDOW, percentile_of(90), 1)
    return {
        "lat_p50_ms": pw(wall_ms, ROUND_WINDOW, median_of, 1),
        "lat_tail_ms": tail,
        "sat_fps": 1e3 * frames / pw(wall_ms, ROUND_WINDOW, measure.sum_of, 1),
        "cpu_us_per_frame": 1e3 * pw(cpu_ms, ROUND_WINDOW, measure.sum_of, 1) / frames,
    }


def end_to_end(
    seen: Rounds, frames_per_round: int, setup_s: float, publishes: bool
) -> tuple[dict[str, float], dict[str, object]]:
    """The workload's end-to-end metrics, times on the nominal host."""
    wall_ms = 1e3 * np.array(seen.wall_s)
    summary = merge_summaries(seen.summaries)
    metrics = timing_metrics(seen, frames_per_round, publishes)
    metrics.update(
        {
            "hit_ratio": summary.hit_ratio,
            "sim_accuracy": summary.accuracy,
            "sim_latency_ms": summary.avg_latency_ms,
            "peak_rss_mb": measure.peak_rss_mb(),
            "setup_s": setup_s,
        }
    )
    notes: dict[str, object] = {
        f"raw.{name}": value
        for name, value in timing_metrics(seen, frames_per_round, publishes, False).items()
    }
    if publishes:
        pooled_tail = float(wall_ms[PUBLISH_EVERY - 1 :: PUBLISH_EVERY].mean())
    else:
        pooled_tail = float(np.percentile(wall_ms, 90))
    per_window = median_of(measure.windows(seen.nominal_ms(), ROUND_WINDOW, 1))
    notes.update(
        {
            "pooled.lat_p50_ms": float(np.median(wall_ms)),
            "pooled.lat_tail_ms": pooled_tail,
            "pooled.sat_fps": float(frames_per_round * len(wall_ms) / wall_ms.sum() * 1e3),
            "host.factor": float(np.median(seen.factor)),
            "host.quiet_share": measure.quiet_share(per_window, metrics["lat_p50_ms"]),
            "windows": len(per_window),
        }
    )
    return metrics, notes


#: Span names whose self time makes up each reported share of a round.
SHARES = {
    "round.share_samplegen": ("stream.take_block", "feature.draw"),
    "round.share_engine": ("engine.infer",),
    "round.share_collect": ("client.collect",),
    "round.share_merge": ("server.merge",),
    "round.share_allocate": ("server.allocate", "server.build_cache"),
    "round.share_other": ("round", "client.run_round"),
    "cluster.share_sync": ("cluster.sync", "cluster.refresh", "cluster.delta"),
    "cluster.share_publish": (
        "publish", "cluster.merged_table", "cluster.gather", "store.write",
        "store.open", "store.serving_cache", "store.diff",
    ),
}


def layer_metrics(
    tracer: Tracer, seen: Rounds, frames_per_round: int, publisher: Publisher | None
) -> dict[str, float]:
    traced_rounds = [i for i, t in enumerate(seen.traced) if t]
    factor = seen.factor[traced_rounds]

    def per_round(name: str) -> float:
        """Seconds per round spent in spans ``name``, on the nominal host:
        the median over windows of the window's mean."""
        totals = tracer.totals_per_op(name, traced_rounds) * factor
        return pw(totals, ROUND_WINDOW, mean_of)

    def per_call_ms(name: str) -> float:
        spans = tracer.durations(name)
        return 1e3 * float(np.median(spans)) if spans.size else 0.0

    calls_per_round = NUM_CLIENTS  # one allocate, one upload per client
    us_per_frame = 1e6 / frames_per_round
    build_s = per_round("server.build_cache")
    metrics = {
        "stream.take_block_us_per_frame": us_per_frame * per_round("stream.take_block"),
        "feature.draw_us_per_frame": us_per_frame * per_round("feature.draw"),
        "engine.infer_us_per_frame": us_per_frame * per_round("engine.infer"),
        "client.collect_us_per_frame": us_per_frame * per_round("client.collect"),
        "server.merge_us_per_update": 1e6 * per_round("server.merge") / calls_per_round,
        "server.allocate_ms": 1e3
        * (per_round("server.allocate") - build_s)
        / calls_per_round,
        "server.build_cache_ms": 1e3 * build_s / calls_per_round,
    }
    self_times = tracer.self_times()
    total = float(tracer.durations("round").sum())
    for share, names in SHARES.items():
        metrics[share] = sum(self_times.get(n, 0.0) for n in names) / total
    if publisher is not None:
        write_ms = per_call_ms("store.write")
        size_mb = snapshot_mb(publisher.path)
        metrics.update(
            {
                "cluster.sync_ms": 1e3 * per_round("cluster.sync"),
                "cluster.refresh_ms": 1e3 * per_round("cluster.refresh"),
                "cluster.merged_table_ms": per_call_ms("cluster.merged_table"),
                "store.write_ms": write_ms,
                "store.write_mb_per_s": 1e3 * size_mb / write_ms,
                "store.snapshot_mb": size_mb,
                "store.open_ms": per_call_ms("store.open"),
                "store.serving_cache_ms": per_call_ms("store.serving_cache"),
                "store.diff_ms": per_call_ms("store.diff"),
            }
        )
    return metrics


def count_metrics(
    seen: Rounds, fleet: Fleet, publisher: Publisher | None, base: dict[str, int]
) -> dict[str, float]:
    """Counts made where the work happens; pure functions of the inputs."""
    rounds = len(seen.wall_s)
    metrics = {
        "client.collected_per_round": sum(seen.collected) / rounds,
        "server.rows_merged_per_round": sum(seen.rows_merged) / rounds,
        "alloc.entries_per_client": sum(seen.entries) / (rounds * NUM_CLIENTS),
        "alloc.layers_active_mean": sum(seen.layers) / (rounds * NUM_CLIENTS),
    }
    if isinstance(fleet, ClusterFramework) and publisher is not None:
        coordinator = fleet.coordinator
        deltas = coordinator.delta_syncs - base["delta_syncs"]
        fulls = coordinator.full_syncs - base["full_syncs"]
        metrics.update(
            {
                "cluster.sync_bytes_per_round": (
                    coordinator.sync_bytes_shipped - base["sync_bytes_shipped"]
                )
                / rounds,
                "cluster.delta_sync_share": deltas / (deltas + fulls),
                "store.delta_bytes_share": publisher.delta_bytes
                / (publisher.published * publisher.full_bytes()),
            }
        )
    return metrics


def _sync_counters(fleet: Fleet) -> dict[str, int]:
    if not isinstance(fleet, ClusterFramework):
        return {}
    c = fleet.coordinator
    return {
        "delta_syncs": c.delta_syncs,
        "full_syncs": c.full_syncs,
        "sync_bytes_shipped": c.sync_bytes_shipped,
    }


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------


def run(
    name: str, seed: int, seconds: float, trace: bool, work: Path
) -> tuple[RunResult, Tracer | None]:
    workload = WORKLOADS[name]
    checks = Checks()
    setups: list[float] = []
    fleet = None
    host = measure.RoundReference()
    host.block()
    for _ in range(SETUP_REPEATS):
        if fleet is not None:
            fleet.close()
        fleet, spent = deploy(workload, seed)
        setups.append(spent)
        host.block()
    setup_blocks = len(host.blocks)
    assert fleet is not None
    try:
        single = _single(fleet)
        frames_per_round = NUM_CLIENTS * single.config.frames_per_round
        publisher = (
            Publisher(fleet, work / "published")
            if isinstance(fleet, ClusterFramework)
            else None
        )
        # Whole windows only; a traced run needs a traced and an untraced one.
        count = ROUND_WINDOW * max(
            2 if trace else 1, round(workload.rounds_per_second * seconds / ROUND_WINDOW)
        )
        tracer = Tracer() if trace else None
        base = _sync_counters(fleet)
        seen = run_rounds(fleet, count, publisher, tracer, host)

        frames = sum(s.num_samples for s in seen.summaries)
        checks.require(
            frames == frames_per_round * count,
            f"frames counted {frames} != clients x F x rounds",
        )
        probe_frames = _probe_frames(single, workload)
        read_side = (
            publisher.verify(checks, probe_frames[:1]) if publisher is not None else {}
        )
        if tracer is None:
            metrics, notes = end_to_end(
                seen,
                frames_per_round,
                # The reference blocks so far bracket the set-ups, one gap each.
                setup_s=float(np.median(np.array(setups) * host.factors(0, len(setups)))),
                publishes=publisher is not None,
            )
            notes["raw.setup_s"] = setups
        else:
            plain_ms = seen.nominal_ms(traced=False)
            traced_ms = seen.nominal_ms(traced=True)
            plain_p50 = pw(plain_ms, ROUND_WINDOW, median_of)
            traced_p50 = pw(traced_ms, ROUND_WINDOW, median_of)
            per_window = median_of(measure.windows(traced_ms, ROUND_WINDOW))
            metrics = layer_metrics(tracer, seen, frames_per_round, publisher)
            metrics.update(count_metrics(seen, fleet, publisher, base))
            metrics.update(read_side)
            # One-layer probe cost on a cache a client is running with.
            cache = single.clients[0].engine.cache
            assert cache is not None
            metrics.update(layer_probe_metrics(cache, probe_frames))
            metrics.update(
                {
                    "trace.overhead_share": traced_p50 / plain_p50 - 1.0,
                    "trace.unattributed_share": tracer.unattributed_share(),
                    "host.ref_us": host.floor_us(since=setup_blocks),
                    "host.quiet_share": measure.quiet_share(per_window, traced_p50),
                }
            )
            notes = {
                "host.ref_quiet_share": host.quiet_share(since=setup_blocks),
                "pooled.lat_p50_ms": float(np.median(traced_ms)),
            }
        notes["checks.failed"] = checks.failures
        return RunResult(checks.ok, count, 0, metrics, notes), tracer
    finally:
        fleet.close()


def _probe_frames(single: CoCaFramework, workload: RoundWorkload) -> np.ndarray:
    """300 frames of the model's own feature space for the read-side
    micro-measurements (system-seeded: they consume no traffic)."""
    dataset = get_dataset(workload.dataset, workload.classes)
    rng = np.random.default_rng([SYSTEM_SEED, 2])
    batch = single.model.draw_samples(
        traffic_stream(single, dataset, 0, rng).take_block(300), 0, rng
    )
    return batch.vectors
