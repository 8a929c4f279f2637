"""Serve-path workloads: ``loadgen -> ServeFrontend -> worker -> walk -> reply``
at service floor 0, driven through ``ServeFrontend.submit`` from outside.

Phases of an untraced run (operation counts are pure functions of
``seconds``): set-up x5, *solo* (closed loop, 1 session) and *sat*
(closed loop, 8 sessions) issued in alternating pieces of 64 requests
with a host-reference block after each, then the in-process checks.  A
traced run splits solo into an untraced and a traced half (their ratio
is the tracing overhead), traces sat, and adds an open-loop and an
overload segment plus micro-measurements of the layers under the
front-end.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Any, Sequence

import numpy as np

from bench import measure
from bench.measure import (
    REQUEST_PIECE,
    REQUEST_WINDOW,
    median_of,
    percentile_of,
    pw,
    sum_of,
)
from bench.spec import NUM_CLIENTS, SETUP_REPEATS, SYSTEM_SEED
from bench.system import (
    Checks,
    RunResult,
    build_framework,
    traffic_rng,
    traffic_stream,
)
from bench.trace import Tracer
from repro.core.cache import LookupWorkspace, SemanticCache
from repro.core.engine import BatchedInferenceEngine
from repro.core.framework import CoCaFramework
from repro.core.probe import walk_cache_batch
from repro.data.datasets import get_dataset
from repro.data.stream import FrameBlock
from repro.models.feature import SampleBatch
from repro.serve import (
    OUTCOME_SHED,
    OUTCOME_SUCCESS,
    OUTCOME_TIMEOUT,
    ServeConfig,
    ServeFrontend,
    ServeResult,
    WorkerOptions,
    WorkerReply,
)
from repro.store import MappedTableStore

WARM_ROUNDS = 2
WARMUP_REQUESTS = 32
SAT_SESSIONS = 8
CLIP_FRAMES = 64
#: Single frames per client in the request pool, taken every
#: ``POOL_STRIDE``-th frame of the client's stream so that one pool spans
#: many same-class runs (a stream's mean run is 24 frames).
POOL_FRAMES_PER_CLIENT = 256
POOL_STRIDE = 16
CLIPS_PER_CLIENT = 2
#: Generous deadline for the measured phases: no operation may fail.
DEADLINE_MS = 2000.0
#: Overload segment: arrival rate over measured capacity and queue bound.
OVERLOAD_FACTOR = 1.5
OVERLOAD_QUEUE_DEPTH = 4
#: Overload deadline, in solo median latencies: requests deep in the
#: queue run out of time.
OVERLOAD_DEADLINE_FACTOR = 4.0
OPEN_LOAD_FACTOR = 0.5
_LAYER_PROBE_REPEATS = 200
_STORE_REPEATS = 5


@dataclass(frozen=True)
class ServeWorkload:
    """One serve-path traffic mix on one deployment.

    ``solo_windows`` / ``sat_windows`` are request windows issued per
    second of ``--seconds`` — sized so that a whole run takes 24-26 s at
    ``--seconds 30`` on the reference host.
    """

    name: str
    model: str
    dataset: str
    classes: int | None
    mode: str
    clips_per_window: int
    solo_windows: float
    sat_windows: float


WORKLOADS = {
    w.name: w
    for w in (
        ServeWorkload(
            name="serve-frame",
            model="resnet101",
            dataset="ucf101",
            classes=50,
            mode="thread",
            clips_per_window=0,
            solo_windows=1.0,
            sat_windows=0.8,
        ),
        ServeWorkload(
            name="serve-mixed-proc",
            model="resnet152",
            dataset="ucf101",
            classes=None,
            mode="process",
            clips_per_window=31,  # 12% of a 256-request window
            solo_windows=0.4,
            sat_windows=0.4,
        ),
    )
}


# ----------------------------------------------------------------------
# Traffic
# ----------------------------------------------------------------------


@dataclass
class Traffic:
    """The seeded request universe of one run.

    ``requests[u]`` is ``(class_hint, vectors)``; the first
    ``num_singles`` are single frames, the rest 64-frame clips.
    ``batches`` holds the drawn :class:`SampleBatch` es the requests are
    views of, with ``members[u] = (batch index, row slice)``.
    """

    requests: list[tuple[int, np.ndarray]]
    num_singles: int
    batches: list[SampleBatch]
    members: list[tuple[int, slice]]


def make_traffic(framework: CoCaFramework, workload: ServeWorkload) -> Traffic:
    """Draw the request pool from the model's own feature space.

    The pool is part of the *system* (drawn at ``SYSTEM_SEED``); ``--seed``
    decides the order requests are issued in and where clips fall.  A
    pool drawn per seed moves the median request between cache depths 12
    and 13 (7% of ``lat_p50_ms``) and the hit ratio by 2%: traffic
    composition, not the program, and more than the bounds allow.
    """
    dataset = get_dataset(workload.dataset, workload.classes)
    singles: list[tuple[int, np.ndarray]] = []
    single_members: list[tuple[int, slice]] = []
    clips: list[tuple[int, np.ndarray]] = []
    clip_members: list[tuple[int, slice]] = []
    batches: list[SampleBatch] = []
    for client_id in range(NUM_CLIENTS):
        rng = traffic_rng(SYSTEM_SEED, client_id)
        stream = traffic_stream(framework, dataset, client_id, rng)
        block = stream.take_block(POOL_FRAMES_PER_CLIENT * POOL_STRIDE)
        pick = slice(None, None, POOL_STRIDE)
        spread = FrameBlock(
            class_ids=block.class_ids[pick],
            difficulties=block.difficulties[pick],
            run_positions=block.run_positions[pick],
            stream_indices=block.stream_indices[pick],
        )
        batch = framework.model.draw_samples(spread, client_id, rng)
        for row in range(len(batch)):
            singles.append((int(batch.class_ids[row]), batch.vectors[row : row + 1]))
            single_members.append((len(batches), slice(row, row + 1)))
        batches.append(batch)
        if workload.clips_per_window:
            # A clip is 64 consecutive frames: a client catching up after a gap.
            burst = framework.model.draw_samples(
                stream.take_block(CLIP_FRAMES * CLIPS_PER_CLIENT), client_id, rng
            )
            for k in range(CLIPS_PER_CLIENT):
                rows = slice(k * CLIP_FRAMES, (k + 1) * CLIP_FRAMES)
                clips.append((int(burst.class_ids[rows.start]), burst.vectors[rows]))
                clip_members.append((len(batches), rows))
            batches.append(burst)
    return Traffic(
        requests=singles + clips,
        num_singles=len(singles),
        batches=batches,
        members=single_members + clip_members,
    )


def issue_order(
    traffic: Traffic, workload: ServeWorkload, num_windows: int, rng: np.random.Generator
) -> np.ndarray:
    """Request index per issue slot, whole windows at a time.

    Every window holds exactly ``clips_per_window`` clips at seeded
    positions, so windows carry the same number of frames and compare;
    single frames cycle through a seeded permutation of the pool.
    """
    num_clips = len(traffic.requests) - traffic.num_singles
    singles_needed = num_windows * (REQUEST_WINDOW - workload.clips_per_window)
    cycles = -(-singles_needed // traffic.num_singles)
    singles = np.concatenate(
        [rng.permutation(traffic.num_singles) for _ in range(cycles)]
    )[:singles_needed]
    order = np.empty(num_windows * REQUEST_WINDOW, dtype=np.int64)
    cursor = 0
    for w in range(num_windows):
        window = order[w * REQUEST_WINDOW : (w + 1) * REQUEST_WINDOW]
        is_clip = np.zeros(REQUEST_WINDOW, dtype=bool)
        if workload.clips_per_window:
            is_clip[
                rng.choice(REQUEST_WINDOW, workload.clips_per_window, replace=False)
            ] = True
            window[is_clip] = traffic.num_singles + rng.integers(
                num_clips, size=workload.clips_per_window
            )
        take = REQUEST_WINDOW - workload.clips_per_window
        window[~is_clip] = singles[cursor : cursor + take]
        cursor += take
    return order


# ----------------------------------------------------------------------
# Set-up and teardown
# ----------------------------------------------------------------------


@dataclass
class Deployment:
    framework: CoCaFramework
    snapshot: Path
    frontend: ServeFrontend
    options: WorkerOptions
    setup_s: float
    write_s: float


def _serve_config(
    workload: ServeWorkload, snapshot: Path, options: WorkerOptions, **overrides: Any
) -> ServeConfig:
    settings: dict[str, Any] = dict(
        snapshot_path=str(snapshot),
        num_workers=1,
        mode=workload.mode,
        deadline_ms=DEADLINE_MS,
        worker=options,
    )
    settings.update(overrides)
    return ServeConfig(**settings)


async def deploy(workload: ServeWorkload, snapshot: Path) -> Deployment:
    """Build, warm, snapshot and start the deployment; time the program's
    set-up calls only (warm-up frames are drawn outside the clock)."""
    dataset = get_dataset(workload.dataset, workload.classes)
    clock = time.perf_counter
    started = clock()
    framework = build_framework(workload.model, dataset)
    for round_index in range(WARM_ROUNDS):
        framework.run_round(round_index)
    write_started = clock()
    framework.server.save_snapshot(snapshot)
    write_s = clock() - write_started
    options = WorkerOptions(alpha=framework.config.alpha, theta=framework.config.theta)
    frontend = ServeFrontend(_serve_config(workload, snapshot, options))
    await frontend.start()
    spent = clock() - started

    rng = np.random.default_rng([SYSTEM_SEED, 1])
    warm = framework.model.draw_samples(
        traffic_stream(framework, dataset, 0, rng).take_block(WARMUP_REQUESTS), 0, rng
    )
    started = clock()
    for row in range(WARMUP_REQUESTS):
        await frontend.submit(int(warm.class_ids[row]), warm.vectors[row : row + 1])
    spent += clock() - started
    return Deployment(framework, snapshot, frontend, options, spent, write_s)


async def retire(deployment: Deployment) -> None:
    await deployment.frontend.close()
    deployment.framework.close()


def worker_cache(store: MappedTableStore, options: WorkerOptions) -> SemanticCache:
    """The cache a shard worker builds over an open snapshot (same calls)."""
    floors = store.references().get("reference_similarity_floor")
    return store.serving_cache(alpha=options.alpha, theta=options.theta, floors=floors)


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------


@dataclass
class Piece:
    """Raw observations of one piece: ``REQUEST_PIECE`` requests issued
    through one closed loop between two host-reference blocks."""

    order: np.ndarray
    start: np.ndarray
    end: np.ndarray
    results: list[ServeResult]
    wall_s: float
    cpu_s: float
    frames: int
    #: Index of the reference block that ran right before the piece.
    gap: int = -1


@dataclass
class Phase:
    """One phase, joined from its pieces in issue order.  ``factor``
    carries each piece — ``request_factor`` each request — to the nominal
    host (all ones for a phase that was not issued between reference
    blocks)."""

    order: np.ndarray
    start: np.ndarray
    end: np.ndarray
    results: list[ServeResult]
    #: Per piece.
    wall_s: np.ndarray
    cpu_s: np.ndarray
    frames: np.ndarray
    factor: np.ndarray
    request_factor: np.ndarray

    @property
    def latency_ms(self) -> np.ndarray:
        return 1e3 * (self.end - self.start)

    def field(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.results], dtype=float)

    def failed(self) -> int:
        return sum(1 for r in self.results if r.outcome != OUTCOME_SUCCESS)

    def nominal(self, per_request: np.ndarray) -> np.ndarray:
        """A per-request time series carried to the nominal host."""
        return per_request * self.request_factor

    def p50_windows(self, per_request_ms: np.ndarray) -> np.ndarray:
        """Median per window of a per-request time, on the nominal host
        (a window starts at every piece)."""
        return median_of(
            measure.windows(self.nominal(per_request_ms), REQUEST_WINDOW, REQUEST_PIECE)
        )

    def _piece_windows(self, per_piece: np.ndarray, normalise: bool) -> np.ndarray:
        series = per_piece * self.factor if normalise else per_piece
        return sum_of(measure.windows(series, REQUEST_WINDOW // REQUEST_PIECE, 1))

    def fps_windows(self, normalise: bool = True) -> np.ndarray:
        """Frames per wall second of every window of pieces."""
        return self._piece_windows(self.frames, False) / self._piece_windows(
            self.wall_s, normalise
        )

    def cpu_us_windows(self, normalise: bool = True) -> np.ndarray:
        """CPU microseconds per frame of every window of pieces."""
        return 1e6 * self._piece_windows(self.cpu_s, normalise) / self._piece_windows(
            self.frames, False
        )


def join(pieces: Sequence[Piece], reference: measure.Reference | None = None) -> Phase:
    """One phase out of the pieces it was issued in."""
    if reference is None:
        factor = np.ones(len(pieces))
    else:
        factor = np.array([reference.factors(p.gap, 1)[0] for p in pieces])
    return Phase(
        order=np.concatenate([p.order for p in pieces]),
        start=np.concatenate([p.start for p in pieces]),
        end=np.concatenate([p.end for p in pieces]),
        results=[r for p in pieces for r in p.results],
        wall_s=np.array([p.wall_s for p in pieces]),
        cpu_s=np.array([p.cpu_s for p in pieces]),
        frames=np.array([float(p.frames) for p in pieces]),
        factor=factor,
        request_factor=np.repeat(factor, [len(p.order) for p in pieces]),
    )


def _record_request(tracer: Tracer, parent: int, op: int, t0: float, t1: float, r: ServeResult) -> None:
    """Lay the program-reported parts of one request out inside its span."""
    request = tracer.add("request", t0, t1, parent, op)
    if r.outcome != OUTCOME_SUCCESS:
        return
    wait, service, probe = r.wait_ms / 1e3, r.service_ms / 1e3, r.probe_ms / 1e3
    dispatch = max((t1 - t0) - wait - service, 0.0)
    tracer.add("frontend.wait", t0, t0 + wait, request, op)
    # Half the hand-off is on the way to the worker, half on the way back.
    begin = t0 + wait + dispatch / 2
    tracer.add("frontend.dispatch", t0 + wait, begin, request, op)
    served = tracer.add("worker.service", begin, begin + service, request, op)
    tracer.add("worker.probe", begin, begin + probe, served, op)
    tracer.add("worker.reply", begin + probe, begin + service, served, op)
    tracer.add("frontend.dispatch", begin + service, t1, request, op)


async def closed_loop(
    frontend: ServeFrontend,
    traffic: Traffic,
    order: np.ndarray,
    sessions: int,
    tracer: Tracer | None = None,
    name: str = "phase",
    first_op: int = 0,
) -> Piece:
    """Issue ``order`` through ``sessions`` back-to-back sessions.

    Each session takes the next unissued slot, so the issue order is the
    same whatever the timing.  With a tracer the piece is a root span and
    its requests (operation ids from ``first_op``) are its children.
    """
    total = len(order)
    start = np.empty(total)
    end = np.empty(total)
    results: list[ServeResult | None] = [None] * total
    pids = [int(info["pid"]) for info in frontend.worker_infos]
    clock = time.perf_counter
    requests = traffic.requests
    submit = frontend.submit
    state = {"next": 0, "frames": 0}

    async def session() -> None:
        while state["next"] < total:
            slot = state["next"]
            state["next"] = slot + 1
            hint, vectors = requests[order[slot]]
            t0 = clock()
            result = await submit(hint, vectors)
            t1 = clock()
            start[slot], end[slot], results[slot] = t0, t1, result
            if tracer is not None:
                _record_request(tracer, root, first_op + slot, t0, t1, result)
            state["frames"] += result.frames

    cpu_before, began = measure.cpu_seconds(pids), clock()
    root = tracer.add(f"{name}.piece", began, 0.0) if tracer else -1
    await asyncio.gather(*(session() for _ in range(sessions)))
    ended, cpu_after = clock(), measure.cpu_seconds(pids)
    if tracer is not None:
        tracer.ends[root] = ended
    return Piece(
        order, start, end, [r for r in results if r is not None],
        wall_s=ended - began, cpu_s=cpu_after - cpu_before, frames=state["frames"],
    )


@dataclass
class Lane:
    """One closed-loop phase to be issued in alternation with others."""

    name: str
    order: np.ndarray
    sessions: int
    tracer: Tracer | None = None


async def alternate(
    frontend: ServeFrontend,
    traffic: Traffic,
    lanes: Sequence[Lane],
    reference: measure.ServeReference,
) -> dict[str, Phase]:
    """Issue the lanes' orders in turn, one piece at a time, with a
    host-reference block before the first piece and after every piece.

    The host's states last from a tenth of a second to minutes: a piece
    is short enough (~60 ms) to lie in one state together with the two
    blocks around it, and alternating spreads every phase over the whole
    run.
    """
    pieces: dict[str, list[Piece]] = {lane.name: [] for lane in lanes}
    longest = max(len(lane.order) for lane in lanes)
    await reference.block()
    for lo in range(0, longest, REQUEST_PIECE):
        for lane in lanes:
            part = lane.order[lo : lo + REQUEST_PIECE]
            if part.size:
                piece = await closed_loop(
                    frontend, traffic, part, lane.sessions, lane.tracer, lane.name, lo
                )
                piece.gap = len(reference.blocks) - 1
                await reference.block()
                pieces[lane.name].append(piece)
    return {name: join(parts, reference) for name, parts in pieces.items()}


async def open_loop(
    frontend: ServeFrontend,
    traffic: Traffic,
    order: np.ndarray,
    rate_per_s: float,
    rng: np.random.Generator,
) -> tuple[Phase, np.ndarray]:
    """Poisson arrivals at ``rate_per_s``; every request is timed from the
    moment it was *due*, so a stall charges the requests behind it.
    Returns the phase (``start`` = due time) and how late each was sent."""
    total = len(order)
    due = np.cumsum(rng.exponential(1.0 / rate_per_s, size=total))
    sent = np.empty(total)
    end = np.empty(total)
    results: list[ServeResult | None] = [None] * total
    clock = time.perf_counter
    requests = traffic.requests

    async def one(slot: int) -> None:
        hint, vectors = requests[order[slot]]
        sent[slot] = clock()
        results[slot] = await frontend.submit(hint, vectors)
        end[slot] = clock()

    origin = clock()
    due += origin
    tasks = []
    for slot in range(total):
        delay = due[slot] - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(one(slot)))
    await asyncio.gather(*tasks)
    # One piece, timed from the due times and not normalised.
    piece = Piece(
        order, due, end, [r for r in results if r is not None],
        wall_s=float(end.max() - origin), cpu_s=0.0, frames=0,
    )
    return join([piece]), sent - due


# ----------------------------------------------------------------------
# In-process reference: expected hits, walk costs, paper metrics
# ----------------------------------------------------------------------


@dataclass
class Reference:
    """Per-request results of the in-process walk on the worker's cache."""

    hits: np.ndarray  # frames served from cache, per request
    walk_us: np.ndarray  # wall time of the walk, per request
    layers_probed: np.ndarray  # single-frame requests only (first row)
    hit: np.ndarray  # single-frame requests only


def reference_walks(cache: SemanticCache, traffic: Traffic) -> Reference:
    """Walk every pool request in-process, at the shape it is served at."""
    count = len(traffic.requests)
    hits = np.empty(count, dtype=np.int64)
    walk_us = np.empty(count)
    probed = np.empty(count, dtype=np.int64)
    clock = time.perf_counter
    with LookupWorkspace() as workspace:
        walk_cache_batch(cache, traffic.requests[0][1], workspace)  # size the pools
        for u, (_, vectors) in enumerate(traffic.requests):
            started = clock()
            walk = walk_cache_batch(cache, vectors, workspace)
            walk_us[u] = 1e6 * (clock() - started)
            hits[u] = int((walk.hit_layer >= 0).sum())
            probed[u] = int(walk.layers_probed[0])
    n = traffic.num_singles
    return Reference(hits, walk_us, probed[:n], hits[:n] > 0)


def paper_metrics(
    framework: CoCaFramework, cache: SemanticCache, traffic: Traffic, issued: np.ndarray
) -> tuple[float, float]:
    """``(sim_accuracy, sim_latency_ms)`` of the issued requests: the same
    frames replayed through the batched engine on the worker's cache."""
    weight = np.bincount(issued, minlength=len(traffic.requests)).astype(float)
    engine = BatchedInferenceEngine(framework.model, cache=cache)
    correct = latency = frames = 0.0
    try:
        outcomes = []
        for batch in traffic.batches:
            out = engine.infer_batch_soa(batch)
            outcomes.append(
                (out.predicted_class == batch.class_ids, out.latency_ms.copy())
            )
        for u, (b, rows) in enumerate(traffic.members):
            if weight[u]:
                right, ms = outcomes[b]
                correct += weight[u] * float(right[rows].sum())
                latency += weight[u] * float(ms[rows].sum())
                frames += weight[u] * (rows.stop - rows.start)
    finally:
        engine.close()
    return correct / frames, latency / frames


def check_phase(checks: Checks, phase: Phase, reference: Reference, what: str) -> None:
    served = np.array([r.hits for r in phase.results])
    expected = reference.hits[phase.order]
    ok = np.array([r.outcome == OUTCOME_SUCCESS for r in phase.results])
    checks.require(
        bool((served[ok] == expected[ok]).all()),
        f"{what}: served hits differ from the in-process walk",
    )


def check_ledger(checks: Checks, frontend: ServeFrontend, what: str) -> int:
    """The admission ledger conserves; returns the number of lost requests."""
    stats = frontend.stats()
    lost = stats["submitted"] - (stats["success"] + stats["timeout"] + stats["shed"])
    checks.require(lost == 0, f"{what}: ledger lost {lost} requests")
    checks.require(
        stats["queued"] == 0 and stats["in_flight"] == 0,
        f"{what}: requests still queued or in flight at the end",
    )
    return int(lost)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def timing_metrics(solo: Phase, sat: Phase, normalise: bool = True) -> dict[str, float]:
    """The four timing metrics (``normalise=False``: of the times as
    measured, for the notes)."""
    latency = solo.nominal(solo.latency_ms) if normalise else solo.latency_ms
    return {
        "lat_p50_ms": pw(latency, REQUEST_WINDOW, median_of, REQUEST_PIECE),
        "lat_tail_ms": pw(latency, REQUEST_WINDOW, percentile_of(95), REQUEST_PIECE),
        "sat_fps": measure.across(sat.fps_windows(normalise)),
        "cpu_us_per_frame": measure.across(sat.cpu_us_windows(normalise)),
    }


def end_to_end(
    solo: Phase, sat: Phase, sim_accuracy: float, sim_latency_ms: float, setup_s: float
) -> tuple[dict[str, float], dict[str, object]]:
    """The workload's end-to-end metrics, times on the nominal host."""
    frames = sum(r.frames for p in (solo, sat) for r in p.results)
    hits = sum(r.hits for p in (solo, sat) for r in p.results)
    lat = solo.latency_ms
    metrics = timing_metrics(solo, sat)
    metrics.update(
        {
            "hit_ratio": hits / frames,
            "sim_accuracy": sim_accuracy,
            "sim_latency_ms": sim_latency_ms,
            "setup_s": setup_s,
        }
    )
    notes: dict[str, object] = {
        f"raw.{name}": value for name, value in timing_metrics(solo, sat, False).items()
    }
    per_window = solo.p50_windows(lat)
    notes.update(
        {
            "pooled.lat_p50_ms": float(np.median(lat)),
            "pooled.lat_tail_ms": float(np.percentile(lat, 95)),
            "pooled.sat_fps": float(sat.frames.sum() / sat.wall_s.sum()),
            "pooled.cpu_us_per_frame": float(1e6 * sat.cpu_s.sum() / sat.frames.sum()),
            "host.factor": float(np.median(np.concatenate([solo.factor, sat.factor]))),
            "host.quiet_share": measure.quiet_share(per_window, metrics["lat_p50_ms"]),
            "windows.solo": len(per_window),
            "windows.sat": len(sat.fps_windows()),
        }
    )
    return metrics, notes


def frontend_worker_metrics(solo: Phase, sat: Phase) -> dict[str, float]:
    def p50_us(phase: Phase, values_ms: np.ndarray) -> float:
        return 1e3 * measure.across(phase.p50_windows(values_ms))

    latency, wait, service, probe = (
        solo.field(name) for name in ("latency_ms", "wait_ms", "service_ms", "probe_ms")
    )
    sat_wall_ms = 1e3 * sat.wall_s.sum()
    return {
        "frontend.dispatch_us_p50": p50_us(solo, latency - wait - service),
        "frontend.wait_us_p50_sat": p50_us(sat, sat.field("wait_ms")),
        # Little's law: time-average queue length = sum of waits / wall.
        "frontend.queue_depth_mean_sat": float(sat.field("wait_ms").sum() / sat_wall_ms),
        "worker.service_us_p50": p50_us(solo, service),
        "worker.probe_us_p50": p50_us(solo, probe),
        "worker.reply_us_p50": p50_us(solo, service - probe),
        "worker.slot_idle_share_sat": float(
            1.0 - sat.field("service_ms").sum() / sat_wall_ms
        ),
    }


def _pickle_cost(payload: object, repeats: int = 50) -> tuple[int, float]:
    """``(bytes, microseconds)`` of one dumps + loads, as the process pool
    ships it (multiprocessing pickles at the default protocol)."""
    blob = pickle.dumps(payload)
    clock = time.perf_counter
    samples = []
    for _ in range(repeats):
        started = clock()
        pickle.loads(pickle.dumps(payload))
        samples.append(clock() - started)
    return len(blob), 1e6 * median(samples)


def ipc_metrics(workload: ServeWorkload, traffic: Traffic, cache: SemanticCache) -> dict[str, float]:
    """What crosses the process boundary per request (zero in thread mode,
    where nothing is serialised)."""
    names = (
        "ipc.request_bytes_frame",
        "ipc.request_bytes_clip",
        "ipc.reply_bytes",
        "ipc.pickle_us_frame",
        "ipc.pickle_us_clip",
    )
    if workload.mode != "process":
        return dict.fromkeys(names, 0.0)
    frame = traffic.requests[0][1]
    clip = traffic.requests[-1][1]
    with LookupWorkspace() as workspace:
        walk = walk_cache_batch(cache, frame, workspace)
        reply = WorkerReply(
            walk.predicted.copy(), walk.hit_layer.copy(), walk.hit_score.copy(),
            1.0, 1.0, os.getpid(),
        )
    frame_bytes, frame_us = _pickle_cost(frame)
    clip_bytes, clip_us = _pickle_cost(clip)
    reply_bytes, reply_us = _pickle_cost(reply)
    return {
        "ipc.request_bytes_frame": float(frame_bytes),
        "ipc.request_bytes_clip": float(clip_bytes),
        "ipc.reply_bytes": float(reply_bytes),
        "ipc.pickle_us_frame": frame_us + reply_us,
        "ipc.pickle_us_clip": clip_us + reply_us,
    }


def probe_metrics(reference: Reference, traffic: Traffic) -> dict[str, float]:
    n = traffic.num_singles
    single_us = reference.walk_us[:n]
    clip_us = reference.walk_us[n:]
    probed = reference.layers_probed
    depth = probed[reference.hit]
    return {
        "probe.walk_us_hit_p50": float(np.median(single_us[reference.hit])),
        "probe.walk_us_miss_p50": float(np.median(single_us[~reference.hit])),
        "probe.walk_us_clip_p50": float(np.median(clip_us)) if clip_us.size else 0.0,
        # Slope of walk time on layers probed: the cost of one more layer.
        "probe.us_per_layer_call": float(np.polyfit(probed, single_us, 1)[0]),
        "probe.layers_probed_mean": float(probed.mean()),
        "probe.full_walk_share": float((probed == probed.max()).mean()),
        "probe.hit_depth_p50": float(np.percentile(depth, 50)),
        "probe.hit_depth_p90": float(np.percentile(depth, 90)),
    }


def layer_probe_metrics(cache: SemanticCache, vectors: np.ndarray) -> dict[str, float]:
    """``start_batch_session`` + one ``probe`` on the middle active layer,
    at the three batch sizes the paths use (1 frame, a clip, a round)."""
    layer = cache.active_layers[len(cache.active_layers) // 2]
    clock = time.perf_counter
    out: dict[str, float] = {}
    with LookupWorkspace() as workspace:
        samples = []
        for _ in range(_LAYER_PROBE_REPEATS):
            started = clock()
            cache.start_batch_session(1, workspace=workspace)
            samples.append(clock() - started)
        out["cache.session_start_us"] = 1e6 * median(samples)
        for batch in (1, 64, 300):
            rows = np.ascontiguousarray(vectors[:batch, layer, :], dtype=cache.dtype)
            samples = []
            for _ in range(_LAYER_PROBE_REPEATS):
                started = clock()
                cache.start_batch_session(batch, workspace=workspace).probe(layer, rows)
                samples.append(clock() - started)
            out[f"cache.layer_probe_us_b{batch}"] = 1e6 * median(samples)
    return out


def store_read_metrics(snapshot: Path, options: WorkerOptions, frame: np.ndarray) -> dict[str, float]:
    """Open, map and first-touch costs of the snapshot a worker starts from."""
    clock = time.perf_counter
    open_ms, cache_ms, walk_ms, verify_ms = [], [], [], []
    for _ in range(_STORE_REPEATS):
        t0 = clock()
        store = MappedTableStore(snapshot)
        t1 = clock()
        cache = worker_cache(store, options)
        t2 = clock()
        with LookupWorkspace() as workspace:
            walk_cache_batch(cache, frame, workspace)
        t3 = clock()
        store.verify_checksums()
        t4 = clock()
        store.close()
        open_ms.append(t1 - t0)
        cache_ms.append(t2 - t1)
        walk_ms.append(t3 - t2)
        verify_ms.append(t4 - t3)
    return {
        "store.open_ms": 1e3 * median(open_ms),
        "store.serving_cache_ms": 1e3 * median(cache_ms),
        "store.first_walk_ms": 1e3 * median(walk_ms),
        "store.verify_ms": 1e3 * median(verify_ms),
    }


def snapshot_mb(snapshot: Path) -> float:
    return sum(f.stat().st_size for f in snapshot.iterdir()) / 1e6


async def overload_metrics(
    run: "Session", order: np.ndarray, rate_per_s: float, deadline_ms: float
) -> dict[str, float]:
    """Arrivals at 1.5x capacity against a queue bound of 4 and a deadline
    of a few service times: every request must still resolve to exactly
    one of success / timeout / shed."""
    config = _serve_config(
        run.workload,
        run.deployment.snapshot,
        run.deployment.options,
        queue_depth=OVERLOAD_QUEUE_DEPTH,
        deadline_ms=deadline_ms,
    )
    async with ServeFrontend(config) as frontend:
        phase, _ = await open_loop(frontend, run.traffic, order, rate_per_s, run.order_rng)
        lost = check_ledger(run.checks, frontend, "overload")
    outcomes = [r.outcome for r in phase.results]
    shed_us = [1e3 * r.latency_ms for r in phase.results if r.outcome == OUTCOME_SHED]
    run.checks.require(len(outcomes) == len(order), "overload: a request got no outcome")
    return {
        "frontend.admit_us": float(np.median(shed_us)) if shed_us else 0.0,
        "frontend.shed_share_overload": outcomes.count(OUTCOME_SHED) / len(order),
        "frontend.timeout_share_overload": outcomes.count(OUTCOME_TIMEOUT) / len(order),
        "frontend.lost_overload": float(lost + len(order) - len(outcomes)),
    }


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------


def _windows_for(rate: float, seconds: float, share: float = 1.0) -> int:
    return max(1, round(rate * seconds * share))


@dataclass
class Session:
    """Everything a measured run needs, built once per run."""

    workload: ServeWorkload
    seconds: float
    deployment: Deployment
    traffic: Traffic
    cache: SemanticCache
    walks: Reference
    order_rng: np.random.Generator
    checks: Checks
    host: measure.ServeReference

    def order(self, rate: float, share: float = 1.0) -> np.ndarray:
        windows = _windows_for(rate, self.seconds, share)
        return issue_order(self.traffic, self.workload, windows, self.order_rng)


async def _plain(run: Session, setups: Sequence[float]) -> RunResult:
    workload, frontend = run.workload, run.deployment.frontend
    # The reference blocks so far bracket the set-ups, one gap each.
    setup_s = float(np.median(np.array(setups) * run.host.factors(0, len(setups))))
    phases = await alternate(
        frontend,
        run.traffic,
        [
            Lane("solo", run.order(workload.solo_windows), 1),
            Lane("sat", run.order(workload.sat_windows), SAT_SESSIONS),
        ],
        run.host,
    )
    solo, sat = phases["solo"], phases["sat"]
    for name, phase in phases.items():
        check_phase(run.checks, phase, run.walks, name)
    check_ledger(run.checks, frontend, "serve")
    issued = np.concatenate([solo.order, sat.order])
    accuracy, latency_ms = paper_metrics(
        run.deployment.framework, run.cache, run.traffic, issued
    )
    metrics, notes = end_to_end(solo, sat, accuracy, latency_ms, setup_s)
    failed = solo.failed() + sat.failed()
    notes["checks.failed"] = run.checks.failures
    notes["raw.setup_s"] = list(setups)
    return RunResult(run.checks.ok and failed == 0, len(issued), failed, metrics, notes)


async def _traced(run: Session, tracer: Tracer) -> RunResult:
    workload, frontend, traffic = run.workload, run.deployment.frontend, run.traffic
    setup_blocks = len(run.host.blocks)
    # Half the untraced operation counts per phase, and an untraced twin
    # of solo issued in alternation with it: the pair gives the overhead.
    phases = await alternate(
        frontend,
        traffic,
        [
            Lane("solo-plain", run.order(workload.solo_windows, 0.5), 1),
            Lane("solo", run.order(workload.solo_windows, 0.5), 1, tracer),
            Lane("sat", run.order(workload.sat_windows, 0.5), SAT_SESSIONS, tracer),
        ],
        run.host,
    )
    plain, solo, sat = phases["solo-plain"], phases["solo"], phases["sat"]
    sat_rate = len(sat.order) / sat.wall_s.sum()
    opened, late = await open_loop(
        frontend, traffic, run.order(workload.sat_windows, 0.1),
        OPEN_LOAD_FACTOR * sat_rate, run.order_rng,
    )
    phases["open"] = opened
    for name, phase in phases.items():
        check_phase(run.checks, phase, run.walks, name)
    check_ledger(run.checks, frontend, "serve")

    per_window = solo.p50_windows(solo.latency_ms)
    traced_p50 = measure.across(per_window)
    plain_p50 = measure.across(plain.p50_windows(plain.latency_ms))
    over_order = run.order(workload.sat_windows, 0.1)
    metrics = await overload_metrics(
        run, over_order, OVERLOAD_FACTOR * sat_rate,
        deadline_ms=OVERLOAD_DEADLINE_FACTOR * traced_p50,
    )
    metrics.update(frontend_worker_metrics(solo, sat))
    size_mb = snapshot_mb(run.deployment.snapshot)
    write_s = run.deployment.write_s
    metrics.update(
        {
            "frontend.wait_us_p50_open": 1e3 * float(np.median(opened.field("wait_ms"))),
            "frontend.lat_ms_p95_open": float(np.percentile(opened.latency_ms, 95)),
            "loadgen.late_us_p95": 1e6 * float(np.percentile(late, 95)),
            "worker.init_ms": float(frontend.worker_infos[0]["init_ms"]),
            "store.write_ms": 1e3 * write_s,
            "store.write_mb_per_s": size_mb / write_s,
            "store.snapshot_mb": size_mb,
            "trace.overhead_share": traced_p50 / plain_p50 - 1.0,
            "trace.unattributed_share": tracer.unattributed_share(),
            "host.ref_us": run.host.floor_us(since=setup_blocks),
            "host.quiet_share": measure.quiet_share(per_window, traced_p50),
        }
    )
    metrics.update(ipc_metrics(workload, traffic, run.cache))
    metrics.update(probe_metrics(run.walks, traffic))
    metrics.update(
        layer_probe_metrics(
            run.cache, np.concatenate([b.vectors for b in traffic.batches[:3]])
        )
    )
    metrics.update(
        store_read_metrics(
            run.deployment.snapshot, run.deployment.options, traffic.requests[0][1]
        )
    )
    failed = sum(p.failed() for p in phases.values())
    notes: dict[str, object] = {
        "checks.failed": run.checks.failures,
        "host.ref_quiet_share": run.host.quiet_share(since=setup_blocks),
        "pooled.lat_p50_ms": float(np.median(solo.latency_ms)),
        "open.rate_per_s": OPEN_LOAD_FACTOR * sat_rate,
    }
    attempted = sum(len(p.order) for p in phases.values()) + len(over_order)
    return RunResult(run.checks.ok and failed == 0, attempted, failed, metrics, notes)


async def _run(
    workload: ServeWorkload, seed: int, seconds: float, trace: bool, work: Path
) -> tuple[RunResult, Tracer | None]:
    setups: list[float] = []
    deployment = None
    host = measure.ServeReference()
    store = None
    try:
        await host.block()
        for repeat in range(SETUP_REPEATS):
            if deployment is not None:
                await retire(deployment)
                deployment = None
            deployment = await deploy(workload, work / f"snapshot-{repeat}")
            setups.append(deployment.setup_s)
            await host.block()
        assert deployment is not None
        traffic = make_traffic(deployment.framework, workload)
        store = MappedTableStore(deployment.snapshot)
        cache = worker_cache(store, deployment.options)
        run = Session(
            workload, seconds, deployment, traffic, cache,
            reference_walks(cache, traffic),
            np.random.default_rng([seed, NUM_CLIENTS]),
            Checks(),
            host,
        )
        tracer = Tracer() if trace else None
        result = await (_traced(run, tracer) if tracer else _plain(run, setups))
    finally:
        if store is not None:
            store.close()
        if deployment is not None:
            await retire(deployment)
        host.close()
    if not trace:
        # Read after teardown: a worker's peak only counts once it is reaped.
        result.metrics["peak_rss_mb"] = measure.peak_rss_mb()
    return result, tracer


def run(
    name: str, seed: int, seconds: float, trace: bool, work: Path
) -> tuple[RunResult, Tracer | None]:
    return asyncio.run(_run(WORKLOADS[name], seed, seconds, trace, work))
