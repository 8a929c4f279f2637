"""Wall-clock load generator: synthetic client sessions at a target rate.

Requests are synthesized *from the snapshot alone*: a session picks a
hot class, and each frame's per-layer query is the class's stored
centroid plus Gaussian jitter, re-normalized — near-duplicate frames of
cached content, exactly the traffic the semantic cache exists for.  A
``miss_fraction`` of frames are pure-noise queries (unknown content
that walks every layer and misses).  No model object is needed: the
mapped layer views supply the centroids in O(ms).

Two drive modes:

* **open loop** (``rate_per_s`` set) — requests arrive on a Poisson
  process at the target rate regardless of completions, the regime the
  M/D/1 :class:`~repro.sim.network.ServerLoadModel` describes;
  :func:`analytic_wait_ms` maps the measured arrival rate and service
  time onto that model for the measured-vs-predicted queue-wait
  cross-check.
* **closed loop** (``rate_per_s`` = None) — ``concurrency`` client
  sessions issue back-to-back requests for ``duration_s``; completed
  requests per second is the saturation throughput.

Every run reports wall-clock p50/p95/p99 latency
(:func:`~repro.sim.metrics.summarize_latencies` — the same summary
shape ``repro profile-round`` prints), throughput, and error/shed
rates, plus the front-end's admission ledger.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, NamedTuple

import numpy as np

from repro.serve.frontend import ServeConfig, ServeFrontend, ServeResult
from repro.sim.metrics import LatencySummary, summarize_latencies
from repro.sim.network import ServerLoadModel
from repro.store import MappedTableStore


class Request(NamedTuple):
    """One synthetic client request: a hot-class hint plus frame vectors."""

    class_hint: int
    vectors: np.ndarray  # (B, L+1, d), unit rows, snapshot dtype


@dataclass(frozen=True)
class LoadgenConfig:
    """Load-generator knobs.

    ``rate_per_s`` selects the mode: a number drives an open-loop
    Poisson arrival process over ``num_requests`` requests; ``None``
    drives ``concurrency`` closed-loop sessions for ``duration_s``.
    """

    rate_per_s: float | None = None
    num_requests: int = 200
    concurrency: int = 8
    duration_s: float = 2.0
    batch: int = 16
    noise: float = 0.2
    miss_fraction: float = 0.0
    seed: int = 0
    use_retry: bool = True

    def __post_init__(self) -> None:
        if self.rate_per_s is not None and self.rate_per_s <= 0:
            raise ValueError(f"rate_per_s must be > 0, got {self.rate_per_s}")
        if self.num_requests < 1:
            raise ValueError(f"num_requests must be >= 1, got {self.num_requests}")
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {self.concurrency}")
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be > 0, got {self.duration_s}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if not 0.0 <= self.miss_fraction <= 1.0:
            raise ValueError(
                f"miss_fraction must be in [0, 1], got {self.miss_fraction}"
            )


def synthesize_requests(
    snapshot_path: str,
    num_requests: int,
    batch: int,
    noise: float = 0.2,
    miss_fraction: float = 0.0,
    seed: int = 0,
) -> list[Request]:
    """Build deterministic session chunks around the snapshot's centroids.

    Each request's frames share one hot class (a run of near-duplicate
    content); a ``miss_fraction`` of frames are replaced by pure-noise
    queries.  Queries are generated in the snapshot dtype so the
    serving path never casts.
    """
    rng = np.random.default_rng(seed)
    requests: list[Request] = []
    with MappedTableStore(snapshot_path) as store:
        num_layers, dim = store.num_layers, store.dim
        dtype = store.dtype
        centroids = [store.layer_view(layer) for layer in range(num_layers)]
        # Any class: a snapshot that serves holds every one on every layer.
        hot = rng.choice(store.num_classes, size=num_requests, replace=True)
        for k in range(num_requests):
            class_hint = int(hot[k])
            vectors = np.empty((batch, num_layers, dim), dtype=dtype)
            jitter = rng.standard_normal((batch, num_layers, dim))
            for layer in range(num_layers):
                np.add(
                    centroids[layer][class_hint],
                    noise * jitter[:, layer, :],
                    out=vectors[:, layer, :],
                    casting="unsafe",
                )
            if miss_fraction > 0.0:
                novel = rng.random(batch) < miss_fraction
                if novel.any():
                    vectors[novel] = rng.standard_normal(
                        (int(novel.sum()), num_layers, dim)
                    ).astype(dtype, copy=False)
            norms = np.linalg.norm(vectors, axis=2, keepdims=True)
            np.maximum(norms, 1e-12, out=norms)
            vectors /= norms
            requests.append(Request(class_hint, vectors))
    return requests


@dataclass
class LoadgenReport:
    """Everything one load-generator run measured."""

    mode: str
    duration_s: float
    offered: int
    success: int
    timeout: int
    shed: int
    retries: int
    late_responses: int
    throughput_rps: float
    hit_ratio: float
    latency: LatencySummary | None
    wait: LatencySummary | None
    service: LatencySummary | None
    frontend_stats: dict[str, Any] = field(default_factory=dict)
    results: list[ServeResult] = field(default_factory=list, repr=False)

    @property
    def resolved(self) -> int:
        """Requests that got a terminal outcome (must equal ``offered``)."""
        return self.success + self.timeout + self.shed

    def as_json(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "duration_s": round(self.duration_s, 3),
            "offered": self.offered,
            "success": self.success,
            "timeout": self.timeout,
            "shed": self.shed,
            "retries": self.retries,
            "late_responses": self.late_responses,
            "throughput_rps": round(self.throughput_rps, 1),
            "hit_ratio_pct": round(100.0 * self.hit_ratio, 2),
            "latency_ms": self.latency.as_row() if self.latency else None,
            "wait_ms": self.wait.as_row() if self.wait else None,
            "service_ms": self.service.as_row() if self.service else None,
        }


def _build_report(
    mode: str,
    span_s: float,
    results: list[ServeResult],
    frontend: ServeFrontend,
) -> LoadgenReport:
    success = [r for r in results if r.outcome == "success"]
    timeout = sum(1 for r in results if r.outcome == "timeout")
    shed = sum(1 for r in results if r.outcome == "shed")
    frames = sum(r.frames for r in success)
    hits = sum(r.hits for r in success)
    stats = frontend.stats()
    return LoadgenReport(
        mode=mode,
        duration_s=span_s,
        offered=len(results),
        success=len(success),
        timeout=timeout,
        shed=shed,
        retries=int(stats["retries"]),
        late_responses=int(stats["late_responses"]),
        throughput_rps=len(success) / span_s if span_s > 0 else 0.0,
        hit_ratio=hits / frames if frames else 0.0,
        latency=(
            summarize_latencies([r.latency_ms for r in success])
            if success
            else None
        ),
        wait=(
            summarize_latencies([r.wait_ms for r in success])
            if success
            else None
        ),
        service=(
            summarize_latencies([r.service_ms for r in success])
            if success
            else None
        ),
        frontend_stats=stats,
        results=results,
    )


async def run_open_loop(
    frontend: ServeFrontend,
    requests: list[Request],
    rate_per_s: float,
    seed: int = 0,
    use_retry: bool = True,
) -> LoadgenReport:
    """Fire every request on a Poisson schedule at ``rate_per_s``."""
    rng = np.random.default_rng(seed)
    gaps_s = rng.exponential(1.0 / rate_per_s, size=len(requests))
    submit = frontend.submit_with_retry if use_retry else frontend.submit
    tasks: list[asyncio.Task[ServeResult]] = []
    started = time.perf_counter()
    due = 0.0
    for request, gap in zip(requests, gaps_s):
        due += float(gap)
        delay = started + due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(
            asyncio.create_task(submit(request.class_hint, request.vectors))
        )
    results = list(await asyncio.gather(*tasks))
    span_s = time.perf_counter() - started
    return _build_report("open-loop", span_s, results, frontend)


async def run_closed_loop(
    frontend: ServeFrontend,
    requests: list[Request],
    concurrency: int,
    duration_s: float,
    use_retry: bool = True,
) -> LoadgenReport:
    """Drive ``concurrency`` back-to-back sessions for ``duration_s``."""
    submit = frontend.submit_with_retry if use_retry else frontend.submit
    started = time.perf_counter()
    deadline = started + duration_s
    results: list[ServeResult] = []

    async def _session(offset: int) -> None:
        index = offset
        while time.perf_counter() < deadline:
            request = requests[index % len(requests)]
            index += concurrency
            results.append(
                await submit(request.class_hint, request.vectors)
            )

    await asyncio.gather(*(_session(i) for i in range(concurrency)))
    span_s = time.perf_counter() - started
    return _build_report("closed-loop", span_s, results, frontend)


async def run_loadgen_async(
    serve_config: ServeConfig, load: LoadgenConfig
) -> LoadgenReport:
    """Synthesize traffic, start a frontend, drive it, and report."""
    requests = synthesize_requests(
        serve_config.snapshot_path,
        num_requests=load.num_requests,
        batch=load.batch,
        noise=load.noise,
        miss_fraction=load.miss_fraction,
        seed=load.seed,
    )
    async with ServeFrontend(serve_config) as frontend:
        if load.rate_per_s is not None:
            return await run_open_loop(
                frontend,
                requests,
                load.rate_per_s,
                seed=load.seed,
                use_retry=load.use_retry,
            )
        return await run_closed_loop(
            frontend,
            requests,
            load.concurrency,
            load.duration_s,
            use_retry=load.use_retry,
        )


def run_loadgen(serve_config: ServeConfig, load: LoadgenConfig) -> LoadgenReport:
    """Synchronous entry point (the ``repro loadgen`` command body)."""
    return asyncio.run(run_loadgen_async(serve_config, load))


def analytic_wait_ms(
    arrival_rate_per_s: float, service_mean_ms: float
) -> tuple[float, float]:
    """M/D/1 cross-check: ``(utilization, predicted mean wait ms)``.

    Maps the measured arrival rate and mean service time of a
    *single-lane* run onto :class:`~repro.sim.network.ServerLoadModel`
    — the same analytic model the virtual-time cluster charges — so a
    wall-clock run below saturation can be checked against theory.
    ``num_clients``/``round_duration_ms`` are chosen to encode the
    arrival rate at 0.1% granularity.
    """
    if arrival_rate_per_s <= 0:
        raise ValueError(
            f"arrival_rate_per_s must be > 0, got {arrival_rate_per_s}"
        )
    clients = max(1, round(1e3 * arrival_rate_per_s))
    model = ServerLoadModel(
        service_time_ms=service_mean_ms,
        round_duration_ms=1e3 * clients / arrival_rate_per_s,
    )
    return model.utilization(clients), model.mean_wait_ms(clients)
