"""System-load studies — Fig. 10a (update cycle F) and Fig. 10b (clients).

Fig. 10a varies the round length ``F`` (frames between cache-allocation
requests): short cycles give fresh caches but add per-frame request
overhead (clients contend for the server); long cycles amortize the
overhead but serve staler caches.

Fig. 10b reads the server queueing model: mean cache-request response
latency as the number of connected clients grows.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines import CoCaRunner
from repro.core.config import CoCaConfig
from repro.experiments.scenario import Scenario
from repro.sim.network import ServerLoadModel


@dataclass(frozen=True)
class UpdateCyclePoint:
    """One Fig. 10a sweep point."""

    frames_per_round: int
    latency_ms: float
    accuracy_pct: float


def run_update_cycle_sweep(
    scenario: Scenario,
    cycles: tuple[int, ...] = (150, 300, 450, 600, 750, 900),
    theta: float = 0.05,
    total_frames: int = 2400,
    warmup_frames: int = 600,
    response_model: ServerLoadModel | None = None,
) -> list[UpdateCyclePoint]:
    """Fig. 10a: latency/accuracy vs the update cycle F.

    The per-frame amortized request overhead is the response latency of a
    cache request (from the server load model, at this scenario's client
    count) divided by F — short cycles pay it often.
    """
    load = response_model if response_model is not None else ServerLoadModel()
    points = []
    for cycle in cycles:
        config = CoCaConfig(theta=theta, frames_per_round=cycle)
        runner = CoCaRunner(scenario, config=config)
        rounds = max(1, total_frames // cycle)
        warmup = max(0, warmup_frames // cycle)
        summary = runner.run(rounds, warmup_rounds=warmup).summary()
        request_overhead = load.response_latency_ms(scenario.num_clients) / cycle
        points.append(
            UpdateCyclePoint(
                frames_per_round=cycle,
                latency_ms=summary.avg_latency_ms + request_overhead,
                accuracy_pct=100 * summary.accuracy,
            )
        )
    return points


@dataclass(frozen=True)
class ClientLoadPoint:
    """One Fig. 10b sweep point."""

    num_clients: int
    response_latency_ms: float


def run_client_load_sweep(
    client_counts: tuple[int, ...] = (60, 80, 100, 120, 140, 160),
    model: ServerLoadModel | None = None,
) -> list[ClientLoadPoint]:
    """Fig. 10b: cache-request response latency vs client count."""
    load = model if model is not None else ServerLoadModel()
    return [
        ClientLoadPoint(num_clients=n, response_latency_ms=load.response_latency_ms(n))
        for n in client_counts
    ]
