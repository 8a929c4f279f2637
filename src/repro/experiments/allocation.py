"""Cache-allocation comparison — Fig. 8 (ACA vs LRU / FIFO / RAND).

All policies manage the same cache structure (a static set of high-benefit
layers, each holding at most ``cache_size`` class entries); ACA runs with
the *same total memory* so the comparison isolates the allocation policy.
The workload is long-tailed (Sec. VI-G uses a 100-class long-tail UCF101
stream).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines import CoCaRunner, ReplacementPolicyCache
from repro.core.config import CoCaConfig
from repro.core.deployment import Scenario


@dataclass(frozen=True)
class AllocationPoint:
    """One (policy, cache size) measurement."""

    policy: str
    cache_size: int
    latency_ms: float
    accuracy_pct: float
    hit_ratio_pct: float


def run_allocation_comparison(
    scenario: Scenario,
    cache_sizes: tuple[int, ...] = (10, 30, 50, 70, 90),
    theta: float = 0.05,
    rounds: int = 3,
    warmup: int = 1,
) -> list[AllocationPoint]:
    """Fig. 8: latency of each policy across cache sizes."""
    points: list[AllocationPoint] = []
    for size in cache_sizes:
        size = min(size, scenario.dataset.num_classes)
        memory_bytes = None
        for policy in ("lru", "fifo", "rand"):
            runner = ReplacementPolicyCache(
                scenario,
                policy=policy,
                cache_size=size,
                theta=theta,
            )
            memory_bytes = runner.memory_bytes()
            summary = runner.run(rounds, warmup_rounds=warmup).summary()
            points.append(
                AllocationPoint(
                    policy=policy.upper(),
                    cache_size=size,
                    latency_ms=summary.avg_latency_ms,
                    accuracy_pct=100 * summary.accuracy,
                    hit_ratio_pct=100 * summary.hit_ratio,
                )
            )
        assert memory_bytes is not None
        aca = CoCaRunner(
            scenario,
            config=CoCaConfig(theta=theta),
            budget_bytes=memory_bytes,
        )
        summary = aca.run(rounds, warmup_rounds=warmup).summary()
        points.append(
            AllocationPoint(
                policy="ACA",
                cache_size=size,
                latency_ms=summary.avg_latency_ms,
                accuracy_pct=100 * summary.accuracy,
                hit_ratio_pct=100 * summary.hit_ratio,
            )
        )
    return points

