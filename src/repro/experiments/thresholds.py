"""Threshold studies — Fig. 5 (Theta) and Fig. 6 (Gamma, Delta).

Fig. 5 sweeps the hit threshold Theta and reports hit ratio, hit accuracy,
overall accuracy and average latency: stricter thresholds trade hits for
reliability.

Fig. 6 sweeps the two sample-collection thresholds and reports, for each,
the *absorption ratio* (fraction of precondition-satisfying samples that
were actually collected for the global update) and the *accuracy* of the
collected samples' inferred labels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.baselines import CoCaRunner
from repro.core.config import CoCaConfig
from repro.experiments.scenario import Scenario


@dataclass(frozen=True)
class ThetaPoint:
    """One Fig. 5 sweep point."""

    theta: float
    latency_ms: float
    total_accuracy_pct: float
    hit_accuracy_pct: float
    hit_ratio_pct: float


def run_theta_sweep(
    scenario: Scenario,
    thetas: tuple[float, ...] = (0.02, 0.035, 0.05, 0.065, 0.08),
    rounds: int = 3,
    warmup: int = 1,
) -> list[ThetaPoint]:
    """Fig. 5: CoCa under a range of hit thresholds.

    The sweep explores the full trade-off, so the server's SLO layer
    filter is relaxed (accuracy_loss_budget=0.5) — otherwise a loose
    threshold would simply disable all layers instead of showing the
    inaccurate-but-fast regime the figure documents.
    """
    points = []
    for theta in thetas:
        runner = CoCaRunner(
            scenario,
            config=CoCaConfig(theta=theta, accuracy_loss_budget=0.5),
        )
        summary = runner.run(rounds, warmup_rounds=warmup).summary()
        points.append(
            ThetaPoint(
                theta=theta,
                latency_ms=summary.avg_latency_ms,
                total_accuracy_pct=100 * summary.accuracy,
                hit_accuracy_pct=100 * summary.hit_accuracy,
                hit_ratio_pct=100 * summary.hit_ratio,
            )
        )
    return points


@dataclass(frozen=True)
class CollectionPoint:
    """One Fig. 6 sweep point (for Gamma or Delta)."""

    threshold: float
    absorption_ratio_pct: float
    collected_accuracy_pct: float


def _collection_stats(
    scenario: Scenario, config: CoCaConfig, rounds: int, warmup: int
) -> tuple[float, float, float, float]:
    """(hit absorption, miss absorption, collected accuracy, collected)."""
    runner = CoCaRunner(scenario, config=config)
    result = runner.framework.run(rounds, warmup_rounds=warmup)
    reports = result.reports
    eligible_hits = sum(r.eligible_hits for r in reports)
    eligible_misses = sum(r.eligible_misses for r in reports)
    absorbed_hits = sum(r.absorbed_hits for r in reports)
    absorbed_misses = sum(r.absorbed_misses for r in reports)
    collected = sum(r.collected_total for r in reports)
    collected_ok = sum(r.collected_correct for r in reports)
    hit_absorption = absorbed_hits / eligible_hits if eligible_hits else 0.0
    miss_absorption = absorbed_misses / eligible_misses if eligible_misses else 0.0
    accuracy = collected_ok / collected if collected else 0.0
    return hit_absorption, miss_absorption, accuracy, collected


def run_gamma_sweep(
    scenario: Scenario,
    gammas: tuple[float, ...] = (0.02, 0.06, 0.10, 0.14, 0.20),
    rounds: int = 2,
    warmup: int = 1,
    base_config: CoCaConfig | None = None,
) -> list[CollectionPoint]:
    """Fig. 6a: absorption ratio / collected accuracy vs Gamma."""
    base = base_config if base_config is not None else CoCaConfig(theta=0.05)
    points = []
    for gamma in gammas:
        config = replace(base, collect_gamma=gamma, collect_delta=10.0)
        hit_abs, _, accuracy, _ = _collection_stats(scenario, config, rounds, warmup)
        points.append(
            CollectionPoint(
                threshold=gamma,
                absorption_ratio_pct=100 * hit_abs,
                collected_accuracy_pct=100 * accuracy,
            )
        )
    return points


def run_delta_sweep(
    scenario: Scenario,
    deltas: tuple[float, ...] = (0.05, 0.15, 0.25, 0.35, 0.50),
    rounds: int = 2,
    warmup: int = 1,
    base_config: CoCaConfig | None = None,
) -> list[CollectionPoint]:
    """Fig. 6b: absorption ratio / collected accuracy vs Delta."""
    base = base_config if base_config is not None else CoCaConfig(theta=0.05)
    points = []
    for delta in deltas:
        config = replace(base, collect_delta=delta, collect_gamma=10.0)
        _, miss_abs, accuracy, _ = _collection_stats(scenario, config, rounds, warmup)
        points.append(
            CollectionPoint(
                threshold=delta,
                absorption_ratio_pct=100 * miss_abs,
                collected_accuracy_pct=100 * accuracy,
            )
        )
    return points
