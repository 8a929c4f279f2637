"""Data-distribution studies — Fig. 7 (non-IID) and Table III (long tail).

Fig. 7 runs every method across non-IID levels ``p in {0, 1, 2, 10}``:
methods without caching are insensitive, cache-based methods speed up as
heterogeneity concentrates each client's stream, and CoCa stays ahead.

Table III compares a uniform and a long-tailed (rho = 90) class
distribution on ImageNet-100: the adaptive allocation exploits the tail's
concentration, LRU-style reuse does not.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.baselines import build_runner
from repro.core.deployment import Scenario

#: Default per-method operating points for the distribution studies (the
#: thresholds selected by the 3%-SLO protocol on the reference scenario).
DEFAULT_OPERATING_POINTS: dict[str, float] = {
    "LearnedCache": 0.12,
    "FoggyCache": 0.70,
    "SMTM": 0.08,
    "CoCa": 0.05,
}


@dataclass(frozen=True)
class MethodPoint:
    """One (method, setting) measurement."""

    method: str
    setting: str
    latency_ms: float
    accuracy_pct: float
    hit_ratio_pct: float


def _measure(
    scenario: Scenario,
    setting: str,
    methods: tuple[str, ...],
    rounds: int,
    warmup: int,
    operating_points: dict[str, float] | None,
) -> list[MethodPoint]:
    """Every method on ``scenario`` at its operating point (Edge-Only has none)."""
    ops = dict(DEFAULT_OPERATING_POINTS, **(operating_points or {}))
    points = []
    for method in methods:
        runner = build_runner(method, scenario, ops.get(method))
        summary = runner.run(rounds, warmup_rounds=warmup).summary()
        points.append(
            MethodPoint(
                method=method,
                setting=setting,
                latency_ms=summary.avg_latency_ms,
                accuracy_pct=100 * summary.accuracy,
                hit_ratio_pct=100 * summary.hit_ratio,
            )
        )
    return points


def run_noniid_sweep(
    scenario: Scenario,
    levels: tuple[float, ...] = (0.0, 1.0, 2.0, 10.0),
    methods: tuple[str, ...] = (
        "Edge-Only",
        "LearnedCache",
        "FoggyCache",
        "SMTM",
        "CoCa",
    ),
    rounds: int = 3,
    warmup: int = 1,
    operating_points: dict[str, float] | None = None,
) -> list[MethodPoint]:
    """Fig. 7: every method at every non-IID level."""
    return [
        point
        for level in levels
        for point in _measure(replace(scenario, non_iid_level=level), f"p={level:g}",
                              methods, rounds, warmup, operating_points)
    ]


def run_longtail_comparison(
    scenario: Scenario,
    imbalance_ratio: float = 90.0,
    methods: tuple[str, ...] = (
        "Edge-Only",
        "LearnedCache",
        "FoggyCache",
        "SMTM",
        "CoCa",
    ),
    rounds: int = 3,
    warmup: int = 1,
    operating_points: dict[str, float] | None = None,
) -> list[MethodPoint]:
    """Table III: uniform vs long-tail groups for every method."""
    return [
        point
        for setting, rho in (("uniform", 1.0), ("long-tail", imbalance_ratio))
        for point in _measure(replace(scenario, longtail_rho=rho), setting,
                              methods, rounds, warmup, operating_points)
    ]


def format_method_points(points: list[MethodPoint], title: str) -> str:
    """Render method x setting measurements as a text table."""
    lines = [title]
    settings = list(dict.fromkeys(p.setting for p in points))
    methods = list(dict.fromkeys(p.method for p in points))
    header = f"{'Method':14s}" + "".join(
        f" | {s:>9s} Lat  Acc%" for s in settings
    )
    lines.append(header)
    lines.append("-" * len(header))
    index = {(p.method, p.setting): p for p in points}
    for method in methods:
        cells = []
        for setting in settings:
            p = index[(method, setting)]
            cells.append(f" | {p.latency_ms:9.2f} {p.accuracy_pct:8.2f}")
        lines.append(f"{method:14s}" + "".join(cells))
    return "\n".join(lines)
