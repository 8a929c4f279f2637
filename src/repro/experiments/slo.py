"""Latency under accuracy-loss SLOs — Table II.

The paper tunes each method's decision threshold to its best latency
*subject to* an accuracy-loss constraint (3% / 5% below Edge-Only), then
reports the achieved latency and accuracy.  This driver reproduces that
protocol: for each method it searches a small threshold grid, keeps the
configurations meeting the constraint, and reports the fastest.  Every
run is built by :func:`repro.baselines.build_runner` on the one given
scenario, so all methods and grid points start from the same deployment
and per-client seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines import build_runner
from repro.core.deployment import Scenario
from repro.sim.metrics import MetricsSummary

#: Per-method grids of the decision threshold that ``build_runner`` sets
#: (see :data:`repro.baselines.METHODS`); other parameters stay at their
#: defaults.
DEFAULT_GRIDS: dict[str, list[float]] = {
    "LearnedCache": [0.06, 0.09, 0.12, 0.15],
    "FoggyCache": [0.62, 0.68, 0.74, 0.80],  # min_similarity
    "SMTM": [0.03, 0.05, 0.08, 0.12],
    "CoCa": [0.035, 0.05, 0.07, 0.09, 0.11],
}


@dataclass(frozen=True)
class SloRow:
    """One method's result under one accuracy-loss constraint."""

    method: str
    latency_ms: float
    accuracy_pct: float
    hit_ratio_pct: float
    threshold: float | None
    met_constraint: bool


def run_slo_experiment(
    scenario: Scenario,
    accuracy_loss_budgets: tuple[float, ...] = (0.03, 0.05),
    methods: tuple[str, ...] = ("LearnedCache", "FoggyCache", "SMTM", "CoCa"),
    rounds: int = 3,
    warmup: int = 1,
    grids: dict[str, list[float]] | None = None,
) -> dict[float, list[SloRow]]:
    """Table II protocol for one (model, dataset) scenario.

    Returns:
        Mapping of accuracy-loss budget -> rows (Edge-Only first, then one
        row per method: the lowest-latency grid point meeting the budget,
        or the most accurate one if none does, flagged accordingly).
    """
    grids = dict(DEFAULT_GRIDS, **(grids or {}))

    def measure(method: str, threshold: float | None) -> MetricsSummary:
        runner = build_runner(method, scenario, threshold)
        return runner.run(rounds, warmup_rounds=warmup).summary()

    edge = measure("Edge-Only", None)
    # Evaluate every grid point once, reuse across budgets.
    evaluations = {method: [(t, measure(method, t)) for t in grids[method]] for method in methods}

    results: dict[float, list[SloRow]] = {}
    for budget in accuracy_loss_budgets:
        floor = edge.accuracy - budget
        rows = [
            SloRow(
                method="Edge-Only",
                latency_ms=edge.avg_latency_ms,
                accuracy_pct=100 * edge.accuracy,
                hit_ratio_pct=0.0,
                threshold=None,
                met_constraint=True,
            )
        ]
        for method in methods:
            candidates = [
                (t, s) for t, s in evaluations[method] if s.accuracy >= floor
            ]
            if candidates:
                t, s = min(candidates, key=lambda ts: ts[1].avg_latency_ms)
                met = True
            else:
                t, s = max(evaluations[method], key=lambda ts: ts[1].accuracy)
                met = False
            rows.append(
                SloRow(
                    method=method,
                    latency_ms=s.avg_latency_ms,
                    accuracy_pct=100 * s.accuracy,
                    hit_ratio_pct=100 * s.hit_ratio,
                    threshold=t,
                    met_constraint=met,
                )
            )
        results[budget] = rows
    return results


def format_slo_table(results: dict[float, list[SloRow]], title: str) -> str:
    """Render the Table II layout as text."""
    lines = [title]
    budgets = sorted(results)
    header = f"{'Method':14s}" + "".join(
        f" | <{int(100 * b)}% Lat.(ms)  Acc.(%)" for b in budgets
    )
    lines.append(header)
    lines.append("-" * len(header))
    methods = [row.method for row in results[budgets[0]]]
    for i, method in enumerate(methods):
        cells = []
        for budget in budgets:
            row = results[budget][i]
            flag = "" if row.met_constraint else "*"
            cells.append(f" | {row.latency_ms:10.2f}{flag:1s} {row.accuracy_pct:7.2f}")
        lines.append(f"{method:14s}" + "".join(cells))
    lines.append("(* = no grid point met the constraint; most accurate shown)")
    return "\n".join(lines)
