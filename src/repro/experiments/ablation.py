"""Component ablation — Fig. 9 (DCA and GCU, on four models).

Four variants are compared on the same scenario:

* **Normal** — static allocation (all classes, layers fixed once from the
  shared-dataset statistics), frozen global cache;
* **GCU** — static allocation + global cache updates;
* **DCA** — dynamic allocation, frozen global cache;
* **DCA+GCU** — full CoCa.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.baselines import CoCaRunner
from repro.core.config import CoCaConfig, recommended_theta
from repro.core.deployment import Scenario

VARIANTS: tuple[tuple[str, bool, bool], ...] = (
    ("Normal", False, False),
    ("GCU", False, True),
    ("DCA", True, False),
    ("DCA+GCU", True, True),
)


@dataclass(frozen=True)
class AblationPoint:
    """One (model, variant) measurement."""

    model: str
    variant: str
    latency_ms: float
    accuracy_pct: float
    hit_ratio_pct: float


def run_ablation(
    scenario: Scenario,
    model_names: tuple[str, ...] = ("vgg16_bn", "resnet50", "resnet101", "resnet152"),
    theta: float | None = None,
    rounds: int = 3,
    warmup: int = 1,
) -> list[AblationPoint]:
    """Fig. 9: every variant on every model.

    ``theta=None`` uses each model's recommended 3%-SLO threshold.
    """
    points = []
    for model_name in model_names:
        model_theta = theta if theta is not None else recommended_theta(model_name)
        model_scenario = replace(scenario, model_name=model_name)
        for variant, dca, gcu in VARIANTS:
            runner = CoCaRunner(
                model_scenario,
                config=CoCaConfig(theta=model_theta),
                enable_dca=dca,
                enable_gcu=gcu,
            )
            summary = runner.run(rounds, warmup_rounds=warmup).summary()
            points.append(
                AblationPoint(
                    model=model_name,
                    variant=variant,
                    latency_ms=summary.avg_latency_ms,
                    accuracy_pct=100 * summary.accuracy,
                    hit_ratio_pct=100 * summary.hit_ratio,
                )
            )
    return points


def format_ablation_table(points: list[AblationPoint], title: str) -> str:
    lines = [title]
    models = list(dict.fromkeys(p.model for p in points))
    variants = [v for v, _, _ in VARIANTS]
    header = f"{'Model':10s}" + "".join(f" | {v:>8s} lat  acc%" for v in variants)
    lines.append(header)
    lines.append("-" * len(header))
    index = {(p.model, p.variant): p for p in points}
    for model in models:
        cells = []
        for variant in variants:
            p = index[(model, variant)]
            cells.append(f" | {p.latency_ms:8.2f} {p.accuracy_pct:5.1f}")
        lines.append(f"{model:10s}" + "".join(cells))
    return "\n".join(lines)
