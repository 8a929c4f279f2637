"""Ablations of CoCa design choices beyond the paper's own Fig. 9.

DESIGN.md calls out four choices worth isolating:

* **Eq. 1 decay alpha** — cross-layer accumulation (alpha=0.5) vs
  per-layer-only scores (alpha=0) vs undamped accumulation (alpha=1).
* **Hot-spot mass** — the 95% score-mass rule vs tighter/looser masses.
* **Local-frequency blending** — the Sec. IV-B use of the client's own
  class distribution in Eq. 10 scoring vs global-only frequencies.
* **Eq. 4 frequency weighting** — frequency-proportional global updates
  vs a fixed-rate exponential moving average.

Each ablation runs full CoCa with one knob changed, on the same scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.baselines import CoCaRunner
from repro.core.config import CoCaConfig
from repro.core.server import GlobalCacheTable
from repro.experiments.scenario import Scenario


@dataclass(frozen=True)
class DesignPoint:
    """One ablation measurement."""

    knob: str
    value: str
    latency_ms: float
    accuracy_pct: float
    hit_ratio_pct: float


def _measure(scenario: Scenario, config: CoCaConfig, rounds: int, warmup: int,
             knob: str, value: str) -> DesignPoint:
    runner = CoCaRunner(scenario, config=config)
    summary = runner.run(rounds, warmup_rounds=warmup).summary()
    return DesignPoint(
        knob=knob,
        value=value,
        latency_ms=summary.avg_latency_ms,
        accuracy_pct=100 * summary.accuracy,
        hit_ratio_pct=100 * summary.hit_ratio,
    )


def run_alpha_ablation(
    scenario: Scenario,
    alphas: tuple[float, ...] = (0.0, 0.5, 1.0),
    theta: float = 0.05,
    rounds: int = 2,
    warmup: int = 1,
) -> list[DesignPoint]:
    """Eq. 1 decay: per-layer-only vs damped vs undamped accumulation."""
    base = CoCaConfig(theta=theta)
    return [
        _measure(
            scenario,
            replace(base, alpha=alpha),
            rounds,
            warmup,
            knob="alpha",
            value=f"{alpha:g}",
        )
        for alpha in alphas
    ]


def run_hotspot_mass_ablation(
    scenario: Scenario,
    masses: tuple[float, ...] = (0.80, 0.95, 0.999),
    theta: float = 0.05,
    rounds: int = 2,
    warmup: int = 1,
) -> list[DesignPoint]:
    """The 95% score-mass rule vs tighter and near-total coverage."""
    base = CoCaConfig(theta=theta)
    return [
        _measure(
            scenario,
            replace(base, hotspot_mass=mass),
            rounds,
            warmup,
            knob="hotspot_mass",
            value=f"{mass:g}",
        )
        for mass in masses
    ]


def run_local_blend_ablation(
    scenario: Scenario,
    theta: float = 0.05,
    rounds: int = 2,
    warmup: int = 1,
) -> list[DesignPoint]:
    """Client-distribution blending in Eq. 10 scoring vs global-only.

    Implemented by monkey-toggling the framework's local-frequency upload:
    the "global-only" variant simply never reports local frequencies.
    """
    points = []
    for label, use_local in (("global+local", True), ("global-only", False)):
        runner = CoCaRunner(scenario, config=CoCaConfig(theta=theta))
        if not use_local:
            for client in runner.framework.clients:
                # Suppress the local distribution in every future status.
                client.last_frequencies = np.zeros_like(client.last_frequencies)
                original = client.run_round

                def wrapped(batch=None, timings=None, _client=client, _orig=original):
                    report = _orig(batch, timings)
                    _client.last_frequencies = np.zeros_like(
                        _client.last_frequencies
                    )
                    return report

                client.run_round = wrapped
        summary = runner.run(rounds, warmup_rounds=warmup).summary()
        points.append(
            DesignPoint(
                knob="eq10_frequency",
                value=label,
                latency_ms=summary.avg_latency_ms,
                accuracy_pct=100 * summary.accuracy,
                hit_ratio_pct=100 * summary.hit_ratio,
            )
        )
    return points


class _FixedRateTable(GlobalCacheTable):
    """Eq. 4 with its frequency weights replaced by one constant blend:
    every update with a positive local frequency moves its entry ``rate``
    of the way, however much evidence the entry already holds."""

    def __init__(self, table: GlobalCacheTable, rate: float) -> None:
        super().__init__(table.num_classes, table.num_layers, table.dim)
        self.entries, self.filled = table.entries, table.filled
        self.class_freq = table.class_freq
        self.rate = rate

    def merge_updates(
        self,
        class_ids: np.ndarray,
        layers: np.ndarray,
        update_vectors: np.ndarray,
        local_freqs: np.ndarray,
        gamma: float,
    ) -> None:
        active = np.asarray(local_freqs) > 0
        rows = (np.asarray(class_ids) * self.num_layers + np.asarray(layers))[active]
        entries = self.entries.reshape(-1, self.dim)
        merged = (1 - self.rate) * entries[rows] + self.rate * np.asarray(
            update_vectors, dtype=float
        )[active]
        norms = np.linalg.norm(merged, axis=1)
        ok = norms > 0
        entries[rows[ok]] = merged[ok] / norms[ok, None]
        self.filled.reshape(-1)[rows[ok]] = True


def run_update_weighting_ablation(
    scenario: Scenario,
    theta: float = 0.05,
    rounds: int = 3,
    warmup: int = 1,
    fixed_rate: float = 0.5,
) -> list[DesignPoint]:
    """Eq. 4's frequency-proportional merge vs a fixed-rate EMA.

    The fixed-rate variant replaces the Phi/(Phi+phi) weights with a
    constant blend, removing the convergence (weights shrink as evidence
    accumulates) the paper's rule provides.
    """
    points = []
    for label, fixed in (("frequency-weighted (Eq. 4)", False), ("fixed-rate EMA", True)):
        runner = CoCaRunner(scenario, config=CoCaConfig(theta=theta))
        if fixed:
            server = runner.framework.server
            server.table = _FixedRateTable(server.table, fixed_rate)
        summary = runner.run(rounds, warmup_rounds=warmup).summary()
        points.append(
            DesignPoint(
                knob="eq4_weighting",
                value=label,
                latency_ms=summary.avg_latency_ms,
                accuracy_pct=100 * summary.accuracy,
                hit_ratio_pct=100 * summary.hit_ratio,
            )
        )
    return points


def format_design_points(points: list[DesignPoint], title: str) -> str:
    lines = [title, f"{'knob':18s} {'value':>26s} {'lat(ms)':>9s} {'acc(%)':>8s} {'HR(%)':>7s}"]
    for p in points:
        lines.append(
            f"{p.knob:18s} {p.value:>26s} {p.latency_ms:9.2f} "
            f"{p.accuracy_pct:8.2f} {p.hit_ratio_pct:7.1f}"
        )
    return "\n".join(lines)
