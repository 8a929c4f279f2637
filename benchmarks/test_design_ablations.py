"""Design-choice ablations beyond the paper's Fig. 9 (DESIGN.md list).

These quantify the contribution of four design decisions: the Eq. 1
cross-layer decay, the 95% hot-spot mass rule, the use of the client's
own class distribution in Eq. 10 scoring, and Eq. 4's
frequency-proportional update weighting.
"""

import pytest

from repro.data.datasets import get_dataset
from repro.experiments import (
    Scenario,
    format_design_points,
    run_alpha_ablation,
    run_hotspot_mass_ablation,
    run_local_blend_ablation,
    run_update_weighting_ablation,
)


@pytest.fixture(scope="module")
def scenario():
    return Scenario(
        dataset=get_dataset("ucf101", 50),
        model_name="resnet101",
        num_clients=4,
        non_iid_level=1.0,
        seed=61,
    )


def test_alpha_decay_ablation(benchmark, report, scenario):
    points = benchmark.pedantic(
        lambda: run_alpha_ablation(scenario, alphas=(0.0, 0.5, 1.0), rounds=2, warmup=1),
        rounds=1,
        iterations=1,
    )
    report("ablation_alpha", format_design_points(points, "Eq. 1 decay alpha"))
    by_value = {p.value: p for p in points}
    # The paper's damped accumulation is competitive with both extremes on
    # accuracy (within 2 points of the best).
    best_acc = max(p.accuracy_pct for p in points)
    assert by_value["0.5"].accuracy_pct > best_acc - 2.0


def test_hotspot_mass_ablation(benchmark, report, scenario):
    points = benchmark.pedantic(
        lambda: run_hotspot_mass_ablation(
            scenario, masses=(0.80, 0.95, 0.999), rounds=2, warmup=1
        ),
        rounds=1,
        iterations=1,
    )
    report("ablation_hotspot_mass", format_design_points(points, "Hot-spot mass"))
    by_value = {p.value: p for p in points}
    # Tighter mass misses more classes => lower hit ratio than near-total.
    assert by_value["0.999"].hit_ratio_pct >= by_value["0.8"].hit_ratio_pct - 3.0
    # The paper's 0.95 stays within 2 accuracy points of near-total mass.
    assert by_value["0.95"].accuracy_pct > by_value["0.999"].accuracy_pct - 2.0


def test_local_blend_ablation(benchmark, report, scenario):
    points = benchmark.pedantic(
        lambda: run_local_blend_ablation(scenario, rounds=2, warmup=1),
        rounds=1,
        iterations=1,
    )
    report("ablation_local_blend", format_design_points(points, "Eq. 10 frequency source"))
    by_value = {p.value: p for p in points}
    # A no-harm check: with the similarity floor making absent-class
    # rejection robust, blending the client's own distribution keeps both
    # metrics in the same band as global-only scoring (its value shows
    # under hotspot-coverage stress; see the git history of this repo).
    assert abs(
        by_value["global+local"].hit_ratio_pct
        - by_value["global-only"].hit_ratio_pct
    ) < 10.0
    assert abs(
        by_value["global+local"].accuracy_pct
        - by_value["global-only"].accuracy_pct
    ) < 2.5


def test_update_weighting_ablation(benchmark, report, scenario):
    points = benchmark.pedantic(
        lambda: run_update_weighting_ablation(scenario, rounds=3, warmup=1),
        rounds=1,
        iterations=1,
    )
    report("ablation_eq4_weighting", format_design_points(points, "Eq. 4 weighting"))
    by_value = {p.value: p for p in points}
    eq4 = by_value["frequency-weighted (Eq. 4)"]
    ema = by_value["fixed-rate EMA"]
    # Eq. 4's shrinking weights keep entries at least as accurate as a
    # fixed-rate EMA, whose updates never converge.
    assert eq4.accuracy_pct > ema.accuracy_pct - 1.5
    # The two rows measure two different merges.
    assert (eq4.latency_ms, eq4.accuracy_pct, eq4.hit_ratio_pct) != (
        ema.latency_ms, ema.accuracy_pct, ema.hit_ratio_pct
    )
