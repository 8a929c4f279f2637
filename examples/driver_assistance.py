"""Driver assistance under a hard latency SLO.

The paper's introduction motivates CoCa with driver-assistance systems:
a response latency within 80 ms and tight accuracy floors.  This example
deploys the deepest (and slowest) model, ResNet152, on a fleet of vehicle
cameras and walks the Sec. VI-D threshold-selection procedure: sweep the
hit threshold Theta, inspect the latency/accuracy frontier, and pick the
operating point that honours both the latency SLO and an accuracy-loss
budget (the paper's 5% band for this model).

Run:  python examples/driver_assistance.py
"""

from repro.baselines import CoCaRunner, EdgeOnly
from repro.core import CoCaConfig
from repro.data import get_dataset
from repro.experiments import Scenario

LATENCY_SLO_MS = 55.0  # the fleet's per-frame budget for this model
ACCURACY_LOSS_BUDGET = 0.05  # the paper's looser SLO band
THETA_GRID = (0.05, 0.07, 0.09, 0.11)


def main() -> None:
    scenario = Scenario(
        dataset=get_dataset("ucf101", 50),  # stand-in for road-scene classes
        model_name="resnet152",
        num_clients=6,
        non_iid_level=2.0,  # each vehicle sees its own routes
        seed=2024,
    )

    edge = EdgeOnly(scenario).run(3, warmup_rounds=1).summary()
    floor = edge.accuracy - ACCURACY_LOSS_BUDGET
    print(
        f"Edge-Only: {edge.avg_latency_ms:.1f} ms at {100 * edge.accuracy:.1f}% — "
        f"violates the {LATENCY_SLO_MS:.0f} ms SLO\n"
    )

    print(f"{'theta':>7s}{'latency':>10s}{'accuracy':>10s}{'verdict':>28s}")
    chosen = None
    for theta in THETA_GRID:
        runner = CoCaRunner(scenario, config=CoCaConfig(theta=theta))
        s = runner.run(3, warmup_rounds=1).summary()
        ok_latency = s.avg_latency_ms <= LATENCY_SLO_MS
        ok_accuracy = s.accuracy >= floor
        verdict = (
            "meets both SLOs"
            if ok_latency and ok_accuracy
            else ("accuracy below budget" if ok_latency else "too slow")
        )
        print(
            f"{theta:7.3f}{s.avg_latency_ms:9.2f}ms"
            f"{100 * s.accuracy:9.1f}%{verdict:>28s}"
        )
        if ok_latency and ok_accuracy and chosen is None:
            chosen = (theta, s)

    print()
    if chosen is None:
        print("No grid point met both constraints; widen the grid or budget.")
        return
    theta, s = chosen
    reduction = 100 * (1 - s.avg_latency_ms / edge.avg_latency_ms)
    print(
        f"Deploy Theta={theta}: {s.avg_latency_ms:.1f} ms "
        f"({reduction:.0f}% below Edge-Only), accuracy "
        f"{100 * s.accuracy:.1f}% (loss {100 * (edge.accuracy - s.accuracy):.1f} "
        f"points, within the {100 * ACCURACY_LOSS_BUDGET:.0f}% budget)."
    )


if __name__ == "__main__":
    main()
