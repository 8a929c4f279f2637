"""Smart-city surveillance: many cameras, long-tail events, one edge server.

The paper's motivating scenario (Sec. I and III-3): spatially proximate
cameras see similar but not identical data (non-IID with a shared
environment component), common events dominate while rare events form a
long tail, and an edge server lets the cameras collaborate by pooling what
each learns into a global cache.

This example runs 8 cameras on a 100-class long-tail workload and compares
every implemented method, then shows what the collaboration itself buys by
toggling global cache updates.

Run:  python examples/smart_city_surveillance.py
"""

from repro.baselines import CoCaRunner, build_runner
from repro.core import CoCaConfig
from repro.data import get_dataset
from repro.experiments import Scenario

ROUNDS, WARMUP = 3, 1


#: Decision thresholds (FoggyCache and Edge-Only run at their defaults).
THRESHOLDS = {"LearnedCache": 0.12, "SMTM": 0.08, "CoCa": 0.05}


def run_method(name: str, scenario: Scenario):
    runner = build_runner(name, scenario, THRESHOLDS.get(name))
    return runner.run(ROUNDS, warmup_rounds=WARMUP).summary()


def main() -> None:
    scenario = Scenario(
        dataset=get_dataset("ucf101", 100),
        model_name="resnet101",
        num_clients=8,
        non_iid_level=2.0,  # cameras at different intersections
        longtail_rho=90.0,  # rare events are rare
        seed=101,
    )

    print("City deployment: 8 cameras, 100 event classes, long-tail (rho=90)\n")
    print(f"{'method':14s}{'latency':>10s}{'accuracy':>10s}{'hit ratio':>10s}")
    for name in ("Edge-Only", "LearnedCache", "FoggyCache", "SMTM", "CoCa"):
        summary = run_method(name, scenario)
        hit = f"{100 * summary.hit_ratio:8.1f}%" if summary.hit_ratio else "       —"
        print(
            f"{name:14s}{summary.avg_latency_ms:9.2f}ms"
            f"{100 * summary.accuracy:9.1f}%{hit:>10s}"
        )

    # What does the collaboration buy?  Disable global cache updates so
    # each camera only ever sees the initial shared-dataset centroids.
    print("\nCollaboration ablation (CoCa with/without global cache updates):")
    for label, gcu in (("with global updates", True), ("without", False)):
        runner = CoCaRunner(
            scenario, config=CoCaConfig(theta=0.05), enable_gcu=gcu
        )
        summary = runner.run(ROUNDS, warmup_rounds=WARMUP).summary()
        print(
            f"  {label:22s} latency {summary.avg_latency_ms:6.2f} ms, "
            f"accuracy {100 * summary.accuracy:5.1f}%, "
            f"hit accuracy {100 * summary.hit_accuracy:5.1f}%"
        )


if __name__ == "__main__":
    main()
