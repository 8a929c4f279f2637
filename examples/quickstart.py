"""Quickstart: accelerate multi-client edge inference with CoCa.

Builds a 4-client deployment on a 50-class UCF101-like video workload,
runs the collaborative caching protocol for a few rounds, and compares it
with plain Edge-Only inference on the *same* streams.

Run:  python examples/quickstart.py
"""

from repro.baselines import CoCaRunner, EdgeOnly
from repro.core import CoCaConfig
from repro.data import get_dataset
from repro.experiments import Scenario


def main() -> None:
    # One evaluation setting: the dataset, model, client count, non-IID
    # level and seed fully determine the workload, so every method below
    # sees identical streams and feature geometry.
    scenario = Scenario(
        dataset=get_dataset("ucf101", 50),
        model_name="resnet101",
        num_clients=4,
        non_iid_level=1.0,  # the paper's p = 1
        seed=7,
    )

    print("Running Edge-Only (no caching) ...")
    edge = EdgeOnly(scenario).run(3, warmup_rounds=1).summary()

    print("Running CoCa (collaborative caching) ...")
    coca_runner = CoCaRunner(
        scenario,
        config=CoCaConfig(theta=0.05),  # ~3% accuracy-loss operating point
    )
    coca = coca_runner.run(3, warmup_rounds=1).summary()

    reduction = 100 * (1 - coca.avg_latency_ms / edge.avg_latency_ms)
    print()
    print(f"{'':16s}{'latency':>10s}{'accuracy':>10s}{'hit ratio':>10s}")
    print(
        f"{'Edge-Only':16s}{edge.avg_latency_ms:9.2f}ms"
        f"{100 * edge.accuracy:9.1f}%{'—':>10s}"
    )
    print(
        f"{'CoCa':16s}{coca.avg_latency_ms:9.2f}ms"
        f"{100 * coca.accuracy:9.1f}%{100 * coca.hit_ratio:9.1f}%"
    )
    print()
    print(
        f"CoCa cut average inference latency by {reduction:.1f}% "
        f"({edge.avg_latency_ms:.1f} -> {coca.avg_latency_ms:.1f} ms) with "
        f"{100 * (edge.accuracy - coca.accuracy):+.1f} points of accuracy change."
    )
    print(
        f"Cache hits were {100 * coca.hit_accuracy:.1f}% accurate; "
        f"the server allocated personalized caches every "
        f"{coca_runner.config.frames_per_round} frames."
    )


if __name__ == "__main__":
    main()
