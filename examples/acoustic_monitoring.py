"""Environmental acoustic monitoring with an audio transformer.

CoCa is model-agnostic: the paper's third evaluation pairs the Audio
Spectrogram Transformer (AST) with ESC-50 environmental sounds.  This
example deploys AST on a network of acoustic sensors, demonstrates the
cache adapting as the soundscape changes (the stream's working set
churns), and reports per-round latency to show the warm-up behaviour.

Run:  python examples/acoustic_monitoring.py
"""

from repro.baselines import CoCaRunner, EdgeOnly
from repro.core import CoCaConfig
from repro.data import get_dataset
from repro.experiments import Scenario


def main() -> None:
    scenario = Scenario(
        dataset=get_dataset("esc50"),
        model_name="ast_base",
        num_clients=5,
        non_iid_level=2.0,  # forest mic vs roadside mic vs harbour mic
        seed=3030,
    )

    edge = EdgeOnly(scenario).run(4, warmup_rounds=0).summary()

    runner = CoCaRunner(
        scenario, config=CoCaConfig(theta=0.045)
    )
    result = runner.framework.run(num_rounds=4, warmup_rounds=0)

    print("AST-Base on 5 acoustic sensors (ESC-50 soundscape)\n")
    print(f"Edge-Only reference: {edge.avg_latency_ms:.1f} ms, "
          f"{100 * edge.accuracy:.1f}% accuracy\n")
    print(f"{'round':>6s}{'latency':>10s}{'accuracy':>10s}{'hit ratio':>11s}"
          f"{'collected':>11s}")
    for r in result.rounds:
        print(
            f"{r.round_index:6d}{r.avg_latency_ms:9.2f}ms"
            f"{100 * r.accuracy:9.1f}%{100 * r.hit_ratio:10.1f}%"
            f"{r.absorbed_hits + r.absorbed_misses:11d}"
        )

    total = result.summary()
    reduction = 100 * (1 - total.avg_latency_ms / edge.avg_latency_ms)
    print(
        f"\nOverall: {total.avg_latency_ms:.1f} ms ({reduction:.0f}% below "
        f"Edge-Only) at {100 * total.accuracy:.1f}% accuracy."
    )
    print(
        "Round 0 runs on the cold shared-dataset cache; later rounds use "
        "caches personalized from each sensor's own traffic."
    )


if __name__ == "__main__":
    main()
