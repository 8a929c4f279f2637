"""What the benchmark measures: ``BENCHMARK.json`` plus the fixed system.

``BENCHMARK.json`` at the checkout root is the single declaration of
workload names, metric names, units, directions and bounds; this module
only reads it, so the runner, the tests and the reports cannot drift
from what the driver checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache

from bench import ROOT

#: Seed of everything that is *system*: model geometry, the non-IID
#: partition, server calibration.  ``--seed`` changes traffic only
#: (frame streams, request order), so two seeds measure the same system.
SYSTEM_SEED = 20250

#: How often set-up is repeated in one run; ``setup_s`` is the median.
SETUP_REPEATS = 5

#: Fleet shape shared by all four workloads (the paper's non-IID p=1,
#: long-tail rho=10 setting).
NUM_CLIENTS = 8
NON_IID_LEVEL = 1.0
LONGTAIL_RHO = 10.0

DEFAULT_SECONDS = 30


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # per-layer metrics carry no bound


@dataclass(frozen=True)
class Spec:
    workloads: dict[str, str]  # name -> why
    end_to_end: tuple[Metric, ...]
    per_layer: tuple[Metric, ...]

    def metrics(self, trace: bool) -> tuple[Metric, ...]:
        return self.per_layer if trace else self.end_to_end


@cache
def load_spec() -> Spec:
    with open(ROOT / "BENCHMARK.json") as handle:
        raw = json.load(handle)
    return Spec(
        workloads={w["name"]: w["why"] for w in raw["workloads"]},
        end_to_end=tuple(Metric(**m) for m in raw["end_to_end"]),
        per_layer=tuple(Metric(**m) for m in raw["per_layer"]),
    )
