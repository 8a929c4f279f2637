"""The fixed system under test and the seeded traffic that drives it.

Everything here goes through the program's public constructors.  The
framework is built from :data:`~bench.spec.SYSTEM_SEED` — geometry,
partition and calibration never change between runs — and traffic is
the program's own :class:`~repro.data.stream.StreamGenerator` over the
system's per-client class distributions, re-seeded from ``--seed``.
"""

from __future__ import annotations

import os
import shutil
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from bench import BENCH_DIR
from bench.spec import LONGTAIL_RHO, NON_IID_LEVEL, NUM_CLIENTS, SYSTEM_SEED
from repro.cluster import ClusterFramework
from repro.core.config import CoCaConfig
from repro.core.framework import CoCaFramework
from repro.data.datasets import DatasetSpec
from repro.data.stream import StreamGenerator


@dataclass
class RunResult:
    """What one benchmark run reports (the last stdout line, plus notes)."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    #: Pooled values and failed checks, printed beside the metrics.
    notes: dict[str, object] = field(default_factory=dict)


class Checks:
    """Collects named correctness checks; ``ok`` is their conjunction."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def require(self, condition: bool, what: str) -> None:
        if not condition:
            self.failures.append(what)

    @property
    def ok(self) -> bool:
        return not self.failures


@contextmanager
def workdir() -> Iterator[Path]:
    """A scratch directory inside the benchmark's own tree, removed on exit
    (snapshots are written here; nothing leaves the checkout)."""
    path = BENCH_DIR / ".work" / f"run-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def build_framework(
    model: str, dataset: DatasetSpec, config: CoCaConfig | None = None
) -> CoCaFramework:
    """The single-server deployment every run measures (fixed by SYSTEM_SEED)."""
    return CoCaFramework(
        dataset,
        model_name=model,
        num_clients=NUM_CLIENTS,
        config=config,
        seed=SYSTEM_SEED,
        non_iid_level=NON_IID_LEVEL,
        longtail_rho=LONGTAIL_RHO,
    )


def build_cluster(
    model: str, dataset: DatasetSpec, num_shards: int, config: CoCaConfig | None = None
) -> ClusterFramework:
    """The sharded deployment (sync interval 1, delta sync: the defaults)."""
    return ClusterFramework(
        dataset,
        model_name=model,
        num_shards=num_shards,
        num_clients=NUM_CLIENTS,
        config=config,
        seed=SYSTEM_SEED,
        non_iid_level=NON_IID_LEVEL,
        longtail_rho=LONGTAIL_RHO,
        sync_interval=1,
    )


def traffic_rng(seed: int, client_id: int) -> np.random.Generator:
    return np.random.default_rng([seed, client_id])


def traffic_stream(
    framework: CoCaFramework,
    dataset: DatasetSpec,
    client_id: int,
    rng: np.random.Generator,
) -> StreamGenerator:
    """A client's frame stream over the *system's* class distribution,
    driven by a traffic generator (the only thing ``--seed`` reaches)."""
    return StreamGenerator(
        class_distribution=framework.distributions[client_id],
        mean_run_length=dataset.mean_run_length,
        rng=rng,
        base_difficulty=dataset.difficulty,
    )


def reseed_traffic(framework: CoCaFramework, dataset: DatasetSpec, seed: int) -> None:
    """Point every client of a built fleet at seeded traffic."""
    for client in framework.clients:
        client.stream = traffic_stream(
            framework, dataset, client.client_id, traffic_rng(seed, client.client_id)
        )
