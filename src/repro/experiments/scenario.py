"""Shared experiment scenario: identical workloads for every method.

A :class:`Scenario` captures one evaluation setting (dataset, model,
client count, non-IID level, long-tail shape, seed); the model
substrate, the per-client class distributions and the per-client streams
come from :func:`repro.core.deployment.derive_deployment`, the same
derivation :class:`~repro.core.framework.CoCaFramework` runs.  CoCa and
every baseline built from the *same* seed therefore see byte-identical
feature geometry, and — since every runner draws a round as one
``take_block`` then one ``draw_samples`` on the client's generator —
bit-identical frames and samples: the comparisons in the benchmark
tables are paired, frame for frame.

A scenario is frozen and derives its deployment once, on first use, from
its own fields, so ``dataclasses.replace(scenario, ...)`` always yields a
scenario whose model and distributions match its new fields.  One
scenario serves any number of runners: every runner builds its own
streams on fresh generators (:meth:`Scenario.client_rng`) and only reads
the shared model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.deployment import Deployment, derive_deployment
from repro.data.datasets import DatasetSpec
from repro.data.stream import StreamGenerator
from repro.models.base import SimulatedModel


@dataclass(frozen=True)
class Scenario:
    """One fully specified evaluation setting.

    Attributes:
        dataset: dataset spec (class count, locality, difficulty).
        model_name: zoo model to deploy.
        num_clients: participating edge clients.
        non_iid_level: the paper's ``p`` (0 = IID).
        longtail_rho: imbalance ratio (1 = uniform).
        seed: master seed; all randomness derives from it.
        client_drift_scale: per-client feature drift (``None`` = zoo
            default for the client count).
    """

    dataset: DatasetSpec
    model_name: str = "resnet101"
    num_clients: int = 10
    non_iid_level: float = 0.0
    longtail_rho: float = 1.0
    seed: int = 0
    client_drift_scale: float | None = None

    @cached_property
    def deployment(self) -> Deployment:
        """Model, partitions and seeds of this setting (derived once)."""
        return derive_deployment(
            self.dataset,
            self.model_name,
            self.num_clients,
            self.seed,
            self.non_iid_level,
            self.longtail_rho,
            self.client_drift_scale,
        )

    @property
    def model(self) -> SimulatedModel:
        """The shared simulated model."""
        return self.deployment.model

    @property
    def distributions(self) -> np.ndarray:
        """Per-client class distributions, shape (num_clients, I)."""
        return self.deployment.distributions.copy()

    def client_rng(self, client_id: int) -> np.random.Generator:
        """Fresh generator for one client (same sequence every call)."""
        return self.deployment.client_rng(client_id)

    def make_stream(
        self, client_id: int, rng: np.random.Generator
    ) -> StreamGenerator:
        """Build client ``client_id``'s stream on the given generator.

        The stream and the client's feature sampling share one generator
        (as in :class:`repro.core.framework.CoCaFramework`), so pass the
        generator returned by :meth:`client_rng` and reuse it for feature
        draws.
        """
        return self.deployment.make_stream(client_id, rng)
