"""One deployment derivation: master seed -> model, partitions, generators.

:class:`~repro.core.framework.CoCaFramework` and every baseline (through
:class:`~repro.experiments.scenario.Scenario`) derive their substrate
here, so runs built from equal parameters see byte-identical feature
geometry, class distributions and per-client generators by construction.
A client's round is one ``take_block`` on its stream, then one
``draw_samples`` on the same generator, for CoCa and every baseline
alike, so all methods see bit-identical frames — which is what makes the
benchmark tables' comparisons paired.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.datasets import DatasetSpec
from repro.data.partition import apply_longtail, dirichlet_partition
from repro.data.stream import StreamGenerator
from repro.models.base import SimulatedModel
from repro.models.zoo import build_model


@dataclass(frozen=True, eq=False)
class Deployment:
    """Everything a seed fixes about one evaluation setting.

    Attributes:
        model: the shared simulated model (feature geometry, profile,
            and the dataset spec the streams are drawn over).
        distributions: per-client class distributions,
            ``(num_clients, num_classes)``.
        server_seed: seed of the server's shared-dataset calibration.
        client_seeds: one seed per client; a client's stream and its
            feature sampling share the generator built from it.
    """

    model: SimulatedModel
    distributions: np.ndarray
    server_seed: np.random.SeedSequence
    client_seeds: tuple[np.random.SeedSequence, ...]

    def server_rng(self) -> np.random.Generator:
        """Generator for server-side calibration (shared dataset)."""
        return np.random.default_rng(self.server_seed)

    def client_rng(self, client_id: int) -> np.random.Generator:
        """Fresh generator for one client (same sequence every call)."""
        if not 0 <= client_id < len(self.client_seeds):
            raise IndexError(f"client_id {client_id} out of range")
        return np.random.default_rng(self.client_seeds[client_id])

    def make_stream(
        self, client_id: int, rng: np.random.Generator
    ) -> StreamGenerator:
        """Client ``client_id``'s frame stream on the given generator.

        Pass the generator returned by :meth:`client_rng` and reuse it
        for the client's feature draws.
        """
        dataset = self.model.dataset
        return StreamGenerator(
            class_distribution=self.distributions[client_id],
            mean_run_length=dataset.mean_run_length,
            rng=rng,
            base_difficulty=dataset.difficulty,
        )


def derive_deployment(
    dataset: DatasetSpec,
    model_name: str,
    num_clients: int,
    seed: int,
    non_iid_level: float,
    longtail_rho: float,
    client_drift_scale: float | None,
) -> Deployment:
    """Derive the model, partitions and seeds of one setting from ``seed``.

    Args:
        dataset: dataset spec (class count, locality, difficulty).
        model_name: zoo model to deploy.
        num_clients: participating edge clients.
        seed: master seed; every stochastic component derives from it.
        non_iid_level: the paper's ``p`` (0 = IID).
        longtail_rho: imbalance ratio (1 = uniform).
        client_drift_scale: per-client feature drift (``None`` = zoo
            default for the client count).
    """
    root = np.random.SeedSequence(seed)
    geometry_seed, partition_seed, server_seed, *client_seeds = root.spawn(
        3 + num_clients
    )
    model = build_model(
        model_name,
        dataset,
        num_clients=num_clients,
        seed=int(geometry_seed.generate_state(1)[0]),
        client_drift_scale=client_drift_scale,
    )
    partition_rng = np.random.default_rng(partition_seed)
    distributions = dirichlet_partition(
        model.num_classes, num_clients, non_iid_level, partition_rng
    )
    if longtail_rho > 1.0:
        distributions = np.stack(
            [
                apply_longtail(dist, longtail_rho, partition_rng)
                for dist in distributions
            ]
        )
    return Deployment(
        model=model,
        distributions=distributions,
        server_seed=server_seed,
        client_seeds=tuple(client_seeds),
    )
