"""One evaluation setting and everything its master seed fixes.

A :class:`Scenario` lists the seven setting fields once; its cached
members are the one derivation of them: the shared model, the
per-client class distributions, the per-client generators and streams,
and the server's :class:`~repro.core.server.Calibration`.
:class:`~repro.core.framework.CoCaFramework` (through
:meth:`~repro.core.framework.CoCaFramework.from_scenario`, or a private
scenario of its keywords), a cluster attached to one and every baseline
read them, so runs of equal fields see byte-identical feature geometry,
class distributions and per-client generators by construction.  A client's round is one
``take_block`` on its stream, then one ``draw_samples`` on the same
generator, for CoCa and every baseline alike, so all methods see
bit-identical frames — which is what makes the benchmark tables'
comparisons paired.

A scenario is frozen and derives each member once, on first use, from
its own fields, so ``dataclasses.replace(scenario, ...)`` always yields
a scenario whose members match its new fields.  One scenario serves any
number of runners: each builds its own streams on fresh generators
(:meth:`Scenario.client_rng`), and none writes to what it shares — the
distributions and the calibration are read-only, and a framework built
from a scenario refuses to drift its model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.server import Calibration, calibrate
from repro.data.datasets import DatasetSpec
from repro.data.partition import apply_longtail, dirichlet_partition
from repro.data.stream import StreamGenerator
from repro.models.base import SimulatedModel
from repro.models.zoo import build_model


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
    def _seeds(self) -> list[np.random.SeedSequence]:
        """Geometry, partition and server seeds, then one per client."""
        return np.random.SeedSequence(self.seed).spawn(3 + self.num_clients)

    @cached_property
    def model(self) -> SimulatedModel:
        """The shared simulated model (feature geometry, profile, and the
        dataset spec the streams are drawn over)."""
        return build_model(
            self.model_name,
            self.dataset,
            num_clients=self.num_clients,
            seed=int(self._seeds[0].generate_state(1)[0]),
            client_drift_scale=self.client_drift_scale,
        )

    @cached_property
    def distributions(self) -> np.ndarray:
        """Per-client class distributions, ``(num_clients, I)``, read-only."""
        rng = np.random.default_rng(self._seeds[1])
        distributions = dirichlet_partition(
            self.model.num_classes, self.num_clients, self.non_iid_level, rng
        )
        if self.longtail_rho > 1.0:
            distributions = np.stack(
                [apply_longtail(dist, self.longtail_rho, rng) for dist in distributions]
            )
        distributions.setflags(write=False)
        return distributions

    @cached_property
    def calibration(self) -> Calibration:
        """The server's shared-dataset calibration of :attr:`model`."""
        return calibrate(self.model, self.server_rng())

    def server_rng(self) -> np.random.Generator:
        """Generator for server-side calibration (shared dataset)."""
        return np.random.default_rng(self._seeds[2])

    def client_rng(self, client_id: int) -> np.random.Generator:
        """Fresh generator for one client (same sequence every call)."""
        if not 0 <= client_id < self.num_clients:
            raise IndexError(f"client_id {client_id} out of range")
        return np.random.default_rng(self._seeds[3 + client_id])

    def make_stream(
        self, client_id: int, rng: np.random.Generator
    ) -> StreamGenerator:
        """Client ``client_id``'s frame stream on the given generator.

        The stream and the client's feature sampling share one
        generator, so pass the generator returned by :meth:`client_rng`
        and reuse it for the client's feature draws.
        """
        return StreamGenerator(
            class_distribution=self.distributions[client_id],
            mean_run_length=self.dataset.mean_run_length,
            rng=rng,
            base_difficulty=self.dataset.difficulty,
        )
