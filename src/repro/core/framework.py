"""Round-based orchestration of the CoCa client-server protocol.

Every client takes part in every round.  One framework round follows
Fig. 3 of the paper, for each client in id order:

1. the client uploads status (tau, R, Pi) and requests a cache; Pi is
   ``config.cache_budget_fraction`` of the full table, the same for
   every client;
2. the server runs ACA over the global state — optimizing expected
   latency against the model profile's own lookup-cost model — and
   returns the sub-table;
3. the client runs ``F`` (``config.frames_per_round``) inferences with
   the cache through the batched round pipeline (block frame generation,
   one vectorized sample draw and inference pass, grouped Eq. 3
   collection — outcome-identical to the per-frame scalar loop),
   collecting status and its update table;
4. the server merges the update table into the global cache with one
   vectorized Eq. 4 scatter pass (Eq. 5 for frequencies).

:meth:`CoCaFramework.run_round` is the one round loop; a *placement*
decides where allocation and merges run and what virtual time a round
costs.  The default :class:`Placement` is the paper's one server, with
no clocks; :class:`~repro.cluster.driver.ClusterFramework` attaches a
sharded node fleet's.

A framework is built over a :class:`~repro.core.deployment.Scenario`:
its model, per-client distributions and generators, and the server's
calibration (:meth:`CoCaServer.initialize` applies θ to it).
:meth:`CoCaFramework.from_scenario` reads a scenario that other runners
share; the keyword constructor builds a private one, and only then may
the framework drift its model between rounds.

The per-frame scalar oracle of steps 3 and 4 lives in ``tests/oracle.py``;
nothing here reaches it.

The two core mechanisms can be disabled independently for the Fig. 9
ablation: with ``enable_dca=False`` every client gets the server's preset
cache each round (every class at every cache layer, no budget-driven
selection); with ``enable_gcu=False`` step 4 folds only the frequencies
(Eq. 5), so the global table keeps its initial shared-dataset centroids.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.cache import LookupWorkspace
from repro.core.client import CoCaClient, RoundReport
from repro.core.config import CoCaConfig
from repro.core.deployment import Scenario
from repro.core.server import CoCaServer
from repro.data.datasets import DatasetSpec
from repro.sim.metrics import MetricsCollector, MetricsSummary


@dataclass
class RoundSummary:
    """Per-round aggregate diagnostics; the last two fields are ``None``
    unless the placement keeps clocks."""

    round_index: int
    avg_latency_ms: float
    accuracy: float
    hit_ratio: float
    absorbed_hits: int
    absorbed_misses: int
    mean_response_wait_ms: float | None = None  # cache requests' mean queueing wait
    synced: bool | None = None  # a cross-shard sync ran at the round's end


@dataclass
class FrameworkResult:
    """Outcome of a multi-round CoCa run; ``measured_span_ms`` (the
    measured rounds' virtual time) is ``None`` unless the placement
    keeps clocks."""

    metrics: MetricsCollector
    rounds: list[RoundSummary]
    server: CoCaServer
    clients: list[CoCaClient]
    reports: list[RoundReport] = field(default_factory=list)
    measured_span_ms: float | None = None

    def summary(self) -> MetricsSummary:
        return self.metrics.summary()

    @property
    def throughput_inferences_per_s(self) -> float | None:
        """Inferences completed per virtual second (``None`` without clocks)."""
        span = self.measured_span_ms
        if span is None:
            return None
        return 1e3 * len(self.metrics) / span if span > 0 else 0.0


class Placement:
    """Which server allocates a client's cache (:meth:`server_for`),
    where uploads fold in (:meth:`fold`), and what virtual time a round
    costs (the other hooks).  This one is the paper's one server, with
    no clocks; :class:`~repro.cluster.driver.ClusterPlacement` refines it.
    """

    #: The last round's :class:`RoundSummary` clock fields.
    round_wait_ms: float | None = None
    round_synced: bool | None = None

    def __init__(self, server: CoCaServer) -> None:
        self.server = server

    def start_round(self) -> None:
        """Queue the round's cache requests."""

    def server_for(self, client_id: int) -> CoCaServer:
        """The server that allocates ``client_id``'s cache."""
        return self.server

    def fold(self, reports: list[RoundReport], merge_entries: bool) -> None:
        """Fold the round's uploads in client order: Eq. 4 and Eq. 5, or
        Eq. 5 alone when ``merge_entries`` is off (frequencies are
        bookkeeping, not cache content)."""
        for report in reports:
            self.server.apply_client_update(
                report.update_entries if merge_entries else None, report.frequencies
            )

    def end_round(self) -> None:
        """Settle the round's virtual time."""

    def virtual_now_ms(self) -> float | None:
        """The latest virtual time in the deployment."""
        return None


class CoCaFramework:
    """Builds and drives a complete multi-client CoCa deployment.

    Args:
        dataset / model_name: the zoo model to deploy and the dataset it
            is built against.
        num_clients: number of participating edge clients.
        config: CoCa hyper-parameters.
        seed: master seed; every stochastic component derives from it.
        non_iid_level: the paper's ``p`` (0 = IID).
        longtail_rho: imbalance ratio (1 = uniform).
        enable_dca: dynamic cache allocation (ablation switch).
        enable_gcu: global cache updates (ablation switch).
        client_drift_scale: per-client feature drift (``None`` = zoo
            default for the client count).
        temporal_drift_per_round: feature drift applied before every
            round (0 = a static environment).

    The seven setting keywords build a private
    :class:`~repro.core.deployment.Scenario`; :meth:`from_scenario`
    reads a given one.  Both run one builder, which takes the scenario's
    model, distributions, generators and calibration.  Every client's
    cache budget Pi is :meth:`CoCaServer.cache_size_limit_bytes`.
    """

    def __init__(
        self,
        dataset: DatasetSpec,
        model_name: str = "resnet101",
        num_clients: int = 10,
        config: CoCaConfig | None = None,
        seed: int = 0,
        non_iid_level: float = 0.0,
        longtail_rho: float = 1.0,
        enable_dca: bool = True,
        enable_gcu: bool = True,
        client_drift_scale: float | None = None,
        temporal_drift_per_round: float = 0.0,
    ) -> None:
        if temporal_drift_per_round < 0:
            raise ValueError("temporal_drift_per_round must be >= 0")
        scenario = Scenario(
            dataset=dataset,
            model_name=model_name,
            num_clients=num_clients,
            non_iid_level=non_iid_level,
            longtail_rho=longtail_rho,
            seed=seed,
            client_drift_scale=client_drift_scale,
        )
        self._build(scenario, config, enable_dca, enable_gcu, temporal_drift_per_round)

    @classmethod
    def from_scenario(
        cls,
        scenario: Scenario,
        config: CoCaConfig | None = None,
        enable_dca: bool = True,
        enable_gcu: bool = True,
    ) -> "CoCaFramework":
        """A framework over ``scenario``'s own model and calibration.

        The model is shared with every other reader of the scenario, so
        this framework never drifts it (no temporal drift).
        """
        framework = cls.__new__(cls)
        framework._build(scenario, config, enable_dca, enable_gcu, 0.0)
        return framework

    def _build(
        self,
        scenario: Scenario,
        config: CoCaConfig | None,
        enable_dca: bool,
        enable_gcu: bool,
        temporal_drift_per_round: float,
    ) -> None:
        if scenario.num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {scenario.num_clients}")
        self.config = config if config is not None else CoCaConfig()
        self.enable_dca = enable_dca
        self.enable_gcu = enable_gcu
        self.temporal_drift_per_round = temporal_drift_per_round
        self.model = model = scenario.model
        #: Per-client class distributions, ``(num_clients, num_classes)``
        #: (read by the cluster's region-affinity assignment).
        self.distributions = scenario.distributions

        self.server = CoCaServer(model, self.config)
        self.server.initialize(scenario.calibration)

        budget = self.server.cache_size_limit_bytes()
        #: One probe-buffer pool for the whole deployment: rounds run
        #: clients sequentially, so every engine can share it — probe
        #: scratch memory stays constant in the client count.
        self.workspace = LookupWorkspace()
        self.clients: list[CoCaClient] = []
        for k in range(scenario.num_clients):
            rng = scenario.client_rng(k)
            client = CoCaClient(
                client_id=k,
                model=model,
                stream=scenario.make_stream(k, rng),
                config=self.config,
                rng=rng,
                cache_budget_bytes=budget,
                workspace=self.workspace,
            )
            client.seed_hit_ratio(self.server.reference_hit_ratio)
            self.clients.append(client)

        #: Where allocation and merges run (the cluster swaps its own in).
        self.placement = Placement(self.server)
        self._protocol_rng = np.random.default_rng(
            np.random.SeedSequence(scenario.seed).spawn(1)[0].generate_state(1)[0] + 17
        )

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def run_round(
        self,
        round_index: int = 0,
        *,
        timings: dict[str, float] | None = None,
    ) -> list[RoundReport]:
        """Execute one full protocol round: every client, in id order.

        With ``temporal_drift_per_round > 0`` the feature environment
        evolves before the round (Sec. IV-A's "contextual feature
        changes").

        ``timings`` accumulates wall-clock stage
        seconds — ``allocate`` / ``sample-gen`` / ``probe`` / ``model``
        / ``collect`` / ``merge`` — for the ``repro profile-round``
        breakdown.
        """
        if self.temporal_drift_per_round > 0:
            self.model.feature_space.evolve_drift(
                self.temporal_drift_per_round, self._protocol_rng
            )
        placement = self.placement
        placement.start_round()
        reports: list[RoundReport] = []
        for client in self.clients:
            server = placement.server_for(client.client_id)
            status = client.status()
            start = time.perf_counter() if timings is not None else 0.0
            if self.enable_dca:
                cache, _ = server.allocate(
                    status.timestamps,
                    status.hit_ratio,
                    status.cache_budget_bytes,
                    local_freq=status.frequencies,
                )
            else:
                cache = server.preset_cache()
            if timings is not None:
                timings["allocate"] = (
                    timings.get("allocate", 0.0) + time.perf_counter() - start
                )
            client.install_cache(cache)
            # No ``timings`` keyword unless the round got one: a wrapper
            # around ``client.run_round`` may pass its own.
            if timings is not None:
                report = client.run_round(timings=timings)
            else:
                report = client.run_round()
            reports.append(report)
        # Global updates happen after all clients finish the round.
        start = time.perf_counter() if timings is not None else 0.0
        placement.fold(reports, self.enable_gcu)
        if timings is not None:
            timings["merge"] = timings.get("merge", 0.0) + time.perf_counter() - start
        placement.end_round()
        return reports

    def run(self, num_rounds: int, warmup_rounds: int = 0) -> FrameworkResult:
        """Run the protocol and aggregate metrics (plus the virtual span
        of the measured rounds when the placement keeps clocks).

        Args:
            num_rounds: measured protocol rounds.
            warmup_rounds: extra leading rounds excluded from metrics
                and from the virtual span (lets caches adapt before
                measuring steady state).
        """
        if num_rounds < 1:
            raise ValueError(f"num_rounds must be >= 1, got {num_rounds}")
        if warmup_rounds < 0:
            raise ValueError(f"warmup_rounds must be >= 0, got {warmup_rounds}")
        placement = self.placement
        metrics = MetricsCollector()
        rounds: list[RoundSummary] = []
        all_reports: list[RoundReport] = []
        start_ms: float | None = None
        for r in range(warmup_rounds + num_rounds):
            if r == warmup_rounds:
                start_ms = placement.virtual_now_ms()
            reports = self.run_round(r)
            if r < warmup_rounds:
                continue
            round_metrics = MetricsCollector()
            absorbed_hits = absorbed_misses = 0
            for report in reports:
                round_metrics.extend(report.records)
                metrics.extend(report.records)
                absorbed_hits += report.absorbed_hits
                absorbed_misses += report.absorbed_misses
            all_reports.extend(reports)
            summary = round_metrics.summary()
            rounds.append(
                RoundSummary(
                    round_index=r,
                    avg_latency_ms=summary.avg_latency_ms,
                    accuracy=summary.accuracy,
                    hit_ratio=summary.hit_ratio,
                    absorbed_hits=absorbed_hits,
                    absorbed_misses=absorbed_misses,
                    mean_response_wait_ms=placement.round_wait_ms,
                    synced=placement.round_synced,
                )
            )
        end_ms = placement.virtual_now_ms()
        return FrameworkResult(
            metrics=metrics,
            rounds=rounds,
            server=self.server,
            clients=self.clients,
            reports=all_reports,
            measured_span_ms=(
                None if end_ms is None or start_ms is None else end_ms - start_ms
            ),
        )

    def close(self) -> None:
        """Release the deployment's one probe pool (every engine shares it)."""
        self.workspace.close()
