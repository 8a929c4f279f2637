"""Event-driven cluster driver: many clients against a sharded node fleet.

:class:`ClusterFramework` is the multi-node counterpart of
:class:`~repro.core.framework.CoCaFramework`.  It builds the identical
deployment (same seed derivation, same model geometry, same client
streams — a canonical framework is constructed internally, and its
``server.table`` is the cluster's one authoritative table), splits that
table's rows into N shards hosted on N
:class:`~repro.cluster.node.EdgeServerNode` replicas and drives the
protocol in virtual time:

1. each client's cache request arrives at its assigned node at the
   client's current virtual time and queues FCFS for the node CPU
   (service + contention per :class:`~repro.sim.network.ServerLoadModel`);
2. the client runs its round through the batched pipeline
   (:meth:`~repro.core.client.CoCaClient.run_round`) and its clock
   advances by the response latency plus the round's inference time;
3. after all clients finish, each upload's
   :class:`~repro.core.client.UpdateTable` arrays fold into the
   authoritative table through the one-pass Eq. 4 merge
   (:meth:`ShardedGlobalCache.apply_client_update`) and merge work is
   charged to the CPUs of the nodes owning the uploaded rows;
4. the coordinator refreshes replicas — local shard every round,
   cross-shard rows every ``sync_interval`` rounds.

Inference outcomes depend only on cache content, never on the virtual
clocks, so at ``sync_interval=1`` the cluster reproduces the
single-server :class:`CoCaFramework` run *exactly* (same records, same
merged table) while the virtual timeline shows the queueing relief that
sharding buys: a single node serializes every request, N nodes serialize
only a 1/N slice each.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.coordinator import ClusterCoordinator, assign_clients
from repro.cluster.node import EdgeServerNode
from repro.cluster.sharding import ClassShardRouter, ShardedGlobalCache
from repro.core.server import GlobalCacheTable
from repro.core.client import CoCaClient, RoundReport
from repro.core.config import CoCaConfig
from repro.core.framework import CoCaFramework
from repro.data.datasets import DatasetSpec
from repro.sim.clock import VirtualClock
from repro.sim.metrics import MetricsCollector, MetricsSummary
from repro.sim.network import ServerLoadModel


@dataclass
class ClusterRoundSummary:
    """Per-round cluster diagnostics."""

    round_index: int
    makespan_ms: float  # virtual time the round added to the run
    mean_response_wait_ms: float
    accuracy: float
    hit_ratio: float
    synced: bool  # whether a cross-shard sync ran at this boundary


@dataclass
class ClusterResult:
    """Outcome of a multi-round cluster run."""

    metrics: MetricsCollector
    rounds: list[ClusterRoundSummary]
    nodes: list[EdgeServerNode]
    coordinator: ClusterCoordinator
    assignment: np.ndarray
    clients: list[CoCaClient]
    measured_span_ms: float  # virtual makespan of the measured rounds
    measured_samples: int
    measured_client_rounds: int
    reports: list[RoundReport] = field(default_factory=list)

    def summary(self) -> MetricsSummary:
        return self.metrics.summary()

    @property
    def throughput_inferences_per_s(self) -> float:
        """Aggregate inferences completed per virtual second."""
        if self.measured_span_ms <= 0:
            return 0.0
        return 1e3 * self.measured_samples / self.measured_span_ms


class ClusterFramework:
    """A sharded multi-node CoCa deployment driven in virtual time.

    Args:
        dataset / model_name / num_clients / config / seed /
        non_iid_level / longtail_rho / enable_dca:
            forwarded to the internal :class:`CoCaFramework`, so a
            cluster and a single-server run with equal parameters see
            byte-identical geometry, streams and initial tables.
        num_shards: shard (= node) count; 1 reproduces the single-server
            deployment under the same queueing model.
        sync_interval: rounds between cross-shard replica refreshes.
        assignment_policy: ``hash`` | ``region`` | ``least-loaded``.
        load: per-node latency model (service time, base network latency,
            contention); default :class:`ServerLoadModel`.
        merge_service_ms: node CPU time per merged upload piece.

    Each cross-shard sync charges every node
    :data:`~repro.cluster.node.SYNC_SERVICE_MS` per remote shard pulled
    (free for a 1-shard cluster).
    """

    def __init__(
        self,
        dataset: DatasetSpec,
        model_name: str = "resnet101",
        num_shards: int = 4,
        num_clients: int = 10,
        config: CoCaConfig | None = None,
        seed: int = 0,
        non_iid_level: float = 0.0,
        longtail_rho: float = 1.0,
        enable_dca: bool = True,
        sync_interval: int = 1,
        assignment_policy: str = "hash",
        load: ServerLoadModel | None = None,
        merge_service_ms: float = 0.5,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.framework = CoCaFramework(
            dataset=dataset,
            model_name=model_name,
            num_clients=num_clients,
            config=config,
            seed=seed,
            non_iid_level=non_iid_level,
            longtail_rho=longtail_rho,
            enable_dca=enable_dca,
        )
        self.model = self.framework.model
        self.config = self.framework.config
        self.clients = self.framework.clients
        self.enable_dca = enable_dca
        self.load = load if load is not None else ServerLoadModel()

        canonical = self.framework.server
        self.router = ClassShardRouter(self.model.num_classes, num_shards)
        self.sharded = ShardedGlobalCache(self.router, canonical.table)
        self.nodes = [
            EdgeServerNode(
                node_id=shard_id,
                server=canonical.replicate(),
                load=self.load,
                merge_service_ms=merge_service_ms,
            )
            for shard_id in range(num_shards)
        ]
        self.coordinator = ClusterCoordinator(
            self.sharded, self.nodes, sync_interval=sync_interval
        )
        self.assignment = assign_clients(
            assignment_policy,
            num_clients,
            num_shards,
            sharded=self.sharded,
            client_distributions=self.framework.distributions,
        )
        for client_id, node_id in enumerate(self.assignment):
            self.nodes[node_id].assigned_clients.append(client_id)
        self.client_clocks = [VirtualClock() for _ in range(num_clients)]
        self._last_round_synced = False
        self._last_round_wait_ms = 0.0

    @property
    def num_shards(self) -> int:
        return len(self.nodes)

    def virtual_now_ms(self) -> float:
        """The cluster-wide virtual frontier (latest clock in the system)."""
        frontier = max(clock.now_ms for clock in self.client_clocks)
        return max(frontier, max(node.clock.now_ms for node in self.nodes))

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def run_round(self, round_index: int = 0) -> list[RoundReport]:
        """Execute one protocol round across the fleet.

        Protocol state advances in client-id order — the same order as
        :meth:`CoCaFramework.run_round`, which is what makes the
        ``sync_interval=1`` cluster bit-for-bit reproducible against the
        single-server reference.  The node CPUs, however, serve work in
        *arrival* order (true FCFS): requests queue at each client's
        current virtual time and merges at each client's round-end time,
        regardless of client id.  The two orders can differ freely
        because cache allocation only reads the replica (frozen during a
        round) and the Eq. 4 table content only depends on the upload
        order, never on when CPU time was charged.
        """
        # Cache requests queue FCFS at each client's current time.
        arrival_order = sorted(
            range(len(self.clients)),
            key=lambda cid: (self.client_clocks[cid].now_ms, cid),
        )
        timings = {}
        for client_id in arrival_order:
            node = self.nodes[self.assignment[client_id]]
            timings[client_id] = node.serve_request(
                self.client_clocks[client_id].now_ms
            )

        reports: list[RoundReport] = []
        round_ends: list[float] = []
        for client in self.clients:
            node = self.nodes[self.assignment[client.client_id]]
            clock = self.client_clocks[client.client_id]
            status = client.status()
            if self.enable_dca:
                cache = node.allocate(status)
            else:
                cache = node.server.preset_cache()
            client.install_cache(cache)
            report = client.run_round()
            clock.advance_to(timings[client.client_id].response_ms)
            clock.advance(report.total_latency_ms)
            reports.append(report)
            round_ends.append(clock.now_ms)

        # Uploads fold into the table in client order (the single-server
        # protocol's ordering); the merge CPU work queues on the
        # shard-owning nodes FCFS by upload arrival (round-end) time.
        gamma = self.config.gamma
        merge_pieces: list[tuple[float, int, int]] = []
        for report, end_ms in zip(reports, round_ends):
            touched = self.sharded.apply_client_update(
                report.update_entries, report.frequencies, gamma
            )
            merge_pieces.extend(
                (end_ms, shard_id, num_entries)
                for shard_id, num_entries in touched.items()
            )
        for end_ms, shard_id, num_entries in sorted(merge_pieces):
            self.nodes[shard_id].serve_merge(end_ms, num_entries)
        self._last_round_synced = self.coordinator.end_round()
        self._last_round_wait_ms = float(
            np.mean([t.wait_ms for t in timings.values()])
        ) if timings else 0.0
        return reports

    def run(self, num_rounds: int, warmup_rounds: int = 0) -> ClusterResult:
        """Run the protocol and aggregate metrics plus virtual timing.

        Args:
            num_rounds: measured rounds.
            warmup_rounds: leading rounds excluded from metrics and from
                the measured virtual span (cache adaptation).
        """
        if num_rounds < 1:
            raise ValueError(f"num_rounds must be >= 1, got {num_rounds}")
        if warmup_rounds < 0:
            raise ValueError(f"warmup_rounds must be >= 0, got {warmup_rounds}")
        metrics = MetricsCollector()
        rounds: list[ClusterRoundSummary] = []
        all_reports: list[RoundReport] = []
        measured_client_rounds = 0
        measure_start_ms = None
        for r in range(warmup_rounds + num_rounds):
            if r == warmup_rounds:
                measure_start_ms = self.virtual_now_ms()
            span_before = self.virtual_now_ms()
            reports = self.run_round(r)
            if r < warmup_rounds:
                continue
            round_metrics = MetricsCollector()
            for report in reports:
                round_metrics.extend(report.records)
                metrics.extend(report.records)
            measured_client_rounds += len(reports)
            all_reports.extend(reports)
            summary = round_metrics.summary()
            rounds.append(
                ClusterRoundSummary(
                    round_index=r,
                    makespan_ms=self.virtual_now_ms() - span_before,
                    mean_response_wait_ms=self._last_round_wait_ms,
                    accuracy=summary.accuracy,
                    hit_ratio=summary.hit_ratio,
                    synced=self._last_round_synced,
                )
            )
        assert measure_start_ms is not None
        return ClusterResult(
            metrics=metrics,
            rounds=rounds,
            nodes=self.nodes,
            coordinator=self.coordinator,
            assignment=self.assignment.copy(),
            clients=self.clients,
            measured_span_ms=self.virtual_now_ms() - measure_start_ms,
            measured_samples=len(metrics),
            measured_client_rounds=measured_client_rounds,
            reports=all_reports,
        )

    def close(self) -> None:
        """Release the fleet's probe workspace (the framework's one pool)."""
        self.framework.close()

    def merged_table(self) -> GlobalCacheTable:
        """The cluster's equivalent single-server global table."""
        return self.sharded.merged_table()
