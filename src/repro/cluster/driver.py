"""The cluster: a placement over :class:`~repro.core.framework.CoCaFramework`'s round.

:class:`ClusterFramework` takes a built single-server deployment (its
``server.table`` is the cluster's one authoritative table), hosts that
table's row shards on :class:`~repro.cluster.node.EdgeServerNode`
replicas, and attaches a :class:`ClusterPlacement`, which decides where
allocation and merges run and what virtual time a round costs.
Inference outcomes depend only on cache content, never on the virtual
clocks, so at ``sync_interval=1`` the cluster reproduces the
single-server run *exactly* (same records, same merged table) while the
virtual timeline shows the queueing relief that sharding buys: a single
node serializes every request, N nodes serialize only a 1/N slice each.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.coordinator import ClusterCoordinator, assign_clients
from repro.cluster.node import EdgeServerNode, RequestTiming
from repro.cluster.sharding import ClassShardRouter, ShardedGlobalCache
from repro.core.client import RoundReport
from repro.core.config import CoCaConfig
from repro.core.deployment import Scenario
from repro.core.framework import CoCaFramework, FrameworkResult, Placement
from repro.core.server import CoCaServer, GlobalCacheTable
from repro.data.datasets import DatasetSpec
from repro.sim.clock import VirtualClock
from repro.sim.network import ServerLoadModel


class ClusterPlacement(Placement):
    """A round's server-side work on a sharded node fleet, in virtual time:
    caches come from the client's node replica, uploads fold into the
    authoritative table, and the coordinator then refreshes the replicas.

    Protocol state advances in client-id order, as on one server, which
    is what makes the ``sync_interval=1`` cluster bit-for-bit
    reproducible against the single-server reference.  The node CPUs,
    however, serve work in *arrival* order (true FCFS): requests queue
    at each client's virtual time at round start and merges at each
    client's round-end time, regardless of client id.  The two orders
    can differ freely because allocation only reads the replica (frozen
    during a round) and the Eq. 4 table content only depends on the
    upload order, never on when CPU time was charged.
    """

    def __init__(
        self,
        framework: CoCaFramework,
        coordinator: ClusterCoordinator,
        assignment: np.ndarray,
    ) -> None:
        super().__init__(framework.server)
        self.coordinator = coordinator
        self.sharded = coordinator.sharded
        self.nodes = coordinator.nodes
        self.assignment = assignment
        self.clocks = [VirtualClock() for _ in framework.clients]
        self._requests: dict[int, RequestTiming] = {}

    def start_round(self) -> None:
        # Cache requests queue FCFS at each client's current time.
        clocks = self.clocks
        arrival_order = sorted(range(len(clocks)), key=lambda cid: (clocks[cid].now_ms, cid))
        self._requests = {
            cid: self.nodes[self.assignment[cid]].serve_request(clocks[cid].now_ms)
            for cid in arrival_order
        }

    def server_for(self, client_id: int) -> CoCaServer:
        return self.nodes[self.assignment[client_id]].server

    def fold(self, reports: list[RoundReport], merge_entries: bool) -> None:
        """Uploads fold into the table in client order; the merge CPU
        work queues on the shard-owning nodes FCFS by upload arrival
        (round-end) time.  Without entry merges the upload still stamps
        its rows' frequency epochs, so delta sync ships them."""
        merge_pieces: list[tuple[float, int, int]] = []
        for report in reports:
            clock = self.clocks[report.client_id]
            clock.advance_to(self._requests[report.client_id].response_ms)
            clock.advance(report.total_latency_ms)
            touched = self.sharded.apply_client_update(
                report.update_entries if merge_entries else None,
                report.frequencies,
                self.server.config.gamma,
            )
            merge_pieces.extend(
                (clock.now_ms, shard_id, num_entries)
                for shard_id, num_entries in touched.items()
            )
        for end_ms, shard_id, num_entries in sorted(merge_pieces):
            self.nodes[shard_id].serve_merge(end_ms, num_entries)

    def end_round(self) -> None:
        self.round_synced = self.coordinator.end_round()
        self.round_wait_ms = float(np.mean([t.wait_ms for t in self._requests.values()]))

    def virtual_now_ms(self) -> float:
        frontier = max(clock.now_ms for clock in self.clocks)
        return max(frontier, max(node.clock.now_ms for node in self.nodes))


class ClusterFramework:
    """A sharded multi-node CoCa deployment: a :class:`CoCaFramework`
    whose placement is a :class:`ClusterPlacement`; :meth:`from_scenario`
    attaches one to a framework over a shared scenario.

    Args:
        dataset / model_name / num_clients / config / seed /
        non_iid_level / longtail_rho / enable_dca: build the framework
            by keyword (a private scenario, whose model it may drift).
        num_shards: shard (= node) count; 1 reproduces the single-server
            deployment under the same queueing model.
        sync_interval: rounds between cross-shard replica refreshes.
        assignment_policy: ``hash`` | ``region`` | ``least-loaded``.
        load: per-node latency model (service time, base network latency,
            contention); ``None`` = :class:`ServerLoadModel`'s defaults.
        merge_service_ms: node CPU time per merged upload piece.
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
        framework = CoCaFramework(  # its first eight keywords, in order
            dataset, model_name, num_clients, config, seed, non_iid_level, longtail_rho, enable_dca
        )
        self._attach(
            framework, num_shards, sync_interval, assignment_policy, load, merge_service_ms
        )

    @classmethod
    def from_scenario(
        cls,
        scenario: Scenario,
        config: CoCaConfig | None = None,
        enable_dca: bool = True,
        *,
        num_shards: int = 4,
        sync_interval: int = 1,
        assignment_policy: str = "hash",
        load: ServerLoadModel | None = None,
        merge_service_ms: float = 0.5,
    ) -> "ClusterFramework":
        """The fleet on :meth:`CoCaFramework.from_scenario` (the scenario's model)."""
        framework = CoCaFramework.from_scenario(scenario, config, enable_dca=enable_dca)
        cluster = cls.__new__(cls)
        cluster._attach(
            framework, num_shards, sync_interval, assignment_policy, load, merge_service_ms
        )
        return cluster

    def _attach(
        self,
        framework: CoCaFramework,
        num_shards: int,
        sync_interval: int,
        assignment_policy: str,
        load: ServerLoadModel | None,
        merge_service_ms: float,
    ) -> None:
        """Host ``framework``'s table on a sharded fleet and swap in its placement."""
        self.framework = framework
        self.config = framework.config
        canonical = framework.server
        router = ClassShardRouter(framework.model.num_classes, num_shards)
        self.sharded = ShardedGlobalCache(router, canonical.table)
        self.nodes = [
            EdgeServerNode(
                node_id=shard_id,
                server=canonical.replicate(),
                load=load,
                merge_service_ms=merge_service_ms,
            )
            for shard_id in range(num_shards)
        ]
        self.coordinator = ClusterCoordinator(
            self.sharded, self.nodes, sync_interval=sync_interval
        )
        assignment = assign_clients(
            assignment_policy,
            len(framework.clients),
            num_shards,
            sharded=self.sharded,
            client_distributions=framework.distributions,
        )
        for client_id, node_id in enumerate(assignment):
            self.nodes[node_id].assigned_clients.append(client_id)
        self.placement = ClusterPlacement(framework, self.coordinator, assignment)
        framework.placement = self.placement

    def run_round(self, round_index: int = 0) -> list[RoundReport]:
        """One protocol round across the fleet (the framework's round)."""
        return self.framework.run_round(round_index)

    def run(self, num_rounds: int, warmup_rounds: int = 0) -> FrameworkResult:
        """The framework's run; the result carries the virtual span."""
        return self.framework.run(num_rounds, warmup_rounds)

    def close(self) -> None:
        """Release the fleet's probe workspace (the framework's one pool)."""
        self.framework.close()

    def merged_table(self) -> GlobalCacheTable:
        """The cluster's equivalent single-server global table."""
        return self.sharded.merged_table()
