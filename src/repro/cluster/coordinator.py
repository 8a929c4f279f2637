"""Cross-shard synchronization and client -> node assignment.

The coordinator owns the two cluster-wide policies:

* **Synchronization.**  Authoritative state lives in the sharded
  cache's one table; every node serves allocations from a local replica.  A node's *own* shard is
  co-located, so its rows are refreshed after every round (zero
  staleness); rows owned by *remote* shards are pulled only every
  ``sync_interval`` rounds.  The interval therefore bounds cross-shard
  staleness: at interval 1 every replica equals the fully merged table
  at each round boundary and the cluster reproduces the single-server
  protocol exactly; larger intervals trade freshness for sync traffic.

* **Assignment.**  Which node serves which client:

  - ``hash`` — client id modulo node count: stateless, deterministic,
    uniform in expectation over arbitrary client populations.
  - ``region`` — region affinity: route each client to the node whose
    hosted shard owns the largest share of the client's class
    distribution, so the classes a client streams most are served and
    written with zero cross-shard staleness.  Capacity-capped: a node
    never takes more than ``ceil(C / N)`` + :data:`REGION_SLACK` clients.
  - ``least-loaded`` — greedy balance: each client (in id order) joins
    the node with the fewest assigned clients.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.node import EdgeServerNode
from repro.cluster.sharding import ShardedGlobalCache

ASSIGNMENT_POLICIES = ("hash", "region", "least-loaded")

#: Extra clients past the even share a node may accept under ``region``
#: before spilling to the next-best shard.
REGION_SLACK = 1


def assign_clients(
    policy: str,
    num_clients: int,
    num_nodes: int,
    sharded: ShardedGlobalCache | None = None,
    client_distributions: np.ndarray | None = None,
) -> np.ndarray:
    """Client -> node assignment under one of the cluster policies.

    Args:
        policy: one of :data:`ASSIGNMENT_POLICIES`.
        num_clients / num_nodes: population sizes.
        sharded: the sharded cache (required by ``region`` for the
            class -> shard map).
        client_distributions: ``(num_clients, num_classes)`` per-client
            class distributions (required by ``region``).

    Returns:
        int array of shape ``(num_clients,)`` with values in
        ``[0, num_nodes)``.
    """
    if num_clients < 1:
        raise ValueError(f"num_clients must be >= 1, got {num_clients}")
    if num_nodes < 1:
        raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
    if policy == "hash":
        return np.arange(num_clients, dtype=np.int64) % num_nodes
    if policy == "least-loaded":
        loads = np.zeros(num_nodes, dtype=np.int64)
        assignment = np.empty(num_clients, dtype=np.int64)
        for client in range(num_clients):
            node = int(np.argmin(loads))  # ties -> lowest node id
            assignment[client] = node
            loads[node] += 1
        return assignment
    if policy == "region":
        if sharded is None or client_distributions is None:
            raise ValueError(
                "region assignment needs the sharded cache and the "
                "per-client class distributions"
            )
        if num_nodes != sharded.num_shards:
            raise ValueError(
                f"region assignment routes by hosted shard: {num_nodes} "
                f"nodes cannot serve {sharded.num_shards} shards"
            )
        dists = np.asarray(client_distributions, dtype=float)
        if dists.shape != (num_clients, sharded.num_classes):
            raise ValueError(
                f"distributions shape {dists.shape} != "
                f"({num_clients}, {sharded.num_classes})"
            )
        capacity = -(-num_clients // num_nodes) + REGION_SLACK
        loads = np.zeros(num_nodes, dtype=np.int64)
        assignment = np.empty(num_clients, dtype=np.int64)
        # One vectorized pass: masses[c, s] = client c's mass on shard s.
        masses = np.stack(
            [
                dists[:, sharded.router.classes_of(s)].sum(axis=1)
                for s in range(num_nodes)
            ],
            axis=1,
        )
        preference = np.argsort(-masses, axis=1, kind="stable")
        for client in range(num_clients):
            # Prefer shards by owned mass, spill to the next when full.
            # Total capacity >= num_clients, so a slot always exists.
            for node in preference[client]:
                if loads[node] < capacity:
                    assignment[client] = node
                    loads[node] += 1
                    break
        return assignment
    raise ValueError(
        f"unknown assignment policy {policy!r}; expected one of "
        f"{ASSIGNMENT_POLICIES}"
    )


class ClusterCoordinator:
    """Drives replica refreshes across the node fleet.

    Args:
        sharded: the authoritative sharded cache.
        nodes: the node fleet; node ``i`` hosts shard ``i``.
        sync_interval: rounds between cross-shard replica refreshes
            (1 = refresh every round, i.e. no cross-shard staleness at
            round boundaries).
    """

    def __init__(
        self,
        sharded: ShardedGlobalCache,
        nodes: list[EdgeServerNode],
        sync_interval: int = 1,
    ) -> None:
        if len(nodes) != sharded.num_shards:
            raise ValueError(
                f"{len(nodes)} nodes for {sharded.num_shards} shards; "
                "each node hosts exactly one shard"
            )
        if sync_interval < 1:
            raise ValueError(f"sync_interval must be >= 1, got {sync_interval}")
        self.sharded = sharded
        self.nodes = nodes
        self.sync_interval = int(sync_interval)
        self.rounds_since_sync = 0
        self.syncs_performed = 0
        #: Bytes shipped for remote-shard rows across all syncs so far.
        self.sync_bytes_shipped = 0
        #: Remote-shard transfers served as row deltas / full fallbacks.
        self.delta_syncs = 0
        self.full_syncs = 0
        # Last sharded-cache epoch each (node, shard) replica was synced
        # at; -1 = never, so a node's first cross-shard pull is always
        # the full fallback regardless of how its replica was seeded.
        self._synced_epoch = np.full(
            (len(nodes), sharded.num_shards), -1, dtype=np.int64
        )

    def refresh_local_shards(self) -> None:
        """Refresh every node's rows of its *own* hosted shard (each round)."""
        for node in self.nodes:
            self.sharded.sync_into(node.server.table, shards=[node.node_id])
            self._synced_epoch[node.node_id, node.node_id] = self.sharded.epoch

    def sync_all(self) -> None:
        """Pull every shard's rows into every replica (cross-shard sync).

        Each node is charged virtual CPU time for deserializing and
        scattering the remote shards' rows
        (:meth:`EdgeServerNode.serve_sync`), so the sync interval is a
        real trade-off: short intervals buy freshness at recurring
        per-node sync cost, long intervals amortize it against staleness.
        The sync cannot start before every shard's pending writes have
        finished (the latest node CPU horizon), so no replica ever
        observes a remote row earlier than the merge that produced it.

        A node's own shard is co-located (no bytes cross the network);
        remote shards ship :class:`~repro.store.delta.SnapshotDelta`
        payloads — the rows dirtied since the node's last sync, or the
        full-snapshot fallback — accounted in :attr:`sync_bytes_shipped`.
        Either way the replica ends bit-identical to a
        :meth:`ShardedGlobalCache.sync_into` row copy.
        """
        remote = self.sharded.num_shards - 1
        writes_done_ms = max(node.clock.now_ms for node in self.nodes)
        self.refresh_local_shards()
        for node in self.nodes:
            payload = 0
            for shard_id in range(self.sharded.num_shards):
                if shard_id == node.node_id:
                    continue
                delta = self.sharded.sync_delta_into(
                    node.server.table,
                    shard_id,
                    since_epoch=int(self._synced_epoch[node.node_id, shard_id]),
                )
                payload += delta.nbytes
                if delta.full:
                    self.full_syncs += 1
                else:
                    self.delta_syncs += 1
                self._synced_epoch[node.node_id, shard_id] = self.sharded.epoch
            self.sync_bytes_shipped += payload
            node.serve_sync(remote, arrival_ms=writes_done_ms, payload_bytes=payload)
        self.rounds_since_sync = 0
        self.syncs_performed += 1

    def end_round(self) -> bool:
        """Round-boundary bookkeeping: local refresh always, cross-shard
        sync when the interval elapses.  Returns whether a full sync ran.
        """
        self.rounds_since_sync += 1
        if self.rounds_since_sync >= self.sync_interval:
            self.sync_all()
            return True
        self.refresh_local_shards()
        return False
