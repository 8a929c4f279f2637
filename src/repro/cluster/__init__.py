"""Sharded edge-server cluster: the horizontal scaling layer.

One :class:`~repro.core.server.CoCaServer` holding the entire global
cache table is the paper's deployment; this package is the scale-out
story on top of it.  The table's rows (classes) are partitioned across N
shards (:class:`ClassShardRouter`, :class:`ShardedGlobalCache` — row
sets of the one authoritative table), each hosted on an
:class:`EdgeServerNode` with its own queueing behaviour;
clients are routed to nodes by hash, region affinity, or load
(:func:`assign_clients`); and a :class:`ClusterCoordinator` bounds
cross-shard staleness with a configurable sync interval.

There is no second protocol loop: :class:`ClusterFramework` attaches a
:class:`ClusterPlacement` to a built :class:`~repro.core.framework.CoCaFramework`
(one over a shared scenario: :meth:`ClusterFramework.from_scenario`), which
decides where allocation and merges run (node replicas, the sharded table)
and what virtual time a round costs (FCFS node queues, per-client clocks,
the coordinator's refresh).

Because Eq. 4 merges are independent per ``(class, layer)`` key, a
1-shard cluster — and an N-shard cluster at sync interval 1 — reproduces
the single-server protocol exactly; what sharding changes is the virtual
timeline: server-side work that a single node serializes is spread over
N queues (see ``benchmarks/test_cluster_scale.py``).
"""

from repro.cluster.coordinator import (
    ASSIGNMENT_POLICIES,
    ClusterCoordinator,
    assign_clients,
)
from repro.cluster.driver import ClusterFramework, ClusterPlacement
from repro.cluster.node import EdgeServerNode, RequestTiming
from repro.cluster.sharding import ClassShardRouter, ShardedGlobalCache

__all__ = [
    "ASSIGNMENT_POLICIES",
    "ClassShardRouter",
    "ClusterCoordinator",
    "ClusterFramework",
    "ClusterPlacement",
    "EdgeServerNode",
    "RequestTiming",
    "ShardedGlobalCache",
    "assign_clients",
]
