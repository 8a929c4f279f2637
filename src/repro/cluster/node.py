"""One edge-server node of the cluster: replica server + request queue.

Each node hosts one shard (a row set) of the sharded global cache and
serves its assigned clients from a *replica*
:class:`~repro.core.server.CoCaServer` — a full table whose rows the
coordinator refreshes from the authoritative table, its own shard every
round and the others at the sync interval.  The node serializes its
server-side work (cache allocation, sub-table packing, update merging)
on a single virtual CPU modelled after
:class:`~repro.sim.network.ServerLoadModel`: requests are processed
first-come-first-served against a ``busy_until`` horizon, so a node with
many concurrent clients develops queueing delay exactly like the paper's
single edge server does in Fig. 10b — and splitting clients across nodes
relieves it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.server import CoCaServer
from repro.sim.clock import VirtualClock
from repro.sim.network import ServerLoadModel

#: Node CPU time charged per *remote* shard pulled during a cross-shard
#: replica refresh (deserialize + scatter of the owned rows); the local
#: shard is co-located and free.
SYNC_SERVICE_MS = 2.0


@dataclass(frozen=True)
class RequestTiming:
    """Virtual timeline of one cache request served by a node."""

    arrival_ms: float  # when the request reached the node
    start_ms: float  # when the node's CPU started serving it (>= arrival)
    finish_ms: float  # when allocation + packing finished on the node
    response_ms: float  # when the client received the cache (+ base latency)

    @property
    def wait_ms(self) -> float:
        """Queueing delay before service started."""
        return self.start_ms - self.arrival_ms


class EdgeServerNode:
    """A cluster node: one shard host with its own queueing behaviour.

    Args:
        node_id: index of the node (== the shard it hosts).
        server: replica server this node allocates from (typically built
            with :meth:`~repro.core.server.CoCaServer.replicate`).
        load: latency model supplying the per-request service time, the
            network base latency, and the per-client contention term.
        merge_service_ms: CPU time charged per client upload merged into
            the hosted shard (Eq. 4 scatter + Eq. 5 accumulation).
    """

    def __init__(
        self,
        node_id: int,
        server: CoCaServer,
        load: ServerLoadModel | None = None,
        merge_service_ms: float = 0.5,
    ) -> None:
        if merge_service_ms < 0:
            raise ValueError(f"merge_service_ms must be >= 0, got {merge_service_ms}")
        self.node_id = node_id
        self.server = server
        self.load = load if load is not None else ServerLoadModel()
        self.merge_service_ms = float(merge_service_ms)
        self.clock = VirtualClock()  # tracks the CPU's busy horizon
        self.assigned_clients: list[int] = []
        self.requests_served = 0
        self.merges_served = 0
        self.syncs_served = 0
        self.sync_payload_bytes = 0
        self.total_wait_ms = 0.0
        self.total_busy_ms = 0.0

    # ------------------------------------------------------------------
    # Virtual-time queue
    # ------------------------------------------------------------------

    def _occupy(self, arrival_ms: float, service_ms: float) -> tuple[float, float]:
        """Claim the node CPU FCFS: returns (start, finish) and advances
        the busy horizon."""
        if arrival_ms < 0:
            raise ValueError(f"arrival_ms must be >= 0, got {arrival_ms}")
        start = max(self.clock.now_ms, arrival_ms)
        finish = start + service_ms
        self.clock.advance_to(finish)
        self.total_busy_ms += service_ms
        return start, finish

    def serve_request(self, arrival_ms: float) -> RequestTiming:
        """Serve one cache-allocation request arriving at ``arrival_ms``.

        Charges the model's deterministic service time plus the
        global-table contention term for this node's client population;
        the queueing wait is whatever the FCFS backlog implies at this
        arrival instant (the event-driven counterpart of the M/D/1
        steady-state wait in :meth:`ServerLoadModel.response_latency_ms`).
        """
        service = (
            self.load.service_time_ms
            + self.load.contention_ms_per_client * len(self.assigned_clients)
        )
        start, finish = self._occupy(arrival_ms, service)
        response = finish + self.load.base_latency_ms
        self.requests_served += 1
        self.total_wait_ms += start - arrival_ms
        return RequestTiming(
            arrival_ms=arrival_ms,
            start_ms=start,
            finish_ms=finish,
            response_ms=response,
        )

    def serve_merge(self, arrival_ms: float, num_entries: int) -> float:
        """Charge the merge of one uploaded update piece; returns finish time.

        Merge cost is one fixed Eq. 4 scatter pass per upload piece —
        the vectorized merge is one pass regardless of entry count —
        so ``num_entries`` only guards the no-op case.
        """
        if num_entries <= 0:
            return max(self.clock.now_ms, arrival_ms)
        _, finish = self._occupy(arrival_ms, self.merge_service_ms)
        self.merges_served += 1
        return finish

    def serve_sync(
        self, num_remote_shards: int, arrival_ms: float, payload_bytes: int
    ) -> float:
        """Charge one cross-shard replica refresh; returns the finish time.

        The refresh costs :data:`SYNC_SERVICE_MS` per remote shard pulled and
        cannot start before ``arrival_ms`` — the coordinator passes the
        virtual time at which every remote shard's pending writes have
        finished, so a replica never receives rows earlier than the merge
        that produced them.  Refreshing the co-located shard is free, so
        a 1-shard cluster charges nothing here.

        ``payload_bytes`` (the bytes shipped for remote rows, summed in
        :attr:`sync_payload_bytes`) is telemetry only: it does not change
        the timing model.
        """
        if num_remote_shards < 0:
            raise ValueError(
                f"num_remote_shards must be >= 0, got {num_remote_shards}"
            )
        if payload_bytes < 0:
            raise ValueError(f"payload_bytes must be >= 0, got {payload_bytes}")
        if num_remote_shards == 0:
            return self.clock.now_ms
        self.sync_payload_bytes += int(payload_bytes)
        _, finish = self._occupy(arrival_ms, SYNC_SERVICE_MS * num_remote_shards)
        self.syncs_served += 1
        return finish

    @property
    def mean_wait_ms(self) -> float:
        """Observed mean queueing wait across served cache requests."""
        if self.requests_served == 0:
            return 0.0
        return self.total_wait_ms / self.requests_served

    def __repr__(self) -> str:
        return (
            f"EdgeServerNode(id={self.node_id}, "
            f"clients={len(self.assigned_clients)}, "
            f"busy_until={self.clock.now_ms:.1f}ms)"
        )
