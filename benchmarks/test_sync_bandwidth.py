"""Cross-shard sync bandwidth: delta rows vs full row copies.

A 4-shard cluster at the largest preset geometry (101 classes x 51
layers x 48 dim) runs a seeded upload sequence across a sweep of
dirty-row fractions.  Each round dirties a chosen fraction of the class
universe, then the coordinator syncs every replica by shipping
:class:`~repro.store.delta.SnapshotDelta` row payloads, while a second
replica set is refreshed with full owned-row copies
(:meth:`ShardedGlobalCache.sync_into`).

Asserted per fraction:

* every node replica is **bit-identical** to its full-copy twin after
  every sync (delta sync is a bandwidth optimization, never a semantics
  change), and to the merged table;
* shipped bytes are accounted on both sides:
  :attr:`ClusterCoordinator.sync_bytes_shipped` against ``HEADER_NBYTES +
  full_rows_nbytes(...)`` per remote shard per node.

Gate: at dirty fractions **<= 10%** the delta path must ship at most
**1/5** of the full-copy bytes (same floor under CI — byte accounting
is deterministic, so no relaxation is needed).  The sweep also records
the fraction where the full-snapshot fallback takes over.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.node import EdgeServerNode
from repro.cluster.sharding import ClassShardRouter, ShardedGlobalCache
from repro.core.client import UpdateTable
from repro.core.server import GlobalCacheTable
from repro.store.delta import HEADER_NBYTES, full_rows_nbytes

NUM_CLASSES = 101
NUM_LAYERS = 51
DIM = 48
NUM_SHARDS = 4
ROUNDS = 3
UPDATES_PER_ROUND = 2
DIRTY_FRACTIONS = (0.02, 0.05, 0.10, 0.25, 0.60)
GATED_FRACTIONS = tuple(f for f in DIRTY_FRACTIONS if f <= 0.10)


class _TableHolder:
    """Minimal server stand-in: the coordinator only touches ``.table``."""

    def __init__(self, table: GlobalCacheTable) -> None:
        self.table = table


def _replicas() -> list[GlobalCacheTable]:
    return [
        GlobalCacheTable(NUM_CLASSES, NUM_LAYERS, DIM) for _ in range(NUM_SHARDS)
    ]


def _run(dirty_fraction: float):
    """Seeded upload/sync rounds; returns (coordinator, delta, full bytes)."""
    router = ClassShardRouter(NUM_CLASSES, NUM_SHARDS, salt=0)
    sharded = ShardedGlobalCache(
        router, GlobalCacheTable(NUM_CLASSES, NUM_LAYERS, DIM)
    )
    nodes = [
        EdgeServerNode(i, _TableHolder(table))
        for i, table in enumerate(_replicas())
    ]
    coordinator = ClusterCoordinator(sharded, nodes, sync_interval=1)
    full_copies = _replicas()
    # What one full-copy sync ships: every remote shard's owned rows,
    # framed, to every node.
    sizes = router.shard_sizes()
    full_sync_bytes = sum(
        HEADER_NBYTES + full_rows_nbytes(int(sizes[shard]), NUM_LAYERS, DIM)
        for node in range(NUM_SHARDS)
        for shard in range(NUM_SHARDS)
        if shard != node
    )
    coordinator.sync_all()  # establish a common base epoch (full fallback)
    base_bytes = coordinator.sync_bytes_shipped
    rng = np.random.default_rng(7)
    dirty_rows = max(1, round(dirty_fraction * NUM_CLASSES))
    for _ in range(ROUNDS):
        for _ in range(UPDATES_PER_ROUND):
            ids = rng.choice(NUM_CLASSES, size=dirty_rows, replace=False)
            rows = [(int(rng.integers(NUM_LAYERS)), rng.normal(size=DIM)) for _ in ids]
            update = UpdateTable(
                class_ids=ids,
                layers=np.array([layer for layer, _ in rows]),
                vectors=np.stack([vector for _, vector in rows]),
            )
            freq = np.zeros(NUM_CLASSES)
            freq[ids] = rng.integers(1, 5, size=dirty_rows).astype(float)
            sharded.apply_client_update(update, freq, gamma=0.99)
        coordinator.sync_all()
        for node, full in zip(nodes, full_copies):
            sharded.sync_into(full)
            assert np.array_equal(node.server.table.entries, full.entries)
            assert np.array_equal(node.server.table.filled, full.filled)
            assert np.array_equal(node.server.table.class_freq, full.class_freq)
    merged = sharded.merged_table()
    for node in nodes:
        assert np.array_equal(node.server.table.entries, merged.entries)
    shipped = coordinator.sync_bytes_shipped - base_bytes
    return coordinator, shipped, ROUNDS * full_sync_bytes


def test_sync_bandwidth(benchmark, report):
    def run_sweep():
        rows = []
        for fraction in DIRTY_FRACTIONS:
            coordinator, delta_bytes, full_bytes = _run(fraction)
            rows.append(
                {
                    "fraction": fraction,
                    "delta_bytes": delta_bytes,
                    "full_bytes": full_bytes,
                    "ratio": delta_bytes / full_bytes,
                    "fallbacks": coordinator.full_syncs,
                    "deltas": coordinator.delta_syncs,
                }
            )
        return rows

    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    lines = [
        f"{'dirty':>7s}{'delta bytes':>13s}{'full bytes':>12s}{'ratio':>8s}"
        f"{'xfers (delta/full)':>20s}"
    ]
    for row in rows:
        lines.append(
            f"{100 * row['fraction']:6.0f}%{row['delta_bytes']:13,d}"
            f"{row['full_bytes']:12,d}{row['ratio']:8.3f}"
            f"{row['deltas']:10d}/{row['fallbacks']:<9d}"
        )
    report(
        "sync_bandwidth",
        f"Delta sync bandwidth ({NUM_CLASSES} classes x {NUM_LAYERS} layers "
        f"x {DIM} dim, {NUM_SHARDS} shards, {ROUNDS} rounds x "
        f"{UPDATES_PER_ROUND} uploads, replicas bit-identical to full sync "
        "at every fraction)\n" + "\n".join(lines),
    )
    # The tentpole gate: at <= 10% dirty rows, deltas ship <= 1/5 of the
    # full-copy bytes.  Byte accounting is deterministic — no CI floor.
    for row in rows:
        if row["fraction"] in GATED_FRACTIONS:
            assert row["ratio"] <= 0.2, row
