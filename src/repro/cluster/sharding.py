"""Class-sharded global cache: partitioning the table across servers.

A single :class:`~repro.core.server.GlobalCacheTable` holds every
``(class, layer)`` centroid on one edge server.  To scale past one
server, the cluster partitions the table's *rows* (classes) across N
shards: each shard owns the entries and Eq. 5 frequency counts of its
classes, and its host node's replica is fresh for exactly those rows.
The rows themselves stay in one authoritative table that every upload
folds into through the single-server Eq. 4/5 write path, so sharding
changes where replicas are fresh and who contends for merge work, never
what the table contains.

:class:`ClassShardRouter` defines the class -> shard map: a seeded
permutation of the class universe dealt round-robin across shards, so
the assignment is deterministic in ``(num_classes, num_shards, salt)``,
perfectly balanced (shard sizes differ by at most one), and uncorrelated
with class-id order (adjacent ids — often semantically related in real
label spaces — land on different shards).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro import contracts
from repro.core.client import UpdateTable
from repro.core.server import GlobalCacheTable

if TYPE_CHECKING:
    from repro.store.delta import SnapshotDelta

#: Entry-dirty fraction of a shard's owned rows above which a delta
#: degenerates to the full-snapshot fallback (it would ship most of the
#: shard anyway, plus row ids).
DELTA_FALLBACK_FRACTION = 0.5


class ClassShardRouter:
    """Deterministic, balanced class -> shard assignment.

    Args:
        num_classes: size of the class universe (rows of the table).
        num_shards: number of shards (>= 1).
        salt: seed of the dealing permutation; two routers with equal
            ``(num_classes, num_shards, salt)`` produce identical maps.
    """

    def __init__(self, num_classes: int, num_shards: int, salt: int = 0) -> None:
        if num_classes < 1:
            raise ValueError(f"num_classes must be >= 1, got {num_classes}")
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if num_shards > num_classes:
            raise ValueError(
                f"cannot spread {num_classes} classes over {num_shards} shards"
            )
        self.num_classes = num_classes
        self.num_shards = num_shards
        self.salt = int(salt)
        permutation = np.random.default_rng(self.salt).permutation(num_classes)
        assignment = np.empty(num_classes, dtype=np.int64)
        assignment[permutation] = np.arange(num_classes) % num_shards
        self._assignment = assignment
        self._shard_list: list[int] = assignment.tolist()

    def shard_of(self, class_ids: int | np.ndarray) -> np.ndarray | int:
        """Owning shard per class id (vectorized; scalar in, scalar out)."""
        if isinstance(class_ids, (int, np.integer)):
            # A request's class hint: a list lookup, no array round trip.
            if not 0 <= class_ids < self.num_classes:
                raise ValueError(f"class id out of range [0, {self.num_classes})")
            return self._shard_list[class_ids]
        ids = np.asarray(class_ids, dtype=np.int64)
        if np.any(ids < 0) or np.any(ids >= self.num_classes):
            raise ValueError(f"class id out of range [0, {self.num_classes})")
        shards = self._assignment[ids]
        if shards.ndim == 0:
            return int(shards)
        return shards

    def classes_of(self, shard: int) -> np.ndarray:
        """Class ids owned by one shard, ascending."""
        if not 0 <= shard < self.num_shards:
            raise ValueError(f"shard {shard} out of range [0, {self.num_shards})")
        return np.flatnonzero(self._assignment == shard)

    def shard_sizes(self) -> np.ndarray:
        """Classes per shard; max and min differ by at most one."""
        return np.bincount(self._assignment, minlength=self.num_shards)

    def __repr__(self) -> str:
        return (
            f"ClassShardRouter(num_classes={self.num_classes}, "
            f"num_shards={self.num_shards}, salt={self.salt})"
        )


class ShardedGlobalCache:
    """The global cache table partitioned row-wise across N shards.

    A shard is a row set of one table — ``router.classes_of(s)`` — not a
    table of its own.  The table handed in (a deployment's
    ``server.table``, shared by reference) is the single authority: every
    upload folds into it exactly as
    :meth:`~repro.core.server.CoCaServer.apply_client_update` would, and
    replicas catch up shard by shard from its rows.  The shard split adds
    only bookkeeping: which shards an upload's merge work lands on, and
    per-class write epochs for delta sync.

    Args:
        router: the class -> shard map.
        table: the authoritative table (not copied).
    """

    def __init__(self, router: ClassShardRouter, table: GlobalCacheTable) -> None:
        if table.num_classes != router.num_classes:
            raise ValueError(
                f"table has {table.num_classes} classes, router expects "
                f"{router.num_classes}"
            )
        self.router = router
        self.table = table
        # Write-epoch bookkeeping for delta sync: ``_epoch`` counts
        # uploads applied through :meth:`apply_client_update`, and the
        # per-class stamp arrays record the epoch of each row's last
        # entry write / frequency accumulation (every class has exactly
        # one owning shard).  A replica synced at epoch ``e`` catches up
        # by receiving exactly the rows stamped ``> e`` — see
        # :meth:`snapshot_delta`.
        self._epoch = 0
        self._entry_epoch = np.full(router.num_classes, -1, dtype=np.int64)
        self._freq_epoch = np.full(router.num_classes, -1, dtype=np.int64)

    @property
    def num_shards(self) -> int:
        return self.router.num_shards

    @property
    def num_classes(self) -> int:
        return self.router.num_classes

    @property
    def epoch(self) -> int:
        """Monotonic write epoch: uploads applied so far."""
        return self._epoch

    def apply_client_update(
        self,
        update: UpdateTable | None,
        local_freq: np.ndarray,
        gamma: float,
    ) -> dict[int, int]:
        """Fold one client upload into the table (Eq. 4 + Eq. 5).

        The upload's :class:`~repro.core.client.UpdateTable` arrays go
        into one :meth:`GlobalCacheTable.merge_updates` scatter pass, then
        one frequency accumulation — the single-server write path, so the
        result is the single server's table by construction.  A ``None``
        update folds the frequencies alone, still as an upload, so delta
        sync ships the rows whose frequencies changed.

        Returns:
            ``{shard_id: entries merged}`` for the shards that own the
            uploaded entries (frequency-only shards excluded) — the
            per-shard write fan-out the placement charges merge time for.
        """
        local_freq = np.asarray(local_freq, dtype=float)
        if local_freq.shape != (self.num_classes,):
            raise ValueError(
                f"frequency vector shape {local_freq.shape} != "
                f"({self.num_classes},)"
            )
        self._epoch += 1
        touched: dict[int, int] = {}
        if update is not None and len(update):
            ids = update.class_ids
            self.table.merge_updates(
                ids, update.layers, update.vectors, local_freq[ids], gamma
            )
            counts = np.bincount(
                self.router.shard_of(ids), minlength=self.num_shards
            )
            touched = {int(s): int(n) for s, n in enumerate(counts) if n}
            # Stamp conservatively: rows the merge filtered out as
            # inactive are still stamped — a delta may over-ship an
            # unchanged row, never miss a changed one.
            self._entry_epoch[ids] = self._epoch
        self.table.add_frequencies(local_freq)
        # Only rows with positive round frequency change value.
        self._freq_epoch[local_freq > 0.0] = self._epoch
        return touched

    def _check_geometry(self, replica: GlobalCacheTable) -> None:
        table = self.table
        if (replica.num_classes, replica.num_layers, replica.dim) != (
            table.num_classes,
            table.num_layers,
            table.dim,
        ):
            raise ValueError("replica geometry does not match the sharded cache")

    def sync_into(
        self, replica: GlobalCacheTable, shards: list[int] | None = None
    ) -> None:
        """Copy the rows of some shards into a replica table, in place.

        Args:
            replica: the table to refresh (a node's local serving copy).
            shards: which shards' rows to pull (default: all).  A node
                refreshes its *own* shard every round and the remote
                shards only at the coordinator's sync interval — bounded
                staleness for cross-shard rows, none for local ones.
        """
        self._check_geometry(replica)
        for shard_id in range(self.num_shards) if shards is None else shards:
            rows = self.router.classes_of(shard_id)
            replica.entries[rows] = self.table.entries[rows]
            replica.filled[rows] = self.table.filled[rows]
            replica.class_freq[rows] = self.table.class_freq[rows]

    def snapshot_delta(self, shard_id: int, since_epoch: int) -> "SnapshotDelta":
        """The rows of one shard a replica synced at ``since_epoch`` misses.

        Entry-dirty rows (entry-epoch stamp ``> since_epoch``) ship their
        full ``(L, d)`` centroid rows plus fill-mask rows; freq-dirty
        rows ship Phi scalars only.  When the replica has no usable base
        (``since_epoch < 0``) or the entry-dirty fraction of the owned
        rows exceeds :data:`DELTA_FALLBACK_FRACTION`, the delta
        degenerates to the full-snapshot fallback carrying every owned
        row.

        Applying the returned delta to a replica whose owned rows matched
        the table at ``since_epoch`` reproduces :meth:`sync_into`'s
        result bit-for-bit: both paths assign the table's current bytes,
        and stamps are written conservatively (a stamped-but-unchanged
        row re-ships its identical bytes; a changed row is always
        stamped).
        """
        from repro.store.delta import SnapshotDelta

        owned = self.router.classes_of(shard_id)
        entry_dirty = owned[self._entry_epoch[owned] > since_epoch]
        freq_dirty = owned[self._freq_epoch[owned] > since_epoch]
        full = (
            since_epoch < 0
            or entry_dirty.size > DELTA_FALLBACK_FRACTION * owned.size
        )
        if full:
            entry_dirty = owned
            freq_dirty = owned
        return SnapshotDelta(
            shard_id=shard_id,
            base_epoch=since_epoch,
            target_epoch=self._epoch,
            full=full,
            entry_rows=entry_dirty,
            entries=self.table.entries[entry_dirty],
            filled=self.table.filled[entry_dirty],
            freq_rows=freq_dirty,
            freqs=self.table.class_freq[freq_dirty],
        )

    def sync_delta_into(
        self, replica: GlobalCacheTable, shard_id: int, since_epoch: int
    ) -> "SnapshotDelta":
        """Catch a replica up on one shard by shipping only dirty rows.

        The delta-sync counterpart of ``sync_into(replica, [shard_id])``:
        bit-identical result, a fraction of the bytes when few owned rows
        changed since ``since_epoch``.  Returns the applied delta so the
        caller can account shipped bytes (:attr:`SnapshotDelta.nbytes`).
        """
        self._check_geometry(replica)
        delta = self.snapshot_delta(shard_id, since_epoch)
        if contracts.ENABLED and not delta.full:
            # Value-level dirty rows (replica vs table) must be covered
            # by the shipped delta — a changed row outside it would be a
            # silently missed write.
            owned = self.router.classes_of(shard_id)
            source = self.table
            entries_differ = (
                replica.entries[owned] != source.entries[owned]
            ).any(axis=(1, 2))
            filled_differ = (
                replica.filled[owned] != source.filled[owned]
            ).any(axis=1)
            contracts.check_delta_apply(
                delta.entry_rows,
                delta.freq_rows,
                owned[self._entry_epoch[owned] > since_epoch],
                owned[self._freq_epoch[owned] > since_epoch],
                changed_entry_rows=owned[entries_differ | filled_differ],
                changed_freq_rows=owned[
                    replica.class_freq[owned] != source.class_freq[owned]
                ],
            )
        delta.apply(replica)
        return delta

    def merged_table(self) -> GlobalCacheTable:
        """The equivalent single-server table: a copy of the authority."""
        return self.table.copy()
