"""Class-sharded global cache: partitioning the table across servers.

A single :class:`~repro.core.server.GlobalCacheTable` holds every
``(class, layer)`` centroid on one edge server.  To scale past one
server, the cluster partitions the table's *rows* (classes) across N
shards: each shard is the authority for the entries and Eq. 5 frequency
counts of the classes it owns, and every Eq. 4 write for a class is
routed to — and only to — the owning shard.  Because Eq. 4 merges are
independent per ``(class, layer)`` key, routing a client's update table
shard by shard and applying each piece with the one-pass flat-index
:meth:`~repro.core.server.GlobalCacheTable.merge_updates` scatter yields
*exactly* the table a single server would have produced from the same
sequence of uploads.  Sharding therefore changes where rows live and who
contends for them, never what they contain.

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
from repro.core.server import GlobalCacheTable, unpack_update_entries

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

    def shard_of(self, class_ids: int | np.ndarray) -> np.ndarray | int:
        """Owning shard per class id (vectorized; scalar in, scalar out)."""
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

    def owned_mask(self, shard: int) -> np.ndarray:
        """Boolean ``(num_classes,)`` ownership mask of one shard."""
        if not 0 <= shard < self.num_shards:
            raise ValueError(f"shard {shard} out of range [0, {self.num_shards})")
        return self._assignment == shard

    def shard_sizes(self) -> np.ndarray:
        """Classes per shard; max and min differ by at most one."""
        return np.bincount(self._assignment, minlength=self.num_shards)

    def mass_per_shard(self, class_distribution: np.ndarray) -> np.ndarray:
        """Probability mass each shard owns under a class distribution.

        The region-affinity assignment policy routes a client to the node
        hosting the shard with the largest share of the client's stream.
        """
        probs = np.asarray(class_distribution, dtype=float)
        if probs.shape != (self.num_classes,):
            raise ValueError(
                f"distribution shape {probs.shape} != ({self.num_classes},)"
            )
        return np.bincount(
            self._assignment, weights=probs, minlength=self.num_shards
        )

    def __repr__(self) -> str:
        return (
            f"ClassShardRouter(num_classes={self.num_classes}, "
            f"num_shards={self.num_shards}, salt={self.salt})"
        )


class ShardedGlobalCache:
    """The global cache table partitioned row-wise across N shards.

    Each shard is a full-geometry :class:`GlobalCacheTable` of which only
    the owned rows are authoritative; the non-owned rows of a shard are
    never written through the sharded write path and never read through
    the merged view.  Keeping full geometry lets every shard reuse the
    vectorized ``merge_updates`` scatter unchanged.

    Args:
        router: the class -> shard map.
        initial: canonical table to seed every shard's owned rows from
            (the shared-dataset initialization), or ``None`` to start
            empty with zero frequencies.
        num_layers / dim: table geometry when ``initial`` is ``None``.
    """

    def __init__(
        self,
        router: ClassShardRouter,
        initial: GlobalCacheTable | None = None,
        num_layers: int | None = None,
        dim: int | None = None,
    ) -> None:
        self.router = router
        if initial is not None:
            if initial.num_classes != router.num_classes:
                raise ValueError(
                    f"table has {initial.num_classes} classes, router expects "
                    f"{router.num_classes}"
                )
            num_layers, dim = initial.num_layers, initial.dim
        elif num_layers is None or dim is None:
            raise ValueError("need either an initial table or num_layers and dim")
        self.num_layers = int(num_layers)
        self.dim = int(dim)
        self.shards: list[GlobalCacheTable] = [
            initial.copy()
            if initial is not None
            else GlobalCacheTable(router.num_classes, self.num_layers, self.dim)
            for _ in range(router.num_shards)
        ]
        # Ownership masks are immutable per router; precompute them once
        # rather than per upload on the hot Eq. 5 path.
        self._owned_masks = [
            router.owned_mask(shard_id) for shard_id in range(router.num_shards)
        ]
        # Write-epoch bookkeeping for delta sync: ``_epoch`` counts
        # uploads applied through :meth:`apply_client_update`, and the
        # per-(shard, class) stamp arrays record the epoch of each row's
        # last entry write / frequency accumulation.  A replica synced at
        # epoch ``e`` catches up by receiving exactly the rows stamped
        # ``> e`` — see :meth:`snapshot_delta`.
        self._epoch = 0
        shape = (router.num_shards, router.num_classes)
        self._entry_epoch = np.full(shape, -1, dtype=np.int64)
        self._freq_epoch = np.full(shape, -1, dtype=np.int64)

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
        update_entries: dict[tuple[int, int], np.ndarray],
        local_freq: np.ndarray,
        gamma: float,
    ) -> dict[int, int]:
        """Route one client upload to the owning shards (Eq. 4 + Eq. 5).

        The upload is split by class ownership; each shard folds its piece
        with one :meth:`GlobalCacheTable.merge_updates` scatter pass and
        accumulates the frequency vector masked to its owned rows.
        Entry-for-entry identical to a single server applying the same
        upload, because Eq. 4 rows are independent and each row's merge
        sees the same prior frequency state on its owning shard.

        Returns:
            ``{shard_id: entries merged}`` for the shards that received
            entries (frequency-only shards excluded) — the per-shard write
            fan-out the driver charges merge time for.
        """
        local_freq = np.asarray(local_freq, dtype=float)
        if local_freq.shape != (self.num_classes,):
            raise ValueError(
                f"frequency vector shape {local_freq.shape} != "
                f"({self.num_classes},)"
            )
        self._epoch += 1
        touched: dict[int, int] = {}
        if update_entries:
            ids, layers, vectors = unpack_update_entries(update_entries)
            owners = self.router.shard_of(ids)
            for shard_id in np.unique(owners):
                piece = owners == shard_id
                self.shards[shard_id].merge_updates(
                    ids[piece],
                    layers[piece],
                    vectors[piece],
                    local_freq[ids[piece]],
                    gamma,
                )
                touched[int(shard_id)] = int(piece.sum())
                # Stamp conservatively: rows the merge filtered out as
                # inactive are still stamped — a delta may over-ship an
                # unchanged row, never miss a changed one.
                self._entry_epoch[shard_id, ids[piece]] = self._epoch
        for shard_id, (shard, mask) in enumerate(
            zip(self.shards, self._owned_masks)
        ):
            shard.add_frequencies(np.where(mask, local_freq, 0.0))
            # Only rows with positive round frequency change value
            # (adding +0.0 is bit-identical for the non-negative Phi).
            self._freq_epoch[shard_id, mask & (local_freq > 0.0)] = self._epoch
        return touched

    def sync_into(
        self, replica: GlobalCacheTable, shards: list[int] | None = None
    ) -> None:
        """Copy authoritative owned rows into a replica table, in place.

        Args:
            replica: the table to refresh (a node's local serving copy).
            shards: which shards to pull from (default: all).  A node
                refreshes its *own* shard every round and the remote
                shards only at the coordinator's sync interval — bounded
                staleness for cross-shard rows, none for local ones.
        """
        if (
            replica.num_classes != self.num_classes
            or replica.num_layers != self.num_layers
            or replica.dim != self.dim
        ):
            raise ValueError("replica geometry does not match the sharded cache")
        for shard_id in range(self.num_shards) if shards is None else shards:
            rows = self.router.classes_of(shard_id)
            source = self.shards[shard_id]
            replica.entries[rows] = source.entries[rows]
            replica.filled[rows] = source.filled[rows]
            replica.class_freq[rows] = source.class_freq[rows]

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
        this shard at ``since_epoch`` reproduces
        :meth:`sync_into`'s result bit-for-bit: both paths assign the
        shard's current bytes, and stamps are written conservatively (a
        stamped-but-unchanged row re-ships its identical bytes; a changed
        row is always stamped).
        """
        from repro.store.delta import SnapshotDelta

        owned = self.router.classes_of(shard_id)
        source = self.shards[shard_id]
        entry_dirty = owned[self._entry_epoch[shard_id, owned] > since_epoch]
        freq_dirty = owned[self._freq_epoch[shard_id, owned] > since_epoch]
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
            entries=source.entries[entry_dirty],
            filled=source.filled[entry_dirty],
            freq_rows=freq_dirty,
            freqs=source.class_freq[freq_dirty],
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
        if (
            replica.num_classes != self.num_classes
            or replica.num_layers != self.num_layers
            or replica.dim != self.dim
        ):
            raise ValueError("replica geometry does not match the sharded cache")
        delta = self.snapshot_delta(shard_id, since_epoch)
        if contracts.ENABLED and not delta.full:
            # Value-level dirty rows (replica vs shard) must be covered
            # by the shipped delta — a changed row outside it would be a
            # silently missed write.
            owned = self.router.classes_of(shard_id)
            source = self.shards[shard_id]
            entries_differ = (
                replica.entries[owned] != source.entries[owned]
            ).any(axis=(1, 2))
            filled_differ = (
                replica.filled[owned] != source.filled[owned]
            ).any(axis=1)
            changed_entries = owned[entries_differ | filled_differ]
            changed_freqs = owned[
                replica.class_freq[owned] != source.class_freq[owned]
            ]
            stamped_entries = owned[
                self._entry_epoch[shard_id, owned] > since_epoch
            ]
            stamped_freqs = owned[
                self._freq_epoch[shard_id, owned] > since_epoch
            ]
            contracts.check_delta_apply(
                delta.entry_rows,
                delta.freq_rows,
                stamped_entries,
                stamped_freqs,
                changed_entry_rows=changed_entries,
                changed_freq_rows=changed_freqs,
            )
        delta.apply(replica)
        return delta

    def merged_table(self) -> GlobalCacheTable:
        """The equivalent single-server table (owned rows of every shard)."""
        merged = GlobalCacheTable(self.num_classes, self.num_layers, self.dim)
        self.sync_into(merged)
        return merged
