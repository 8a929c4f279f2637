"""Snapshot deltas: the changed rows of one shard since a known epoch.

A :class:`SnapshotDelta` carries exactly what a replica needs to catch
up with a shard: the class rows whose *entries* changed (full
``(L, d)`` centroid rows plus their fill-mask rows) and the class rows
whose *frequency* changed (Phi scalars).  Frequencies travel separately
because Eq. 5 touches every streamed class each round while Eq. 4 only
rewrites the classes a client actually uploaded — shipping freq-dirty
rows as 8-byte scalars instead of full centroid rows is where the
bandwidth saving comes from.

Applying a delta is a plain scatter; given a replica that was in sync at
``base_epoch``, the result is bit-identical to a full
:meth:`~repro.cluster.sharding.ShardedGlobalCache.sync_into` row copy
(both assign the source's bytes — the equivalence the sync suite
asserts).  A delta is an in-memory payload; the one on-disk format is
the snapshot directory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.server import GlobalCacheTable

#: Fixed per-delta framing overhead we account for when comparing
#: shipped bytes against a full copy (epoch header, row counts).
HEADER_NBYTES = 32


def full_rows_nbytes(num_rows: int, num_layers: int, dim: int) -> int:
    """Bytes a full-copy sync ships for ``num_rows`` owned rows:
    float64 centroid rows, bool fill rows, float64 Phi scalars."""
    return num_rows * (num_layers * dim * 8 + num_layers * 1 + 8)


@dataclass(frozen=True)
class SnapshotDelta:
    """Changed rows of one shard between two epochs.

    Attributes:
        shard_id: the source shard.
        base_epoch: epoch the receiving replica was last synced at
            (``-1`` = never synced; the delta is then a full copy).
        target_epoch: the shard's write epoch this delta catches up to.
        full: whether this is the full-snapshot fallback (every owned
            row shipped, e.g. when the dirty fraction crossed the
            threshold or the replica had no usable base epoch).
        entry_rows: ``(k,)`` class ids whose centroid entries changed.
        entries: ``(k, L, d)`` centroid rows for ``entry_rows``.
        filled: ``(k, L)`` fill-mask rows for ``entry_rows``.
        freq_rows: ``(m,)`` class ids whose Phi changed.
        freqs: ``(m,)`` Phi values for ``freq_rows``.
    """

    shard_id: int
    base_epoch: int
    target_epoch: int
    full: bool
    entry_rows: np.ndarray
    entries: np.ndarray
    filled: np.ndarray
    freq_rows: np.ndarray
    freqs: np.ndarray

    def __post_init__(self) -> None:
        k = self.entry_rows.shape[0]
        m = self.freq_rows.shape[0]
        if self.entries.shape[:1] != (k,) or self.filled.shape[:1] != (k,):
            raise ValueError(
                f"delta rows mismatch: {k} ids vs entries "
                f"{self.entries.shape} / filled {self.filled.shape}"
            )
        if self.freqs.shape != (m,):
            raise ValueError(
                f"delta freq mismatch: {m} ids vs freqs {self.freqs.shape}"
            )
        if self.base_epoch > self.target_epoch:
            raise ValueError(
                f"delta epochs run backwards: base {self.base_epoch} > "
                f"target {self.target_epoch}"
            )

    @property
    def nbytes(self) -> int:
        """Bytes this delta ships (payload + fixed framing header)."""
        return HEADER_NBYTES + int(
            self.entry_rows.nbytes
            + self.entries.nbytes
            + self.filled.nbytes
            + self.freq_rows.nbytes
            + self.freqs.nbytes
        )

    def apply(self, replica: GlobalCacheTable) -> None:
        """Scatter the changed rows into a replica, in place."""
        top = max(
            int(self.entry_rows.max(initial=-1)),
            int(self.freq_rows.max(initial=-1)),
        )
        if top >= replica.num_classes:
            raise ValueError(
                f"delta row {top} exceeds replica geometry "
                f"({replica.num_classes} classes)"
            )
        if self.entry_rows.size:
            if self.entries.shape[1:] != (
                replica.num_layers,
                replica.dim,
            ):
                raise ValueError(
                    f"delta row shape {self.entries.shape[1:]} does not "
                    f"match replica ({replica.num_layers}, {replica.dim})"
                )
            replica.entries[self.entry_rows] = self.entries
            replica.filled[self.entry_rows] = self.filled
        if self.freq_rows.size:
            replica.class_freq[self.freq_rows] = self.freqs


def diff_tables(
    base: GlobalCacheTable,
    target: GlobalCacheTable,
    base_epoch: int = 0,
    target_epoch: int = 0,
) -> SnapshotDelta:
    """The value-level delta turning ``base``'s rows into ``target``'s.

    Used by ``repro store diff`` to report how much a delta sync would
    ship between two snapshots; row-level change detection compares
    entries and fill mask (entry-dirty) and Phi (freq-dirty) over every
    class (the delta's ``shard_id`` is 0).
    """
    if (
        base.num_classes != target.num_classes
        or base.num_layers != target.num_layers
        or base.dim != target.dim
    ):
        raise ValueError("tables must share geometry to diff")
    entries_differ = (base.entries != target.entries).any(axis=(1, 2))
    filled_differ = (base.filled != target.filled).any(axis=1)
    entry_rows = np.flatnonzero(entries_differ | filled_differ)
    freq_rows = np.flatnonzero(base.class_freq != target.class_freq)
    return SnapshotDelta(
        shard_id=0,
        base_epoch=base_epoch,
        target_epoch=target_epoch,
        full=False,
        entry_rows=entry_rows,
        entries=target.entries[entry_rows],
        filled=target.filled[entry_rows],
        freq_rows=freq_rows,
        freqs=target.class_freq[freq_rows],
    )
