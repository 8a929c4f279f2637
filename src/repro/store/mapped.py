"""A :class:`GlobalCacheTable` served from mapped shards, copy-on-write.

The mapped table keeps the small state (fill mask, Phi) in RAM and
leaves every centroid layer as a read-only view into the snapshot's
mapped shards.  Reads (:meth:`subtable`, :meth:`layer_entries`) go
straight to the views and fault in only the pages they touch; the first
**write** to a layer — an Eq. 4 merge or an install — promotes exactly
that layer's ``(I, d)`` block to a private RAM copy.  A node that only
ever merges a handful of layers therefore pays RAM for those layers
alone, which is the warm-restart contract of ``load_table(mode="mmap")``.

Accessing :attr:`entries` (the full ``(I, L, d)`` tensor) is supported
but materializes the whole table once, after which the object behaves
exactly like a plain RAM table — the escape hatch for code that wants
the dense tensor.
"""

from __future__ import annotations

import numpy as np

from repro.core.server import GlobalCacheTable, scatter_merge
from repro.store.reader import MappedTableStore


class MappedGlobalCacheTable(GlobalCacheTable):
    """Lazy, copy-on-write table over a :class:`MappedTableStore`."""

    def __init__(self, store: MappedTableStore) -> None:
        if store.dtype != np.dtype(np.float64):
            raise ValueError(
                f"a mapped table needs a float64 snapshot, got "
                f"{store.dtype} (float32 snapshots are for mapped serving "
                f"caches)"
            )
        # Deliberately not calling super().__init__: entries is a
        # property here and the eager (I, L, d) allocation is exactly
        # what this class exists to avoid.
        self.num_classes = store.num_classes
        self.num_layers = store.num_layers
        self.dim = store.dim
        self.filled = store.load_filled()
        self.class_freq = store.load_class_freq()
        self._store = store
        self._promoted: dict[int, np.ndarray] = {}
        self._full: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Layer access (the copy-on-write core)
    # ------------------------------------------------------------------

    def layer_entries(self, layer: int) -> np.ndarray:
        """One layer's ``(I, d)`` block: mapped view until first write."""
        if self._full is not None:
            return self._full[:, layer, :]
        promoted = self._promoted.get(layer)
        if promoted is not None:
            return promoted
        return self._store.layer_view(layer)

    def _writable_layer(self, layer: int) -> np.ndarray:
        if self._full is not None:
            return self._full[:, layer, :]
        promoted = self._promoted.get(layer)
        if promoted is None:
            # Copy-on-write promotion: this layer now lives in RAM.
            promoted = np.array(
                self._store.layer_view(layer), dtype=np.float64
            )
            self._promoted[layer] = promoted
        return promoted

    def promoted_layers(self) -> list[int]:
        """Layers promoted to RAM by a write (all, once materialized)."""
        if self._full is not None:
            return list(range(self.num_layers))
        return sorted(self._promoted)

    @property
    def is_materialized(self) -> bool:
        """Whether the full ``(I, L, d)`` tensor has been built."""
        return self._full is not None

    # ------------------------------------------------------------------
    # Full-tensor compatibility (materializes once, then plain RAM)
    # ------------------------------------------------------------------

    @property
    def entries(self) -> np.ndarray:
        full = self._full
        if full is None:
            full = np.empty(
                (self.num_classes, self.num_layers, self.dim),
                dtype=np.float64,
            )
            for layer in range(self.num_layers):
                full[:, layer, :] = self.layer_entries(layer)
            self._full = full
            self._promoted.clear()
        return full

    @entries.setter
    def entries(self, value: np.ndarray) -> None:
        array = np.asarray(value, dtype=np.float64)
        expected = (self.num_classes, self.num_layers, self.dim)
        if array.shape != expected:
            raise ValueError(
                f"entries shape {array.shape} does not match {expected}"
            )
        self._full = array
        self._promoted.clear()

    # ------------------------------------------------------------------
    # Writes route through the promoted layers
    # ------------------------------------------------------------------

    def merge_updates(
        self,
        class_ids: np.ndarray,
        layers: np.ndarray,
        update_vectors: np.ndarray,
        local_freqs: np.ndarray,
        gamma: float,
    ) -> None:
        """Eq. 4 batch merge, promoting only the layers it touches.

        Bit-for-bit the base scatter: the merge math is independent per
        ``(class, layer)`` row, so applying the same element-wise
        operations per touched layer instead of over the flat index
        produces identical entries.
        """
        prepared = self._prepare_merge(
            class_ids, layers, update_vectors, local_freqs
        )
        if prepared is None:
            return
        ids, lays, new, freqs = prepared
        for layer in np.unique(lays):
            piece = lays == layer
            rows = ids[piece]
            scatter_merge(
                self._writable_layer(int(layer)),
                self.filled[:, int(layer)],
                rows,
                self.class_freq[rows],
                new[piece],
                freqs[piece],
                gamma,
            )

    def copy(self) -> GlobalCacheTable:
        """A plain RAM deep copy (does not materialize this table)."""
        table = GlobalCacheTable(self.num_classes, self.num_layers, self.dim)
        for layer in range(self.num_layers):
            table.entries[:, layer, :] = self.layer_entries(layer)
        table.filled = self.filled.copy()
        table.class_freq = self.class_freq.copy()
        return table

    def __repr__(self) -> str:
        state = (
            "materialized"
            if self._full is not None
            else f"promoted={self.promoted_layers()}"
        )
        return (
            f"MappedGlobalCacheTable(geometry=({self.num_classes}, "
            f"{self.num_layers}, {self.dim}), epoch={self._store.epoch}, "
            f"{state})"
        )


__all__ = ["MappedGlobalCacheTable"]
