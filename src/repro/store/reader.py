"""Lazy mmap snapshot reader: the owner of every mapped view.

:class:`MappedTableStore` opens a snapshot directory in O(ms): it parses
the manifest and loads the small ``meta.npz`` arrays, but does **not**
touch a single entries byte.  Shard files are ``np.load``-mapped
read-only on first use, and even then only the pages a probe or a
sub-table extraction actually reads are faulted in — which is what makes
warm restarts cheap and lets a node serve a table larger than its RAM.

Every array handed out by this class is either a private copy (the meta
arrays) or a **read-only** view into a mapped shard (``layer_view``),
so a snapshot on disk can never be corrupted through a reader.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro import contracts
from repro.store.format import (
    SnapshotFormatError,
    SnapshotIntegrityError,
    SnapshotManifest,
    array_checksum,
    read_manifest,
)

if TYPE_CHECKING:
    from repro.core.cache import SemanticCache
    from repro.core.server import GlobalCacheTable

#: Meta arrays every snapshot carries; the rest are reference vectors.
_CORE_META = ("filled", "class_freq")


class MappedTableStore:
    """Read-side handle of one snapshot directory.

    Args:
        path: the snapshot directory.
        verify: recompute every stored array's SHA-256 against the
            manifest on open (reads all bytes — the integrity check of
            ``repro store inspect --verify``, not the warm-restart path).
            Under ``REPRO_CONTRACTS=1`` verification always runs.
    """

    def __init__(self, path: str | Path, verify: bool = False) -> None:
        self.path = Path(path)
        self.manifest: SnapshotManifest = read_manifest(self.path)
        self._shards: list[np.ndarray | None] = [None] * len(
            self.manifest.shards
        )
        self._meta = self._load_meta()
        if verify:
            self.verify_checksums()
        if contracts.ENABLED:
            contracts.check_snapshot_manifest(
                layout_version=self.manifest.layout_version,
                epoch=self.manifest.epoch,
                geometry=(self.num_classes, self.num_layers, self.dim),
                expected_geometry=None,
                checksums=self._recorded_checksums(),
                recomputed=self._recomputed_checksums(),
            )

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    @property
    def num_classes(self) -> int:
        return self.manifest.num_classes

    @property
    def num_layers(self) -> int:
        return self.manifest.num_layers

    @property
    def dim(self) -> int:
        return self.manifest.dim

    @property
    def dtype(self) -> np.dtype:
        return self.manifest.entries_dtype

    @property
    def epoch(self) -> int:
        return self.manifest.epoch

    # ------------------------------------------------------------------
    # Meta arrays (small; loaded eagerly, handed out as copies)
    # ------------------------------------------------------------------

    def _load_meta(self) -> dict[str, np.ndarray]:
        target = self.path / self.manifest.meta_file
        try:
            with np.load(target) as archive:
                meta = {name: archive[name] for name in archive.files}
        except (OSError, ValueError) as exc:
            raise SnapshotIntegrityError(
                f"cannot read snapshot meta {target}: {exc}"
            ) from exc
        for name in _CORE_META:
            if name not in meta:
                raise SnapshotFormatError(
                    f"snapshot meta is missing array {name!r}"
                )
        if meta["filled"].shape != (self.num_classes, self.num_layers):
            raise SnapshotFormatError(
                f"fill mask shape {meta['filled'].shape} does not match "
                f"geometry ({self.num_classes}, {self.num_layers})"
            )
        if meta["class_freq"].shape != (self.num_classes,):
            raise SnapshotFormatError(
                f"class_freq shape {meta['class_freq'].shape} does not "
                f"match geometry ({self.num_classes},)"
            )
        return meta

    def load_filled(self) -> np.ndarray:
        """The ``(I, L)`` bool fill mask (a private copy)."""
        return np.asarray(self._meta["filled"], dtype=bool).copy()

    def load_class_freq(self) -> np.ndarray:
        """The ``(I,)`` Phi frequency vector (a private copy)."""
        return np.asarray(self._meta["class_freq"], dtype=np.float64).copy()

    def references(self) -> dict[str, np.ndarray]:
        """The stored reference vectors (everything beyond the core)."""
        return {
            name: array.copy()
            for name, array in self._meta.items()
            if name not in _CORE_META
        }

    # ------------------------------------------------------------------
    # Mapped entry views
    # ------------------------------------------------------------------

    def _shard(self, index: int) -> np.ndarray:
        cached = self._shards[index]
        if cached is not None:
            return cached
        spec = self.manifest.shards[index]
        target = self.path / spec.file
        try:
            block = np.load(target, mmap_mode="r")
        except (OSError, ValueError) as exc:
            raise SnapshotIntegrityError(
                f"cannot map shard {target} (truncated or corrupt): {exc}"
            ) from exc
        expected = (spec.num_layers, self.num_classes, self.dim)
        if block.shape != expected:
            raise SnapshotIntegrityError(
                f"shard {spec.file} has shape {block.shape}, manifest "
                f"expects {expected}"
            )
        if block.dtype != self.dtype:
            raise SnapshotIntegrityError(
                f"shard {spec.file} has dtype {block.dtype}, manifest "
                f"expects {self.dtype}"
            )
        self._shards[index] = block
        return block

    def layer_view(self, layer: int) -> np.ndarray:
        """Read-only mapped ``(I, d)`` centroid block of one layer.

        The first call for a shard maps its file; no data is read until
        something touches the rows.  The view is never writeable —
        promotion to RAM is always an explicit copy by the caller.
        """
        index, spec = self.manifest.shard_of_layer(layer)
        view = self._shard(index)[layer - spec.layer_lo]
        if view.flags.writeable:  # pragma: no cover - mmap_mode="r" is RO
            view = view.view()
            view.flags.writeable = False
        return view

    def serving_cache(
        self,
        layers: list[int] | None = None,
        alpha: float = 0.5,
        theta: float = 0.05,
        floors: np.ndarray | None = None,
    ) -> "SemanticCache":
        """A :class:`SemanticCache` whose layers point at the mapped views.

        Built in O(ms) regardless of table size: the chosen layers are
        installed as one stack through :meth:`SemanticCache.set_layer_view`
        (one id-set check), so centroid bytes are faulted in on first
        probe.  The cache dtype is the snapshot dtype; write a
        ``dtype="float32"`` snapshot for float32 serving.

        Raises:
            SnapshotFormatError: a chosen layer has an unfilled row — a
                cache holds every class on every layer it serves.
        """
        from repro.core.cache import SemanticCache

        stack = list(range(self.num_layers) if layers is None else layers)
        filled = np.asarray(self._meta["filled"], dtype=bool)
        unfilled = (~filled[:, stack]).sum(axis=0)
        for layer, count in zip(stack, unfilled.tolist()):
            if count:
                raise SnapshotFormatError(
                    f"snapshot layer {layer} has {count} of "
                    f"{self.num_classes} classes unfilled; a serving cache "
                    f"needs every row of every layer it serves"
                )
        cache = SemanticCache(
            self.num_classes, alpha=alpha, theta=theta, dtype=self.dtype
        )
        views = [self.layer_view(layer) for layer in stack]
        floors = None if floors is None else np.asarray(floors)[stack]
        cache.set_layer_view(stack, np.arange(self.num_classes), views, floors)
        return cache

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------

    def as_table(self) -> "GlobalCacheTable":
        """A fully materialized RAM table (what ``load_table`` installs)."""
        from repro.core.server import GlobalCacheTable

        table = GlobalCacheTable(self.num_classes, self.num_layers, self.dim)
        for layer in range(self.num_layers):
            table.entries[:, layer, :] = self.layer_view(layer)
        table.filled = self.load_filled()
        table.class_freq = self.load_class_freq()
        return table

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------

    def _recorded_checksums(self) -> dict[str, str]:
        recorded = {s.file: s.sha256 for s in self.manifest.shards}
        for name, digest in self.manifest.meta_checksums.items():
            recorded[f"meta:{name}"] = digest
        return recorded

    def _recomputed_checksums(self) -> dict[str, str]:
        computed: dict[str, str] = {}
        for index, spec in enumerate(self.manifest.shards):
            computed[spec.file] = array_checksum(self._shard(index))
        for name in self.manifest.meta_checksums:
            if name in self._meta:
                computed[f"meta:{name}"] = array_checksum(self._meta[name])
        return computed

    def verify_checksums(self) -> None:
        """Recompute every stored array's SHA-256 against the manifest.

        Raises:
            SnapshotIntegrityError: naming the first mismatching array.
        """
        recorded = self._recorded_checksums()
        computed = self._recomputed_checksums()
        for name, digest in recorded.items():
            actual = computed.get(name)
            if actual is None:
                raise SnapshotIntegrityError(
                    f"snapshot array {name} named in the manifest is missing"
                )
            if actual != digest:
                raise SnapshotIntegrityError(
                    f"snapshot array {name} fails its checksum: stored "
                    f"{digest[:12]}…, recomputed {actual[:12]}…"
                )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Drop the mapped shard references (views die with the store)."""
        self._shards = [None] * len(self.manifest.shards)

    def __enter__(self) -> "MappedTableStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"MappedTableStore(path={str(self.path)!r}, "
            f"epoch={self.epoch}, geometry=({self.num_classes}, "
            f"{self.num_layers}, {self.dim}), dtype={self.manifest.dtype})"
        )
