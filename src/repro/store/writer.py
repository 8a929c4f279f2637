"""Snapshot writer: layer-block sharding with a monotonic epoch.

:func:`write_snapshot` serializes a
:class:`~repro.core.server.GlobalCacheTable` into the directory format
of :mod:`repro.store.format`.

Epoch policy: every rewrite of an existing snapshot directory must carry
a *strictly larger* epoch — the manifest's epoch is the restart
generation counter, and going backwards would let a stale writer
silently shadow newer state.  ``epoch=None`` auto-increments.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

import numpy as np

from repro import contracts
from repro.core.cache import PACK_BLOCK_LAYERS
from repro.core.server import GlobalCacheTable
from repro.store.format import (
    META_NAME,
    SHARD_PATTERN,
    SUPPORTED_DTYPES,
    LAYOUT_VERSION,
    ShardSpec,
    SnapshotManifest,
    array_checksum,
    is_snapshot_path,
    read_manifest,
    write_manifest,
)


def _resolve_epoch(snapshot_dir: Path, epoch: int | None) -> int:
    previous: int | None = None
    if is_snapshot_path(snapshot_dir):
        previous = read_manifest(snapshot_dir).epoch
    if epoch is None:
        return 1 if previous is None else previous + 1
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    if previous is not None and epoch <= previous:
        raise ValueError(
            f"snapshot epoch must be monotonic: directory holds epoch "
            f"{previous}, refusing to write epoch {epoch}"
        )
    return int(epoch)


def write_snapshot(
    snapshot_dir: str | Path,
    table: GlobalCacheTable,
    references: Mapping[str, np.ndarray] | None = None,
    epoch: int | None = None,
    layers_per_shard: int = PACK_BLOCK_LAYERS,
    dtype: str | None = None,
) -> SnapshotManifest:
    """Serialize a global cache table as a mmap-ready snapshot directory.

    Args:
        snapshot_dir: target directory (created if missing).  When it
            already holds a snapshot, the new epoch must be strictly
            larger (``None`` auto-increments).
        table: the table to persist.
        references: optional small per-layer side arrays (the server's
            calibrated reference vectors); stored in ``meta.npz`` next to
            the fill mask and Phi and restored verbatim on load.
        epoch: monotonic snapshot epoch (``None`` = previous + 1).
        layers_per_shard: cache layers per ``.npy`` shard file.  The
            default is the walk's block depth
            (:data:`~repro.core.cache.PACK_BLOCK_LAYERS`): a serving
            cache never stacks layers of two shards into one block, so
            at this depth a mapped cache walks in the blocks an owned
            one does.
        dtype: entry storage dtype (``None`` = keep the table's float64).
            ``"float32"`` halves the bytes for serving snapshots whose
            views feed a float32 cache directly.

    Returns:
        The written manifest.
    """
    if layers_per_shard < 1:
        raise ValueError(
            f"layers_per_shard must be >= 1, got {layers_per_shard}"
        )
    store_dtype = "float64" if dtype is None else str(dtype)
    if store_dtype not in SUPPORTED_DTYPES:
        raise ValueError(
            f"dtype must be one of {SUPPORTED_DTYPES}, got {store_dtype!r}"
        )
    out_dtype = np.dtype(store_dtype)
    target = Path(snapshot_dir)
    target.mkdir(parents=True, exist_ok=True)
    sealed_epoch = _resolve_epoch(target, epoch)

    num_layers = table.num_layers
    shards: list[ShardSpec] = []
    for index, lo in enumerate(range(0, num_layers, layers_per_shard)):
        hi = min(lo + layers_per_shard, num_layers)
        # Layer-major block (layers, classes, dim): each layer is one
        # contiguous (I, d) slice, the unit of mmap fault-in.
        block = np.stack(
            [table.entries[:, layer, :] for layer in range(lo, hi)]
        ).astype(out_dtype, copy=False)
        name = SHARD_PATTERN.format(index=index)
        np.save(target / name, block)
        shards.append(
            ShardSpec(
                file=name,
                layer_lo=lo,
                layer_hi=hi,
                sha256=array_checksum(block),
                nbytes=int(block.nbytes),
            )
        )

    meta_arrays: dict[str, np.ndarray] = {
        "filled": np.asarray(table.filled, dtype=bool),
        "class_freq": np.asarray(table.class_freq, dtype=np.float64),
    }
    for name, vector in (references or {}).items():
        array = np.asarray(vector, dtype=np.float64)
        if array.shape != (num_layers,):
            raise ValueError(
                f"reference array {name!r} has shape {array.shape}, "
                f"expected ({num_layers},)"
            )
        meta_arrays[name] = array
    np.savez(target / META_NAME, **meta_arrays)

    manifest = SnapshotManifest(
        layout_version=LAYOUT_VERSION,
        epoch=sealed_epoch,
        num_classes=table.num_classes,
        num_layers=num_layers,
        dim=table.dim,
        dtype=store_dtype,
        shards=tuple(shards),
        meta_file=META_NAME,
        meta_checksums={
            name: array_checksum(array) for name, array in meta_arrays.items()
        },
    )
    write_manifest(target, manifest)
    # A previous snapshot with more layers per shard leaves extra shard
    # files behind; anything the manifest does not name is stale.
    named = {shard.file for shard in manifest.shards}
    for leftover in target.glob("entries-*.npy"):
        if leftover.name not in named:
            leftover.unlink()
    if contracts.ENABLED:
        contracts.check_snapshot_manifest(
            layout_version=manifest.layout_version,
            epoch=manifest.epoch,
            geometry=(manifest.num_classes, manifest.num_layers, manifest.dim),
            expected_geometry=(
                table.num_classes,
                table.num_layers,
                table.dim,
            ),
            checksums={s.file: s.sha256 for s in manifest.shards},
            recomputed={
                s.file: array_checksum(np.load(target / s.file))
                for s in manifest.shards
            },
        )
    return manifest
