"""On-disk snapshot format: manifest schema, checksums, layout policy.

A snapshot is a *directory* holding

* ``manifest.json`` — geometry, dtype, layout version, monotonic
  snapshot epoch, and a SHA-256 checksum per stored array;
* ``entries-NNNNN.npy`` — per-layer-block shards of the centroid tensor
  in **layer-major** order: shard ``k`` is the C-contiguous block
  ``entries.transpose(1, 0, 2)[lo:hi]`` of shape
  ``(layers_in_block, num_classes, dim)``, so one layer's ``(I, d)``
  centroid matrix is a contiguous slice of exactly one shard — the unit
  of lazy mmap fault-in and of a serving cache's promotion to RAM;
* ``meta.npz`` — the small side arrays (fill mask, Phi frequencies, the
  server's calibrated reference vectors), loaded eagerly on open.

The ``.npy`` container is the alignment story: ``np.save`` pads its
header so array data starts on a 64-byte boundary, which is what makes
``np.load(..., mmap_mode="r")`` hand back page-aligned, SIMD-friendly
views without any custom framing.

Layout version policy: :data:`LAYOUT_VERSION` bumps on any change that
makes old readers misread bytes (axis order, shard naming, checksum
algorithm).  Readers refuse unknown versions outright — a snapshot is
authoritative cache state, never something to guess at.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import numpy as np

#: Bumped when on-disk bytes change meaning (see module docstring).
LAYOUT_VERSION = 1

#: Identifies the container; readers reject foreign JSON files early.
FORMAT_NAME = "repro-snapshot"

MANIFEST_NAME = "manifest.json"
META_NAME = "meta.npz"
SHARD_PATTERN = "entries-{index:05d}.npy"

#: Entry dtypes a snapshot may store.  float64 is the canonical global
#: table; float32 exists for mapped *serving* snapshots whose views feed
#: a float32 :class:`~repro.core.cache.SemanticCache` directly.
SUPPORTED_DTYPES = ("float64", "float32")


class SnapshotFormatError(ValueError):
    """The snapshot directory is malformed or from an unknown layout."""


class SnapshotIntegrityError(SnapshotFormatError):
    """Stored bytes do not match the manifest (corruption/truncation)."""


def array_checksum(array: np.ndarray) -> str:
    """SHA-256 over an array's C-order data bytes (layout-independent)."""
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


@dataclass(frozen=True)
class ShardSpec:
    """One per-layer-block shard file of the entries tensor."""

    file: str
    layer_lo: int
    layer_hi: int
    sha256: str
    nbytes: int

    @property
    def num_layers(self) -> int:
        return self.layer_hi - self.layer_lo


@dataclass(frozen=True)
class SnapshotManifest:
    """The parsed ``manifest.json`` of one snapshot directory."""

    layout_version: int
    epoch: int
    num_classes: int
    num_layers: int
    dim: int
    dtype: str
    shards: tuple[ShardSpec, ...]
    meta_file: str = META_NAME
    meta_checksums: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.layout_version != LAYOUT_VERSION:
            raise SnapshotFormatError(
                f"unsupported layout version {self.layout_version} "
                f"(this reader understands {LAYOUT_VERSION})"
            )
        if self.epoch < 0:
            raise SnapshotFormatError(f"epoch must be >= 0, got {self.epoch}")
        if min(self.num_classes, self.num_layers, self.dim) < 1:
            raise SnapshotFormatError(
                f"geometry must be positive, got ({self.num_classes}, "
                f"{self.num_layers}, {self.dim})"
            )
        if self.dtype not in SUPPORTED_DTYPES:
            raise SnapshotFormatError(
                f"dtype must be one of {SUPPORTED_DTYPES}, got {self.dtype!r}"
            )
        # The shards must tile [0, num_layers) contiguously in order.
        cursor = 0
        for shard in self.shards:
            if shard.layer_lo != cursor or shard.layer_hi <= shard.layer_lo:
                raise SnapshotFormatError(
                    f"shard {shard.file} covers layers [{shard.layer_lo}, "
                    f"{shard.layer_hi}), expected to start at {cursor}"
                )
            cursor = shard.layer_hi
        if cursor != self.num_layers:
            raise SnapshotFormatError(
                f"shards cover {cursor} layers, manifest declares "
                f"{self.num_layers}"
            )

    @property
    def entries_dtype(self) -> np.dtype:
        return np.dtype(self.dtype)

    def shard_of_layer(self, layer: int) -> tuple[int, ShardSpec]:
        """(shard index, spec) of the shard holding one layer's block."""
        if not 0 <= layer < self.num_layers:
            raise ValueError(
                f"layer {layer} out of range [0, {self.num_layers})"
            )
        for index, shard in enumerate(self.shards):
            if shard.layer_lo <= layer < shard.layer_hi:
                return index, shard
        raise SnapshotFormatError(f"no shard covers layer {layer}")

    def to_json(self) -> dict[str, Any]:
        return {
            "format": FORMAT_NAME,
            "layout_version": self.layout_version,
            "epoch": self.epoch,
            "geometry": {
                "num_classes": self.num_classes,
                "num_layers": self.num_layers,
                "dim": self.dim,
                "dtype": self.dtype,
            },
            "shards": [
                {
                    "file": s.file,
                    "layer_lo": s.layer_lo,
                    "layer_hi": s.layer_hi,
                    "sha256": s.sha256,
                    "nbytes": s.nbytes,
                }
                for s in self.shards
            ],
            "meta": {
                "file": self.meta_file,
                "sha256": dict(self.meta_checksums),
            },
        }

    @staticmethod
    def from_json(data: Mapping[str, Any]) -> "SnapshotManifest":
        if data.get("format") != FORMAT_NAME:
            raise SnapshotFormatError(
                f"not a {FORMAT_NAME} manifest (format={data.get('format')!r})"
            )
        try:
            geometry = data["geometry"]
            shards = tuple(
                ShardSpec(
                    file=str(s["file"]),
                    layer_lo=int(s["layer_lo"]),
                    layer_hi=int(s["layer_hi"]),
                    sha256=str(s["sha256"]),
                    nbytes=int(s["nbytes"]),
                )
                for s in data["shards"]
            )
            meta = data["meta"]
            return SnapshotManifest(
                layout_version=int(data["layout_version"]),
                epoch=int(data["epoch"]),
                num_classes=int(geometry["num_classes"]),
                num_layers=int(geometry["num_layers"]),
                dim=int(geometry["dim"]),
                dtype=str(geometry["dtype"]),
                shards=shards,
                meta_file=str(meta["file"]),
                meta_checksums={
                    str(k): str(v) for k, v in meta["sha256"].items()
                },
            )
        except (KeyError, TypeError) as exc:
            raise SnapshotFormatError(f"malformed manifest: {exc!r}") from exc


def manifest_path(snapshot_dir: str | Path) -> Path:
    return Path(snapshot_dir) / MANIFEST_NAME


def is_snapshot_path(path: str | Path) -> bool:
    """Whether ``path`` is a snapshot directory (it holds a manifest)."""
    return manifest_path(path).is_file()


def read_manifest(snapshot_dir: str | Path) -> SnapshotManifest:
    """Parse and validate a snapshot directory's manifest."""
    target = manifest_path(snapshot_dir)
    try:
        text = target.read_text(encoding="utf-8")
    except OSError as exc:
        raise SnapshotFormatError(
            f"cannot read manifest at {target}: {exc}"
        ) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SnapshotFormatError(
            f"manifest at {target} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(data, dict):
        raise SnapshotFormatError(f"manifest at {target} is not a JSON object")
    return SnapshotManifest.from_json(data)


def write_manifest(snapshot_dir: str | Path, manifest: SnapshotManifest) -> None:
    """Write the manifest — always the *last* file written, so a
    directory with a manifest is a complete snapshot."""
    target = manifest_path(snapshot_dir)
    target.write_text(
        json.dumps(manifest.to_json(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
