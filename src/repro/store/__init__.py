"""Memory-mapped snapshot store for the global cache table.

Persists a :class:`~repro.core.server.GlobalCacheTable` as a versioned
snapshot directory — JSON manifest + per-layer-block ``.npy`` shards —
that opens in O(ms), serves caches larger than RAM through read-only
mmap views, and syncs across shards by shipping only changed rows
(:class:`SnapshotDelta`).  See ``src/repro/store/README.md`` for the
on-disk schema and the delta-sync protocol.
"""

from repro.store.delta import SnapshotDelta, diff_tables, full_rows_nbytes
from repro.store.format import (
    FORMAT_NAME,
    LAYOUT_VERSION,
    ShardSpec,
    SnapshotFormatError,
    SnapshotIntegrityError,
    SnapshotManifest,
    array_checksum,
    is_snapshot_path,
    read_manifest,
)
from repro.store.reader import MappedTableStore
from repro.store.writer import write_snapshot

__all__ = [
    "FORMAT_NAME",
    "LAYOUT_VERSION",
    "MappedTableStore",
    "ShardSpec",
    "SnapshotDelta",
    "SnapshotFormatError",
    "SnapshotIntegrityError",
    "SnapshotManifest",
    "array_checksum",
    "diff_tables",
    "full_rows_nbytes",
    "is_snapshot_path",
    "read_manifest",
    "write_snapshot",
]
