"""Adaptive locality-sensitive hashing (A-LSH), after FoggyCache.

FoggyCache (Guo et al., MobiCom'18) organizes cached feature vectors with
an LSH variant that *adapts the bucket granularity to the data density*:
when a bucket overflows, its resolution is increased locally by extending
the hash with additional hyperplanes, keeping lookup candidate lists short
without global rehashing.

This implementation uses signed random projections (hyperplane LSH, the
natural choice for cosine similarity): a key is the sign pattern of the
vector against ``base_bits`` hyperplanes; buckets exceeding
``max_bucket_size`` are split by locally extending the pattern with
reserve hyperplanes, recursively, up to ``max_bits``.

The index is array-backed: vectors live in one ``(capacity, dim)``
matrix, each row's full sign pattern is packed into a single ``uint64``
code at insertion, and bucket keys are ``(bits, code & mask)`` pairs —
so locating a bucket is integer masking, never a re-hash.  Item ids are
stable across deletions via an id -> row indirection; when dead rows
outnumber live ones the storage compacts automatically, which bounds
the memory of a baseline that replaces entries for a whole run.

The surface is what the FoggyCache baseline
(:mod:`repro.baselines.foggy_cache`, the index's one caller) executes:
one vector in, one bucket out — :meth:`AdaptiveLSH.insert`,
:meth:`AdaptiveLSH.delete`, :meth:`AdaptiveLSH.query`.
"""

from __future__ import annotations

import numpy as np

_MIN_COMPACT_ROWS = 32


class AdaptiveLSH:
    """Cosine LSH index with density-adaptive bucket splitting.

    Args:
        dim: dimensionality of indexed vectors.
        rng: generator for the (fixed) random hyperplanes.
        base_bits: initial hash length.
        max_bits: maximum hash length after local splits (<= 64, codes
            are packed into one ``uint64`` per vector).
        max_bucket_size: a bucket larger than this is split (if bits
            remain) before further insertions.
    """

    def __init__(
        self,
        dim: int,
        rng: np.random.Generator,
        base_bits: int = 6,
        max_bits: int = 14,
        max_bucket_size: int = 24,
    ) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if not 1 <= base_bits <= max_bits:
            raise ValueError("need 1 <= base_bits <= max_bits")
        if max_bits > 64:
            raise ValueError(f"max_bits must be <= 64, got {max_bits}")
        if max_bucket_size < 1:
            raise ValueError("max_bucket_size must be >= 1")
        self.dim = dim
        self.base_bits = base_bits
        self.max_bits = max_bits
        self.max_bucket_size = max_bucket_size
        self._planes = rng.standard_normal((max_bits, dim))
        self._bit_values = np.uint64(1) << np.arange(max_bits, dtype=np.uint64)
        # Row storage: vectors, packed sign codes and the owning item id
        # per row (-1 = dead).  Ids stay stable through compaction via the
        # id -> row map; rows are recycled wholesale, never individually.
        self._matrix = np.empty((0, dim), dtype=np.float64)
        self._codes = np.empty(0, dtype=np.uint64)
        self._row_ids = np.empty(0, dtype=np.int64)
        self._rows = 0
        self._row_of: dict[int, int] = {}
        self._next_id = 0
        # bucket key: (bits, code masked to that length).  Keys in _split
        # are interior trie nodes: their contents moved to longer-key
        # children and nothing may be stored there again.
        self._buckets: dict[tuple[int, int], list[int]] = {}
        self._split: set[tuple[int, int]] = set()
        # Deletions whose ids may still linger in bucket lists (purged
        # lazily).  0 means every bucket list is clean, so _live_bucket
        # can skip the purge scan entirely.
        self._lazy_dead = 0

    def __len__(self) -> int:
        return len(self._row_of)

    @property
    def storage_rows(self) -> int:
        """Rows currently held in the backing matrix (live + dead)."""
        return self._rows

    # ------------------------------------------------------------------
    # Hashing
    # ------------------------------------------------------------------

    def _code_of(self, vector: np.ndarray) -> np.uint64:
        signs = (self._planes @ vector) > 0.0
        return np.uint64(np.sum(self._bit_values[signs], dtype=np.uint64))

    @staticmethod
    def _mask(bits: int) -> int:
        return (1 << bits) - 1

    def _locate_key(self, code: int) -> tuple[int, int]:
        """Leaf bucket key of a code: descend through split nodes."""
        bits = self.base_bits
        key = (bits, int(code) & self._mask(bits))
        while key in self._split and bits < self.max_bits:
            bits += 1
            key = (bits, int(code) & self._mask(bits))
        return key

    # ------------------------------------------------------------------
    # Content management
    # ------------------------------------------------------------------

    def _append_row(self, vector: np.ndarray, code: np.uint64) -> int:
        if self._rows == self._matrix.shape[0]:
            grow = max(2 * self._matrix.shape[0], _MIN_COMPACT_ROWS)
            matrix = np.empty((grow, self.dim), dtype=np.float64)
            matrix[: self._rows] = self._matrix[: self._rows]
            self._matrix = matrix
            self._codes = np.resize(self._codes, grow)
            row_ids = np.full(grow, -1, dtype=np.int64)
            row_ids[: self._rows] = self._row_ids[: self._rows]
            self._row_ids = row_ids
        row = self._rows
        item_id = self._next_id
        self._matrix[row] = vector
        self._codes[row] = code
        self._row_ids[row] = item_id
        self._row_of[item_id] = row
        self._rows += 1
        self._next_id += 1
        return item_id

    def insert(self, vector: np.ndarray) -> int:
        """Index a vector; returns its id (for deletion)."""
        vec = np.asarray(vector, dtype=float)
        if vec.shape != (self.dim,):
            raise ValueError(f"vector shape {vec.shape} != ({self.dim},)")
        code = self._code_of(vec)
        item_id = self._append_row(vec, code)
        key = self._locate_key(int(code))
        self._buckets.setdefault(key, []).append(item_id)
        self._maybe_split(key)
        return item_id

    def delete(self, item_id: int) -> None:
        """Remove a vector by id (lazy: purged from its bucket on
        split/query; the backing row is reclaimed when dead rows
        outnumber live ones)."""
        if not 0 <= item_id < self._next_id:
            raise KeyError(f"unknown item id {item_id}")
        row = self._row_of.pop(item_id, None)
        if row is None:
            return  # already dead — deletion is idempotent
        self._row_ids[row] = -1
        self._lazy_dead += 1
        dead = self._rows - len(self._row_of)
        if self._rows >= _MIN_COMPACT_ROWS and dead > len(self._row_of):
            self._compact()

    def _compact(self) -> None:
        """Drop dead rows from the backing arrays (ids keep working)."""
        live = self._row_ids[: self._rows] >= 0
        self._matrix = self._matrix[: self._rows][live]
        self._codes = self._codes[: self._rows][live]
        self._row_ids = self._row_ids[: self._rows][live]
        self._rows = int(self._row_ids.size)
        self._row_of = {
            int(item_id): row for row, item_id in enumerate(self._row_ids)
        }

    def _maybe_split(self, key: tuple[int, int]) -> None:
        bucket = self._buckets.get(key, [])
        if self._lazy_dead:
            live = [i for i in bucket if i in self._row_of]
            # Buckets partition ids, so every purge retires its dead
            # ids for good and the pending-purge count can shrink.
            self._lazy_dead -= len(bucket) - len(live)
        else:
            live = bucket
        bits, _ = key
        if len(live) <= self.max_bucket_size or bits >= self.max_bits:
            self._buckets[key] = live
            return
        child_bits = bits + 1
        mask = self._mask(child_bits)
        del self._buckets[key]
        self._split.add(key)
        child_keys = set()
        for item in live:
            code = int(self._codes[self._row_of[item]])
            child = (child_bits, code & mask)
            self._buckets.setdefault(child, []).append(item)
            child_keys.add(child)
        # Recurse in case one child still overflows.
        for child_key in child_keys:
            self._maybe_split(child_key)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(self, vector: np.ndarray) -> list[int]:
        """Candidate ids in the query's bucket (dead entries purged).

        The returned list may alias the bucket's live view — treat it
        as read-only.
        """
        vec = np.asarray(vector, dtype=float)
        if vec.shape != (self.dim,):
            raise ValueError(f"vector shape {vec.shape} != ({self.dim},)")
        return self._live_bucket(self._locate_key(int(self._code_of(vec))))

    def _live_bucket(self, key: tuple[int, int]) -> list[int]:
        """Live ids of one bucket, purging dead entries in place.

        Returns the live list itself (single pass, no defensive copy) —
        callers must not mutate it.
        """
        bucket = self._buckets.get(key, [])
        if not self._lazy_dead:
            # No pending deletion: every bucket list is clean, and the
            # purge scan is skipped outright.
            return bucket
        live = [i for i in bucket if i in self._row_of]
        if len(live) != len(bucket):
            self._buckets[key] = live
            self._lazy_dead -= len(bucket) - len(live)
        return live

    def vector(self, item_id: int) -> np.ndarray:
        row = self._row_of.get(item_id)
        if row is None:
            raise KeyError(f"unknown or deleted item id {item_id}")
        return self._matrix[row].copy()

    @property
    def num_buckets(self) -> int:
        return len(self._buckets)
