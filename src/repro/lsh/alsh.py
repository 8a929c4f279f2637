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
outnumber live ones the storage compacts automatically.
:meth:`AdaptiveLSH.query_batch` resolves many
queries with one batched sign-hash matmul and a per-*level* vectorized
trie descent (``np.isin`` against the split keys of each bit length),
matching per-vector :meth:`AdaptiveLSH.query` result for result.

An optional ``center`` shifts the hyperplanes to pass through the data
centroid instead of the origin.  Cached semantic vectors share a large
common component (see :mod:`repro.models.feature`), so origin-anchored
hyperplanes would put almost every vector on the same side of almost
every plane; centering makes the planes cut through the class-specific
structure — the same standardization trick FoggyCache's homogenized
kNN applies before voting.
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
        center: optional ``(dim,)`` point the hyperplanes pass through
            (default: the origin).  See the module docstring.
        multi_probe: queries additionally probe the buckets reached by
            flipping every subset of their ``multi_probe``
            lowest-|margin| base bits — the hyperplanes the query sits
            closest to, i.e. the hash bits most likely to disagree with
            a true neighbour's.  ``2**multi_probe`` keys are probed and
            their (disjoint) buckets concatenated; 0 = single-bucket
            lookup.
    """

    def __init__(
        self,
        dim: int,
        rng: np.random.Generator,
        base_bits: int = 6,
        max_bits: int = 14,
        max_bucket_size: int = 24,
        center: np.ndarray | None = None,
        multi_probe: int = 0,
    ) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if not 1 <= base_bits <= max_bits:
            raise ValueError("need 1 <= base_bits <= max_bits")
        if max_bits > 57:
            # Batch lookups pack (bits, code) into one uint64 as
            # (bits << max_bits) | code; the bit-length field needs the
            # remaining headroom, so 57 is the packing limit.
            raise ValueError(f"max_bits must be <= 57, got {max_bits}")
        if max_bucket_size < 1:
            raise ValueError("max_bucket_size must be >= 1")
        if not 0 <= multi_probe <= base_bits:
            raise ValueError(
                f"multi_probe must be in [0, base_bits], got {multi_probe}"
            )
        self.dim = dim
        self.base_bits = base_bits
        self.max_bits = max_bits
        self.max_bucket_size = max_bucket_size
        self.multi_probe = multi_probe
        self._planes = rng.standard_normal((max_bits, dim))
        self._bit_values = np.uint64(1) << np.arange(max_bits, dtype=np.uint64)
        self._offsets = np.zeros(max_bits, dtype=np.float64)
        # Flip-subset table for multi-probe: row s selects which of the
        # t chosen low-margin bits subset s flips.
        t = multi_probe
        self._flip_subsets = np.array(
            [[(s >> j) & 1 for j in range(t)] for s in range(1 << t)],
            dtype=np.uint64,
        )
        if center is not None:
            point = np.asarray(center, dtype=float)
            if point.shape != (dim,):
                raise ValueError(f"center shape {point.shape} != ({dim},)")
            self._offsets = self._planes @ point
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
        # children and nothing may be stored there again.  _split_by_bits
        # mirrors _split per bit length for the vectorized batch descent.
        self._buckets: dict[tuple[int, int], list[int]] = {}
        self._split: set[tuple[int, int]] = set()
        self._split_by_bits: dict[int, set[int]] = {}
        # Per-level split-code arrays for the vectorized trie descent,
        # built lazily from _split_by_bits and invalidated on split.
        self._split_arrays: dict[int, np.ndarray] = {}
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
        signs = (self._planes @ vector) > self._offsets
        return np.uint64(np.sum(self._bit_values[signs], dtype=np.uint64))

    def _codes_of(self, vectors: np.ndarray) -> np.ndarray:
        signs = (vectors @ self._planes.T) > self._offsets
        return (signs * self._bit_values).sum(axis=1, dtype=np.uint64)

    def _probe_codes(
        self, codes: np.ndarray, projections: np.ndarray
    ) -> np.ndarray:
        """``(n, 2**multi_probe)`` probe codes per query.

        Flips every subset of each query's ``multi_probe``
        lowest-|margin| base bits (distinct powers of two, so the
        subset xor is a plain integer matmul).
        """
        t = self.multi_probe
        if t == 0:
            return codes[:, None]
        margins = np.abs(projections[:, : self.base_bits])
        if t < self.base_bits:
            chosen = np.argpartition(margins, t - 1, axis=1)[:, :t]
        else:
            chosen = np.argsort(margins, axis=1)
        bit_values = self._bit_values[chosen]  # (n, t)
        flips = bit_values @ self._flip_subsets.T  # (n, 2**t)
        return codes[:, None] ^ flips

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

    def insert_many(self, vectors: np.ndarray) -> np.ndarray:
        """Bulk-index many vectors with one batched sign-hash matmul."""
        vecs = np.asarray(vectors, dtype=float)
        if vecs.ndim != 2 or vecs.shape[1] != self.dim:
            raise ValueError(f"vectors shape {vecs.shape} != (n, {self.dim})")
        codes = self._codes_of(vecs)
        ids = np.empty(len(vecs), dtype=np.int64)
        touched: set[tuple[int, int]] = set()
        for k, (vec, code) in enumerate(zip(vecs, codes)):
            ids[k] = self._append_row(vec, code)
            key = self._locate_key(int(code))
            self._buckets.setdefault(key, []).append(int(ids[k]))
            touched.add(key)
        for key in touched:
            if key in self._buckets:
                self._maybe_split(key)
        return ids

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
        self._split_by_bits.setdefault(bits, set()).add(key[1])
        self._split_arrays.pop(bits, None)
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
        """Candidate ids in the query's bucket(s) (dead entries purged).

        With ``multi_probe`` set, the concatenation of every probed
        bucket in deterministic (sorted-key) order; buckets partition
        the ids, so the result is duplicate-free.  The returned list
        may alias a bucket's live view — treat it as read-only.
        """
        vec = np.asarray(vector, dtype=float)
        if vec.shape != (self.dim,):
            raise ValueError(f"vector shape {vec.shape} != ({self.dim},)")
        if self.multi_probe == 0:
            key = self._locate_key(int(self._code_of(vec)))
            return self._live_bucket(key)
        raw = self._planes @ vec
        codes = np.array(
            [np.sum(self._bit_values[raw > self._offsets], dtype=np.uint64)]
        )
        probe_codes = self._probe_codes(codes, (raw - self._offsets)[None, :])[0]
        keys = sorted({self._locate_key(int(code)) for code in probe_codes})
        if len(keys) == 1:
            return self._live_bucket(keys[0])
        merged: list[int] = []
        for key in keys:
            merged.extend(self._live_bucket(key))
        return merged

    def _resolve_keys(self, codes: np.ndarray) -> np.ndarray:
        """Trie-descend every code at once; returns per-query bit length.

        One pass per bit *level*: rows sitting at a split key of that
        length extend by one bit, everyone else has found their leaf.
        """
        bits = np.full(codes.size, self.base_bits, dtype=np.int64)
        for level in range(self.base_bits, self.max_bits):
            split_codes = self._split_by_bits.get(level)
            if not split_codes:
                continue
            at = np.flatnonzero(bits == level)
            if at.size == 0:
                continue
            keys = codes[at] & np.uint64(self._mask(level))
            split_array = self._split_arrays.get(level)
            if split_array is None:
                split_array = np.fromiter(split_codes, dtype=np.uint64)
                self._split_arrays[level] = split_array
            promote = np.isin(keys, split_array)
            bits[at[promote]] += 1
        return bits

    def _leaf_combos(self, vecs: np.ndarray) -> tuple[np.ndarray, int]:
        """Resolved leaf keys of every probe of every query, packed.

        One batched sign-hash matmul, multi-probe code expansion, and
        per-bit-level trie descent; returns ``(combos, num_probes)``
        where ``combos`` is the flat ``(n * num_probes,)`` array of
        ``(bits << max_bits) | masked_code`` leaf keys.
        """
        raw = vecs @ self._planes.T
        codes = ((raw > self._offsets) * self._bit_values).sum(
            axis=1, dtype=np.uint64
        )
        probe_codes = self._probe_codes(codes, raw - self._offsets)  # (n, P)
        flat = np.ascontiguousarray(probe_codes.reshape(-1))
        bits = self._resolve_keys(flat)
        masked = flat & (
            (np.uint64(1) << bits.astype(np.uint64, copy=False)) - np.uint64(1)
        )
        combos = (
            bits.astype(np.uint64, copy=False) << np.uint64(self.max_bits)
        ) | masked
        return combos, probe_codes.shape[1]

    def query_batch(self, vectors: np.ndarray) -> list[list[int]]:
        """Candidate ids for many queries at once.

        The sign patterns of all queries against *all* hyperplanes come
        from a single ``(n, dim) @ (dim, max_bits)`` product, the trie
        descent runs vectorized per bit level over every probe code, and
        each distinct leaf bucket is resolved exactly once (queries
        sharing a bucket share the returned list — treat the lists as
        read-only).  Result ``k`` equals ``query(vectors[k])`` (same
        multi-probe union, same ordering, dead entries purged the same
        way).
        """
        vecs = np.asarray(vectors, dtype=float)
        if vecs.ndim != 2 or vecs.shape[1] != self.dim:
            raise ValueError(f"vectors shape {vecs.shape} != (n, {self.dim})")
        n = vecs.shape[0]
        if n == 0:
            return []
        combo, num_probes = self._leaf_combos(vecs)
        bucket_of: dict[int, list[int]] = {}

        def resolve(combo_key: int) -> list[int]:
            bucket = bucket_of.get(combo_key)
            if bucket is None:
                bucket = self._live_bucket(
                    (combo_key >> self.max_bits,
                     combo_key & self._mask(self.max_bits))
                )
                bucket_of[combo_key] = bucket
            return bucket

        if num_probes == 1:
            return [resolve(int(c)) for c in combo]
        results: list[list[int]] = []
        combo_rows = combo.reshape(n, num_probes).tolist()
        merged_of: dict[tuple[int, ...], list[int]] = {}
        for row in combo_rows:
            keys = tuple(sorted(set(row)))
            if len(keys) == 1:
                results.append(resolve(keys[0]))
                continue
            merged = merged_of.get(keys)
            if merged is None:
                merged = []
                for combo_key in keys:
                    merged.extend(resolve(combo_key))
                merged_of[keys] = merged
            results.append(merged)
        return results

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
