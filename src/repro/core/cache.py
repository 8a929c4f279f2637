"""The class-based semantic cache (Sec. II-3).

A :class:`SemanticCache` holds, per activated cache layer, one unit-norm
semantic centroid per hot-spot class.  During inference a lookup walks
the activated layers in order, accumulating per-class cosine
similarities:

    A[i, j] = C[i, j] + alpha * A[i, j-1]                       (Eq. 1)

where ``C[i, j]`` is the cosine similarity between the sample's layer-``j``
semantic vector and class ``i``'s cached centroid, and ``j-1`` is the
*previously probed* layer.  The layer's discriminative score compares the
two best classes ``a`` and ``b``:

    D[j] = (A[a, j] - A[b, j]) / A[b, j]                        (Eq. 2)

The cache hits when ``D[j]`` exceeds the threshold theta; inference then
terminates early returning class ``a``.  Eq. 2 assumes a positive
runner-up: when ``A[b] <= 0`` the relative gap is undefined and no
confident hit is possible, so :meth:`LookupWorkspace.scores_into`
clamps ``D`` to 0 instead of dividing by a tiny epsilon.

A cache holds **one class-id set and one width on every activated
layer** — the paper's client cache holds the selected hot-spot classes
at each layer the server activates — and
:meth:`SemanticCache.set_layer_entries` / :meth:`~SemanticCache.set_layer_view`
install a stack of layers at once and refuse one that would break that.
So every cache stacks into one :class:`LayerPack` (an owned stack is
sliced, not copied), and lookups run a batch of samples at a time
through one kernel: :meth:`StackLayout.step` scores a block of layers
for a set of rows, :func:`repro.core.probe.walk_cache_batch` chains it
block by block with early exit, and :class:`BatchedLookupSession` runs
it one layer per call.

Serving-path performance rests on two policies layered on top:

* **Dtype policy.**  Centroid matrices are stored C-contiguous in a
  configurable dtype, ``float32`` by default: unit-norm cosine geometry
  loses nothing observable at single precision (scores carry ~1e-6
  relative rounding against margins of ~1e-2) while matmul bandwidth and
  FLOP throughput double.  The Eq. 1 accumulators match the cache
  dtype, so all probe math runs in single precision end to end.
  Constructing with ``dtype=np.float64`` restores the bit-exact
  double-precision path the exact-equivalence suites run on.
* **Zero-allocation workspace.**  A :class:`LookupWorkspace` owns
  reusable flat buffer pools; the batched probe writes its matmul,
  accumulator gather/scatter, top-2 selection and scoring into
  workspace views (``out=`` everywhere), so steady-state probes
  allocate only their small per-row output arrays.  Engines own a
  workspace and pass it to every walk, so buffers persist across
  probes, batches and protocol rounds.

Every probe is exact: each layer scores all of its entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.typing import DTypeLike

from repro import contracts

_EPS = 1e-9

#: Dtypes the cache may store centroids in (the probe-kernel contract).
SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

#: Most layers one block of a :class:`LayerPack` stacks, and the default
#: ``layers_per_shard`` of a snapshot (``repro.store.write_snapshot``,
#: ``CoCaServer.save_snapshot``), so an owned block and a mapped shard
#: have one shape.  The stacked walk scores every layer of a block for
#: every row that entered it and lets resolved rows leave only between
#: blocks: deeper blocks amortise the per-block overhead over more
#: layers, shallower ones waste fewer products on rows that already hit.
#: A ``bench`` ``serve-frame`` request hits at layer 11 of 34 in the
#: median and 18 at p90, so at 17 most frames resolve in one block step
#: (measurements in ``src/repro/core/README.md``).
PACK_BLOCK_LAYERS = 17

#: An install's layers (one index or ``G``), centroids and floors.
Layers = int | Sequence[int] | np.ndarray
Matrices = np.ndarray | Sequence[np.ndarray]
Floors = np.ndarray | Sequence[float] | float | None


def _address(array: np.ndarray) -> int:
    """Memory address of an array's first element."""
    address: int = array.__array_interface__["data"][0]
    return address


def _check_layer(layer: int) -> None:
    """Refuse a negative cache-layer index: a walk gathers level ``layer``
    of each query, and a negative one would read another level."""
    if layer < 0:
        raise ValueError(f"cache layer must be >= 0, got {layer}")


class LookupWorkspace:
    """Reusable scratch buffers for the batched probe kernels.

    Buffers are flat pools keyed by ``(name, dtype)`` and grown
    geometrically (to the next power of two of the request);
    :meth:`floats` / :meth:`ints` / :meth:`bools` return
    C-contiguous views of the requested shape, so ``out=`` matmuls and
    ufuncs write straight into pooled memory.  One workspace is owned
    per engine (or per cluster node) and reused across probes, batches
    and rounds — the steady-state probe path allocates nothing
    proportional to ``batch x n_entries``.

    A workspace is single-threaded and not re-entrant: a buffer name is
    a claim on the pool until the caller is done with the view.
    """

    def __init__(self) -> None:
        self._pools: dict[tuple[str, np.dtype], np.ndarray] = {}
        #: :class:`StackLayout` per ``(rows, depth)``, all of the geometry
        #: ``_layout_geometry`` (:meth:`stack_layout`).
        self._layouts: dict[tuple[int, int], StackLayout] = {}
        self._layout_geometry: tuple[int, int, np.dtype, np.dtype] | None = None
        #: :class:`WalkLayout` per ``(rows, entries, dtype)``
        #: (:meth:`walk_layout`).
        self._walks: dict[tuple[int, int, np.dtype], WalkLayout] = {}
        self._arange = np.empty(0, dtype=np.intp)

    def close(self) -> None:
        """Release the workspace: drop the pooled buffers and kept layouts.

        Idempotent, and the workspace stays usable afterwards — pools
        regrow on demand — so a shared workspace closed twice along two
        teardown paths is harmless.  Long-lived serving processes call
        this on worker shutdown.
        """
        self._pools.clear()
        self._layouts.clear()
        self._walks.clear()
        self._arange = np.empty(0, dtype=np.intp)

    def __enter__(self) -> "LookupWorkspace":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _pool(self, name: str, dtype: np.dtype, size: int) -> np.ndarray:
        key = (name, dtype)
        buf = self._pools.get(key)
        if buf is None or buf.size < size:
            # A stack layout views only ``stack.`` pools and a walk layout
            # only ``walk.`` ones: dropping the kept layouts of the
            # regrown pool's kind lets the old pool go.
            if buf is not None and name.startswith("stack."):
                self._layouts.clear()
            elif buf is not None and name.startswith("walk."):
                self._walks.clear()
            # The next power of two: a run of rising sizes regrows a
            # pool about log2 times, not once per size.
            buf = np.empty(1 << max(size - 1, 15).bit_length(), dtype=dtype)
            self._pools[key] = buf
        return buf

    def floats(
        self, name: str, shape: tuple[int, ...], dtype: DTypeLike
    ) -> np.ndarray:
        """A C-contiguous float view of ``shape`` from the named pool."""
        size = math.prod(shape) if shape else 1
        return self._pool(name, np.dtype(dtype), size)[:size].reshape(shape)

    def ints(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """An index (``intp``) view — argmax targets, flat gather indices."""
        size = math.prod(shape) if shape else 1
        return self._pool(name, np.dtype(np.intp), size)[:size].reshape(shape)

    def bools(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape) if shape else 1
        return self._pool(name, np.dtype(np.bool_), size)[:size].reshape(shape)

    def arange(self, n: int) -> np.ndarray:
        """A read-only-by-convention view of ``[0, n)``."""
        if self._arange.size < n:
            self._arange = np.arange(max(n, 16), dtype=np.intp)
        return self._arange[:n]

    def stack_layout(
        self,
        rows: int,
        depth: int,
        entries: int,
        dim: int,
        query_dtype: np.dtype,
        dtype: np.dtype,
    ) -> "StackLayout":
        """The scratch views of one stacked block step (:class:`StackLayout`).

        Cutting the ~25 views costs a small step as much as the
        arithmetic between them, so every layout cut is kept, keyed by
        ``(rows, depth)``, for the geometry last served.  Kept layouts go
        when the geometry changes, when a ``stack.`` pool regrows, and at
        :meth:`close`.  They are bounded by the largest row count walked
        since the last drop times the pack's distinct block depths; a
        layout is about 8 KB of view headers.  The walk layouts stay on a
        geometry change: they view only ``walk.`` pools and carry their
        own ``(rows, entries, dtype)`` key.
        """
        geometry = (entries, dim, query_dtype, dtype)
        if geometry != self._layout_geometry:
            self._layouts.clear()
            self._layout_geometry = geometry
        layout = self._layouts.get((rows, depth))
        if layout is None:
            layout = StackLayout(self, rows, depth, entries, dim, query_dtype, dtype)
            self._layouts[rows, depth] = layout
        return layout

    def walk_layout(self, rows: int, entries: int, dtype: np.dtype) -> "WalkLayout":
        """The result and carry views of one walk over ``rows`` rows of a
        cache of ``entries`` entries in ``dtype`` (:class:`WalkLayout`),
        kept like :meth:`stack_layout`'s, across cache geometries; they
        go when a ``walk.`` pool regrows and at :meth:`close`, so they are
        bounded by the distinct ``(rows, entries)`` walked since then."""
        key = (rows, entries, dtype)
        layout = self._walks.get(key)
        if layout is None:
            layout = WalkLayout(self, rows, entries, dtype)
            self._walks[key] = layout
        return layout

    @staticmethod
    def scores_into(
        best: np.ndarray,
        second: np.ndarray,
        out: np.ndarray,
        nonpos: np.ndarray,
        denom: np.ndarray,
    ) -> np.ndarray:
        """Eq. 2 scores ``(best - second) / second`` of equal-shaped 1-D
        arrays, written into ``out`` without allocating; ``nonpos``
        (bool) and ``denom`` (``out``'s dtype) are scratch of that shape.

        A non-positive runner-up leaves the relative gap undefined — an
        epsilon denominator would explode it to ~1e9 and manufacture
        spurious hits — so the score is 0 there.  A positive but tiny
        runner-up still yields a large score: that is Eq. 2's own
        unbounded semantics, and deployments gate such fires with the
        calibrated per-layer similarity floors.
        """
        np.less_equal(second, _EPS, out=nonpos)
        np.copyto(denom, second)
        denom[nonpos] = 1.0
        np.subtract(best, second, out=out)
        np.divide(out, denom, out=out)
        out[nonpos] = 0.0
        return out


class StackLayout:
    """Scratch of one stacked block step over ``rows`` rows and ``depth``
    layers of ``entries`` entries: views of the workspace pools, nothing
    of its own.  Every view but ``pair_off`` is scratch — written before
    it is read within a step — so layouts of different shapes may share
    the pools.  ``pair_off`` is filled once, when the layout is cut: its
    values depend only on a pair's index and ``entries``, which every
    layout kept at one time shares (:meth:`LookupWorkspace.stack_layout`).
    """

    def __init__(  # repro-lint: kernel
        self,
        ws: LookupWorkspace,
        rows: int,
        depth: int,
        entries: int,
        dim: int,
        query_dtype: np.dtype,
        dtype: np.dtype,
    ) -> None:
        pairs = depth * rows
        self.gather = ws.ints("stack.gather", (rows, depth))
        self.raw = ws.floats("stack.raw", (rows, depth, dim), query_dtype)
        #: The gathered levels in the cache dtype (``raw`` itself when the
        #: request already has it), layer-major for the batched product.
        self.queries = self.raw
        if query_dtype != dtype:
            self.queries = ws.floats("stack.queries", (rows, depth, dim), dtype)
        self.queries_t = self.queries.transpose(1, 0, 2)
        self.sim = ws.floats("stack.sim", (depth, rows, entries), dtype)
        self.upd = ws.floats("stack.upd", (depth, rows, entries), dtype)
        #: Eq. 1 per layer: (A_g to write, C_g to add).
        self.folds = [(self.upd[g], self.sim[g]) for g in range(depth)]
        #: ``A`` after the block's last layer, ``(rows, entries)``.
        self.final = self.upd[depth - 1]
        self.sim_flat = self.sim.reshape(-1)
        self.upd_flat = self.upd.reshape(-1)
        self.upd_rows = self.upd.reshape(pairs, entries)
        #: Flat offset of every (layer, row) pair's score row.
        self.pair_off = ws.ints("stack.pair_off", (pairs,))
        np.multiply(ws.arange(pairs), entries, out=self.pair_off)
        self.best_idx = ws.ints("stack.best_idx", (pairs,))
        self.best_flat = ws.ints("stack.best_flat", (pairs,))
        self.a_best = ws.floats("stack.a_best", (pairs,), dtype)
        self.a_second = ws.floats("stack.a_second", (pairs,), dtype)
        self.sim_best = ws.floats("stack.sim_best", (pairs,), dtype)
        self.sim_best_rows = self.sim_best.reshape(depth, rows)
        self.score = ws.floats("stack.score", (pairs,), dtype)
        self.nonpos = ws.bools("stack.nonpos", (pairs,))
        self.denom = ws.floats("stack.denom", (pairs,), dtype)
        self.hit = ws.bools("stack.hit", (pairs,))
        self.hits = self.hit.reshape(depth, rows)
        self.aux = ws.bools("stack.aux", (pairs,))
        self.floor_ok = self.aux.reshape(depth, rows)
        self.resolved = ws.bools("stack.resolved", (rows,))
        self.missed = ws.bools("stack.missed", (rows,))
        self.stop = ws.ints("stack.stop", (rows,))
        self.at = ws.ints("stack.at", (rows,))
        self.top = ws.ints("stack.top", (rows,))
        self.columns = ws.arange(rows)
        if contracts.ENABLED:
            contracts.check_distinct_views(
                raw=self.raw, sim=self.sim, upd=self.upd, score=self.score,
                a_best=self.a_best, a_second=self.a_second,
                sim_best=self.sim_best, hit=self.hit, aux=self.aux,
                nonpos=self.nonpos, denom=self.denom,
            )

    def step(
        self,
        previous: np.ndarray,
        block: "LayerBlock",
        alpha: float | np.ndarray,
        theta: float,
    ) -> None:
        """Probe ``block``'s layers for the rows whose levels ``queries``
        holds, from their accumulated ``previous`` ``(rows, entries)``;
        the results stay in the layout's views, one per (layer, row) pair.
        ``alpha`` is a float or a 0-d array of the cache dtype, the same
        factor (a ufunc takes the array for less per call).

        One batched product (per layer the ``(rows, d) @ (d, n)`` BLAS
        call against the layer's own matrix), Eq. 1 folded down the layer
        axis into ``upd`` (``A_g = alpha * A_{g-1} + C_g``), then top-2
        (argmax, first index on ties; mask the winner, max, restore),
        Eq. 2 and the ``A > 0`` and floor checks for every (layer, row)
        pair.  With one entry there is no runner-up: ``a_second`` is
        ``-inf`` and the score 0 never hits.  Only the winner's index is
        kept (``best_idx``); a caller that wants the runner-up's finds it
        in ``final``.
        """
        if contracts.ENABLED:
            contracts.check_distinct_views(previous=previous, sim=self.sim, upd=self.upd)
        np.matmul(self.queries_t, block.matrices.transpose(0, 2, 1), out=self.sim)
        for current, similarity in self.folds:
            np.multiply(previous, alpha, current)
            np.add(current, similarity, current)
            previous = current

        best_flat, a_best, upd_flat = self.best_flat, self.a_best, self.upd_flat
        self.upd_rows.argmax(axis=1, out=self.best_idx)
        np.add(self.pair_off, self.best_idx, out=best_flat)
        upd_flat.take(best_flat, out=a_best, mode="clip")
        upd_flat[best_flat] = -np.inf
        np.maximum.reduce(self.upd_rows, 1, None, self.a_second)  # axis, dtype, out
        upd_flat[best_flat] = a_best

        # Eq. 2 above theta, A_best > 0, winner's similarity >= floor.
        score, hit, aux = self.score, self.hit, self.aux
        LookupWorkspace.scores_into(a_best, self.a_second, score, self.nonpos, self.denom)
        np.greater(score, theta, out=hit)
        np.greater(a_best, 0, out=aux)
        np.logical_and(hit, aux, out=hit)
        self.sim_flat.take(best_flat, out=self.sim_best, mode="clip")
        np.greater_equal(self.sim_best_rows, block.floors, out=self.floor_ok)
        np.logical_and(hit, aux, out=hit)  # aux holds floor_ok now


class WalkLayout:
    """Result and carry views of one walk over ``rows`` rows of a cache
    of ``entries`` entries: views of the workspace pools, nothing of its
    own, kept per ``(rows, entries, dtype)``
    (:meth:`LookupWorkspace.walk_layout`).  Every view is filled by each
    walk before it is read, so layouts of different row counts may share
    the pools.  No value may be kept in them across walks: ``row_off``,
    for one, depends on how many levels the walked tensor carries, which
    differs between calls of one row count.
    """

    def __init__(  # repro-lint: kernel
        self, ws: LookupWorkspace, rows: int, entries: int, dtype: np.dtype
    ) -> None:
        self.predicted = ws.ints("walk.predicted", (rows,))
        self.hit_layer = ws.ints("walk.hit_layer", (rows,))
        self.hit_score = ws.floats("walk.hit_score", (rows,), np.float64)
        self.layers_probed = ws.ints("walk.layers_probed", (rows,))
        #: Flat offset of each row's first level in the walked tensor.
        self.row_off = ws.ints("walk.row_off", (rows,))
        #: Eq. 1 ``A`` of the rows still walking, carried between blocks.
        self.acc = ws.floats("walk.acc", (rows, entries), dtype)
        #: The cache's ``alpha`` as a 0-d array of its dtype, which a ufunc
        #: takes with less per-call work than a Python float; the same
        #: factor, as a float32 fold casts a float ``alpha`` to float32.
        self.alpha = ws.floats("walk.alpha", (), dtype)
        if contracts.ENABLED:
            contracts.check_distinct_views(**self.views())

    def views(self) -> dict[str, np.ndarray]:
        """Every view, by name (for the contracts' aliasing checks)."""
        return dict(vars(self))


class LayerBlock(NamedTuple):
    """A run of consecutive activated layers stacked into one tensor.

    Attributes:
        layers: ``(G,)`` cache-layer indices, ascending.
        matrices: read-only ``(G, n, d)`` centroids, ``matrices[g]`` being
            layer ``layers[g]``'s matrix.  It always *is* the layers'
            storage, never a second copy: owned layers installed apart
            are moved into one contiguous tensor when the block is built;
            rows of one owned stack and view-backed ones are aliased.
        floors: ``(G, 1)`` similarity floors in the cache dtype.
        sources: the per-layer matrices an aliasing block spans; it reads
            their memory, so they live as long as it (empty once moved).
    """

    layers: np.ndarray
    matrices: np.ndarray
    floors: np.ndarray
    sources: tuple[np.ndarray, ...]


class LayerPack(NamedTuple):
    """Read-only walk plan of a cache: every activated layer, stacked.

    Attributes:
        ids: the class-id set every activated layer holds (empty for a
            cache with no activated layer).
        blocks: every activated layer, stacked, in walk order.
        levels: fewest levels (axis 1) a query tensor must carry —
            one past the deepest activated layer.
        dim: centroid dimension of the activated layers (0 for a cache
            with no activated layer).
    """

    ids: np.ndarray
    blocks: tuple[LayerBlock, ...]
    levels: int
    dim: int

    def block_of(self, layer: int) -> LayerBlock:
        """One activated layer as a one-layer block (views of its own)."""
        for block in self.blocks:
            for g in np.flatnonzero(block.layers == layer):
                at = slice(g, g + 1)
                parts = block.layers[at], block.matrices[at], block.floors[at]
                return LayerBlock(*parts, block.sources)
        raise KeyError(f"cache layer {layer} is not activated")


class SemanticCache:
    """Per-layer class centroids plus the Eq. 1/2 lookup machinery.

    Args:
        num_classes: size of the class universe (row space of the global
            cache table this cache was extracted from).
        alpha: Eq. 1 decay for previous-layer accumulated similarity.
        theta: Eq. 2 discriminative-score hit threshold, ``>= 0``
            (``inf`` never hits).
        dtype: storage/compute dtype of the probe path (``float32``
            default; ``float64`` is the exact-equivalence mode).
    """

    def __init__(
        self,
        num_classes: int,
        alpha: float = 0.5,
        theta: float = 0.05,
        dtype: DTypeLike = np.float32,
    ) -> None:
        if num_classes < 1:
            raise ValueError(f"num_classes must be >= 1, got {num_classes}")
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        if not theta >= 0:  # NaN too: it would never hit
            raise ValueError(f"theta must be >= 0, got {theta}")
        self.dtype = np.dtype(dtype)
        if self.dtype not in SUPPORTED_DTYPES:
            raise ValueError(
                f"dtype must be one of {[str(d) for d in SUPPORTED_DTYPES]}, "
                f"got {self.dtype}"
            )
        self.num_classes = num_classes
        self.alpha = alpha
        self.theta = theta
        #: The one class-id set every activated layer holds, in the
        #: order of its matrix rows (empty with no activated layer).
        self._ids = np.empty(0, dtype=int)
        #: Activated layer -> its ``(n, d)`` centroid matrix.
        self._layers: dict[int, np.ndarray] = {}
        # Optional per-layer absolute similarity floors: a hit additionally
        # requires the top entry's *current-layer* cosine to reach the
        # floor.  The relative score D alone cannot reject a sample of an
        # uncached class whose nearest cached entry happens to be isolated
        # (large relative gap at modest absolute similarity); the floor —
        # calibrated by the server from true-hit similarities on the
        # shared dataset — closes exactly that hole.
        self._similarity_floor: dict[int, float] = {}
        #: Layers whose centroid matrix is a borrowed read-only view
        #: (e.g. an mmap slice owned by a snapshot store) instead of a
        #: private copy.  A view layer is promoted to RAM by the first
        #: :meth:`set_layer_entries` write.
        self._view_layers: set[int] = set()
        #: Lazily built stacked walk plan (:meth:`layer_pack`); every
        #: mutator of layer storage or floors drops it.
        self._pack: LayerPack | None = None

    # ------------------------------------------------------------------
    # Content management
    # ------------------------------------------------------------------

    def set_layer_entries(
        self, layers: Layers, class_ids: np.ndarray, centroids: Matrices, floors: Floors = None
    ) -> None:
        """Install the entries of one cache layer, or of a stack of layers
        with one id set (replacing any previous).

        Args:
            layers: a cache-layer index, or a sequence of ``G``.
            class_ids: integer array of shape ``(n,)``.
            centroids: float array of shape ``(n, d)``, or ``(G, n, d)``;
                rows are normalized to unit L2 norm (in double precision)
                on insertion, then stored as one C-contiguous tensor in
                the cache dtype, in ascending layer order.
            floors: each layer's similarity floor (-1 is none); ``None``
                keeps the floors set.

        An empty ``class_ids`` deactivates the layers; ids or a width that
        differ from another activated layer's, a negative layer, a floor
        above 1 and a zero or non-finite centroid raise ``ValueError``
        before anything is installed.
        """
        self._install(layers, class_ids, centroids, floors, borrowed=False)

    def set_layer_view(
        self, layers: Layers, class_ids: np.ndarray, centroids: Matrices, floors: Floors = None
    ) -> None:
        """Point one cache layer, or a stack, at borrowed read-only matrices.

        Unlike :meth:`set_layer_entries`, a matrix is **not** copied or
        re-normalized: the cache stores a read-only view of it (typically
        an mmap slice owned by a
        :class:`~repro.store.reader.MappedTableStore`), so untouched
        layer blocks are only faulted in from disk when a probe first
        reaches them.  Rows must therefore already be unit-normalized —
        true for any layer written by the snapshot writer, whose source
        tables keep merged rows normalized.  The first
        :meth:`set_layer_entries` write to a layer replaces its view
        with a private RAM copy.

        Args:
            layers, class_ids, floors: as for :meth:`set_layer_entries`.
            centroids: a C-contiguous ``(n, d)`` matrix, or ``G``, whose
                dtype equals the cache dtype (no silent conversion — a
                cast would copy and defeat the mapping).

        Refuses what :meth:`set_layer_entries` refuses.
        """
        self._install(layers, class_ids, centroids, floors, borrowed=True)

    def _install(
        self, layers: Layers, class_ids: np.ndarray, centroids: Matrices, floors: Floors, *,
        borrowed: bool
    ) -> None:
        """Both installs: every check once per call, then the stores."""
        one = isinstance(layers, (int, np.integer))
        stack: list[int] = np.atleast_1d(layers).tolist()
        for layer in stack:
            _check_layer(layer)
        self._pack = None
        ids = np.asarray(class_ids, dtype=int)
        if borrowed:
            mats = [np.asarray(centroids)] if one else list(centroids)
        else:  # owned rows arrive as one (G, n, d) float64 block
            block = np.asarray(centroids, dtype=np.float64)
            block = block[None] if one else block
            mats = list(block)
        shapes = [np.shape(mat) for mat in mats]
        if ids.ndim != 1 or len(shapes) != len(stack) or any(
            len(shape) != 2 or shape[0] != ids.size for shape in shapes
        ):
            shown = np.shape(centroids) if one else shapes
            raise ValueError(f"shape mismatch: ids {ids.shape}, centroids {shown}")
        if not stack or ids.size == 0:
            self._drop(stack)
            return
        for mat in mats if borrowed else ():
            if mat.dtype != self.dtype:
                raise ValueError(
                    f"view dtype {mat.dtype} does not match cache dtype "
                    f"{self.dtype}; converting would copy — use "
                    f"set_layer_entries for owned storage"
                )
            if not mat.flags.c_contiguous:
                raise ValueError("a layer view must be C-contiguous")
        self._check_entries(stack, ids, [shape[1] for shape in shapes])
        values = None if floors is None else np.broadcast_to(floors, len(stack)).tolist()
        for floor in values or ():
            if not floor <= 1.0:
                raise ValueError(f"floor must be a cosine in [-1, 1], got {floor}")
        if borrowed:
            mats = [mat.view() for mat in mats]
            for mat in mats:
                mat.flags.writeable = False
        else:
            if stack != sorted(stack):  # stored rows ascend with their layers
                order = np.argsort(stack, kind="stable")
                stack, block = [stack[g] for g in order], block[order]
                values = values and [values[g] for g in order]
            norms = np.linalg.norm(block, axis=-1, keepdims=True)
            if not np.isfinite(norms).all():  # a NaN or inf entry spreads here
                raise ValueError("cannot cache a non-finite centroid")
            if np.any(norms < _EPS):
                raise ValueError("cannot cache a zero centroid")
            mats = list(np.ascontiguousarray(block / norms, dtype=self.dtype))
        self._ids = ids.copy()
        for layer, mat in zip(stack, mats):
            self._layers[layer] = mat
            # An owned write replaces any borrowed view: the layer now owns
            # a private RAM copy (the promotion contract of mapped serving).
            (self._view_layers.add if borrowed else self._view_layers.discard)(layer)
            if contracts.ENABLED:
                contracts.check_layer_entries(layer, ids, mat, self.dtype, self.num_classes)
        for layer, floor in zip(stack, values or ()):
            self._similarity_floor[layer] = max(floor, -1.0)

    def _check_entries(self, layers: list[int], ids: np.ndarray, widths: list[int]) -> None:
        """Refuse duplicate or out-of-range ids, and ids or a width that
        differ from another activated layer's (or the stack's first): one
        class-id set, in one order, and one width on every layer."""
        if np.unique(ids).size != ids.size:
            raise ValueError("duplicate class ids in one cache layer")
        if np.any(ids < 0) or np.any(ids >= self.num_classes):
            raise ValueError("class id out of range")
        other = next((j for j in self._layers if j not in layers), layers[0])
        alone = other in layers  # no other activated layer: the stack's first decides
        other_ids, width = (ids, widths[0]) if alone else (self._ids, self._layers[other].shape[1])
        same = other_ids is ids or np.array_equal(ids, other_ids)
        for layer, layer_width in zip(layers, widths):
            if not same or layer_width != width:
                raise ValueError(
                    f"cache layer {layer} ({ids.size} ids, width {layer_width}) differs "
                    f"from layer {other} ({other_ids.size} ids, width {width}): "
                    f"every layer holds the same class ids, in one order, at one width"
                )

    def _drop(self, layers: list[int]) -> None:
        """Deactivate layers; the last one takes the id set with it."""
        for layer in layers:
            self._layers.pop(layer, None)
            self._view_layers.discard(layer)
        if not self._layers:
            self._ids = np.empty(0, dtype=int)

    def view_backed_layers(self) -> list[int]:
        """Layers served from borrowed read-only views (mapped storage)."""
        return sorted(self._view_layers)

    def set_similarity_floor(self, layer: int, floor: float) -> None:
        """Require a minimum top-entry cosine at ``layer`` for a hit."""
        _check_layer(layer)
        if not -1.0 <= floor <= 1.0:
            raise ValueError(f"floor must be a cosine in [-1, 1], got {floor}")
        self._similarity_floor[layer] = float(floor)
        self._pack = None

    def similarity_floor(self, layer: int) -> float:
        """The hit floor at a layer (-1 when none is set)."""
        return self._similarity_floor.get(layer, -1.0)

    def clear(self) -> None:
        self._ids = np.empty(0, dtype=int)
        self._layers.clear()
        self._similarity_floor.clear()
        self._view_layers.clear()
        self._pack = None

    @property
    def active_layers(self) -> list[int]:
        """Activated cache-layer indices in lookup (ascending) order."""
        return sorted(self._layers)

    def num_entries(self, layer: int) -> int:
        return int(self._ids.size) if layer in self._layers else 0

    @property
    def total_entries(self) -> int:
        return int(self._ids.size) * len(self._layers)

    def entries_at(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """(class ids, centroid matrix) of one layer (copies)."""
        if layer not in self._layers:
            raise KeyError(f"cache layer {layer} is not activated")
        return self._ids.copy(), self._layers[layer].copy()

    def size_bytes(self, entry_size_of_layer: Callable[[int], int]) -> int:
        """Total memory under a per-layer entry-size function (Eq. 6)."""
        return int(self._ids.size) * sum(
            int(entry_size_of_layer(layer)) for layer in self._layers
        )

    def content_equal(self, other: "SemanticCache", atol: float = 0.0) -> bool:
        """Whether two caches would serve identical lookups.

        Compares the lookup-relevant state: hyper-parameters (alpha,
        theta, dtype), the activated layers, each layer's (class id,
        centroid) entries, and the per-layer similarity floors.  With
        ``atol=0`` the centroid comparison is exact — the contract a
        replicated server must satisfy (e.g. a 1-shard cluster node
        against the single-server reference).
        """
        if (
            self.num_classes != other.num_classes
            or self.alpha != other.alpha
            or self.theta != other.theta
            or self.dtype != other.dtype
            or self.active_layers != other.active_layers
            or not np.array_equal(self._ids, other._ids)
        ):
            return False
        for layer in self.active_layers:
            mat_a, mat_b = self._layers[layer], other._layers[layer]
            if atol == 0.0:
                if not np.array_equal(mat_a, mat_b):
                    return False
            elif not np.allclose(mat_a, mat_b, atol=atol, rtol=0.0):
                return False
            floor_gap = abs(
                self.similarity_floor(layer) - other.similarity_floor(layer)
            )
            if floor_gap > atol:
                return False
        return True

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def layer_pack(self) -> LayerPack:
        """The cache's stacked walk plan, built on first use.

        Building a pack copies nothing for view-backed layers and rows of
        one owned stack (blocks alias them) and moves each run of owned
        layers installed apart into one contiguous ``(G, n, d)`` tensor
        that becomes their storage, so a pack never holds a second copy.  The plan is
        dropped by every mutator
        (:meth:`set_layer_entries`, :meth:`set_layer_view`,
        :meth:`set_similarity_floor`, :meth:`clear`) and rebuilt by the
        next call.
        """
        pack = self._pack
        if pack is None:
            pack = self._build_layer_pack()
            self._pack = pack
        return pack

    def _build_layer_pack(self) -> LayerPack:
        active = self.active_layers
        if not active:
            return LayerPack(self._ids, (), 0, 0)
        levels, dim = active[-1] + 1, int(self._layers[active[0]].shape[1])
        runs: list[list[int]] = []
        for layer in active:
            if runs and self._extends_run(runs[-1], layer):
                runs[-1].append(layer)
            else:
                runs.append([layer])
        blocks = tuple(self._stack_block(run) for run in runs)
        pack = LayerPack(self._ids, blocks, levels, dim)
        if contracts.ENABLED:
            contracts.check_layer_pack(
                [(b.layers, b.matrices, b.floors) for b in blocks],
                self._layers,
                self.similarity_floor,
            )
        return pack

    def _extends_run(self, run: list[int], layer: int) -> bool:
        """Whether one tensor can hold ``layer`` after the layers of ``run``.

        Up to :data:`PACK_BLOCK_LAYERS`, owned layers always stack (they
        are aliased or moved).  Borrowed layers stack only without a copy: their
        matrices must sit at one constant, non-overlapping stride in
        memory — true of the layers of one snapshot shard, false across
        a shard boundary.
        """
        borrowed = layer in self._view_layers
        if len(run) == PACK_BLOCK_LAYERS or borrowed != (
            run[-1] in self._view_layers
        ):
            return False
        if not borrowed:
            return True
        head, last, mat = (self._layers[j] for j in (run[0], run[-1], layer))
        gap = _address(mat) - _address(last)
        if len(run) == 1:
            return gap >= head.nbytes and gap % head.itemsize == 0
        return gap * (len(run) - 1) == _address(last) - _address(head)

    def _stack_block(self, run: list[int]) -> LayerBlock:
        """One :class:`LayerBlock` over a run :meth:`_extends_run` grew."""
        sources = tuple(self._layers[layer] for layer in run)
        head, base = sources[0], sources[0].base
        span = _address(sources[-1]) - _address(head)
        # Borrowed runs sit at one stride; owned rows of one stack do when
        # consecutive, and their rows ascend, so the first and last decide.
        if run[0] in self._view_layers or (
            base is not None
            and span == (len(run) - 1) * head.nbytes
            and all(mat.base is base for mat in sources)
        ):
            matrices = np.lib.stride_tricks.as_strided(
                head,
                shape=(len(run), *head.shape),
                strides=(span // max(len(run) - 1, 1), *head.strides),
                writeable=False,
            )
        else:
            # Owned layers installed apart move into the block: each
            # layer's storage becomes its row, so the pack is no second
            # resident copy.
            matrices = np.stack(sources)
            matrices.flags.writeable = False
            for row, layer in zip(matrices, run):
                self._layers[layer] = row
            sources = ()
        floors = np.array(
            [[self.similarity_floor(layer)] for layer in run], dtype=self.dtype
        )
        return LayerBlock(np.array(run, dtype=np.intp), matrices, floors, sources)

    def start_batch_session(
        self, batch_size: int, workspace: LookupWorkspace | None = None
    ) -> "BatchedLookupSession":
        """Begin a vectorized lookup over a batch of concurrent inferences.

        Pass a long-lived :class:`LookupWorkspace` (e.g. the engine's) to
        reuse probe buffers across sessions; without one the session
        allocates a private workspace.
        """
        return BatchedLookupSession(self, batch_size, workspace=workspace)

    def __repr__(self) -> str:
        layers = {j: self.num_entries(j) for j in self.active_layers}
        return (
            f"SemanticCache(theta={self.theta}, dtype={self.dtype.name}, "
            f"layers={layers})"
        )


@dataclass(frozen=True)
class BatchLayerProbe:
    """Outcome of probing one cache layer for a batch of samples.

    All arrays are aligned with ``rows`` (the batch rows probed): the
    class with the highest accumulated similarity, the runner-up (``-1``
    on a single-entry layer), the Eq. 2 score and whether the row hit.
    """

    layer: int
    rows: np.ndarray
    top_class: np.ndarray
    second_class: np.ndarray
    score: np.ndarray
    hit: np.ndarray


class BatchedLookupSession:
    """Eq. 1/2 accumulation for a batch of concurrent inferences, one
    cache layer per :meth:`probe`.

    Holds ``A`` of every (row, cached class) pair as one ``(batch, n)``
    matrix in the cache dtype, over the cache's :class:`LayerPack` as it
    was when the session started.  A probe is one depth-1
    :meth:`StackLayout.step` over the probed rows, their ``A`` rows
    gathered before it and written back after; only the per-row result
    arrays of each :class:`BatchLayerProbe` are freshly allocated.
    """

    def __init__(
        self,
        cache: SemanticCache,
        batch_size: int,
        workspace: LookupWorkspace | None = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self._cache = cache
        self._pack = cache.layer_pack()
        self.batch_size = batch_size
        self._workspace = workspace if workspace is not None else LookupWorkspace()
        self._accumulated = np.zeros(
            (batch_size, self._pack.ids.size), dtype=cache.dtype
        )

    def accumulated_score(self, row: int, class_id: int) -> float:
        """Current ``A`` value of a class for one batch row (0 for a
        class the cache does not hold)."""
        column = np.flatnonzero(self._pack.ids == class_id)
        return float(self._accumulated[row, column[0]]) if column.size else 0.0

    def probe(
        self, layer: int, vectors: np.ndarray, rows: np.ndarray | None = None
    ) -> BatchLayerProbe:
        """Probe one activated layer for a subset of batch rows.

        Args:
            layer: activated cache layer to probe.
            vectors: ``(n, d)`` semantic vectors of the probed samples.
            rows: batch-row index of each vector (default: all rows, in
                which case ``n`` must equal the batch size).
        """
        cache, pack, ws = self._cache, self._pack, self._workspace
        block = pack.block_of(layer)
        vecs = np.asarray(vectors)
        rows = np.arange(self.batch_size) if rows is None else np.asarray(rows, dtype=int)
        if vecs.shape != (rows.size, pack.dim):
            raise ValueError(
                f"vectors shape {vecs.shape} does not match ({rows.size}, {pack.dim})"
            )
        m, n = rows.size, pack.ids.size
        s = ws.stack_layout(m, 1, n, pack.dim, cache.dtype, cache.dtype)
        np.copyto(s.queries.reshape(m, pack.dim), vecs, casting="unsafe")
        previous = ws.floats("session.previous", (m, n), cache.dtype)
        np.take(self._accumulated, rows, axis=0, out=previous)
        s.step(previous, block, cache.alpha, cache.theta)
        self._accumulated[rows] = s.final
        # The runner-up as the step finds it: the winner masked, the
        # first index of the largest rest.
        masked = s.final.copy()
        masked[np.arange(m), s.best_idx] = -np.inf
        second_class = pack.ids[masked.argmax(axis=1)]
        second_class[np.isneginf(s.a_second)] = -1
        return BatchLayerProbe(
            layer=layer,
            rows=rows,
            top_class=pack.ids[s.best_idx],
            second_class=second_class,
            score=s.score.copy(),
            hit=s.hit.copy(),
        )
