"""Pure batched cache-walk: probe math with no model, profile or clock.

The cache-instrumented inference loop has two halves.  The *probe
math* — score each activated layer against the still-unresolved rows,
apply Eq. 1/2, mask out rows that hit — needs only a
:class:`SemanticCache` and the query vectors.  The *orchestration*
around it — charging profile latencies, classifying misses with the
simulated model, collecting training pairs — needs the whole client
stack.

:func:`walk_cache_batch` is the first half on its own.  The batched
engine builds its latency accounting on top of it (hit layers determine
the charged compute prefix and the lookup-cost sum), and the serving
workers of :mod:`repro.serve` call it directly: a worker process
rebuilds a view-backed cache from a snapshot path and walks it — no
model object, no pickled tables, nothing but the mapped centroid bytes.

Every cache holds one class-id set on each of its activated layers, so
every cache stacks into a :class:`~repro.core.cache.LayerPack` and one
kernel walks them all: :func:`_walk_stacked` scores a whole block of
consecutive layers per :meth:`~repro.core.cache.StackLayout.step` — one
batched product — and resolves every row to its first hitting layer
afterwards, early exit kept in the answer, not in the control flow,
which removes the per-layer interpreter overhead that is nearly all of a
single-frame walk.  Its reference is ``walk_layers`` in
``tests/oracle.py``, a plain loop over the layers: the decisions are
equal, and ``hit_score`` is bit-equal for a single frame and for a
batch no row leaves mid-block, and equal to the last bits otherwise.
See "Stacked walk" in ``src/repro/core/README.md``.

For rows that miss every layer the walk still reports the deepest
layer's top class as ``miss_guess``: the best answer the cache alone
can give.  The engine ignores it (misses run the full model); a serving
worker returns it as the cache-served approximate prediction.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro import contracts
from repro.core.cache import LayerPack, LookupWorkspace, SemanticCache, WalkLayout


class CacheWalk(NamedTuple):
    """Outcome arrays of one batched cache walk.

    All arrays are ``(B,)`` views into the workspace pools — valid until
    the next walk on the same workspace; ``.copy()`` to retain longer.

    Attributes:
        predicted: top class per row — the hit layer's winner for rows
            that hit, the deepest probed layer's winner (``miss_guess``)
            for rows that missed everywhere, ``-1`` if nothing was
            probed at all (cache with no active layers).
        hit_layer: cache layer that hit, ``-1`` on miss.
        hit_score: Eq. 2 score at the hit layer, ``np.nan`` on miss.
        layers_probed: number of activated layers each row probed
            (early exit stops the count at the hit layer).
    """

    predicted: np.ndarray
    hit_layer: np.ndarray
    hit_score: np.ndarray
    layers_probed: np.ndarray

    @property
    def hit(self) -> np.ndarray:
        """Boolean hit mask, ``(B,)``."""
        hit_mask: np.ndarray = self.hit_layer >= 0
        return hit_mask


def walk_cache_batch(
    cache: SemanticCache,
    vectors: np.ndarray,
    workspace: LookupWorkspace,
) -> CacheWalk:
    """Probe every activated cache layer over a batch, with early exit.

    The stacked kernel walks the cache's
    :meth:`~repro.core.cache.SemanticCache.layer_pack` a block at a time.
    The decisions (``predicted`` / ``hit_layer`` / ``layers_probed``) are
    those of probing each row's layers one at a time; ``hit_score`` is
    bit-equal to such a loop's for a single frame and for a batch no row
    leaves mid-block, and may differ from it in the last bits otherwise
    (the BLAS rounds a row of a small product by its row count).

    Args:
        vectors: ``(B, L+1, d)`` per-layer query tensor; row index along
            axis 1 is the model layer id, matching the cache's layer
            indexing.  Cast to the cache dtype at most once.
        workspace: probe buffer pool; the returned arrays live in it.

    Returns:
        A :class:`CacheWalk` with one entry per batch row.

    Raises:
        ValueError: ``vectors`` is not 3-D, has fewer levels than the
            deepest activated layer needs, or another feature dimension
            than the cached centroids.
    """
    return _walk_fitted(cache, check_fit(cache, vectors), vectors, workspace)


def _walk_fitted(
    cache: SemanticCache,
    pack: LayerPack,
    vectors: np.ndarray,
    workspace: LookupWorkspace,
) -> CacheWalk:
    """:func:`walk_cache_batch` of ``vectors`` that :func:`check_fit`
    passed, ``pack`` being the layer pack it returned."""
    batch = vectors.shape[0]
    w = workspace.walk_layout(batch, pack.ids.size, cache.dtype)
    w.predicted.fill(-1)
    w.hit_layer.fill(-1)
    w.hit_score.fill(np.nan)
    w.layers_probed.fill(0)
    if batch and pack.levels:
        _walk_stacked(cache, pack, vectors, workspace, w)
    return CacheWalk(w.predicted, w.hit_layer, w.hit_score, w.layers_probed)


def check_fit(cache: SemanticCache, vectors: np.ndarray) -> LayerPack:
    """Raise the walk's ``ValueError`` unless ``vectors`` fits ``cache``.

    Returns the cache's layer pack, whose ``levels`` are all a walk reads
    of axis 1.
    """
    if vectors.ndim != 3:
        raise ValueError(
            f"expected a (B, L+1, d) vector tensor, got shape {vectors.shape}"
        )
    pack = cache.layer_pack()
    if pack.levels and (
        vectors.shape[1] < pack.levels or vectors.shape[2] != pack.dim
    ):
        raise ValueError(
            f"query tensor of shape {vectors.shape} does not fit the cache: "
            f"expected (B, >= {pack.levels}, {pack.dim}) — its deepest "
            f"activated layer is {pack.levels - 1}, its centroid dim "
            f"{pack.dim}"
        )
    return pack


def _walk_stacked(  # repro-lint: kernel
    cache: SemanticCache,
    pack: LayerPack,
    vectors: np.ndarray,
    workspace: LookupWorkspace,
    w: WalkLayout,
) -> None:
    """Walk the pack, one block of layers per iteration.

    Per block, for the ``m`` rows no earlier block resolved: gather their
    ``(m, G, d)`` levels, run the block's
    :meth:`~repro.core.cache.StackLayout.step` for all ``G * m`` (layer,
    row) pairs, and resolve each row to its *first* hitting layer.  A
    row's layers past its hit are scored and discarded; between blocks
    resolved rows drop out.
    """
    ws = workspace
    predicted, hit_layer, hit_score = w.predicted, w.hit_layer, w.hit_score
    layers_probed, row_off, acc = w.layers_probed, w.row_off, w.acc
    batch, levels, dim = vectors.shape
    ids = pack.ids
    n = ids.size
    level_rows = vectors.reshape(batch * levels, dim)
    alive = ws.arange(batch)
    # Filled per walk: the levels of a walked tensor vary for one row count.
    np.multiply(alive, levels, row_off)
    acc.fill(0)
    w.alpha.fill(cache.alpha)
    for block in pack.blocks:
        m = alive.size
        depth = block.layers.size
        s = ws.stack_layout(m, depth, n, dim, vectors.dtype, cache.dtype)
        if contracts.ENABLED:
            step_views = {"sim": s.sim, "upd": s.upd, "final": s.final}
            contracts.check_distinct_views(**w.views(), apart_from=step_views)
        np.add(row_off[:, None], block.layers, out=s.gather)
        level_rows.take(s.gather, axis=0, out=s.raw, mode="clip")
        if s.queries is not s.raw:
            np.copyto(s.queries, s.raw, casting="unsafe")
        s.step(acc[:m], block, w.alpha, cache.theta)

        # Resolve each row to its first hitting layer of the block, or
        # to the block's last layer (the running miss guess).
        resolved, missed, stop, at = s.resolved, s.missed, s.stop, s.at
        s.hits.any(axis=0, out=resolved)
        np.logical_not(resolved, out=missed)
        s.hits.argmax(axis=0, out=stop)
        stop[missed] = depth - 1
        np.multiply(stop, m, out=at)
        np.add(at, s.columns, out=at)
        s.best_idx.take(at, out=s.top, mode="clip")
        predicted[alive] = ids[s.top]
        np.add(stop, 1, out=stop)
        layers_probed[alive] += stop
        if missed.all():
            np.copyto(acc[:m], s.final)
            continue
        hitters = alive[resolved]
        hit_layer[hitters] = block.layers[stop[resolved] - 1]
        hit_score[hitters] = s.score[at[resolved]]
        alive = alive[missed]
        if alive.size == 0:
            break
        row_off = row_off[missed]
        np.compress(missed, s.final, axis=0, out=acc[: alive.size])
