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

The walk has two kernels behind that one entry point, and one walk runs
exactly one of them, chosen by the cache's structure alone.  The
*stacked* kernel (:func:`_walk_stacked`) scores a whole block of
consecutive layers in one batched product and resolves every row to its
first hitting layer afterwards — early exit kept in the answer, not in
the control flow — which removes the per-layer interpreter overhead that
is nearly all of a single-frame walk.  It walks every cache whose
:class:`~repro.core.cache.LayerPack` is complete: all activated layers
hold at least two entries of one shared id set, which is every cache ACA
extracts from a fully initialized table and every snapshot serving
cache — all rows of all four ``bench`` workloads and of the
``benchmarks/`` fig/table runs.  The *per-layer* loop
(:func:`_walk_layers`) advances one layer per iteration through a
:class:`~repro.core.cache.BatchedLookupSession`; it is the whole walk of
any cache the stacked kernel cannot hold (diverging id sets,
single-entry layers, partially filled snapshots), and the equivalence
suite forces it on every cache as the stacked kernel's reference.  Both
kernels take the
same decisions; ``hit_score`` is bit-equal between them for a single
frame and for a batch no row leaves mid-block, and equal to the last
bits otherwise.  See "Stacked walk" in ``src/repro/core/README.md``.

For rows that miss every layer the walk still reports the deepest
layer's top class as ``miss_guess``: the best answer the cache alone
can give.  The engine ignores it (misses run the full model); a serving
worker returns it as the cache-served approximate prediction.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro import contracts
from repro.core.cache import LayerPack, LookupWorkspace, SemanticCache


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

    A cache with a complete
    :meth:`~repro.core.cache.SemanticCache.layer_pack` goes through the
    stacked kernel a block at a time, any other through the per-layer
    loop.  Either way the decisions (``predicted`` /
    ``hit_layer`` / ``layers_probed``) are those of the loop;
    ``hit_score`` is bit-equal to the loop's for a single frame and for
    a batch no row leaves mid-block, and may differ from it in the last
    bits otherwise (the BLAS rounds a row of a small product by its row
    count).

    Args:
        vectors: ``(B, L+1, d)`` per-layer query tensor; row index along
            axis 1 is the model layer id, matching the cache's layer
            indexing.  Cast to the cache dtype at most once.
        workspace: probe buffer pool; the returned arrays live in it.

    Returns:
        A :class:`CacheWalk` with one entry per batch row: the decisions
        of probing that row's layers one at a time.

    Raises:
        ValueError: ``vectors`` is not 3-D, has fewer levels than the
            deepest activated layer needs, or another feature dimension
            than the cached centroids.
    """
    walk, pack = _begin_walk(cache, vectors, workspace)
    if vectors.shape[0] == 0 or pack.levels == 0:
        return walk
    if pack.ids is None:
        _walk_layers(cache, vectors, workspace, walk)
    else:
        _walk_stacked(cache, pack, vectors, workspace, walk)
    return walk


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


def _begin_walk(
    cache: SemanticCache, vectors: np.ndarray, workspace: LookupWorkspace
) -> tuple[CacheWalk, LayerPack]:
    """Check the request geometry against the cache once, and hand out
    the walk's result arrays in their no-layer-probed state."""
    pack = check_fit(cache, vectors)
    batch = vectors.shape[0]
    walk = CacheWalk(
        predicted=workspace.ints("walk.predicted", (batch,)),
        hit_layer=workspace.ints("walk.hit_layer", (batch,)),
        hit_score=workspace.floats("walk.hit_score", (batch,), np.float64),
        layers_probed=workspace.ints("walk.layers_probed", (batch,)),
    )
    walk.predicted.fill(-1)
    walk.hit_layer.fill(-1)
    walk.hit_score.fill(np.nan)
    walk.layers_probed.fill(0)
    return walk, pack


def _walk_layers(
    cache: SemanticCache,
    vectors: np.ndarray,
    workspace: LookupWorkspace,
    walk: CacheWalk,
) -> None:
    """The per-layer loop over the activated layers, writing into ``walk``."""
    batch = vectors.shape[0]
    predicted, hit_layer, hit_score, layers_probed = walk
    session = cache.start_batch_session(batch, workspace=workspace)
    probe_vectors = vectors.astype(cache.dtype, copy=False)
    alive = workspace.arange(batch)
    dim = probe_vectors.shape[-1]
    for layer in cache.active_layers:
        layers_probed[alive] += 1
        gathered = workspace.floats("walk.take", (alive.size, dim), cache.dtype)
        np.take(probe_vectors[:, layer, :], alive, axis=0, out=gathered)
        result = session.probe(layer, gathered, rows=alive)
        # Record the current winner for every still-alive row: rows that
        # hit keep it as the final prediction, rows that go on miss-ing
        # end up with the deepest layer's guess.
        predicted[alive] = result.top_class
        if result.hit.any():
            hitters = alive[result.hit]
            hit_layer[hitters] = layer
            hit_score[hitters] = result.score[result.hit]
            alive = alive[~result.hit]
            if alive.size == 0:
                break


def _walk_stacked(  # repro-lint: kernel
    cache: SemanticCache,
    pack: LayerPack,
    vectors: np.ndarray,
    workspace: LookupWorkspace,
    walk: CacheWalk,
) -> None:
    """Walk a complete pack, one block of layers per iteration.

    Per block, for the ``m`` rows no earlier block resolved: gather their
    ``(m, G, d)`` levels, score all ``G`` layers in one batched product
    (per layer the loop's own ``(m, d) @ (d, n)``), fold Eq. 1 down the
    layer axis in the loop's order (``A_g = alpha * A_{g-1} + C_g``, one
    multiply and one add per layer), take top-2, Eq. 2 and the floor
    check for all ``G * m`` (layer, row) pairs at once, and resolve each
    row to its *first* hitting layer.  A row's layers past its hit are
    scored and discarded; between blocks resolved rows drop out.
    """
    ws = workspace
    dtype = cache.dtype
    alpha, theta = cache.alpha, cache.theta
    predicted, hit_layer, hit_score, layers_probed = walk
    batch, levels, dim = vectors.shape
    ids = pack.ids
    assert ids is not None
    n = ids.size
    level_rows = vectors.reshape(batch * levels, dim)
    alive = ws.arange(batch)
    row_off = ws.ints("stack.row_off", (batch,))
    np.multiply(alive, levels, out=row_off)
    acc = ws.floats("stack.acc", (batch, n), dtype)
    acc.fill(0)
    for block in pack.blocks:
        m = alive.size
        depth = block.layers.size
        s = ws.stack_layout(m, depth, n, dim, vectors.dtype, dtype)
        if contracts.ENABLED:
            contracts.check_distinct_views(acc=acc, sim=s.sim, upd=s.upd)

        np.add(row_off[:, None], block.layers, out=s.gather)
        level_rows.take(s.gather, axis=0, out=s.raw, mode="clip")
        if s.queries is not s.raw:
            np.copyto(s.queries, s.raw, casting="unsafe")
        np.matmul(s.queries_t, block.matrices.transpose(0, 2, 1), out=s.sim)
        previous = acc[:m]
        for current, similarity in s.folds:
            np.multiply(previous, alpha, out=current)
            np.add(current, similarity, out=current)
            previous = current

        # Top-2 of every pair's A row, as LookupWorkspace.top2 takes it
        # (winner, mask it, runner-up, restore).
        best_idx, best_flat, second_flat = s.best_idx, s.best_flat, s.second_flat
        a_best, upd_flat = s.a_best, s.upd_flat
        np.multiply(s.pair_index, n, out=s.pair_off)
        s.upd_rows.argmax(axis=1, out=best_idx)
        np.add(s.pair_off, best_idx, out=best_flat)
        upd_flat.take(best_flat, out=a_best, mode="clip")
        upd_flat[best_flat] = -np.inf
        s.upd_rows.argmax(axis=1, out=second_flat)
        np.add(s.pair_off, second_flat, out=second_flat)
        upd_flat.take(second_flat, out=s.a_second, mode="clip")
        upd_flat[best_flat] = a_best

        # Eq. 2 above theta, A_best > 0, winner's similarity >= floor.
        score, hit, aux = s.score, s.hit, s.aux
        ws.scores_into(a_best, s.a_second, score)
        np.greater(score, theta, out=hit)
        np.greater(a_best, 0, out=aux)
        np.logical_and(hit, aux, out=hit)
        s.sim_flat.take(best_flat, out=s.sim_best, mode="clip")
        np.greater_equal(s.sim_best_rows, block.floors, out=s.floor_ok)
        np.logical_and(hit, aux, out=hit)  # aux holds floor_ok now

        # Resolve each row to its first hitting layer of the block, or
        # to the block's last layer (the running miss guess).
        resolved, missed, stop, at = s.resolved, s.missed, s.stop, s.at
        s.hits.any(axis=0, out=resolved)
        np.logical_not(resolved, out=missed)
        s.hits.argmax(axis=0, out=stop)
        stop[missed] = depth - 1
        np.multiply(stop, m, out=at)
        np.add(at, s.columns, out=at)
        best_idx.take(at, out=s.top, mode="clip")
        predicted[alive] = ids[s.top]
        np.add(stop, 1, out=stop)
        layers_probed[alive] += stop
        if missed.all():
            np.copyto(acc[:m], previous)
            continue
        hitters = alive[resolved]
        hit_layer[hitters] = block.layers[stop[resolved] - 1]
        hit_score[hitters] = score[at[resolved]]
        alive = alive[missed]
        if alive.size == 0:
            break
        row_off = row_off[missed]
        np.compress(missed, previous, axis=0, out=acc[: alive.size])
