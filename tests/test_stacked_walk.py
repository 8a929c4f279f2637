"""Equivalence of the stacked walk kernel and the per-layer loop.

``walk_cache_batch`` walks every cache with the stacked kernel, a block
of layers at a time; ``oracle.walk_layers`` (``tests/oracle.py``) is the
same walk written as a plain loop over the layers.  Every case here
walks the same cache with the same queries through both and requires
the same decisions — ``predicted`` / ``hit_layer`` / ``layers_probed``
exactly equal — and the same ``hit_score`` as far as the BLAS allows.

That is bit for bit wherever the two issue the same BLAS calls: always
at ``B = 1``, and at ``B > 1`` whenever no row leaves the batch before
a block's last layer (the loop then multiplies the same ``(m, d)`` row
set the block does).  When rows do leave mid-block, the loop's later
products run on fewer rows, and OpenBLAS's small-matrix kernels do not
compute a row identically at different row counts; those cases compare
scores to the dtype's rounding only, so scores are *not* bit-equal on
every batch, and equal decisions on such a batch are
what these cases observe, not something the arithmetic guarantees for a
score within rounding of theta (see "Stacked walk" in
``src/repro/core/README.md``).
"""

from __future__ import annotations

import threading
from functools import partial
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle

from repro import contracts
from repro.cluster import ClusterFramework
from repro.core import probe
from repro.core.cache import PACK_BLOCK_LAYERS, LookupWorkspace, SemanticCache
from repro.core.config import CoCaConfig
from repro.core.framework import CoCaFramework
from repro.core.probe import CacheWalk, walk_cache_batch
from repro.core.server import CoCaServer, GlobalCacheTable, calibrate
from repro.data.datasets import get_dataset
from repro.models.zoo import build_model
from repro.serve import (
    WorkerOptions,
    WorkerState,
    serve_requests,
    shutdown_worker,
)
from repro.serve.worker import _walk_together
from repro.store import MappedTableStore, SnapshotFormatError, write_snapshot

DTYPES = (np.float32, np.float64)
BATCHES = (1, 2, 7, 64, 300)


def unit(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


class Scene:
    """Class-structured centroids and queries that hit at varied depths.

    Layer ``l``'s centroid of class ``c`` is a shared class direction plus
    a layer-specific offset; a query is its class's centroid plus noise
    that shrinks with depth, so easy frames exit early and hard ones
    late; every fifth frame is a direction of no class, which a floor
    keeps from hitting anywhere.
    """

    def __init__(self, seed: int, classes: int = 12, layers: int = 6, dim: int = 16):
        self.rng = np.random.default_rng(seed)
        self.classes, self.layers, self.dim = classes, layers, dim
        base = self.rng.standard_normal((classes, 1, dim))
        offsets = 0.5 * self.rng.standard_normal((classes, layers, dim))
        self.centroids = unit(base + offsets)  # (classes, layers, dim)

    def queries(self, batch: int, dtype: type = np.float64) -> np.ndarray:
        labels = self.rng.integers(self.classes, size=batch)
        noise = self.rng.standard_normal((batch, self.layers, self.dim))
        scale = self.rng.uniform(0.05, 1.2, size=(batch, 1, 1))
        depth = np.linspace(1.0, 0.3, self.layers)[None, :, None]
        vectors = self.centroids[labels] + scale * depth * noise
        vectors[4::5] = noise[4::5]
        return np.ascontiguousarray(unit(vectors), dtype=dtype)

    def cache(
        self,
        dtype: type = np.float64,
        floors: bool = False,
        theta: float = 0.3,
        layers: list[int] | None = None,
        ids_of: dict[int, np.ndarray] | None = None,
    ) -> SemanticCache:
        cache = SemanticCache(self.classes, alpha=0.5, theta=theta, dtype=dtype)
        for layer in range(self.layers) if layers is None else layers:
            ids = np.arange(self.classes)
            if ids_of is not None and layer in ids_of:
                ids = ids_of[layer]
            cache.set_layer_entries(layer, ids, self.centroids[ids, layer])
            if floors:
                # Capped: a floor is a cosine, and scenes go 37 layers deep.
                cache.set_similarity_floor(layer, min(0.5 + 0.02 * layer, 0.9))
        return cache


def both_walks(
    cache: SemanticCache, vectors: np.ndarray
) -> tuple[CacheWalk, CacheWalk]:
    """(stacked walk, as owned copies; per-layer reference)."""
    with LookupWorkspace() as workspace:
        new = CacheWalk(*(a.copy() for a in walk_cache_batch(cache, vectors, workspace)))
    return new, oracle.walk_layers(cache, vectors)


def assert_same_walk(new: CacheWalk, ref: CacheWalk, dtype: type, bitwise: bool) -> None:
    assert np.array_equal(new.predicted, ref.predicted)
    assert np.array_equal(new.hit_layer, ref.hit_layer)
    assert np.array_equal(new.layers_probed, ref.layers_probed)
    assert new.hit_score.dtype == ref.hit_score.dtype == np.float64
    if bitwise:
        assert new.hit_score.tobytes() == ref.hit_score.tobytes()
    else:
        # Eq. 2 divides a difference of two rounded O(1) sums by the
        # smaller one, b: an ulp in either moves (a - b) / b by about
        # eps * (1 + score) / b, and 1 / b is about (1 + score) / a with a = O(1).
        bound = 64 * float(np.finfo(dtype).eps) * (1.0 + np.abs(ref.hit_score)) ** 2
        assert np.array_equal(np.isnan(new.hit_score), np.isnan(ref.hit_score))
        assert not (np.abs(new.hit_score - ref.hit_score) > bound).any()


# ----------------------------------------------------------------------
# Dense caches: the stacked kernel against the loop
# ----------------------------------------------------------------------


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("floors", (False, True))
@pytest.mark.parametrize("batch", BATCHES)
def test_stacked_equals_loop(dtype, floors, batch):
    scene = Scene(seed=batch)
    cache = scene.cache(dtype=dtype, floors=floors)
    pack = cache.layer_pack()
    assert [b.layers.tolist() for b in pack.blocks] == [list(range(6))]
    vectors = scene.queries(batch, dtype)
    new, ref = both_walks(cache, vectors)
    assert_same_walk(new, ref, dtype, bitwise=batch == 1)
    if batch >= 64:
        # The scene must exercise early exits at several depths and misses.
        assert len(set(ref.hit_layer.tolist())) >= 4
        assert (ref.hit_layer == -1).any() or not floors


@pytest.mark.parametrize("dtype", DTYPES)
def test_single_frames_are_bit_equal(dtype):
    scene = Scene(seed=3, layers=9)
    cache = scene.cache(dtype=dtype, floors=True)
    frames = scene.queries(200, dtype)
    seen = set()
    for row in range(frames.shape[0]):
        new, ref = both_walks(cache, frames[row : row + 1])
        assert_same_walk(new, ref, dtype, bitwise=True)
        seen.add(int(ref.hit_layer[0]))
    assert len(seen) >= 5


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("batch", (2, 7, 64))
def test_batches_without_mid_block_exits_are_bit_equal(dtype, batch):
    """All rows alive through every layer of the block: the loop issues
    the block's own products, so even the scores agree bit for bit."""
    scene = Scene(seed=11)
    vectors = scene.queries(batch, dtype)
    # Nothing can hit: every row walks the whole block in both kernels.
    new, ref = both_walks(scene.cache(dtype=dtype, theta=1e6), vectors)
    assert (ref.hit_layer == -1).all()
    assert_same_walk(new, ref, dtype, bitwise=True)
    # One frame repeated: every row hits at the same layer.
    clones = np.ascontiguousarray(np.repeat(vectors[:1], batch, axis=0))
    new, ref = both_walks(scene.cache(dtype=dtype, theta=0.05), clones)
    assert (ref.hit_layer >= 0).all()
    assert_same_walk(new, ref, dtype, bitwise=True)


@pytest.mark.parametrize("dtype", DTYPES)
def test_queries_in_another_dtype_are_cast_once(dtype):
    scene = Scene(seed=5)
    cache = scene.cache(dtype=dtype)
    other = np.float64 if dtype is np.float32 else np.float32
    vectors = scene.queries(1, other)
    new, ref = both_walks(cache, vectors)
    assert_same_walk(new, ref, dtype, bitwise=True)


def test_non_contiguous_queries():
    scene = Scene(seed=6)
    cache = scene.cache()
    wide = scene.queries(7)
    strided = np.asfortranarray(wide)
    assert not strided.flags.c_contiguous
    new, _ = both_walks(cache, strided)
    expected, _ = both_walks(cache, wide)
    assert_same_walk(new, expected, np.float64, bitwise=True)


def test_dispatch_is_structural(monkeypatch):
    """Every walk is the stacked kernel, whatever the batch size or the
    cache's class set: no per-layer session is opened and no thread
    started."""
    sessions, threads, stacked = [], [], []
    start_session = SemanticCache.start_batch_session
    monkeypatch.setattr(
        SemanticCache,
        "start_batch_session",
        lambda *a, **kw: sessions.append(1) or start_session(*a, **kw),
    )
    monkeypatch.setattr(threading.Thread, "start", lambda self: threads.append(self))
    walk_stacked = probe._walk_stacked
    monkeypatch.setattr(
        probe, "_walk_stacked", lambda *a: stacked.append(1) or walk_stacked(*a)
    )
    scene = Scene(seed=7)
    fewer = np.arange(0, scene.classes, 2)
    caches = (scene.cache(), scene.cache(floors=True, ids_of=dict.fromkeys(range(6), fewer)))
    with LookupWorkspace() as workspace:
        for cache in caches:
            for batch in (1, 31, 32, 64, 300):
                walk = walk_cache_batch(cache, scene.queries(batch), workspace)
                assert (walk.layers_probed > 0).all()
    assert len(stacked) == 10 and sessions == [] and threads == []


@pytest.mark.parametrize("dtype", DTYPES)
def test_decisions_on_the_threshold(dtype):
    """Theta one ulp below, on and one ulp above a frame's own score:
    where the kernels' scores are bit-equal (a single frame, a batch of
    its clones) they flip the decision at the same ulp."""
    scene = Scene(seed=13, layers=9)
    cache = scene.cache(dtype=dtype)
    frames = scene.queries(30, dtype)
    _, base = both_walks(cache, frames)
    rows = np.flatnonzero(base.hit_layer >= 0)
    assert rows.size >= 10
    for row in rows:
        frame = frames[row : row + 1]
        _, alone = both_walks(cache, frame)
        score = dtype(alone.hit_score[0])
        below, above = np.nextafter(score, dtype(-np.inf)), np.nextafter(score, dtype(np.inf))
        for theta in (below, score, above):
            cache.theta = float(theta)
            new, ref = both_walks(cache, frame)
            assert_same_walk(new, ref, dtype, bitwise=True)
            # Eq. 2 is strict: the frame's own score is not above itself.
            assert (ref.hit_layer[0] == alone.hit_layer[0]) == (theta == below)
            clones = np.ascontiguousarray(np.repeat(frame, 7, axis=0))
            new, ref = both_walks(cache, clones)
            assert_same_walk(new, ref, dtype, bitwise=True)
        cache.theta = 0.3


# ----------------------------------------------------------------------
# Class sets: any size >= 1, one per cache
# ----------------------------------------------------------------------


@pytest.mark.parametrize("class_id", (0, 3, 5))
def test_single_entry_layer(class_id):
    """A cache that holds one class on every layer — what ACA, SMTM and
    replacement build when one class carries the hot-spot mass — is
    walked by the stacked kernel: no runner-up, so no row ever hits, and
    every row's guess is that class.  A single-entry layer next to wider
    ones is refused."""
    for dtype in DTYPES:
        for layers in (1, 6, 17):
            scene = Scene(seed=31 + class_id, layers=layers)
            one = dict.fromkeys(range(layers), np.array([class_id]))
            cache = scene.cache(dtype=dtype, floors=True, ids_of=one)
            pack = cache.layer_pack()
            assert pack.ids.tolist() == [class_id]
            assert [int(l) for b in pack.blocks for l in b.layers] == list(range(layers))
            for batch in (1, 7, 64):
                new, ref = both_walks(cache, scene.queries(batch, dtype))
                assert_same_walk(new, ref, dtype, bitwise=True)
                assert (new.hit_layer == -1).all() and (new.predicted == class_id).all()
                assert (new.layers_probed == layers).all()
    with pytest.raises(ValueError, match="the same class ids"):
        scene.cache(ids_of={0: np.array([class_id])})


#: Entry directions of the tie cases: (class ids, basis index per entry).
#: Queries are dyadic on the basis, so every product and fold is exact
#: and tied entries stay tied to the bit.
TIES = {
    "two tied for the best": ([0, 1, 2, 3], [0, 0, 1, 2]),
    "two tied for the runner-up": ([0, 1, 2, 3], [0, 1, 1, 2]),
    "every entry tied": ([4, 1, 3, 0], [0, 0, 0, 0]),
    "a single entry": ([2], [0]),
}


def runner_up(updated: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``walk_layers``' rule: the winner (first index on ties) masked,
    the first index of the largest rest; -1 where no entry is left."""
    masked = updated.copy()
    masked[np.arange(len(masked)), updated.argmax(axis=1)] = -np.inf
    second = ids[masked.argmax(axis=1)]
    second[np.isneginf(masked.max(axis=1))] = -1
    return second


@pytest.mark.parametrize("case", sorted(TIES))
@pytest.mark.parametrize("dtype", DTYPES)
def test_runner_up_at_ties(case, dtype):
    """The step's runner-up is a masked ``max``, the oracle's own rule:
    at exact ties the walk equals ``walk_layers`` byte for byte and a
    session's ``second_class`` is the one that rule picks."""
    ids, basis = (np.array(v) for v in TIES[case])
    layers, dim = PACK_BLOCK_LAYERS + 2, 4
    cache = SemanticCache(5, alpha=0.5, theta=0.3, dtype=dtype)
    for layer in range(layers):
        cache.set_layer_entries(layer, ids, np.eye(dim)[basis])
    rng = np.random.default_rng(13)
    vectors = rng.integers(0, 2, size=(7, layers, dim)) / 8
    vectors[:, :, 0] = 0.75  # basis 0 leads: a tie for the best stays one
    vectors[:, :, 1] = np.where(rng.random((7, layers)) < 0.5, 0.25, 0.5)
    vectors = vectors.astype(dtype)
    for batch in (1, 7):
        new, ref = both_walks(cache, vectors[:batch])
        assert_same_walk(new, ref, dtype, bitwise=True)
    if case == "two tied for the runner-up":
        assert (new.hit_layer >= 0).any()  # a unique winner can hit
    else:
        assert (new.hit_layer == -1).all()

    session = cache.start_batch_session(7)
    centroids = np.eye(dim, dtype=dtype)[basis]
    accumulated = np.zeros((7, ids.size), dtype=dtype)
    for layer in range(layers):
        result = session.probe(layer, vectors[:, layer])
        accumulated = cache.alpha * accumulated + vectors[:, layer] @ centroids.T
        assert np.array_equal(result.top_class, ids[accumulated.argmax(axis=1)])
        assert np.array_equal(result.second_class, runner_up(accumulated, ids))
        if case != "two tied for the runner-up":
            assert (result.score == 0).all() and not result.hit.any()
    if ids.size == 1:
        assert (result.second_class == -1).all()


def test_one_active_layer():
    scene = Scene(seed=41)
    cache = scene.cache(layers=[3], theta=0.05)
    assert [b.layers.tolist() for b in cache.layer_pack().blocks] == [[3]]
    for batch in (1, 7):
        new, ref = both_walks(cache, scene.queries(batch))
        assert_same_walk(new, ref, np.float64, bitwise=True)
        assert set(new.layers_probed.tolist()) == {1}


def test_blocks_hold_at_most_pack_block_layers():
    depth = PACK_BLOCK_LAYERS
    scene = Scene(seed=42, layers=2 * depth + 3)
    # A theta high enough that some rows hit past the first block.
    cache = scene.cache(floors=True, theta=1.0)
    depths = [b.layers.size for b in cache.layer_pack().blocks]
    assert depths == [depth, depth, 3] and max(depths) == PACK_BLOCK_LAYERS
    for batch in (1, 64, 300):
        new, ref = both_walks(cache, scene.queries(batch))
        assert_same_walk(new, ref, np.float64, bitwise=batch == 1)
    assert ref.hit_layer.max() >= depth  # rows carried across a block boundary


def test_sparse_layer_indices():
    scene = Scene(seed=43, layers=9)
    cache = scene.cache(layers=[1, 4, 8])
    assert [b.layers.tolist() for b in cache.layer_pack().blocks] == [[1, 4, 8]]
    for batch in (1, 7):
        new, ref = both_walks(cache, scene.queries(batch))
        assert_same_walk(new, ref, np.float64, bitwise=batch == 1)


def test_empty_batch_and_empty_cache():
    scene = Scene(seed=51)
    cache = scene.cache()
    with LookupWorkspace() as workspace:
        walk = walk_cache_batch(cache, np.empty((0, scene.layers, scene.dim)), workspace)
        assert all(a.shape == (0,) for a in walk)
        empty = SemanticCache(scene.classes)
        assert empty.layer_pack().blocks == ()
        walk = walk_cache_batch(empty, scene.queries(3), workspace)
        assert (walk.predicted == -1).all()
        assert (walk.layers_probed == 0).all()


# ----------------------------------------------------------------------
# View-backed caches: blocks alias the snapshot
# ----------------------------------------------------------------------


@pytest.fixture
def snapshot(tmp_path):
    scene = Scene(seed=71, classes=10, layers=11, dim=8)
    table = GlobalCacheTable(scene.classes, scene.layers, scene.dim)
    table.entries = scene.centroids.copy()
    table.filled[:] = True
    table.class_freq = np.full(scene.classes, 4.0)
    path = tmp_path / "snap"
    write_snapshot(path, table, epoch=1, layers_per_shard=4)
    return scene, str(path)


def test_view_backed_blocks_alias_the_snapshot(snapshot):
    scene, path = snapshot
    floors = np.linspace(0.5, 0.8, scene.layers)
    with MappedTableStore(path) as store:
        cache = store.serving_cache(theta=0.3, floors=floors)
        pack = cache.layer_pack()
        # One block per shard: a block never spans two mapped files.
        assert [b.layers.tolist() for b in pack.blocks] == [
            [0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10]
        ]
        for block in pack.blocks:
            assert not block.matrices.flags.writeable
            assert not block.matrices.flags.owndata
            for g, layer in enumerate(block.layers.tolist()):
                assert np.shares_memory(block.matrices[g], store.layer_view(layer))
                assert np.array_equal(block.matrices[g], store.layer_view(layer))
        frames = scene.queries(1000)
        with LookupWorkspace() as workspace:
            for row in range(frames.shape[0]):
                frame = frames[row : row + 1]
                new = walk_cache_batch(cache, frame, workspace)
                ref = oracle.walk_layers(cache, frame)
                assert_same_walk(new, ref, np.float64, bitwise=True)
        assert cache.layer_pack() is pack
        assert cache.view_backed_layers() == cache.active_layers
        clip_new, clip_ref = both_walks(cache, frames[:64])
        assert_same_walk(clip_new, clip_ref, np.float64, bitwise=False)


def test_partially_filled_snapshot_layers(tmp_path):
    """A serving cache holds every class on every layer it serves: a
    snapshot with unfilled rows is refused, naming the first such layer
    of the ones asked for."""
    scene = Scene(seed=73, classes=10, layers=6, dim=8)
    table = GlobalCacheTable(scene.classes, scene.layers, scene.dim)
    table.entries = scene.centroids.copy()
    table.filled[:] = True
    table.filled[::3, 2:] = False
    table.class_freq = np.full(scene.classes, 4.0)
    write_snapshot(tmp_path / "snap", table, epoch=1)
    with MappedTableStore(tmp_path / "snap") as store:
        with pytest.raises(SnapshotFormatError, match="layer 2 has 4 of 10 classes unfilled"):
            store.serving_cache(theta=0.3)
        with pytest.raises(SnapshotFormatError, match="layer 5 "):
            store.serving_cache(layers=[0, 5])
        cache = store.serving_cache(layers=[0, 1], theta=0.3)
        assert cache.active_layers == [0, 1]
        for batch in (1, 7):
            new, ref = both_walks(cache, scene.queries(batch))
            assert_same_walk(new, ref, np.float64, bitwise=batch == 1)


def test_borrowed_views_without_a_common_stride_get_their_own_blocks():
    scene = Scene(seed=75, layers=3)
    cache = SemanticCache(scene.classes, theta=0.3, dtype=np.float64)
    ids = np.arange(scene.classes)
    # Separately allocated matrices, the middle one far away in memory.
    keep = [np.ascontiguousarray(scene.centroids[:, layer]) for layer in (0, 1, 2)]
    spacer = np.empty(1 << 16)
    keep[1] = np.ascontiguousarray(scene.centroids[:, 1]) + 0.0 * spacer[0] * 0
    for layer, mat in enumerate(keep):
        cache.set_layer_view(layer, ids, mat)
    blocks = cache.layer_pack().blocks
    assert sorted(layer for b in blocks for layer in b.layers) == [0, 1, 2]
    for block in blocks:
        for g, layer in enumerate(block.layers.tolist()):
            assert np.shares_memory(block.matrices[g], keep[layer])
    new, ref = both_walks(cache, scene.queries(1))
    assert_same_walk(new, ref, np.float64, bitwise=True)


def block_layers(cache: SemanticCache) -> list[list[int]]:
    return [block.layers.tolist() for block in cache.layer_pack().blocks]


def owned_copy(table: GlobalCacheTable) -> SemanticCache:
    cache = SemanticCache(table.num_classes, theta=0.3, dtype=np.float64)
    ids = np.arange(table.num_classes)
    for layer in range(table.num_layers):
        cache.set_layer_entries(layer, ids, table.entries[:, layer, :])
    return cache


def test_default_shards_walk_in_owned_blocks(tmp_path):
    """One block shape: a snapshot at the default shard depth serves a
    cache whose blocks are an owned cache's over the same layers."""
    scene = Scene(seed=77, classes=10, layers=2 * PACK_BLOCK_LAYERS + 3, dim=8)
    table = GlobalCacheTable(scene.classes, scene.layers, scene.dim)
    table.entries = scene.centroids.copy()
    table.filled[:] = True
    table.class_freq = np.full(scene.classes, 4.0)
    owned = block_layers(owned_copy(table))
    assert [len(layers) for layers in owned] == [PACK_BLOCK_LAYERS, PACK_BLOCK_LAYERS, 3]
    manifest = write_snapshot(tmp_path / "table", table, epoch=1)
    assert len(manifest.shards) == len(owned)
    with MappedTableStore(tmp_path / "table") as store:
        assert block_layers(store.serving_cache(theta=0.3)) == owned

    model = build_model("resnet101", get_dataset("ucf101", 12), seed=0)
    assert model.num_cache_layers > PACK_BLOCK_LAYERS
    server = CoCaServer(model, CoCaConfig())
    server.initialize(calibrate(model, np.random.default_rng(0), 40))
    server.save_snapshot(tmp_path / "server")
    with MappedTableStore(tmp_path / "server") as store:
        served = block_layers(store.serving_cache(theta=0.3))
    assert served == block_layers(owned_copy(server.table))
    assert len(served) == -(-model.num_cache_layers // PACK_BLOCK_LAYERS)


def test_snapshots_of_8_layer_shards_still_serve(tmp_path):
    """A snapshot written when the default shard depth was 8 opens and
    walks in 8-layer blocks, the walk of the per-layer loop."""
    scene = Scene(seed=79, classes=10, layers=19, dim=8)
    table = GlobalCacheTable(scene.classes, scene.layers, scene.dim)
    table.entries = scene.centroids.copy()
    table.filled[:] = True
    table.class_freq = np.full(scene.classes, 4.0)
    write_snapshot(tmp_path / "snap", table, epoch=1, layers_per_shard=8)
    floors = np.linspace(0.5, 0.8, scene.layers)
    with MappedTableStore(tmp_path / "snap") as store:
        cache = store.serving_cache(theta=0.3, floors=floors)
        assert block_layers(cache) == [
            list(range(0, 8)), list(range(8, 16)), list(range(16, 19))
        ]
        for batch in (1, 64):
            new, ref = both_walks(cache, scene.queries(batch))
            assert_same_walk(new, ref, np.float64, bitwise=batch == 1)
        assert cache.view_backed_layers() == cache.active_layers


# ----------------------------------------------------------------------
# What the protocol builds: complete packs only
# ----------------------------------------------------------------------


def assert_complete_pack(cache: SemanticCache) -> None:
    pack = cache.layer_pack()
    assert cache.active_layers and pack.ids.size
    assert [int(l) for b in pack.blocks for l in b.layers] == cache.active_layers


def test_protocol_caches_have_complete_packs(monkeypatch, tmp_path):
    """The protocol builds only caches of one class set: the shared
    dataset fills every (class, layer) cell, so ACA hands every
    activated layer the same hot-spot set.  A cache refuses any other at
    install; this pins that the protocol never trips that refusal, so a
    change to initialization, ACA or the store that would is seen."""
    built: list[SemanticCache] = []
    build_cache = CoCaServer.build_cache

    def recording(self, layers, classes):
        built.append(build_cache(self, layers, classes))
        return built[-1]

    monkeypatch.setattr(CoCaServer, "build_cache", recording)
    kwargs = dict(
        dataset=get_dataset("ucf101", 15),
        model_name="resnet50",
        num_clients=3,
        config=CoCaConfig(frames_per_round=40),
        seed=5,
        non_iid_level=1.0,
        longtail_rho=10.0,
    )
    CoCaFramework(**kwargs).run(3)
    assert len(built) == 9  # every allocation of 3 clients x 3 rounds
    CoCaFramework(enable_dca=False, **kwargs).run(1)
    assert len(built) == 12  # plus the preset cache, per client
    cluster = ClusterFramework(num_shards=4, **kwargs)
    cluster.run(3)
    assert len(built) == 21
    for cache in built:
        assert_complete_pack(cache)
    write_snapshot(tmp_path / "snap", cluster.merged_table(), epoch=1)
    with MappedTableStore(tmp_path / "snap") as store:
        assert_complete_pack(store.serving_cache())


# ----------------------------------------------------------------------
# Pack lifetime
# ----------------------------------------------------------------------


def test_pack_is_lazy_and_dropped_by_every_mutator():
    scene = Scene(seed=81)
    cache = scene.cache()
    assert cache._pack is None  # building a cache builds no pack
    stored = {layer: cache.entries_at(layer)[1] for layer in cache.active_layers}
    pack = cache.layer_pack()
    assert cache.layer_pack() is pack
    # Owned layers were moved into the block: it is their storage, not a
    # second copy of it.
    for g, layer in enumerate(pack.blocks[0].layers.tolist()):
        assert np.shares_memory(pack.blocks[0].matrices[g], cache._layers[layer])
        assert np.array_equal(cache.entries_at(layer)[1], stored[layer])

    ids = np.arange(scene.classes)
    cache.set_layer_entries(2, ids, scene.centroids[::-1, 2])
    rebuilt = cache.layer_pack()
    assert rebuilt is not pack
    assert np.array_equal(rebuilt.blocks[0].matrices[2], cache.entries_at(2)[1])

    pack = rebuilt
    cache.set_similarity_floor(1, 0.9)
    rebuilt = cache.layer_pack()
    assert rebuilt is not pack
    assert rebuilt.blocks[0].floors[1, 0] == 0.9

    pack = rebuilt
    view = np.ascontiguousarray(scene.centroids[:, 4])
    cache.set_layer_view(4, ids, view)
    rebuilt = cache.layer_pack()
    assert rebuilt is not pack
    assert [b.layers.tolist() for b in rebuilt.blocks] == [[0, 1, 2, 3], [4], [5]]

    cache.set_layer_entries(5, np.empty(0, dtype=int), np.empty((0, scene.dim)))
    assert cache.layer_pack().levels == 5

    cache.clear()
    assert cache.layer_pack().blocks == ()
    # A walk after each mutation sees the new state, not the old pack.
    cache = scene.cache(theta=0.05)
    frame = scene.queries(1)
    before, _ = both_walks(cache, frame)
    cache.set_similarity_floor(int(before.hit_layer[0]), 1.0)
    after, ref = both_walks(cache, frame)
    assert after.hit_layer[0] != before.hit_layer[0]
    assert_same_walk(after, ref, np.float64, bitwise=True)


def test_pack_contract_is_armed_at_build():
    scene = Scene(seed=83)
    with contracts.activated():
        cache = scene.cache()
        pack = cache.layer_pack()
        assert len(pack.blocks) == 1
        new, ref = both_walks(cache, scene.queries(7))
        assert_same_walk(new, ref, np.float64, bitwise=False)


def test_single_frame_layouts_are_kept():
    depth = PACK_BLOCK_LAYERS
    scene = Scene(seed=85, layers=depth + 3)  # blocks of depth and 3 layers
    # Nothing can hit, so every frame walks both blocks.
    wide = scene.cache(theta=1e6)
    narrow = scene.cache(
        theta=1e6, ids_of=dict.fromkeys(range(scene.layers), np.arange(5))
    )
    frame = scene.queries(1)
    with LookupWorkspace() as workspace:
        walk_cache_batch(wide, frame, workspace)
        kept = dict(workspace._layouts)
        assert sorted(kept) == [(1, 3), (1, depth)]  # one per block depth
        walk_cache_batch(wide, frame, workspace)
        assert workspace._layouts == kept  # reused, not cut again
        # Caches of different widths take turns on one workspace: the
        # layouts follow the geometry being served.
        for cache in (narrow, wide, narrow):
            new = CacheWalk(*(a.copy() for a in walk_cache_batch(cache, frame, workspace)))
            _, ref = both_walks(cache, frame)
            assert_same_walk(new, ref, np.float64, bitwise=True)
            assert sorted(workspace._layouts) == [(1, 3), (1, depth)]
        # A batch's larger pools replace the ones the kept layouts view,
        # and the layouts go with them instead of pinning them; the
        # batch's own layouts are kept next to the frame's that follow.
        walk_cache_batch(wide, scene.queries(64), workspace)
        assert sorted(workspace._layouts) == [(64, 3), (64, depth)]
        new = CacheWalk(*(a.copy() for a in walk_cache_batch(wide, frame, workspace)))
        _, ref = both_walks(wide, frame)
        assert_same_walk(new, ref, np.float64, bitwise=True)
        assert sorted(workspace._layouts) == [(1, 3), (1, depth), (64, 3), (64, depth)]
    assert not workspace._layouts  # close() drops them with the pools


def test_layouts_of_every_row_count_are_kept():
    depth = PACK_BLOCK_LAYERS
    scene = Scene(seed=86, layers=depth + 3)  # blocks of depth and 3 layers
    # Floors keep every fifth (classless) query from hitting: some rows
    # of every batch walk on into the second block.
    wide = scene.cache(floors=True)
    narrow = scene.cache(
        floors=True, ids_of=dict.fromkeys(range(scene.layers), np.arange(5))
    )
    queries = {rows: scene.queries(rows) for rows in (1, 5, 64, 300)}
    workspace = LookupWorkspace()
    walked: set[tuple[int, int]] = set()  # since the last drop

    def walk(cache: SemanticCache, rows: int) -> bool:
        """Walk ``rows`` queries; true if the walk regrew a layout pool."""
        before = {k: v for k, v in workspace._pools.items() if k[0].startswith("stack.")}
        vectors = queries[rows]
        new = walk_cache_batch(cache, vectors, workspace)
        with LookupWorkspace() as fresh:
            alone = walk_cache_batch(cache, vectors, fresh)
            for name in ("predicted", "hit_layer", "hit_score", "layers_probed"):
                got, want = getattr(new, name), getattr(alone, name)
                assert got.tobytes() == want.tobytes(), (rows, name)
        regrew = any(workspace._pools[key] is not pool for key, pool in before.items())
        if regrew:
            # The first block's layout is cut, growing the pools, before
            # it is kept; the second block's is smaller.
            walked.clear()
        # Every row steps through the first block; the rows it did not
        # resolve step through the second.
        walked.add((rows, depth))
        left = int(((new.hit_layer < 0) | (new.hit_layer >= depth)).sum())
        if left:
            walked.add((left, 3))
        assert sorted(workspace._layouts) == sorted(walked)
        return regrew

    walk(wide, 1)
    walk(wide, 5)
    assert walk(wide, 300)  # regrows the pools: the earlier layouts go
    assert not walk(wide, 5)
    assert not walk(wide, 64)
    assert {g for _, g in workspace._layouts} == {3, depth}
    # A repeated walk reuses its layouts.
    kept = {key: id(layout) for key, layout in workspace._layouts.items()}
    walk(wide, 5)
    walk(wide, 64)
    assert {key: id(layout) for key, layout in workspace._layouts.items()} == kept
    walked.clear()  # a geometry change drops them
    walk(narrow, 5)
    walk(narrow, 64)
    workspace.close()
    assert not workspace._layouts


def test_kept_walk_views_hold_no_walk_over(tmp_path):
    """The result and carry views a workspace keeps per row count are
    scratch: walks of every row count, of tensors of ``L+1`` and of
    ``pack.levels + 3`` levels, and a worker's single-chunk and coalesced
    calls, interleaved on one workspace, and walks of caches of
    alternating entry counts, each equal the same walk on a fresh
    workspace byte for byte.  (A coalesced call walks
    ``pack.levels`` levels, a single chunk all of its own: row offsets
    kept per row count would gather the wrong levels.)"""
    depth = PACK_BLOCK_LAYERS
    scene = Scene(seed=88, classes=10, layers=depth + 3, dim=8)  # blocks depth, 3
    table = GlobalCacheTable(scene.classes, scene.layers, scene.dim)
    table.entries = scene.centroids.copy()
    table.filled[:] = True
    table.class_freq = np.full(scene.classes, 4.0)
    write_snapshot(tmp_path / "snap", table, epoch=1)
    state = WorkerState(str(tmp_path / "snap"), WorkerOptions(theta=0.3))
    cache = state.cache
    levels = cache.layer_pack().levels
    assert block_layers(cache) == [list(range(depth)), list(range(depth, depth + 3))]

    def tall(rows: int, extra: int) -> np.ndarray:
        vectors = scene.queries(rows)
        return np.ascontiguousarray(np.concatenate([vectors, vectors[:, :extra]], axis=1))

    def alone(vectors: np.ndarray) -> list[np.ndarray]:
        with LookupWorkspace() as fresh:
            return [a.copy() for a in walk_cache_batch(cache, vectors, fresh)]

    def same(got: Sequence[np.ndarray], want: Sequence[np.ndarray]) -> bool:
        return [a.tobytes() for a in got] == [a.tobytes() for a in want]

    try:
        for rows in (1, 2, 5, 64, 300, 5, 1, 64, 2, 300, 1):
            for extra in (1, 3):  # L+1 and pack.levels + 3 levels
                vectors = tall(rows, extra)
                assert same(walk_cache_batch(cache, vectors, state.workspace), alone(vectors))
            single = tall(rows, 1)
            [(ok, reply, _)] = serve_requests(state, [single])
            assert ok and same(reply[:3], alone(single)[:3]), rows
            chunks = [tall(rows, 3), tall(2, 1), tall(1, 3)]
            together = np.concatenate(
                [chunk[:, :levels] for chunk in chunks], dtype=cache.dtype
            )
            want = alone(together)[:3]
            lo = 0
            for chunk, outcome in zip(chunks, _walk_together(state, cache.layer_pack(), chunks)):
                hi = lo + chunk.shape[0]
                assert same(outcome, [a[lo:hi] for a in want]), rows
                lo = hi
            [(ok, reply, _)] = serve_requests(state, [single])  # after a coalesced call
            assert ok and same(reply[:3], alone(single)[:3]), rows
        # Caches of alternating entry counts change the stack geometry but
        # keep the walk layouts: switching back finds the same WalkLayout,
        # and each walk equals a fresh workspace's.
        narrow = SemanticCache(
            scene.classes, alpha=cache.alpha, theta=cache.theta, dtype=cache.dtype
        )
        ids = np.arange(scene.classes - 4)
        for layer in range(scene.layers):
            narrow.set_layer_entries(layer, ids, scene.centroids[ids, layer])
        vectors = tall(5, 1)
        walk_cache_batch(cache, vectors, state.workspace)
        kept = state.workspace.walk_layout(5, scene.classes, cache.dtype)
        for switch in (narrow, cache, narrow, cache):
            with LookupWorkspace() as fresh:
                want = [a.copy() for a in walk_cache_batch(switch, vectors, fresh)]
            assert same(walk_cache_batch(switch, vectors, state.workspace), want)
        assert state.workspace.walk_layout(5, scene.classes, cache.dtype) is kept
    finally:
        shutdown_worker(state)


def test_pools_grow_geometrically():
    """Walks of rising row counts regrow each layout pool about log2
    times, not once per row count, so kept layouts are rarely dropped."""
    depth = PACK_BLOCK_LAYERS
    scene = Scene(seed=89, layers=depth + 3)
    cache = scene.cache(floors=True)
    queries = scene.queries(300)
    regrown: dict[tuple[str, np.dtype], int] = {}
    with LookupWorkspace() as workspace:
        for rows in range(1, 301):
            before = dict(workspace._pools)
            walk_cache_batch(cache, queries[:rows], workspace)
            for key, pool in before.items():
                if workspace._pools[key] is not pool:
                    regrown[key] = regrown.get(key, 0) + 1
        names = {name for name, _ in workspace._pools}
    assert {"stack.sim", "walk.acc", "walk.predicted"} <= names
    assert regrown and max(regrown.values()) <= int(np.log2(300)) + 1, regrown


def test_regrown_pool_drops_only_its_own_kind_of_layout():
    """Stack layouts view only ``stack.`` pools and walk layouts only
    ``walk.`` ones, so a regrown pool drops the kept layouts of its own
    kind and leaves the other kind's."""
    f32 = np.dtype(np.float32)
    with LookupWorkspace() as workspace:

        def kept():
            return workspace.stack_layout(4, 2, 5, 8, f32, f32), workspace.walk_layout(4, 5, f32)

        stack, walk = kept()
        workspace.ints("walk.predicted", (1 << 17,))  # regrows a walk pool
        assert kept()[0] is stack and kept()[1] is not walk
        stack, walk = kept()
        workspace.floats("stack.sim", (1 << 17,), f32)  # regrows a stack pool
        assert kept()[1] is walk and kept()[0] is not stack


# ----------------------------------------------------------------------
# Request geometry
# ----------------------------------------------------------------------


class TestRequestGeometry:
    def test_walk_rejects_short_and_narrow_tensors(self):
        scene = Scene(seed=91)
        cache = scene.cache()
        good = scene.queries(2)
        with LookupWorkspace() as workspace:
            for walk in (partial(walk_cache_batch, workspace=workspace), oracle.walk_layers):
                with pytest.raises(ValueError, match=r"expected \(B, >= 6, 16\)"):
                    walk(cache, good[:, :5, :])
                with pytest.raises(ValueError, match=r"\(2, 6, 15\)"):
                    walk(cache, good[:, :, :15])
                with pytest.raises(ValueError, match=r"\(0, 6, 15\)"):
                    walk(cache, good[:0, :, :15])
                with pytest.raises(ValueError, match="vector tensor"):
                    walk(cache, good[0])
                # Extra levels past the deepest activated layer are fine.
                taller = np.concatenate([good, good[:, :2]], axis=1)
                assert walk(cache, taller).predicted.shape == (2,)

    def test_serve_requests_refuses_short_and_narrow_tensors(self, snapshot):
        scene, path = snapshot
        state = WorkerState(path, WorkerOptions())
        try:
            good = scene.queries(1)
            # A misfit is refused alone; the rest of its call is served.
            answers = list(
                serve_requests(state, [good, good[:, :10, :], good[:, :, :7], good])
            )
            assert [ok for ok, _, _ in answers] == [True, False, False, True]
            assert answers[0][1].predicted.shape == (1,)
            assert answers[3][1].predicted.shape == (1,)
            with pytest.raises(ValueError, match=r"expected \(B, >= 11, 8\)"):
                raise answers[1][1]
            with pytest.raises(ValueError, match=r"\(1, 11, 7\)"):
                raise answers[2][1]
            [(ok, reply, _)] = serve_requests(state, [good])  # still serving
            assert ok and reply.predicted.shape == (1,)
        finally:
            shutdown_worker(state)

    def test_serve_requests_reads_the_layer_pack_once_per_frame(self, snapshot, monkeypatch):
        """A one-frame call checks its tensor's fit once: the walk reuses
        the pack that check returned."""
        scene, path = snapshot
        state = WorkerState(path, WorkerOptions())
        try:
            cache = state.cache
            build = cache.layer_pack
            reads = []

            def counted_layer_pack():
                reads.append(1)
                return build()

            monkeypatch.setattr(cache, "layer_pack", counted_layer_pack)
            [(ok, reply, _)] = serve_requests(state, [scene.queries(1)])
            assert ok and reply.predicted.shape == (1,)
            assert len(reads) == 1
        finally:
            shutdown_worker(state)


# ----------------------------------------------------------------------
# Property: random geometry
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    classes=st.integers(2, 9),
    layers=st.integers(1, 19),
    dim=st.integers(2, 12),
    batch=st.integers(1, 40),
    dtype=st.sampled_from(DTYPES),
    floors=st.booleans(),
    theta=st.sampled_from((0.02, 0.3, 1e6)),
    kept=st.one_of(st.none(), st.integers(1, 9)),
    view_backed=st.booleans(),
)
def test_random_geometry(
    seed, classes, layers, dim, batch, dtype, floors, theta, kept, view_backed
):
    scene = Scene(seed, classes=classes, layers=layers, dim=dim)
    ids_of = None
    if kept is not None:
        # Every layer holds the first few classes only.
        ids_of = dict.fromkeys(range(layers), np.arange(min(kept, classes)))
    cache = scene.cache(dtype=dtype, floors=floors, theta=theta, ids_of=ids_of)
    if view_backed:
        table = np.ascontiguousarray(
            scene.centroids.transpose(1, 0, 2), dtype=dtype
        )  # layer-major, like a snapshot shard
        for layer in cache.active_layers[::2]:  # owned and borrowed layers mix
            ids, _ = cache.entries_at(layer)
            cache.set_layer_view(layer, ids, table[layer][: ids.size])
    covered = [int(l) for b in cache.layer_pack().blocks for l in b.layers]
    assert covered == cache.active_layers
    new, ref = both_walks(cache, scene.queries(batch, dtype))
    assert_same_walk(new, ref, dtype, bitwise=batch == 1)
