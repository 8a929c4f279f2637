"""A stacked cache install equals the same layers installed one at a time.

``SemanticCache.set_layer_entries`` / ``set_layer_view`` take one layer or
a stack of layers with one id set.  Every caller in ``src/`` installs a
whole stack; the reference here is the one-layer call in a loop, with
``set_similarity_floor`` for each floor above -1 (what the callers did
before they stacked).  The two must agree byte for byte in ids, layer
storage, floors and every ``LayerPack`` block, and refuse the same
inputs with the same message.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import contracts
from repro.core.cache import SemanticCache
from repro.core.server import GlobalCacheTable
from repro.store import MappedTableStore, write_snapshot

NUM_CLASSES = 12
DIM = 8


def raw_rows(shape: tuple[int, ...], seed: int) -> np.ndarray:
    """Rows of assorted norms: the install normalizes them."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * rng.uniform(0.5, 3.0, shape[:-1] + (1,))


def per_layer(cache, install, layers, ids, matrices, floors) -> None:
    for layer, matrix, floor in zip(layers, matrices, floors):
        install(cache, layer, ids, matrix)
        if floor > -1.0:
            cache.set_similarity_floor(layer, floor)


def assert_same_cache(got: SemanticCache, want: SemanticCache) -> None:
    assert got.dtype == want.dtype
    assert got.active_layers == want.active_layers
    assert got._ids.tobytes() == want._ids.tobytes()
    assert got.view_backed_layers() == want.view_backed_layers()
    for layer in range(max(want.active_layers, default=0) + 2):
        assert got.similarity_floor(layer) == want.similarity_floor(layer)
    for layer in want.active_layers:
        a, b = got._layers[layer], want._layers[layer]
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    got_pack, want_pack = got.layer_pack(), want.layer_pack()
    assert got_pack.ids.tobytes() == want_pack.ids.tobytes()
    assert (got_pack.levels, got_pack.dim) == (want_pack.levels, want_pack.dim)
    assert len(got_pack.blocks) == len(want_pack.blocks)
    for a, b in zip(got_pack.blocks, want_pack.blocks):
        assert a.layers.tolist() == b.layers.tolist()
        assert a.matrices.shape == b.matrices.shape
        assert a.matrices.tobytes() == b.matrices.tobytes()
        assert a.floors.dtype == b.floors.dtype
        assert a.floors.tobytes() == b.floors.tobytes()
        assert not a.matrices.flags.writeable
    # The pack is the layers' storage, never a second copy.
    for block in got_pack.blocks:
        for g, layer in enumerate(block.layers.tolist()):
            assert np.shares_memory(block.matrices[g], got._layers[layer])


def entries(cache, layer, ids, matrix):
    cache.set_layer_entries(layer, ids, matrix)


def view(cache, layer, ids, matrix):
    cache.set_layer_view(layer, ids, matrix)


# ----------------------------------------------------------------------
# Owned layers
# ----------------------------------------------------------------------


@given(
    layers=st.lists(
        st.integers(min_value=0, max_value=40), min_size=1, max_size=24, unique=True
    ),
    num_ids=st.integers(min_value=1, max_value=NUM_CLASSES),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(min_value=0, max_value=10_000),
    with_floors=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_owned_stack_equals_per_layer_installs(layers, num_ids, dtype, seed, with_floors):
    rng = np.random.default_rng(seed)
    ids = rng.permutation(NUM_CLASSES)[:num_ids]
    matrices = raw_rows((len(layers), num_ids, DIM), seed)
    floors = rng.choice([-1.0, 0.1, 0.35], size=len(layers))
    got = SemanticCache(NUM_CLASSES, dtype=dtype)
    if not with_floors:
        floors[:] = -1.0
    got.set_layer_entries(layers, ids, matrices, floors if with_floors else None)
    want = SemanticCache(NUM_CLASSES, dtype=dtype)
    per_layer(want, entries, layers, ids, matrices, floors)
    assert_same_cache(got, want)


def test_ascending_stack_packs_without_a_copy():
    cache = SemanticCache(NUM_CLASSES)
    layers = list(range(0, 40, 2))
    cache.set_layer_entries(layers, np.arange(5), raw_rows((len(layers), 5, DIM), 1))
    stored = cache._layers[layers[0]].base
    for block in cache.layer_pack().blocks:
        assert block.matrices.base is not None
        assert all(cache._layers[j].base is stored for j in block.layers.tolist())
        assert np.shares_memory(block.matrices, stored)


def test_one_layer_call_is_a_stack_of_one():
    matrix = raw_rows((4, DIM), 2)
    got = SemanticCache(NUM_CLASSES)
    got.set_layer_entries(3, np.arange(4), matrix, floors=0.25)
    want = SemanticCache(NUM_CLASSES)
    want.set_layer_entries([3], np.arange(4), matrix[None])
    want.set_similarity_floor(3, 0.25)
    assert_same_cache(got, want)


def test_restacking_replaces_every_layer_of_the_stack():
    cache = SemanticCache(NUM_CLASSES)
    cache.set_layer_entries([1, 2], np.arange(4), raw_rows((2, 4, DIM), 3))
    cache.set_layer_entries([1, 2], np.arange(6), raw_rows((2, 6, DIM), 4))
    assert cache.total_entries == 12 and cache.layer_pack().ids.size == 6


def test_server_cache_equals_per_layer_build(tiny_model):
    from repro.core.config import CoCaConfig
    from repro.core.server import CoCaServer, calibrate

    for dtype in ("float32", "float64"):
        server = CoCaServer(tiny_model, CoCaConfig(lookup_dtype=dtype))
        server.initialize(calibrate(tiny_model, np.random.default_rng(0), 120))
        layers = [5, 1, 3, 2]
        classes = np.array([4, 0, 7, 2])
        got = server.build_cache(layers, classes)
        want = SemanticCache(
            tiny_model.num_classes, server.config.alpha, server.config.theta, dtype
        )
        per_layer(
            want,
            entries,
            layers,
            classes,
            [server.table.entries[classes, j] for j in layers],
            server.reference_similarity_floor[layers],
        )
        assert_same_cache(got, want)


# ----------------------------------------------------------------------
# Mapped layers
# ----------------------------------------------------------------------


def _snapshot(tmp_path, dtype: str, num_layers: int = 11, layers_per_shard: int = 4):
    table = GlobalCacheTable(NUM_CLASSES, num_layers, DIM)
    rows = raw_rows((NUM_CLASSES, num_layers, DIM), 5)
    table.entries = rows / np.linalg.norm(rows, axis=-1, keepdims=True)
    table.filled[:] = True
    path = tmp_path / f"snap-{dtype}"
    write_snapshot(path, table, layers_per_shard=layers_per_shard, dtype=dtype)
    return MappedTableStore(path)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize(
    "layers", [None, [0, 1, 2, 3, 4], [2, 3, 5, 8, 9, 10], [7]]
)
def test_serving_cache_equals_per_layer_views(tmp_path, dtype, layers):
    store = _snapshot(tmp_path, dtype)
    floors = np.linspace(-1.0, 0.5, store.num_layers)
    chosen = list(range(store.num_layers)) if layers is None else layers
    got = store.serving_cache(layers, alpha=0.5, theta=0.05, floors=floors)
    want = SemanticCache(store.num_classes, 0.5, 0.05, store.dtype)
    ids = np.arange(store.num_classes)
    per_layer(
        want, view, chosen, ids, [store.layer_view(j) for j in chosen], floors[chosen]
    )
    assert_same_cache(got, want)
    # Blocks break at shard boundaries and alias the mapped bytes.
    for block in got.layer_pack().blocks:
        shards = {store.manifest.shard_of_layer(j)[0] for j in block.layers.tolist()}
        assert len(shards) == 1
        for g, layer in enumerate(block.layers.tolist()):
            assert np.shares_memory(block.matrices[g], store.layer_view(layer))
    store.close()


def test_view_stack_takes_a_tensor(tmp_path):
    store = _snapshot(tmp_path, "float64")
    shard = np.asarray(store._shard(0))  # layers 0..3
    got = SemanticCache(store.num_classes, dtype=np.float64)
    got.set_layer_view([0, 1, 2, 3], np.arange(store.num_classes), shard)
    want = store.serving_cache([0, 1, 2, 3])
    assert_same_cache(got, want)
    store.close()


def test_serving_cache_checks_the_id_set_once(tmp_path, monkeypatch):
    store = _snapshot(tmp_path, "float32", num_layers=51, layers_per_shard=17)
    calls: list[int] = []
    check = SemanticCache._check_entries

    def counted(self, layers, ids, widths):
        calls.append(len(layers))
        return check(self, layers, ids, widths)

    monkeypatch.setattr(SemanticCache, "_check_entries", counted)
    cache = store.serving_cache()
    assert calls == [51]
    assert len(cache.layer_pack().blocks) == 3
    store.close()


def test_contracts_check_every_installed_layer_and_every_pack(tmp_path, monkeypatch):
    entry_calls: list[int] = []
    pack_calls: list[int] = []
    monkeypatch.setattr(
        contracts, "check_layer_entries", lambda layer, *a: entry_calls.append(layer)
    )
    monkeypatch.setattr(
        contracts, "check_layer_pack", lambda blocks, *a: pack_calls.append(len(blocks))
    )
    store = _snapshot(tmp_path, "float32")
    with contracts.activated():
        cache = store.serving_cache()
        cache.layer_pack()
        owned = SemanticCache(NUM_CLASSES)
        owned.set_layer_entries([4, 9, 2], np.arange(3), raw_rows((3, 3, DIM), 6))
        owned.layer_pack()
    assert entry_calls == list(range(store.num_layers)) + [2, 4, 9]
    assert pack_calls == [3, 1]
    store.close()


# ----------------------------------------------------------------------
# Refusals
# ----------------------------------------------------------------------


def _refusal(install_stack, install_one):
    """The message a stacked install raises, the one the per-layer loop
    raises, and whether the stacked install left the cache untouched."""
    stacked, looped = SemanticCache(NUM_CLASSES), SemanticCache(NUM_CLASSES)
    for cache in (stacked, looped):
        cache.set_layer_entries(0, np.arange(4), raw_rows((4, DIM), 7))
    before = stacked.active_layers, stacked._layers[0].tobytes()
    with pytest.raises(ValueError) as got:
        install_stack(stacked)
    with pytest.raises(ValueError) as want:
        install_one(looped)
    after = stacked.active_layers, stacked._layers[0].tobytes()
    return str(got.value), str(want.value), before == after


def _owned_case(ids, matrices, layers=(1, 2, 3)):
    def stack(cache):
        cache.set_layer_entries(list(layers), ids, matrices)

    def one_by_one(cache):
        for layer, matrix in zip(layers, matrices):
            cache.set_layer_entries(layer, ids, matrix)

    return stack, one_by_one


def _view_case(ids, matrices, layers=(1, 2, 3)):
    def stack(cache):
        cache.set_layer_view(list(layers), ids, matrices)

    def one_by_one(cache):
        for layer, matrix in zip(layers, matrices):
            cache.set_layer_view(layer, ids, matrix)

    return stack, one_by_one


def _with(matrices, g, value):
    out = np.array(matrices)
    out[g, 1, 2] = value
    return out


def _unit(shape, seed, dtype=np.float64):
    rows = raw_rows(shape, seed)
    return (rows / np.linalg.norm(rows, axis=-1, keepdims=True)).astype(dtype)


REFUSALS = {
    "duplicate ids": _owned_case(np.array([0, 1, 1, 2]), raw_rows((3, 4, DIM), 8)),
    "out-of-range id": _owned_case(np.array([0, 1, 2, NUM_CLASSES]), raw_rows((3, 4, DIM), 8)),
    "id-set mismatch": _owned_case(np.array([0, 1, 2, 5]), raw_rows((3, 4, DIM), 8)),
    "width mismatch": _owned_case(np.arange(4), raw_rows((3, 4, DIM + 1), 8)),
    "non-finite centroid": _owned_case(np.arange(4), _with(raw_rows((3, 4, DIM), 8), 1, np.nan)),
    "infinite centroid": _owned_case(np.arange(4), _with(raw_rows((3, 4, DIM), 8), 2, np.inf)),
    "zero centroid": _owned_case(
        np.arange(4), np.where(np.arange(4)[None, :, None] == 3, 0.0, raw_rows((3, 4, DIM), 8))
    ),
    "view dtype mismatch": _view_case(np.arange(4), _unit((3, 4, DIM), 8, np.float64)),
    "non-contiguous view": _view_case(
        np.arange(4), [m for m in _unit((3, 4, 2 * DIM), 8, np.float32)[:, :, ::2]]
    ),
    "view width mismatch": _view_case(np.arange(4), _unit((3, 4, DIM + 1), 8, np.float32)),
    "view id-set mismatch": _view_case(np.array([3, 2, 1, 0]), _unit((3, 4, DIM), 8, np.float32)),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusals_keep_their_message(case):
    stack, one_by_one = REFUSALS[case]
    got, want, untouched = _refusal(stack, one_by_one)
    assert got == want
    assert untouched


def test_view_width_mismatch_inside_a_stack():
    mats = [_unit((4, DIM), 9, np.float32), _unit((4, DIM + 2), 10, np.float32)]
    stacked, looped = SemanticCache(NUM_CLASSES), SemanticCache(NUM_CLASSES)
    with pytest.raises(ValueError) as got:
        stacked.set_layer_view([5, 6], np.arange(4), mats)
    with pytest.raises(ValueError) as want:
        for layer, mat in zip([5, 6], mats):
            looped.set_layer_view(layer, np.arange(4), mat)
    assert str(got.value) == str(want.value)
    assert stacked.active_layers == []


def test_negative_layer_and_floor_refusals():
    cache = SemanticCache(NUM_CLASSES)
    with pytest.raises(ValueError, match="cache layer must be >= 0, got -1"):
        cache.set_layer_entries([2, -1], np.arange(2), raw_rows((2, 2, DIM), 1))
    with pytest.raises(ValueError, match=r"floor must be a cosine in \[-1, 1\], got 1.5"):
        cache.set_layer_entries([2, 3], np.arange(2), raw_rows((2, 2, DIM), 1), [0.2, 1.5])
    assert cache.active_layers == []
