"""Unit + property tests for the semantic cache (Eq. 1 / Eq. 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from repro.core.cache import SemanticCache


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _orthogonal_entries(num, dim=8):
    """num orthonormal centroids."""
    basis = np.eye(dim)[:num]
    return np.arange(num), basis


class _Row:
    """One query as row 0 of a one-row batch session: ``probe`` returns
    that row's fields as scalars, ``accumulated_score`` reads its ``A``."""

    def __init__(self, cache):
        self._session = cache.start_batch_session(1)

    def probe(self, layer, query):
        result = self._session.probe(layer, np.asarray(query)[None, :])
        return _Probe(
            int(result.top_class[0]), int(result.second_class[0]),
            float(result.score[0]), bool(result.hit[0]),
        )

    def accumulated_score(self, class_id):
        return self._session.accumulated_score(0, class_id)


class _Probe:
    def __init__(self, top_class, second_class, score, hit):
        self.top_class, self.second_class = top_class, second_class
        self.score, self.hit = score, hit


class TestCacheContent:
    def test_set_and_read_entries(self):
        cache = SemanticCache(5)
        ids, mat = _orthogonal_entries(3)
        cache.set_layer_entries(2, ids, mat)
        out_ids, out_mat = cache.entries_at(2)
        assert list(out_ids) == [0, 1, 2]
        assert np.allclose(out_mat, mat)
        assert cache.num_entries(2) == 3
        assert cache.active_layers == [2]

    def test_entries_are_normalized_on_insert(self):
        cache = SemanticCache(3)
        cache.set_layer_entries(0, np.array([0, 1]), np.array([[2.0, 0.0], [0.0, 5.0]]))
        _, mat = cache.entries_at(0)
        assert np.allclose(np.linalg.norm(mat, axis=1), 1.0)

    def test_replace_layer(self):
        cache = SemanticCache(5)
        ids, mat = _orthogonal_entries(3)
        cache.set_layer_entries(0, ids, mat)
        cache.set_layer_entries(0, ids[:2], mat[:2])
        assert cache.num_entries(0) == 2

    def test_empty_set_removes_layer(self):
        cache = SemanticCache(5)
        ids, mat = _orthogonal_entries(2, dim=4)
        cache.set_layer_entries(1, ids, mat)
        cache.set_layer_entries(1, np.array([], dtype=int), np.zeros((0, 4)))
        assert cache.active_layers == []

    def test_duplicate_ids_rejected(self):
        cache = SemanticCache(5)
        with pytest.raises(ValueError):
            cache.set_layer_entries(0, np.array([1, 1]), np.eye(2))

    def test_out_of_range_ids_rejected(self):
        cache = SemanticCache(2)
        with pytest.raises(ValueError):
            cache.set_layer_entries(0, np.array([0, 5]), np.eye(2))

    def test_zero_centroid_rejected(self):
        cache = SemanticCache(3)
        with pytest.raises(ValueError):
            cache.set_layer_entries(0, np.array([0]), np.zeros((1, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_centroid_rejected(self, bad):
        cache = SemanticCache(3)
        ids, mat = _orthogonal_entries(3)
        mat = mat.copy()
        mat[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite centroid"):
            cache.set_layer_entries(0, ids, mat)
        assert cache.active_layers == []

    def test_negative_layer_rejected(self):
        """Every setter refuses a negative layer: the walk would score it
        against another level of each query."""
        cache = SemanticCache(3, dtype=np.float64)
        ids, mat = _orthogonal_entries(3)
        cache.set_layer_entries(2, ids, mat)
        for install in (cache.set_layer_entries, cache.set_layer_view):
            with pytest.raises(ValueError, match="layer must be >= 0"):
                install(-1, ids, mat)
        with pytest.raises(ValueError, match="layer must be >= 0"):
            cache.set_similarity_floor(-1, 0.5)
        assert cache.active_layers == [2]
        assert cache.similarity_floor(-1) == -1.0

    def test_total_entries_and_size(self):
        cache = SemanticCache(6)
        ids, mat = _orthogonal_entries(3)
        cache.set_layer_entries(0, ids, mat)
        cache.set_layer_entries(4, ids, mat[::-1])
        assert cache.total_entries == 6
        assert cache.size_bytes(lambda layer: 10 + layer) == 3 * 10 + 3 * 14

    def test_layers_hold_one_id_set_at_one_width(self):
        """Every layer of a cache holds the same class ids, in the same
        order, at one width: a layer that would not is refused, through
        either install path, and the cache keeps what it held."""
        cache = SemanticCache(6, dtype=np.float64)
        ids, mat = _orthogonal_entries(3)
        cache.set_layer_entries(0, ids, mat)
        refused = [
            (ids[:2], mat[:2]),  # fewer classes
            (ids[::-1], mat),  # same set, another order
            (np.array([0, 1, 5]), mat),  # another set of the same size
            (ids, np.eye(9)[:3]),  # another width
        ]
        for other_ids, other_mat in refused:
            for install in (cache.set_layer_entries, cache.set_layer_view):
                with pytest.raises(ValueError, match="the same class ids"):
                    install(3, other_ids, np.ascontiguousarray(other_mat))
        assert cache.active_layers == [0]
        # The only layer may be replaced by any set; a cleared cache
        # takes a new one.
        cache.set_layer_entries(0, ids[:1], mat[:1])
        cache.set_layer_view(2, ids[:1], np.ascontiguousarray(mat[:1]))
        assert cache.active_layers == [0, 2]
        assert cache.layer_pack().ids.tolist() == [0]
        cache.clear()
        cache.set_layer_entries(1, np.array([4, 5]), mat[:2])
        assert cache.layer_pack().ids.tolist() == [4, 5]

    def test_clear(self):
        cache = SemanticCache(4)
        ids, mat = _orthogonal_entries(2)
        cache.set_layer_entries(0, ids, mat)
        cache.clear()
        assert cache.active_layers == []

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SemanticCache(0)
        with pytest.raises(ValueError):
            SemanticCache(5, alpha=1.5)
        with pytest.raises(ValueError):
            SemanticCache(5, theta=-0.1)

    def test_theta_nan_rejected_inf_allowed(self):
        with pytest.raises(ValueError, match="theta"):
            SemanticCache(5, theta=float("nan"))
        assert SemanticCache(5, theta=np.inf).theta == np.inf


class TestLookup:
    def test_query_matching_entry_hits(self):
        cache = SemanticCache(4, theta=0.05)
        ids, mat = _orthogonal_entries(4)
        cache.set_layer_entries(0, ids, mat)
        session = _Row(cache)
        # Strong match with a positive runner-up (as in the real feature
        # geometry, where similarities share a positive common base).
        probe = session.probe(0, _unit(mat[2] + 0.2 * mat[1]))
        assert probe.hit
        assert probe.top_class == 2
        assert probe.score > 1.0  # small runner-up => huge margin

    def test_ambiguous_query_misses(self):
        cache = SemanticCache(4, theta=0.05)
        ids, mat = _orthogonal_entries(2)
        cache.set_layer_entries(0, ids, mat)
        query = _unit(mat[0] + mat[1])  # equidistant
        probe = _Row(cache).probe(0, query)
        assert not probe.hit
        assert probe.score == pytest.approx(0.0, abs=1e-9)

    def test_adversarial_negative_runner_up_is_clamped(self):
        """Regression: a vector anti-aligned with every entry but one used
        to fire a ~1e9 score (division by epsilon) and hit spuriously."""
        cache = SemanticCache(2, theta=0.05)
        mat = np.array([[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]])
        cache.set_layer_entries(0, np.array([0, 1]), mat)
        probe = _Row(cache).probe(0, np.array([1.0, 0.0, 0.0, 0.0]))
        # a_best = 1, a_second = -1: the old expression gave ~2e9.
        assert probe.score == 0.0
        assert not probe.hit

    def test_zero_runner_up_is_clamped(self):
        """An exactly-orthogonal runner-up gives no relative margin."""
        cache = SemanticCache(4, theta=0.05)
        ids, mat = _orthogonal_entries(4)
        cache.set_layer_entries(0, ids, mat)
        probe = _Row(cache).probe(0, mat[2])
        assert probe.score == 0.0
        assert not probe.hit

    def test_single_entry_layer_never_hits(self):
        cache = SemanticCache(4, theta=0.0)
        cache.set_layer_entries(0, np.array([1]), np.eye(8)[:1])
        probe = _Row(cache).probe(0, np.eye(8)[0])
        assert not probe.hit
        assert probe.top_class == 1
        assert probe.second_class == -1

    def test_eq1_accumulation(self):
        """A[i, j] = C[i, j] + alpha * A[i, j-1] across probed layers."""
        alpha = 0.5
        cache = SemanticCache(3, alpha=alpha, theta=np.inf)
        dim = 6
        mat = np.eye(dim)[:2]
        ids = np.array([0, 1])
        cache.set_layer_entries(0, ids, mat)
        cache.set_layer_entries(1, ids, mat)
        query = _unit([3.0, 4.0, 0, 0, 0, 0])  # cos 0.6 / 0.8 to the entries
        session = _Row(cache)
        session.probe(0, query)
        assert session.accumulated_score(0) == pytest.approx(0.6)
        assert session.accumulated_score(1) == pytest.approx(0.8)
        session.probe(1, query)
        assert session.accumulated_score(0) == pytest.approx(0.6 + alpha * 0.6)
        assert session.accumulated_score(1) == pytest.approx(0.8 + alpha * 0.8)

    def test_eq2_score(self):
        """D = (A_a - A_b) / A_b for the top-2 accumulated classes."""
        cache = SemanticCache(3, theta=np.inf)
        mat = np.eye(4)[:2]
        cache.set_layer_entries(0, np.array([0, 1]), mat)
        query = _unit([0.8, 0.6, 0, 0])
        probe = _Row(cache).probe(0, query)
        assert probe.top_class == 0
        assert probe.second_class == 1
        assert probe.score == pytest.approx((0.8 - 0.6) / 0.6, rel=1e-5)

    def test_negative_best_never_hits(self):
        cache = SemanticCache(3, theta=0.0)
        mat = np.eye(4)[:2]
        cache.set_layer_entries(0, np.array([0, 1]), mat)
        probe = _Row(cache).probe(0, -_unit([1.0, 1.0, 0, 0]))
        assert not probe.hit

    def test_unknown_layer_rejected(self):
        cache = SemanticCache(3)
        with pytest.raises(KeyError):
            _Row(cache).probe(0, np.ones(4))
        with pytest.raises(KeyError):
            cache.entries_at(0)

    def test_dimension_mismatch_rejected(self):
        cache = SemanticCache(3)
        ids, mat = _orthogonal_entries(2, dim=8)
        cache.set_layer_entries(0, ids, mat)
        with pytest.raises(ValueError):
            _Row(cache).probe(0, np.ones(5))

    def test_sessions_are_independent(self):
        cache = SemanticCache(3, theta=np.inf)
        ids, mat = _orthogonal_entries(2)
        cache.set_layer_entries(0, ids, mat)
        s1 = _Row(cache)
        s1.probe(0, mat[0])
        s2 = _Row(cache)
        assert s2.accumulated_score(0) == 0.0


class TestLookupProperties:
    @given(
        theta=st.floats(min_value=0.0, max_value=0.5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_hit_implies_score_above_theta(self, theta, seed):
        rng = np.random.default_rng(seed)
        cache = SemanticCache(6, theta=theta)
        mat = rng.standard_normal((4, 8))
        mat /= np.linalg.norm(mat, axis=1, keepdims=True)
        cache.set_layer_entries(0, np.arange(4), mat)
        query = _unit(rng.standard_normal(8))
        probe = _Row(cache).probe(0, query)
        if probe.hit:
            assert probe.score > np.float32(theta)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_top_class_has_max_accumulated_score(self, seed):
        rng = np.random.default_rng(seed)
        cache = SemanticCache(5, theta=np.inf)
        mat = rng.standard_normal((5, 8))
        mat /= np.linalg.norm(mat, axis=1, keepdims=True)
        cache.set_layer_entries(0, np.arange(5), mat)
        session = _Row(cache)
        probe = session.probe(0, _unit(rng.standard_normal(8)))
        scores = [session.accumulated_score(i) for i in range(5)]
        assert probe.top_class == int(np.argmax(scores))


class TestDtypePolicy:
    def test_default_dtype_is_float32(self):
        assert SemanticCache(4).dtype == np.dtype(np.float32)

    def test_entries_stored_in_cache_dtype_contiguous(self):
        for dtype in (np.float32, np.float64):
            cache = SemanticCache(5, dtype=dtype)
            ids, mat = _orthogonal_entries(3)
            cache.set_layer_entries(0, ids, mat)
            _, stored = cache.entries_at(0)
            assert stored.dtype == np.dtype(dtype)
            assert stored.flags.c_contiguous

    def test_rejects_unsupported_dtype(self):
        with pytest.raises(ValueError):
            SemanticCache(4, dtype=np.int32)
        with pytest.raises(ValueError):
            SemanticCache(4, dtype=np.float16)

    def test_content_equal_distinguishes_dtype(self):
        ids, mat = _orthogonal_entries(3)
        caches = []
        for dtype in (np.float32, np.float64):
            cache = SemanticCache(5, dtype=dtype)
            cache.set_layer_entries(0, ids, mat)
            caches.append(cache)
        assert not caches[0].content_equal(caches[1])
        assert caches[0].content_equal(caches[0])

    def test_sessions_accumulate_in_cache_dtype(self):
        cache = SemanticCache(4, dtype=np.float32)
        ids, mat = _orthogonal_entries(3)
        cache.set_layer_entries(0, ids, mat)
        batch = cache.start_batch_session(2)
        result = batch.probe(0, np.tile(_unit(np.ones(8)), (2, 1)))
        assert result.score.dtype == np.dtype(np.float32)


class TestEmptyRowSubset:
    def _cache(self, entries=3):
        cache = SemanticCache(5)
        ids, mat = _orthogonal_entries(entries)
        cache.set_layer_entries(0, ids, mat)
        return cache

    def test_empty_rows_returns_empty_probe(self):
        """An empty alive subset is a no-op probe, not a degenerate-layer
        special case."""
        cache = self._cache()
        session = cache.start_batch_session(4)
        result = session.probe(0, np.zeros((0, 8)), rows=np.zeros(0, dtype=int))
        assert result.rows.size == 0
        assert result.top_class.size == 0
        assert result.second_class.size == 0
        assert result.score.size == 0
        assert result.hit.size == 0

    def test_empty_rows_on_degenerate_layer(self):
        """Even a single-entry layer returns empty arrays for an empty
        subset (the seed tripped the ids.size < 2 branch instead)."""
        cache = self._cache(entries=1)
        session = cache.start_batch_session(4)
        result = session.probe(0, np.zeros((0, 8)), rows=np.zeros(0, dtype=int))
        assert result.top_class.size == 0
        assert result.hit.size == 0

    def test_empty_probe_leaves_accumulator_untouched(self):
        cache = self._cache()
        session = cache.start_batch_session(2)
        session.probe(0, np.zeros((0, 8)), rows=np.zeros(0, dtype=int))
        for row in range(2):
            for class_id in range(5):
                assert session.accumulated_score(row, class_id) == 0.0


class TestColumnModeAccumulator:
    """The batch accumulator matches one scalar session per row."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_shared_ids_stay_in_column_mode(self, dtype):
        rng = np.random.default_rng(0)
        same = SemanticCache(10, theta=0.0, dtype=dtype)
        for layer in range(3):
            same.set_layer_entries(layer, np.arange(8), rng.standard_normal((8, 6)))
        rng = np.random.default_rng(4)
        vectors = rng.standard_normal((3, 3, 6))
        batch = same.start_batch_session(3)
        scalars = [oracle.accumulator(same) for _ in range(3)]
        for layer in range(3):
            vecs = np.ascontiguousarray(vectors[:, layer, :], dtype=dtype)
            result = batch.probe(layer, vecs)
            for i, acc in enumerate(scalars):
                probe = oracle.probe(same, acc, layer, vecs[i])
                assert result.top_class[i] == probe.top_class
                assert bool(result.hit[i]) == probe.hit
        for i, acc in enumerate(scalars):
            for class_id in range(10):
                assert batch.accumulated_score(i, class_id) == pytest.approx(
                    float(acc[class_id]), rel=1e-5, abs=1e-6
                )


class SeedDenseSession:
    """The seed dense-float64 probe math, verbatim (fresh allocations,
    fancy-index gathers, no workspace) — the oracle of
    :class:`TestSeedFloat64Equivalence`."""

    def __init__(self, layers, batch, num_classes, alpha, theta):
        self._layers = layers
        self._batch = batch
        self._alpha = alpha
        self._theta = theta
        self._accumulated = np.zeros((batch, num_classes))

    def probe(self, layer, vecs):
        ids, mat = self._layers[layer]
        similarity = vecs @ mat.T
        row_index = np.arange(self._batch)[:, None]
        updated = similarity + self._alpha * self._accumulated[row_index, ids]
        self._accumulated[row_index, ids] = updated
        take = np.arange(self._batch)
        best_idx = np.argmax(updated, axis=1)
        a_best = updated[take, best_idx]
        updated[take, best_idx] = -np.inf
        second_idx = np.argmax(updated, axis=1)
        a_second = updated[take, second_idx]
        updated[take, best_idx] = a_best
        score = oracle.discriminative_score(a_best, a_second)
        hit = (score > self._theta) & (a_best > 0)
        return ids[best_idx], hit


class TestSeedFloat64Equivalence:
    """The float32 dense kernel against the seed float64 math on a
    serving-shaped cache: 3 layers x 512 entries of 600 classes (sibling
    clusters, a smooth similarity continuum, one shared direction, class
    energy growing with depth), 256 queries arriving in hot-spot runs."""

    LAYERS, DIM, RUN = 3, 48, 32
    CLASSES, ENTRIES, BATCH = 600, 512, 256
    ALPHA, THETA = 0.5, 0.05

    def _geometry(self, rng):
        dim, classes = self.DIM, self.CLASSES
        shared = rng.standard_normal(dim)
        shared /= np.linalg.norm(shared)
        clusters = -(-classes // 5)
        cluster_dirs = rng.standard_normal((clusters, dim))
        cluster_dirs /= np.linalg.norm(cluster_dirs, axis=1, keepdims=True)
        smooth_basis = rng.standard_normal((8, dim))
        smooth = rng.standard_normal((classes, 8)) @ smooth_basis
        smooth /= np.linalg.norm(smooth, axis=1, keepdims=True)
        unique = rng.standard_normal((classes, dim))
        unique /= np.linalg.norm(unique, axis=1, keepdims=True)
        class_dirs = (
            np.sqrt(0.40) * cluster_dirs[np.arange(classes) // 5]
            + np.sqrt(0.32) * smooth
            + np.sqrt(0.28) * unique
        )
        class_dirs /= np.linalg.norm(class_dirs, axis=1, keepdims=True)
        ids = np.sort(rng.choice(classes, size=self.ENTRIES, replace=False))
        layers = []
        for layer in range(self.LAYERS):
            energy = 0.2 + 0.3 * layer / (self.LAYERS - 1)
            mats = np.sqrt(energy) * class_dirs[ids] + np.sqrt(1 - energy) * shared
            mats /= np.linalg.norm(mats, axis=1, keepdims=True)
            layers.append((ids, mats))
        return layers

    def _queries(self, rng, layers):
        batch, dim = self.BATCH, self.DIM
        runs = rng.integers(self.ENTRIES, size=-(-batch // self.RUN))
        pick = np.repeat(runs, self.RUN)[:batch]
        queries = np.empty((batch, self.LAYERS, dim))
        for layer, (_, mats) in enumerate(layers):
            noisy = mats[pick] + 0.25 * rng.standard_normal((batch, dim)) / np.sqrt(dim)
            queries[:, layer, :] = noisy / np.linalg.norm(
                noisy, axis=1, keepdims=True
            )
        return queries

    def test_float32_dense_reproduces_every_seed_decision(self):
        rng = np.random.default_rng(17)
        layers = self._geometry(rng)
        queries = self._queries(rng, layers)
        seed = SeedDenseSession(
            layers, self.BATCH, self.CLASSES, self.ALPHA, self.THETA
        )
        cache = SemanticCache(
            self.CLASSES, alpha=self.ALPHA, theta=self.THETA, dtype=np.float32
        )
        for layer, (ids, mats) in enumerate(layers):
            cache.set_layer_entries(layer, ids, mats)
        session = cache.start_batch_session(self.BATCH)
        probe_queries = np.ascontiguousarray(queries, dtype=np.float32)
        hits = 0
        for layer in range(self.LAYERS):
            seed_top, seed_hit = seed.probe(layer, queries[:, layer, :])
            result = session.probe(layer, probe_queries[:, layer, :])
            assert np.array_equal(result.top_class, seed_top), layer
            assert np.array_equal(result.hit, seed_hit), layer
            hits += int(seed_hit.sum())
        assert 0 < hits < self.LAYERS * self.BATCH  # both decisions occur


class TestLookupWorkspace:
    def test_buffers_are_reused(self):
        from repro.core.cache import LookupWorkspace

        workspace = LookupWorkspace()
        first = workspace.floats("x", (4, 8), np.float32)
        second = workspace.floats("x", (2, 8), np.float32)
        assert np.shares_memory(first, second)
        grown = workspace.floats("x", (64, 64), np.float32)
        assert grown.shape == (64, 64)

    def test_pools_keyed_by_dtype(self):
        from repro.core.cache import LookupWorkspace

        workspace = LookupWorkspace()
        f32 = workspace.floats("x", (8,), np.float32)
        f64 = workspace.floats("x", (8,), np.float64)
        assert f32.dtype == np.float32 and f64.dtype == np.float64
        assert not np.shares_memory(f32, f64)

    def test_dtype_switch_never_reuses_stale_width(self):
        """The (name, dtype) pool key regression: switching a pool's
        dtype mid-session must hand back a fresh correctly-typed buffer,
        not a reinterpreted view of the old one."""
        from repro.core.cache import LookupWorkspace

        ws = LookupWorkspace()
        f64 = ws.floats("sim", (4, 4), np.float64)
        f64.fill(7.0)
        f32 = ws.floats("sim", (4, 4), np.float32)
        assert f32.dtype == np.float32
        assert not np.shares_memory(f64, f32)
        assert np.all(ws.floats("sim", (4, 4), np.float64) == 7.0)

    def test_scores_into_matches_reference(self):
        from repro.core.cache import LookupWorkspace

        rng = np.random.default_rng(5)
        best = rng.standard_normal(32)
        second = rng.standard_normal(32)
        second[:8] = -np.abs(second[:8])  # non-positive runner-ups clamp
        out = np.empty(32)
        LookupWorkspace.scores_into(
            best, second, out, np.empty(32, dtype=bool), np.empty(32)
        )
        assert np.array_equal(out, oracle.discriminative_score(best, second))


class TestLookupWorkspaceClose:
    """Teardown contract: close() drops the pools, any number of times."""

    def test_close_is_idempotent_and_workspace_stays_usable(self):
        from repro.core.cache import LookupWorkspace

        workspace = LookupWorkspace()
        workspace.floats("x", (4,), np.float32)
        workspace.stack_layout(1, 2, 3, 4, np.dtype(np.float32), np.dtype(np.float32))
        workspace.close()
        workspace.close()
        assert workspace._pools == {}
        assert workspace._layouts == {}
        # Pools regrow on demand.
        assert workspace.floats("x", (8,), np.float32).shape == (8,)
        workspace.close()
        assert workspace._pools == {}

    def test_context_manager_closes(self):
        from repro.core.cache import LookupWorkspace

        with LookupWorkspace() as workspace:
            workspace.floats("x", (4,), np.float32)
            assert workspace._pools
        assert workspace._pools == {}

    def test_engine_teardown_closes_its_workspace(self, tiny_model):
        from repro.core.engine import BatchedInferenceEngine

        engine = BatchedInferenceEngine(tiny_model)
        engine.workspace.floats("x", (4,), np.float32)
        engine.close()
        assert engine.workspace._pools == {}
