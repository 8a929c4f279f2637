"""Unit + property tests for the synthetic semantic feature space."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle

from repro.data.datasets import get_dataset
from repro.data.stream import FrameBlock
from repro.models.feature import (
    DRAW_BLOCK_ROWS,
    FeatureSpaceConfig,
    SemanticFeatureSpace,
)
from repro.models.zoo import build_model


def _space(num_classes=8, num_layers=6, num_clients=3, seed=7, **overrides):
    config = FeatureSpaceConfig(dim=16, cluster_size=4, **overrides)
    return SemanticFeatureSpace(
        num_classes=num_classes,
        num_layers=num_layers,
        num_clients=num_clients,
        config=config,
        rng=np.random.default_rng(seed),
    )


def _block(space, count, seed=0, difficulty=0.3):
    rng = np.random.default_rng(seed)
    return FrameBlock(
        class_ids=rng.integers(0, space.num_classes, count),
        difficulties=np.full(count, difficulty),
        run_positions=np.zeros(count, dtype=np.int64),
        stream_indices=np.arange(count),
    )


class TestConfigValidation:
    def test_defaults_are_valid(self):
        FeatureSpaceConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dim": 2},
            {"class_energy_min": 0.0},
            {"class_energy_min": 0.9, "class_energy_max": 0.5},
            {"iso_noise_min": 0.5, "iso_noise_max": 0.2},
            {"conf_sharp": 0.0},
            {"conf_primary_share": 0.3},
            {"w_cap": 0.2},
            {"cluster_cos": 1.0},
            {"drift_shared_frac": 1.5},
            {"temperature": 0.0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FeatureSpaceConfig(**kwargs)


class TestGeometry:
    def test_centroids_are_unit_norm(self):
        space = _space()
        for layer in range(space.num_layers + 1):
            norms = np.linalg.norm(space.centroid_matrix(layer), axis=1)
            assert np.allclose(norms, 1.0)

    def test_class_energy_grows_with_depth(self):
        space = _space()
        energies = [space.class_energy(j) for j in range(space.num_layers)]
        assert energies == sorted(energies)

    def test_noise_shrinks_with_depth(self):
        space = _space()
        noises = [space.noise_scale(j) for j in range(space.num_layers)]
        assert noises == sorted(noises, reverse=True)

    def test_deeper_layers_are_more_discriminative(self):
        """Between-class centroid cosine falls with depth (more class
        energy => more separation)."""
        space = _space()

        def mean_offdiag_cos(layer):
            M = space.centroid_matrix(layer)
            gram = M @ M.T
            return (gram.sum() - np.trace(gram)) / (gram.size - gram.shape[0])

        assert mean_offdiag_cos(space.num_layers - 1) < mean_offdiag_cos(0)

    def test_siblings_share_cluster(self):
        space = _space()
        assert 0 not in space.siblings_of(0)
        assert set(space.siblings_of(0)) == {1, 2, 3}

    def test_sibling_directions_more_similar_than_strangers(self):
        space = _space(cluster_cos=0.6)
        M = space.centroid_matrix(space.num_layers)  # final layer
        sibling_cos = M[0] @ M[1]
        stranger_cos = M[0] @ M[5]
        assert sibling_cos > stranger_cos

    def test_client_centroid_differs_under_drift(self):
        space = _space(client_drift_scale=0.2)
        base = space.centroid(0, 3)
        drifted = space.client_centroid(1, 0, 3)
        assert not np.allclose(base, drifted)
        assert np.linalg.norm(drifted) == pytest.approx(1.0)

    def test_no_drift_means_client_centroid_equals_global(self):
        space = _space(client_drift_scale=0.0)
        assert np.allclose(space.centroid(2, 1), space.client_centroid(0, 2, 1))

    def test_shared_drift_correlates_clients(self):
        shared = _space(client_drift_scale=0.3, drift_shared_frac=0.95, seed=3)
        indep = _space(client_drift_scale=0.3, drift_shared_frac=0.0, seed=3)

        def client_center_cos(space):
            a = space.client_centroid(0, 0, 5)
            b = space.client_centroid(1, 0, 5)
            return float(a @ b)

        assert client_center_cos(shared) > client_center_cos(indep)

    def test_constructor_validation(self):
        config = FeatureSpaceConfig(dim=16)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            SemanticFeatureSpace(1, 5, 1, config, rng)
        with pytest.raises(ValueError):
            SemanticFeatureSpace(5, 0, 1, config, rng)
        with pytest.raises(ValueError):
            SemanticFeatureSpace(5, 5, 0, config, rng)


class TestSampling:
    def test_vectors_unit_norm_at_all_layers(self, rng, make_block):
        space = _space()
        batch = space.draw_samples(make_block([0], 0.3), 0, rng)
        assert np.allclose(np.linalg.norm(batch.vectors[0], axis=-1), 1.0)

    def test_easy_sample_close_to_own_centroid(self, rng, make_block):
        space = _space()
        deep = space.num_layers - 1
        batch = space.draw_samples(make_block(np.zeros(50), 0.05), 0, rng)
        sims = batch.vectors[:, deep, :] @ space.centroid(0, deep)
        assert np.mean(sims) > 0.9

    def test_confusion_target_is_sibling(self, rng, make_block):
        space = _space()
        batch = space.draw_samples(make_block(np.full(20, 2), 0.3), 0, rng)
        assert set(batch.confusion_targets.tolist()) <= set(space.siblings_of(2))

    def test_hard_samples_get_higher_confusion(self):
        space = _space()
        rng = np.random.default_rng(0)
        easy = [space.confusion_weight(0.1, rng) for _ in range(300)]
        hard = [space.confusion_weight(0.95, rng) for _ in range(300)]
        assert np.mean(hard) > np.mean(easy) + 0.3

    def test_probabilities_are_normalized(self, rng, make_block):
        """The top-2 gap is one of normalized softmax probabilities."""
        space = _space()
        batch = space.draw_samples(make_block([0], 0.3), 1, rng)
        predictions, gaps = space.classify_vectors(batch.final_vectors())
        logits = space.centroid_matrix(space.final_layer) @ batch.final_vectors()[0]
        exp = np.exp((logits - logits.max()) / space.config.temperature)
        probs = np.sort(exp / exp.sum())
        assert 0.0 <= gaps[0] <= 1.0
        assert gaps[0] == pytest.approx(probs[-1] - probs[-2], rel=1e-9)
        assert predictions[0] == int(np.argmax(logits))

    def test_easy_samples_classified_correctly(self, rng, make_block):
        space = _space()
        classes = np.arange(100) % 8
        batch = space.draw_samples(make_block(classes, 0.05), 0, rng)
        predictions, _ = space.classify_vectors(batch.final_vectors())
        assert (predictions == classes).sum() >= 95

    def test_model_errors_land_on_siblings(self, rng, make_block):
        space = _space()
        batch = space.draw_samples(make_block(np.zeros(400), 0.95), 0, rng)
        predictions, _ = space.classify_vectors(batch.final_vectors())
        wrong_targets = predictions[predictions != 0]
        assert wrong_targets.size, "expected some errors at difficulty 0.95"
        sibling_share = np.isin(wrong_targets, space.siblings_of(0)).mean()
        assert sibling_share > 0.9

    def test_sample_validation(self, rng):
        space = _space()
        with pytest.raises(ValueError):
            space.draw_row(99, 0.3, 0, rng)
        with pytest.raises(ValueError):
            space.draw_row(0, 0.3, 99, rng)


class TestFeatureProperties:
    @given(
        difficulty=st.floats(min_value=0.0, max_value=0.999),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_confusion_weight_bounded(self, difficulty, seed):
        space = _space()
        w = space.confusion_weight(difficulty, np.random.default_rng(seed))
        assert 0.0 <= w <= space.config.w_cap

    @given(
        class_id=st.integers(min_value=0, max_value=7),
        client_id=st.integers(min_value=0, max_value=2),
        difficulty=st.floats(min_value=0.0, max_value=0.99),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_samples_always_unit_norm(self, class_id, client_id, difficulty, seed):
        space = _space()
        vectors, _, _ = space.draw_row(
            class_id, difficulty, client_id, np.random.default_rng(seed)
        )
        assert np.allclose(np.linalg.norm(vectors, axis=-1), 1.0)


class TestDrawSamples:
    """Batched draw: invariants plus distributional match to draw_row."""

    def test_shapes_and_unit_norms(self):
        space = _space()
        block = _block(space, 40)
        batch = space.draw_samples(block, 0, np.random.default_rng(1))
        assert len(batch) == 40
        assert batch.vectors.shape == (40, space.num_layers + 1, space.config.dim)
        norms = np.linalg.norm(batch.vectors, axis=-1)
        assert np.allclose(norms, 1.0)
        assert batch.confusion_targets.shape == (40,)
        assert batch.confusion_weights.shape == (40,)
        assert np.all(batch.confusion_weights >= 0.0)
        assert np.all(batch.confusion_weights <= space.config.w_cap)

    def test_confusion_targets_are_distinct_siblings(self):
        space = _space()
        block = _block(space, 200)
        batch = space.draw_samples(block, 0, np.random.default_rng(2))
        for class_id, target in zip(block.class_ids, batch.confusion_targets):
            assert target in space.siblings_of(int(class_id))
            assert target != class_id

    def test_empty_batch(self):
        space = _space()
        batch = space.draw_samples(_block(space, 0), 0, np.random.default_rng(0))
        assert len(batch) == 0
        assert batch.vectors.shape == (0, space.num_layers + 1, space.config.dim)

    def test_validation(self):
        space = _space()
        block = _block(space, 5)
        with pytest.raises(ValueError):
            space.draw_samples(block, space.num_clients, np.random.default_rng(0))
        bad = _block(space, 5)
        object.__setattr__(bad, "class_ids", np.array([0, 1, 2, 3, 99]))
        with pytest.raises(ValueError):
            space.draw_samples(bad, 0, np.random.default_rng(0))

    def test_sample_view_shares_vectors(self):
        """A row slice is a batch of views into the batch's arrays."""
        space = _space()
        block = _block(space, 8)
        batch = space.draw_samples(block, 1, np.random.default_rng(5))
        rows = batch[3:6]
        assert len(rows) == 3 and rows.client_id == 1
        assert np.array_equal(rows.class_ids, block.class_ids[3:6])
        for name in ("vectors", "confusion_targets", "confusion_weights"):
            assert np.shares_memory(getattr(rows, name), getattr(batch, name)), name
        assert np.array_equal(rows.vectors, batch.vectors[3:6])

    def test_classification_consistent_with_scalar_view(self):
        """Batched classification equals one sample's logits and softmax."""
        space = _space()
        block = _block(space, 30)
        batch = space.draw_samples(block, 0, np.random.default_rng(6))
        predictions, gaps = space.classify_vectors(batch.final_vectors())
        centroids = space.centroid_matrix(space.final_layer)
        for i in range(30):
            logits = centroids @ batch.final_vectors()[i]
            exp = np.exp((logits - logits.max()) / space.config.temperature)
            probs = np.sort(exp / exp.sum())
            assert predictions[i] == int(np.argmax(logits))
            assert gaps[i] == pytest.approx(probs[-1] - probs[-2], rel=1e-9)

    def test_distribution_matches_scalar_draw(self):
        """Batched and per-row draws follow the same generative process:
        compare own-centroid cosine distributions at the deepest layer."""
        space = _space()
        count = 1500
        block = _block(space, count, seed=8, difficulty=0.3)
        batch = space.draw_samples(block, 0, np.random.default_rng(11))
        rng = np.random.default_rng(12)
        scalar = [
            space.draw_row(int(c), float(d), 0, rng)
            for c, d in zip(block.class_ids, block.difficulties)
        ]
        layer = space.num_layers  # final representation
        own = space.centroid_matrix(layer)[block.class_ids]
        batch_cos = np.einsum("bd,bd->b", batch.vectors[:, layer, :], own)
        scalar_cos = np.array(
            [vectors[layer] @ own[i] for i, (vectors, _, _) in enumerate(scalar)]
        )
        assert abs(batch_cos.mean() - scalar_cos.mean()) < 0.02
        assert abs(np.quantile(batch_cos, 0.25) - np.quantile(scalar_cos, 0.25)) < 0.03
        assert abs(np.quantile(batch_cos, 0.75) - np.quantile(scalar_cos, 0.75)) < 0.03
        # The two-mode weight draw: hard fraction matches.
        batch_hard = np.mean(batch.confusion_weights > 0.4)
        scalar_hard = np.mean([w > 0.4 for _, _, w in scalar])
        assert abs(batch_hard - scalar_hard) < 0.05

    def test_drift_moves_batch_toward_client_centroid(self):
        space = _space(client_drift_scale=0.35)
        count = 400
        block = _block(space, count, seed=4)
        batch = space.draw_samples(block, 1, np.random.default_rng(3))
        layer = space.num_layers - 1
        client_cos = np.mean(
            [
                batch.vectors[i, layer] @ space.client_centroid(1, int(c), layer)
                for i, c in enumerate(block.class_ids)
            ]
        )
        global_cos = np.mean(
            [
                batch.vectors[i, layer] @ space.centroid(int(c), layer)
                for i, c in enumerate(block.class_ids)
            ]
        )
        assert client_cos > global_cos


#: Draw sizes of the pins: 1, 7 and 300 rows, one row either side of a
#: mix block, two blocks and a tail row, and a calibration draw.
PIN_COUNTS = [
    1,
    7,
    300,
    DRAW_BLOCK_ROWS - 1,
    DRAW_BLOCK_ROWS,
    DRAW_BLOCK_ROWS + 1,
    2 * DRAW_BLOCK_ROWS + 1,
    600,
]


class TestDrawPinnedToOracle:
    """The block draw's bits: ``oracle.draw_samples`` keeps the draw as
    one whole-batch mix over a drifted copy of the whole centroid table;
    the production draw drifts only the classes the block touches and
    mixes in row blocks.  Vectors, confusion arrays and the generator
    state afterwards must be bit-equal."""

    def _check(self, space, client_id, count, seed):
        block = _block(space, count, seed=seed)
        rng = np.random.default_rng(seed + 100)
        expected_rng = np.random.default_rng(seed + 100)
        got = space.draw_samples(block, client_id, rng)
        expected = oracle.draw_samples(space, block, client_id, expected_rng)
        assert np.array_equal(got.vectors, expected.vectors)
        assert np.array_equal(got.confusion_targets, expected.confusion_targets)
        assert np.array_equal(got.confusion_weights, expected.confusion_weights)
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    @pytest.mark.parametrize("count", PIN_COUNTS)
    @pytest.mark.parametrize("drift", [0.0, 0.12])
    def test_tiny_space(self, drift, count):
        space = _space(client_drift_scale=drift)
        self._check(space, 2, count, seed=count)

    @pytest.mark.parametrize("count", PIN_COUNTS)
    def test_after_evolve_drift(self, count):
        space = _space(client_drift_scale=0.12)
        space.evolve_drift(0.1, np.random.default_rng(9))
        space.evolve_drift(0.1, np.random.default_rng(10))
        self._check(space, 1, count, seed=count + 1)

    @pytest.mark.parametrize("count", PIN_COUNTS)
    @pytest.mark.parametrize("num_clients", [1, 4])
    def test_resnet101_ucf101_50(self, num_clients, count):
        # One client draws without drift, four with the default drift.
        space = build_model(
            "resnet101", get_dataset("ucf101", 50), num_clients=num_clients, seed=0
        ).feature_space
        assert (space.config.client_drift_scale != 0.0) == (num_clients > 1)
        self._check(space, num_clients - 1, count, seed=count + 2)

    def test_zero_norm_raises_after_every_block(self):
        space = _space(client_drift_scale=0.0)
        space._centroids_by_class = np.zeros_like(space._centroids_by_class)
        space._iso_noise = np.zeros_like(space._iso_noise)
        block = _block(space, 2 * DRAW_BLOCK_ROWS + 1, seed=4)
        rng = np.random.default_rng(104)
        expected_rng = np.random.default_rng(104)
        with pytest.raises(ValueError, match="zero vector"):
            space.draw_samples(block, 0, rng)
        with pytest.raises(ValueError, match="zero vector"):
            oracle.draw_samples(space, block, 0, expected_rng)
        assert rng.bit_generator.state == expected_rng.bit_generator.state


class TestDrawMatchesWholeTableOracle:
    """Property form of the pin over block size, drift, client and class
    count.  With 2 or 6 classes in clusters of 4 some class has one
    sibling, so both its siblings are one gather of a padded sibling row;
    such a class always leads the block."""

    @given(
        count=st.sampled_from(
            [1, DRAW_BLOCK_ROWS, DRAW_BLOCK_ROWS + 1, 2 * DRAW_BLOCK_ROWS + 5]
        ),
        drift=st.sampled_from([0.0, 0.12]),
        num_classes=st.sampled_from([2, 6, 8]),
        client_id=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=0, max_value=10_000),
        zero_norm=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_bits_and_generator_state(
        self, count, drift, num_classes, client_id, seed, zero_norm
    ):
        space = _space(num_classes=num_classes, client_drift_scale=drift)
        block = _block(space, count, seed=seed)
        lonely = np.flatnonzero(space._sibling_count < 2)
        if lonely.size:
            block.class_ids[0] = lonely[seed % lonely.size]
        if zero_norm:
            for name in ("_centroids_by_class", "_drift_dirs", "_iso_noise"):
                setattr(space, name, np.zeros_like(getattr(space, name)))
        rng = np.random.default_rng(seed + 1)
        expected_rng = np.random.default_rng(seed + 1)
        if zero_norm:
            with pytest.raises(ValueError, match="zero vector"):
                space.draw_samples(block, client_id, rng)
            with pytest.raises(ValueError, match="zero vector"):
                oracle.draw_samples(space, block, client_id, expected_rng)
        else:
            got = space.draw_samples(block, client_id, rng)
            expected = oracle.draw_samples(space, block, client_id, expected_rng)
            assert got.vectors.tobytes() == expected.vectors.tobytes()
            assert np.array_equal(got.confusion_targets, expected.confusion_targets)
            assert (
                got.confusion_weights.tobytes() == expected.confusion_weights.tobytes()
            )
        assert rng.bit_generator.state == expected_rng.bit_generator.state
