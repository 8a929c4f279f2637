"""Unit + property tests for the temporally-local stream generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.stream import FrameBlock, StreamGenerator, empirical_class_frequencies


def _uniform_stream(num_classes=10, run=8.0, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    return StreamGenerator(
        class_distribution=np.full(num_classes, 1.0 / num_classes),
        mean_run_length=run,
        rng=rng,
        **kwargs,
    )


class TestStreamGenerator:
    def test_frames_are_sequential(self):
        stream = _uniform_stream()
        assert np.array_equal(stream.take_block(20).stream_indices, np.arange(20))

    def test_runs_share_class(self):
        stream = _uniform_stream(run=50.0, seed=3)
        block = stream.take_block(30)
        # With mean run 50, thirty frames are almost surely few runs; run
        # positions increase within a run and reset at boundaries.
        inside = block.run_positions[1:] > 0
        assert np.array_equal(block.class_ids[1:][inside], block.class_ids[:-1][inside])

    def test_temporal_locality_increases_with_run_length(self):
        short = _uniform_stream(run=2.0, seed=5, working_set_size=None)
        long = _uniform_stream(run=30.0, seed=5, working_set_size=None)

        def repeat_rate(stream):
            ids = stream.take_block(2000).class_ids
            return np.mean(ids[1:] == ids[:-1])

        assert repeat_rate(long) > repeat_rate(short)

    def test_respects_class_distribution(self):
        rng = np.random.default_rng(11)
        probs = np.array([0.7, 0.1, 0.1, 0.1])
        stream = StreamGenerator(probs, 1.0, rng, working_set_size=None)
        freqs = empirical_class_frequencies(stream.take_block(6000), 4)
        assert freqs[0] == pytest.approx(0.7, abs=0.05)

    def test_difficulty_bounds(self):
        stream = _uniform_stream(seed=9)
        difficulties = stream.take_block(500).difficulties
        assert np.all((difficulties >= 0.0) & (difficulties < 1.0))

    def test_run_heads_are_harder_on_average(self):
        stream = _uniform_stream(run=6.0, seed=13)
        block = stream.take_block(4000)
        heads = block.difficulties[block.run_positions == 0]
        tails = block.difficulties[block.run_positions >= 3]
        assert heads.mean() > tails.mean()

    def test_working_set_limits_active_classes(self):
        stream = _uniform_stream(num_classes=30, seed=17, working_set_size=5,
                                 churn_probability=0.0)
        assert np.unique(stream.take_block(1000).class_ids).size <= 5

    def test_working_set_churn_rotates_classes(self):
        stream = _uniform_stream(
            num_classes=30, run=2.0, seed=19, working_set_size=5,
            churn_probability=0.5,
        )
        assert np.unique(stream.take_block(3000).class_ids).size > 5

    def test_deterministic_given_seed(self):
        a = _uniform_stream(seed=42).take_block(100)
        b = _uniform_stream(seed=42).take_block(100)
        assert np.array_equal(a.class_ids, b.class_ids)
        assert np.array_equal(a.difficulties, b.difficulties)

    def test_take_validation(self):
        stream = _uniform_stream()
        with pytest.raises(ValueError):
            stream.take_block(-1)
        assert len(stream.take_block(0)) == 0

    def test_input_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            StreamGenerator(np.array([0.5, 0.6]), 5.0, rng)
        with pytest.raises(ValueError):
            StreamGenerator(np.array([1.0]), 0.5, rng)
        with pytest.raises(ValueError):
            StreamGenerator(np.array([1.0]), 5.0, rng, base_difficulty=1.5)
        with pytest.raises(ValueError):
            StreamGenerator(np.array([1.0]), 5.0, rng, churn_probability=2.0)
        with pytest.raises(ValueError):
            StreamGenerator(
                np.full(4, 0.25), 5.0, rng, working_set_size=0
            )


class TestEmpiricalFrequencies:
    def test_sums_to_one(self, make_block):
        freqs = empirical_class_frequencies(make_block([0, 1, 1]), 3)
        assert freqs.sum() == pytest.approx(1.0)
        assert freqs[1] == pytest.approx(2 / 3)

    def test_out_of_range_class_rejected(self, make_block):
        with pytest.raises(ValueError):
            empirical_class_frequencies(make_block([5]), 3)

    def test_empty_input(self, make_block):
        freqs = empirical_class_frequencies(make_block([]), 3)
        assert np.allclose(freqs, 0.0)


class TestStreamProperties:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        run=st.floats(min_value=1.0, max_value=40.0),
        ws=st.one_of(st.none(), st.integers(min_value=1, max_value=12)),
    )
    @settings(max_examples=25, deadline=None)
    def test_stream_always_valid(self, seed, run, ws):
        rng = np.random.default_rng(seed)
        stream = StreamGenerator(
            np.full(12, 1 / 12), run, rng, working_set_size=ws
        )
        block = stream.take_block(200)
        assert np.all((block.class_ids >= 0) & (block.class_ids < 12))
        assert np.all((block.difficulties >= 0.0) & (block.difficulties < 1.0))
        assert np.all(block.run_positions >= 0)


class TestTakeBlock:
    def test_matches_frame_invariants(self):
        stream = _uniform_stream(seed=11)
        block = stream.take_block(120)
        assert isinstance(block, FrameBlock)
        assert len(block) == 120
        assert np.array_equal(block.stream_indices, np.arange(120))
        assert np.all((block.class_ids >= 0) & (block.class_ids < 10))
        assert np.all((block.difficulties >= 0.0) & (block.difficulties < 1.0))
        assert np.all(block.run_positions >= 0)
        # Run positions increment within a class run and reset on change.
        for i in range(1, 120):
            if block.class_ids[i] == block.class_ids[i - 1]:
                assert block.run_positions[i] in (
                    block.run_positions[i - 1] + 1,
                    0,  # adjacent runs can share a class
                )
            else:
                assert block.run_positions[i] == 0

    def test_mixes_with_scalar_granularity(self):
        """Single-frame blocks continue the stream like any other."""
        stream = _uniform_stream(seed=4)
        for index in range(7):
            assert stream.take_block(1).stream_indices.tolist() == [index]
        block = stream.take_block(5)
        assert np.array_equal(block.stream_indices, np.arange(7, 12))
        assert stream.take_block(1).stream_indices.tolist() == [12]

    def test_empty_block(self):
        stream = _uniform_stream()
        block = stream.take_block(0)
        assert len(block) == 0
        assert stream.take_block(1).stream_indices.tolist() == [0]

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            _uniform_stream().take_block(-1)

    def test_distribution_matches_scalar_path(self):
        """A frame at a time draws the frames one block holds."""
        scalar = _uniform_stream(num_classes=6, run=4.0, seed=9)
        block = _uniform_stream(num_classes=6, run=4.0, seed=9).take_block(400)
        ids = [int(scalar.take_block(1).class_ids[0]) for _ in range(400)]
        assert ids == block.class_ids.tolist()

    @pytest.mark.parametrize("working_set_size", [10, None])
    def test_consecutive_blocks_concatenate_to_one_block(self, working_set_size):
        def stream():
            return StreamGenerator(
                np.random.default_rng(3).dirichlet(np.ones(50)),
                6.0,
                np.random.default_rng(5),
                working_set_size=working_set_size,
            )

        whole = stream().take_block(300)
        split = stream()
        parts = [split.take_block(n) for n in (17, 1, 282)]
        for name in ("class_ids", "difficulties", "run_positions", "stream_indices"):
            joined = np.concatenate([getattr(part, name) for part in parts])
            assert np.array_equal(joined, getattr(whole, name)), name

    def test_frameblock_roundtrip(self):
        """Row slices are views that join back into the block."""
        block = _uniform_stream(seed=2).take_block(30)
        parts = [block[0:3], block[3:4], block[4:]]
        assert np.shares_memory(parts[2].difficulties, block.difficulties)
        for name in ("class_ids", "difficulties", "run_positions", "stream_indices"):
            joined = np.concatenate([getattr(part, name) for part in parts])
            assert np.array_equal(joined, getattr(block, name)), name

    def test_frameblock_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FrameBlock(
                class_ids=np.zeros(3, dtype=np.int64),
                difficulties=np.zeros(2),
                run_positions=np.zeros(3, dtype=np.int64),
                stream_indices=np.zeros(3, dtype=np.int64),
            )


class TestEmpiricalFrequenciesBlock:
    def test_block_input_counts(self):
        block = FrameBlock(
            class_ids=np.array([0, 1, 1, 2]),
            difficulties=np.zeros(4),
            run_positions=np.zeros(4, dtype=np.int64),
            stream_indices=np.arange(4),
        )
        freqs = empirical_class_frequencies(block, 4)
        assert freqs.sum() == pytest.approx(1.0)
        assert freqs[1] == pytest.approx(0.5)

    def test_block_out_of_range_rejected(self):
        block = FrameBlock(
            class_ids=np.array([0, 9]),
            difficulties=np.zeros(2),
            run_positions=np.zeros(2, dtype=np.int64),
            stream_indices=np.arange(2),
        )
        with pytest.raises(ValueError):
            empirical_class_frequencies(block, 3)

    def test_negative_class_rejected(self, make_block):
        with pytest.raises(ValueError):
            empirical_class_frequencies(make_block([-1]), 3)
