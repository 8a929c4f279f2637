"""Unit + property tests for the temporally-local stream generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.stream import Frame, StreamGenerator, empirical_class_frequencies


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
        frames = stream.take(20)
        assert [f.stream_index for f in frames] == list(range(20))

    def test_runs_share_class(self):
        stream = _uniform_stream(run=50.0, seed=3)
        frames = stream.take(30)
        # With mean run 50, thirty frames are almost surely few runs; run
        # positions increase within a run and reset at boundaries.
        for prev, cur in zip(frames, frames[1:]):
            if cur.run_position > 0:
                assert cur.class_id == prev.class_id

    def test_temporal_locality_increases_with_run_length(self):
        short = _uniform_stream(run=2.0, seed=5, working_set_size=None)
        long = _uniform_stream(run=30.0, seed=5, working_set_size=None)

        def repeat_rate(stream):
            frames = stream.take(2000)
            return np.mean(
                [a.class_id == b.class_id for a, b in zip(frames, frames[1:])]
            )

        assert repeat_rate(long) > repeat_rate(short)

    def test_respects_class_distribution(self):
        rng = np.random.default_rng(11)
        probs = np.array([0.7, 0.1, 0.1, 0.1])
        stream = StreamGenerator(probs, 1.0, rng, working_set_size=None)
        freqs = empirical_class_frequencies(stream.take(6000), 4)
        assert freqs[0] == pytest.approx(0.7, abs=0.05)

    def test_difficulty_bounds(self):
        stream = _uniform_stream(seed=9)
        for frame in stream.take(500):
            assert 0.0 <= frame.difficulty < 1.0

    def test_run_heads_are_harder_on_average(self):
        stream = _uniform_stream(run=6.0, seed=13)
        frames = stream.take(4000)
        heads = [f.difficulty for f in frames if f.run_position == 0]
        tails = [f.difficulty for f in frames if f.run_position >= 3]
        assert np.mean(heads) > np.mean(tails)

    def test_working_set_limits_active_classes(self):
        stream = _uniform_stream(num_classes=30, seed=17, working_set_size=5,
                                 churn_probability=0.0)
        frames = stream.take(1000)
        assert len({f.class_id for f in frames}) <= 5

    def test_working_set_churn_rotates_classes(self):
        stream = _uniform_stream(
            num_classes=30, run=2.0, seed=19, working_set_size=5,
            churn_probability=0.5,
        )
        frames = stream.take(3000)
        assert len({f.class_id for f in frames}) > 5

    def test_working_set_disabled(self):
        stream = _uniform_stream(num_classes=6, seed=21, working_set_size=None)
        assert stream.working_set is None

    def test_deterministic_given_seed(self):
        a = _uniform_stream(seed=42).take(100)
        b = _uniform_stream(seed=42).take(100)
        assert [f.class_id for f in a] == [f.class_id for f in b]
        assert [f.difficulty for f in a] == [f.difficulty for f in b]

    def test_take_validation(self):
        stream = _uniform_stream()
        with pytest.raises(ValueError):
            stream.take(-1)
        assert stream.take(0) == []

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
    def test_sums_to_one(self):
        frames = [Frame(0, 0.1, 0, 0), Frame(1, 0.1, 0, 1), Frame(1, 0.1, 1, 2)]
        freqs = empirical_class_frequencies(frames, 3)
        assert freqs.sum() == pytest.approx(1.0)
        assert freqs[1] == pytest.approx(2 / 3)

    def test_out_of_range_class_rejected(self):
        with pytest.raises(ValueError):
            empirical_class_frequencies([Frame(5, 0.1, 0, 0)], 3)

    def test_empty_input(self):
        freqs = empirical_class_frequencies([], 3)
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
        for frame in stream.take(200):
            assert 0 <= frame.class_id < 12
            assert 0.0 <= frame.difficulty < 1.0
            assert frame.run_position >= 0


class TestTakeBlock:
    def test_matches_frame_invariants(self):
        from repro.data.stream import FrameBlock

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
        stream = _uniform_stream(seed=4)
        stream.take(7)
        block = stream.take_block(5)
        assert np.array_equal(block.stream_indices, np.arange(7, 12))
        (frame,) = stream.take(1)
        assert isinstance(frame, Frame)
        assert frame.stream_index == 12

    def test_empty_block(self):
        stream = _uniform_stream()
        block = stream.take_block(0)
        assert len(block) == 0
        assert stream.take(1)[0].stream_index == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            _uniform_stream().take_block(-1)

    def test_distribution_matches_scalar_path(self):
        scalar = _uniform_stream(num_classes=6, run=4.0, seed=9)
        block_gen = _uniform_stream(num_classes=6, run=4.0, seed=9)
        scalar_freq = empirical_class_frequencies(scalar.take(4000), 6)
        block_freq = empirical_class_frequencies(block_gen.take_block(4000), 6)
        assert np.abs(scalar_freq - block_freq).max() < 0.08

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

    def test_take_is_the_block_as_frames(self):
        block = _uniform_stream(seed=8).take_block(64)
        assert _uniform_stream(seed=8).take(64) == block.frames()

    def test_frameblock_roundtrip(self):
        from repro.data.stream import FrameBlock

        stream = _uniform_stream(seed=2)
        block = stream.take_block(30)
        frames = block.frames()
        rebuilt = FrameBlock.from_frames(frames)
        assert np.array_equal(rebuilt.class_ids, block.class_ids)
        assert np.allclose(rebuilt.difficulties, block.difficulties)
        assert np.array_equal(rebuilt.run_positions, block.run_positions)
        assert np.array_equal(rebuilt.stream_indices, block.stream_indices)
        assert frames[3] == block.frame(3)

    def test_frameblock_shape_mismatch_rejected(self):
        from repro.data.stream import FrameBlock

        with pytest.raises(ValueError):
            FrameBlock(
                class_ids=np.zeros(3, dtype=np.int64),
                difficulties=np.zeros(2),
                run_positions=np.zeros(3, dtype=np.int64),
                stream_indices=np.zeros(3, dtype=np.int64),
            )


class TestEmpiricalFrequenciesBlock:
    def test_block_input_counts(self):
        from repro.data.stream import FrameBlock

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
        from repro.data.stream import FrameBlock

        block = FrameBlock(
            class_ids=np.array([0, 9]),
            difficulties=np.zeros(2),
            run_positions=np.zeros(2, dtype=np.int64),
            stream_indices=np.arange(2),
        )
        with pytest.raises(ValueError):
            empirical_class_frequencies(block, 3)

    def test_negative_class_rejected(self):
        with pytest.raises(ValueError):
            empirical_class_frequencies([Frame(-1, 0.1, 0, 0)], 3)
