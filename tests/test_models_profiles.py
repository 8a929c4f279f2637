"""Unit tests for latency profiles and memory accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.profiles import (
    LatencyProfile,
    LookupCostModel,
    ResNetStagePlan,
    build_profile,
)


def _profile(total=10.0, layers=4, channels=None, weights=None):
    channels = channels if channels is not None else [8] * layers
    return build_profile(
        total_compute_ms=total,
        num_cache_layers=layers,
        channels_per_layer=channels,
        block_weights=weights,
    )


class TestLatencyProfile:
    def test_total_compute_matches_budget(self):
        profile = _profile(total=25.0)
        assert profile.total_compute_ms == pytest.approx(25.0)

    def test_block_count(self):
        profile = _profile(layers=6)
        assert profile.num_blocks == 7
        assert profile.num_cache_layers == 6

    def test_prefix_plus_saved_equals_total(self):
        profile = _profile(total=30.0, layers=5)
        for layer in range(5):
            total = profile.compute_up_to_layer_ms(layer) + profile.saved_if_hit_at(layer)
            assert total == pytest.approx(30.0)

    def test_saved_time_decreases_with_depth(self):
        profile = _profile(layers=8)
        saved = [profile.saved_if_hit_at(j) for j in range(8)]
        assert saved == sorted(saved, reverse=True)

    def test_lookup_cost_affine_in_entries(self):
        profile = _profile()
        base = profile.lookup_cost_ms(1)
        assert profile.lookup_cost_ms(11) == pytest.approx(
            base + 10 * profile.lookup_per_entry_ms
        )

    def test_lookup_cost_zero_entries(self):
        assert _profile().lookup_cost_ms(0) == 0.0

    def test_lookup_cost_rejects_negative(self):
        with pytest.raises(ValueError):
            _profile().lookup_cost_ms(-1)


class TestLookupCostModel:
    def test_profile_and_model_agree(self):
        profile = _profile()
        model = profile.lookup_cost_model
        for n in (0, 1, 7, 500):
            assert model.cost_ms(n) == pytest.approx(profile.lookup_cost_ms(n))

    def test_is_callable(self):
        model = LookupCostModel(base_ms=1.0, per_entry_ms=0.5)
        assert model(4) == pytest.approx(3.0)

    def test_zero_entries_cost_nothing(self):
        assert LookupCostModel().cost_ms(0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LookupCostModel(base_ms=-1.0)
        with pytest.raises(ValueError):
            LookupCostModel(per_entry_ms=-0.1)
        with pytest.raises(ValueError):
            LookupCostModel().cost_ms(-1)

    def test_entry_sizes_follow_channels(self):
        profile = _profile(channels=[8, 16, 32, 64])
        assert profile.entry_size_bytes(0) == 32
        assert profile.entry_size_bytes(3) == 256

    def test_layer_bounds(self):
        profile = _profile(layers=3)
        with pytest.raises(ValueError):
            profile.compute_up_to_layer_ms(3)

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyProfile(
                block_times_ms=(1.0,),
                lookup_base_ms=0.1,
                lookup_per_entry_ms=0.01,
                entry_sizes_bytes=(),
            )
        with pytest.raises(ValueError):
            LatencyProfile(
                block_times_ms=(1.0, 2.0),
                lookup_base_ms=-0.1,
                lookup_per_entry_ms=0.01,
                entry_sizes_bytes=(4,),
            )
        with pytest.raises(ValueError):
            LatencyProfile(
                block_times_ms=(1.0, 2.0),
                lookup_base_ms=0.1,
                lookup_per_entry_ms=0.01,
                entry_sizes_bytes=(4, 4),  # must have exactly 1
            )


class TestBuildProfile:
    def test_weights_shape_checked(self):
        with pytest.raises(ValueError):
            _profile(layers=3, weights=[1.0, 1.0])  # needs 4

    def test_weights_shape_compute_split(self):
        profile = _profile(total=10.0, layers=1, channels=[8], weights=[3.0, 1.0])
        assert profile.block_time_ms(0) == pytest.approx(7.5)
        assert profile.block_time_ms(1) == pytest.approx(2.5)

    def test_channels_length_checked(self):
        with pytest.raises(ValueError):
            _profile(layers=3, channels=[8, 8])

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            _profile(total=0.0)

    @given(
        total=st.floats(min_value=1.0, max_value=200.0),
        layers=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=30, deadline=None)
    def test_block_times_always_sum_to_total(self, total, layers):
        profile = _profile(total=total, layers=layers, channels=[8] * layers)
        assert profile.total_compute_ms == pytest.approx(total)


class TestResNetStagePlan:
    def test_resnet101_has_34_cache_layers(self):
        plan = ResNetStagePlan(blocks_per_stage=(3, 4, 23, 3))
        assert plan.num_cache_layers == 34

    def test_channels_follow_stages(self):
        plan = ResNetStagePlan(blocks_per_stage=(1, 1, 1, 1))
        assert plan.channels() == [64, 256, 512, 1024, 2048]

    def test_weights_cover_all_blocks(self):
        plan = ResNetStagePlan(blocks_per_stage=(3, 4, 6, 3))
        # stem + 16 blocks + head
        assert len(plan.weights()) == plan.num_cache_layers + 1
