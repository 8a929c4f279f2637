"""Unit + property tests for the ACA allocation algorithm."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle

from repro.core.allocation import (
    aca_allocate,
    class_scores,
    select_hotspot_classes,
)


class TestClassScores:
    def test_fresh_classes_keep_full_frequency(self):
        scores = class_scores(
            global_freq=np.array([10.0, 20.0]),
            timestamps=np.array([0.0, 10.0]),
            frames_per_round=300,
        )
        # Both tau < F: no discount; scores proportional to frequency.
        assert scores[1] == pytest.approx(2 * scores[0])

    def test_stale_classes_discounted_per_round(self):
        scores = class_scores(
            global_freq=np.array([10.0, 10.0, 10.0]),
            timestamps=np.array([0.0, 300.0, 600.0]),
            frames_per_round=300,
            recency_base=0.2,
        )
        assert scores[1] == pytest.approx(0.2 * scores[0])
        assert scores[2] == pytest.approx(0.04 * scores[0])

    def test_local_blend_rescues_local_classes(self):
        """A globally-rare but locally-dominant class outranks a globally
        common but locally-absent one when local frequencies are blended."""
        global_freq = np.array([100.0, 1.0])
        tau = np.zeros(2)
        local = np.array([0.0, 50.0])
        blended = class_scores(
            global_freq, tau, 300, local_freq=local, local_weight=0.5
        )
        pure = class_scores(global_freq, tau, 300)
        assert pure[0] > pure[1]
        assert blended[1] > 0.4  # local class carries ~half the mass

    def test_validation(self):
        with pytest.raises(ValueError):
            class_scores(np.ones(3), np.ones(2), 300)
        with pytest.raises(ValueError):
            class_scores(np.ones(3), np.ones(3), 0)
        with pytest.raises(ValueError):
            class_scores(np.ones(3), np.ones(3), 300, recency_base=1.0)
        with pytest.raises(ValueError):
            class_scores(np.ones(3), np.ones(3), 300, local_freq=np.ones(2))


class TestHotspotSelection:
    def test_covers_requested_mass(self):
        scores = np.array([50.0, 30.0, 15.0, 4.0, 1.0])
        hot = select_hotspot_classes(scores, 0.95)
        assert list(hot) == [0, 1, 2]  # 95/100 reaches the mass exactly
        hot = select_hotspot_classes(scores, 0.96)
        assert list(hot) == [0, 1, 2, 3]  # needs the next class

    def test_single_dominant_class(self):
        hot = select_hotspot_classes(np.array([100.0, 0.1, 0.1]), 0.9)
        assert list(hot) == [0]

    def test_all_zero_scores_selects_everything(self):
        hot = select_hotspot_classes(np.zeros(6), 0.95)
        assert list(hot) == list(range(6))

    def test_mass_one_selects_everything_with_positive_scores(self):
        hot = select_hotspot_classes(np.array([3.0, 2.0, 1.0]), 1.0)
        assert set(hot) == {0, 1, 2}

    def test_order_is_descending_score(self):
        hot = select_hotspot_classes(np.array([1.0, 5.0, 3.0]), 1.0)
        assert list(hot) == [1, 2, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            select_hotspot_classes(np.array([-1.0, 2.0]), 0.9)
        with pytest.raises(ValueError):
            select_hotspot_classes(np.ones(3), 0.0)


def _basic_inputs(num_classes=6, num_layers=5):
    return dict(
        global_freq=np.ones(num_classes),
        timestamps=np.zeros(num_classes),
        hit_ratio=np.linspace(0.2, 0.8, num_layers),
        saved_time_ms=np.linspace(10.0, 1.0, num_layers),
        entry_sizes_bytes=np.full(num_layers, 10),
        budget_bytes=10_000,
        frames_per_round=300,
    )


class TestAcaAllocate:
    def test_allocates_within_budget(self):
        result = aca_allocate(**{**_basic_inputs(), "budget_bytes": 125})
        assert result.size_bytes <= 125
        assert result.layers  # something allocated

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError):
            aca_allocate(**{**_basic_inputs(), "budget_bytes": 0})

    def test_tiny_budget_allocates_nothing(self):
        result = aca_allocate(**{**_basic_inputs(), "budget_bytes": 5})
        assert result.layers == []
        assert result.size_bytes == 0

    def test_first_pick_maximizes_benefit(self):
        inputs = _basic_inputs()
        # Benefit = saved * ratio; compute the argmax directly.
        benefit = inputs["saved_time_ms"] * inputs["hit_ratio"]
        best = int(np.argmax(benefit))
        result = aca_allocate(**{**inputs, "budget_bytes": 70})
        assert best in result.layers

    def test_discount_spreads_layers(self):
        """After picking layer b, deeper layers lose R[b]; the next pick
        should not be the immediate neighbour with nearly equal stats."""
        inputs = _basic_inputs(num_layers=6)
        inputs["hit_ratio"] = np.array([0.3, 0.31, 0.32, 0.6, 0.61, 0.62])
        inputs["saved_time_ms"] = np.array([10.0, 9.0, 8.0, 5.0, 4.0, 3.0])
        result = aca_allocate(**inputs)
        layers = sorted(result.layers)
        assert len(layers) >= 2
        # The discount zeroes out the two layers right after the first deep
        # pick, so selections cannot be three consecutive deep layers.
        assert layers != [3, 4, 5]

    def test_allowed_layers_respected(self):
        result = aca_allocate(**_basic_inputs(), allowed_layers=np.array([2, 3]))
        assert set(result.layers).issubset({2, 3})

    def test_allowed_layers_bounds_checked(self):
        with pytest.raises(ValueError):
            aca_allocate(**_basic_inputs(), allowed_layers=np.array([99]))

    def test_zero_benefit_stops_allocation(self):
        inputs = _basic_inputs()
        inputs["hit_ratio"] = np.zeros(5)
        result = aca_allocate(**inputs)
        assert result.layers == []

    def test_recency_narrows_hotspots(self):
        inputs = _basic_inputs(num_classes=6)
        inputs["timestamps"] = np.array([0.0, 0.0, 900.0, 900.0, 900.0, 900.0])
        result = aca_allocate(**inputs)
        assert set(result.hotspot_classes) == {0, 1}

    def test_length_mismatch_rejected(self):
        inputs = _basic_inputs()
        inputs["saved_time_ms"] = inputs["saved_time_ms"][:-1]
        with pytest.raises(ValueError):
            aca_allocate(**inputs)

    def test_lookup_cost_fn_is_honoured(self):
        """The greedy optimizes the caller's lookup-cost model, not a
        hard-coded surrogate: ruinous lookups suppress every layer."""
        inputs = _basic_inputs()
        free = aca_allocate(**inputs, lookup_cost_ms=lambda n: 0.0)
        ruinous = aca_allocate(**inputs, lookup_cost_ms=lambda n: 1e9)
        assert ruinous.layers == []
        assert free.layers  # free lookups leave layers worth adding

    def test_default_cost_matches_default_profile(self):
        """Without an explicit cost fn, ACA's default equals the default
        LatencyProfile calibration — one definition, no drift."""
        from repro.models.profiles import LookupCostModel, build_profile

        profile = build_profile(40.0, 4, [8] * 4)
        model = LookupCostModel()
        for n in (1, 10, 500):
            assert model(n) == pytest.approx(profile.lookup_cost_ms(n))
        default = aca_allocate(**_basic_inputs())
        explicit = aca_allocate(
            **_basic_inputs(), lookup_cost_ms=LookupCostModel()
        )
        assert default.layers == explicit.layers


class TestAcaInputValidation:
    @pytest.mark.parametrize("key", ["hit_ratio", "saved_time_ms"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_curves_rejected(self, key, bad):
        inputs = _basic_inputs()
        inputs[key][2] = bad
        with pytest.raises(ValueError, match="finite"):
            aca_allocate(**inputs)


class TestAcaComplexity:
    def test_lookup_cost_called_at_most_once_per_layer(self):
        """Every activated layer holds the hot-spot set, so every layer's
        lookup costs the same: the greedy calls the cost model once per
        allocation (none when no layer is open), where rebuilding every
        candidate's cost from scratch calls it O(L^2) times per client.
        Counted, not timed."""
        num_layers = 12
        inputs = _basic_inputs(num_classes=10, num_layers=num_layers)
        inputs["hit_ratio"] = np.linspace(0.05, 0.9, num_layers)
        inputs["saved_time_ms"] = np.linspace(40.0, 1.0, num_layers)

        def counting(fn, **extra):
            calls = []

            def cost(n: int) -> float:
                calls.append(n)
                return 0.01 + 0.001 * n

            return fn(**inputs, **extra, lookup_cost_ms=cost), calls

        result, calls = counting(aca_allocate)
        want, oracle_calls = counting(oracle.aca_allocate)
        assert len(result.layers) > 2
        assert result.layers == want.layers
        assert calls == [result.hotspot_classes.size]
        assert len(oracle_calls) > 10 * num_layers  # the loop this test forbids
        closed, calls = counting(aca_allocate, allowed_layers=np.array([], dtype=int))
        assert closed.layers == [] and calls == []


class TestAcaProperties:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        budget=st.integers(min_value=1, max_value=5_000),
        num_layers=st.integers(min_value=1, max_value=12),
        num_classes=st.integers(min_value=2, max_value=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_never_exceeds_budget(self, seed, budget, num_layers, num_classes):
        rng = np.random.default_rng(seed)
        result = aca_allocate(
            global_freq=rng.uniform(0, 10, num_classes),
            timestamps=rng.uniform(0, 1000, num_classes),
            hit_ratio=rng.uniform(0, 1, num_layers),
            saved_time_ms=np.sort(rng.uniform(0, 50, num_layers))[::-1],
            entry_sizes_bytes=rng.integers(1, 64, num_layers),
            budget_bytes=budget,
            frames_per_round=300,
        )
        assert result.size_bytes <= budget
        # Each layer appears at most once and ids are valid.
        assert len(set(result.layers)) == len(result.layers)
        assert all(0 <= layer < num_layers for layer in result.layers)
        ids = result.hotspot_classes
        assert np.unique(ids).size == ids.size
        assert np.all((ids >= 0) & (ids < num_classes))

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_hotspots_are_score_prefix(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.uniform(0, 10, 20)
        hot = select_hotspot_classes(scores, 0.95)
        # Every selected class scores >= every unselected class.
        unselected = np.setdiff1d(np.arange(20), hot)
        if unselected.size:
            assert scores[hot].min() >= scores[unselected].max() - 1e-12
