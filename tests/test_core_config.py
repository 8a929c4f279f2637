"""Unit tests for CoCa configuration."""

import pytest

from repro.core.config import CoCaConfig, recommended_theta


class TestCoCaConfig:
    def test_paper_defaults(self):
        config = CoCaConfig()
        assert config.alpha == 0.5
        assert config.beta == 0.95
        assert config.gamma == 0.99
        assert config.frames_per_round == 300
        assert config.hotspot_mass == 0.95
        assert config.recency_base == 0.20

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": -0.1},
            {"beta": 1.1},
            {"gamma": 2.0},
            {"theta": -1.0},
            {"frames_per_round": 0},
            {"hotspot_mass": 0.0},
            {"recency_base": 1.0},
            {"cache_budget_fraction": 0.0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CoCaConfig(**kwargs)

    def test_theta_nan_rejected_inf_allowed(self):
        """A NaN theta would silently never hit; ``inf`` is the explicit
        "never hit" setting."""
        with pytest.raises(ValueError, match="theta"):
            CoCaConfig(theta=float("nan"))
        assert CoCaConfig(theta=float("inf")).theta == float("inf")

    def test_with_theta_copies(self):
        base = CoCaConfig()
        tuned = base.with_theta(0.123)
        assert tuned.theta == 0.123
        assert base.theta != 0.123
        assert tuned.alpha == base.alpha


class TestRecommendedTheta:
    def test_families_resolve(self):
        assert recommended_theta("resnet101") > 0
        assert recommended_theta("resnet152", 0.05) > 0
        assert recommended_theta("vgg16_bn") > 0
        assert recommended_theta("ast_base") > 0

    def test_tighter_slo_needs_higher_theta(self):
        assert recommended_theta("resnet101", 0.03) > recommended_theta(
            "resnet101", 0.05
        )

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            recommended_theta("mobilenet")
