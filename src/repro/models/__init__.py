"""Model substrate: synthetic semantic features + calibrated latency profiles."""

from repro.models.base import SimulatedModel
from repro.models.feature import FeatureSpaceConfig, SampleBatch, SemanticFeatureSpace
from repro.models.profiles import (
    LatencyProfile,
    LookupCostModel,
    ResNetStagePlan,
    build_profile,
)
from repro.models.zoo import DEFAULT_CLIENT_DRIFT, available_models, build_model

__all__ = [
    "DEFAULT_CLIENT_DRIFT",
    "FeatureSpaceConfig",
    "LatencyProfile",
    "LookupCostModel",
    "ResNetStagePlan",
    "SampleBatch",
    "SemanticFeatureSpace",
    "SimulatedModel",
    "available_models",
    "build_model",
    "build_profile",
]
