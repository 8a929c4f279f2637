"""Shared fixtures: a tiny dataset/model pair that keeps tests fast."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.datasets import DatasetSpec
from repro.data.stream import FrameBlock
from repro.models.base import SimulatedModel
from repro.models.feature import FeatureSpaceConfig
from repro.models.profiles import build_profile


TINY_CLASSES = 8
TINY_LAYERS = 6


def _frame_block(class_ids, difficulty: float = 0.05) -> FrameBlock:
    ids = np.asarray(class_ids, dtype=np.int64).reshape(-1)
    return FrameBlock(
        class_ids=ids,
        difficulties=np.full(ids.size, float(difficulty)),
        run_positions=np.full(ids.size, 5, dtype=np.int64),
        stream_indices=np.arange(ids.size, dtype=np.int64),
    )


@pytest.fixture
def make_block():
    """``make_block(class_ids, difficulty=0.05)``: a hand-made block of the
    given classes, every frame of one difficulty (run positions and
    stream indices carry no meaning)."""
    return _frame_block


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_dataset() -> DatasetSpec:
    return DatasetSpec(
        name="tiny-8",
        num_classes=TINY_CLASSES,
        mean_run_length=6.0,
        difficulty=0.30,
        modality="video",
    )


@pytest.fixture
def tiny_feature_config() -> FeatureSpaceConfig:
    return FeatureSpaceConfig(dim=16, cluster_size=4, conf_mid=0.50)


@pytest.fixture
def tiny_model(tiny_dataset, tiny_feature_config) -> SimulatedModel:
    profile = build_profile(
        total_compute_ms=10.0,
        num_cache_layers=TINY_LAYERS,
        channels_per_layer=[8, 8, 16, 16, 32, 32],
    )
    return SimulatedModel(
        name="tiny",
        dataset=tiny_dataset,
        profile=profile,
        feature_config=tiny_feature_config,
        num_clients=3,
        seed=7,
    )
