"""Data substrate: dataset specs, non-IID / long-tail constructions, streams."""

from repro.data.datasets import ESC50, IMAGENET100, UCF101, DatasetSpec, get_dataset
from repro.data.partition import (
    apply_longtail,
    dirichlet_class_distribution,
    dirichlet_partition,
    head_mass,
    longtail_weights,
)
from repro.data.stream import (
    FrameBlock,
    StreamGenerator,
    empirical_class_frequencies,
)

__all__ = [
    "ESC50",
    "IMAGENET100",
    "UCF101",
    "DatasetSpec",
    "FrameBlock",
    "StreamGenerator",
    "apply_longtail",
    "dirichlet_class_distribution",
    "dirichlet_partition",
    "empirical_class_frequencies",
    "get_dataset",
    "head_mass",
    "longtail_weights",
]
