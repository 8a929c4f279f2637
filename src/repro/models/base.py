"""Simulated cache-instrumented model.

A :class:`SimulatedModel` stands in for a PyTorch model pre-set with cache
layers (Sec. II-3): it is partitioned into ``L + 1`` blocks with cache
layer ``j`` after block ``j``, exposes the per-layer semantic vector of a
sample (what global average pooling would produce), the final classifier
output, and charges compute / lookup costs to a virtual clock via its
:class:`~repro.models.profiles.LatencyProfile`.

The inference *control flow* (which layers to probe, when to exit early)
lives in :mod:`repro.core.engine` and the baseline pipelines — the model is
the passive substrate they all share.
"""

from __future__ import annotations

import numpy as np

from repro.data.datasets import DatasetSpec
from repro.data.stream import FrameBlock
from repro.models.feature import FeatureSpaceConfig, SampleBatch, SemanticFeatureSpace
from repro.models.profiles import LatencyProfile


class SimulatedModel:
    """A block-structured DNN simulator with preset cache layers.

    Args:
        name: model identifier (e.g. ``"resnet101"``).
        dataset: the dataset spec the model is "trained" on; fixes the
            class count and difficulty level.
        profile: per-block latency + entry-size model.
        feature_config: semantic feature-space tunables.
        num_clients: number of client drift profiles to generate.
        seed: seed for the static feature geometry.
    """

    def __init__(
        self,
        name: str,
        dataset: DatasetSpec,
        profile: LatencyProfile,
        feature_config: FeatureSpaceConfig,
        num_clients: int = 1,
        seed: int = 0,
    ) -> None:
        self.name = name
        self.dataset = dataset
        self.profile = profile
        geometry_rng = np.random.default_rng(seed)
        self.feature_space = SemanticFeatureSpace(
            num_classes=dataset.num_classes,
            num_layers=profile.num_cache_layers,
            num_clients=num_clients,
            config=feature_config,
            rng=geometry_rng,
        )

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------

    @property
    def num_classes(self) -> int:
        return self.dataset.num_classes

    @property
    def num_cache_layers(self) -> int:
        """Number of preset cache layers ``L``."""
        return self.profile.num_cache_layers

    @property
    def total_compute_ms(self) -> float:
        """No-cache end-to-end latency (the Edge-Only cost)."""
        return self.profile.total_compute_ms

    # ------------------------------------------------------------------
    # Execution primitives
    # ------------------------------------------------------------------

    def draw_samples(
        self, block: FrameBlock, client_id: int, rng: np.random.Generator
    ) -> SampleBatch:
        """Materialize the semantic features of a block of frames for one
        client as one :class:`SampleBatch`."""
        return self.feature_space.draw_samples(block, client_id, rng)

    def block_time_ms(self, block: int) -> float:
        """Compute time of block ``block`` (0..L)."""
        return self.profile.block_time_ms(block)

    def lookup_cost_ms(self, num_entries: int) -> float:
        """Cost of probing one cache layer holding ``num_entries`` entries."""
        return self.profile.lookup_cost_ms(num_entries)

    def classify_vectors(self, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized full-model output for a batch of final-layer vectors:
        ``(predictions, top-2 probability gaps)``, one row per sample."""
        return self.feature_space.classify_vectors(vectors)

    # ------------------------------------------------------------------
    # Cache-content helpers
    # ------------------------------------------------------------------

    def ideal_centroids(self, layer: int) -> np.ndarray:
        """Per-class centroids at a layer as learned from the global shared
        dataset — the initial content of the server's global cache table."""
        return self.feature_space.centroid_matrix(layer)

    def measure_accuracy(
        self,
        num_samples: int,
        rng: np.random.Generator,
        client_id: int = 0,
        class_distribution: np.ndarray | None = None,
        base_difficulty: float | None = None,
    ) -> float:
        """Monte-Carlo estimate of full-model accuracy (calibration aid)."""
        from repro.data.stream import StreamGenerator

        if class_distribution is None:
            class_distribution = np.full(self.num_classes, 1.0 / self.num_classes)
        stream = StreamGenerator(
            class_distribution=class_distribution,
            mean_run_length=self.dataset.mean_run_length,
            rng=rng,
            base_difficulty=(
                self.dataset.difficulty if base_difficulty is None else base_difficulty
            ),
            working_set_size=None,  # model accuracy, not stream composition
        )
        block = stream.take_block(num_samples)
        batch = self.draw_samples(block, client_id, rng)
        predictions, _ = self.classify_vectors(batch.final_vectors())
        return float(np.mean(predictions == block.class_ids))

    def __repr__(self) -> str:
        return (
            f"SimulatedModel({self.name!r}, classes={self.num_classes}, "
            f"cache_layers={self.num_cache_layers}, "
            f"compute={self.total_compute_ms:.2f}ms)"
        )
