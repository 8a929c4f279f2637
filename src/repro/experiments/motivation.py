"""Motivation studies — Fig. 1a, Fig. 1b and Table I (Sec. III).

These single-client studies use an all-class cache built from the
shared-dataset centroids (no allocation algorithm, no global updates) to
expose the raw trade-offs CoCa's design responds to:

* Fig. 1a — latency/accuracy as a function of *cache size*, controlled by
  activating evenly spaced subsets of the preset layers;
* Fig. 1b — per-layer hit ratio and hit accuracy with every layer active;
* Table I — latency/accuracy as a function of the number of hot-spot
  classes in the cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.base import evenly_spaced_layers
from repro.core.cache import SemanticCache
from repro.core.engine import BatchedInferenceEngine
from repro.data.datasets import DatasetSpec
from repro.data.stream import StreamGenerator
from repro.models.base import SimulatedModel
from repro.models.feature import SampleBatch
from repro.models.zoo import build_model
from repro.sim.metrics import MetricsCollector, MetricsSummary


@dataclass(frozen=True)
class CacheSizePoint:
    """One Fig. 1a sweep point."""

    size_fraction: float
    num_layers: int
    cache_bytes: int
    latency_ms: float
    accuracy_pct: float
    hit_ratio_pct: float


def _run_static_cache(
    model: SimulatedModel,
    dataset: DatasetSpec,
    layers: list[int],
    class_ids: np.ndarray,
    theta: float,
    num_samples: int,
    seed: int,
) -> MetricsSummary:
    cache = SemanticCache(model.num_classes, alpha=0.5, theta=theta)
    cache.set_layer_entries(
        layers, class_ids, [model.ideal_centroids(layer)[class_ids] for layer in layers]
    )
    rng = np.random.default_rng(seed)
    stream = StreamGenerator(
        class_distribution=np.full(model.num_classes, 1.0 / model.num_classes),
        mean_run_length=dataset.mean_run_length,
        rng=rng,
        base_difficulty=dataset.difficulty,
    )
    # The block's frames are drawn one row at a time, after the whole
    # block (both on one generator): the draw order these tables were
    # tracked with.  The static cache then runs them as one batch.
    block = stream.take_block(num_samples)
    space = model.feature_space
    vectors, targets, weights = zip(
        *(
            space.draw_row(class_id, difficulty, 0, rng)
            for class_id, difficulty in zip(
                block.class_ids.tolist(), block.difficulties.tolist()
            )
        )
    )
    batch = SampleBatch(
        block, 0, np.stack(vectors), space, np.array(targets), np.array(weights)
    )
    out = BatchedInferenceEngine(model, cache).infer_batch_soa(batch)
    metrics = MetricsCollector()
    metrics.extend(out.records(block.class_ids))
    return metrics.summary()


def run_cache_size_sweep(
    dataset: DatasetSpec,
    model_name: str = "resnet101",
    layer_counts: tuple[int, ...] = (0, 2, 3, 7, 10, 17, 24, 34),
    theta: float = 0.05,
    num_samples: int = 1500,
    seed: int = 0,
) -> list[CacheSizePoint]:
    """Fig. 1a: vary cache size via the number of active layers.

    Hot-spot classes are fixed to *all* classes (as in the paper, to
    isolate the size effect from the entry-selection algorithm).
    """
    model = build_model(model_name, dataset, seed=seed)
    all_classes = np.arange(model.num_classes)
    total_layers = model.num_cache_layers
    full_bytes = model.num_classes * sum(
        model.profile.entry_size_bytes(j) for j in range(total_layers)
    )
    points: list[CacheSizePoint] = []
    for count in layer_counts:
        layers = evenly_spaced_layers(total_layers, count)
        cache_bytes = model.num_classes * sum(
            model.profile.entry_size_bytes(j) for j in layers
        )
        summary = _run_static_cache(
            model, dataset, layers, all_classes, theta, num_samples, seed + 1
        )
        points.append(
            CacheSizePoint(
                size_fraction=cache_bytes / full_bytes,
                num_layers=len(layers),
                cache_bytes=cache_bytes,
                latency_ms=summary.avg_latency_ms,
                accuracy_pct=100 * summary.accuracy,
                hit_ratio_pct=100 * summary.hit_ratio,
            )
        )
    return points


@dataclass(frozen=True)
class LayerStatPoint:
    """One Fig. 1b layer."""

    layer: int
    hit_ratio_pct: float
    hit_accuracy_pct: float


def run_per_layer_stats(
    dataset: DatasetSpec,
    model_name: str = "resnet101",
    theta: float = 0.05,
    num_samples: int = 1500,
    seed: int = 0,
) -> list[LayerStatPoint]:
    """Fig. 1b: marginal hit ratio / hit accuracy per layer, all active."""
    model = build_model(model_name, dataset, seed=seed)
    all_classes = np.arange(model.num_classes)
    layers = list(range(model.num_cache_layers))
    summary = _run_static_cache(
        model, dataset, layers, all_classes, theta, num_samples, seed + 1
    )
    total = summary.num_samples
    points = []
    for layer in layers:
        hits = summary.per_layer_hits.get(layer, 0)
        acc = summary.per_layer_hit_accuracy.get(layer, 0.0)
        points.append(
            LayerStatPoint(
                layer=layer,
                hit_ratio_pct=100 * hits / total,
                hit_accuracy_pct=100 * acc,
            )
        )
    return points


@dataclass(frozen=True)
class HotspotCountPoint:
    """One Table I row."""

    num_hotspot_classes: int
    latency_ms: float
    accuracy_pct: float


def run_hotspot_count_sweep(
    dataset: DatasetSpec,
    model_name: str = "resnet101",
    class_counts: tuple[int, ...] = (0, 10, 30, 50, 70, 90),
    num_layers_active: int = 8,
    theta: float = 0.05,
    num_samples: int = 1500,
    seed: int = 0,
    min_relative_depth: float = 0.2,
) -> list[HotspotCountPoint]:
    """Table I: vary the number of hot-spot classes in a fixed-layer cache.

    Counts exceeding the task's class count are clamped (the paper's
    UCF101 subset has 50 classes, so its 70/90 rows equal the 50 row up to
    lookup-time differences — we keep the clamp explicit instead).
    """
    model = build_model(model_name, dataset, seed=seed)
    layers = evenly_spaced_layers(
        model.num_cache_layers,
        num_layers_active,
        round(min_relative_depth * (model.num_cache_layers - 1)),
    )
    # The most frequent classes of a uniform stream are arbitrary; use the
    # first k ids (the stream is symmetric under class relabeling).
    points: list[HotspotCountPoint] = []
    for count in class_counts:
        k = min(count, model.num_classes)
        class_ids = np.arange(k)
        use_layers = layers if k >= 2 else []
        summary = _run_static_cache(
            model, dataset, use_layers, class_ids, theta, num_samples, seed + 1
        )
        points.append(
            HotspotCountPoint(
                num_hotspot_classes=count,
                latency_ms=summary.avg_latency_ms,
                accuracy_pct=100 * summary.accuracy,
            )
        )
    return points
