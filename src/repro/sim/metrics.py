"""Aggregation of per-inference results into the paper's two metrics.

The evaluation section reports *average latency* (total inference time
divided by total samples across all clients, Sec. VI-B) and *overall
accuracy* (fraction of correctly classified samples across all clients).
Every method reports its outcomes as a :class:`RecordBatch` of columns
(``hit_layer = -1`` on a miss); :class:`MetricsCollector` counts them
into those metrics plus the cache diagnostics of the motivation and
threshold studies (hit ratio, hit accuracy, per-layer hit histograms).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike


class RecordBatch:
    """Outcomes of a set of inferences as ``(B,)`` columns, one row per
    frame: the one result representation every method reports.

    ``true_class``, ``predicted_class`` and ``client_id`` are int64,
    ``latency_ms`` (virtual, charged per frame) float64, and
    ``hit_layer`` the int64 cache layer (or exit) that served the row,
    ``-1`` when the full model ran — the convention of
    :class:`~repro.core.probe.CacheWalk` and
    :class:`~repro.core.engine.BatchOutcomes`.  A batch owns its arrays:
    producers hand it copies, never views of reused buffers.  The
    constructor raises ``ValueError`` unless the columns are 1-D and of
    one length.
    """

    __slots__ = ("true_class", "predicted_class", "latency_ms", "hit_layer", "client_id")

    def __init__(
        self,
        true_class: ArrayLike,
        predicted_class: ArrayLike,
        latency_ms: ArrayLike,
        hit_layer: ArrayLike,
        client_id: ArrayLike,
    ) -> None:
        self.true_class = np.asarray(true_class, dtype=np.int64)
        self.predicted_class = np.asarray(predicted_class, dtype=np.int64)
        self.latency_ms = np.asarray(latency_ms, dtype=np.float64)
        self.hit_layer = np.asarray(hit_layer, dtype=np.int64)
        self.client_id = np.asarray(client_id, dtype=np.int64)
        shapes = [column.shape for column in self._columns()]
        if len(set(shapes)) != 1 or len(shapes[0]) != 1:
            raise ValueError(f"RecordBatch needs 1-D columns of one length, got {shapes}")

    def _columns(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in self.__slots__)

    @classmethod
    def concat(cls, batches: Sequence[RecordBatch]) -> RecordBatch:
        """The rows of ``batches``, in order, as one batch."""
        if not batches:
            return cls(*(np.zeros(0) for _ in cls.__slots__))
        return cls(*(np.concatenate(c) for c in zip(*(b._columns() for b in batches))))

    def __len__(self) -> int:
        return int(self.true_class.size)

    def __getitem__(self, rows: slice | np.ndarray) -> RecordBatch:
        return RecordBatch(*(column[rows] for column in self._columns()))

    @property
    def hit(self) -> np.ndarray:
        return self.hit_layer >= 0

    @property
    def correct(self) -> np.ndarray:
        return self.true_class == self.predicted_class


@dataclass
class MetricsSummary:
    """Aggregated metrics over a set of inference records."""

    num_samples: int
    avg_latency_ms: float
    accuracy: float
    hit_ratio: float
    hit_accuracy: float
    miss_accuracy: float
    per_layer_hits: dict[int, int] = field(default_factory=dict)
    per_layer_hit_accuracy: dict[int, float] = field(default_factory=dict)

    def as_row(self) -> dict[str, float]:
        """Flat representation used by the benchmark table printers."""
        return {
            "samples": self.num_samples,
            "latency_ms": round(self.avg_latency_ms, 2),
            "accuracy_pct": round(100.0 * self.accuracy, 2),
            "hit_ratio_pct": round(100.0 * self.hit_ratio, 2),
            "hit_accuracy_pct": round(100.0 * self.hit_accuracy, 2),
        }


@dataclass(frozen=True)
class LatencySummary:
    """Distribution summary of a set of latency measurements.

    The shared reporting shape for anything that measures per-item
    times — the wall-clock load generator (:mod:`repro.serve`) and the
    ``repro profile-round`` per-round breakdown both emit it — so tail
    behaviour (p95/p99) is reported everywhere a mean alone would hide
    queueing or stragglers.
    """

    count: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float

    def as_row(self) -> dict[str, float]:
        """Flat representation for JSON payloads and table printers."""
        return {
            "count": self.count,
            "mean_ms": round(self.mean_ms, 3),
            "p50_ms": round(self.p50_ms, 3),
            "p95_ms": round(self.p95_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "max_ms": round(self.max_ms, 3),
        }

    def format(self) -> str:
        """One-line human rendering (``p50/p95/p99`` with mean and max)."""
        return (
            f"n={self.count} mean={self.mean_ms:.2f}ms "
            f"p50={self.p50_ms:.2f}ms p95={self.p95_ms:.2f}ms "
            f"p99={self.p99_ms:.2f}ms max={self.max_ms:.2f}ms"
        )


def summarize_latencies(
    values_ms: Sequence[float] | np.ndarray,
) -> LatencySummary:
    """Percentile summary (p50/p95/p99, mean, max) of latency samples.

    Percentiles use linear interpolation (NumPy's default), so known
    small distributions have exact, testable values.

    Raises:
        ValueError: on an empty input — every reported statistic would
            be undefined, same contract as :meth:`MetricsCollector.summary`.
    """
    data = np.asarray(values_ms, dtype=np.float64)
    if data.size == 0:
        raise ValueError("cannot summarize an empty latency set")
    if data.ndim != 1:
        data = data.reshape(-1)
    p50, p95, p99 = np.percentile(data, (50.0, 95.0, 99.0))
    return LatencySummary(
        count=int(data.size),
        mean_ms=float(data.mean()),
        p50_ms=float(p50),
        p95_ms=float(p95),
        p99_ms=float(p99),
        max_ms=float(data.max()),
    )


class MetricsCollector:
    """Accumulates :class:`RecordBatch` rows and produces a :class:`MetricsSummary`."""

    def __init__(self) -> None:
        self._batches: list[RecordBatch] = []

    def extend(self, records: RecordBatch) -> None:
        self._batches.append(records)

    @property
    def records(self) -> RecordBatch:
        """Every row collected, in extend order, as one batch."""
        return RecordBatch.concat(self._batches)

    def __len__(self) -> int:
        return sum(len(batch) for batch in self._batches)

    def summary(self) -> MetricsSummary:
        """Aggregate all recorded inferences.

        Latencies are summed with the builtin ``sum`` over the rows in
        extend order (the float of a row-at-a-time loop); the rest counts.

        Raises:
            ValueError: if no records have been collected, because every
                reported metric would otherwise be undefined.
        """
        rows = self.records
        n = len(rows)
        if n == 0:
            raise ValueError("cannot summarize an empty MetricsCollector")

        total_latency = sum(rows.latency_ms.tolist())
        hit, correct = rows.hit, rows.correct
        hits = int(np.count_nonzero(hit))
        hit_correct = int(np.count_nonzero(hit & correct))
        miss_correct = int(np.count_nonzero(~hit & correct))

        layer_hits = np.bincount(rows.hit_layer[hit])
        layer_correct = np.bincount(rows.hit_layer[hit & correct], minlength=layer_hits.size)
        hit_layers = np.flatnonzero(layer_hits).tolist()
        per_layer_hits = {j: int(layer_hits[j]) for j in hit_layers}
        per_layer_hit_accuracy = {
            j: int(layer_correct[j]) / per_layer_hits[j] for j in hit_layers
        }

        return MetricsSummary(
            num_samples=n,
            avg_latency_ms=total_latency / n,
            accuracy=(hit_correct + miss_correct) / n,
            hit_ratio=hits / n,
            hit_accuracy=hit_correct / hits if hits else 0.0,
            miss_accuracy=miss_correct / (n - hits) if hits < n else 0.0,
            per_layer_hits=per_layer_hits,
            per_layer_hit_accuracy=per_layer_hit_accuracy,
        )


def per_class_hit_rates(
    records: RecordBatch, min_samples: int = 1
) -> dict[int, float]:
    """Cache-hit rate per ground-truth class over a set of records.

    Returns ``{class_id: hits / samples}`` for every class that appears in
    at least ``min_samples`` records.  Used to compare a sharded cluster
    run against its single-server reference class by class: aggregate hit
    ratio can mask a cluster that trades hits on one region's classes for
    hits on another's.
    """
    if min_samples < 1:
        raise ValueError(f"min_samples must be >= 1, got {min_samples}")
    seen = np.bincount(records.true_class)
    hits = np.bincount(records.true_class[records.hit], minlength=seen.size)
    return {
        class_id: int(hits[class_id]) / int(seen[class_id])
        for class_id in np.flatnonzero(seen >= min_samples).tolist()
    }


def merge_summaries(summaries: list[MetricsSummary]) -> MetricsSummary:
    """Sample-weighted merge of per-client summaries (Eq. 8 of the paper).

    The paper defines global average latency as the sample-count-weighted
    mean of per-client averages; accuracy and hit statistics merge the same
    way.
    """
    if not summaries:
        raise ValueError("cannot merge an empty list of summaries")
    total = sum(s.num_samples for s in summaries)
    if total == 0:
        raise ValueError("summaries contain no samples")

    def weighted(attr: str) -> float:
        return sum(getattr(s, attr) * s.num_samples for s in summaries) / total

    hits_total = sum(s.hit_ratio * s.num_samples for s in summaries)
    hit_acc = (
        sum(s.hit_accuracy * s.hit_ratio * s.num_samples for s in summaries) / hits_total
        if hits_total > 0
        else 0.0
    )
    merged_layer_hits: Counter = Counter()
    for s in summaries:
        merged_layer_hits.update(s.per_layer_hits)
    return MetricsSummary(
        num_samples=total,
        avg_latency_ms=weighted("avg_latency_ms"),
        accuracy=weighted("accuracy"),
        hit_ratio=weighted("hit_ratio"),
        hit_accuracy=hit_acc,
        miss_accuracy=weighted("miss_accuracy"),
        per_layer_hits=dict(merged_layer_hits),
        per_layer_hit_accuracy={},
    )
