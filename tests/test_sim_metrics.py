"""Unit tests for metric aggregation."""

import pytest

import numpy as np

from repro.sim.metrics import (
    MetricsCollector,
    RecordBatch,
    merge_summaries,
    summarize_latencies,
)


def _rec(true=0, pred=0, lat=10.0, hit_layer=-1, client=0):
    """A one-row batch (``hit_layer`` -1: a miss)."""
    return RecordBatch([true], [pred], [lat], [hit_layer], [client])


class TestRecordBatch:
    def test_correct_mask(self):
        batch = RecordBatch.concat([_rec(true=3, pred=3), _rec(true=3, pred=4)])
        assert batch.correct.tolist() == [True, False]

    def test_hit_mask(self):
        batch = RecordBatch.concat([_rec(hit_layer=2), _rec(hit_layer=0), _rec()])
        assert batch.hit.tolist() == [True, True, False]

    def test_unequal_columns_raise(self):
        with pytest.raises(ValueError):
            RecordBatch([0, 1], [0, 1], [1.0, 2.0], [-1], [0, 0])
        with pytest.raises(ValueError):
            RecordBatch(*(np.zeros((2, 1)) for _ in range(5)))

    def test_concat_keeps_order_and_dtypes(self):
        batch = RecordBatch.concat(
            [_rec(true=1, lat=1.5, client=0), _rec(true=2, lat=2.5, hit_layer=3, client=4)]
        )
        assert len(batch) == 2
        assert batch.true_class.tolist() == [1, 2]
        assert batch.latency_ms.tolist() == [1.5, 2.5]
        assert batch.hit_layer.tolist() == [-1, 3]
        assert batch.client_id.tolist() == [0, 4]
        assert batch.latency_ms.dtype == np.float64
        assert batch.hit_layer.dtype == np.int64

    def test_concat_of_nothing_is_empty(self):
        empty = RecordBatch.concat([])
        assert len(empty) == 0
        assert empty.hit_layer.dtype == np.int64

    def test_row_slice(self):
        batch = RecordBatch.concat([_rec(true=k) for k in range(5)])
        assert batch[1:3].true_class.tolist() == [1, 2]


class TestMetricsCollector:
    def test_empty_summary_raises(self):
        with pytest.raises(ValueError):
            MetricsCollector().summary()

    def test_basic_aggregation(self):
        m = MetricsCollector()
        m.extend(_rec(true=0, pred=0, lat=10.0, hit_layer=1))
        m.extend(_rec(true=0, pred=1, lat=20.0))
        s = m.summary()
        assert s.num_samples == 2
        assert s.avg_latency_ms == pytest.approx(15.0)
        assert s.accuracy == pytest.approx(0.5)
        assert s.hit_ratio == pytest.approx(0.5)
        assert s.hit_accuracy == pytest.approx(1.0)
        assert s.miss_accuracy == pytest.approx(0.0)

    def test_per_layer_histograms(self):
        m = MetricsCollector()
        m.extend(_rec(true=0, pred=0, hit_layer=2))
        m.extend(_rec(true=0, pred=1, hit_layer=2))
        m.extend(_rec(true=0, pred=0, hit_layer=5))
        s = m.summary()
        assert s.per_layer_hits == {2: 2, 5: 1}
        assert s.per_layer_hit_accuracy[2] == pytest.approx(0.5)
        assert s.per_layer_hit_accuracy[5] == pytest.approx(1.0)

    def test_no_hits_gives_zero_hit_accuracy(self):
        m = MetricsCollector()
        m.extend(_rec())
        s = m.summary()
        assert s.hit_ratio == 0.0
        assert s.hit_accuracy == 0.0

    def test_extend_and_len(self):
        m = MetricsCollector()
        m.extend(RecordBatch.concat([_rec(), _rec()]))
        m.extend(_rec())
        assert len(m) == 3
        assert len(m.records) == 3

    def test_as_row_is_rounded(self):
        m = MetricsCollector()
        m.extend(_rec(lat=10.123456))
        row = m.summary().as_row()
        assert row["latency_ms"] == pytest.approx(10.12)
        assert row["samples"] == 1


class TestMergeSummaries:
    def test_merge_weighted_by_samples(self):
        a = MetricsCollector()
        a.extend(RecordBatch.concat([_rec(lat=10.0)] * 3))
        b = MetricsCollector()
        b.extend(_rec(lat=40.0))
        merged = merge_summaries([a.summary(), b.summary()])
        assert merged.num_samples == 4
        assert merged.avg_latency_ms == pytest.approx((3 * 10 + 40) / 4)

    def test_merge_empty_raises(self):
        with pytest.raises(ValueError):
            merge_summaries([])

    def test_merge_hit_accuracy_weighted_by_hits(self):
        a = MetricsCollector()
        a.extend(_rec(true=0, pred=0, hit_layer=1))  # 1 hit, correct
        a.extend(_rec(true=0, pred=0))
        b = MetricsCollector()
        b.extend(_rec(true=0, pred=1, hit_layer=1))  # 1 hit, wrong
        merged = merge_summaries([a.summary(), b.summary()])
        assert merged.hit_accuracy == pytest.approx(0.5)


class TestLatencySummary:
    """The shared percentile helper used by ``profile-round`` and the
    serve load generator."""

    def test_known_distribution(self):
        values = list(range(1, 101))  # 1..100 ms
        s = summarize_latencies(values)
        assert s.count == 100
        assert s.mean_ms == pytest.approx(50.5)
        assert s.max_ms == pytest.approx(100.0)
        # np.percentile linear interpolation on 1..100.
        assert s.p50_ms == pytest.approx(np.percentile(values, 50))
        assert s.p95_ms == pytest.approx(np.percentile(values, 95))
        assert s.p99_ms == pytest.approx(np.percentile(values, 99))
        assert s.p50_ms <= s.p95_ms <= s.p99_ms <= s.max_ms

    def test_single_sample_collapses(self):
        s = summarize_latencies([42.0])
        assert s.count == 1
        assert s.mean_ms == s.p50_ms == s.p99_ms == s.max_ms == 42.0

    def test_empty_raises_like_collector_summary(self):
        with pytest.raises(ValueError):
            summarize_latencies([])

    def test_accepts_ndarray(self):
        s = summarize_latencies(np.array([5.0, 15.0]))
        assert s.mean_ms == pytest.approx(10.0)

    def test_as_row_is_rounded(self):
        row = summarize_latencies([1.23456, 2.34567]).as_row()
        assert row["mean_ms"] == pytest.approx(1.79, abs=1e-9)
        assert row["count"] == 2

    def test_format_is_one_line(self):
        text = summarize_latencies([10.0, 20.0]).format()
        assert "\n" not in text
        assert "p95" in text and "n=2" in text
