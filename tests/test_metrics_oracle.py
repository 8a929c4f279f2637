"""The array metrics pinned to the per-row oracle, bit for bit.

:class:`~repro.sim.metrics.MetricsCollector` counts whole
:class:`~repro.sim.metrics.RecordBatch` columns;
:func:`oracle.summary` counts one :class:`oracle.Row` at a time.  Every
field of the summary — the latency mean included, a float sum — must be
``==`` equal on a CoCa run and on a run of every baseline, and so must
each round's :attr:`~repro.core.client.RoundReport.total_latency_ms`
(the virtual clock `ClusterFramework` advances).
"""

import numpy as np
import pytest

import oracle

from repro.baselines import METHODS, POLICIES, ReplacementPolicyCache, build_runner
from repro.core.config import CoCaConfig
from repro.core.framework import CoCaFramework
from repro.core.deployment import Scenario
from repro.data.datasets import get_dataset
from repro.sim.metrics import MetricsCollector, per_class_hit_rates


@pytest.fixture(scope="module")
def scenario():
    return Scenario(
        dataset=get_dataset("ucf101", 20),
        model_name="resnet50",
        num_clients=2,
        non_iid_level=1.0,
        seed=5,
    )


def _per_class_hit_rates(rows: list[oracle.Row]) -> dict[int, float]:
    seen: dict[int, int] = {}
    hits: dict[int, int] = {}
    for row in rows:
        seen[row.true_class] = seen.get(row.true_class, 0) + 1
        hits[row.true_class] = hits.get(row.true_class, 0) + int(row.hit)
    return {c: hits[c] / seen[c] for c in sorted(seen)}


def _assert_pinned(metrics: MetricsCollector) -> None:
    rows = oracle.rows(metrics.records)
    assert len(rows) == len(metrics) > 0
    assert metrics.summary() == oracle.summary(rows)
    assert per_class_hit_rates(metrics.records) == _per_class_hit_rates(rows)


class TestSummaryPinnedToOracle:
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_every_method(self, scenario, method):
        metrics = build_runner(method, scenario).run(1, warmup_rounds=1)
        assert len(metrics) == 2 * 300
        _assert_pinned(metrics)
        hits = metrics.records.hit
        if method == "Edge-Only":
            assert not hits.any()
        else:
            assert hits.any()

    @pytest.mark.parametrize("policy", POLICIES)
    def test_replacement_policies(self, scenario, policy):
        runner = ReplacementPolicyCache(
            scenario, policy=policy, cache_size=8, frames_per_round=60
        )
        metrics = runner.run(2, warmup_rounds=1)
        assert len(metrics) == 2 * 2 * 60
        _assert_pinned(metrics)

    def test_summary_over_many_batches_equals_one_pass(self, scenario):
        metrics = build_runner("SMTM", scenario).run(1)
        split = MetricsCollector()
        records = metrics.records
        for start in range(0, len(records), 7):
            split.extend(records[start : start + 7])
        assert split.summary() == metrics.summary()


class TestRoundLatencyPinnedToOracle:
    def test_every_report_of_a_coca_run(self):
        framework = CoCaFramework(
            dataset=get_dataset("ucf101", 20),
            model_name="resnet50",
            num_clients=3,
            config=CoCaConfig(frames_per_round=50),
            seed=9,
            non_iid_level=0.5,
        )
        result = framework.run(3)
        assert len(result.reports) == 3 * 3
        for report in result.reports:
            rows = oracle.rows(report.records)
            assert report.total_latency_ms == oracle.total_latency_ms(rows)
            assert np.array_equal(
                report.records.client_id, np.full(50, report.client_id)
            )
        _assert_pinned(result.metrics)
