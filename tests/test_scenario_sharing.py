"""One scenario, one model, one calibration.

A :class:`~repro.core.deployment.Scenario` derives its model and the
server's calibration once; every CoCa runner and baseline built on it
reads those same objects, and none of them writes to them.  A framework
or a cluster built from a shared scenario runs exactly as one built from
the same fields by keyword.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import CoCaRunner, EdgeOnly, FoggyCache, SMTM
from repro.cluster import ClusterFramework
from repro.core import deployment
from repro.core.config import CoCaConfig
from repro.core.deployment import Scenario
from repro.core.framework import CoCaFramework
from repro.data.datasets import get_dataset
from repro.experiments import run_cluster_scale, run_slo_experiment, run_theta_sweep


def _scenario(**overrides):
    fields = dict(
        dataset=get_dataset("ucf101", 10),
        model_name="resnet50",
        num_clients=2,
        non_iid_level=1.0,
        seed=5,
    )
    fields.update(overrides)
    return Scenario(**fields)


def _keyword_framework(scenario, config, **switches):
    return CoCaFramework(
        dataset=scenario.dataset,
        model_name=scenario.model_name,
        num_clients=scenario.num_clients,
        config=config,
        seed=scenario.seed,
        non_iid_level=scenario.non_iid_level,
        longtail_rho=scenario.longtail_rho,
        client_drift_scale=scenario.client_drift_scale,
        **switches,
    )


def _keyword_cluster(scenario, config, **options):
    return ClusterFramework(
        dataset=scenario.dataset,
        model_name=scenario.model_name,
        num_clients=scenario.num_clients,
        config=config,
        seed=scenario.seed,
        non_iid_level=scenario.non_iid_level,
        longtail_rho=scenario.longtail_rho,
        **options,
    )


def _assert_records_equal(a, b):
    for name in a.__slots__:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.fixture
def counted(monkeypatch):
    """Counts the scenario calibrations and records every CoCa runner
    and cluster run."""
    calls, runners = [], []
    calibrate = deployment.calibrate

    def counting_calibrate(*args, **kwargs):
        calls.append(args)
        return calibrate(*args, **kwargs)

    def recording(run):
        def recording_run(self, *args, **kwargs):
            runners.append(self)
            return run(self, *args, **kwargs)

        return recording_run

    monkeypatch.setattr(deployment, "calibrate", counting_calibrate)
    for cls in (CoCaRunner, ClusterFramework):
        monkeypatch.setattr(cls, "run", recording(cls.run))
    return calls, runners


class TestOneCalibrationPerScenario:
    def test_slo_experiment(self, counted):
        calls, runners = counted
        scenario = _scenario()
        run_slo_experiment(scenario, rounds=1, warmup=0)
        assert len(calls) == 1
        assert len(runners) == 5  # the CoCa grid
        assert all(runner.framework.model is scenario.model for runner in runners)

    def test_theta_sweep(self, counted):
        calls, runners = counted
        scenario = _scenario()
        run_theta_sweep(scenario, rounds=1, warmup=0)
        assert len(calls) == 1
        assert len(runners) == 5  # the default thetas
        assert all(runner.framework.model is scenario.model for runner in runners)

    def test_cluster_scale(self, counted):
        calls, clusters = counted
        run_cluster_scale(
            get_dataset("ucf101", 10),
            model_name="resnet50",
            shard_counts=(1, 2),
            num_clients=2,
            frames_per_round=20,
            rounds=1,
        )
        assert len(calls) == 1
        assert len(clusters) == 2  # one fleet per shard count
        model = calls[0][0]  # the scenario's model, as calibrated
        assert all(cluster.framework.model is model for cluster in clusters)


class TestSharedScenarioEquivalence:
    """A framework over a shared scenario runs bit for bit as the
    keyword-built framework of the same fields, and the scenario's
    baselines are unchanged by the CoCa runs before them."""

    CASES = [
        *({"theta": theta} for theta in (0.02, 0.035, 0.05)),
        {"enable_dca": False},
        {"enable_gcu": False},
    ]

    @pytest.fixture(scope="class")
    def shared(self):
        return _scenario()

    @pytest.mark.parametrize(
        "case", CASES, ids=lambda case: "-".join(f"{k}={v}" for k, v in case.items())
    )
    def test_from_scenario_matches_keywords(self, shared, case):
        switches = {k: v for k, v in case.items() if k != "theta"}
        config = CoCaConfig(theta=case.get("theta", CoCaConfig().theta), frames_per_round=100)
        ours = CoCaFramework.from_scenario(shared, config, **switches)
        theirs = _keyword_framework(shared, config, **switches)
        assert ours.model is shared.model and theirs.model is not shared.model
        a, b = ours.run(2), theirs.run(2)
        _assert_records_equal(a.metrics.records, b.metrics.records)
        for name in ("entries", "filled", "class_freq"):
            assert np.array_equal(getattr(a.server.table, name), getattr(b.server.table, name))
        # Not vacuous: the run hit the cache.
        assert a.metrics.records.hit.any()

    CLUSTER_CASES = [
        {"assignment_policy": "hash"},
        {"assignment_policy": "region"},
        {"sync_interval": 3},
        {"enable_dca": False},
    ]

    @pytest.mark.parametrize(
        "case", CLUSTER_CASES, ids=lambda case: "-".join(f"{k}={v}" for k, v in case.items())
    )
    def test_cluster_from_scenario_matches_keywords(self, shared, case):
        config = CoCaConfig(frames_per_round=100)
        ours = ClusterFramework.from_scenario(shared, config, num_shards=2, **case)
        theirs = _keyword_cluster(shared, config, num_shards=2, **case)
        assert ours.framework.model is shared.model
        assert theirs.framework.model is not shared.model
        a, b = ours.run(3), theirs.run(3)
        _assert_records_equal(a.metrics.records, b.metrics.records)
        ours_table, theirs_table = ours.merged_table(), theirs.merged_table()
        for name in ("entries", "filled", "class_freq"):
            assert np.array_equal(getattr(ours_table, name), getattr(theirs_table, name))
        for mine, other in zip(ours.nodes, theirs.nodes, strict=True):
            assert mine.requests_served == other.requests_served
            assert mine.total_wait_ms == other.total_wait_ms
        assert ours.coordinator.sync_bytes_shipped == theirs.coordinator.sync_bytes_shipped
        assert a.metrics.records.hit.any()

    @pytest.mark.parametrize("runner", [EdgeOnly, SMTM, FoggyCache], ids=lambda r: r.name)
    def test_baselines_after_a_coca_run(self, runner):
        shared, fresh = _scenario(), _scenario()
        CoCaRunner(shared).run(2)
        _assert_records_equal(runner(shared).run(2).records, runner(fresh).run(2).records)


def _fingerprint(model):
    """A digest of every array the model's feature space holds."""
    digests = {}
    for name, value in vars(model.feature_space).items():
        arrays = value if isinstance(value, list) else [value]
        if all(isinstance(array, np.ndarray) for array in arrays):
            digests[name] = [hashlib.sha256(array.tobytes()).hexdigest() for array in arrays]
    return digests


class TestSharedStateIsReadOnly:
    def test_calibration_arrays_refuse_writes(self):
        calibration = _scenario().calibration
        arrays = [calibration.floors]
        for scores in calibration.passes:
            arrays += [scores.scores, scores.top1_correct, scores.cached, scores.model_correct]
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = array[0]

    def test_distributions_refuse_writes(self):
        distributions = _scenario().distributions
        with pytest.raises(ValueError):
            distributions[0, 0] = 1.0

    def test_a_coca_run_leaves_the_shared_model_bit_equal(self):
        scenario = _scenario()
        before = _fingerprint(scenario.model)
        assert "_drift_dirs" in before and "_centroids" in before
        CoCaRunner(scenario, config=CoCaConfig(frames_per_round=100)).run(2)
        assert _fingerprint(scenario.model) == before

    def test_a_shared_model_refuses_drift(self):
        scenario = _scenario()
        before = _fingerprint(scenario.model)
        framework = CoCaFramework.from_scenario(scenario)
        framework.temporal_drift_per_round = 0.3
        with pytest.raises(ValueError, match="shared Scenario"):
            framework.run(1)
        assert _fingerprint(scenario.model) == before

    def test_replace_recalibrates(self, counted):
        calls, _ = counted
        scenario = _scenario()
        assert scenario.calibration is scenario.calibration
        replace(scenario).calibration
        assert len(calls) == 2
