"""Tests for the sharded edge-server cluster subsystem."""

import numpy as np
import pytest

import oracle

from repro.cluster import (
    ASSIGNMENT_POLICIES,
    ClassShardRouter,
    ClusterCoordinator,
    ClusterFramework,
    EdgeServerNode,
    ShardedGlobalCache,
    assign_clients,
)
from repro.cli import PROFILE_STAGES
from repro.cluster.coordinator import REGION_SLACK
from repro.cluster.node import SYNC_SERVICE_MS
from repro.cluster.sharding import DELTA_FALLBACK_FRACTION
from repro.core.client import RoundReport, UpdateTable
from repro.core.config import CoCaConfig
from repro.core.framework import CoCaFramework
from repro.core.server import CoCaServer, GlobalCacheTable, calibrate
from repro.data.datasets import get_dataset
from repro.models.zoo import build_model
from repro.sim.metrics import RecordBatch, per_class_hit_rates
from repro.sim.network import ServerLoadModel
from repro.store.delta import HEADER_NBYTES, full_rows_nbytes


# ----------------------------------------------------------------------
# Router
# ----------------------------------------------------------------------


class TestClassShardRouter:
    def test_deterministic(self):
        a = ClassShardRouter(101, 4, salt=5)
        b = ClassShardRouter(101, 4, salt=5)
        ids = np.arange(101)
        assert np.array_equal(a.shard_of(ids), b.shard_of(ids))

    def test_salt_changes_assignment(self):
        ids = np.arange(101)
        a = ClassShardRouter(101, 4, salt=0).shard_of(ids)
        b = ClassShardRouter(101, 4, salt=1).shard_of(ids)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("num_classes,num_shards", [(50, 4), (101, 3), (10, 10)])
    def test_balance(self, num_classes, num_shards):
        sizes = ClassShardRouter(num_classes, num_shards).shard_sizes()
        assert sizes.sum() == num_classes
        assert sizes.max() - sizes.min() <= 1

    def test_partition_is_complete_and_disjoint(self):
        router = ClassShardRouter(30, 4)
        all_classes = np.concatenate(
            [router.classes_of(s) for s in range(4)]
        )
        assert sorted(all_classes.tolist()) == list(range(30))

    def test_scalar_roundtrip(self):
        router = ClassShardRouter(20, 3)
        shards = router.shard_of(np.arange(20))
        for class_id in range(20):
            shard = router.shard_of(class_id)
            assert isinstance(shard, int)
            assert class_id in router.classes_of(shard)
            # A numpy scalar takes the scalar path too, to the same shard.
            assert router.shard_of(np.int64(class_id)) == shard == shards[class_id]
        for bad in (-1, 20, np.int64(-1), np.int64(20)):
            with pytest.raises(ValueError, match=r"out of range \[0, 20\)"):
                router.shard_of(bad)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ClassShardRouter(4, 5)
        with pytest.raises(ValueError):
            ClassShardRouter(10, 0)
        router = ClassShardRouter(10, 2)
        with pytest.raises(ValueError):
            router.shard_of(10)
        with pytest.raises(ValueError):
            router.classes_of(2)


# ----------------------------------------------------------------------
# Sharded table
# ----------------------------------------------------------------------


def _random_update(rng, num_classes, num_layers, dim, entries=12):
    keys = rng.choice(num_classes * num_layers, size=entries, replace=False)
    update = {
        (int(k // num_layers), int(k % num_layers)): rng.standard_normal(dim)
        for k in keys
    }
    freq = rng.integers(0, 5, size=num_classes).astype(float)
    for class_id, _ in update:
        freq[class_id] = max(freq[class_id], 1.0)  # owners must be active
    return oracle.update_table(update, dim), freq


class TestShardedGlobalCache:
    def test_matches_single_table_over_uploads(self):
        """Routing uploads shard-by-shard must equal one server's merges."""
        rng = np.random.default_rng(0)
        num_classes, num_layers, dim = 18, 3, 8
        single = GlobalCacheTable(num_classes, num_layers, dim)
        single.class_freq += 10.0
        router = ClassShardRouter(num_classes, 3, salt=2)
        sharded = ShardedGlobalCache(router, single.copy())
        for _ in range(5):
            update, freq = _random_update(rng, num_classes, num_layers, dim)
            ids = update.class_ids
            single.merge_updates(
                ids, update.layers, update.vectors, freq[ids], gamma=0.99
            )
            single.add_frequencies(freq)
            sharded.apply_client_update(update, freq, gamma=0.99)
        merged = sharded.merged_table()
        assert np.array_equal(merged.entries, single.entries)
        assert np.array_equal(merged.filled, single.filled)
        assert np.array_equal(merged.class_freq, single.class_freq)

    def test_touched_shards_reported(self):
        router = ClassShardRouter(12, 3, salt=0)
        sharded = ShardedGlobalCache(router, GlobalCacheTable(12, 2, 4))
        class_a = int(router.classes_of(0)[0])
        class_b = int(router.classes_of(2)[0])
        update = {
            (class_a, 0): np.ones(4),
            (class_a, 1): np.ones(4),
            (class_b, 0): np.ones(4),
        }
        freq = np.zeros(12)
        freq[[class_a, class_b]] = 1.0
        touched = sharded.apply_client_update(
            oracle.update_table(update, 4), freq, gamma=0.99
        )
        assert touched == {0: 2, 2: 1}

    def test_sync_into_refreshes_only_requested_shards(self):
        router = ClassShardRouter(12, 2, salt=0)
        sharded = ShardedGlobalCache(router, GlobalCacheTable(12, 2, 4))
        replica = GlobalCacheTable(12, 2, 4)
        class_a = int(router.classes_of(0)[0])
        class_b = int(router.classes_of(1)[0])
        update = {(class_a, 0): np.ones(4), (class_b, 0): np.ones(4)}
        freq = np.zeros(12)
        freq[[class_a, class_b]] = 1.0
        sharded.apply_client_update(oracle.update_table(update, 4), freq, gamma=0.99)
        sharded.sync_into(replica, shards=[0])
        assert replica.filled[class_a, 0]
        assert not replica.filled[class_b, 0]  # shard 1 not pulled yet
        sharded.sync_into(replica)
        assert replica.filled[class_b, 0]

    def test_geometry_validation(self):
        router = ClassShardRouter(12, 2)
        sharded = ShardedGlobalCache(router, GlobalCacheTable(12, 2, 4))
        with pytest.raises(ValueError):
            sharded.sync_into(GlobalCacheTable(12, 3, 4))
        with pytest.raises(ValueError):
            sharded.apply_client_update(UpdateTable.empty(4), np.zeros(5), gamma=0.99)
        with pytest.raises(ValueError):
            ShardedGlobalCache(router, GlobalCacheTable(13, 2, 4))


# ----------------------------------------------------------------------
# Node queueing
# ----------------------------------------------------------------------


def _node(service_ms=10.0, merge_ms=2.0, clients=0):
    model = build_model("resnet50", get_dataset("ucf101", 10), seed=0)
    server = CoCaServer(model, CoCaConfig())
    load = ServerLoadModel(
        base_latency_ms=50.0,
        service_time_ms=service_ms,
        contention_ms_per_client=0.0,
    )
    node = EdgeServerNode(0, server, load=load, merge_service_ms=merge_ms)
    node.assigned_clients.extend(range(clients))
    return node


class TestEdgeServerNode:
    def test_fcfs_backlog(self):
        node = _node(service_ms=10.0)
        first = node.serve_request(0.0)
        second = node.serve_request(0.0)  # same arrival -> queues behind
        assert first.wait_ms == 0.0
        assert first.finish_ms == 10.0
        assert second.wait_ms == 10.0
        assert second.finish_ms == 20.0
        assert second.response_ms == 70.0  # + base network latency
        assert node.mean_wait_ms == pytest.approx(5.0)

    def test_idle_node_serves_immediately(self):
        node = _node(service_ms=10.0)
        node.serve_request(0.0)
        late = node.serve_request(100.0)
        assert late.wait_ms == 0.0
        assert late.start_ms == 100.0

    def test_contention_scales_with_assigned_clients(self):
        model = build_model("resnet50", get_dataset("ucf101", 10), seed=0)
        server = CoCaServer(model, CoCaConfig())
        load = ServerLoadModel(service_time_ms=5.0, contention_ms_per_client=0.1)
        node = EdgeServerNode(0, server, load=load)
        node.assigned_clients.extend(range(20))
        timing = node.serve_request(0.0)
        assert timing.finish_ms == pytest.approx(5.0 + 0.1 * 20)

    def test_merge_charges_cpu(self):
        node = _node(merge_ms=2.0)
        assert node.serve_merge(0.0, num_entries=5) == 2.0
        assert node.serve_merge(0.0, num_entries=3) == 4.0  # queues
        assert node.serve_merge(10.0, num_entries=0) == 10.0  # no-op
        assert node.merges_served == 2

    def test_sync_charges_per_remote_shard(self):
        node = _node()
        # The co-located shard is free.
        assert node.serve_sync(0, arrival_ms=0.0, payload_bytes=0) == 0.0
        assert node.syncs_served == 0
        assert node.serve_sync(3, arrival_ms=0.0, payload_bytes=0) == 3 * SYNC_SERVICE_MS
        assert node.syncs_served == 1
        assert node.total_busy_ms == pytest.approx(3 * SYNC_SERVICE_MS)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            _node(merge_ms=-1.0)
        node = _node()
        with pytest.raises(ValueError):
            node.serve_request(-1.0)
        with pytest.raises(ValueError):
            node.serve_sync(-1, arrival_ms=0.0, payload_bytes=0)


# ----------------------------------------------------------------------
# Assignment policies and coordinator
# ----------------------------------------------------------------------


class TestAssignment:
    def test_hash_is_uniform_and_deterministic(self):
        a = assign_clients("hash", 12, 4)
        assert np.array_equal(a, assign_clients("hash", 12, 4))
        assert np.array_equal(np.bincount(a, minlength=4), [3, 3, 3, 3])

    def test_least_loaded_balances(self):
        a = assign_clients("least-loaded", 10, 3)
        counts = np.bincount(a, minlength=3)
        assert counts.max() - counts.min() <= 1

    def test_region_prefers_owned_mass(self):
        router = ClassShardRouter(12, 2, salt=0)
        sharded = ShardedGlobalCache(router, GlobalCacheTable(12, 2, 4))
        dists = np.zeros((2, 12))
        # Each client streams only classes owned by one shard.
        dists[0, router.classes_of(1)] = 1.0 / router.classes_of(1).size
        dists[1, router.classes_of(0)] = 1.0 / router.classes_of(0).size
        a = assign_clients(
            "region", 2, 2, sharded=sharded, client_distributions=dists
        )
        assert a.tolist() == [1, 0]

    def test_region_caps_node_population(self):
        router = ClassShardRouter(12, 2, salt=0)
        sharded = ShardedGlobalCache(router, GlobalCacheTable(12, 2, 4))
        # Every client prefers shard 0; capacity forces a spill.
        dists = np.zeros((6, 12))
        dists[:, router.classes_of(0)] = 1.0 / router.classes_of(0).size
        a = assign_clients(
            "region", 6, 2, sharded=sharded, client_distributions=dists
        )
        capacity = -(-6 // 2) + REGION_SLACK  # ceil(C / N) + slack
        counts = np.bincount(a, minlength=2)
        assert counts[0] == capacity and counts[1] == 6 - capacity

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            assign_clients("round-robin", 4, 2)
        assert set(ASSIGNMENT_POLICIES) == {"hash", "region", "least-loaded"}

    def test_region_requires_distributions(self):
        with pytest.raises(ValueError):
            assign_clients("region", 4, 2)

    def test_region_rejects_node_shard_mismatch(self):
        router = ClassShardRouter(12, 2, salt=0)
        sharded = ShardedGlobalCache(router, GlobalCacheTable(12, 2, 4))
        dists = np.full((12, 12), 1.0 / 12)
        with pytest.raises(ValueError, match="hosted shard"):
            assign_clients(
                "region", 12, 4, sharded=sharded, client_distributions=dists
            )


class TestCoordinator:
    def _cluster_bits(self, sync_interval):
        model = build_model("resnet50", get_dataset("ucf101", 12), seed=0)
        canonical = CoCaServer(model, CoCaConfig())
        router = ClassShardRouter(model.num_classes, 2, salt=0)
        sharded = ShardedGlobalCache(router, canonical.table)
        nodes = [
            EdgeServerNode(i, canonical.replicate()) for i in range(2)
        ]
        return sharded, nodes, ClusterCoordinator(
            sharded, nodes, sync_interval=sync_interval
        )

    def test_sync_interval_counts_rounds(self):
        _, _, coord = self._cluster_bits(sync_interval=3)
        assert not coord.end_round()
        assert not coord.end_round()
        assert coord.end_round()  # third round -> full sync
        assert coord.syncs_performed == 1
        assert coord.rounds_since_sync == 0

    def test_local_shard_fresh_between_syncs(self):
        sharded, nodes, coord = self._cluster_bits(sync_interval=5)
        router = sharded.router
        dim = sharded.table.dim
        class_a = int(router.classes_of(0)[0])
        class_b = int(router.classes_of(1)[0])
        update = {(class_a, 0): np.ones(dim), (class_b, 0): np.ones(dim)}
        freq = np.zeros(router.num_classes)
        freq[[class_a, class_b]] = 1.0
        sharded.apply_client_update(oracle.update_table(update, dim), freq, gamma=0.99)
        assert not coord.end_round()  # local refresh only
        # Node 0 sees its own shard's write, not the remote one.
        assert np.array_equal(
            nodes[0].server.table.entries[class_a, 0],
            sharded.table.entries[class_a, 0],
        )
        assert not np.array_equal(
            nodes[0].server.table.entries[class_b, 0],
            sharded.table.entries[class_b, 0],
        )
        coord.sync_all()
        assert np.array_equal(
            nodes[0].server.table.entries[class_b, 0],
            sharded.table.entries[class_b, 0],
        )

    def test_node_count_must_match_shards(self):
        sharded, nodes, _ = self._cluster_bits(sync_interval=1)
        with pytest.raises(ValueError):
            ClusterCoordinator(sharded, nodes[:1])
        with pytest.raises(ValueError):
            ClusterCoordinator(sharded, nodes, sync_interval=0)


# ----------------------------------------------------------------------
# End-to-end cluster runs
# ----------------------------------------------------------------------


def _cluster_kwargs(**overrides):
    kwargs = dict(
        dataset=get_dataset("ucf101", 15),
        model_name="resnet50",
        num_clients=3,
        config=CoCaConfig(frames_per_round=40),
        seed=5,
        non_iid_level=0.5,
    )
    kwargs.update(overrides)
    return kwargs


class TestClusterFramework:
    def test_one_shard_reproduces_single_server_exactly(self):
        kwargs = _cluster_kwargs()
        reference = CoCaFramework(**kwargs).run(2)
        cluster_fw = ClusterFramework(num_shards=1, **kwargs)
        cluster = cluster_fw.run(2)
        merged = cluster_fw.merged_table()
        table = reference.server.table
        assert np.array_equal(merged.entries, table.entries)
        assert np.array_equal(merged.filled, table.filled)
        assert np.array_equal(merged.class_freq, table.class_freq)
        got, want = cluster.metrics.records, reference.metrics.records
        assert len(got) == len(want) == 2 * 3 * 40
        for column in (
            "true_class", "predicted_class", "latency_ms", "hit_layer", "client_id"
        ):
            assert np.array_equal(getattr(got, column), getattr(want, column))

    def test_sync_interval_one_is_exact_for_many_shards(self):
        kwargs = _cluster_kwargs()
        reference = CoCaFramework(**kwargs).run(2)
        cluster_fw = ClusterFramework(num_shards=3, sync_interval=1, **kwargs)
        cluster = cluster_fw.run(2)
        merged = cluster_fw.merged_table()
        assert np.array_equal(merged.entries, reference.server.table.entries)
        ref_rates = per_class_hit_rates(reference.metrics.records)
        cluster_rates = per_class_hit_rates(cluster.metrics.records)
        assert ref_rates == cluster_rates

    def test_authoritative_table_tracks_single_server_between_syncs(self):
        """The cluster's one table is the deployment's ``server.table``
        and equals a single server fed the same uploads after every
        round; node replicas lag behind it until the interval's sync."""
        kwargs = _cluster_kwargs()
        single_server = CoCaFramework(**kwargs).server
        cluster = ClusterFramework(num_shards=3, sync_interval=3, **kwargs)
        assert cluster.sharded.table is cluster.framework.server.table
        for round_index in range(6):
            for report in cluster.run_round(round_index):
                single_server.apply_client_update(
                    report.update_entries, report.frequencies
                )
            table, single = cluster.sharded.table, single_server.table
            assert np.array_equal(table.entries, single.entries)
            assert np.array_equal(table.filled, single.filled)
            assert np.array_equal(table.class_freq, single.class_freq)
            replica = cluster.nodes[0].server.table
            in_sync = np.array_equal(
                replica.entries, table.entries
            ) and np.array_equal(replica.class_freq, table.class_freq)
            assert in_sync == (round_index % 3 == 2)

    def test_stale_sync_still_runs_and_counts(self):
        cluster_fw = ClusterFramework(
            num_shards=3, sync_interval=3, **_cluster_kwargs()
        )
        result = cluster_fw.run(3)
        assert cluster_fw.coordinator.syncs_performed == 1
        assert [r.synced for r in result.rounds] == [False, False, True]
        assert result.summary().num_samples == 3 * 3 * 40

    def test_preset_cache_mode(self):
        cluster_fw = ClusterFramework(
            num_shards=2, enable_dca=False, **_cluster_kwargs()
        )
        result = cluster_fw.run(1)
        assert result.summary().hit_ratio > 0
        model = cluster_fw.framework.model
        for client in result.clients:
            cache = client.engine.cache
            assert cache.active_layers == list(range(model.num_cache_layers))
            assert cache.layer_pack().ids.tolist() == list(range(model.num_classes))

    def test_virtual_time_advances_and_throughput_positive(self):
        cluster_fw = ClusterFramework(num_shards=2, **_cluster_kwargs())
        result = cluster_fw.run(2, warmup_rounds=1)
        assert result.measured_span_ms > 0
        assert result.throughput_inferences_per_s > 0
        assert len(result.reports) == 2 * 3
        # Warmup rounds are excluded from the measured span.
        assert cluster_fw.placement.virtual_now_ms() > result.measured_span_ms

    def test_requests_served_in_arrival_order_not_id_order(self):
        """A late client must not delay an earlier-arriving one (FCFS)."""
        load = ServerLoadModel(service_time_ms=10.0, base_latency_ms=0.0,
                               contention_ms_per_client=0.0)
        cluster_fw = ClusterFramework(
            num_shards=1, **_cluster_kwargs(num_clients=2, load=load)
        )
        # Client 0 is far ahead in virtual time; client 1 arrives at 0.
        cluster_fw.placement.clocks[0].advance(100.0)
        cluster_fw.run_round(0)
        node = cluster_fw.nodes[0]
        # FCFS: client 1 served at t=0 (idle node), client 0 at t=100 —
        # nobody waits.  Id-order serving would have charged client 1 a
        # 110 ms wait behind client 0.
        assert node.total_wait_ms == pytest.approx(0.0)

    def test_cross_shard_sync_costs_virtual_time(self):
        kwargs = _cluster_kwargs()
        busy = {}
        for interval in (1, 3):
            fw = ClusterFramework(num_shards=3, sync_interval=interval, **kwargs)
            fw.run(3)
            busy[interval] = sum(n.total_busy_ms for n in fw.nodes)
        # Interval 1 syncs three times, interval 3 once: two extra syncs
        # of 3 nodes x 2 remote shards each.
        assert busy[1] - busy[3] == pytest.approx(2 * 3 * 2 * SYNC_SERVICE_MS)

    def test_fewer_queueing_with_more_shards(self):
        load = ServerLoadModel(service_time_ms=20.0, round_duration_ms=500.0)
        kwargs = _cluster_kwargs(num_clients=6, load=load)
        waits = {}
        for shards in (1, 3):
            result = ClusterFramework(num_shards=shards, **kwargs).run(1)
            waits[shards] = result.rounds[0].mean_response_wait_ms
        assert waits[3] < waits[1]

    def test_assignment_recorded_on_nodes(self):
        cluster_fw = ClusterFramework(
            num_shards=3, assignment_policy="least-loaded", **_cluster_kwargs()
        )
        populations = [len(n.assigned_clients) for n in cluster_fw.nodes]
        assert sum(populations) == 3
        assert max(populations) - min(populations) <= 1

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            ClusterFramework(num_shards=0, **_cluster_kwargs())


def _same_records(got, want):
    return all(
        np.array_equal(getattr(got, column), getattr(want, column))
        for column in (
            "true_class", "predicted_class", "latency_ms", "hit_layer", "client_id"
        )
    )


class TestOneProtocolLoop:
    """The cluster is a placement over ``CoCaFramework``'s round, so every
    framework setting reaches a cluster round too."""

    def test_frequency_only_rounds_match_single_server(self):
        kwargs = _cluster_kwargs()
        reference = CoCaFramework(**kwargs, enable_gcu=False)
        initial = reference.server.table.copy()
        want = reference.run(2)
        cluster_fw = ClusterFramework(num_shards=3, sync_interval=1, **kwargs)
        cluster_fw.framework.enable_gcu = False
        got = cluster_fw.run(2)
        assert _same_records(got.metrics.records, want.metrics.records)
        table = cluster_fw.sharded.table
        assert np.array_equal(table.class_freq, reference.server.table.class_freq)
        assert np.array_equal(table.entries, initial.entries)
        # Delta sync shipped the frequency-only rows to every replica.
        for node in cluster_fw.nodes:
            assert np.array_equal(node.server.table.class_freq, table.class_freq)

    def test_temporal_drift_rounds_match_single_server(self):
        kwargs = _cluster_kwargs()
        still = CoCaFramework(**kwargs).run(2)
        want = CoCaFramework(**kwargs, temporal_drift_per_round=0.3).run(2)
        assert not _same_records(want.metrics.records, still.metrics.records)
        cluster_fw = ClusterFramework(num_shards=3, sync_interval=1, **kwargs)
        cluster_fw.framework.temporal_drift_per_round = 0.3
        got = cluster_fw.run(2)
        assert _same_records(got.metrics.records, want.metrics.records)
        assert np.array_equal(
            cluster_fw.sharded.table.class_freq, want.server.table.class_freq
        )

    def test_negative_drift_set_after_construction_raises(self):
        cluster_fw = ClusterFramework(num_shards=3, **_cluster_kwargs())
        cluster_fw.framework.temporal_drift_per_round = -0.3
        space = cluster_fw.framework.model.feature_space
        drift_dirs = space._drift_dirs.copy()
        with pytest.raises(ValueError, match="temporal_drift_per_round must be >= 0"):
            cluster_fw.run_round(0)
        assert np.array_equal(space._drift_dirs, drift_dirs)
        assert sum(node.requests_served for node in cluster_fw.nodes) == 0

    def test_cluster_round_reports_every_profile_stage(self):
        kwargs = _cluster_kwargs()
        single: dict[str, float] = {}
        CoCaFramework(**kwargs).run_round(0, timings=single)
        cluster: dict[str, float] = {}
        cluster_fw = ClusterFramework(num_shards=3, **kwargs)
        cluster_fw.framework.run_round(0, timings=cluster)
        # The timed round ran on the fleet: every request queued on a node.
        assert sum(node.requests_served for node in cluster_fw.nodes) == 3
        stages = [stage for stage in PROFILE_STAGES if stage in single]
        assert stages == list(PROFILE_STAGES)
        assert all(stage in cluster for stage in stages)

    @pytest.mark.parametrize("num_shards", [None, 2])
    def test_round_without_timings_passes_no_timings_keyword(self, num_shards):
        """A tracer wraps ``client.run_round`` with its own ``timings=``;
        a round that got none must not pass a second one."""
        kwargs = _cluster_kwargs()
        if num_shards is None:
            fleet, nodes = CoCaFramework(**kwargs), []
        else:
            cluster_fw = ClusterFramework(num_shards=num_shards, **kwargs)
            fleet, nodes = cluster_fw.framework, cluster_fw.nodes
        seen = []

        def reporting(original):
            def call(*args, **call_kwargs):
                timings = {}
                report = original(*args, timings=timings, **call_kwargs)
                seen.append(timings)
                return report

            return call

        for client in fleet.clients:
            client.run_round = reporting(client.run_round)
        fleet.run_round(0)
        assert len(seen) == len(fleet.clients)
        if nodes:  # a cluster round ran on the fleet
            assert sum(node.requests_served for node in nodes) == len(fleet.clients)
        assert all("collect" in timings for timings in seen)
        with pytest.raises(TypeError, match="timings"):
            fleet.run_round(1, timings={})


# ----------------------------------------------------------------------
# Supporting core APIs
# ----------------------------------------------------------------------


class TestReplication:
    def test_table_copy_is_independent(self):
        table = GlobalCacheTable(4, 2, 3)
        table.install(1, 0, np.ones(3))
        clone = table.copy()
        clone.install(2, 1, np.ones(3))
        assert not table.filled[2, 1]
        assert clone.filled[1, 0]
        assert np.array_equal(clone.entries[1, 0], table.entries[1, 0])

    def test_server_replicate_allocates_identically(self):
        model = build_model("resnet50", get_dataset("ucf101", 10), seed=1)
        server = CoCaServer(model, CoCaConfig())
        server.initialize(calibrate(model, np.random.default_rng(0)))
        replica = server.replicate()
        assert np.array_equal(replica.table.entries, server.table.entries)
        assert np.array_equal(replica.table.class_freq, server.table.class_freq)
        assert np.array_equal(
            replica.reference_similarity_floor, server.reference_similarity_floor
        )
        timestamps = np.zeros(model.num_classes)
        budget = server.cache_size_limit_bytes()
        cache_a, _ = server.allocate(
            timestamps, server.reference_hit_ratio, budget
        )
        cache_b, _ = replica.allocate(
            timestamps, replica.reference_hit_ratio, budget
        )
        assert cache_a.content_equal(cache_b)
        # Replica state is independent: merging there leaves the original.
        replica.table.class_freq[0] += 99.0
        assert server.table.class_freq[0] != replica.table.class_freq[0]

    def test_cache_content_equal_detects_differences(self):
        model = build_model("resnet50", get_dataset("ucf101", 10), seed=1)
        server = CoCaServer(model, CoCaConfig())
        server.initialize(calibrate(model, np.random.default_rng(0)))
        cache_a = server.build_cache([0, 1], np.arange(5))
        cache_b = server.build_cache([0, 1], np.arange(5))
        assert cache_a.content_equal(cache_b)
        cache_c = server.build_cache([0], np.arange(5))
        assert not cache_a.content_equal(cache_c)
        ids, mat = cache_b.entries_at(0)
        cache_b.set_layer_entries(0, ids, mat + 1e-6)
        assert not cache_a.content_equal(cache_b)
        assert cache_a.content_equal(cache_b, atol=1e-3)


class TestRoundReportLatency:
    def test_total_latency_sums_records(self):
        report = RoundReport(
            client_id=0,
            records=RecordBatch([0, 1], [0, 1], [10.0, 2.5], [-1, -1], [0, 0]),
            update_entries=UpdateTable.empty(4),
            frequencies=np.zeros(2),
        )
        assert report.total_latency_ms == pytest.approx(12.5)


# ----------------------------------------------------------------------
# Metrics helper
# ----------------------------------------------------------------------


class TestPerClassHitRates:
    def test_counts_and_floor(self):
        records = RecordBatch([0, 0, 1], [0, 0, 1], [1.0] * 3, [1, -1, 0], [0] * 3)
        assert per_class_hit_rates(records) == {0: 0.5, 1: 1.0}
        assert per_class_hit_rates(records, min_samples=2) == {0: 0.5}
        with pytest.raises(ValueError):
            per_class_hit_rates(records, min_samples=0)


# ----------------------------------------------------------------------
# Delta-based cross-shard sync
# ----------------------------------------------------------------------


class _TableHolder:
    """Minimal server stand-in: coordinators only touch ``server.table``."""

    def __init__(self, table: GlobalCacheTable) -> None:
        self.table = table


class TestDeltaSync:
    """Delta sync against its reference: ``sync_into`` row copies on a
    second replica set, and ``merged_table()``."""

    I, L, D = 60, 6, 8

    def _build(self, num_shards=3):
        router = ClassShardRouter(self.I, num_shards, salt=7)
        sharded = ShardedGlobalCache(
            router, GlobalCacheTable(self.I, self.L, self.D)
        )
        nodes = [
            EdgeServerNode(i, _TableHolder(GlobalCacheTable(self.I, self.L, self.D)))
            for i in range(num_shards)
        ]
        return sharded, nodes, ClusterCoordinator(sharded, nodes, sync_interval=1)

    def _full_copy_nbytes(self, sharded):
        """Bytes one full-copy sync of every remote shard to every node ships."""
        sizes = sharded.router.shard_sizes()
        return sum(
            HEADER_NBYTES + full_rows_nbytes(int(sizes[shard]), self.L, self.D)
            for node in range(sharded.num_shards)
            for shard in range(sharded.num_shards)
            if shard != node
        )

    def _run_uploads(self, sharded, coord, rounds=6, classes_per_upload=4):
        """Seeded upload rounds; after each round's sync every replica is
        compared with a full ``sync_into`` copy.  Returns the bytes full
        copies would have shipped."""
        rng = np.random.default_rng(42)
        full_copies = [
            GlobalCacheTable(self.I, self.L, self.D) for _ in coord.nodes
        ]
        full_bytes = 0
        for _ in range(rounds):
            for _ in range(2):
                ids = rng.choice(self.I, size=classes_per_upload, replace=False)
                update = {
                    (int(cid), int(rng.integers(self.L))): rng.normal(size=self.D)
                    for cid in ids
                }
                freq = np.zeros(self.I)
                freq[ids] = rng.integers(1, 5, size=ids.size).astype(float)
                sharded.apply_client_update(
                    oracle.update_table(update, self.D), freq, gamma=0.99
                )
            coord.end_round()
            full_bytes += self._full_copy_nbytes(sharded)
            for node, full in zip(coord.nodes, full_copies):
                sharded.sync_into(full)
                assert np.array_equal(node.server.table.entries, full.entries)
                assert np.array_equal(node.server.table.filled, full.filled)
                assert np.array_equal(
                    node.server.table.class_freq, full.class_freq
                )
        return full_bytes

    def test_delta_sync_replicas_bit_identical_to_full(self):
        sharded, nodes, coord = self._build()
        self._run_uploads(sharded, coord)
        assert coord.delta_syncs > 0  # the delta path did the work
        merged = sharded.merged_table()
        for node in nodes:
            assert np.array_equal(node.server.table.entries, merged.entries)

    def test_delta_ships_fewer_bytes_when_few_rows_dirty(self):
        sharded, _, coord = self._build()
        full_bytes = self._run_uploads(sharded, coord, classes_per_upload=2)
        assert coord.sync_bytes_shipped < full_bytes
        assert coord.delta_syncs > 0

    def test_first_sync_is_full_fallback(self):
        sharded, _, coord = self._build()
        coord.sync_all()
        remote_transfers = len(coord.nodes) * (sharded.num_shards - 1)
        assert coord.full_syncs == remote_transfers
        assert coord.delta_syncs == 0

    def test_fallback_threshold_degrades_to_full(self):
        sharded, _, coord = self._build()
        coord.sync_all()  # establish a base epoch everywhere
        owned = sharded.router.classes_of(0)
        at_threshold = int(DELTA_FALLBACK_FRACTION * owned.size)

        def dirty(rows):
            update = {
                (int(cid), 0): np.random.default_rng(int(cid)).normal(size=self.D)
                for cid in rows
            }
            freq = np.zeros(self.I)
            freq[rows] = 1.0
            sharded.apply_client_update(
                oracle.update_table(update, self.D), freq, gamma=0.99
            )

        # At the threshold a delta still ships; one more dirty row of the
        # shard tips it into the full-snapshot fallback.
        base = sharded.epoch
        dirty(owned[:at_threshold])
        assert not sharded.snapshot_delta(0, since_epoch=base).full
        dirty(owned[at_threshold : at_threshold + 1])
        assert sharded.snapshot_delta(0, since_epoch=base).full
        # Dirty every class -> every remote transfer falls back.
        dirty(np.arange(self.I))
        before_full = coord.full_syncs
        coord.sync_all()
        assert coord.full_syncs > before_full
        assert coord.delta_syncs == 0

    def test_epoch_counts_uploads(self):
        sharded, _, _ = self._build()
        assert sharded.epoch == 0
        sharded.apply_client_update(
            UpdateTable.empty(self.D), np.zeros(self.I), gamma=0.99
        )
        assert sharded.epoch == 1

    def test_sync_delta_into_matches_sync_into(self):
        sharded, _, _ = self._build()
        rng = np.random.default_rng(3)
        replica_a = GlobalCacheTable(self.I, self.L, self.D)
        replica_b = GlobalCacheTable(self.I, self.L, self.D)
        synced_at = -1
        for _ in range(4):
            ids = rng.choice(self.I, size=5, replace=False)
            update = {
                (int(cid), int(rng.integers(self.L))): rng.normal(size=self.D)
                for cid in ids
            }
            freq = np.zeros(self.I)
            freq[ids] = 1.0
            sharded.apply_client_update(
                oracle.update_table(update, self.D), freq, gamma=0.99
            )
            delta = sharded.sync_delta_into(replica_a, 0, since_epoch=synced_at)
            synced_at = delta.target_epoch
            sharded.sync_into(replica_b, shards=[0])
            rows = sharded.router.classes_of(0)
            assert np.array_equal(replica_a.entries[rows], replica_b.entries[rows])
            assert np.array_equal(replica_a.filled[rows], replica_b.filled[rows])
            assert np.array_equal(
                replica_a.class_freq[rows], replica_b.class_freq[rows]
            )

    def test_node_payload_telemetry_accumulates(self):
        sharded, nodes, coord = self._build()
        self._run_uploads(sharded, coord, rounds=2)
        assert all(node.sync_payload_bytes > 0 for node in nodes)
        assert sum(node.sync_payload_bytes for node in nodes) == (
            coord.sync_bytes_shipped
        )
