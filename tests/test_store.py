"""Tests for the mmap snapshot store (:mod:`repro.store`).

Covers the on-disk format (round-trips, epoch monotonicity, corrupt and
truncated shards), the lazy reader (read-only zero-copy views), serving
caches backed by mapped views, in-memory deltas and their full-snapshot
fallback, the server integration, and the ``repro store`` CLI.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import contracts
from repro.cli import main as cli_main
from repro.contracts import ContractViolation
from repro.core.cache import SemanticCache
from repro.core.config import CoCaConfig
from repro.core.server import CoCaServer, GlobalCacheTable
from repro.data.datasets import get_dataset
from repro.models.zoo import build_model
from repro.store import (
    MappedTableStore,
    SnapshotDelta,
    SnapshotFormatError,
    SnapshotIntegrityError,
    diff_tables,
    full_rows_nbytes,
    is_snapshot_path,
    read_manifest,
    write_snapshot,
)


def unit_rows(shape: tuple[int, ...], seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal(shape)
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


def filled_table(
    num_classes: int = 24, num_layers: int = 10, dim: int = 8, seed: int = 0
) -> GlobalCacheTable:
    table = GlobalCacheTable(num_classes, num_layers, dim)
    table.entries = unit_rows((num_classes, num_layers, dim), seed=seed)
    table.filled[:] = True
    rng = np.random.default_rng(seed + 1)
    table.class_freq = rng.integers(1, 9, size=num_classes).astype(float)
    return table


def tables_equal(a: GlobalCacheTable, b: GlobalCacheTable) -> bool:
    return (
        np.array_equal(a.entries, b.entries)
        and np.array_equal(a.filled, b.filled)
        and np.array_equal(a.class_freq, b.class_freq)
    )


# ----------------------------------------------------------------------
# Format round-trips
# ----------------------------------------------------------------------


class TestSnapshotRoundtrip:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        table = filled_table()
        manifest = write_snapshot(tmp_path / "snap", table, epoch=3)
        assert manifest.epoch == 3
        with MappedTableStore(tmp_path / "snap") as store:
            assert store.epoch == 3
            assert tables_equal(store.as_table(), table)

    def test_partial_fill_roundtrip(self, tmp_path):
        table = filled_table()
        table.filled[5:] = False
        write_snapshot(tmp_path / "snap", table)
        with MappedTableStore(tmp_path / "snap") as store:
            restored = store.as_table()
        assert np.array_equal(restored.filled, table.filled)
        assert np.array_equal(restored.entries, table.entries)

    def test_references_roundtrip(self, tmp_path):
        table = filled_table(num_layers=4)
        refs = {"reference_hit_ratio": np.array([0.1, 0.2, 0.3, 0.4])}
        write_snapshot(tmp_path / "snap", table, references=refs)
        with MappedTableStore(tmp_path / "snap") as store:
            out = store.references()
        assert np.array_equal(out["reference_hit_ratio"],
                              refs["reference_hit_ratio"])

    def test_snapshot_path_detection(self, tmp_path):
        table = filled_table()
        assert not is_snapshot_path(tmp_path / "snap")
        write_snapshot(tmp_path / "snap", table)
        assert is_snapshot_path(tmp_path / "snap")
        assert not is_snapshot_path(tmp_path / "missing")

    def test_float32_snapshot_roundtrip(self, tmp_path):
        table = filled_table()
        write_snapshot(tmp_path / "snap", table, dtype="float32")
        with MappedTableStore(tmp_path / "snap") as store:
            assert store.dtype == np.dtype(np.float32)
            view = store.layer_view(0)
            assert view.dtype == np.dtype(np.float32)
            assert np.allclose(view, table.entries[:, 0, :], atol=1e-6)

    def test_layers_per_shard_controls_file_count(self, tmp_path):
        table = filled_table(num_layers=10)
        manifest = write_snapshot(
            tmp_path / "snap", table, layers_per_shard=4
        )
        assert [s.num_layers for s in manifest.shards] == [4, 4, 2]
        with MappedTableStore(tmp_path / "snap") as store:
            assert tables_equal(store.as_table(), table)
        with pytest.raises(ValueError, match="layers_per_shard"):
            write_snapshot(tmp_path / "other", table, layers_per_shard=0)

    def test_rewrite_unlinks_stale_shards(self, tmp_path):
        table = filled_table(num_layers=10)
        write_snapshot(tmp_path / "snap", table, layers_per_shard=1)
        assert len(list((tmp_path / "snap").glob("entries-*.npy"))) == 10
        write_snapshot(tmp_path / "snap", table, layers_per_shard=8)
        assert len(list((tmp_path / "snap").glob("entries-*.npy"))) == 2

    def test_epoch_must_be_monotonic(self, tmp_path):
        table = filled_table()
        write_snapshot(tmp_path / "snap", table, epoch=5)
        with pytest.raises(ValueError, match="monotonic"):
            write_snapshot(tmp_path / "snap", table, epoch=5)
        with pytest.raises(ValueError, match="monotonic"):
            write_snapshot(tmp_path / "snap", table, epoch=4)
        assert write_snapshot(tmp_path / "snap", table, epoch=6).epoch == 6
        # Default: auto-increment past whatever is on disk.
        assert write_snapshot(tmp_path / "snap", table).epoch == 7


# ----------------------------------------------------------------------
# Reader: laziness, zero-copy views, integrity
# ----------------------------------------------------------------------


class TestMappedTableStore:
    def test_views_are_read_only_and_zero_copy(self, tmp_path):
        table = filled_table()
        write_snapshot(tmp_path / "snap", table)
        store = MappedTableStore(tmp_path / "snap")
        view = store.layer_view(3)
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0, 0] = 1.0
        # Same mapped storage on every access — no per-call copies.
        assert np.shares_memory(view, store.layer_view(3))
        assert np.array_equal(view, table.entries[:, 3, :])

    def test_shards_open_lazily(self, tmp_path):
        if contracts.ENABLED:
            pytest.skip(
                "a contracts-armed open verifies checksums, which maps "
                "every shard up front by design"
            )
        table = filled_table(num_layers=10)
        write_snapshot(tmp_path / "snap", table, layers_per_shard=2)
        store = MappedTableStore(tmp_path / "snap")
        assert all(s is None for s in store._shards)
        store.layer_view(5)
        assert [s is not None for s in store._shards] == [
            False, False, True, False, False
        ]

    def test_missing_manifest_raises(self, tmp_path):
        (tmp_path / "snap").mkdir()
        with pytest.raises(SnapshotFormatError, match="manifest"):
            read_manifest(tmp_path / "snap")
        with pytest.raises(SnapshotFormatError):
            MappedTableStore(tmp_path / "snap")

    def test_truncated_shard_raises_integrity_error(self, tmp_path):
        table = filled_table()
        manifest = write_snapshot(tmp_path / "snap", table)
        shard_file = tmp_path / "snap" / manifest.shards[0].file
        shard_file.write_bytes(shard_file.read_bytes()[:40])
        # Under contracts the open itself verifies checksums and trips;
        # otherwise the first mapped access does.  Same exception either way.
        with pytest.raises(SnapshotIntegrityError, match="truncated|corrupt"):
            MappedTableStore(tmp_path / "snap").layer_view(0)

    def test_wrong_shape_shard_raises_integrity_error(self, tmp_path):
        table = filled_table()
        manifest = write_snapshot(tmp_path / "snap", table)
        np.save(
            tmp_path / "snap" / manifest.shards[0].file,
            np.zeros((2, 2), dtype=np.float64),
        )
        with pytest.raises(SnapshotIntegrityError, match="shape"):
            MappedTableStore(tmp_path / "snap").layer_view(0)

    def test_checksum_mismatch_detected(self, tmp_path):
        table = filled_table()
        manifest = write_snapshot(tmp_path / "snap", table)
        shard_file = tmp_path / "snap" / manifest.shards[0].file
        raw = bytearray(shard_file.read_bytes())
        raw[-1] ^= 0xFF  # flip payload bits, keep the size
        shard_file.write_bytes(bytes(raw))
        # A contracts-armed open trips ContractViolation at construction;
        # a plain open defers to verify_checksums().  Both say "checksum".
        with pytest.raises(
            (SnapshotIntegrityError, ContractViolation), match="checksum"
        ):
            MappedTableStore(tmp_path / "snap").verify_checksums()
        with pytest.raises(SnapshotIntegrityError, match="checksum"):
            MappedTableStore(tmp_path / "snap", verify=True)

    def test_verify_passes_on_intact_snapshot(self, tmp_path):
        write_snapshot(tmp_path / "snap", filled_table())
        MappedTableStore(tmp_path / "snap", verify=True).verify_checksums()


# ----------------------------------------------------------------------
# Serving caches over mapped views
# ----------------------------------------------------------------------


class TestMappedServing:
    def test_serving_cache_layers_are_view_backed(self, tmp_path):
        table = filled_table()
        write_snapshot(tmp_path / "snap", table)
        store = MappedTableStore(tmp_path / "snap")
        cache = store.serving_cache(alpha=0.5, theta=0.05)
        assert cache.dtype == np.dtype(np.float64)
        assert cache.view_backed_layers() == list(range(table.num_layers))
        mat = cache._layers[4]
        assert not mat.flags.writeable
        assert np.shares_memory(mat, store.layer_view(4))

    def test_set_layer_entries_promotes_view_to_ram(self, tmp_path):
        table = filled_table()
        write_snapshot(tmp_path / "snap", table)
        store = MappedTableStore(tmp_path / "snap")
        cache = store.serving_cache()
        ids = np.arange(store.num_classes)
        cache.set_layer_entries(2, ids, unit_rows((ids.size, store.dim)))
        mat = cache._layers[2]
        assert mat.flags.writeable
        assert not np.shares_memory(mat, store.layer_view(2))
        assert cache.view_backed_layers() == [
            j for j in range(table.num_layers) if j != 2
        ]

    def test_view_backed_lookups_match_owned_storage(self, tmp_path):
        table = filled_table()
        write_snapshot(tmp_path / "snap", table)
        store = MappedTableStore(tmp_path / "snap")
        mapped_cache = store.serving_cache(alpha=0.5, theta=0.05)
        owned_cache = SemanticCache(
            table.num_classes, alpha=0.5, theta=0.05, dtype=np.float64
        )
        for layer in range(table.num_layers):
            ids = np.arange(table.num_classes)
            owned_cache.set_layer_entries(
                layer, ids, table.entries[:, layer, :]
            )
        # set_layer_entries re-normalizes (a no-op up to rounding on the
        # already-unit snapshot rows); the view path stores bytes as-is.
        assert mapped_cache.content_equal(owned_cache, atol=1e-12)
        rng = np.random.default_rng(11)
        for _ in range(20):
            query = unit_rows((table.dim,), seed=int(rng.integers(1 << 30)))
            sess_a = mapped_cache.start_batch_session(1)
            sess_b = owned_cache.start_batch_session(1)
            for layer in range(table.num_layers):
                res_a = sess_a.probe(layer, query[None, :])
                res_b = sess_b.probe(layer, query[None, :])
                assert res_a.hit[0] == res_b.hit[0]
                assert res_a.top_class[0] == res_b.top_class[0]
                assert abs(res_a.score[0] - res_b.score[0]) < 1e-12

    def test_set_layer_view_rejects_mismatched_dtype(self):
        cache = SemanticCache(8, dtype=np.float32)
        with pytest.raises(ValueError, match="dtype"):
            cache.set_layer_view(
                0, np.arange(4), unit_rows((4, 6)).astype(np.float64)
            )

    def test_set_layer_view_rejects_non_contiguous(self):
        cache = SemanticCache(8, dtype=np.float64)
        mat = np.asfortranarray(unit_rows((4, 6)))
        with pytest.raises(ValueError, match="contiguous"):
            cache.set_layer_view(0, np.arange(4), mat)

    def test_set_layer_view_validates_ids(self):
        cache = SemanticCache(4, dtype=np.float64)
        with pytest.raises(ValueError, match="duplicate"):
            cache.set_layer_view(0, np.array([1, 1]), unit_rows((2, 6)))
        with pytest.raises(ValueError, match="range"):
            cache.set_layer_view(0, np.array([1, 9]), unit_rows((2, 6)))

    def test_empty_view_clears_layer(self):
        cache = SemanticCache(8, dtype=np.float64)
        cache.set_layer_view(0, np.arange(4), unit_rows((4, 6)))
        cache.set_layer_view(
            0, np.empty(0, dtype=int), np.empty((0, 6))
        )
        assert cache.active_layers == []
        assert cache.view_backed_layers() == []

    def test_clear_drops_view_tracking(self):
        cache = SemanticCache(8, dtype=np.float64)
        cache.set_layer_view(0, np.arange(4), unit_rows((4, 6)))
        cache.clear()
        assert cache.view_backed_layers() == []


# ----------------------------------------------------------------------
# Deltas
# ----------------------------------------------------------------------


class TestSnapshotDelta:
    def _delta(self) -> SnapshotDelta:
        return SnapshotDelta(
            shard_id=1,
            base_epoch=2,
            target_epoch=7,
            full=False,
            entry_rows=np.array([3, 8], dtype=np.int64),
            entries=unit_rows((2, 5, 6)),
            filled=np.ones((2, 5), dtype=bool),
            freq_rows=np.array([3, 8, 9], dtype=np.int64),
            freqs=np.array([1.0, 2.0, 4.0]),
        )

    def test_apply_scatters_rows(self):
        delta = self._delta()
        replica = GlobalCacheTable(12, 5, 6)
        delta.apply(replica)
        assert np.array_equal(replica.entries[[3, 8]], delta.entries)
        assert replica.filled[3].all() and replica.filled[8].all()
        assert replica.class_freq[9] == 4.0
        assert replica.class_freq[0] == 0.0

    def test_apply_rejects_out_of_range_rows(self):
        delta = self._delta()
        with pytest.raises(ValueError, match="geometry"):
            delta.apply(GlobalCacheTable(9, 5, 6))

    def test_apply_rejects_mismatched_row_shape(self):
        delta = self._delta()
        with pytest.raises(ValueError, match="shape"):
            delta.apply(GlobalCacheTable(12, 4, 6))

    def test_epochs_must_not_run_backwards(self):
        with pytest.raises(ValueError, match="backwards"):
            SnapshotDelta(
                shard_id=0,
                base_epoch=5,
                target_epoch=2,
                full=False,
                entry_rows=np.empty(0, dtype=np.int64),
                entries=np.empty((0, 2, 2)),
                filled=np.empty((0, 2), dtype=bool),
                freq_rows=np.empty(0, dtype=np.int64),
                freqs=np.empty(0),
            )

    def test_nbytes_counts_payload_and_header(self):
        delta = self._delta()
        payload = (
            delta.entry_rows.nbytes
            + delta.entries.nbytes
            + delta.filled.nbytes
            + delta.freq_rows.nbytes
            + delta.freqs.nbytes
        )
        assert delta.nbytes == payload + 32

    def test_diff_tables_finds_changed_rows(self):
        base = filled_table()
        target = base.copy()
        target.entries[4, 1, :] = unit_rows((base.dim,), seed=3)
        target.filled[6, 0] = False
        target.class_freq[9] += 1.0
        delta = diff_tables(base, target)
        assert np.array_equal(delta.entry_rows, [4, 6])
        assert np.array_equal(delta.freq_rows, [9])
        fresh = base.copy()
        delta.apply(fresh)
        assert tables_equal(fresh, target)

    def test_diff_rejects_geometry_mismatch(self):
        with pytest.raises(ValueError, match="geometry"):
            diff_tables(filled_table(), filled_table(num_layers=3))


# ----------------------------------------------------------------------
# Server integration
# ----------------------------------------------------------------------


REFERENCE_NAMES = (
    "reference_hit_ratio",
    "reference_exit_loss",
    "reference_similarity_floor",
)


@pytest.fixture(scope="module")
def server() -> CoCaServer:
    model = build_model("resnet50", get_dataset("ucf101", 12), seed=0)
    return CoCaServer(model, CoCaConfig())


class TestServerPersistence:
    def test_save_snapshot_load_ram_roundtrip(self, tmp_path):
        model = build_model("resnet50", get_dataset("ucf101", 12), seed=0)
        server = CoCaServer(model, CoCaConfig())
        server.initialize_from_shared_dataset(
            np.random.default_rng(0), calibration_samples=40
        )
        server.table.filled[3, 1] = False  # a gap the fill mask must carry
        server.save_snapshot(tmp_path / "snap", layers_per_shard=4)
        other = CoCaServer(model, CoCaConfig())
        other.load_table(tmp_path / "snap")
        assert type(other.table) is GlobalCacheTable
        # Bit for bit: every layer's centroids, the fill mask, Phi and the
        # three calibrated reference vectors.
        for layer in range(server.table.num_layers):
            assert np.array_equal(
                other.table.entries[:, layer, :],
                server.table.entries[:, layer, :],
            ), f"layer {layer}"
        assert np.array_equal(other.table.filled, server.table.filled)
        assert np.array_equal(other.table.class_freq, server.table.class_freq)
        for name in REFERENCE_NAMES:
            assert np.array_equal(getattr(other, name), getattr(server, name))
        # The restored table owns its memory: an Eq. 4 merge writes RAM,
        # never a read-only mapped view.
        assert other.table.entries.flags.writeable
        assert other.table.entries.flags.owndata

    def test_truncated_shard_leaves_server_untouched(
        self, tmp_path, server, monkeypatch
    ):
        """A shard that fails to map *after* the manifest and meta checks
        passed (shards open lazily) is a typed error, mutates nothing and
        still closes the store."""
        manifest = server.save_snapshot(
            tmp_path / "snap", layers_per_shard=-(-server.table.num_layers // 2)
        )
        assert len(manifest.shards) == 2
        last = tmp_path / "snap" / manifest.shards[-1].file
        last.write_bytes(last.read_bytes()[:40])
        closed = []
        real_close = MappedTableStore.close

        def counting_close(store):
            closed.append(store)
            real_close(store)

        monkeypatch.setattr(MappedTableStore, "close", counting_close)
        state = ("table", *REFERENCE_NAMES)
        before = [getattr(server, name) for name in state]
        # Under contracts the open itself re-hashes every shard and trips
        # on the truncation before the store exists; nothing to close.
        with pytest.raises(SnapshotIntegrityError, match="truncated|corrupt"):
            server.load_table(tmp_path / "snap")
        after = [getattr(server, name) for name in state]
        assert all(a is b for a, b in zip(after, before))
        assert len(closed) == (0 if contracts.ENABLED else 1)

    def test_non_snapshot_path_rejected(self, tmp_path, server):
        np.savez(tmp_path / "table.npz", entries=server.table.entries)
        (tmp_path / "empty").mkdir()
        for name in ("table.npz", "empty", "missing"):
            with pytest.raises(ValueError, match=name):
                server.load_table(tmp_path / name)

    def test_missing_reference_vector_rejected(self, tmp_path):
        model = build_model("resnet50", get_dataset("ucf101", 12), seed=0)
        server = CoCaServer(model, CoCaConfig())
        required = REFERENCE_NAMES[:2]  # the floor alone may be absent
        state = ("table", *REFERENCE_NAMES)
        before = [getattr(server, name) for name in state]
        for missing in required:
            kept = {name: getattr(server, name) for name in required if name != missing}
            write_snapshot(tmp_path / missing, server.table, references=kept)
            with pytest.raises(ValueError, match=missing):
                server.load_table(tmp_path / missing)
        after = [getattr(server, name) for name in state]
        assert all(a is b for a, b in zip(after, before))  # nothing mutated

    def test_absent_similarity_floor_defaults(self, tmp_path, server):
        num_layers = server.table.num_layers
        write_snapshot(
            tmp_path / "snap",
            server.table,
            references={
                "reference_hit_ratio": np.zeros(num_layers),
                "reference_exit_loss": np.zeros(num_layers),
            },
        )
        model = build_model("resnet50", get_dataset("ucf101", 12), seed=0)
        other = CoCaServer(model, CoCaConfig())
        other.load_table(tmp_path / "snap")
        assert np.array_equal(
            other.reference_similarity_floor, np.full(num_layers, -1.0)
        )

    def test_snapshot_with_hit_accuracy_still_loads(self, tmp_path, server):
        """Snapshots written before the hit-accuracy vector went carry
        four reference arrays; they load, and the fourth is ignored."""
        num_layers = server.table.num_layers
        old = {
            "reference_hit_ratio": np.linspace(0.0, 0.5, num_layers),
            "reference_hit_accuracy": np.full(num_layers, 0.9),
            "reference_exit_loss": np.linspace(0.1, 0.0, num_layers),
            "reference_similarity_floor": np.full(num_layers, 0.2),
        }
        write_snapshot(tmp_path / "snap", server.table, references=old)
        model = build_model("resnet50", get_dataset("ucf101", 12), seed=0)
        other = CoCaServer(model, CoCaConfig())
        other.load_table(tmp_path / "snap")
        for name in REFERENCE_NAMES:
            assert np.array_equal(getattr(other, name), old[name])
        assert not hasattr(other, "reference_hit_accuracy")

    def test_geometry_mismatch_rejected(self, tmp_path, server):
        write_snapshot(tmp_path / "snap", filled_table(4, 3, 5))
        with pytest.raises(ValueError, match="geometry"):
            server.load_table(tmp_path / "snap")

    def test_snapshot_epochs_advance_across_saves(self, tmp_path, server):
        first = server.save_snapshot(tmp_path / "snap")
        second = server.save_snapshot(tmp_path / "snap")
        assert second.epoch == first.epoch + 1


# ----------------------------------------------------------------------
# Snapshot contracts (REPRO_CONTRACTS=1)
# ----------------------------------------------------------------------


class TestSnapshotContracts:
    def test_manifest_contract_passes_on_good_state(self):
        contracts.check_snapshot_manifest(
            layout_version=1,
            epoch=3,
            geometry=(4, 2, 8),
            expected_geometry=(4, 2, 8),
            checksums={"a": "00"},
            recomputed={"a": "00"},
            previous_epoch=2,
        )

    def test_manifest_contract_fires_on_checksum_mismatch(self):
        with pytest.raises(ContractViolation, match="checksum"):
            contracts.check_snapshot_manifest(
                layout_version=1,
                epoch=1,
                geometry=(4, 2, 8),
                expected_geometry=None,
                checksums={"a": "00"},
                recomputed={"a": "ff"},
            )

    def test_manifest_contract_fires_on_non_monotonic_epoch(self):
        with pytest.raises(ContractViolation, match="monotonic"):
            contracts.check_snapshot_manifest(
                layout_version=1,
                epoch=2,
                geometry=(4, 2, 8),
                expected_geometry=None,
                checksums={},
                recomputed={},
                previous_epoch=2,
            )

    def test_manifest_contract_fires_on_geometry_mismatch(self):
        with pytest.raises(ContractViolation, match="geometry"):
            contracts.check_snapshot_manifest(
                layout_version=1,
                epoch=1,
                geometry=(4, 2, 8),
                expected_geometry=(4, 3, 8),
                checksums={},
                recomputed={},
            )

    def test_delta_contract_passes_when_delta_covers_dirty(self):
        contracts.check_delta_apply(
            np.array([1, 5]),
            np.array([2]),
            np.array([5, 1]),
            np.array([2]),
            changed_entry_rows=np.array([5]),
            changed_freq_rows=np.array([2]),
        )

    def test_delta_contract_fires_when_shipment_misses_dirty_row(self):
        with pytest.raises(ContractViolation):
            contracts.check_delta_apply(
                np.array([1]),
                np.empty(0, dtype=np.int64),
                np.array([1, 5]),
                np.empty(0, dtype=np.int64),
            )

    def test_delta_contract_fires_when_changed_row_not_shipped(self):
        with pytest.raises(ContractViolation):
            contracts.check_delta_apply(
                np.array([1]),
                np.empty(0, dtype=np.int64),
                np.array([1]),
                np.empty(0, dtype=np.int64),
                changed_entry_rows=np.array([1, 7]),
            )

    def test_reader_invokes_manifest_contract_when_enabled(
        self, tmp_path, monkeypatch
    ):
        write_snapshot(tmp_path / "snap", filled_table())
        calls: list[str] = []
        real = contracts.check_snapshot_manifest
        monkeypatch.setattr(
            contracts,
            "check_snapshot_manifest",
            lambda **kw: (calls.append("hit"), real(**kw)),
        )
        with contracts.activated(False):  # force off (CI arms the env gate)
            MappedTableStore(tmp_path / "snap")
        assert calls == []  # gate off -> no contract work
        with contracts.activated():
            MappedTableStore(tmp_path / "snap")
        assert calls == ["hit"]

    def test_corrupt_snapshot_trips_contract_gate(self, tmp_path):
        manifest = write_snapshot(tmp_path / "snap", filled_table())
        shard_file = tmp_path / "snap" / manifest.shards[0].file
        raw = bytearray(shard_file.read_bytes())
        raw[-1] ^= 0xFF
        shard_file.write_bytes(bytes(raw))
        with contracts.activated():
            with pytest.raises(ContractViolation, match="checksum"):
                MappedTableStore(tmp_path / "snap")


# ----------------------------------------------------------------------
# CLI: repro store inspect / diff
# ----------------------------------------------------------------------


class TestStoreCli:
    def test_inspect_text_and_json(self, tmp_path, capsys):
        write_snapshot(tmp_path / "snap", filled_table(), epoch=4)
        assert cli_main(["store", "inspect", str(tmp_path / "snap")]) == 0
        out = capsys.readouterr().out
        assert "epoch 4" in out and "entries-00000.npy" in out
        code = cli_main(
            ["store", "inspect", str(tmp_path / "snap"), "--json", "--verify"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["epoch"] == 4
        assert payload["geometry"] == {"classes": 24, "layers": 10, "dim": 8}
        assert payload["verified"] is True
        assert payload["meta_arrays"] == ["class_freq", "filled"]

    def test_inspect_rejects_non_snapshot(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert cli_main(["store", "inspect", str(tmp_path / "empty")]) == 1
        assert "cannot open" in capsys.readouterr().err

    def test_diff_reports_changed_rows(self, tmp_path, capsys):
        base = filled_table()
        write_snapshot(tmp_path / "before", base, epoch=1)
        target = base.copy()
        target.entries[2, 0, :] = unit_rows((base.dim,), seed=8)
        target.class_freq[5] += 1.0
        write_snapshot(tmp_path / "after", target, epoch=2)
        code = cli_main([
            "store", "diff",
            str(tmp_path / "before"), str(tmp_path / "after"), "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entry_rows_changed"] == 1
        assert payload["freq_rows_changed"] == 1
        assert payload["delta_nbytes"] < payload["full_copy_nbytes"]

    def test_diff_rejects_geometry_mismatch(self, tmp_path, capsys):
        write_snapshot(tmp_path / "a", filled_table())
        write_snapshot(tmp_path / "b", filled_table(num_layers=3))
        code = cli_main(["store", "diff", str(tmp_path / "a"),
                         str(tmp_path / "b")])
        assert code == 2
        assert "geometry" in capsys.readouterr().err

    def test_diff_rejects_unreadable_snapshot(self, tmp_path, capsys):
        write_snapshot(tmp_path / "a", filled_table())
        (tmp_path / "b").mkdir()
        assert cli_main(["store", "diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
        assert "cannot diff" in capsys.readouterr().err


def test_full_rows_nbytes_formula():
    # float64 entries + bool fill + float64 Phi per row.
    assert full_rows_nbytes(3, 4, 5) == 3 * (4 * 5 * 8 + 4 + 8)


# ----------------------------------------------------------------------
# Concurrent readers
# ----------------------------------------------------------------------


def _serve_one(snapshot: str, options, vectors: np.ndarray):
    """One request through a shard worker of its own: its reply and the
    worker's diagnostics after it."""
    from repro.serve.worker import WorkerState, serve_requests, worker_info

    state = WorkerState(snapshot, options)
    try:
        [(ok, value, _)] = serve_requests(state, [vectors])
        if not ok:
            raise value
        return value, worker_info(state)
    finally:
        state.close()


class TestConcurrentReaders:
    """One snapshot, many simultaneous readers: results must be
    bit-identical and no reader may promote a mapped layer to an owned
    copy (the zero-copy guarantee serving workers rely on)."""

    C, L, D = 24, 10, 8

    def _snapshot(self, tmp_path) -> str:
        table = filled_table(self.C, self.L, self.D, seed=3)
        write_snapshot(tmp_path / "snap", table, epoch=2)
        return str(tmp_path / "snap")

    def _queries(self, snapshot: str, batch: int = 12) -> np.ndarray:
        """Half exact centroids (hits), half noise (deep walks)."""
        rng = np.random.default_rng(9)
        with MappedTableStore(snapshot) as store:
            vectors = rng.standard_normal((batch, self.L, self.D))
            classes = rng.integers(0, self.C, size=batch // 2)
            for layer in range(self.L):
                vectors[: batch // 2, layer, :] = store.layer_view(layer)[classes]
        return vectors / np.linalg.norm(vectors, axis=2, keepdims=True)

    def _walk_once(self, snapshot: str, vectors: np.ndarray):
        from repro.core.cache import LookupWorkspace
        from repro.core.probe import walk_cache_batch

        with MappedTableStore(snapshot) as store:
            cache = store.serving_cache()
            with LookupWorkspace() as workspace:
                walk = walk_cache_batch(cache, vectors, workspace)
                result = (
                    walk.predicted.copy(),
                    walk.hit_layer.copy(),
                    walk.hit_score.copy(),
                )
                # Probing never promoted a mapped layer.
                assert cache.view_backed_layers() == cache.active_layers
        return result

    @staticmethod
    def _assert_same(a, b) -> None:
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
        assert np.array_equal(a[2], b[2], equal_nan=True)

    def test_threaded_readers_see_bit_identical_results(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        snapshot = self._snapshot(tmp_path)
        vectors = self._queries(snapshot)
        reference = self._walk_once(snapshot, vectors)
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(self._walk_once, snapshot, vectors)
                for _ in range(8)
            ]
            for future in futures:
                self._assert_same(reference, future.result())

    def test_process_readers_see_bit_identical_results(self, tmp_path):
        from concurrent.futures import ProcessPoolExecutor

        from repro.serve.worker import WorkerOptions

        snapshot = self._snapshot(tmp_path)
        vectors = self._queries(snapshot)
        reference = self._walk_once(snapshot, vectors)
        # Snapshots carry no calibrated floors here, so workers serve the
        # same floor-free cache as the in-process reference.
        options = WorkerOptions()
        pools = [ProcessPoolExecutor(max_workers=1) for _ in range(2)]
        try:
            served = [
                pool.submit(_serve_one, snapshot, options, vectors).result()
                for pool in pools
            ]
        finally:
            for pool in pools:
                pool.shutdown(wait=True)
        replies, infos = zip(*served)
        assert len({info["pid"] for info in infos}) == 2
        for reply, info in zip(replies, infos):
            self._assert_same(
                reference, (reply.predicted, reply.hit_layer, reply.hit_score)
            )
            # Serving a request left every layer view-backed.
            assert info["view_backed_layers"] == info["active_layers"]
            assert info["requests_served"] == 1
            assert info["epoch"] == 2
