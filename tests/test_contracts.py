"""Tests for the ``REPRO_CONTRACTS``-gated runtime contract layer.

Every contract function must (a) pass on legitimate state and (b) raise
:class:`ContractViolation` on each violated invariant; the wiring tests
confirm the production call sites actually invoke the checks when the
gate is on and skip them when it is off.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from repro import contracts
from repro.contracts import ContractViolation
from repro.core.allocation import AllocationResult, aca_allocate
from repro.core.cache import SemanticCache
from repro.sim.clock import VirtualClock

REPO_ROOT = Path(__file__).resolve().parents[1]


def unit_rows(n: int, d: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


# ----------------------------------------------------------------------
# Gate mechanics
# ----------------------------------------------------------------------

def test_violation_is_assertion_error():
    assert issubclass(ContractViolation, AssertionError)


def test_set_enabled_returns_previous_and_activated_restores():
    before = contracts.enabled()
    with contracts.activated():
        assert contracts.enabled()
        with contracts.activated(False):
            assert not contracts.enabled()
        assert contracts.enabled()
    assert contracts.enabled() == before


def test_env_var_controls_default_gate():
    script = "import repro.contracts as c; print(c.ENABLED)"
    for value, expected in (("", "False"), ("0", "False"), ("1", "True")):
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"REPRO_CONTRACTS": value,
                 "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert result.stdout.strip() == expected, result.stderr


def test_require_raises_with_message():
    contracts.require(True, "fine")
    with pytest.raises(ContractViolation, match="broken thing"):
        contracts.require(False, "broken thing")


# ----------------------------------------------------------------------
# check_layer_entries
# ----------------------------------------------------------------------

def good_layer(n=4, d=8):
    ids = np.arange(n)
    stored = np.ascontiguousarray(unit_rows(n, d), dtype=np.float32)
    return ids, stored


def test_layer_entries_pass_on_good_state():
    ids, stored = good_layer()
    contracts.check_layer_entries(0, ids, stored, np.float32, 10)


def test_layer_entries_wrong_dtype_fires():
    ids, stored = good_layer()
    with pytest.raises(ContractViolation, match="dtype"):
        contracts.check_layer_entries(
            0, ids, stored.astype(np.float64), np.float32, 10
        )


def test_layer_entries_non_contiguous_fires():
    ids, stored = good_layer()
    with pytest.raises(ContractViolation, match="C-contiguous"):
        contracts.check_layer_entries(
            0, ids, np.asfortranarray(stored), np.float32, 10
        )


def test_layer_entries_duplicate_ids_fire():
    ids, stored = good_layer()
    with pytest.raises(ContractViolation, match="duplicate"):
        contracts.check_layer_entries(
            0, np.zeros_like(ids), stored, np.float32, 10
        )


def test_layer_entries_out_of_range_id_fires():
    ids, stored = good_layer()
    with pytest.raises(ContractViolation, match="out of"):
        contracts.check_layer_entries(0, ids + 100, stored, np.float32, 10)


def test_layer_entries_non_unit_norm_fires():
    ids, stored = good_layer()
    scaled = np.ascontiguousarray(2.0 * stored)
    with pytest.raises(ContractViolation, match="norm"):
        contracts.check_layer_entries(0, ids, scaled, np.float32, 10)


def test_layer_entries_row_count_mismatch_fires():
    ids, stored = good_layer()
    with pytest.raises(ContractViolation, match="ids vs"):
        contracts.check_layer_entries(0, ids[:-1], stored, np.float32, 10)


# ----------------------------------------------------------------------
# check_layer_pack
# ----------------------------------------------------------------------

def good_pack(layers=(0, 2, 3), n=4, d=8):
    """``check_layer_pack`` arguments for one read-only block over
    ``layers`` (floor of layer ``l`` is ``0.1 * l``)."""
    stored = {
        layer: np.ascontiguousarray(unit_rows(n, d, seed=layer)) for layer in layers
    }
    matrices = np.stack([stored[layer] for layer in layers])
    matrices.flags.writeable = False
    floors = np.array([[0.1 * layer] for layer in layers])
    block = (np.array(layers), matrices, floors)
    return [block], stored, lambda layer: 0.1 * layer


def test_layer_pack_passes_on_good_state():
    contracts.check_layer_pack(*good_pack())


def test_layer_pack_stale_block_row_fires():
    blocks, stored, floor_of = good_pack()
    stored[2] = np.ascontiguousarray(unit_rows(4, 8, seed=99))
    with pytest.raises(ContractViolation, match="block row 1 differs"):
        contracts.check_layer_pack(blocks, stored, floor_of)


def test_layer_pack_misaligned_floor_fires():
    blocks, stored, _ = good_pack()
    with pytest.raises(ContractViolation, match="floor"):
        contracts.check_layer_pack(blocks, stored, lambda layer: 0.5)
    layers, matrices, floors = blocks[0]
    with pytest.raises(ContractViolation, match="line up"):
        contracts.check_layer_pack(
            [(layers, matrices, floors[:-1])], stored, lambda layer: 0.1 * layer
        )


def test_layer_pack_writeable_block_fires():
    blocks, stored, floor_of = good_pack()
    layers, matrices, floors = blocks[0]
    with pytest.raises(ContractViolation, match="writeable"):
        contracts.check_layer_pack([(layers, matrices.copy(), floors)], stored, floor_of)


def test_layer_pack_unordered_layers_fire():
    blocks, stored, floor_of = good_pack()
    with pytest.raises(ContractViolation, match="follows"):
        contracts.check_layer_pack(blocks + blocks, stored, floor_of)


# ----------------------------------------------------------------------
# Allocation contracts
# ----------------------------------------------------------------------

def _allocation_inputs() -> dict:
    return dict(
        global_freq=np.array([5.0, 4.0, 3.0, 2.0, 1.0]),
        timestamps=np.zeros(5),
        hit_ratio=np.array([0.2, 0.4, 0.6, 0.8]),
        saved_time_ms=np.array([8.0, 6.0, 4.0, 2.0]),
        entry_sizes_bytes=np.array([4, 8, 16, 32]),
        budget_bytes=400,
        frames_per_round=300,
        allowed_layers=np.array([0, 2, 3]),
    )


def _check(result: AllocationResult, inputs: dict) -> None:
    eligible = np.zeros(4, dtype=bool)
    eligible[inputs["allowed_layers"]] = True
    contracts.check_allocation(
        result.layers,
        result.size_bytes,
        inputs["budget_bytes"],
        inputs["entry_sizes_bytes"],
        result.hotspot_classes,
        eligible,
    )


def test_allocation_passes_on_aca_result():
    inputs = _allocation_inputs()
    with contracts.activated():
        result = aca_allocate(**inputs)
    assert 2 in result.layers
    _check(result, inputs)


@pytest.mark.parametrize(
    ("tamper", "message"),
    [
        (lambda layers, size, n: (layers, size + 1), "size_bytes"),
        (lambda layers, size, n: (layers + [1], size + 8 * n), "allowed"),
        (lambda layers, size, n: (layers + [2], size + 16 * n), "twice"),
    ],
)
def test_allocation_tampered_result_fires(tamper, message):
    inputs = _allocation_inputs()
    result = aca_allocate(**inputs)
    assert 2 in result.layers
    layers, size = tamper(
        list(result.layers), result.size_bytes, result.hotspot_classes.size
    )
    tampered = AllocationResult(layers, result.hotspot_classes, size)
    with pytest.raises(ContractViolation, match=message):
        _check(tampered, inputs)


def test_allocation_over_budget_fires():
    inputs = _allocation_inputs()
    result = aca_allocate(**inputs)
    with pytest.raises(ContractViolation, match="exceeds budget"):
        _check(result, {**inputs, "budget_bytes": result.size_bytes - 1})


# ----------------------------------------------------------------------
# Merge contracts
# ----------------------------------------------------------------------

def test_merge_flat_indices_pass_and_fail():
    contracts.check_merge_flat_indices(np.array([], dtype=np.int64), 10)
    contracts.check_merge_flat_indices(np.array([0, 3, 9]), 10)
    with pytest.raises(ContractViolation, match="out of"):
        contracts.check_merge_flat_indices(np.array([0, 10]), 10)
    with pytest.raises(ContractViolation, match="duplicate"):
        contracts.check_merge_flat_indices(np.array([2, 2]), 10)


def test_merged_rows_normalized_pass_and_fail():
    table = unit_rows(6, 5)
    contracts.check_merged_rows_normalized(table, np.array([0, 3, 5]))
    contracts.check_merged_rows_normalized(table, np.array([], dtype=int))
    table[3] *= 1.5
    with pytest.raises(ContractViolation, match="norm"):
        contracts.check_merged_rows_normalized(table, np.array([3]))


# ----------------------------------------------------------------------
# Serving admission contracts
# ----------------------------------------------------------------------

def test_admission_invariants_pass_on_balanced_ledger():
    contracts.check_admission_invariants(
        queue_depth=0, queue_bound=4, submitted=0, in_flight=0, outcomes={}
    )
    contracts.check_admission_invariants(
        queue_depth=2,
        queue_bound=4,
        submitted=10,
        in_flight=1,
        outcomes={"success": 5, "timeout": 1, "shed": 1},
    )


def test_admission_sharded_ledger_uses_total_queued():
    # The bound check sees one lane's depth; conservation needs the sum
    # across every lane.
    contracts.check_admission_invariants(
        queue_depth=1,
        queue_bound=4,
        submitted=6,
        in_flight=2,
        outcomes={"success": 1},
        total_queued=3,
    )
    with pytest.raises(ContractViolation, match="conservation"):
        contracts.check_admission_invariants(
            queue_depth=1,
            queue_bound=4,
            submitted=6,
            in_flight=2,
            outcomes={"success": 1},
            total_queued=2,
        )
    with pytest.raises(ContractViolation, match="less than one queue"):
        contracts.check_admission_invariants(
            queue_depth=3,
            queue_bound=4,
            submitted=3,
            in_flight=0,
            outcomes={},
            total_queued=1,
        )


def test_admission_queue_bound_fires():
    with pytest.raises(ContractViolation, match="queue depth"):
        contracts.check_admission_invariants(
            queue_depth=5, queue_bound=4, submitted=5, in_flight=0, outcomes={}
        )
    with pytest.raises(ContractViolation, match="queue depth"):
        contracts.check_admission_invariants(
            queue_depth=-1, queue_bound=4, submitted=0, in_flight=1, outcomes={}
        )


def test_admission_unknown_outcome_fires():
    with pytest.raises(ContractViolation, match="unknown terminal"):
        contracts.check_admission_invariants(
            queue_depth=0,
            queue_bound=4,
            submitted=1,
            in_flight=0,
            outcomes={"dropped": 1},
        )


def test_admission_lost_response_fires():
    # 3 submitted but only 2 accounted for anywhere: one was lost.
    with pytest.raises(ContractViolation, match="conservation"):
        contracts.check_admission_invariants(
            queue_depth=0,
            queue_bound=4,
            submitted=3,
            in_flight=1,
            outcomes={"success": 1},
        )


def test_admission_double_resolution_fires():
    # More terminal outcomes than submissions: something resolved twice.
    with pytest.raises(ContractViolation, match="conservation"):
        contracts.check_admission_invariants(
            queue_depth=0,
            queue_bound=4,
            submitted=1,
            in_flight=0,
            outcomes={"success": 1, "timeout": 1},
        )


def test_admission_lanes_ledger_passes_and_fires():
    balanced = dict(
        queue_depth=2, queue_bound=4, submitted=9, in_flight=5,
        outcomes={"success": 2}, total_queued=2,
    )
    # Lane 0 serves a coalesced call of 4 with 2 waiting; lane 1 one.
    contracts.check_admission_invariants(**balanced, lanes=[(2, 4, True), (0, 1, True)])
    contracts.check_admission_invariants(
        **{**balanced, "submitted": 4, "in_flight": 0, "total_queued": 2},
        lanes=[(2, 0, True), (0, 0, False)],
    )
    with pytest.raises(ContractViolation, match="negative"):
        contracts.check_admission_invariants(**balanced, lanes=[(2, 6, True), (0, -1, True)])
    with pytest.raises(ContractViolation, match="free worker"):
        contracts.check_admission_invariants(**balanced, lanes=[(2, 4, False), (0, 1, True)])
    with pytest.raises(ContractViolation, match="in flight"):
        contracts.check_admission_invariants(**balanced, lanes=[(2, 3, True), (0, 1, True)])
    with pytest.raises(ContractViolation, match="queued requests"):
        contracts.check_admission_invariants(**balanced, lanes=[(1, 4, True), (0, 1, True)])
    with pytest.raises(ContractViolation, match="lane 1: queue depth"):
        contracts.check_admission_invariants(**balanced, lanes=[(2, 4, True), (5, 1, True)])


class _Reply(NamedTuple):
    predicted: np.ndarray
    hit_layer: np.ndarray
    hit_score: np.ndarray
    service_ms: float


def _reply(rows: int, service_ms: float) -> _Reply:
    return _Reply(
        np.zeros(rows, dtype=np.int64),
        np.full(rows, -1, dtype=np.int64),
        np.full(rows, np.nan),
        service_ms,
    )


def test_call_replies_pass_on_one_reply_per_request():
    replies = [_reply(1, 0.3), ValueError("does not fit"), _reply(64, 1.2), _reply(1, 0.1)]
    contracts.check_call_replies([1, 1, 64, 1], replies, busy_ms=1.6)
    contracts.check_call_replies([], [], busy_ms=0.0)


def test_tampered_call_replies_fire():
    replies = [_reply(1, 0.3), _reply(64, 1.2), _reply(1, 0.1)]
    rows = [1, 64, 1]
    with pytest.raises(ContractViolation, match="answer"):
        contracts.check_call_replies(rows, replies[:2], busy_ms=1.6)  # one dropped
    with pytest.raises(ContractViolation, match="answer"):
        contracts.check_call_replies(rows, replies + replies[:1], busy_ms=1.6)
    with pytest.raises(ContractViolation, match="predicted has shape"):
        # Two requests' replies swapped: rows no longer match one-to-one.
        contracts.check_call_replies(rows, [replies[1], replies[0], replies[2]], busy_ms=1.6)
    short = replies[1]._replace(hit_layer=replies[1].hit_layer[:63])
    with pytest.raises(ContractViolation, match="hit_layer has shape"):
        contracts.check_call_replies(rows, [replies[0], short, replies[2]], busy_ms=1.6)
    with pytest.raises(ContractViolation, match="service times"):
        # A shared service time counted for every member.
        shared = [r._replace(service_ms=1.6) for r in replies]
        contracts.check_call_replies(rows, shared, busy_ms=1.6)


def test_call_reply_hit_count_must_match_its_hit_layer():
    from repro.serve import WorkerReply

    hit_layer = np.array([2, -1, 0, -1])
    reply = WorkerReply(np.zeros(4, dtype=np.int64), hit_layer, np.zeros(4), 0.5, 0.1, 1, hits=2)
    contracts.check_call_replies([4], [reply], busy_ms=0.5)
    with pytest.raises(ContractViolation, match="hits is 3"):
        contracts.check_call_replies([4], [reply._replace(hits=3)], busy_ms=0.5)


def test_request_arena_passes_on_disjoint_live_reservations():
    contracts.check_request_arena([(0, 128), (128, 64), (256, 0)], 4096, idle=False)
    contracts.check_request_arena([(0, 4096)], 4096, idle=False)
    contracts.check_request_arena([], 4096, idle=True)


def test_tampered_request_arena_fires():
    with pytest.raises(ContractViolation, match="overlaps"):
        contracts.check_request_arena([(0, 128), (64, 64)], 4096, idle=False)
    with pytest.raises(ContractViolation, match="leaves the 4096-byte mapping"):
        contracts.check_request_arena([(4032, 128)], 4096, idle=False)
    with pytest.raises(ContractViolation, match="idle lane still holds 1"):
        contracts.check_request_arena([(0, 128)], 4096, idle=True)


# ----------------------------------------------------------------------
# Clock and workspace contracts
# ----------------------------------------------------------------------

def test_clock_monotonic_pass_and_fail():
    contracts.check_clock_monotonic(1.0, 1.0)
    contracts.check_clock_monotonic(1.0, 2.0)
    with pytest.raises(ContractViolation, match="backwards"):
        contracts.check_clock_monotonic(2.0, 1.0)


def test_distinct_views_pass_and_fail():
    pool = np.zeros(10)
    contracts.check_distinct_views(a=pool[:5], b=pool[5:])
    contracts.check_distinct_views(a=pool[:0], b=pool)  # empty skipped
    with pytest.raises(ContractViolation, match="alias"):
        contracts.check_distinct_views(a=pool[:6], b=pool[4:])
    # ``apart_from`` views may overlap one another, not the named views.
    other = np.zeros(10)
    contracts.check_distinct_views(a=pool[:5], apart_from={"b": other, "c": other[8:]})
    with pytest.raises(ContractViolation, match="'a' and 'c' alias"):
        contracts.check_distinct_views(a=pool[:5], apart_from={"b": other, "c": pool[4:]})


# ----------------------------------------------------------------------
# Call-site wiring
# ----------------------------------------------------------------------

def test_cache_calls_layer_contract_only_when_enabled(monkeypatch):
    calls: list[tuple] = []
    monkeypatch.setattr(
        contracts, "check_layer_entries",
        lambda *a, **k: calls.append(a),
    )
    cache = SemanticCache(num_classes=6, dtype=np.float32)
    with contracts.activated(False):
        cache.set_layer_entries(0, np.arange(3), unit_rows(3, 4))
    assert calls == []
    with contracts.activated():
        cache.set_layer_entries(1, np.arange(3), unit_rows(3, 4))
    assert len(calls) == 1


def test_cache_calls_pack_contract_only_when_enabled(monkeypatch):
    calls: list[tuple] = []
    monkeypatch.setattr(
        contracts, "check_layer_pack", lambda *a: calls.append(a)
    )
    cache = SemanticCache(num_classes=6, dtype=np.float32)
    for layer in range(3):
        cache.set_layer_entries(layer, np.arange(3), unit_rows(3, 4, seed=layer))
    with contracts.activated(False):
        cache.layer_pack()
    assert calls == []
    cache.set_similarity_floor(1, 0.2)  # drops the pack: the next call builds
    with contracts.activated():
        cache.layer_pack()
        cache.layer_pack()
    assert len(calls) == 1


def test_aca_calls_allocation_contract_only_when_enabled(monkeypatch):
    calls: list[tuple] = []
    monkeypatch.setattr(
        contracts, "check_allocation", lambda *a: calls.append(a)
    )
    with contracts.activated(False):
        aca_allocate(**_allocation_inputs())
    assert calls == []
    with contracts.activated():
        aca_allocate(**_allocation_inputs())
    assert len(calls) == 1


def test_worker_calls_reply_contract_only_when_enabled(monkeypatch, tmp_path):
    from repro.core.server import GlobalCacheTable
    from repro.serve import WorkerOptions, WorkerState, serve_requests, shutdown_worker
    from repro.store import write_snapshot

    calls: list[tuple] = []
    check = contracts.check_call_replies
    monkeypatch.setattr(
        contracts, "check_call_replies",
        lambda *a: (calls.append(a), check(*a)),
    )
    table = GlobalCacheTable(6, 3, 4)
    table.entries = unit_rows(6 * 3, 4).reshape(6, 3, 4)
    table.filled[:] = True
    write_snapshot(tmp_path / "snap", table, epoch=1)
    state = WorkerState(str(tmp_path / "snap"), WorkerOptions())
    try:
        chunks = [table.entries[[1]], table.entries[:, :, :3], table.entries[:4]]
        with contracts.activated(False):
            list(serve_requests(state, chunks))
        assert calls == []
        with contracts.activated():
            answers = list(serve_requests(state, chunks))
    finally:
        shutdown_worker(state)
    assert [ok for ok, _, _ in answers] == [True, False, True]
    [(rows, replies, busy_ms)] = calls
    assert rows == [1, 6, 4]
    assert [r for _, r, _ in answers] == replies
    assert busy_ms == pytest.approx(answers[2][1].behind_ms + answers[2][1].service_ms)
    # The last answer is due when the call's busy time is over.
    assert 1e3 * answers[2][2] == pytest.approx(busy_ms)


def test_walk_checks_its_kept_views_against_each_step(monkeypatch):
    """Armed, a walk checks its kept result and carry views against the
    ``sim``, ``upd`` and ``final`` of every block step it takes."""
    from repro.core.cache import PACK_BLOCK_LAYERS, LookupWorkspace
    from repro.core.probe import walk_cache_batch

    calls: list[tuple[set, set]] = []
    check = contracts.check_distinct_views
    monkeypatch.setattr(
        contracts, "check_distinct_views",
        lambda apart_from=None, **views: (
            calls.append((set(views), set(apart_from or {}))),
            check(apart_from, **views),
        ),
    )
    cache = SemanticCache(num_classes=6, theta=1e6, dtype=np.float32)
    layers = PACK_BLOCK_LAYERS + 2  # two blocks
    for layer in range(layers):
        cache.set_layer_entries(layer, np.arange(4), unit_rows(4, 5, seed=layer))
    vectors = unit_rows(3 * layers, 5).reshape(3, layers, 5)
    with LookupWorkspace() as workspace:
        with contracts.activated(False):
            walk_cache_batch(cache, vectors, workspace)
        assert calls == []
        with contracts.activated():
            walk_cache_batch(cache, vectors, workspace)
    kept = {"predicted", "hit_layer", "hit_score", "layers_probed", "row_off", "acc", "alpha"}
    assert calls.count((kept, {"sim", "upd", "final"})) == 2  # one per block


def test_clock_calls_monotonic_contract_only_when_enabled(monkeypatch):
    calls: list[tuple] = []
    monkeypatch.setattr(
        contracts, "check_clock_monotonic",
        lambda *a: calls.append(a),
    )
    clock = VirtualClock()
    with contracts.activated(False):
        clock.advance(5.0)
    assert calls == []
    with contracts.activated():
        clock.advance(5.0)
        clock.advance_to(20.0)
    assert len(calls) == 2


def test_legitimate_cache_use_passes_under_contracts():
    with contracts.activated():
        cache = SemanticCache(num_classes=8, dtype=np.float32)
        # Deliberately unnormalized input: set_layer_entries normalizes
        # on insertion, so the stored table must satisfy the contract.
        cache.set_layer_entries(0, np.arange(5), 3.0 * unit_rows(5, 6))


def test_clock_use_passes_under_contracts():
    with contracts.activated():
        clock = VirtualClock()
        clock.advance(1.5)
        clock.advance_to(10.0)
        clock.advance_to(4.0)  # past event: no-op, still monotone
        assert clock.now_ms == 10.0
