"""Debug-gated runtime contracts for invariants static analysis can't see.

``repro lint`` proves *syntactic* discipline (no stray allocations, no
implicit dtypes); this module asserts the *semantic* invariants those
conventions exist to protect, at the moments they can actually break:

* cache layer storage after :meth:`SemanticCache.set_layer_entries` —
  C-contiguous, cache-dtype, unit-norm rows, unique in-range class ids;
* the stacked walk plan built by :meth:`SemanticCache.layer_pack` —
  every block row equals its source layer matrix, floors line up with
  layers, nothing is writeable;
* an ACA allocation — allowed layers, each picked once, and its byte
  count;
* the Eq. 4 merge's flat ``(class, layer)`` indices — in bounds and
  unique — and post-merge row normalization;
* :class:`VirtualClock` monotonicity (virtual time never runs backwards,
  not even by float error);
* workspace buffer aliasing — the views a probe kernel writes through
  ``out=`` must be pairwise disjoint, or results are silently corrupted;
* snapshot-store integrity — manifest checksums match the stored bytes,
  epochs stay monotonic, geometry matches the model, and a shipped
  :class:`~repro.store.delta.SnapshotDelta` covers exactly the dirty
  row set (a changed row outside the delta is a silent divergence);
* the serving front-end's admission ledger, per lane and in total, and
  each coalesced worker call — one reply per request, each of its
  request's row count, their service times tiling the call's busy time
  — and each process lane's request arena: live reservations disjoint,
  inside the mapping, and none left once the lane is idle.

Contracts are **off by default** (every check site is one truthy test of
:data:`ENABLED`).  Set ``REPRO_CONTRACTS=1`` in the environment before
interpreter start — CI runs the tier-1 suite that way — or toggle
programmatically with :func:`set_enabled` (tests use the
:func:`activated` context manager).  A violated contract raises
:class:`ContractViolation`, an ``AssertionError`` subclass, so contract
failures are loud in pytest and clearly not user errors.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "ContractViolation",
    "ENABLED",
    "activated",
    "check_admission_invariants",
    "check_allocation",
    "check_call_replies",
    "check_clock_monotonic",
    "check_delta_apply",
    "check_distinct_views",
    "check_layer_entries",
    "check_layer_pack",
    "check_merge_flat_indices",
    "check_merged_rows_normalized",
    "check_request_arena",
    "check_snapshot_manifest",
    "enabled",
    "require",
    "set_enabled",
]


class ContractViolation(AssertionError):
    """A runtime invariant the codebase promises was broken."""


def _env_enabled() -> bool:
    return os.environ.get("REPRO_CONTRACTS", "") not in ("", "0")


#: Module-level gate read by every call site; repointed by set_enabled().
ENABLED: bool = _env_enabled()


def enabled() -> bool:
    """Whether contract checks currently run."""
    return ENABLED


def set_enabled(flag: bool) -> bool:
    """Set the gate programmatically; returns the previous value."""
    global ENABLED
    previous = ENABLED
    ENABLED = bool(flag)
    return previous


@contextmanager
def activated(flag: bool = True) -> Iterator[None]:
    """Temporarily force contracts on (or off) — the test-suite hook."""
    previous = set_enabled(flag)
    try:
        yield
    finally:
        set_enabled(previous)


def require(condition: bool, message: str) -> None:
    """Raise :class:`ContractViolation` unless ``condition`` holds."""
    if not condition:
        raise ContractViolation(message)


# ----------------------------------------------------------------------
# Cache table contracts
# ----------------------------------------------------------------------

#: Unit-norm slack: float32 storage carries ~1e-7 relative rounding per
#: element; 1e-4 on the norm is orders of magnitude above that while
#: still catching any genuinely unnormalized row.
_NORM_ATOL = 1e-4


def check_layer_entries(
    layer: int,
    ids: np.ndarray,
    stored: np.ndarray,
    expected_dtype: np.dtype,
    num_classes: int,
) -> None:
    """Invariants of one installed cache layer's storage."""
    require(
        ids.ndim == 1 and stored.ndim == 2,
        f"layer {layer}: ids must be 1-D and centroids 2-D, got "
        f"{ids.shape} / {stored.shape}",
    )
    require(
        ids.shape[0] == stored.shape[0],
        f"layer {layer}: {ids.shape[0]} ids vs {stored.shape[0]} centroid rows",
    )
    require(
        stored.dtype == expected_dtype,
        f"layer {layer}: centroids stored as {stored.dtype}, cache dtype "
        f"is {expected_dtype} (implicit upcast destroys dtype parity)",
    )
    require(
        stored.flags.c_contiguous,
        f"layer {layer}: centroid matrix is not C-contiguous (the probe "
        "kernel's flat-index paths assume row-major storage)",
    )
    require(
        np.unique(ids).size == ids.size,
        f"layer {layer}: duplicate class ids",
    )
    if ids.size:
        require(
            bool((ids >= 0).all() and (ids < num_classes).all()),
            f"layer {layer}: class id out of [0, {num_classes})",
        )
        norms = np.linalg.norm(stored.astype(np.float64, copy=False), axis=1)
        worst = float(np.abs(norms - 1.0).max())
        require(
            worst <= _NORM_ATOL,
            f"layer {layer}: centroid row norm off unit by {worst:.2e} "
            f"(> {_NORM_ATOL:.0e})",
        )


def check_layer_pack(
    blocks: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
    stored: Mapping[int, np.ndarray],
    floor_of: Callable[[int], float],
) -> None:
    """Invariants of a cache's complete stacked walk plan.

    The stacked kernel reads ``blocks`` — ``(layers, matrices, floors)``
    triples — instead of the per-layer storage ``stored`` (layer ->
    matrix), and it is the only kernel a walk over a complete pack runs,
    so the two must say the same thing: block row ``g`` is layer
    ``layers[g]``'s matrix bit for bit, ``floors[g]`` is that layer's
    floor in the matrix dtype, layers ascend across blocks, and a block
    is never writeable (it may alias mapped snapshot bytes).
    """
    previous = -1
    for layers, matrices, floors in blocks:
        require(
            matrices.ndim == 3 and matrices.shape[0] == layers.size,
            f"layer pack: block of {layers.size} layers holds matrices of "
            f"shape {matrices.shape}",
        )
        require(
            not matrices.flags.writeable,
            f"layer pack: block of layers {layers.tolist()} is writeable",
        )
        require(
            floors.shape == (layers.size, 1) and floors.dtype == matrices.dtype,
            f"layer pack: floors {floors.shape} {floors.dtype} do not line "
            f"up with {layers.size} layers of {matrices.dtype}",
        )
        for g, layer in enumerate(layers.tolist()):
            require(
                layer > previous,
                f"layer pack: layer {layer} follows layer {previous}",
            )
            previous = layer
            require(
                np.array_equal(matrices[g], stored[layer]),
                f"layer pack: block row {g} differs from layer {layer}'s "
                "stored matrix",
            )
            require(
                floors[g, 0] == floors.dtype.type(floor_of(layer)),
                f"layer pack: floor {floors[g, 0]} is not layer {layer}'s "
                f"floor {floor_of(layer)}",
            )


# ----------------------------------------------------------------------
# ACA allocation contracts
# ----------------------------------------------------------------------

def check_allocation(
    layers: Sequence[int],
    size_bytes: int,
    budget_bytes: int,
    entry_sizes: np.ndarray,
    hotspot: np.ndarray,
    eligible: np.ndarray,
) -> None:
    """Invariants of one ACA result.

    Every layer is eligible (``eligible`` is the boolean per-layer mask
    of ``allowed_layers``) and picked once, and ``size_bytes`` is the
    byte count of the hot-spot classes on exactly those layers and fits
    the budget.
    """
    for layer in layers:
        require(
            0 <= layer < eligible.size and bool(eligible[layer]),
            f"allocation: layer {layer} is not an allowed layer",
        )
    require(
        len(set(layers)) == len(layers),
        f"allocation: layers {list(layers)} pick a layer twice",
    )
    total = hotspot.size * sum(int(entry_sizes[layer]) for layer in layers)
    require(
        size_bytes == total,
        f"allocation: size_bytes {size_bytes} != {total} bytes of entries",
    )
    require(
        size_bytes <= budget_bytes,
        f"allocation: size_bytes {size_bytes} exceeds budget {budget_bytes}",
    )


# ----------------------------------------------------------------------
# Eq. 4 merge contracts
# ----------------------------------------------------------------------

def check_merge_flat_indices(flat: np.ndarray, num_slots: int) -> None:
    """Flat ``(class, layer)`` scatter indices: in bounds and unique."""
    if flat.size == 0:
        return
    require(
        bool((flat >= 0).all() and (flat < num_slots).all()),
        f"merge flat index out of [0, {num_slots})",
    )
    require(
        np.unique(flat).size == flat.size,
        "duplicate flat (class, layer) keys reached the merge scatter",
    )


def check_merged_rows_normalized(
    entries_flat: np.ndarray, rows: np.ndarray
) -> None:
    """Rows touched by an Eq. 4 merge must come out unit-norm."""
    if rows.size == 0:
        return
    norms = np.linalg.norm(entries_flat[rows], axis=1)
    worst = float(np.abs(norms - 1.0).max())
    require(
        worst <= _NORM_ATOL,
        f"merged table row norm off unit by {worst:.2e} (> {_NORM_ATOL:.0e})",
    )


# ----------------------------------------------------------------------
# Snapshot-store contracts
# ----------------------------------------------------------------------

def check_snapshot_manifest(
    layout_version: int,
    epoch: int,
    geometry: tuple[int, int, int],
    expected_geometry: tuple[int, int, int] | None,
    checksums: dict[str, str],
    recomputed: dict[str, str],
    previous_epoch: int | None = None,
) -> None:
    """Invariants of a snapshot manifest against its stored arrays.

    Takes plain data (no store types) so this module stays dependency
    free: the caller supplies the manifest's recorded checksums and the
    freshly recomputed ones, its geometry, and — at a load site — the
    model geometry the snapshot must match.

    Checks: a supported layout version, a non-negative epoch that is
    strictly larger than ``previous_epoch`` when rewriting an existing
    snapshot (epoch monotonicity), geometry agreement with the model,
    and a recomputed checksum equal to the recorded one per array.
    """
    require(
        layout_version >= 1,
        f"snapshot layout version must be >= 1, got {layout_version}",
    )
    require(epoch >= 0, f"snapshot epoch must be >= 0, got {epoch}")
    if previous_epoch is not None:
        require(
            epoch > previous_epoch,
            f"snapshot epoch is not monotonic: {previous_epoch} -> {epoch}",
        )
    if expected_geometry is not None:
        require(
            tuple(geometry) == tuple(expected_geometry),
            f"snapshot geometry {tuple(geometry)} does not match the "
            f"model geometry {tuple(expected_geometry)}",
        )
    for name, recorded in checksums.items():
        actual = recomputed.get(name)
        require(
            actual is not None,
            f"snapshot array {name} has no recomputed checksum",
        )
        require(
            actual == recorded,
            f"snapshot array {name} fails its checksum: manifest records "
            f"{recorded[:12]}, stored bytes hash to {str(actual)[:12]}",
        )


def check_delta_apply(
    delta_entry_rows: np.ndarray,
    delta_freq_rows: np.ndarray,
    dirty_entry_rows: np.ndarray,
    dirty_freq_rows: np.ndarray,
    changed_entry_rows: np.ndarray | None = None,
    changed_freq_rows: np.ndarray | None = None,
) -> None:
    """A shipped snapshot delta must cover exactly the dirty row set.

    ``dirty_*`` are the rows the shard's epoch bookkeeping marks dirty
    since the receiver's base epoch; ``changed_*`` (optional, computed
    by the caller by value comparison *before* applying) are the rows
    where replica and shard actually differed.  The delta's rows must
    equal the dirty set, and every actually-changed row must be shipped
    — a changed row outside the delta means the epoch tracking missed a
    write and the replica would silently diverge.
    """
    require(
        np.array_equal(np.sort(delta_entry_rows), np.sort(dirty_entry_rows)),
        f"delta ships {delta_entry_rows.size} entry rows but the dirty "
        f"set has {dirty_entry_rows.size} (sets differ)",
    )
    require(
        np.array_equal(np.sort(delta_freq_rows), np.sort(dirty_freq_rows)),
        f"delta ships {delta_freq_rows.size} freq rows but the dirty "
        f"set has {dirty_freq_rows.size} (sets differ)",
    )
    if changed_entry_rows is not None and changed_entry_rows.size:
        missed = np.setdiff1d(changed_entry_rows, delta_entry_rows)
        require(
            missed.size == 0,
            f"delta misses {missed.size} entry rows that actually "
            f"changed (first: {missed[:5].tolist() if missed.size else []})",
        )
    if changed_freq_rows is not None and changed_freq_rows.size:
        missed = np.setdiff1d(changed_freq_rows, delta_freq_rows)
        require(
            missed.size == 0,
            f"delta misses {missed.size} freq rows that actually changed "
            f"(first: {missed[:5].tolist() if missed.size else []})",
        )


# ----------------------------------------------------------------------
# Serving admission contracts
# ----------------------------------------------------------------------

def check_admission_invariants(
    queue_depth: int,
    queue_bound: int,
    submitted: int,
    in_flight: int,
    outcomes: dict[str, int],
    total_queued: int | None = None,
    lanes: Sequence[tuple[int, int, bool]] = (),
) -> None:
    """Bookkeeping invariants of the serving front-end's admission control.

    Called by :class:`~repro.serve.frontend.ServeFrontend` at every
    admission and terminal event (under ``REPRO_CONTRACTS=1``):

    * the admission queue never holds more than its configured bound,
      and its depth is never negative;
    * terminal outcomes are exactly the three the API promises
      (``success`` / ``timeout`` / ``shed``), each with a non-negative
      count;
    * conservation: every submitted request is either still queued,
      in service, or resolved with **exactly one** terminal outcome —
      a lost response or a double-resolved request breaks the equality
      in one direction or the other.

    ``queue_depth``/``queue_bound`` describe the *one* queue an event
    touched; the ledger totals (``submitted``, ``in_flight``, and the
    conservation law) span the whole front-end, so a sharded caller
    must pass the queue depth summed over every shard as
    ``total_queued`` (defaults to ``queue_depth`` for the single-queue
    case).

    ``lanes`` — ``(queued, in_flight, busy)`` of every lane, where a lane
    hands all of its waiting requests to its worker as one call whenever
    the worker is free — adds the per-lane ledger: each lane's queue
    within its bound and its in-flight count non-negative, the lanes
    summing to the totals, and no request waiting on a lane whose worker
    is free (a free worker takes everything waiting at once).
    """
    for shard, (queued_here, in_flight_here, busy) in enumerate(lanes):
        require(
            0 <= queued_here <= queue_bound,
            f"lane {shard}: queue depth {queued_here} outside [0, {queue_bound}]",
        )
        require(
            in_flight_here >= 0,
            f"lane {shard}: in-flight count is negative: {in_flight_here}",
        )
        require(
            busy or queued_here == 0,
            f"lane {shard}: {queued_here} request(s) wait on a free worker",
        )
    if lanes:
        require(
            sum(lane[1] for lane in lanes) == in_flight,
            f"lanes hold {sum(lane[1] for lane in lanes)} requests in flight, "
            f"the ledger {in_flight}",
        )
        require(
            total_queued is None or sum(lane[0] for lane in lanes) == total_queued,
            f"lanes hold {sum(lane[0] for lane in lanes)} queued requests, "
            f"the ledger {total_queued}",
        )
    require(
        0 <= queue_depth <= queue_bound,
        f"admission queue depth {queue_depth} outside [0, {queue_bound}]",
    )
    unknown = set(outcomes) - {"success", "timeout", "shed"}
    require(
        not unknown,
        f"unknown terminal outcome(s) {sorted(unknown)}; a request must "
        "resolve as success, timeout, or shed",
    )
    require(
        all(count >= 0 for count in outcomes.values()),
        f"negative terminal outcome count in {outcomes}",
    )
    require(in_flight >= 0, f"in-flight count is negative: {in_flight}")
    queued = queue_depth if total_queued is None else total_queued
    require(
        queued >= queue_depth,
        f"total queued {queued} is less than one queue's depth {queue_depth}",
    )
    resolved = sum(outcomes.values())
    require(
        submitted == resolved + queued + in_flight,
        f"admission conservation broken: {submitted} submitted != "
        f"{resolved} resolved + {queued} queued + "
        f"{in_flight} in flight (a request was lost or resolved twice)",
    )


def check_call_replies(
    rows: Sequence[int], replies: Sequence[object], busy_ms: float
) -> None:
    """A coalesced worker call answered each of its requests exactly once.

    ``rows`` are the requests' row counts in call order; ``replies`` the
    call's answers in the same order — a reply with ``predicted`` /
    ``hit_layer`` / ``hit_score`` arrays, a ``hits`` count and a
    ``service_ms``, or the exception that refused its request.  One
    answer per request, every reply's arrays of its own request's row
    count and its ``hits`` (where it has one) the count of its
    ``hit_layer >= 0``, and the replies' ``service_ms`` summing to
    ``busy_ms``, the call's measured busy time (each request's service
    is its own share, none shared or lost).
    """
    require(
        len(replies) == len(rows),
        f"a call of {len(rows)} request(s) got {len(replies)} answer(s)",
    )
    total_ms = 0.0
    for index, (count, reply) in enumerate(zip(rows, replies)):
        if isinstance(reply, BaseException):
            continue
        for name in ("predicted", "hit_layer", "hit_score"):
            got = getattr(reply, name).shape
            require(
                got == (count,),
                f"reply {index}: {name} has shape {got}, its request {count} row(s)",
            )
        counted = getattr(reply, "hits", None)
        if counted is not None:
            hits = int(np.count_nonzero(getattr(reply, "hit_layer") >= 0))
            require(
                counted == hits,
                f"reply {index}: hits is {counted!r}, its hit_layer has {hits}",
            )
        total_ms += float(getattr(reply, "service_ms"))
    require(
        abs(total_ms - busy_ms) <= 1e-6 * max(1.0, abs(busy_ms)),
        f"replies' service times sum to {total_ms!r} ms, the call was busy "
        f"{busy_ms!r} ms",
    )


def check_request_arena(
    reservations: Sequence[tuple[int, int]], size: int, idle: bool
) -> None:
    """A process lane's request arena lends each live call its own bytes.

    ``reservations`` are the ``(offset, bytes)`` ranges of the calls
    sent and not yet answered, oldest first; ``size`` the mapping's
    length; ``idle`` whether the lane owes no answer at all.  Every
    range lies inside the mapping, no two overlap (a later call's copy
    would overwrite tensors the worker has yet to walk), and an idle
    lane holds none (the pointer could never restart).
    """
    end = 0
    for offset, length in sorted(reservations):
        require(
            offset >= end,
            f"arena reservation at {offset} overlaps the one ending at {end}",
        )
        require(
            length >= 0 and offset + length <= size,
            f"arena reservation [{offset}, {offset + length}) leaves the "
            f"{size}-byte mapping",
        )
        end = offset + length
    require(
        not (idle and reservations),
        f"an idle lane still holds {len(reservations)} arena reservation(s)",
    )


# ----------------------------------------------------------------------
# Clock and workspace contracts
# ----------------------------------------------------------------------

def check_clock_monotonic(previous_ms: float, now_ms: float) -> None:
    """Virtual time may never decrease."""
    require(
        now_ms >= previous_ms,
        f"virtual clock ran backwards: {previous_ms} -> {now_ms}",
    )


def check_distinct_views(
    apart_from: Mapping[str, np.ndarray] | None = None, **views: np.ndarray
) -> None:
    """Named workspace views must be pairwise non-overlapping, and each
    must overlap none of ``apart_from`` (views that may overlap one
    another, such as a buffer and its last row).

    Two pool views sharing memory means one ``out=`` write corrupts
    another buffer mid-kernel — the exact failure mode the named-pool
    convention exists to prevent.
    """
    items = list(views.items())
    others = list((apart_from or {}).items())
    for i, (name_a, a) in enumerate(items):
        for name_b, b in items[i + 1:] + others:
            if a.size == 0 or b.size == 0:
                continue
            require(
                not np.shares_memory(a, b),
                f"workspace views {name_a!r} and {name_b!r} alias the "
                "same pool memory",
            )
