"""The Adaptive Cache Allocation (ACA) algorithm — Algorithm 1.

ACA allocates cache entries for one client in two stages:

1. **Hot-spot class selection** — every class gets a score combining its
   global frequency with the client's recency (Eq. 10):

       s[i] = Phi[i] * recency_base ** floor(tau[i] / F)

   Classes are taken in descending score order until their cumulative
   score reaches ``hotspot_mass`` (0.95) of the total.

2. **Greedy layer selection** — each cache layer's expected benefit
   combines its expected hit ratio ``R[j]`` with the compute time saved
   by a hit there, ``Upsilon[j]``; ACA repeatedly adds the layer with the
   largest remaining benefit under the hypothesis that a sample hitting
   at layer ``b`` would also hit at any later layer (Alg. 1 lines 11-21),
   stopping just before the allocated size would exceed the budget Pi.

   We implement the *expected-latency* reading of that greedy: the
   standalone hit-ratio curve ``R`` (monotone in depth) induces a
   distribution over each sample's shallowest hittable layer, a sample
   exits at its first *activated* hittable layer, and each step adds the
   affordable layer that lowers the expected inference time (compute +
   lookups) the most.  When layers happen to be picked in depth order
   this coincides exactly with the paper's ``R[j] -= R[b]`` discount
   rule; unlike the literal rule it does not double-discount deep
   backstop layers when a shallower layer is picked after a deeper one.

   How the greedy is evaluated: every activated layer holds the whole
   hot-spot set (the paper's client cache: one class set on a set of
   layers), so a layer's byte count is its entry size times the hot-spot
   count and every layer's lookup costs the same — one
   ``lookup_cost_ms`` call per allocation.  Each step then scores
   every affordable candidate ``j`` in one array pass over a
   ``(picks + 1, candidates)`` matrix whose columns are the layer sets
   ``picked + [j]`` in ascending layer order, accumulating lookups, hit
   mass and expected cost down each column.  Every column adds the same
   floats in the same order as a scalar loop over its sorted layers, so
   costs — and therefore picks — are exact, not just close.

   Tie rule: candidates are scanned in ascending layer order and one
   displaces the running best (initially the current cost) only when it
   is cheaper by more than ``1e-12``, so a near-tie goes to the shallower
   layer — this is not an ``argmin``.  The greedy stops when no
   affordable candidate beats the current cost by that margin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import contracts
from repro.models.profiles import LookupCostModel


@dataclass(frozen=True)
class AllocationResult:
    """Output of ACA for one client: the hot-spot classes on the picked
    layers (the indicator matrix X is ``hotspot_classes x layers``).

    Attributes:
        layers: the activated cache layers, in the greedy's pick order;
            each holds exactly ``hotspot_classes``.
        hotspot_classes: the stage-1 hot-spot class set, in score order.
        size_bytes: total size of the allocated entries.
        scores: the Eq. 10 class scores (diagnostics; ``None`` when the
            result was built without them).
    """

    layers: list[int]
    hotspot_classes: np.ndarray
    size_bytes: int
    scores: np.ndarray | None = field(repr=False, default=None)


def class_scores(
    global_freq: np.ndarray,
    timestamps: np.ndarray,
    frames_per_round: int,
    recency_base: float = 0.20,
    local_freq: np.ndarray | None = None,
    local_weight: float = 0.5,
) -> np.ndarray:
    """Eq. 10 hot-spot scores: frequency discounted by staleness.

    The frequency term blends the *global* class frequencies Phi with the
    requesting client's own recent distribution (the "current data class
    distribution" each client uploads at round start, Sec. IV-A/IV-B).
    Both are normalized before mixing so a class that dominates one
    client's stream stays cacheable even when globally rare — exactly the
    non-IID situation the personalized allocation exists for.
    """
    phi = np.asarray(global_freq, dtype=float)
    tau = np.asarray(timestamps, dtype=float)
    if phi.shape != tau.shape:
        raise ValueError(f"shape mismatch: freq {phi.shape}, tau {tau.shape}")
    if frames_per_round < 1:
        raise ValueError(f"frames_per_round must be >= 1, got {frames_per_round}")
    if not 0.0 < recency_base < 1.0:
        raise ValueError(f"recency_base must be in (0, 1), got {recency_base}")
    if not 0.0 <= local_weight <= 1.0:
        raise ValueError(f"local_weight must be in [0, 1], got {local_weight}")

    total = phi.sum()
    frequency = phi / total if total > 0 else phi
    if local_freq is not None:
        local = np.asarray(local_freq, dtype=float)
        if local.shape != phi.shape:
            raise ValueError(
                f"shape mismatch: local freq {local.shape}, global {phi.shape}"
            )
        local_total = local.sum()
        if local_total > 0:
            frequency = (
                1.0 - local_weight
            ) * frequency + local_weight * local / local_total
    staleness = np.floor(tau / frames_per_round)
    return frequency * np.power(recency_base, staleness)


def select_hotspot_classes(scores: np.ndarray, mass: float = 0.95) -> np.ndarray:
    """Stage 1: smallest score-ordered prefix covering ``mass`` of the total.

    With an all-zero score vector (cold start, nothing observed) every
    class is equally likely, so all classes are returned.
    """
    s = np.asarray(scores, dtype=float)
    if np.any(s < 0):
        raise ValueError("scores must be non-negative")
    if not 0.0 < mass <= 1.0:
        raise ValueError(f"mass must be in (0, 1], got {mass}")
    total = s.sum()
    if total <= 0:
        return np.arange(s.size)
    order = np.argsort(-s, kind="stable")
    cumulative = np.cumsum(s[order])
    cutoff = int(np.searchsorted(cumulative, mass * total, side="left"))
    return order[: cutoff + 1]


def aca_allocate(
    global_freq: np.ndarray,
    timestamps: np.ndarray,
    hit_ratio: np.ndarray,
    saved_time_ms: np.ndarray,
    entry_sizes_bytes: np.ndarray,
    budget_bytes: int,
    frames_per_round: int,
    hotspot_mass: float = 0.95,
    recency_base: float = 0.20,
    allowed_layers: np.ndarray | None = None,
    local_freq: np.ndarray | None = None,
    local_weight: float = 0.5,
    lookup_cost_ms: Callable[[int], float] | None = None,
) -> AllocationResult:
    """Run Algorithm 1 for one client.

    Args:
        global_freq: Phi, global per-class frequencies (server state).
        timestamps: tau^k, the client's per-class staleness vector.
        hit_ratio: R^k, expected marginal hit ratio per cache layer.
        saved_time_ms: Upsilon, compute time saved by a hit at each layer.
        entry_sizes_bytes: per-layer size of one cache entry (m[., j]).
        budget_bytes: the client's cache-size threshold Pi.
        frames_per_round: F, used by the recency discount.
        hotspot_mass: stage-1 cumulative score fraction (paper: 0.95).
        recency_base: Eq. 10 discount base (paper: 0.20).
        allowed_layers: optional subset of layer indices allocation may
            use; layers outside it are excluded up front.  This is how the
            server enforces the accuracy-loss constraint G <= Omega
            (layers whose early exits are too inaccurate are ineligible).
        local_freq: the client's own recent class distribution (uploaded
            with its status); blended into the Eq. 10 frequency term.
        local_weight: blend weight of the local distribution.
        lookup_cost_ms: per-layer lookup-cost function ``num_entries ->
            ms`` the expected-latency greedy optimizes against.  Servers
            pass their model profile's ``lookup_cost_ms`` so allocation
            uses the *actual* deployment cost; the default falls back to
            the generic :class:`~repro.models.profiles.LookupCostModel`
            calibration.

    Returns:
        An :class:`AllocationResult`; ``layers`` may be empty when even
        one layer of hot-spot entries exceeds the budget.
    """
    R = np.asarray(hit_ratio, dtype=float)
    upsilon = np.asarray(saved_time_ms, dtype=float)
    sizes = np.asarray(entry_sizes_bytes, dtype=float)
    num_layers = R.size
    if upsilon.shape != (num_layers,) or sizes.shape != (num_layers,):
        raise ValueError("hit_ratio, saved_time_ms, entry_sizes_bytes lengths differ")
    if not (np.isfinite(R).all() and np.isfinite(upsilon).all()):
        raise ValueError("hit_ratio and saved_time_ms must be finite")
    if not np.isfinite(sizes).all():
        raise ValueError("entry_sizes_bytes must be finite")
    if budget_bytes <= 0:
        raise ValueError(f"budget_bytes must be positive, got {budget_bytes}")

    scores = class_scores(
        global_freq,
        timestamps,
        frames_per_round,
        recency_base,
        local_freq=local_freq,
        local_weight=local_weight,
    )
    hotspot = select_hotspot_classes(scores, hotspot_mass)

    if allowed_layers is None:
        eligible = np.ones(num_layers, dtype=bool)
    else:
        allowed = np.asarray(allowed_layers, dtype=np.int64)
        if np.any((allowed < 0) | (allowed >= num_layers)):
            raise ValueError("allowed_layers contains out-of-range indices")
        eligible = np.zeros(num_layers, dtype=bool)
        eligible[allowed] = True
    # Without a hot-spot class there is nothing to fill a layer with.
    open_layers = eligible & (hotspot.size > 0)

    # Hits propagate deeper, so the standalone curve must be monotone;
    # measurement noise is smoothed out by a running maximum.
    R_monotone = np.maximum.accumulate(np.clip(R, 0.0, 1.0))
    # Compute-cost prefix: executing blocks 0..j (saved_time[j] is the
    # compute skipped by exiting at j, so prefix = total - saved).
    total_compute = float(upsilon.max()) if upsilon.size else 0.0
    # Upsilon[0] is the largest saving; the true total compute also
    # includes the blocks before layer 0, but constants cancel in the
    # greedy comparison, so prefix_cost[j] = -upsilon[j] works up to a
    # shared offset, and exiting at j costs total_compute - upsilon[j].
    exit_cost = total_compute - upsilon

    # Every layer holds the hot-spot set: one lookup cost for all of them.
    lookup = np.zeros(num_layers)
    if open_layers.any():
        lookup_cost = LookupCostModel() if lookup_cost_ms is None else lookup_cost_ms
        lookup[open_layers] = lookup_cost(hotspot.size)
    added = sizes.astype(np.int64) * hotspot.size

    layers: list[int] = []
    picked = np.zeros(num_layers, dtype=bool)
    used_bytes = 0
    current_cost = total_compute  # nothing cached: full execution
    while True:
        candidates = (open_layers & (used_bytes + added <= budget_bytes)).nonzero()[0]
        if candidates.size == 0:
            break
        costs = _expected_costs(
            picked.nonzero()[0], candidates, R_monotone, exit_cost, lookup,
            total_compute,
        )
        # Ascending-layer scan: a candidate displaces the running best
        # only when cheaper by more than 1e-12, so near-ties go to the
        # shallower layer (this is not argmin).  Only candidates that
        # beat the current cost by the margin can win.
        best = -1
        best_cost = current_cost
        for i in (costs < current_cost - 1e-12).nonzero()[0].tolist():
            if costs[i] < best_cost - 1e-12:
                best, best_cost = i, costs[i]
        if best < 0:
            break
        layer = int(candidates[best])
        layers.append(layer)
        used_bytes += int(added[layer])
        current_cost = best_cost
        open_layers[layer] = False
        picked[layer] = True

    if contracts.ENABLED:
        contracts.check_allocation(
            layers, used_bytes, budget_bytes, sizes, hotspot, eligible
        )
    return AllocationResult(
        layers=layers,
        hotspot_classes=hotspot,
        size_bytes=used_bytes,
        scores=scores,
    )


def _expected_costs(
    picked: np.ndarray,
    candidates: np.ndarray,
    reach: np.ndarray,
    exit_cost: np.ndarray,
    lookup: np.ndarray,
    total_compute: float,
) -> np.ndarray:
    """Expected per-inference cost (up to a constant) of ``picked + [j]``
    for every candidate layer ``j``.

    Column ``c`` of the ``(picks + 1, candidates)`` layer matrix is the
    ascending layer set ``picked`` with ``candidates[c]`` inserted.
    Walking a column top to bottom, a sample whose shallowest hittable
    layer lies between the previous and the current activated layer (hit
    mass ``reach[layer] - reach[prev]``) exits at the current one, paying
    its compute prefix plus every lookup so far; samples past the deepest
    activated layer run the full model after all the lookups.  Every
    running sum is an accumulate down the columns, so each candidate's
    cost adds the same floats in the same order as a scalar loop over its
    sorted layers would.
    """
    layers = np.empty((picked.size + 1, candidates.size), dtype=np.intp)
    layers[:-1] = picked[:, None]
    layers[-1] = candidates
    layers.sort(axis=0)
    lookups = lookup[layers]
    np.add.accumulate(lookups, axis=0, out=lookups)
    hit = reach[layers]
    mass = hit.copy()
    mass[1:] -= hit[:-1]
    terms = exit_cost[layers]
    terms += lookups
    terms *= mass
    np.add.accumulate(terms, axis=0, out=terms)
    costs: np.ndarray = terms[-1] + (1.0 - hit[-1]) * (total_compute + lookups[-1])
    return costs
