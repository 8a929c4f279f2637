"""Cache-instrumented inference over the simulated model.

The engine executes the paper's client-side inference loop: run blocks in
order; after each block whose cache layer is activated, extract the
semantic vector, probe the cache (charging the lookup cost), and terminate
early on a hit.  On a miss everywhere, run to the end and use the model
classifier.  All latency is the sum of executed block compute times plus
the lookup costs of the probed layers — exactly Eq. 7's cost structure.
Lookup costs come from the model profile's
:class:`~repro.models.profiles.LookupCostModel` — the same definition
ACA optimizes against during allocation.

:class:`BatchedInferenceEngine` is the one engine: a protocol round
hands it a whole round of frames, a baseline with per-frame state a
window of frames its cache holds still for (a row slice of the round's
batch).  Per activated layer it scores every still-unresolved sample at
once with early-exit masking, through the shared cache walk
(:func:`~repro.core.probe.walk_cache_batch`).  Its input is a
:class:`~repro.models.feature.SampleBatch`, its output a
:class:`BatchOutcomes` structure of arrays, and
:meth:`BatchOutcomes.records` copies that into the metrics'
:class:`~repro.sim.metrics.RecordBatch`: no per-sample object exists at
any step.  Its one-sample-at-a-time oracle is in ``tests/oracle.py``.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from repro.core.cache import LayerPack, LookupWorkspace, SemanticCache
from repro.core.probe import walk_cache_batch
from repro.models.base import SimulatedModel
from repro.models.feature import SampleBatch
from repro.sim.metrics import RecordBatch


class BatchOutcomes(NamedTuple):
    """Structure-of-arrays outcomes of one batched inference pass.

    One entry per sample, for consumers that post-process outcomes with
    vectorized arithmetic (the round pipeline): no per-sample objects,
    no per-layer probe records.

    Ownership: arrays returned by
    :meth:`BatchedInferenceEngine.infer_batch_soa` are views into the
    engine's :class:`~repro.core.cache.LookupWorkspace` pools — valid
    until the next ``infer_batch_soa`` call on any
    engine sharing that workspace.  The round pipeline consumes each
    batch's outcomes before the next inference call by construction;
    ``.copy()`` individual arrays to retain them longer.

    Attributes:
        predicted_class: ``(B,)`` int — class returned per sample.
        hit_layer: ``(B,)`` int — cache layer that hit, ``-1`` on full
            execution.
        latency_ms: ``(B,)`` float — compute + lookup latency per sample.
        hit_score: ``(B,)`` float — Eq. 2 score at the hit layer,
            ``np.nan`` for samples that missed everywhere.
        top2_prob_gap: ``(B,)`` float — top-2 softmax gap of the full
            model, ``np.nan`` unless the model ran to completion.
    """

    predicted_class: np.ndarray
    hit_layer: np.ndarray
    latency_ms: np.ndarray
    hit_score: np.ndarray
    top2_prob_gap: np.ndarray

    @property
    def hit(self) -> np.ndarray:
        """Boolean hit mask, ``(B,)``."""
        return self.hit_layer >= 0

    def records(self, true_classes: np.ndarray, client_id: int = 0) -> RecordBatch:
        """The outcomes as a :class:`~repro.sim.metrics.RecordBatch` of
        copies (it outlives the workspace views)."""
        columns = (true_classes, self.predicted_class, self.latency_ms, self.hit_layer)
        clients = np.full(self.hit_layer.size, client_id)
        return RecordBatch(*(np.array(column) for column in columns), clients)


class BatchedInferenceEngine:
    """Runs samples through a model with an optional semantic cache.

    Runs a batch of samples through the cache-instrumented loop at once:
    per activated layer, a single matmul scores every still-unresolved
    sample against the layer's entries, Eq. 1/2 are applied vectorized,
    and samples that hit are masked out of deeper layers.  Samples that
    miss everywhere are classified by one batched final-layer product.
    Outcomes (predictions, hit layers, latencies, hit scores) are those
    of running the samples one at a time.

    Args:
        model: the simulated model substrate.
        cache: the client's current :class:`SemanticCache`, or ``None``
            for pure Edge-Only execution.
        workspace: reusable probe buffers; pass a shared
            :class:`~repro.core.cache.LookupWorkspace` (a framework's
            one pool) to pool scratch memory across engines, or let
            the engine own a private one.  Buffers persist across
            batches and rounds, so steady-state probes allocate nothing
            proportional to ``batch x n_entries``.
    """

    def __init__(
        self,
        model: SimulatedModel,
        cache: SemanticCache | None = None,
        workspace: LookupWorkspace | None = None,
    ) -> None:
        self.model = model
        self.workspace = workspace if workspace is not None else LookupWorkspace()
        self._total_ms = model.profile.total_compute_ms
        self._no_cache = SemanticCache(model.num_classes)
        self.set_cache(cache)

    @property
    def cache(self) -> SemanticCache | None:
        """The installed cache (:meth:`set_cache` replaces it)."""
        return self._cache

    def set_cache(self, cache: SemanticCache | None) -> None:
        """Swap in a newly allocated cache (start of a CoCa round)."""
        self._cache = cache
        self._tables_pack: LayerPack | None = None

    def _eq7_tables(self, cache: SemanticCache) -> tuple[np.ndarray, np.ndarray]:
        """Eq. 7's per-cache terms: the lookup cost of the first ``k``
        activated layers, summed in walk order (``cum_lookup[k]``), and the
        compute a hit at the ``k``-th activated layer has executed
        (``prefix_ms[k - 1]``).

        Tabulated once per layer pack rather than per call.  Every cache
        mutator drops the pack, so an edited cache gets fresh tables.
        """
        pack = cache.layer_pack()
        if pack is not self._tables_pack:
            profile = self.model.profile
            layers = cache.active_layers
            self._cum_lookup = np.cumsum(
                [0.0]
                + [profile.lookup_cost_ms(cache.num_entries(j)) for j in layers]
            )
            self._prefix_ms = np.array(
                [profile.compute_up_to_layer_ms(j) for j in layers],
                dtype=np.float64,
            )
            self._tables_pack = pack
        return self._cum_lookup, self._prefix_ms

    def close(self) -> None:
        """Release the engine's workspace (its buffer pools).

        Safe on shared workspaces —
        :meth:`~repro.core.cache.LookupWorkspace.close` is idempotent —
        so every engine pointing at a framework's pool may call this on
        teardown.
        """
        self.workspace.close()

    def infer_batch_soa(
        self,
        samples: SampleBatch,
        timings: dict[str, float] | None = None,
    ) -> BatchOutcomes:
        """Run a batch, returning :class:`BatchOutcomes` arrays.

        Early exit per sample, but the outcomes stay as whole-batch
        arrays: nothing per-sample is constructed, which is what keeps a
        full protocol round array-at-a-time end to end.  The probe math
        itself is the shared :func:`~repro.core.probe.walk_cache_batch`
        walk (the same pure kernel the serving workers run); this method
        layers the profile's latency accounting and the full-model miss
        classification on top of the walk's hit layers.

        A row's ``hit_score`` can depend on how many rows share the call,
        in the last bits: the BLAS rounds a row of a small product by its
        call's row count (see :func:`~repro.core.probe.walk_cache_batch`).
        The same rows run as one batch or as row slices of it can differ
        there, so a row scoring within rounding of theta can hit in one
        and miss in the other.  Compare such runs at a relative
        tolerance, not bit for bit.

        Args:
            samples: the batch to run.
            timings: optional accumulator for wall-clock stage seconds
                (keys ``"probe"`` — cache lookups including gathers —
                and ``"model"`` — final-layer classification); used by
                the ``repro profile-round`` CLI breakdown.
        """
        # No cache walks as an empty one: it probes nothing, every row's
        # lookup cost is ``cum_lookup[0] == 0.0`` and every row misses.
        cache = self._cache if self._cache is not None else self._no_cache
        batch = len(samples)
        # Outcome arrays live in the engine workspace pools (explicit
        # dtypes, no per-call float64 allocations); see the BatchOutcomes
        # docstring for the resulting view lifetime.
        ws = self.workspace
        latency = ws.floats("engine.latency", (batch,), np.float64)
        top2_gap = ws.floats("engine.top2_gap", (batch,), np.float64)
        top2_gap.fill(np.nan)
        final = self.model.feature_space.final_layer

        cum_lookup, prefix_ms = self._eq7_tables(cache)
        vectors = samples.vectors  # (B, L+1, d)

        # Pure probe math: the shared cache walk (the same kernels and
        # early-exit semantics as the serving path).
        start = time.perf_counter() if timings is not None else 0.0
        walk = walk_cache_batch(cache, vectors, ws)
        if timings is not None:
            timings["probe"] = (
                timings.get("probe", 0.0) + time.perf_counter() - start
            )

        # Orchestration: Eq. 7 latency accounting on top of the walk.  A
        # row that probed k layers paid the lookup cost of the first k
        # activated layers; a hit at the k-th additionally executed the
        # model only up to it.
        np.take(cum_lookup, walk.layers_probed, out=latency)
        hit = walk.hit
        hit_rows = np.flatnonzero(hit)
        if hit_rows.size:
            latency[hit_rows] += prefix_ms[walk.layers_probed[hit_rows] - 1]

        miss_rows = np.flatnonzero(~hit)
        if miss_rows.size:
            start = time.perf_counter() if timings is not None else 0.0
            predictions, gaps = self.model.classify_vectors(
                vectors[miss_rows, final, :]
            )
            if timings is not None:
                timings["model"] = (
                    timings.get("model", 0.0) + time.perf_counter() - start
                )
            walk.predicted[miss_rows] = predictions
            latency[miss_rows] += self._total_ms
            top2_gap[miss_rows] = gaps
        return BatchOutcomes(
            walk.predicted, walk.hit_layer, latency, walk.hit_score, top2_gap
        )
