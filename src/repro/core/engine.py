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

Two engines share the semantics: :class:`CachedInferenceEngine` runs one
sample at a time (the reference scalar path), and
:class:`BatchedInferenceEngine` runs a whole round of frames as NumPy
batch operations — per activated layer, one matmul over all
still-unresolved samples with early-exit masking — producing outcomes
identical to the scalar engine at a fraction of the interpreter cost.
The batched engine accepts a :class:`~repro.models.feature.SampleBatch`
directly (no per-sample re-packing):
:meth:`BatchedInferenceEngine.infer_batch_soa` returns a
:class:`BatchOutcomes` structure of arrays — the round pipeline's hot
path, which never materializes per-sample objects.
"""

from __future__ import annotations

import time
from typing import NamedTuple, Sequence

import numpy as np

from repro.core.cache import LayerProbe, LookupWorkspace, SemanticCache
from repro.core.probe import walk_cache_batch
from repro.models.base import SimulatedModel
from repro.models.feature import SampleBatch, SampleFeatures


def _top2_prob_gap(probs: np.ndarray) -> float:
    """Gap between the two largest entries of a probability vector."""
    if probs.size < 2:
        return 1.0
    top2 = np.partition(probs, probs.size - 2)[-2:]
    return float(top2[1] - top2[0])


def _batch_vectors(samples: SampleBatch | Sequence[SampleFeatures]) -> np.ndarray:
    """The ``(B, L+1, d)`` vector tensor of a batch, stacking only when
    given loose per-sample objects."""
    if isinstance(samples, SampleBatch):
        return samples.vectors
    return np.stack([s.vector_matrix() for s in samples])


class InferenceOutcome(NamedTuple):
    """Everything observable from one cached inference.

    A ``NamedTuple`` rather than a dataclass: one outcome is built per
    inference on the hot path, where tuple construction is several times
    cheaper than frozen-dataclass field assignment.

    Attributes:
        predicted_class: class returned to the application.
        hit_layer: cache layer that hit, or ``None`` on full execution.
        latency_ms: compute + lookup latency of this inference.
        probes: per-layer lookup outcomes, in probe order.
        hit_score: Eq. 2 score at the hit layer (``None`` on miss) — used
            by the Gamma collection rule.
        top2_prob_gap: gap between the two largest softmax probabilities of
            the full model (``None`` unless the model ran to completion) —
            used by the Delta collection rule.
    """

    predicted_class: int
    hit_layer: int | None
    latency_ms: float
    probes: tuple[LayerProbe, ...] = ()
    hit_score: float | None = None
    top2_prob_gap: float | None = None

    @property
    def hit(self) -> bool:
        return self.hit_layer is not None


class CachedInferenceEngine:
    """Runs samples through a model with an optional semantic cache.

    Args:
        model: the simulated model substrate.
        cache: the client's current :class:`SemanticCache`, or ``None``
            for pure Edge-Only execution.
    """

    def __init__(self, model: SimulatedModel, cache: SemanticCache | None = None) -> None:
        self.model = model
        self.cache = cache

    def set_cache(self, cache: SemanticCache | None) -> None:
        """Swap in a newly allocated cache (start of a CoCa round)."""
        self.cache = cache

    def infer(self, sample: SampleFeatures) -> InferenceOutcome:
        """Run one sample, returning prediction and charged latency."""
        profile = self.model.profile
        if self.cache is None or not self.cache.active_layers:
            predicted, probs = self.model.classify(sample)
            gap = _top2_prob_gap(probs)
            return InferenceOutcome(
                predicted_class=predicted,
                hit_layer=None,
                latency_ms=profile.total_compute_ms,
                top2_prob_gap=gap,
            )

        session = self.cache.start_session()
        probes: list[LayerProbe] = []
        lookup_ms = 0.0
        for layer in self.cache.active_layers:
            num_entries = self.cache.num_entries(layer)
            lookup_ms += profile.lookup_cost_ms(num_entries)
            probe = session.probe(layer, sample.vector(layer))
            probes.append(probe)
            if probe.hit:
                latency = profile.compute_up_to_layer_ms(layer) + lookup_ms
                return InferenceOutcome(
                    predicted_class=probe.top_class,
                    hit_layer=layer,
                    latency_ms=latency,
                    probes=tuple(probes),
                    hit_score=probe.score,
                )

        predicted, probs = self.model.classify(sample)
        gap = _top2_prob_gap(probs)
        return InferenceOutcome(
            predicted_class=predicted,
            hit_layer=None,
            latency_ms=profile.total_compute_ms + lookup_ms,
            probes=tuple(probes),
            top2_prob_gap=gap,
        )


class BatchOutcomes(NamedTuple):
    """Structure-of-arrays outcomes of one batched inference pass.

    The array counterpart of a ``list[InferenceOutcome]`` for consumers
    that post-process outcomes with vectorized arithmetic (the round
    pipeline): no per-sample objects, no per-layer probe records.

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


class BatchedInferenceEngine:
    """Vectorized counterpart of :class:`CachedInferenceEngine`.

    Runs a whole batch of samples through the cache-instrumented loop at
    once: per activated layer, a single matmul scores every
    still-unresolved sample against the layer's entries, Eq. 1/2 are
    applied vectorized, and samples that hit are masked out of deeper
    layers.  Samples that miss everywhere are classified by one batched
    final-layer product.  Outcomes (predictions, hit layers, latencies,
    hit scores) are identical to calling ``infer`` per sample.

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
        self.cache = cache
        self.workspace = workspace if workspace is not None else LookupWorkspace()

    def set_cache(self, cache: SemanticCache | None) -> None:
        """Swap in a newly allocated cache (start of a CoCa round)."""
        self.cache = cache

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
        samples: SampleBatch | Sequence[SampleFeatures],
        timings: dict[str, float] | None = None,
    ) -> BatchOutcomes:
        """Run a batch, returning :class:`BatchOutcomes` arrays.

        Same early-exit semantics and per-sample results as the scalar
        :meth:`CachedInferenceEngine.infer`, but the
        outcomes stay as whole-batch arrays: nothing per-sample is
        constructed, which is what keeps a full protocol round
        array-at-a-time end to end.  The probe math itself is the shared
        :func:`~repro.core.probe.walk_cache_batch` walk (the same pure
        kernel the serving workers run); this method layers the profile's
        latency accounting and the full-model miss classification on top
        of the walk's hit layers.

        Args:
            samples: the batch to run.
            timings: optional accumulator for wall-clock stage seconds
                (keys ``"probe"`` — cache lookups including gathers —
                and ``"model"`` — final-layer classification); used by
                the ``repro profile-round`` CLI breakdown.
        """
        profile = self.model.profile
        cache = self.cache
        batch = len(samples)
        # Outcome arrays live in the engine workspace pools (explicit
        # dtypes, no per-call float64 allocations); see the BatchOutcomes
        # docstring for the resulting view lifetime.
        ws = self.workspace
        latency = ws.floats("engine.latency", (batch,), np.float64)
        top2_gap = ws.floats("engine.top2_gap", (batch,), np.float64)
        latency.fill(0.0)
        top2_gap.fill(np.nan)

        if batch == 0 or cache is None or not cache.active_layers:
            predicted = ws.ints("engine.predicted", (batch,))
            hit_layer = ws.ints("engine.hit_layer", (batch,))
            hit_score = ws.floats("engine.hit_score", (batch,), np.float64)
            predicted.fill(0)
            hit_layer.fill(-1)
            hit_score.fill(np.nan)
            if batch == 0:
                return BatchOutcomes(
                    predicted, hit_layer, latency, hit_score, top2_gap
                )
            vectors = _batch_vectors(samples)  # (B, L+1, d)
            final = self.model.feature_space.final_layer
            start = time.perf_counter() if timings is not None else 0.0
            predictions, gaps = self.model.classify_vectors(vectors[:, final, :])
            if timings is not None:
                timings["model"] = (
                    timings.get("model", 0.0) + time.perf_counter() - start
                )
            predicted[:] = predictions
            latency[:] = profile.total_compute_ms
            top2_gap[:] = gaps
            return BatchOutcomes(predicted, hit_layer, latency, hit_score, top2_gap)

        vectors = _batch_vectors(samples)  # (B, L+1, d)
        final = self.model.feature_space.final_layer

        # Pure probe math: the shared cache walk (identical kernels and
        # early-exit semantics to the scalar engine and the serving path).
        start = time.perf_counter() if timings is not None else 0.0
        walk = walk_cache_batch(cache, vectors, ws)
        if timings is not None:
            timings["probe"] = (
                timings.get("probe", 0.0) + time.perf_counter() - start
            )

        # Orchestration: Eq. 7 latency accounting on top of the walk.  A
        # row that probed k layers paid the lookup cost of the first k
        # activated layers; a hit at layer j additionally executed the
        # model only up to j.
        active = cache.active_layers
        cum_lookup = ws.floats(
            "engine.cum_lookup", (len(active) + 1,), np.float64
        )
        cum_lookup[0] = 0.0
        for k, layer in enumerate(active):
            cum_lookup[k + 1] = cum_lookup[k] + profile.lookup_cost_ms(
                cache.num_entries(layer)
            )
        np.take(cum_lookup, walk.layers_probed, out=latency)

        hit_rows = np.flatnonzero(walk.hit)
        if hit_rows.size:
            prefix_ms = ws.floats(
                "engine.prefix_ms", (len(active),), np.float64
            )
            for k, layer in enumerate(active):
                prefix_ms[k] = profile.compute_up_to_layer_ms(layer)
            # The hit layer of a row that probed k layers is active[k-1].
            latency[hit_rows] += prefix_ms[walk.layers_probed[hit_rows] - 1]

        miss_rows = np.flatnonzero(~walk.hit)
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
            latency[miss_rows] += profile.total_compute_ms
            top2_gap[miss_rows] = gaps
        return BatchOutcomes(
            walk.predicted, walk.hit_layer, latency, walk.hit_score, top2_gap
        )
