"""Scalar oracle of the CoCa probe, inference and protocol round.

Production code (``src/repro/core``) runs everything a batch at a time:
the cache walk scores blocks of layers for many rows at once, the engine
turns the walk into Eq. 7 latencies with array arithmetic, the client
collects a round's Eq. 3 update table with grouped updates, and the
server folds it into the global table with one Eq. 4 scatter pass.  This
module is the same protocol written the plain way — one sample, one
layer, one table entry at a time — so the equivalence suites can compare
the two:

* :func:`probe` — Eq. 1 accumulation and the Eq. 2 score (clamped at a
  non-positive runner-up) plus the similarity-floor test, for one sample
  at one cache layer;
* :func:`classify` — the full model on one sample: the argmax of the
  final-layer cosine logits and their softmax;
* :func:`infer` — the cache-instrumented inference of one sample: probe
  the activated layers in order, exit at the first hit, otherwise run the
  full model; latency is the executed compute prefix plus the lookup
  costs of the probed layers;
* :func:`draw_samples` — the feature space's block draw as one
  whole-batch mix with the client drift added to each gathered row
  block, the pin of the production draw's bits;
* :func:`run_round` — a client round frame by frame: status vectors,
  the Gamma / Delta collection rules and the Eq. 3 fold;
* :func:`update_table` — a ``(class, layer) -> vector`` mapping as the
  :class:`~repro.core.client.UpdateTable` a client uploads;
* :func:`summary` / :func:`total_latency_ms` — the paper's metrics
  counted one :class:`Row` (one frame's outcome) at a time, the pins of
  :meth:`~repro.sim.metrics.MetricsCollector.summary` and
  :attr:`~repro.core.client.RoundReport.total_latency_ms`;
* :func:`merge_update` / :func:`apply_client_update` — Eq. 4 per entry,
  then Eq. 5;
* :func:`walk_layers` — :func:`repro.core.probe.walk_cache_batch`
  written as a loop over the activated layers, each probed for the rows
  no earlier layer resolved;
* :func:`layer_statistics` — the server's calibration at one theta
  (:func:`~repro.core.server.measure_layer_statistics`, then
  :meth:`~repro.core.server.LayerScores.statistics`) with each layer's
  fires counted straight from its own product, a sort for the top 2 and
  :func:`discriminative_score`;
* :func:`similarity_floors` — the server's floor calibration
  (:func:`~repro.core.server.measure_similarity_floors`)
  with every kept row and its centroids gathered at once and scored by
  one ``einsum``;
* :func:`aca_allocate` — Algorithm 1's greedy stage re-evaluating the
  expected cost of every candidate layer set from scratch, one layer at a
  time.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, NamedTuple

import numpy as np

from repro.core.allocation import (
    AllocationResult,
    class_scores,
    select_hotspot_classes,
)
from repro.core.cache import SemanticCache
from repro.core.client import CoCaClient, RoundReport, UpdateTable
from repro.core.probe import CacheWalk, check_fit
from repro.core.server import (
    CACHED_FRACTION,
    DRIFT_MARGIN,
    FLOOR_MARGIN,
    FLOOR_QUANTILE,
    CoCaServer,
    GlobalCacheTable,
)
from repro.data.stream import FrameBlock, StreamGenerator
from repro.models.base import SimulatedModel
from repro.models.feature import SampleBatch, SemanticFeatureSpace
from repro.models.profiles import LookupCostModel
from repro.sim.metrics import MetricsSummary, RecordBatch

_EPS = 1e-9


def discriminative_score(
    a_best: float | np.ndarray, a_second: float | np.ndarray
) -> float | np.ndarray:
    """Eq. 2, ``(A[a] - A[b]) / A[b]``, and 0 where ``A[b] <= 0``.

    Accepts scalars or equally-shaped arrays; returns a float for scalar
    inputs and an array otherwise.
    """
    best = np.asarray(a_best, dtype=float)
    second = np.asarray(a_second, dtype=float)
    positive = second > _EPS
    score = np.where(
        positive, (best - second) / np.where(positive, second, 1.0), 0.0
    )
    if score.ndim == 0:
        return float(score)
    return score


class LayerProbe(NamedTuple):
    """Outcome of probing one cache layer for one sample."""

    layer: int
    top_class: int
    second_class: int  # -1 on a single-entry layer
    score: float
    hit: bool


def accumulator(cache: SemanticCache) -> np.ndarray:
    """A fresh per-class Eq. 1 accumulator ``A`` for one sample."""
    return np.zeros(cache.num_classes, dtype=cache.dtype)


def probe(
    cache: SemanticCache, accumulated: np.ndarray, layer: int, vector: np.ndarray
) -> LayerProbe:
    """Probe one activated layer, folding Eq. 1 into ``accumulated``.

    Raises ``KeyError`` for a layer that is not activated and
    ``ValueError`` for a vector of another dimension.  A layer with fewer
    than two entries never hits: Eq. 2 needs a runner-up.
    """
    ids, mat = cache.entries_at(layer)
    vec = np.asarray(vector, dtype=cache.dtype)
    if vec.shape != (mat.shape[1],):
        raise ValueError(
            f"vector shape {vec.shape} does not match centroid dim {mat.shape[1]}"
        )
    similarity = mat @ vec
    updated = similarity + cache.alpha * accumulated[ids]
    accumulated[ids] = updated
    if ids.size < 2:
        return LayerProbe(layer, int(ids[0]), -1, 0.0, False)
    order = np.argsort(updated)
    best_idx, second_idx = order[-1], order[-2]
    a_best = float(updated[best_idx])
    score = discriminative_score(a_best, float(updated[second_idx]))
    hit = (
        score > cache.theta
        and a_best > 0
        and float(similarity[best_idx]) >= cache.similarity_floor(layer)
    )
    return LayerProbe(
        layer, int(ids[best_idx]), int(ids[second_idx]), score, hit
    )


def top2_prob_gap(probs: np.ndarray) -> float:
    """Gap between the two largest entries of a probability vector."""
    if probs.size < 2:
        return 1.0
    top2 = np.partition(probs, probs.size - 2)[-2:]
    return float(top2[1] - top2[0])


class InferenceOutcome(NamedTuple):
    """Everything observable from one cached inference.

    ``hit_layer`` and ``hit_score`` are ``None`` on a miss;
    ``top2_prob_gap`` is ``None`` unless the full model ran.
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


def classify(model: SimulatedModel, vectors: np.ndarray) -> tuple[int, np.ndarray]:
    """The full model on one sample's ``(L + 1, d)`` vectors: (predicted
    class, softmax class probabilities)."""
    space = model.feature_space
    logits = model.ideal_centroids(space.final_layer) @ vectors[space.final_layer]
    scaled = logits / space.config.temperature
    exp = np.exp(scaled - scaled.max())
    return int(np.argmax(logits)), exp / exp.sum()


def infer(
    model: SimulatedModel, cache: SemanticCache | None, vectors: np.ndarray
) -> InferenceOutcome:
    """Run one sample (its ``(L + 1, d)`` vectors, a row of a
    :class:`SampleBatch`) through the model with early exit on a cache
    hit."""
    profile = model.profile
    if cache is None or not cache.active_layers:
        predicted, probs = classify(model, vectors)
        return InferenceOutcome(
            predicted, None, profile.total_compute_ms,
            top2_prob_gap=top2_prob_gap(probs),
        )
    accumulated = accumulator(cache)
    probes: list[LayerProbe] = []
    lookup_ms = 0.0
    for layer in cache.active_layers:
        lookup_ms += profile.lookup_cost_ms(cache.num_entries(layer))
        result = probe(cache, accumulated, layer, vectors[layer])
        probes.append(result)
        if result.hit:
            return InferenceOutcome(
                result.top_class,
                layer,
                profile.compute_up_to_layer_ms(layer) + lookup_ms,
                tuple(probes),
                hit_score=result.score,
            )
    predicted, probs = classify(model, vectors)
    return InferenceOutcome(
        predicted,
        None,
        profile.total_compute_ms + lookup_ms,
        tuple(probes),
        top2_prob_gap=top2_prob_gap(probs),
    )


# ----------------------------------------------------------------------
# Sample draw
# ----------------------------------------------------------------------


def draw_samples(
    space: SemanticFeatureSpace,
    block: FrameBlock,
    client_id: int,
    rng: np.random.Generator,
) -> SampleBatch:
    """The block draw as one whole-batch mix over a drifted copy of the
    whole ``(I, L+1, d)`` centroid table, then the three role gathers,
    where :meth:`SemanticFeatureSpace.draw_samples` drifts only the
    classes the block touches and mixes in row blocks.  The element
    operations are the same, so the two must match bit for bit,
    generator state included."""
    if not 0 <= client_id < space.num_clients:
        raise ValueError(
            f"client_id {client_id} out of range [0, {space.num_clients})"
        )
    cfg = space.config
    d = cfg.dim
    num_levels = space.num_layers + 1
    class_ids = block.class_ids
    batch = len(block)
    if batch == 0:
        return SampleBatch(
            block=block,
            client_id=client_id,
            vectors=np.zeros((0, num_levels, d)),
            space=space,
            confusion_targets=np.zeros(0, dtype=np.int64),
            confusion_weights=np.zeros(0),
        )
    if class_ids.min() < 0 or class_ids.max() >= space.num_classes:
        bad = int(class_ids.min() if class_ids.min() < 0 else class_ids.max())
        raise ValueError(
            f"frame class {bad} out of range [0, {space.num_classes})"
        )

    # Two distinct siblings per sample: a uniform index, then a
    # uniform index into the remaining pool shifted past the first —
    # the vectorized equivalent of ``rng.choice(sibs, 2, False)``.
    counts = space._sibling_count[class_ids]
    first = np.minimum((rng.random(batch) * counts).astype(np.int64), counts - 1)
    pool = np.maximum(counts - 1, 1)
    second = np.minimum((rng.random(batch) * pool).astype(np.int64), pool - 1)
    second = np.where(counts < 2, first, second + (second >= first))
    primary = space._sibling_pad[class_ids, first]
    secondary = space._sibling_pad[class_ids, second]

    # Two-mode confusion weights (vectorized confusion_weight).
    hard_prob = 1.0 / (
        1.0 + np.exp(-(block.difficulties - cfg.conf_mid) / cfg.conf_sharp)
    )
    is_hard = rng.random(batch) < hard_prob
    u = rng.random(batch)
    boundary = 1.0 / (1.0 + cfg.conf_primary_share)
    w = np.where(
        is_hard,
        (boundary - 0.05) + cfg.conf_span * u,
        cfg.conf_base + cfg.conf_jitter * u,
    )
    w = np.clip(w, 0.0, cfg.w_cap)

    # Class-major gathers yield fresh (B, L+1, d) blocks, so the mix
    # accumulates in place — no (L+1, B, d) transposed temporaries.
    centers = space._centroids_by_class
    if cfg.client_drift_scale != 0.0:
        drift = cfg.client_drift_scale * space._drift_dirs[client_id]
        centers = centers + drift[:, None, :]
    share = cfg.conf_primary_share
    mixed = centers[class_ids]
    mixed *= (1.0 - w)[:, None, None]
    part = centers[primary]
    part *= (w * share)[:, None, None]
    mixed += part
    part = centers[secondary]
    part *= (w * (1.0 - share))[:, None, None]
    mixed += part  # (B, L+1, d)
    noise = rng.standard_normal((batch, num_levels, d))
    noise *= (space._iso_noise / np.sqrt(d))[None, :, None]
    mixed += noise
    norms = np.sqrt(np.einsum("bld,bld->bl", mixed, mixed))
    if np.any(norms == 0):
        raise ValueError("cannot normalize a zero vector")
    mixed /= norms[:, :, None]
    vectors = mixed
    return SampleBatch(
        block=block,
        client_id=client_id,
        vectors=vectors,
        space=space,
        confusion_targets=primary,
        confusion_weights=w,
    )



# ----------------------------------------------------------------------
# Client round (Sec. IV-C) and server update (Eq. 4 / 5)
# ----------------------------------------------------------------------


def absorb(
    update_entries: dict[tuple[int, int], np.ndarray],
    vectors: np.ndarray,
    class_id: int,
    layers: list[int],
    beta: float,
) -> None:
    """Eq. 3: ``U = V + beta * U`` per collected layer, L2-normalized."""
    for layer in layers:
        vector = vectors[layer]
        key = (class_id, layer)
        if key in update_entries:
            merged = vector + beta * update_entries[key]
        else:
            merged = vector.copy()
        norm = np.linalg.norm(merged)
        if norm > 0:
            update_entries[key] = merged / norm


def collect(
    client: CoCaClient,
    vectors: np.ndarray,
    true_class: int,
    outcome: InferenceOutcome,
    update_entries: dict[tuple[int, int], np.ndarray],
    report: RoundReport,
) -> None:
    """The Gamma rule (hits, up to the hit layer) and the Delta rule
    (misses, every preset layer) for one inference."""
    config = client.config
    predicted = outcome.predicted_class
    if outcome.hit:
        report.eligible_hits += 1
        assert outcome.hit_score is not None
        if outcome.hit_score <= config.collect_gamma:
            return
        layers = [p.layer for p in outcome.probes]
        report.absorbed_hits += 1
    else:
        report.eligible_misses += 1
        assert outcome.top2_prob_gap is not None
        if outcome.top2_prob_gap <= config.collect_delta:
            return
        layers = list(range(client.model.num_cache_layers))
        report.absorbed_misses += 1
    absorb(update_entries, vectors, predicted, layers, config.beta)
    report.collected_total += 1
    report.collected_correct += int(predicted == true_class)


def run_round(client: CoCaClient, batch: SampleBatch) -> RoundReport:
    """Run a pre-drawn batch through ``client`` one frame at a time.

    Updates the client's tau, phi and R exactly as
    :meth:`CoCaClient.run_round` does, and returns its report.
    """
    frames = len(batch)
    if frames < 1:
        raise ValueError("batch must contain at least one sample")
    model = client.model
    cache = client.engine.cache
    phi = np.zeros(model.num_classes)
    layer_hits = np.zeros(model.num_cache_layers)
    update_entries: dict[tuple[int, int], np.ndarray] = {}
    dim = batch.vectors.shape[-1]
    report = RoundReport(
        client_id=client.client_id,
        records=record_batch([]),
        update_entries=UpdateTable.empty(dim),
        frequencies=phi,
    )
    round_rows: list[Row] = []
    for vectors, true_class in zip(batch.vectors, batch.class_ids.tolist()):
        outcome = infer(model, cache, vectors)
        client.timestamps += 1.0
        client.timestamps[outcome.predicted_class] = 0.0
        phi[outcome.predicted_class] += 1.0
        if outcome.hit_layer is not None:
            layer_hits[outcome.hit_layer] += 1.0
        collect(client, vectors, true_class, outcome, update_entries, report)
        round_rows.append(
            Row(
                true_class=true_class,
                predicted_class=outcome.predicted_class,
                latency_ms=outcome.latency_ms,
                hit_layer=outcome.hit_layer,
                client_id=client.client_id,
            )
        )
    if cache is not None:
        # R blends in the hits at or before each active layer.
        cumulative = 0.0
        for layer in cache.active_layers:
            cumulative += layer_hits[layer] / frames
            client.hit_ratio[layer] = 0.5 * client.hit_ratio[layer] + 0.5 * cumulative
    client.last_frequencies = phi.copy()
    report.records = record_batch(round_rows)
    report.update_entries = update_table(update_entries, dim)
    return report


# ----------------------------------------------------------------------
# Metrics (Sec. VI-B), one frame's outcome at a time
# ----------------------------------------------------------------------


class Row(NamedTuple):
    """One frame's outcome; ``hit_layer`` is ``None`` on a miss."""

    true_class: int
    predicted_class: int
    latency_ms: float
    hit_layer: int | None = None
    client_id: int = 0

    @property
    def correct(self) -> bool:
        return self.true_class == self.predicted_class

    @property
    def hit(self) -> bool:
        return self.hit_layer is not None


def rows(records: RecordBatch) -> list[Row]:
    """A batch's outcomes one :class:`Row` per frame, in order."""
    return [
        Row(true, predicted, latency, hit if hit >= 0 else None, client)
        for true, predicted, latency, hit, client in zip(
            records.true_class.tolist(),
            records.predicted_class.tolist(),
            records.latency_ms.tolist(),
            records.hit_layer.tolist(),
            records.client_id.tolist(),
        )
    ]


def record_batch(round_rows: list[Row]) -> RecordBatch:
    """Per-frame outcomes as the columns of one batch."""
    return RecordBatch(
        np.array([r.true_class for r in round_rows], dtype=np.int64),
        np.array([r.predicted_class for r in round_rows], dtype=np.int64),
        np.array([r.latency_ms for r in round_rows], dtype=np.float64),
        np.array(
            [-1 if r.hit_layer is None else r.hit_layer for r in round_rows],
            dtype=np.int64,
        ),
        np.array([r.client_id for r in round_rows], dtype=np.int64),
    )


def total_latency_ms(round_rows: list[Row]) -> float:
    """A round's summed virtual latency, one row at a time."""
    return float(sum(r.latency_ms for r in round_rows))


def summary(round_rows: list[Row]) -> MetricsSummary:
    """The paper's metrics over per-frame rows, counted one row at a time."""
    if not round_rows:
        raise ValueError("cannot summarize an empty MetricsCollector")

    n = len(round_rows)
    total_latency = sum(r.latency_ms for r in round_rows)
    correct = sum(1 for r in round_rows if r.correct)
    hits = [r for r in round_rows if r.hit]
    misses = [r for r in round_rows if not r.hit]

    hit_correct = sum(1 for r in hits if r.correct)
    miss_correct = sum(1 for r in misses if r.correct)

    layer_hits = Counter(r.hit_layer for r in hits)
    layer_correct = Counter(r.hit_layer for r in hits if r.correct)
    per_layer_hits = {int(j): int(c) for j, c in sorted(layer_hits.items())}
    per_layer_hit_accuracy = {
        int(j): layer_correct[j] / layer_hits[j] for j in sorted(layer_hits)
    }

    return MetricsSummary(
        num_samples=n,
        avg_latency_ms=total_latency / n,
        accuracy=correct / n,
        hit_ratio=len(hits) / n,
        hit_accuracy=hit_correct / len(hits) if hits else 0.0,
        miss_accuracy=miss_correct / len(misses) if misses else 0.0,
        per_layer_hits=per_layer_hits,
        per_layer_hit_accuracy=per_layer_hit_accuracy,
    )


def update_table(
    update_entries: dict[tuple[int, int], np.ndarray], dim: int
) -> UpdateTable:
    """The upload of a ``(class, layer) -> vector`` mapping, one row per
    key in ascending key order."""
    keys = sorted(update_entries)
    if not keys:
        return UpdateTable.empty(dim)
    return UpdateTable(
        class_ids=np.array([class_id for class_id, _ in keys], dtype=np.int64),
        layers=np.array([layer for _, layer in keys], dtype=np.int64),
        vectors=np.stack([update_entries[key] for key in keys]),
    )


def merge_update(
    table: GlobalCacheTable,
    class_id: int,
    layer: int,
    update_vector: np.ndarray,
    local_freq: float,
    gamma: float,
) -> None:
    """Eq. 4 for one entry: install into an unfilled slot, else blend
    ``gamma * Phi/(Phi+phi) * E + phi/(Phi+phi) * U`` and normalize."""
    if local_freq == 0:
        return
    new = np.asarray(update_vector, dtype=float)
    if not table.filled[class_id, layer]:
        if np.linalg.norm(new) >= 1e-12:
            table.install(class_id, layer, new)
        return
    global_freq = table.class_freq[class_id]
    denom = global_freq + local_freq
    merged = (
        gamma * (global_freq / denom) * table.entries[class_id, layer]
        + (local_freq / denom) * new
    )
    norm = np.linalg.norm(merged)
    if norm >= 1e-12:
        table.entries[class_id, layer] = merged / norm


def apply_client_update(
    server: CoCaServer,
    update: UpdateTable,
    local_freq: np.ndarray,
) -> None:
    """One client's global update: Eq. 4 row by row, then Eq. 5."""
    for class_id, layer, vector in zip(
        update.class_ids.tolist(), update.layers.tolist(), update.vectors
    ):
        merge_update(
            server.table, class_id, layer, vector,
            float(local_freq[class_id]), server.config.gamma,
        )
    server.table.add_frequencies(local_freq)


# ----------------------------------------------------------------------
# The per-layer walk
# ----------------------------------------------------------------------


def walk_layers(cache: SemanticCache, vectors: np.ndarray) -> CacheWalk:
    """:func:`~repro.core.probe.walk_cache_batch` one layer at a time.

    Same checks and result.  Per activated layer, for the rows still
    alive: one ``(rows, d) @ (d, n)`` product against the layer's
    entries, Eq. 1 into a ``(B, num_classes)`` accumulator, top-2 by
    argmax (first index on ties), Eq. 2 clamped at a non-positive
    runner-up, and the ``A > 0`` and floor tests, all in the cache dtype;
    rows that hit leave.
    """
    check_fit(cache, vectors)
    batch = vectors.shape[0]
    predicted = np.full(batch, -1, dtype=np.intp)
    hit_layer = np.full(batch, -1, dtype=np.intp)
    hit_score = np.full(batch, np.nan)
    layers_probed = np.zeros(batch, dtype=np.intp)
    queries = vectors.astype(cache.dtype)
    accumulated = np.zeros((batch, cache.num_classes), dtype=cache.dtype)
    alive = np.arange(batch)
    for layer in cache.active_layers:
        if alive.size == 0:
            break
        ids, mat = cache.entries_at(layer)
        similarity = queries[alive, layer, :] @ mat.T
        updated = cache.alpha * accumulated[alive[:, None], ids] + similarity
        accumulated[alive[:, None], ids] = updated
        rows = np.arange(alive.size)
        best = updated.argmax(axis=1)
        a_best = updated[rows, best]
        masked = updated.copy()
        masked[rows, best] = -np.inf
        a_second = masked.max(axis=1)
        positive = a_second > _EPS
        score = np.where(positive, (a_best - a_second) / np.where(positive, a_second, 1), 0)
        floor = cache.dtype.type(cache.similarity_floor(layer))
        hit = (score > cache.theta) & (a_best > 0) & (similarity[rows, best] >= floor)
        layers_probed[alive] += 1
        predicted[alive] = ids[best]
        hit_layer[alive[hit]] = layer
        hit_score[alive[hit]] = score[hit]
        alive = alive[~hit]
    return CacheWalk(predicted, hit_layer, hit_score, layers_probed)


def layer_statistics(
    model: SimulatedModel, rng: np.random.Generator, num_samples: int, theta: float
) -> tuple[np.ndarray, np.ndarray]:
    """``measure_layer_statistics(model, rng, num_samples).statistics(theta)``
    of :mod:`repro.core.server`, one layer at a time: the per-layer
    ``(hit_ratio, exit_loss)``.

    Same draws from ``rng``, in the same order, so the same cached
    classes, drifted centroids and samples.  Per layer: one
    ``(N, d) @ (d, n)`` product, the top 2 by sort, Eq. 2 clamped at a
    non-positive runner-up, and a fire on a score above ``theta`` with a
    positive best similarity.
    """
    num_layers, num_classes = model.num_cache_layers, model.num_classes
    num_cached = max(2, int(round(CACHED_FRACTION * num_classes)))
    cached = rng.choice(num_classes, size=num_cached, replace=False)
    perturb_rng = np.random.default_rng(rng.integers(2**32))
    centroids = []
    for layer in range(num_layers):
        base = model.ideal_centroids(layer)[cached]
        noise = perturb_rng.standard_normal(base.shape)
        noise /= np.linalg.norm(noise, axis=1, keepdims=True)
        base = base + DRIFT_MARGIN * noise
        base /= np.linalg.norm(base, axis=1, keepdims=True)
        centroids.append(base)
    stream = StreamGenerator(
        class_distribution=np.full(num_classes, 1.0 / num_classes),
        mean_run_length=model.dataset.mean_run_length,
        rng=rng,
        base_difficulty=model.dataset.difficulty,
        working_set_size=None,
    )
    block = stream.take_block(num_samples)
    batch = model.draw_samples(block, 0, rng)
    class_ids = block.class_ids
    predictions, _ = model.classify_vectors(batch.final_vectors())
    model_ok = predictions == class_ids
    is_cached = np.isin(class_ids, cached)
    ratio, exit_loss = np.zeros(num_layers), np.zeros(num_layers)
    for layer in range(num_layers):
        similarity = batch.vectors[:, layer, :] @ centroids[layer].T
        order = np.argsort(similarity, axis=1)
        best = np.take_along_axis(similarity, order[:, -1:], axis=1)[:, 0]
        second = np.take_along_axis(similarity, order[:, -2:-1], axis=1)[:, 0]
        score = discriminative_score(best, second)
        fire = (score > theta) & (best > 0)
        fires = fire.sum()
        ratio[layer] = (fire & is_cached).sum() / max(1, is_cached.sum())
        if fires:
            accuracy = (fire & (cached[order[:, -1]] == class_ids)).sum() / fires
            exit_loss[layer] = max(0.0, (fire & model_ok).sum() / fires - accuracy)
    return ratio, exit_loss


def similarity_floors(
    model: SimulatedModel, rng: np.random.Generator, num_samples: int = 600
) -> np.ndarray:
    """:func:`~repro.core.server.measure_similarity_floors`
    with the kept rows copied out of the batch and every row's centroids
    gathered into one ``(L, K, d)`` block, scored by one ``einsum``.

    Same draws from ``rng``, in the same order; the production method
    scores the same products in row blocks, so the floors match bit for
    bit.
    """
    num_layers = model.num_cache_layers
    centroids = np.stack(
        [model.ideal_centroids(layer) for layer in range(num_layers)]
    )  # (L, I, d)
    stream = StreamGenerator(
        class_distribution=np.full(
            model.num_classes, 1.0 / model.num_classes
        ),
        mean_run_length=model.dataset.mean_run_length,
        rng=rng,
        base_difficulty=model.dataset.difficulty,
        working_set_size=None,
    )
    block = stream.take_block(num_samples)
    batch = model.draw_samples(block, 0, rng)
    # Floors gate *confident* hits, so calibrate on the easy
    # majority (hard samples would not hit their own class anyway).
    keep = batch.confusion_weights <= 0.4
    if not keep.any():
        return np.full(num_layers, -1.0)
    class_ids = block.class_ids[keep]
    vectors = batch.vectors[keep]  # (K, L+1, d)
    # own_sims[k, l] = centroid(class of k, layer l) . vector(k, layer l)
    own_sims = np.einsum(
        "lkd,kld->kl", centroids[:, class_ids, :], vectors[:, :num_layers, :]
    )
    return np.quantile(own_sims, FLOOR_QUANTILE, axis=0) - FLOOR_MARGIN


# ----------------------------------------------------------------------
# ACA, one candidate at a time
# ----------------------------------------------------------------------


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
    """:func:`repro.core.allocation.aca_allocate`, greedy stage written
    the plain way: every step rebuilds the expected cost of ``picked +
    [j]`` for each remaining layer ``j`` in ascending order, every layer
    holding the hot-spot set and ``lookup_cost_ms`` called per picked
    layer, and a candidate displaces the running best only when cheaper
    by more than 1e-12.  Same arguments and result; well-formed inputs
    only."""
    R = np.asarray(hit_ratio, dtype=float)
    upsilon = np.asarray(saved_time_ms, dtype=float)
    sizes = np.asarray(entry_sizes_bytes, dtype=float)
    num_layers = R.size
    scores = class_scores(
        global_freq,
        timestamps,
        frames_per_round,
        recency_base,
        local_freq=local_freq,
        local_weight=local_weight,
    )
    hotspot = select_hotspot_classes(scores, hotspot_mass)

    layers: list[int] = []
    if allowed_layers is None:
        remaining = set(range(num_layers))
    else:
        remaining = {int(j) for j in allowed_layers}
    used_bytes = 0
    R_monotone = np.maximum.accumulate(np.clip(R, 0.0, 1.0))
    total_compute = float(upsilon.max()) if upsilon.size else 0.0
    prefix_cost = -upsilon

    lookup_cost = LookupCostModel() if lookup_cost_ms is None else lookup_cost_ms

    def expected_cost(picked: list[int]) -> float:
        if not picked:
            return total_compute
        cost = 0.0
        lookups_so_far = 0.0
        prev_mass = 0.0
        for layer in sorted(picked):
            lookups_so_far += lookup_cost(hotspot.size)
            mass = R_monotone[layer] - prev_mass
            prev_mass = R_monotone[layer]
            cost += mass * (total_compute + prefix_cost[layer] + lookups_so_far)
        cost += (1.0 - prev_mass) * (total_compute + lookups_so_far)
        return cost

    current_cost = expected_cost([])
    while remaining:
        best_layer = None
        best_cost = current_cost
        best_added = 0
        for j in sorted(remaining):
            if hotspot.size == 0:
                continue
            added = int(sizes[j]) * hotspot.size
            if used_bytes + added > budget_bytes:
                continue
            candidate_cost = expected_cost(layers + [j])
            if candidate_cost < best_cost - 1e-12:
                best_cost = candidate_cost
                best_layer = j
                best_added = added
        if best_layer is None:
            break
        layers.append(best_layer)
        used_bytes += best_added
        current_cost = best_cost
        remaining.discard(best_layer)

    return AllocationResult(
        layers=layers,
        hotspot_classes=hotspot,
        size_bytes=used_bytes,
        scores=scores,
    )
