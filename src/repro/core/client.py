"""The CoCa client: cached inference + status tracking + collection.

Per Sec. IV-C, each client maintains two class-recency structures —

* ``tau`` (timestamp vector): inferences since a class last appeared;
  reset to 0 when a sample of the class appears, incremented otherwise;
* ``phi`` (frequency vector): per-class appearance counts within the
  current round —

and a *cache update table* ``U`` collecting semantic vectors of selected
inference samples:

1. cache hits whose discriminative score exceeds Gamma (reinforcement;
   vectors collected only up to the hit layer), and
2. cache misses whose top-2 probability gap exceeds Delta (expansion;
   vectors collected at every preset layer, since the full model ran).

Entries update as ``U[i, j] = V[i, j] + beta * U[i, j]`` (Eq. 3) and are
L2-normalized.  The client knows no ground-truth labels: classes are the
*inferred* outputs, exactly as deployed.

Rounds are array-at-a-time end to end: frames come as one
:class:`~repro.data.stream.FrameBlock`, samples as one
:class:`~repro.models.feature.SampleBatch`, inference as one
:class:`~repro.core.engine.BatchOutcomes` pass, the status vectors
(tau, phi) update with batch arithmetic, and Eq. 3 collection folds the
selected samples into one ``(L, d)`` row block per collected class — a
miss folds every preset layer in place, a hit its probed prefix.  The
table U is uploaded as the aligned arrays of an :class:`UpdateTable`,
gathered once from the fold state, which the server's Eq. 4 merge
consumes as they are.  Given the same pre-drawn batch, the per-frame
scalar oracle of ``tests/oracle.py`` produces an identical report (see
``tests/test_round_pipeline_equivalence.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.cache import LookupWorkspace, SemanticCache
from repro.core.config import CoCaConfig
from repro.core.engine import BatchedInferenceEngine, BatchOutcomes
from repro.data.stream import StreamGenerator
from repro.models.base import SimulatedModel
from repro.models.feature import SampleBatch
from repro.sim.metrics import RecordBatch


@dataclass(frozen=True)
class ClientStatus:
    """Status information uploaded with a cache-allocation request.

    Attributes:
        client_id: identifier of the requesting client.
        timestamps: the tau vector (staleness per class, in inferences).
        frequencies: the client's class distribution observed in its most
            recent round (the "current data class distribution" of
            Sec. IV-A; zeros before the first round).
        hit_ratio: per-cache-layer marginal hit-ratio estimate R.
        cache_budget_bytes: the client's cache-size threshold Pi.
    """

    client_id: int
    timestamps: np.ndarray
    frequencies: np.ndarray
    hit_ratio: np.ndarray
    cache_budget_bytes: int


@dataclass(frozen=True, eq=False)
class UpdateTable:
    """The cache update table U a client uploads, as aligned arrays.

    Row ``k`` is the unit vector folded for class ``class_ids[k]`` at
    cache layer ``layers[k]`` (Eq. 3); no ``(class, layer)`` key repeats.

    Attributes:
        class_ids: ``(K,)`` integer class per row.
        layers: ``(K,)`` integer cache layer per row.
        vectors: ``(K, d)`` float64 unit vectors.
    """

    class_ids: np.ndarray
    layers: np.ndarray
    vectors: np.ndarray

    @classmethod
    def empty(cls, dim: int) -> "UpdateTable":
        """A table with no rows, of vector width ``dim``."""
        return cls(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros((0, dim))
        )

    def __len__(self) -> int:
        return int(self.class_ids.size)


@dataclass
class RoundReport:
    """Everything a client uploads at the end of a round.

    Attributes:
        client_id: reporting client.
        records: the round's outcomes, one row per frame (for metrics).
        update_entries: the cache update table U.
        frequencies: the phi vector counted over this round (by inferred
            class).
        absorbed_hits / absorbed_misses: number of samples collected under
            the Gamma / Delta rules (absorption diagnostics, Fig. 6).
        eligible_hits / eligible_misses: samples that satisfied the
            preconditions (hit / confident miss) before thresholding.
    """

    client_id: int
    records: RecordBatch
    update_entries: UpdateTable
    frequencies: np.ndarray
    absorbed_hits: int = 0
    absorbed_misses: int = 0
    eligible_hits: int = 0
    eligible_misses: int = 0
    collected_correct: int = 0
    collected_total: int = 0

    @property
    def total_latency_ms(self) -> float:
        """Summed virtual inference latency of the round.

        The time the client's device was busy computing this round —
        what a cluster placement charges to the client's clock between
        receiving a cache and uploading the round's update table.  Summed
        with the builtin ``sum`` over the rows in stream order.
        """
        return float(sum(self.records.latency_ms.tolist()))


class CoCaClient:
    """One edge client participating in the CoCa protocol.

    Args:
        client_id: index of the client (also selects its feature-drift
            profile in the model substrate).
        model: shared simulated model (deployed by the server).
        stream: the client's frame stream.
        config: CoCa hyper-parameters.
        rng: per-client generator for feature sampling.
        cache_budget_bytes: cache-size threshold Pi (the framework
            passes :meth:`~repro.core.server.CoCaServer.cache_size_limit_bytes`).
        workspace: shared probe-buffer pool for the batched engine
            (``None`` = the engine owns a private one).  The framework
            passes one workspace to every client it builds — rounds run
            clients sequentially, so a deployment-wide pool is safe and
            keeps probe scratch memory constant in the client count.
    """

    def __init__(
        self,
        client_id: int,
        model: SimulatedModel,
        stream: StreamGenerator,
        config: CoCaConfig,
        rng: np.random.Generator,
        cache_budget_bytes: int,
        workspace: LookupWorkspace | None = None,
    ) -> None:
        self.client_id = client_id
        self.model = model
        self.stream = stream
        self.config = config
        self._rng = rng
        num_classes = model.num_classes
        num_layers = model.num_cache_layers
        if cache_budget_bytes <= 0:
            raise ValueError("cache budget must be positive")
        self.cache_budget_bytes = int(cache_budget_bytes)

        self.timestamps = np.zeros(num_classes)  # tau
        self.last_frequencies = np.zeros(num_classes)  # phi of last round
        self.hit_ratio = np.zeros(num_layers)  # R, seeded by the server
        #: The client's one inference engine, holding the installed cache.
        self.engine = BatchedInferenceEngine(model, cache=None, workspace=workspace)

    @property
    def batch_engine(self) -> BatchedInferenceEngine:
        """Another name for :attr:`engine`."""
        return self.engine

    # ------------------------------------------------------------------
    # Protocol steps
    # ------------------------------------------------------------------

    def seed_hit_ratio(self, reference: np.ndarray) -> None:
        """Install the server's shared-dataset hit-ratio estimate."""
        ref = np.asarray(reference, dtype=float)
        if ref.shape != self.hit_ratio.shape:
            raise ValueError(
                f"reference shape {ref.shape} != expected {self.hit_ratio.shape}"
            )
        self.hit_ratio = ref.copy()

    def status(self) -> ClientStatus:
        """Status uploaded with the next cache-allocation request."""
        return ClientStatus(
            client_id=self.client_id,
            timestamps=self.timestamps.copy(),
            frequencies=self.last_frequencies.copy(),
            hit_ratio=self.hit_ratio.copy(),
            cache_budget_bytes=self.cache_budget_bytes,
        )

    def install_cache(self, cache: SemanticCache | None) -> None:
        """Load the cache allocated by the server for the coming round."""
        self.engine.set_cache(cache)

    def run_round(
        self,
        batch: SampleBatch | None = None,
        timings: dict[str, float] | None = None,
    ) -> RoundReport:
        """Run F (``config.frames_per_round``) inferences, maintaining
        status and the update table.

        The round is vectorized end to end: the stream yields one
        :class:`~repro.data.stream.FrameBlock`, the feature space draws
        one :class:`SampleBatch`, the batched engine returns
        :class:`BatchOutcomes` arrays, and status updates plus Eq. 3
        collection run as grouped array operations.  Outcomes are
        identical to a frame-by-frame replay of the same batch.

        Args:
            batch: pre-drawn samples to run instead of consuming the
                stream (used by the equivalence suite and benchmarks).
            timings: optional accumulator for wall-clock stage seconds
                (``"sample-gen"``, ``"probe"``, ``"model"``,
                ``"collect"``) — the ``repro profile-round`` breakdown.
        """
        if batch is None:
            frames = self.config.frames_per_round
            start = time.perf_counter() if timings is not None else 0.0
            block = self.stream.take_block(frames)
            batch = self.model.draw_samples(block, self.client_id, self._rng)
            if timings is not None:
                timings["sample-gen"] = (
                    timings.get("sample-gen", 0.0) + time.perf_counter() - start
                )
        else:
            frames = len(batch)
            if frames < 1:
                raise ValueError("batch must contain at least one sample")

        num_classes = self.model.num_classes
        out = self.engine.infer_batch_soa(batch, timings=timings)
        predictions = out.predicted_class

        # Status vectors track the *inferred* class (no labels online).
        # Batch equivalent of (tau += 1; tau[pred] = 0) per frame: classes
        # never predicted age by the round length, predicted classes reset
        # at their last occurrence and age since.
        phi = np.bincount(predictions, minlength=num_classes).astype(float)
        self.timestamps += float(frames)
        last_position = np.full(num_classes, -1)
        last_position[predictions] = np.arange(frames)
        seen = last_position >= 0
        self.timestamps[seen] = float(frames - 1) - last_position[seen]

        hit_mask = out.hit_layer >= 0
        layer_hits = np.bincount(
            out.hit_layer[hit_mask], minlength=self.model.num_cache_layers
        ).astype(float)

        report = RoundReport(
            client_id=self.client_id,
            records=out.records(batch.class_ids, self.client_id),
            update_entries=UpdateTable.empty(batch.vectors.shape[-1]),
            frequencies=phi,
        )
        start = time.perf_counter() if timings is not None else 0.0
        report.update_entries = self._collect_batch(batch, out, report)
        if timings is not None:
            timings["collect"] = (
                timings.get("collect", 0.0) + time.perf_counter() - start
            )

        self._refresh_hit_ratio(layer_hits, frames)
        self.last_frequencies = phi.copy()
        return report

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _refresh_hit_ratio(self, layer_hits: np.ndarray, frames: int) -> None:
        """EMA-blend observed hit ratios into R (active layers only).

        R holds *standalone* per-layer hit-ratio estimates (see
        :meth:`repro.core.server.CoCaServer.measure_layer_statistics`).
        With several layers active, the cumulative hits at-or-before layer
        ``j`` estimate layer ``j``'s standalone ratio, by the same
        hits-propagate-deeper hypothesis ACA relies on.
        """
        cache = self.engine.cache
        if cache is None:
            return
        blend = 0.5
        cumulative = 0.0
        for layer in cache.active_layers:
            cumulative += layer_hits[layer] / frames
            self.hit_ratio[layer] = (
                1 - blend
            ) * self.hit_ratio[layer] + blend * cumulative

    def _collect_batch(
        self,
        batch: SampleBatch,
        out: BatchOutcomes,
        report: RoundReport,
    ) -> UpdateTable:
        """Vectorized Sec. IV-C collection over a whole round (Eq. 3).

        Selection (the Gamma / Delta rules and all diagnostics counters)
        is pure array arithmetic.  The Eq. 3 fold itself is sequential
        *per (class, layer) key* — each absorb renormalizes, so the
        recurrence cannot be collapsed — but the selected samples are a
        minority of the round and each one folds all of its collected
        layers in a single array update: a miss folds every preset layer
        in place into its class's ``(L, d)`` fold row block, a hit (or a
        miss whose fold has a zero norm) the masked rows it collects.
        Key for key, the folds see the same vectors in the same stream
        order as a per-frame, per-layer fold, so the resulting table is
        identical.  The table is gathered from the fold state once.
        """
        batch_size = len(batch)
        predictions = out.predicted_class
        hit_mask = out.hit_layer >= 0
        collect_hit = hit_mask.copy()
        collect_hit[hit_mask] = out.hit_score[hit_mask] > self.config.collect_gamma
        miss_mask = ~hit_mask
        collect_miss = miss_mask.copy()
        collect_miss[miss_mask] = (
            out.top2_prob_gap[miss_mask] > self.config.collect_delta
        )
        collected = collect_hit | collect_miss

        report.eligible_hits = int(hit_mask.sum())
        report.eligible_misses = batch_size - report.eligible_hits
        report.absorbed_hits = int(collect_hit.sum())
        report.absorbed_misses = int(collect_miss.sum())
        report.collected_total = report.absorbed_hits + report.absorbed_misses
        report.collected_correct = int(
            (predictions[collected] == batch.class_ids[collected]).sum()
        )

        num_layers = self.model.num_cache_layers
        dim = batch.vectors.shape[-1]
        if not report.collected_total:
            return UpdateTable.empty(dim)

        cache = self.engine.cache
        active = np.asarray(cache.active_layers if cache is not None else [], dtype=int)
        # A hit collects the probed prefix (active layers up to and
        # including the hit layer); a miss collects every preset layer.
        prefix_of = {int(layer): k + 1 for k, layer in enumerate(active)}
        beta = self.config.beta
        vectors = batch.vectors

        # Fold state, one (L, d) row block per collected class.  U rows
        # start at zero, so "new key" and "existing key" share one
        # expression (V + beta * 0 == V).
        rows = np.flatnonzero(collected)
        classes, slots = np.unique(predictions[rows], return_inverse=True)
        tables = np.zeros((classes.size, num_layers, dim))
        exists = np.zeros((classes.size, num_layers), dtype=bool)
        hit_layer_list = out.hit_layer[rows].tolist()
        for i, slot, layer in zip(rows.tolist(), slots.tolist(), hit_layer_list):
            table = tables[slot]
            if layer < 0:
                merged = beta * table
                merged += vectors[i, :num_layers]
                norms = np.sqrt(np.einsum("kd,kd->k", merged, merged))
                if norms.all():
                    np.divide(merged, norms[:, None], out=table)
                    exists[slot] = True
                    continue
                layers = np.arange(num_layers)
            else:
                layers = active[: prefix_of[layer]]
                merged = vectors[i, layers, :] + beta * table[layers]
                norms = np.sqrt(np.einsum("kd,kd->k", merged, merged))
            ok = norms > 0
            kept = layers[ok]
            table[kept] = merged[ok] / norms[ok, None]
            exists[slot, kept] = True

        slots, layers_out = np.nonzero(exists)
        return UpdateTable(
            class_ids=classes[slots],
            layers=layers_out,
            vectors=tables[slots, layers_out],
        )
