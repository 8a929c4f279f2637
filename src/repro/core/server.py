"""The CoCa edge server: global cache table, global updates, allocation.

The server maintains a two-dimensional global cache table whose rows are
classes and columns are the model's preset cache layers (Sec. IV-A).  Each
round it:

* answers cache-allocation requests by running ACA over the global class
  frequencies Phi and the client's status (tau, R, Pi) and extracting the
  hot-spot classes' entries on the selected layers (Sec. IV-B), and
* folds each client's uploaded update table into the global table by
  frequency-weighted averaging (Eq. 4) and accumulates class frequencies
  (Eq. 5) — the mechanism that mitigates non-IID drift (Sec. IV-D).

The initial table and the reference per-layer hit ratios and exit losses
come from the server's *global shared dataset*, exactly as in the paper.

Merging is vectorized: :meth:`CoCaServer.apply_client_update` folds the
uploaded table — the arrays of a :class:`~repro.core.client.UpdateTable`
— with one Eq. 4 scatter pass over the flat ``(class, layer)`` index
(:meth:`GlobalCacheTable.merge_updates`).

A :class:`Calibration` is the shared dataset read once, without θ:
:func:`calibrate` draws two :func:`measure_layer_statistics` passes
(θ-free :class:`LayerScores` tables, one Eq. 2 score per (layer,
sample)) and then :func:`measure_similarity_floors`, all on one
generator, each as one block of frames and one
:class:`~repro.models.feature.SampleBatch`.  These are functions of the
model alone, and every array of a calibration is read-only, so one
calibration serves every server of a model
(:attr:`~repro.core.deployment.Scenario.calibration`).
:meth:`CoCaServer.initialize` is the one place θ meets it, through
:meth:`LayerScores.statistics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro import contracts
from repro.core.allocation import AllocationResult, aca_allocate
from repro.core.cache import PACK_BLOCK_LAYERS, LookupWorkspace, SemanticCache
from repro.core.client import UpdateTable
from repro.core.config import CoCaConfig
from repro.data.stream import FrameBlock, StreamGenerator
from repro.models.base import SimulatedModel
from repro.models.feature import DRAW_BLOCK_ROWS, SampleBatch

if TYPE_CHECKING:
    from repro.store.format import SnapshotManifest
    from repro.store.reader import MappedTableStore

_EPS = 1e-12

#: Expected *residual* client drift: the per-client component that global
#: updates cannot learn (the shared component is absorbed into the global
#: table).  The exit-loss estimate G perturbs the cache entries by this
#: much so that layers which are only accurate for *pristine* centroids
#: (typically the shallow ones, whose margins are smallest) are not
#: declared SLO-safe.
DRIFT_MARGIN = 0.08
#: Share of the classes cached during layer-statistics calibration
#: (allocations are always partial sub-tables; this matches the ~90%
#: stream coverage hot-spot selection achieves in deployment).
CACHED_FRACTION = 0.9
#: Similarity floors: this low quantile of correct fires' own-class
#: cosines, minus the margin.
FLOOR_QUANTILE = 0.03
FLOOR_MARGIN = 0.01


@dataclass(frozen=True)
class LayerScores:
    """One θ-free calibration pass (:func:`measure_layer_statistics`):
    every layer probed alone for each of ``N`` shared-dataset samples."""

    #: ``(L, N)`` Eq. 2 scores, ``-inf`` where the best similarity is <= 0.
    scores: np.ndarray
    #: ``(L, N)`` bool: the layer's best class is the sample's class.
    top1_correct: np.ndarray
    #: ``(N,)`` bool: the sample's class is cached.
    cached: np.ndarray
    #: ``(N,)`` bool: the full model classifies the sample correctly.
    model_correct: np.ndarray

    def statistics(self, theta: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-layer ``(hit_ratio, exit_loss)`` of fires, scores above ``theta``.

        * **standalone hit ratio** — probability a *cached-class* sample
          would hit at layer ``j`` probed in isolation.  This is the
          semantics ACA's layer-benefit adjustment assumes: a sample
          hitting at layer ``b`` would also hit at any deeper layer, so
          standalone ratios grow with depth and ``R[j] -= R[b]`` leaves
          each deeper layer with the *extra* hits it catches.
        * **exit loss** — accuracy the full model achieves *on the firing
          samples* (cached or not) minus the fraction of them whose
          predicted class is correct: the accuracy sacrificed by
          early-exiting at that layer.  This is the empirical estimate of
          the paper's per-client accuracy-loss function G(X, Theta) used
          to enforce the SLO constraint G <= Omega during allocation.
        """
        fire = self.scores > theta
        fires = fire.sum(axis=1)
        ratio = (fire & self.cached).sum(axis=1) / max(1, int(self.cached.sum()))
        accuracy, model_acc = (
            np.divide((fire & ok).sum(axis=1), fires, out=np.zeros(fires.size), where=fires > 0)
            for ok in (self.top1_correct, self.model_correct)
        )
        return ratio, np.maximum(0.0, model_acc - accuracy)


@dataclass(frozen=True)
class Calibration:
    """The server's θ-free reading of its shared dataset (:func:`calibrate`).

    Every array is read-only, so one calibration serves every server of
    its model, at any θ (:meth:`CoCaServer.initialize`).
    """

    #: Two passes over different random cached subsets, so layer
    #: eligibility does not hinge on one subset draw.
    passes: tuple[LayerScores, LayerScores]
    #: ``(L,)`` per-layer similarity floors (:func:`measure_similarity_floors`).
    floors: np.ndarray

    def __post_init__(self) -> None:
        for scores in self.passes:
            for array in vars(scores).values():
                array.setflags(write=False)
        self.floors.setflags(write=False)


def calibrate(
    model: SimulatedModel, rng: np.random.Generator, num_samples: int = 600
) -> Calibration:
    """Calibrate on ``num_samples`` shared-dataset samples per step, drawn
    on ``rng`` in this order: two :func:`measure_layer_statistics`
    passes, then :func:`measure_similarity_floors`."""
    first = measure_layer_statistics(model, rng, num_samples)
    second = measure_layer_statistics(model, rng, num_samples)
    return Calibration((first, second), measure_similarity_floors(model, rng, num_samples))


def _draw_shared_dataset(
    model: SimulatedModel, rng: np.random.Generator, num_samples: int
) -> tuple[FrameBlock, SampleBatch]:
    """``num_samples`` shared-dataset frames and their samples, drawn
    on ``rng``: a uniform class stream with no working set (stable
    coverage of every class), then one sample draw as client 0."""
    stream = StreamGenerator(
        class_distribution=np.full(model.num_classes, 1.0 / model.num_classes),
        mean_run_length=model.dataset.mean_run_length,
        rng=rng,
        base_difficulty=model.dataset.difficulty,
        working_set_size=None,
    )
    block = stream.take_block(num_samples)
    return block, model.draw_samples(block, 0, rng)


def measure_layer_statistics(
    model: SimulatedModel,
    rng: np.random.Generator,
    num_samples: int = 600,
) -> LayerScores:
    """Score every cache layer alone on the shared dataset.

    The measurement mirrors deployment conditions: only a random
    :data:`CACHED_FRACTION` of the classes is cached, and entries
    are perturbed by the expected client drift (:data:`DRIFT_MARGIN`).
    A stream sample of an *uncached* class that still fires the
    threshold is an erroneous hit and counts against the layer's
    accuracy — the mechanism that makes shallow layers SLO-unsafe.

    Per layer: one ``(N, d) @ (d, n)`` product, the walk's top-2
    rule (argmax, first index on ties; mask the winner, then max) and
    its Eq. 2 (:meth:`~repro.core.cache.LookupWorkspace.scores_into`);
    :meth:`LayerScores.statistics` applies θ.
    """
    num_layers = model.num_cache_layers
    num_classes = model.num_classes
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
    block, batch = _draw_shared_dataset(model, rng, num_samples)
    class_ids = block.class_ids
    predictions, _ = model.classify_vectors(batch.final_vectors())

    rows = np.arange(class_ids.size)
    scores = np.empty((num_layers, rows.size))
    top1_correct = np.empty((num_layers, rows.size), dtype=bool)
    nonpos = np.empty(rows.size, dtype=bool)
    denom = np.empty(rows.size)
    similarity = np.empty((rows.size, num_cached))
    for layer, matrix in enumerate(centroids):
        np.matmul(batch.vectors[:, layer, :], matrix.T, out=similarity)
        best = similarity.argmax(axis=1)
        a_best = similarity[rows, best]
        similarity[rows, best] = -np.inf
        a_second = similarity.max(axis=1)
        LookupWorkspace.scores_into(a_best, a_second, scores[layer], nonpos, denom)
        scores[layer, a_best <= 0] = -np.inf
        np.equal(cached[best], class_ids, out=top1_correct[layer])
    return LayerScores(
        scores=scores,
        top1_correct=top1_correct,
        cached=np.isin(class_ids, cached),
        model_correct=predictions == class_ids,
    )


def measure_similarity_floors(
    model: SimulatedModel,
    rng: np.random.Generator,
    num_samples: int = 600,
) -> np.ndarray:
    """Per-layer absolute similarity floors for cache hits.

    For each layer, draw shared-dataset samples of *cached* classes
    and record the cosine between the sample and its own class
    centroid; the floor is a low quantile of that distribution minus a
    small margin (:data:`FLOOR_QUANTILE`, :data:`FLOOR_MARGIN`).  True
    hits clear the floor essentially always, while a sample of an
    uncached class — whose best cosine is to some *other* class's
    centroid — falls below it, because an entry of the wrong class
    can never be as close as the sample's own centroid.

    The cosines are scored :data:`~repro.models.feature.DRAW_BLOCK_ROWS`
    kept rows at a time, straight from the drawn batch into one
    ``(K, L)`` array: no copy of the kept rows and no ``(L, K, d)``
    centroid gather.  Each cosine is the same product as in one
    whole-batch ``einsum``, so the floors are bit for bit those of
    ``similarity_floors`` in ``tests/oracle.py``.
    """
    num_layers = model.num_cache_layers
    centroids = np.stack(
        [model.ideal_centroids(layer) for layer in range(num_layers)]
    )  # (L, I, d)
    block, batch = _draw_shared_dataset(model, rng, num_samples)
    # Floors gate *confident* hits, so calibrate on the easy
    # majority (hard samples would not hit their own class anyway).
    keep = np.flatnonzero(batch.confusion_weights <= 0.4)
    if keep.size == 0:
        return np.full(num_layers, -1.0)
    # own_sims[k, l] = centroid(class of k, layer l) . vector(k, layer l)
    own_sims = np.empty((keep.size, num_layers))
    for start in range(0, keep.size, DRAW_BLOCK_ROWS):
        rows = keep[start : start + DRAW_BLOCK_ROWS]
        np.einsum(
            "lkd,kld->kl",
            centroids[:, block.class_ids[rows], :],
            batch.vectors[rows, :num_layers, :],
            out=own_sims[start : start + rows.size],
        )
    return np.quantile(own_sims, FLOOR_QUANTILE, axis=0) - FLOOR_MARGIN


class GlobalCacheTable:
    """The I x L table of per-(class, layer) semantic centroids.

    Args:
        num_classes: number of rows I.
        num_layers: number of columns L (preset cache layers).
        dim: dimensionality of the centroids.
    """

    def __init__(self, num_classes: int, num_layers: int, dim: int) -> None:
        if min(num_classes, num_layers, dim) < 1:
            raise ValueError("table dimensions must be positive")
        self.num_classes = num_classes
        self.num_layers = num_layers
        self.dim = dim
        self.entries = np.zeros((num_classes, num_layers, dim))
        self.filled = np.zeros((num_classes, num_layers), dtype=bool)
        self.class_freq = np.zeros(num_classes)  # Phi

    def install(self, class_id: int, layer: int, vector: np.ndarray) -> None:
        """Set an entry directly (initialization from the shared dataset)."""
        vec = np.asarray(vector, dtype=float)
        norm = np.linalg.norm(vec)
        if norm < _EPS:
            raise ValueError("cannot install a zero centroid")
        self.entries[class_id, layer] = vec / norm
        self.filled[class_id, layer] = True

    def merge_updates(
        self,
        class_ids: np.ndarray,
        layers: np.ndarray,
        update_vectors: np.ndarray,
        local_freqs: np.ndarray,
        gamma: float,
    ) -> None:
        """Eq. 4 for a whole batch of ``(class, layer)`` entries at once.

        Per ``(class_ids[k], layers[k])`` entry: an unfilled slot installs
        the normalized update, a filled one becomes the normalized
        ``gamma * Phi/(Phi+phi) * E + phi/(Phi+phi) * U``; zero-frequency
        and zero-norm updates are skipped.  Executed as vectorized
        scatter updates on a flat ``(class, layer)`` index.  Keys must be
        unique (one update table never holds two entries for the same
        key).
        """
        ids = np.asarray(class_ids, dtype=int)
        lays = np.asarray(layers, dtype=int)
        new = np.asarray(update_vectors, dtype=float)
        freqs = np.asarray(local_freqs, dtype=float)
        if (
            ids.ndim != 1
            or lays.shape != ids.shape
            or new.shape != (ids.size, self.dim)
            or freqs.shape != ids.shape
        ):
            raise ValueError(
                f"shape mismatch: ids {ids.shape}, layers {lays.shape}, "
                f"vectors {new.shape}, freqs {freqs.shape}"
            )
        if ids.size == 0:
            return
        if np.any(ids < 0) or np.any(ids >= self.num_classes):
            raise ValueError("class id out of range")
        if np.any(lays < 0) or np.any(lays >= self.num_layers):
            raise ValueError("layer out of range")
        rows = ids * self.num_layers + lays
        if np.unique(rows).size != rows.size:
            raise ValueError("duplicate (class, layer) keys in one update")
        if np.any(freqs < 0):
            raise ValueError("local_freq must be >= 0")
        active = freqs > 0
        if not active.any():
            return
        rows, new, freqs = rows[active], new[active], freqs[active]
        global_freqs = self.class_freq[ids[active]]  # Phi before Eq. 5
        entries_rows = self.entries.reshape(-1, self.dim)  # (I * L, d) view
        filled_rows = self.filled.reshape(-1)
        if contracts.ENABLED:
            contracts.check_merge_flat_indices(rows, entries_rows.shape[0])
        norms = np.sqrt(np.einsum("kd,kd->k", new, new))
        filled = filled_rows[rows]

        install = ~filled & (norms >= _EPS)
        if install.any():
            idx = rows[install]
            entries_rows[idx] = new[install] / norms[install, None]
            filled_rows[idx] = True

        if filled.any():
            idx = rows[filled]
            global_freq = global_freqs[filled]
            denom = global_freq + freqs[filled]
            old = entries_rows[idx]
            merged = (
                gamma * (global_freq / denom)[:, None] * old
                + (freqs[filled] / denom)[:, None] * new[filled]
            )
            merged_norms = np.sqrt(np.einsum("kd,kd->k", merged, merged))
            ok = merged_norms >= _EPS
            entries_rows[idx[ok]] = merged[ok] / merged_norms[ok, None]

        if contracts.ENABLED:
            touched = rows[filled_rows[rows]]
            contracts.check_merged_rows_normalized(entries_rows, touched)

    def add_frequencies(self, local_freq: np.ndarray) -> None:
        """Eq. 5: accumulate a client's round frequencies into Phi."""
        phi = np.asarray(local_freq, dtype=float)
        if phi.shape != (self.num_classes,):
            raise ValueError(
                f"frequency vector shape {phi.shape} != ({self.num_classes},)"
            )
        if np.any(phi < 0):
            raise ValueError("frequencies must be non-negative")
        self.class_freq += phi

    def copy(self) -> "GlobalCacheTable":
        """An independent deep copy (replica seeding, shard snapshots)."""
        table = GlobalCacheTable(self.num_classes, self.num_layers, self.dim)
        table.entries = self.entries.copy()
        table.filled = self.filled.copy()
        table.class_freq = self.class_freq.copy()
        return table


class CoCaServer:
    """Edge server hosting the global cache and allocation service.

    Args:
        model: the deployed model (defines layers, sizes, feature space).
        config: CoCa hyper-parameters.
        freq_prior: virtual prior count per class seeding Phi, so that
            cold-start allocations are well defined.
    """

    def __init__(
        self,
        model: SimulatedModel,
        config: CoCaConfig,
        freq_prior: float = 50.0,
    ) -> None:
        self.model = model
        self.config = config
        num_layers = model.num_cache_layers
        self.table = GlobalCacheTable(
            num_classes=model.num_classes,
            num_layers=num_layers,
            dim=model.feature_space.config.dim,
        )
        self.table.class_freq += freq_prior
        self.saved_time_ms = np.array(
            [model.profile.saved_if_hit_at(j) for j in range(num_layers)]
        )
        self.reference_hit_ratio = np.zeros(num_layers)
        self.reference_exit_loss = np.zeros(num_layers)
        #: Per-layer absolute similarity floors for cache hits, calibrated
        #: as a low quantile of correct fires' top cosines on the shared
        #: dataset (see SemanticCache.set_similarity_floor).
        self.reference_similarity_floor = np.full(num_layers, -1.0)
        self._entry_sizes = np.array(
            [model.profile.entry_size_bytes(j) for j in range(num_layers)]
        )

    # ------------------------------------------------------------------
    # Initialization from the global shared dataset
    # ------------------------------------------------------------------

    def initialize(self, calibration: Calibration) -> None:
        """Fill the global table and set the reference vectors.

        The paper's server generates the initial cache from a global
        shared dataset and characterizes the per-layer hit behaviour
        empirically on it.  Our shared dataset is drift-free (client 0 of
        a dedicated drift-free sampler is not available, so we use the
        ideal centroids — the infinite-sample mean of shared-dataset
        features); ``calibration`` (:func:`calibrate`) holds its θ-free
        scores, and this is the one place they meet ``config.theta``:
        the reference hit ratios and exit losses average its two passes'
        statistics.
        """
        for layer in range(self.model.num_cache_layers):
            centroids = self.model.ideal_centroids(layer)
            for class_id in range(self.model.num_classes):
                self.table.install(class_id, layer, centroids[class_id])
        first, second = (
            scores.statistics(self.config.theta) for scores in calibration.passes
        )
        self.reference_hit_ratio, self.reference_exit_loss = (
            (a + b) / 2.0 for a, b in zip(first, second)
        )
        self.reference_similarity_floor = calibration.floors

    def eligible_layers(self, accuracy_loss_budget: float | None = None) -> np.ndarray:
        """Cache layers whose early-exit accuracy loss fits the SLO budget.

        Implements the formulation's constraint ``G(X, Theta) <= Omega``
        via the shared-dataset estimate: layer ``j`` may be allocated only
        when exiting there costs at most ``Omega`` accuracy on the samples
        it captures.
        """
        omega = (
            self.config.accuracy_loss_budget
            if accuracy_loss_budget is None
            else accuracy_loss_budget
        )
        # A layer that almost never fired during calibration provides no
        # evidence of safety (its measured exit loss is ~0 by vacuity), so
        # require a minimum observed hit ratio before declaring it safe.
        evidence = self.reference_hit_ratio >= 0.02
        mask = (self.reference_exit_loss <= omega) & evidence
        return np.flatnonzero(mask)

    # ------------------------------------------------------------------
    # Protocol services
    # ------------------------------------------------------------------

    def allocate(
        self,
        timestamps: np.ndarray,
        hit_ratio: np.ndarray,
        budget_bytes: int,
        local_freq: np.ndarray | None = None,
    ) -> tuple[SemanticCache, AllocationResult]:
        """Serve one cache-allocation request (Sec. IV-B).

        ACA may activate only eligible layers whose table column is
        complete, so every activated layer can hold the whole hot-spot
        set.
        """
        eligible = self.eligible_layers()
        result = aca_allocate(
            global_freq=self.table.class_freq,
            timestamps=timestamps,
            hit_ratio=hit_ratio,
            saved_time_ms=self.saved_time_ms,
            entry_sizes_bytes=self._entry_sizes,
            budget_bytes=budget_bytes,
            frames_per_round=self.config.frames_per_round,
            hotspot_mass=self.config.hotspot_mass,
            recency_base=self.config.recency_base,
            allowed_layers=eligible[self.table.filled[:, eligible].all(axis=0)],
            local_freq=local_freq,
            lookup_cost_ms=self.model.profile.lookup_cost_ms,
        )
        cache = self.build_cache(result.layers, result.hotspot_classes)
        return cache, result

    def preset_cache(self) -> SemanticCache:
        """The model's preset cache as-is, for the no-DCA ablation (the
        paper's "Normal"): every class at every preset layer, no
        budget-driven selection.  This is the Fig. 1a "100% cache size"
        configuration that dynamic allocation improves on by pruning
        lookup-heavy layers and cold classes."""
        return self.build_cache(
            range(self.model.num_cache_layers), np.arange(self.model.num_classes)
        )

    def build_cache(self, layers: Iterable[int], classes: np.ndarray) -> SemanticCache:
        """Materialize a client cache holding ``classes`` on each of
        ``layers``, with the layers' similarity floors.

        Centroids are stored in ``config.cache_dtype``.
        """
        cache = SemanticCache(
            self.model.num_classes,
            alpha=self.config.alpha,
            theta=self.config.theta,
            dtype=self.config.cache_dtype,
        )
        stack = np.array(sorted(layers), dtype=np.intp)
        ids = np.asarray(classes, dtype=np.intp)
        entries = self.table.entries[ids[None, :], stack[:, None]]  # (G, n, d)
        cache.set_layer_entries(stack, ids, entries, self.reference_similarity_floor[stack])
        return cache

    def apply_client_update(
        self,
        update: UpdateTable | None,
        local_freq: np.ndarray,
    ) -> None:
        """Global updates: one vectorized Eq. 4 pass, then Eq. 5.

        The uploaded :class:`~repro.core.client.UpdateTable` arrays go
        straight into a single :meth:`GlobalCacheTable.merge_updates`
        scatter pass over the flat ``(class, layer)`` index: the entries
        of one upload are independent, since Phi only accumulates
        afterwards.  A ``None`` update folds the frequencies alone.
        """
        local_freq = np.asarray(local_freq, dtype=float)
        if update is not None and len(update):
            ids = update.class_ids
            self.table.merge_updates(
                ids, update.layers, update.vectors, local_freq[ids], self.config.gamma
            )
        self.table.add_frequencies(local_freq)

    def cache_size_limit_bytes(self) -> int:
        """Pi: ``config.cache_budget_fraction`` of the full-table size."""
        full = self.model.num_classes * int(self._entry_sizes.sum())
        return max(1, int(self.config.cache_budget_fraction * full))

    # ------------------------------------------------------------------
    # Replication
    # ------------------------------------------------------------------

    def replicate(self) -> "CoCaServer":
        """A new server sharing this one's model but owning copied state.

        The replica holds an independent deep copy of the global table and
        of every calibrated reference vector (hit ratios, exit losses,
        similarity floors), so it allocates and merges exactly like the
        original without rerunning shared-dataset calibration.  Cluster
        nodes are built this way: one canonical server initializes once,
        then each :class:`~repro.cluster.node.EdgeServerNode` serves from
        a replica that the coordinator refreshes from the shards.
        """
        replica = CoCaServer(self.model, self.config, freq_prior=0.0)
        replica.table = self.table.copy()
        replica.reference_hit_ratio = self.reference_hit_ratio.copy()
        replica.reference_exit_loss = self.reference_exit_loss.copy()
        replica.reference_similarity_floor = self.reference_similarity_floor.copy()
        return replica

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save_snapshot(
        self,
        path: str | Path,
        epoch: int | None = None,
        layers_per_shard: int = PACK_BLOCK_LAYERS,
    ) -> "SnapshotManifest":
        """Persist the table as a mmap-ready snapshot directory.

        A JSON manifest plus per-layer-block ``.npy`` shards (see
        :mod:`repro.store`), carrying the calibrated reference vectors
        in the snapshot's meta arrays: lets a server restart from it
        (:meth:`load_table`), serving workers map it read-only
        (:meth:`~repro.store.reader.MappedTableStore.serving_cache`), or
        a trained global cache ship to a new deployment of the same
        model geometry.  Returns the written manifest.
        """
        from repro.store.writer import write_snapshot

        return write_snapshot(
            path,
            self.table,
            references={
                "reference_hit_ratio": self.reference_hit_ratio,
                "reference_exit_loss": self.reference_exit_loss,
                "reference_similarity_floor": self.reference_similarity_floor,
            },
            epoch=epoch,
            layers_per_shard=layers_per_shard,
        )

    def load_table(self, path: str | Path) -> None:
        """Restore a global cache table from a snapshot directory.

        The snapshot (:meth:`save_snapshot`, :mod:`repro.store`) is
        validated against this server's model geometry (class count,
        layer count, feature dim) and must carry every calibrated
        reference vector; it is read into a RAM table in full before any
        state is mutated, so a mismatched, incomplete or truncated
        snapshot can never corrupt the server halfway through a load —
        nor silently leave it with all-zero hit ratios, i.e. no eligible
        layer and an Edge-Only cache.  A reference array the server does
        not read (older snapshots carry ``reference_hit_accuracy``) is
        shape-checked like the others and then ignored.

        Raises:
            ValueError: naming ``path`` when it is not a snapshot
                directory (no readable manifest), or the offending array
                when anything is missing or mismatched
                (``reference_similarity_floor`` alone may be absent: it
                defaults to ``-1``, no floor).
            SnapshotIntegrityError: a shard is truncated or does not
                match the manifest.
        """
        from repro.store.reader import MappedTableStore

        # Raises, naming a non-snapshot path; the store never outlives
        # the call, whichever step fails.
        with MappedTableStore(path) as store:
            references = self._validated_references(store)
            self.table = store.as_table()
        self.reference_hit_ratio = references["reference_hit_ratio"]
        self.reference_exit_loss = references["reference_exit_loss"]
        self.reference_similarity_floor = references.get(
            "reference_similarity_floor",
            np.full(self.model.num_cache_layers, -1.0),
        )

    def _validated_references(
        self, store: "MappedTableStore"
    ) -> dict[str, np.ndarray]:
        """A snapshot's reference vectors, once its geometry and theirs
        are known to fit this server's model."""
        manifest = store.manifest
        num_layers = self.model.num_cache_layers
        expected_geometry = (
            self.model.num_classes,
            num_layers,
            self.model.feature_space.config.dim,
        )
        actual = (manifest.num_classes, manifest.num_layers, manifest.dim)
        if actual != expected_geometry:
            raise ValueError(
                f"snapshot geometry {actual} does not match the model's "
                f"{expected_geometry}"
            )
        references = store.references()
        for name in ("reference_hit_ratio", "reference_exit_loss"):
            if name not in references:
                raise ValueError(
                    f"snapshot {store.path} is missing reference array {name!r}"
                )
        for name, vector in references.items():
            if vector.shape != (num_layers,):
                raise ValueError(
                    f"snapshot reference array {name!r} has shape "
                    f"{vector.shape}, expected ({num_layers},)"
                )
        return references
