"""FoggyCache baseline (Guo et al., MobiCom'18).

FoggyCache reuses computation *across devices*: each client keeps a local
cache of (feature vector, label) pairs indexed by A-LSH and answered by
homogenized kNN; on a local miss the query goes to the server, whose cache
aggregates entries from all clients (the cross-client reuse).  Caches use
LRU replacement — the policy the CoCa paper singles out as failing under
long-tail distributions.

Simulation mapping:

* the reuse feature is the semantic vector at a fixed early-mid layer
  (FoggyCache matches on input-derived features, i.e. shallow
  representations);
* a lookup hashes into the A-LSH index and scans only the returned
  candidates; its cost uses the model's lookup-cost coefficients over the
  candidate count;
* a server lookup adds a WiFi round trip (:data:`SERVER_RTT_MS`) and is only
  worthwhile because a server hit skips the remaining compute;
* labels are *inferred* (full-model outputs), as with every method here;
* local caches hold :data:`LOCAL_CAPACITY` entries with LRU eviction; the
  server cache aggregates what clients upload at round end.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from repro.baselines.base import BaselineRunner
from repro.core.rng import derive_rng
from repro.lsh.alsh import AdaptiveLSH
from repro.lsh.hknn import KnnVote, homogenized_knn
from repro.models.feature import SampleBatch
from repro.sim.metrics import RecordBatch

if TYPE_CHECKING:
    # Annotations only: repro.experiments imports this package.
    from repro.experiments.scenario import Scenario

#: Relative depth (0-1) of the feature layer used for matching.
REUSE_DEPTH = 0.45
#: kNN neighbourhood size.
KNN_K = 8
#: H-kNN confidence needed for reuse.
HOMOGENEITY_THRESHOLD = 0.85
#: Per-client cache entries.
LOCAL_CAPACITY = 400
#: Server cache entries.
SERVER_CAPACITY = 4000
#: Round-trip latency of a server lookup.
SERVER_RTT_MS = 9.0
#: Minimum full-model top-2 probability gap before a computed result is
#: cached (a quality gate on reuse entries: misses skew toward hard
#: frames, whose predicted labels would otherwise poison the cache).
INSERT_CONFIDENCE = 0.20


class LshLruCache:
    """Fixed-capacity (vector, label) cache: A-LSH candidates, LRU eviction."""

    def __init__(self, capacity: int, dim: int, rng: np.random.Generator) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._index = AdaptiveLSH(dim=dim, rng=rng)
        # item id -> (vector, label); order = recency (oldest first).
        self._items: OrderedDict[int, tuple[np.ndarray, int]] = OrderedDict()
        # Running mean of stored vectors: the standardization center.
        self._mean = np.zeros(dim)
        self._mean_count = 0

    def __len__(self) -> int:
        return len(self._items)

    def insert(self, vector: np.ndarray, label: int) -> None:
        vec = np.asarray(vector, dtype=float)
        item_id = self._index.insert(vec)
        self._items[item_id] = (vec.copy(), int(label))
        self._mean_count += 1
        self._mean += (vec - self._mean) / self._mean_count
        while len(self._items) > self.capacity:
            old_id, _ = self._items.popitem(last=False)
            self._index.delete(old_id)

    def candidates(self, query: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """(vectors, labels, ids) of the query's LSH bucket."""
        ids = [i for i in self._index.query(query) if i in self._items]
        if not ids:
            return np.zeros((0, query.size)), np.zeros(0, dtype=int), []
        vectors = np.stack([self._items[i][0] for i in ids])
        labels = np.array([self._items[i][1] for i in ids])
        return vectors, labels, ids

    def vote(
        self,
        query: np.ndarray,
        k: int,
        threshold: float,
        min_similarity: float = -1.0,
    ) -> tuple[KnnVote, int]:
        """H-kNN vote over the query's candidates; returns (vote, scanned)."""
        vectors, labels, ids = self.candidates(query)
        center = self._mean if self._mean_count > 0 else None
        vote = homogenized_knn(
            query,
            vectors,
            labels,
            k=k,
            threshold=threshold,
            center=center,
            min_similarity=min_similarity,
        )
        if vote.hit:
            # LRU touch of the entries that carried the vote's label.
            for item_id in ids:
                if self._items[item_id][1] == vote.label:
                    self._items.move_to_end(item_id)
        return vote, len(ids)


class FoggyCache(BaselineRunner):
    """Cross-client approximate reuse with A-LSH + H-kNN + LRU.

    Args:
        scenario: shared evaluation setting.
        min_similarity: distance criterion of the homogenized vote
            (centered cosine below this does not count as a neighbour).
        frames_per_round: frames per client per round.

    The matching layer, the vote and the cache sizes are this module's
    constants (:data:`REUSE_DEPTH`, :data:`KNN_K`,
    :data:`HOMOGENEITY_THRESHOLD`, :data:`LOCAL_CAPACITY`,
    :data:`SERVER_CAPACITY`, :data:`SERVER_RTT_MS`,
    :data:`INSERT_CONFIDENCE`).
    """

    name = "FoggyCache"

    def __init__(
        self,
        scenario: Scenario,
        min_similarity: float = 0.72,
        frames_per_round: int = 300,
    ) -> None:
        super().__init__(scenario, frames_per_round)
        model = self.model
        self.reuse_layer = int(
            np.clip(
                round(REUSE_DEPTH * (model.num_cache_layers - 1)),
                0,
                model.num_cache_layers - 1,
            )
        )
        self.min_similarity = float(min_similarity)
        dim = model.feature_space.config.dim
        lsh_rng = derive_rng(scenario.seed, "foggycache.lsh")
        self._local = [
            LshLruCache(LOCAL_CAPACITY, dim, lsh_rng)
            for _ in range(scenario.num_clients)
        ]
        self._server = LshLruCache(SERVER_CAPACITY, dim, lsh_rng)
        self._pending_uploads: list[list[tuple[np.ndarray, int]]] = [
            [] for _ in range(scenario.num_clients)
        ]

    # ------------------------------------------------------------------

    def _lookup_cost_ms(self, num_candidates: int) -> float:
        """Hash + candidate-scan cost, using the model's lookup model."""
        profile = self.model.profile
        return profile.lookup_base_ms + profile.lookup_per_entry_ms * num_candidates

    def process_round(self, client_id: int, batch: SampleBatch) -> RecordBatch:
        predictions, gaps = self.model.classify_vectors(batch.final_vectors())
        queries = batch.vectors[:, self.reuse_layer, :]
        predicted, latency, hit_layer = zip(
            *map(partial(self._infer, client_id), queries, predictions.tolist(), gaps.tolist())
        )
        clients = np.full(len(batch), client_id)
        return RecordBatch(batch.class_ids.copy(), predicted, latency, hit_layer, clients)

    def _infer(
        self,
        client_id: int,
        query: np.ndarray,
        full_prediction: int,
        full_gap: float,
    ) -> tuple[int, float, int]:
        """One frame: local cache, then server cache, then the full model
        (whose prediction and top-2 probability gap are given): its
        ``(predicted class, latency, hit layer or -1)``."""
        profile = self.model.profile
        layer = self.reuse_layer
        # Reaching the reuse layer costs its prefix compute.
        latency = profile.compute_up_to_layer_ms(layer)

        vote, scanned = self._local[client_id].vote(
            query, KNN_K, HOMOGENEITY_THRESHOLD, self.min_similarity
        )
        latency += self._lookup_cost_ms(scanned)
        if vote.hit:
            return vote.label, latency, layer

        # Local miss: consult the server's aggregated cache.
        server_vote, server_scanned = self._server.vote(
            query, KNN_K, HOMOGENEITY_THRESHOLD, self.min_similarity
        )
        latency += SERVER_RTT_MS + self._lookup_cost_ms(server_scanned)
        if server_vote.hit:
            self._local[client_id].insert(query, server_vote.label)
            return server_vote.label, latency, layer

        # Full miss: run the rest of the model; cache confident results.
        latency += profile.total_compute_ms - profile.compute_up_to_layer_ms(layer)
        if full_gap > INSERT_CONFIDENCE:
            self._local[client_id].insert(query, full_prediction)
            self._pending_uploads[client_id].append((query.copy(), full_prediction))
        return full_prediction, latency, -1

    def on_client_round_end(self, client_id: int, round_index: int) -> None:
        """Push this round's new entries to the server cache."""
        for vector, label in self._pending_uploads[client_id]:
            self._server.insert(vector, label)
        self._pending_uploads[client_id].clear()
