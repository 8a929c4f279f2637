"""SMTM baseline (Li et al., MM'21), extended to multiple clients.

SMTM is the single-client semantic-caching system CoCa builds on: class
centroids of pooled intermediate features are cached at preset layers and
matched by cumulative cosine similarity — the same Eq. 1/2 machinery as
CoCa.  The differences, which are exactly CoCa's contributions, are:

* **no collaboration** — each client adapts its cache from its own stream
  only; there are no global updates, so non-IID feature drift is never
  shared (a client must rediscover everything itself);
* **fixed cache layers** — SMTM profiles the model offline and activates
  a static set of layers; only the *classes* in the cache adapt;
* **local class scoring** — hot-spot classes are chosen by the client's
  own frequency/recency statistics (the scheme CoCa generalizes in
  Eq. 10), with the same 95% score-mass rule.

Cache entries start from the server-deployed initial centroids (shared
dataset) and adapt locally with an EMA of confidently-hit samples.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import ALPHA, BATCH_WINDOW, BaselineRunner, static_layers
from repro.core.allocation import select_hotspot_classes
from repro.core.cache import SemanticCache
from repro.core.deployment import Scenario
from repro.core.engine import BatchedInferenceEngine
from repro.models.feature import SampleBatch
from repro.sim.metrics import RecordBatch

#: Score-mass rule for hot-spot classes.
HOTSPOT_MASS = 0.95
#: Recency discount base per stale round.
RECENCY_BASE = 0.20
#: Adaptation rate of cache entries toward confident hits.
EMA = 0.05
#: Hit score needed before a sample adapts entries.
REINFORCE_MARGIN = 0.10


class SMTM(BaselineRunner):
    """Per-client semantic cache with fixed layers and local adaptation.

    Args:
        scenario: shared evaluation setting.
        theta: Eq. 2 hit threshold.
        frames_per_round: frames per client per round (cache refresh
            cadence).

    The layer set and the decay are
    :func:`~repro.baselines.base.static_layers` and
    :data:`~repro.baselines.base.ALPHA`; the class scoring and the
    adaptation are this module's constants (:data:`HOTSPOT_MASS`,
    :data:`RECENCY_BASE`, :data:`EMA`, :data:`REINFORCE_MARGIN`).
    """

    name = "SMTM"

    def __init__(
        self,
        scenario: Scenario,
        theta: float = 0.04,
        frames_per_round: int = 300,
    ) -> None:
        super().__init__(scenario, frames_per_round)
        model = self.model
        self.active_layers = static_layers(model.num_cache_layers)
        self.theta = float(theta)

        num_classes = model.num_classes
        # Per-client adapted centroids (start = server-deployed ideals).
        self._centroids = {
            j: np.stack(
                [model.ideal_centroids(j) for _ in range(scenario.num_clients)]
            )
            for j in self.active_layers
        }
        self._freq = np.zeros((scenario.num_clients, num_classes))
        self._tau = np.zeros((scenario.num_clients, num_classes))
        self._engines = [
            BatchedInferenceEngine(model) for _ in range(scenario.num_clients)
        ]
        for k in range(scenario.num_clients):
            self._refresh_cache(k)

    # ------------------------------------------------------------------

    def _local_scores(self, client_id: int) -> np.ndarray:
        staleness = np.floor(self._tau[client_id] / self.frames_per_round)
        freq = self._freq[client_id] + 1.0  # +1 prior: cold start caches all
        return freq * np.power(RECENCY_BASE, staleness)

    def _refresh_cache(self, client_id: int) -> None:
        """Rebuild the client's cache from its local hot-spot classes."""
        hotspot = select_hotspot_classes(
            self._local_scores(client_id), HOTSPOT_MASS
        )
        cache = SemanticCache(self.model.num_classes, alpha=ALPHA, theta=self.theta)
        for layer in self.active_layers:
            cache.set_layer_entries(
                layer, hotspot, self._centroids[layer][client_id, hotspot]
            )
        self._engines[client_id].set_cache(cache)

    def process_round(self, client_id: int, batch: SampleBatch) -> RecordBatch:
        # Adaptation writes the runner's centroids, which reach the cache
        # only at the next refresh: the installed cache holds still for
        # the whole round, so its frames run through the engine a window
        # at a time.
        engine = self._engines[client_id]
        windows: list[RecordBatch] = []
        for start in range(0, len(batch), BATCH_WINDOW):
            window = batch[start : start + BATCH_WINDOW]
            out = engine.infer_batch_soa(window)
            windows.append(out.records(window.class_ids, client_id))
            for vectors, predicted, hit_layer, hit_score in zip(
                window.vectors,
                out.predicted_class.tolist(),
                out.hit_layer.tolist(),
                out.hit_score.tolist(),
            ):
                self._tau[client_id] += 1.0
                self._tau[client_id, predicted] = 0.0
                self._freq[client_id, predicted] += 1.0

                # Local adaptation: confident hits pull their entries toward
                # the sample (SMTM's online centroid update) at every layer
                # probed.
                if hit_layer >= 0 and hit_score > REINFORCE_MARGIN:
                    for layer in [j for j in self.active_layers if j <= hit_layer]:
                        current = self._centroids[layer][client_id, predicted]
                        updated = (1 - EMA) * current + EMA * vectors[layer]
                        norm = np.linalg.norm(updated)
                        if norm > 0:
                            self._centroids[layer][client_id, predicted] = updated / norm
        return RecordBatch.concat(windows)

    def on_client_round_end(self, client_id: int, round_index: int) -> None:
        self._refresh_cache(client_id)
