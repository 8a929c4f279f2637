"""LearnedCache baseline (Balasubramanian et al., 2021).

LearnedCache inserts multiple *early exits* into the model; at each exit a
small learned head predicts the class and a confidence, and inference
terminates early when the head is confident.  The heads are retrained
frequently to track the stream distribution, which costs compute on the
device — the overhead the CoCa paper criticizes — and rare (long-tail)
classes never accumulate enough recent samples for effective retraining,
so their head predictions stay noisy.

Simulation mapping:

* exit heads sit at evenly spaced eligible cache layers; a head classifies
  from the layer's semantic vector against the ideal centroids, with extra
  Gaussian logit noise inversely proportional to sqrt(recent class
  frequency) — small heads are noisier than the full classifier, and
  noisier still for classes with little retraining data;
* an exit fires when the head's top-2 cosine-margin exceeds
  ``exit_margin``;
* every frame is charged :data:`HEAD_COST_MS` per evaluated exit (the
  head is a small FC layer — comparable to a cache lookup) plus an
  amortized :data:`RETRAIN_MS_PER_FRAME` for the periodic on-device
  retraining.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BaselineRunner, evenly_spaced_layers
from repro.core.deployment import Scenario
from repro.core.rng import derive_rng
from repro.models.feature import SampleBatch
from repro.sim.metrics import RecordBatch

#: Number of early-exit heads.
NUM_EXITS = 6
#: Base logit-noise scale of an exit head.
HEAD_NOISE = 0.035
#: Per-exit evaluation cost.
HEAD_COST_MS = 0.55
#: Amortized on-device retraining cost.
RETRAIN_MS_PER_FRAME = 0.85


class LearnedCache(BaselineRunner):
    """Multi-exit inference with learned per-exit predictors.

    Args:
        scenario: shared evaluation setting.
        exit_margin: top-2 cosine-margin needed to exit early.
        frames_per_round: frames per client per round.

    The heads and their costs are this module's constants
    (:data:`NUM_EXITS`, :data:`HEAD_NOISE`, :data:`HEAD_COST_MS`,
    :data:`RETRAIN_MS_PER_FRAME`).
    """

    name = "LearnedCache"

    def __init__(
        self,
        scenario: Scenario,
        exit_margin: float = 0.055,
        frames_per_round: int = 300,
    ) -> None:
        super().__init__(scenario, frames_per_round)
        model = self.model
        num_layers = model.num_cache_layers
        # Exits skip the first quarter of the network (too undiscriminative
        # for a small head) and spread evenly over the remainder.
        self.exit_layers = evenly_spaced_layers(
            num_layers, NUM_EXITS, max(1, num_layers // 4)
        )
        self.exit_margin = float(exit_margin)
        self._centroids = {j: model.ideal_centroids(j) for j in self.exit_layers}
        # Recent class frequencies per client drive the long-tail noise
        # penalty (few recent samples => poorly retrained head).
        self._recent_freq = np.full(
            (scenario.num_clients, model.num_classes), 1.0 / model.num_classes
        )
        self._round_counts = np.zeros_like(self._recent_freq)
        self._noise_rng = derive_rng(scenario.seed, "learnedcache.noise")

    def _head_prediction(
        self, client_id: int, layer: int, vector: np.ndarray
    ) -> tuple[int, float]:
        """Exit-head output on one layer's vector: (predicted class, top-2
        margin)."""
        sims = self._centroids[layer] @ vector
        freq = self._recent_freq[client_id]
        noise_scale = HEAD_NOISE / np.sqrt(
            np.maximum(freq * self.model.num_classes, 0.05)
        )
        noisy = sims + noise_scale * self._noise_rng.standard_normal(sims.size)
        order = np.argsort(noisy)
        margin = float(noisy[order[-1]] - noisy[order[-2]])
        return int(order[-1]), margin

    def process_round(self, client_id: int, batch: SampleBatch) -> RecordBatch:
        profile = self.model.profile
        predictions, _ = self.model.classify_vectors(batch.final_vectors())
        latencies = np.empty(len(batch))
        hit_layers = np.full(len(batch), -1)
        for row, vectors in enumerate(batch.vectors):
            latency = RETRAIN_MS_PER_FRAME
            for layer in self.exit_layers:
                latency += HEAD_COST_MS
                head_class, margin = self._head_prediction(
                    client_id, layer, vectors[layer]
                )
                if margin > self.exit_margin:
                    predictions[row], hit_layers[row] = head_class, layer
                    latency += profile.compute_up_to_layer_ms(layer)
                    break
            else:
                latency += profile.total_compute_ms
            latencies[row] = latency
            self._round_counts[client_id, predictions[row]] += 1
        clients = np.full(len(batch), client_id)
        return RecordBatch(batch.class_ids.copy(), predictions, latencies, hit_layers, clients)

    def on_client_round_end(self, client_id: int, round_index: int) -> None:
        """Retraining refreshes the head's notion of class frequencies."""
        counts = self._round_counts[client_id]
        total = counts.sum()
        if total > 0:
            blend = 0.5
            self._recent_freq[client_id] = (
                (1 - blend) * self._recent_freq[client_id] + blend * counts / total
            )
        self._round_counts[client_id] = 0.0
