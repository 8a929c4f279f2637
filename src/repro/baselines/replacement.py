"""Classical cache-replacement policies for the ACA comparison (Fig. 8).

The Fig. 8 experiment holds the cache *structure* fixed — a static set of
high-benefit cache layers, each able to hold at most ``cache_size`` class
entries — and varies only the policy deciding which classes are resident:

* **LRU** — evict the class unused for longest;
* **FIFO** — evict the class resident for longest;
* **RAND** — evict a uniformly random class;
* **ACA** (run via :class:`repro.core.framework.CoCaFramework` with the
  same total memory) — the paper's allocation algorithm.

On a miss, the full model runs and the predicted class's centroids are
installed at every active layer (one eviction if full).  Entry vectors
come from the server-deployed global table, as in the other methods.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.baselines.base import ALPHA, BATCH_WINDOW, BaselineRunner, static_layers
from repro.core.cache import SemanticCache
from repro.core.deployment import Scenario
from repro.core.engine import BatchedInferenceEngine
from repro.core.rng import derive_rng
from repro.models.feature import SampleBatch
from repro.sim.metrics import RecordBatch

POLICIES = ("lru", "fifo", "rand")


class ReplacementPolicyCache(BaselineRunner):
    """Fixed-layer semantic cache managed by a classical policy.

    Args:
        scenario: shared evaluation setting.
        policy: one of ``"lru"``, ``"fifo"``, ``"rand"``.
        cache_size: maximum resident classes (entries per layer).
        theta: Eq. 2 hit threshold.
        frames_per_round: frames per client per round.

    The layer set and the decay are SMTM's:
    :func:`~repro.baselines.base.static_layers` and
    :data:`~repro.baselines.base.ALPHA`.
    """

    def __init__(
        self,
        scenario: Scenario,
        policy: str = "lru",
        cache_size: int = 30,
        theta: float = 0.04,
        frames_per_round: int = 300,
    ) -> None:
        super().__init__(scenario, frames_per_round)
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
        if cache_size < 2:
            raise ValueError(f"cache_size must be >= 2, got {cache_size}")
        self.name = policy.upper()
        self.policy = policy
        self.cache_size = int(cache_size)
        model = self.model
        self.active_layers = static_layers(model.num_cache_layers)
        self.theta = float(theta)
        self._centroids = {j: model.ideal_centroids(j) for j in self.active_layers}
        self._rand_rng = derive_rng(scenario.seed, "replacement.evict")

        # Per-client residency: class id -> insertion order (OrderedDict
        # gives both FIFO order and, via move_to_end, LRU order).
        self._resident: list[OrderedDict[int, None]] = []
        self._engines: list[BatchedInferenceEngine] = []
        for k in range(scenario.num_clients):
            resident: OrderedDict[int, None] = OrderedDict()
            # Warm start: the first `cache_size` classes by client prior.
            order = np.argsort(-scenario.distributions[k])
            for class_id in order[: self.cache_size]:
                resident[int(class_id)] = None
            self._resident.append(resident)
            self._engines.append(BatchedInferenceEngine(model))
            self._rebuild(k)

    # ------------------------------------------------------------------

    def _rebuild(self, client_id: int) -> None:
        resident = list(self._resident[client_id])
        cache = SemanticCache(self.model.num_classes, alpha=ALPHA, theta=self.theta)
        ids = np.array(resident, dtype=int)
        matrices = [self._centroids[layer][ids] for layer in self.active_layers]
        cache.set_layer_entries(self.active_layers, ids, matrices)
        self._engines[client_id].set_cache(cache)

    def _evict_one(self, client_id: int) -> None:
        resident = self._resident[client_id]
        if self.policy == "rand":
            victim = list(resident)[int(self._rand_rng.integers(len(resident)))]
            del resident[victim]
        else:
            # LRU keeps recency order via move_to_end; FIFO never reorders,
            # so popping the front implements both.
            resident.popitem(last=False)

    def process_round(self, client_id: int, batch: SampleBatch) -> RecordBatch:
        # Only a miss that installs a class rebuilds the cache.  So the
        # frames ahead run through the engine a window at a time, and the
        # ones after an install run again on the rebuilt cache.
        engine = self._engines[client_id]
        windows: list[RecordBatch] = []
        done = 0
        while done < len(batch):
            pending = batch[done : done + BATCH_WINDOW]
            out = engine.infer_batch_soa(pending)
            kept = len(pending)
            for row, (predicted, hit_layer) in enumerate(
                zip(out.predicted_class.tolist(), out.hit_layer.tolist())
            ):
                if self._admit(client_id, predicted, hit_layer):
                    kept = row + 1
                    break
            windows.append(out.records(pending.class_ids, client_id)[:kept])
            done += kept
        return RecordBatch.concat(windows)

    def _admit(self, client_id: int, predicted: int, hit_layer: int) -> bool:
        """Update the client's residency after one frame (``hit_layer``
        -1: a miss); whether it installed its class (rebuilding the cache)."""
        resident = self._resident[client_id]
        if hit_layer >= 0:
            if self.policy == "lru" and predicted in resident:
                resident.move_to_end(predicted)
        elif predicted not in resident:
            # Miss on a non-resident class: install it (policy eviction).
            while len(resident) >= self.cache_size:
                self._evict_one(client_id)
            resident[predicted] = None
            self._rebuild(client_id)
            return True
        elif self.policy == "lru":
            resident.move_to_end(predicted)
        return False

    def memory_bytes(self) -> int:
        """Total cache memory of one client (for budget-matched ACA runs)."""
        return self.cache_size * sum(
            self.model.profile.entry_size_bytes(j) for j in self.active_layers
        )
