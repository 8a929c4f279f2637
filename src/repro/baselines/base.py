"""Common multi-client round loop shared by all baseline pipelines.

Every baseline (Edge-Only, LearnedCache, FoggyCache, SMTM, LRU/FIFO/RAND)
processes the scenario's client streams in rounds of ``F`` frames per
client, reporting each client round as a
:class:`~repro.sim.metrics.RecordBatch` that aggregates exactly like
CoCa's.  A round is drawn exactly as
:meth:`repro.core.client.CoCaClient.run_round` draws it — one
``take_block(F)`` on the client's stream, then one ``draw_samples`` on
the same client generator — so every method sees bit-identical frames.
Runners only read the scenario's shared model and distributions (the
same objects a CoCa runner of that scenario reads); each builds its own
streams on fresh generators.

Subclasses implement :meth:`BaselineRunner.process_round` over the
round's :class:`~repro.models.feature.SampleBatch` and may override the
round hooks for cache maintenance / uploads.  A runner whose cache holds
still for stretches of a round runs up to :data:`BATCH_WINDOW` rows of a
stretch through its engine at once, as a row slice of the batch.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.deployment import Scenario
from repro.models.feature import SampleBatch
from repro.sim.metrics import MetricsCollector, RecordBatch

#: Most frames one engine call takes from a round.  A window bounds the
#: frames a cache change sends back through the engine, and keeps each
#: probe product small enough for the BLAS to run it on one thread.
BATCH_WINDOW = 64


def evenly_spaced_layers(num_layers: int, count: int, start: int = 0) -> list[int]:
    """A static layer set: ``count`` (at most ``num_layers - start``)
    points spread evenly from layer ``start`` to the last, rounded, unique
    and ascending; none for a count below 1."""
    count = min(count, num_layers - start)
    if count <= 0:
        return []
    return sorted({int(round(x)) for x in np.linspace(start, num_layers - 1, count)})


#: Eq. 1 cross-layer decay of the fixed-layer caches (SMTM, LRU/FIFO/RAND).
ALPHA = 0.5
#: Their number of (evenly spaced) active cache layers.
NUM_LAYERS_ACTIVE = 6
#: Their shallowest activated depth (0-1): offline profiling avoids the
#: undiscriminative early layers.
MIN_RELATIVE_DEPTH = 0.25


def static_layers(num_layers: int) -> list[int]:
    """The fixed-layer caches' layer set: :data:`NUM_LAYERS_ACTIVE`
    layers spread evenly from :data:`MIN_RELATIVE_DEPTH` to the last."""
    start = int(np.clip(round(MIN_RELATIVE_DEPTH * (num_layers - 1)), 0, num_layers - 1))
    return evenly_spaced_layers(num_layers, NUM_LAYERS_ACTIVE, start)


class BaselineRunner(ABC):
    """Drives one inference pipeline over all clients of a scenario.

    Args:
        scenario: the shared evaluation setting.
        frames_per_round: frames per client per round (the paper's F).
    """

    #: Human-readable method name (overridden by subclasses).
    name: str = "baseline"

    def __init__(self, scenario: Scenario, frames_per_round: int = 300) -> None:
        if frames_per_round < 1:
            raise ValueError(f"frames_per_round must be >= 1, got {frames_per_round}")
        self.scenario = scenario
        self.model = scenario.model
        self.frames_per_round = frames_per_round
        self._rngs = [scenario.client_rng(k) for k in range(scenario.num_clients)]
        self._streams = [
            scenario.make_stream(k, self._rngs[k]) for k in range(scenario.num_clients)
        ]

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    @abstractmethod
    def process_round(self, client_id: int, batch: SampleBatch) -> RecordBatch:
        """Run one client's round of frames in stream order: the round's
        outcomes, one row per frame of ``batch`` in its order
        (``hit_layer = -1`` where the full model answered)."""

    def on_client_round_end(self, client_id: int, round_index: int) -> None:
        """Per-client end-of-round maintenance (cache refresh, uploads)."""

    def on_round_end(self, round_index: int) -> None:
        """Global end-of-round maintenance (server-side aggregation)."""

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def run(self, num_rounds: int, warmup_rounds: int = 0) -> MetricsCollector:
        """Run the pipeline and collect records from the measured rounds."""
        if num_rounds < 1:
            raise ValueError(f"num_rounds must be >= 1, got {num_rounds}")
        if warmup_rounds < 0:
            raise ValueError(f"warmup_rounds must be >= 0, got {warmup_rounds}")
        metrics = MetricsCollector()
        for r in range(warmup_rounds + num_rounds):
            measured = r >= warmup_rounds
            for client_id in range(self.scenario.num_clients):
                block = self._streams[client_id].take_block(self.frames_per_round)
                batch = self.model.draw_samples(block, client_id, self._rngs[client_id])
                records = self.process_round(client_id, batch)
                if measured:
                    metrics.extend(records)
                self.on_client_round_end(client_id, r)
            self.on_round_end(r)
        return metrics


class EdgeOnly(BaselineRunner):
    """The conventional no-acceleration pipeline: full model, every frame."""

    name = "Edge-Only"

    def process_round(self, client_id: int, batch: SampleBatch) -> RecordBatch:
        predictions, _ = self.model.classify_vectors(batch.final_vectors())
        rows = len(batch)
        latency = np.full(rows, self.model.total_compute_ms)
        misses, clients = np.full(rows, -1), np.full(rows, client_id)
        return RecordBatch(batch.class_ids.copy(), predictions, latency, misses, clients)
