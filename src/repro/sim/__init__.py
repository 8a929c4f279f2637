"""Simulation substrate: virtual time, metric aggregation, server load.

This package replaces the paper's physical testbed (Jetson TX2 clients, WiFi
router, Docker Swarm + MPI) with deterministic models so that every
experiment is reproducible on a laptop.  See DESIGN.md for the substitution
rationale.
"""

from repro.sim.clock import VirtualClock
from repro.sim.metrics import (
    LatencySummary,
    MetricsCollector,
    MetricsSummary,
    RecordBatch,
    merge_summaries,
    per_class_hit_rates,
    summarize_latencies,
)
from repro.sim.network import ServerLoadModel

__all__ = [
    "LatencySummary",
    "MetricsCollector",
    "MetricsSummary",
    "RecordBatch",
    "ServerLoadModel",
    "VirtualClock",
    "merge_summaries",
    "per_class_hit_rates",
    "summarize_latencies",
]
