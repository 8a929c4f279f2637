"""CoCa core: semantic cache, client, server, ACA allocation, framework."""

from repro.core.allocation import (
    AllocationResult,
    aca_allocate,
    class_scores,
    select_hotspot_classes,
)
from repro.core.cache import (
    BatchedLookupSession,
    BatchLayerProbe,
    LookupWorkspace,
    SemanticCache,
)
from repro.core.client import ClientStatus, CoCaClient, RoundReport
from repro.core.config import CoCaConfig, recommended_theta
from repro.core.engine import BatchedInferenceEngine, BatchOutcomes
from repro.core.framework import CoCaFramework, FrameworkResult, RoundSummary
from repro.core.server import CoCaServer, GlobalCacheTable

__all__ = [
    "AllocationResult",
    "BatchLayerProbe",
    "BatchedInferenceEngine",
    "BatchOutcomes",
    "BatchedLookupSession",
    "ClientStatus",
    "CoCaClient",
    "CoCaConfig",
    "CoCaFramework",
    "CoCaServer",
    "FrameworkResult",
    "GlobalCacheTable",
    "LookupWorkspace",
    "RoundReport",
    "RoundSummary",
    "SemanticCache",
    "aca_allocate",
    "class_scores",
    "recommended_theta",
    "select_hotspot_classes",
]
