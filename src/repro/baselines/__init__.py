"""Baseline inference pipelines evaluated against CoCa (Sec. VI-B)."""

from repro.baselines.base import BaselineRunner, EdgeOnly
from repro.baselines.coca_runner import CoCaRunner
from repro.baselines.foggy_cache import FoggyCache, LshLruCache
from repro.baselines.learned_cache import LearnedCache
from repro.baselines.replacement import POLICIES, ReplacementPolicyCache
from repro.baselines.smtm import SMTM

__all__ = [
    "POLICIES",
    "BaselineRunner",
    "CoCaRunner",
    "EdgeOnly",
    "FoggyCache",
    "LearnedCache",
    "LshLruCache",
    "ReplacementPolicyCache",
    "SMTM",
]
