"""Baseline inference pipelines evaluated against CoCa (Sec. VI-B).

:func:`build_runner` is the one place a method name becomes a runner:
the command line and the Table II / Fig. 7 / Table III drivers all call
it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, NamedTuple

from repro.baselines.base import BaselineRunner, EdgeOnly
from repro.baselines.coca_runner import CoCaRunner
from repro.baselines.foggy_cache import FoggyCache, LshLruCache
from repro.baselines.learned_cache import LearnedCache
from repro.baselines.replacement import POLICIES, ReplacementPolicyCache
from repro.baselines.smtm import SMTM
from repro.core.config import CoCaConfig

if TYPE_CHECKING:
    # Annotations only: repro.experiments imports this package.
    from repro.experiments.scenario import Scenario


class Method(NamedTuple):
    """One method of the paper's comparison (Table II, Fig. 7, Table III)."""

    #: Short command-line name.
    key: str
    runner: type[BaselineRunner | CoCaRunner]
    #: The decision threshold :func:`build_runner` sets (``None``: none).
    threshold: str | None


#: Every method by display name (the runner's ``name``).
METHODS: dict[str, Method] = {
    "Edge-Only": Method("edge", EdgeOnly, None),
    "LearnedCache": Method("learnedcache", LearnedCache, "exit_margin"),
    "FoggyCache": Method("foggycache", FoggyCache, "min_similarity"),
    "SMTM": Method("smtm", SMTM, "theta"),
    "CoCa": Method("coca", CoCaRunner, "theta"),
}


def build_runner(
    method: str, scenario: Scenario, threshold: float | None = None
) -> BaselineRunner | CoCaRunner:
    """The runner of ``method`` (a :data:`METHODS` name) on ``scenario``.

    ``threshold`` sets the method's decision threshold (LearnedCache's
    exit margin, FoggyCache's minimum similarity, SMTM's and CoCa's
    Eq. 2 theta); ``None`` keeps the runner's constructor default.

    Raises:
        KeyError: ``method`` is not a :data:`METHODS` name.
        ValueError: a threshold for a method that has none.
    """
    if method not in METHODS:
        raise KeyError(f"unknown method {method!r}")
    _, runner, keyword = METHODS[method]
    if threshold is None:
        return runner(scenario)
    if keyword is None:
        raise ValueError(f"{method} has no decision threshold")
    if runner is CoCaRunner:
        return CoCaRunner(scenario, config=CoCaConfig(theta=threshold))
    kwargs: dict[str, Any] = {keyword: threshold}
    return runner(scenario, **kwargs)


__all__ = [
    "METHODS",
    "POLICIES",
    "Method",
    "BaselineRunner",
    "CoCaRunner",
    "EdgeOnly",
    "FoggyCache",
    "LearnedCache",
    "LshLruCache",
    "ReplacementPolicyCache",
    "SMTM",
    "build_runner",
]
