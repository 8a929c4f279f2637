"""Reproduction of CoCa: accelerating edge inference via multi-client
collaborative caching (Liang et al., ICDE 2025).

Public API overview:

* :mod:`repro.core` — the paper's contribution: semantic cache, CoCa
  client/server, the ACA allocation algorithm, and the round framework.
* :mod:`repro.models` — calibrated simulated models (VGG/ResNet/AST) with
  a synthetic semantic feature space (see DESIGN.md for the substitution).
* :mod:`repro.data` — dataset specs, non-IID / long-tail constructions and
  temporally-local stream generators.
* :mod:`repro.cluster` — sharded multi-node scale-out: class-sharded
  global cache, routed clients, cross-shard sync, event-driven fleet
  driver.
* :mod:`repro.baselines` — Edge-Only, LearnedCache, FoggyCache, SMTM and
  classical replacement policies.
* :mod:`repro.experiments` — one driver per paper table/figure.
* :mod:`repro.sim`, :mod:`repro.lsh`, :mod:`repro.analysis` — substrates.
"""

from __future__ import annotations

import importlib
from typing import Any

__version__ = "1.1.0"

#: Public names, by the subpackage that defines them.  They load on
#: first use, so that ``python -m repro`` can size the BLAS pools before
#: anything imports numpy (see :mod:`repro.blas`).
_EXPORTS = {
    "ClusterFramework": "repro.cluster",
    "CoCaConfig": "repro.core",
    "CoCaFramework": "repro.core",
    "SemanticCache": "repro.core",
    "aca_allocate": "repro.core",
    "get_dataset": "repro.data",
    "Scenario": "repro.experiments",
    "build_model": "repro.models",
}


def __getattr__(name: str) -> Any:
    if name not in _EXPORTS:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value


__all__ = [
    "ClusterFramework",
    "CoCaConfig",
    "CoCaFramework",
    "Scenario",
    "SemanticCache",
    "aca_allocate",
    "build_model",
    "get_dataset",
    "__version__",
]
