"""Adapter running CoCa itself under the baseline-runner interface.

Experiment drivers compare methods by calling ``runner.run(num_rounds)``
uniformly; this adapter wraps :class:`repro.core.framework.CoCaFramework`
(built from the same :class:`~repro.experiments.scenario.Scenario` seed
discipline, so the feature geometry and streams match the baselines).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.config import CoCaConfig
from repro.core.framework import CoCaFramework
from repro.sim.metrics import MetricsCollector

if TYPE_CHECKING:
    # Annotations only: repro.experiments imports this package.
    from repro.experiments.scenario import Scenario


class CoCaRunner:
    """CoCa under the common run(num_rounds, warmup_rounds) interface.

    Args:
        scenario: shared evaluation setting.
        config: CoCa hyper-parameters (``None`` = defaults).
        enable_dca / enable_gcu: ablation switches.
        budget_bytes: absolute per-client budget in place of the
            config's ``cache_budget_fraction`` (the Fig. 8
            memory-matched comparison).
    """

    name = "CoCa"

    def __init__(
        self,
        scenario: Scenario,
        config: CoCaConfig | None = None,
        enable_dca: bool = True,
        enable_gcu: bool = True,
        budget_bytes: int | None = None,
    ) -> None:
        self.scenario = scenario
        self.config = config if config is not None else CoCaConfig()
        self.framework = CoCaFramework(
            dataset=scenario.dataset,
            model_name=scenario.model_name,
            num_clients=scenario.num_clients,
            config=self.config,
            seed=scenario.seed,
            non_iid_level=scenario.non_iid_level,
            longtail_rho=scenario.longtail_rho,
            enable_dca=enable_dca,
            enable_gcu=enable_gcu,
            client_drift_scale=scenario.client_drift_scale,
        )
        if budget_bytes is not None:
            for client in self.framework.clients:
                client.cache_budget_bytes = int(budget_bytes)
        self.model = self.framework.model

    def run(self, num_rounds: int, warmup_rounds: int = 0) -> MetricsCollector:
        result = self.framework.run(num_rounds, warmup_rounds=warmup_rounds)
        return result.metrics
