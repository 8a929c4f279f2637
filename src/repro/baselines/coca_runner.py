"""Adapter running CoCa itself under the baseline-runner interface.

Experiment drivers compare methods by calling ``runner.run(num_rounds)``
uniformly; this adapter wraps
:meth:`repro.core.framework.CoCaFramework.from_scenario`, so a
:class:`~repro.core.deployment.Scenario`'s CoCa runners and baselines
read one model object and one calibration, and see the same frames.
"""

from __future__ import annotations

from repro.core.config import CoCaConfig
from repro.core.deployment import Scenario
from repro.core.framework import CoCaFramework
from repro.sim.metrics import MetricsCollector


class CoCaRunner:
    """CoCa under the common run(num_rounds, warmup_rounds) interface.

    Args:
        scenario: shared evaluation setting.
        config: CoCa hyper-parameters (``None`` = defaults).
        enable_dca / enable_gcu: ablation switches.
    """

    name = "CoCa"

    def __init__(
        self,
        scenario: Scenario,
        config: CoCaConfig | None = None,
        enable_dca: bool = True,
        enable_gcu: bool = True,
    ) -> None:
        self.scenario = scenario
        self.config = config if config is not None else CoCaConfig()
        self.framework = CoCaFramework.from_scenario(
            scenario, self.config, enable_dca=enable_dca, enable_gcu=enable_gcu
        )
        self.model = self.framework.model

    def run(self, num_rounds: int, warmup_rounds: int = 0) -> MetricsCollector:
        result = self.framework.run(num_rounds, warmup_rounds=warmup_rounds)
        return result.metrics
