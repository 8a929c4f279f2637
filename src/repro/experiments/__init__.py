"""Experiment drivers shared by benchmarks and examples (one per paper result).

Every driver runs its methods on one
:class:`~repro.core.deployment.Scenario` (re-exported here), so the
runners of a table or a sweep read one model object and one server
calibration, and see the same frames.
"""

from repro.core.deployment import Scenario
from repro.experiments.ablation import AblationPoint, format_ablation_table, run_ablation
from repro.experiments.allocation import AllocationPoint, run_allocation_comparison
from repro.experiments.design_ablations import (
    DesignPoint,
    format_design_points,
    run_alpha_ablation,
    run_hotspot_mass_ablation,
    run_local_blend_ablation,
    run_update_weighting_ablation,
)
from repro.experiments.distribution import (
    MethodPoint,
    format_method_points,
    run_longtail_comparison,
    run_noniid_sweep,
)
from repro.experiments.cluster_scale import (
    ClusterScalePoint,
    format_cluster_table,
    run_cluster_scale,
)
from repro.experiments.global_updates import GlobalUpdateResult, run_global_update_study
from repro.experiments.motivation import (
    CacheSizePoint,
    HotspotCountPoint,
    LayerStatPoint,
    run_cache_size_sweep,
    run_hotspot_count_sweep,
    run_per_layer_stats,
)
from repro.experiments.slo import SloRow, format_slo_table, run_slo_experiment
from repro.experiments.system_load import (
    ClientLoadPoint,
    UpdateCyclePoint,
    run_client_load_sweep,
    run_update_cycle_sweep,
)
from repro.experiments.thresholds import (
    CollectionPoint,
    ThetaPoint,
    run_delta_sweep,
    run_gamma_sweep,
    run_theta_sweep,
)

__all__ = [
    "AblationPoint",
    "DesignPoint",
    "AllocationPoint",
    "CacheSizePoint",
    "ClientLoadPoint",
    "ClusterScalePoint",
    "CollectionPoint",
    "GlobalUpdateResult",
    "HotspotCountPoint",
    "LayerStatPoint",
    "MethodPoint",
    "Scenario",
    "SloRow",
    "ThetaPoint",
    "UpdateCyclePoint",
    "format_ablation_table",
    "format_cluster_table",
    "format_design_points",
    "format_method_points",
    "format_slo_table",
    "run_ablation",
    "run_allocation_comparison",
    "run_alpha_ablation",
    "run_cache_size_sweep",
    "run_client_load_sweep",
    "run_cluster_scale",
    "run_delta_sweep",
    "run_gamma_sweep",
    "run_global_update_study",
    "run_hotspot_count_sweep",
    "run_hotspot_mass_ablation",
    "run_local_blend_ablation",
    "run_longtail_comparison",
    "run_noniid_sweep",
    "run_per_layer_stats",
    "run_slo_experiment",
    "run_theta_sweep",
    "run_update_weighting_ablation",
    "run_update_cycle_sweep",
]
