"""CoCa hyper-parameters with the paper's defaults.

All symbols follow the paper: alpha is the cross-layer similarity decay of
Eq. 1, beta the update-table decay of Eq. 3, gamma the global-cache decay of
Eq. 4, theta the cache-hit threshold of Eq. 2, Gamma / Delta the
sample-collection thresholds of Sec. IV-C, F the round length, and the
hot-spot mass / recency base parameterize the class scoring of Eq. 10.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class CoCaConfig:
    """Hyper-parameters of the CoCa framework.

    Attributes:
        alpha: decay of previous-layer accumulated similarity in Eq. 1
            (paper default 0.5).
        beta: decay attenuating older samples in the client's cache update
            table, Eq. 3 (paper default 0.95).
        gamma: decay of the old global-cache entry in Eq. 4 (paper
            default 0.99).
        theta: discriminative-score threshold for a cache hit (Eq. 2);
            model- and SLO-dependent, see Sec. VI-D.
        collect_gamma: threshold Gamma — a cache-hit sample reinforces the
            cache only when its discriminative score exceeds this.
        collect_delta: threshold Delta — a cache-miss sample expands the
            cache only when its top-2 probability gap exceeds this.
        frames_per_round: F, the number of inferences between cache
            allocation requests / global updates (paper default 300).
        hotspot_mass: cumulative score fraction selecting hot-spot classes
            (paper: 0.95, following SMTM).
        recency_base: base of the recency discount in Eq. 10 (paper: 0.20).
        cache_budget_fraction: client cache-size threshold Pi expressed as
            a fraction of the full global-table size for the task; the
            paper's motivation study (Fig. 1a) finds ~10% optimal.
        accuracy_loss_budget: SLO accuracy-loss constraint Omega: a
            cache layer is allocated only where its calibrated exit loss
            is at most this (:meth:`~repro.core.server.CoCaServer.eligible_layers`,
            at every allocation), not checked per inference.
        lookup_dtype: storage/compute precision of client caches built by
            the server — ``"float32"`` (default serving mode: scores
            carry ~1e-6 relative rounding against decision margins of
            ~1e-2, at twice the matmul throughput) or ``"float64"`` (the
            bit-exact mode the scalar/batch equivalence suites run on).
    """

    alpha: float = 0.5
    beta: float = 0.95
    gamma: float = 0.99
    theta: float = 0.062
    collect_gamma: float = 0.10
    collect_delta: float = 0.25
    frames_per_round: int = 300
    hotspot_mass: float = 0.95
    recency_base: float = 0.20
    cache_budget_fraction: float = 0.10
    accuracy_loss_budget: float = 0.03
    lookup_dtype: str = "float32"

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if not self.theta >= 0:  # NaN too: it would never hit
            raise ValueError(f"theta must be >= 0, got {self.theta}")
        if self.frames_per_round < 1:
            raise ValueError(
                f"frames_per_round must be >= 1, got {self.frames_per_round}"
            )
        if not 0.0 < self.hotspot_mass <= 1.0:
            raise ValueError(f"hotspot_mass must be in (0, 1], got {self.hotspot_mass}")
        if not 0.0 < self.recency_base < 1.0:
            raise ValueError(f"recency_base must be in (0, 1), got {self.recency_base}")
        if not 0.0 < self.cache_budget_fraction <= 1.0:
            raise ValueError(
                f"cache_budget_fraction must be in (0, 1], got "
                f"{self.cache_budget_fraction}"
            )
        if self.lookup_dtype not in ("float32", "float64"):
            raise ValueError(
                f'lookup_dtype must be "float32" or "float64", '
                f"got {self.lookup_dtype!r}"
            )

    @property
    def cache_dtype(self) -> np.dtype:
        """The :attr:`lookup_dtype` as a NumPy dtype."""
        return np.dtype(self.lookup_dtype)

    def with_theta(self, theta: float) -> "CoCaConfig":
        """A copy with a different hit threshold (SLO tuning)."""
        return replace(self, theta=theta)


#: Thresholds recommended by this reproduction's own Sec. VI-D-style
#: calibration, keyed by (model name, accuracy-loss budget).  The absolute
#: scale of theta depends on the feature calibration, so the values differ
#: from the paper's (see EXPERIMENTS.md); the *relationships* mirror the
#: paper: tighter SLOs need a higher theta, and models with more cache
#: layers need a higher theta because per-layer false positives compound
#: over more sequential probes.
RECOMMENDED_THETA: dict[tuple[str, float], float] = {
    ("vgg16_bn", 0.03): 0.045,
    ("vgg16_bn", 0.05): 0.035,
    ("resnet50", 0.03): 0.050,
    ("resnet50", 0.05): 0.040,
    ("resnet101", 0.03): 0.050,
    ("resnet101", 0.05): 0.040,
    ("resnet152", 0.03): 0.090,
    ("resnet152", 0.05): 0.070,
    ("ast_base", 0.03): 0.045,
    ("ast_base", 0.05): 0.035,
}


def recommended_theta(model_name: str, accuracy_loss_budget: float = 0.03) -> float:
    """Hit threshold recommended for a model under an accuracy-loss SLO."""
    key = model_name.lower()
    if not any(key == name for name, _ in RECOMMENDED_THETA):
        raise KeyError(f"no recommended theta for model {model_name!r}")
    budget = 0.03 if accuracy_loss_budget <= 0.03 else 0.05
    return RECOMMENDED_THETA[(key, budget)]
