"""Class-distribution constructions: Dirichlet non-IID and long tail.

Two constructions from Sec. VI-A of the paper:

* **Non-IID** — per-client class proportions drawn from a Dirichlet prior
  ``Dir(eps)`` with concentration ``eps``; the paper parameterizes the
  non-IID *level* as ``p = 1 / eps`` with ``p in {0, 1, 2, 10}`` and
  ``p = 0`` denoting the IID (uniform) case.  Smaller ``eps`` (larger
  ``p``) concentrates each client's mass on fewer classes.

* **Long tail** — class sample counts decay exponentially across the class
  index, with imbalance ratio ``rho = max_i d_i / min_j d_j``.  With
  ``rho = 90`` over 100 classes the top 20% of classes hold roughly 60% of
  the samples, matching the paper's construction.
"""

from __future__ import annotations

import numpy as np


def dirichlet_class_distribution(
    num_classes: int,
    non_iid_level: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw one client's class-probability vector at a given non-IID level.

    Args:
        num_classes: number of classes in the task.
        non_iid_level: the paper's ``p = 1 / eps``; ``0`` returns the exact
            uniform (IID) distribution, larger values concentrate mass on
            fewer classes.
        rng: numpy random generator (callers own seeding for determinism).

    Returns:
        A probability vector of shape ``(num_classes,)`` summing to 1.
    """
    if num_classes < 1:
        raise ValueError(f"num_classes must be >= 1, got {num_classes}")
    if non_iid_level < 0:
        raise ValueError(f"non_iid_level must be >= 0, got {non_iid_level}")
    if non_iid_level < 1e-9:
        # Includes exact 0 and denormal levels whose reciprocal overflows.
        return np.full(num_classes, 1.0 / num_classes)
    eps = 1.0 / non_iid_level
    probs = rng.dirichlet(np.full(num_classes, eps))
    # Guard against numerically-zero components that would make a class
    # unsampleable and later break stream generation edge cases.
    probs = np.clip(probs, 1e-12, None)
    return probs / probs.sum()


def dirichlet_partition(
    num_classes: int,
    num_clients: int,
    non_iid_level: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-client class distributions under a shared non-IID level.

    Returns:
        Array of shape ``(num_clients, num_classes)``; row ``k`` is client
        ``k``'s class-probability vector.
    """
    if num_clients < 1:
        raise ValueError(f"num_clients must be >= 1, got {num_clients}")
    return np.stack(
        [
            dirichlet_class_distribution(num_classes, non_iid_level, rng)
            for _ in range(num_clients)
        ]
    )


def longtail_weights(num_classes: int, imbalance_ratio: float) -> np.ndarray:
    """Exponentially decaying class weights with a given imbalance ratio.

    Following Cao et al. (LDAM), the weight of class ``i`` is
    ``rho ** (-i / (num_classes - 1))`` so the most frequent class is
    exactly ``rho`` times the least frequent.  Weights are normalized to a
    probability vector (class 0 is the head of the tail).

    Args:
        num_classes: number of classes.
        imbalance_ratio: ``rho >= 1``; ``1`` yields the uniform distribution.
    """
    if num_classes < 1:
        raise ValueError(f"num_classes must be >= 1, got {num_classes}")
    if imbalance_ratio < 1.0:
        raise ValueError(f"imbalance_ratio must be >= 1, got {imbalance_ratio}")
    if num_classes == 1:
        return np.ones(1)
    exponents = np.arange(num_classes) / (num_classes - 1)
    weights = imbalance_ratio ** (-exponents)
    return weights / weights.sum()


def apply_longtail(
    base_distribution: np.ndarray,
    imbalance_ratio: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Impose a long tail on top of an existing class distribution.

    The long-tail weights are assigned to classes in a random order so
    that "head" classes differ across experiments, then multiplied into
    the base distribution and renormalized.

    Args:
        base_distribution: probability vector to reshape.
        imbalance_ratio: tail steepness ``rho``.
        rng: numpy generator used for the head-class shuffle.
    """
    base = np.asarray(base_distribution, dtype=float)
    if base.ndim != 1:
        raise ValueError(f"base_distribution must be 1-D, got shape {base.shape}")
    if not np.isclose(base.sum(), 1.0, atol=1e-6):
        raise ValueError("base_distribution must sum to 1")
    tail = longtail_weights(base.size, imbalance_ratio)[rng.permutation(base.size)]
    mixed = base * tail
    total = mixed.sum()
    if total <= 0:
        raise ValueError("long-tail reweighting produced an empty distribution")
    return mixed / total


def head_mass(distribution: np.ndarray, head_fraction: float = 0.2) -> float:
    """Fraction of probability mass held by the most frequent classes.

    Used to verify the paper's "top 20% of classes hold ~60% of samples"
    property of the rho=90 construction.
    """
    probs = np.sort(np.asarray(distribution, dtype=float))[::-1]
    k = max(1, int(round(head_fraction * probs.size)))
    return float(probs[:k].sum())
