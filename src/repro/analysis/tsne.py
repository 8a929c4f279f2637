"""A compact exact t-SNE for the Fig. 2 visualization.

The paper visualizes cosine-similarity clustering of sample semantic
vectors and cached centroids with t-SNE.  This is a faithful, small-N
implementation (exact pairwise affinities, adaptive-bandwidth perplexity
calibration, momentum gradient descent with early exaggeration) — entirely
sufficient for the few hundred points of the figure.
"""

from __future__ import annotations

import numpy as np


def _pairwise_sq_distances(points: np.ndarray) -> np.ndarray:
    squared = np.sum(points**2, axis=1)
    dist = squared[:, None] + squared[None, :] - 2.0 * points @ points.T
    np.fill_diagonal(dist, 0.0)
    return np.maximum(dist, 0.0)


def _row_affinities(distances: np.ndarray, perplexity: float) -> np.ndarray:
    """Condition P(j|i) rows via binary search on the bandwidth."""
    n = distances.shape[0]
    target_entropy = np.log(perplexity)
    P = np.zeros((n, n))
    for i in range(n):
        row = distances[i].copy()
        row[i] = np.inf
        lo, hi = 1e-10, 1e10
        beta = 1.0
        for _ in range(50):
            exp_row = np.exp(-row * beta)
            total = exp_row.sum()
            if total <= 0:
                beta *= 0.5
                continue
            probs = exp_row / total
            entropy = -np.sum(probs[probs > 0] * np.log(probs[probs > 0]))
            if abs(entropy - target_entropy) < 1e-5:
                break
            if entropy > target_entropy:
                lo = beta
                beta = beta * 2 if hi >= 1e10 else (beta + hi) / 2
            else:
                hi = beta
                beta = beta / 2 if lo <= 1e-10 else (beta + lo) / 2
        P[i] = exp_row / max(total, 1e-12)
        P[i, i] = 0.0
    return P


def tsne_embed(
    points: np.ndarray,
    perplexity: float = 20.0,
    num_iters: int = 400,
    learning_rate: float = 30.0,
    seed: int = 0,
) -> np.ndarray:
    """Embed points into 2-D with exact t-SNE.

    Args:
        points: array of shape (n, d); cosine-space inputs should be
            unit-normalized by the caller (Euclidean distance then equals
            a monotone function of cosine distance).
        perplexity: effective neighbourhood size (must be < n).
        num_iters: gradient-descent iterations.
        learning_rate: step size.
        seed: initialization seed.

    Returns:
        Array of shape (n, 2).
    """
    X = np.asarray(points, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {X.shape}")
    n = X.shape[0]
    if n < 5:
        raise ValueError(f"need at least 5 points, got {n}")
    if perplexity >= n:
        raise ValueError(f"perplexity {perplexity} must be < n={n}")

    distances = _pairwise_sq_distances(X)
    P_cond = _row_affinities(distances, perplexity)
    P = (P_cond + P_cond.T) / (2.0 * n)
    P = np.maximum(P, 1e-12)

    rng = np.random.default_rng(seed)
    Y = 1e-4 * rng.standard_normal((n, 2))
    velocity = np.zeros_like(Y)
    exaggeration_until = num_iters // 4

    for iteration in range(num_iters):
        factor = 4.0 if iteration < exaggeration_until else 1.0
        momentum = 0.5 if iteration < exaggeration_until else 0.8

        dist_y = _pairwise_sq_distances(Y)
        q_num = 1.0 / (1.0 + dist_y)
        np.fill_diagonal(q_num, 0.0)
        Q = np.maximum(q_num / q_num.sum(), 1e-12)

        PQ = (factor * P - Q) * q_num
        grad = 4.0 * ((np.diag(PQ.sum(axis=1)) - PQ) @ Y)

        velocity = momentum * velocity - learning_rate * grad
        Y = Y + velocity
        Y = Y - Y.mean(axis=0)
    return Y

