"""Terminal-friendly rendering of experiment artefacts.

The evaluation is designed to run in offline, headless environments, so
figures are rendered as ASCII scatter plots instead of depending on
matplotlib.
"""

from __future__ import annotations

import numpy as np

_MARKERS = "ox+*#@%&"


def ascii_scatter(
    points: np.ndarray,
    labels: np.ndarray | None = None,
    width: int = 64,
    height: int = 24,
    title: str = "",
) -> str:
    """Render 2-D points as an ASCII scatter plot.

    Args:
        points: array of shape (n, 2).
        labels: optional integer labels; each label gets its own marker
            (cycled beyond 8 labels).
        width / height: character-grid dimensions.
        title: optional heading line.

    Returns:
        The plot as a multi-line string.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
    if pts.shape[0] == 0:
        raise ValueError("cannot plot zero points")
    if width < 8 or height < 4:
        raise ValueError("grid too small")
    labs = (
        np.zeros(pts.shape[0], dtype=int)
        if labels is None
        else np.asarray(labels, dtype=int)
    )
    if labs.shape[0] != pts.shape[0]:
        raise ValueError("labels length must match points")

    mins = pts.min(axis=0)
    maxs = pts.max(axis=0)
    span = np.where(maxs - mins > 0, maxs - mins, 1.0)
    grid = [[" "] * width for _ in range(height)]
    for (x, y), label in zip(pts, labs):
        col = int((x - mins[0]) / span[0] * (width - 1))
        row = int((y - mins[1]) / span[1] * (height - 1))
        grid[height - 1 - row][col] = _MARKERS[label % len(_MARKERS)]
    lines = []
    if title:
        lines.append(title)
    lines.append("+" + "-" * width + "+")
    for row in grid:
        lines.append("|" + "".join(row) + "|")
    lines.append("+" + "-" * width + "+")
    if labels is not None:
        legend = "  ".join(
            f"{_MARKERS[lab % len(_MARKERS)]}={lab}" for lab in sorted(set(labs.tolist()))
        )
        lines.append("legend: " + legend)
    return "\n".join(lines)

