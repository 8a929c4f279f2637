"""Analysis utilities: t-SNE embedding and clustering metrics (Fig. 2)."""

from repro.analysis.clustering import centroid_alignment, cosine_silhouette
from repro.analysis.plotting import ascii_scatter
from repro.analysis.tsne import tsne_embed

__all__ = [
    "ascii_scatter",
    "centroid_alignment",
    "cosine_silhouette",
    "tsne_embed",
]
