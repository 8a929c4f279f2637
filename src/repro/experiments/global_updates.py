"""Global-cache-update study — Fig. 2 (Sec. III-3 and VI-H).

Ten clients run CoCa with and without global updates; afterwards we draw
an equal number of samples per class from one client at a chosen cache
layer and compare how well the *cached* centroids align with the client's
sample clusters — numerically (centroid alignment, cosine silhouette) and
visually (a t-SNE embedding of samples plus centroids, as in the figure).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis import centroid_alignment, cosine_silhouette, tsne_embed
from repro.baselines import CoCaRunner
from repro.core.config import CoCaConfig
from repro.core.deployment import Scenario
from repro.core.rng import derive_rng
from repro.data.stream import FrameBlock


@dataclass
class GlobalUpdateResult:
    """Clustering quality with and without global updates.

    Attributes:
        layer: probed cache layer.
        classes: the classes visualized.
        alignment_with / alignment_without: mean cosine between cached
            entries and per-class sample means, with / without GCU.
        silhouette_with / silhouette_without: cosine silhouette of
            (samples + centroids), with / without GCU.
        embedding_with / embedding_without: 2-D t-SNE coordinates of the
            samples followed by one centroid per class.
        labels: class labels of the embedded samples (centroids follow in
            class order).
        accuracy_with / accuracy_without: overall accuracy of the two
            runs (Sec. VI-H cross-check).
    """

    layer: int
    classes: list[int]
    alignment_with: float
    alignment_without: float
    silhouette_with: float
    silhouette_without: float
    accuracy_with: float
    accuracy_without: float
    embedding_with: np.ndarray = field(repr=False, default=None)
    embedding_without: np.ndarray = field(repr=False, default=None)
    labels: np.ndarray = field(repr=False, default=None)


def run_global_update_study(
    scenario: Scenario,
    layer_fraction: float = 0.53,
    num_classes_shown: int = 4,
    samples_per_class: int = 25,
    theta: float = 0.05,
    rounds: int = 4,
    probe_client: int = 0,
    compute_embedding: bool = True,
) -> GlobalUpdateResult:
    """Fig. 2: compare cached-centroid clustering with/without GCU."""
    layer = None
    runs: dict[bool, tuple[np.ndarray, float]] = {}
    for gcu in (True, False):
        runner = CoCaRunner(
            scenario,
            config=CoCaConfig(theta=theta),
            enable_gcu=gcu,
        )
        model = runner.model
        if layer is None:
            layer = int(round(layer_fraction * (model.num_cache_layers - 1)))
        summary = runner.run(rounds).summary()
        entries = runner.framework.server.table.entries[:, layer, :].copy()
        runs[gcu] = (entries, summary.accuracy)

    model = runner.model  # same geometry for both runs (same scenario seed)
    classes = list(range(min(num_classes_shown, model.num_classes)))

    # Draw equal per-class samples for the probe client, as one block.
    rng = derive_rng(scenario.seed, "experiments.global-updates-probe")
    count = len(classes) * samples_per_class
    labels = np.repeat(np.arange(len(classes)), samples_per_class)
    block = FrameBlock(
        class_ids=np.array(classes, dtype=np.int64)[labels],
        difficulties=scenario.dataset.difficulty + 0.1 * rng.random(count),
        run_positions=np.full(count, 5, dtype=np.int64),
        stream_indices=np.tile(np.arange(samples_per_class), len(classes)),
    )
    samples = model.draw_samples(block, probe_client, rng).vectors[:, layer, :]

    metrics = {}
    embeddings = {}
    for gcu in (True, False):
        entries, _ = runs[gcu]
        class_entries = entries[classes]
        alignment = centroid_alignment(class_entries, samples, labels)
        stacked = np.vstack([samples, class_entries])
        stacked_labels = np.concatenate([labels, np.arange(len(classes))])
        silhouette = cosine_silhouette(stacked, stacked_labels)
        metrics[gcu] = (alignment, silhouette)
        if compute_embedding:
            normed = stacked / np.linalg.norm(stacked, axis=1, keepdims=True)
            embeddings[gcu] = tsne_embed(normed, perplexity=15.0, num_iters=250)

    return GlobalUpdateResult(
        layer=layer,
        classes=classes,
        alignment_with=metrics[True][0],
        alignment_without=metrics[False][0],
        silhouette_with=metrics[True][1],
        silhouette_without=metrics[False][1],
        accuracy_with=runs[True][1],
        accuracy_without=runs[False][1],
        embedding_with=embeddings.get(True),
        embedding_without=embeddings.get(False),
        labels=labels,
    )
