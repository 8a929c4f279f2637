"""Memory regressions of the set-up draws, read with ``tracemalloc``.

NumPy reports its data buffers to ``tracemalloc``, so a traced peak is
the arrays a call holds at once, the same on any host.  The server's
calibration draws 600-frame batches, and before the row-blocked mix a
draw held three batch-sized float64 arrays at once.
"""

import tracemalloc

import numpy as np

from repro.core.server import measure_layer_statistics, measure_similarity_floors
from repro.data.datasets import get_dataset
from repro.data.stream import StreamGenerator
from repro.models.zoo import build_model


def _traced_peak(call):
    """Bytes a call allocates at its peak, and its result."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def _resnet152_ucf101():
    # Four clients, so the draw also adds the client drift.
    return build_model("resnet152", get_dataset("ucf101"), num_clients=4, seed=0)


def test_draw_peaks_near_its_output():
    model = _resnet152_ucf101()
    rng = np.random.default_rng(0)
    stream = StreamGenerator(
        class_distribution=np.full(model.num_classes, 1.0 / model.num_classes),
        mean_run_length=model.dataset.mean_run_length,
        rng=rng,
        working_set_size=None,
    )
    block = stream.take_block(600)
    model.draw_samples(block, 0, rng)  # warm any lazy state
    peak, batch = _traced_peak(lambda: model.draw_samples(block, 0, rng))
    assert peak <= 1.5 * batch.vectors.nbytes


def test_similarity_floors_peak_near_their_draw():
    model = _resnet152_ucf101()
    measure_similarity_floors(model, np.random.default_rng(0))  # warm
    peak, floors = _traced_peak(
        lambda: measure_similarity_floors(model, np.random.default_rng(1))
    )
    assert floors.shape == (model.num_cache_layers,)
    draw_bytes = 600 * (model.num_cache_layers + 1) * model.feature_space.config.dim * 8
    assert peak <= 1.75 * draw_bytes


def test_layer_statistics_peak_near_their_draw():
    """The calibration scores one layer at a time, so besides its draw
    it holds one ``(rows, n)`` similarity block and the ``(L, rows)``
    score table.  Traced on resnet152 / ucf101, peak over draw read 1.44
    (1.74 when it stepped four layers at a time through the walk's
    block step)."""
    model = _resnet152_ucf101()
    measure_layer_statistics(model, np.random.default_rng(0))  # warm
    peak, table = _traced_peak(
        lambda: measure_layer_statistics(model, np.random.default_rng(1))
    )
    assert table.scores.shape == (model.num_cache_layers, 600)
    draw_bytes = 600 * (model.num_cache_layers + 1) * model.feature_space.config.dim * 8
    assert peak <= 2.0 * draw_bytes
