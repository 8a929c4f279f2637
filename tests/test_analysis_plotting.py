"""Tests for ASCII plotting."""

import numpy as np
import pytest

from repro.analysis.plotting import ascii_scatter


class TestAsciiScatter:
    def test_renders_grid_of_requested_size(self, rng):
        points = rng.standard_normal((30, 2))
        plot = ascii_scatter(points, width=40, height=10, title="t")
        lines = plot.splitlines()
        assert lines[0] == "t"
        assert len(lines) == 1 + 1 + 10 + 1  # title + top + rows + bottom
        assert all(len(line) == 42 for line in lines[1:])

    def test_labels_get_distinct_markers(self, rng):
        points = np.array([[0.0, 0.0], [1.0, 1.0]])
        plot = ascii_scatter(points, labels=np.array([0, 1]))
        assert "o" in plot and "x" in plot
        assert "legend" in plot

    def test_single_point(self):
        plot = ascii_scatter(np.array([[2.0, 3.0]]))
        assert "o" in plot

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            ascii_scatter(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            ascii_scatter(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            ascii_scatter(np.zeros((3, 2)), labels=np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            ascii_scatter(np.zeros((3, 2)), width=2)

