"""Equivalence of the array-scored ACA greedy and the scalar oracle.

``repro.core.allocation.aca_allocate`` scores every affordable candidate
layer of a greedy step in one array pass; ``oracle.aca_allocate``
(``tests/oracle.py``) rebuilds each candidate's expected cost one layer
at a time.  The greedy compares costs with a ``1e-12`` margin, so the
two agree only if every cost is equal to the last bit: these cases
require the same picks in the same order, the same ``size_bytes`` and
the same hot-spot set, on tie-heavy random inputs and on every
allocation a few protocol rounds make.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle

from repro.cluster import ClusterFramework
from repro.core import server as server_module
from repro.core.allocation import AllocationResult, aca_allocate
from repro.core.config import CoCaConfig
from repro.core.framework import CoCaFramework
from repro.data.datasets import get_dataset


def assert_same_allocation(got: AllocationResult, want: AllocationResult) -> None:
    assert got.layers == want.layers  # pick order
    assert got.size_bytes == want.size_bytes
    assert got.hotspot_classes.dtype == want.hotspot_classes.dtype
    assert np.array_equal(got.hotspot_classes, want.hotspot_classes)


_LOOKUP_COSTS = {
    "default": None,
    "free": lambda n: 0.0,
    "constant": lambda n: 0.25,
    "linear": lambda n: 0.05 * n,
}


@st.composite
def aca_inputs(draw):
    """ACA inputs on coarse grids, so equal and near-equal costs (ties)
    are common."""
    num_layers = draw(st.integers(min_value=1, max_value=12))
    num_classes = draw(st.integers(min_value=1, max_value=10))
    steps = draw(st.sampled_from([2, 4, 10]))

    def layer_grid() -> np.ndarray:
        values = draw(
            st.lists(
                st.integers(min_value=0, max_value=steps),
                min_size=num_layers,
                max_size=num_layers,
            )
        )
        return np.array(values, dtype=float) / steps

    def near_ties() -> np.ndarray:
        """Per-layer offsets of a few 1e-13: costs that differ by less
        than, or about, the greedy's 1e-12 margin."""
        values = draw(
            st.lists(
                st.integers(min_value=0, max_value=20),
                min_size=num_layers,
                max_size=num_layers,
            )
        )
        return 1e-13 * np.array(values, dtype=float)

    def per_class(elements):
        return np.array(
            draw(st.lists(elements, min_size=num_classes, max_size=num_classes)),
            dtype=float,
        )

    inputs = dict(
        global_freq=per_class(st.integers(min_value=0, max_value=3)),
        timestamps=per_class(st.sampled_from([0.0, 300.0, 600.0])),
        hit_ratio=layer_grid(),
        saved_time_ms=10.0 * layer_grid() + near_ties(),
        entry_sizes_bytes=np.array(
            draw(
                st.lists(
                    st.integers(min_value=1, max_value=16),
                    min_size=num_layers,
                    max_size=num_layers,
                )
            )
        ),
        budget_bytes=draw(st.integers(min_value=1, max_value=1500)),
        frames_per_round=300,
        lookup_cost_ms=_LOOKUP_COSTS[draw(st.sampled_from(sorted(_LOOKUP_COSTS)))],
    )
    allowed = draw(
        st.one_of(
            st.none(),
            st.just([]),
            st.lists(
                st.integers(min_value=0, max_value=num_layers - 1), unique=True
            ),
        )
    )
    if allowed is not None:
        inputs["allowed_layers"] = np.array(allowed, dtype=np.int64)
    return inputs


@given(inputs=aca_inputs())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_greedy_matches_oracle_on_tie_heavy_inputs(inputs):
    assert_same_allocation(aca_allocate(**inputs), oracle.aca_allocate(**inputs))


def test_near_tie_goes_to_the_shallower_layer():
    """Two layers whose one-layer costs differ by less than the 1e-12
    margin: the scan keeps the first (shallower) one, where an argmin
    would take the second."""
    inputs = dict(
        global_freq=np.ones(2),
        timestamps=np.zeros(2),
        hit_ratio=np.array([0.5, 0.5]),
        saved_time_ms=np.array([4.0, 4.0 + 5e-13]),
        entry_sizes_bytes=np.array([1, 1]),
        budget_bytes=2,
        frames_per_round=300,
        lookup_cost_ms=lambda n: 0.0,
    )
    result = aca_allocate(**inputs)
    assert result.layers == [0]
    assert_same_allocation(result, oracle.aca_allocate(**inputs))


# ----------------------------------------------------------------------
# Protocol replay: every allocation a few real rounds make
# ----------------------------------------------------------------------


def _record_allocations(monkeypatch) -> list[tuple[dict, AllocationResult]]:
    """Route the server's ACA calls through a spy that snapshots the
    inputs at call time (the global table keeps changing afterwards)."""
    calls: list[tuple[dict, AllocationResult]] = []

    def spy(**kwargs):
        snapshot = {
            key: value.copy() if isinstance(value, np.ndarray) else value
            for key, value in kwargs.items()
        }
        result = aca_allocate(**kwargs)
        calls.append((snapshot, result))
        return result

    monkeypatch.setattr(server_module, "aca_allocate", spy)
    return calls


def _framework_kwargs():
    return dict(
        dataset=get_dataset("ucf101", 15),
        model_name="resnet50",
        num_clients=3,
        config=CoCaConfig(frames_per_round=40),
        seed=5,
        non_iid_level=0.5,
    )


@pytest.mark.parametrize("deployment", ["single", "cluster"])
def test_protocol_allocations_match_oracle(monkeypatch, deployment):
    calls = _record_allocations(monkeypatch)
    if deployment == "single":
        CoCaFramework(**_framework_kwargs()).run(3)
    else:
        ClusterFramework(num_shards=2, **_framework_kwargs()).run(3)
    assert len(calls) >= 9  # 3 clients x 3 rounds
    assert any(len(result.layers) > 1 for _, result in calls)
    for inputs, result in calls:
        assert_same_allocation(result, oracle.aca_allocate(**inputs))
