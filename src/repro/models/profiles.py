"""Latency and memory profiles of the simulated models.

Latency in the paper is additive: executing blocks costs their compute
time, and every *active* cache layer adds a lookup cost that grows with the
number of entries scanned.  The paper's own measurements anchor the
calibration:

* ResNet101 end-to-end (no cache) ~= 40.6 ms on UCF101-50 (Table I);
* the total lookup latency of all 34 ResNet101 cache layers with a
  50-class cache equals 56.22% of the no-cache inference latency
  (Sec. III-1), i.e. ~0.67 ms per layer at 50 entries.

Memory accounting uses per-layer entry sizes: a cache entry at layer ``j``
is the pooled channel vector of that layer, so its size is
``channels_j * 4`` bytes; deep layers cost more memory, exactly the
``m_{i,j}`` of the paper's Eq. 6.

The lookup-cost definition lives in exactly one place —
:class:`LookupCostModel` / the profile's ``lookup_base_ms`` /
``lookup_per_entry_ms`` fields — and is shared by the inference engines
and ACA's expected-latency greedy, so the optimizer can never drift from
what the engine actually charges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

#: Default lookup-cost calibration: 34 ResNet101 cache layers at 50
#: entries cost ~56% of the no-cache inference latency (Sec. III-1).
#: These are the ONLY copies of the literals — every consumer (engine,
#: ACA, profiles) goes through :class:`LookupCostModel` / a profile.
DEFAULT_LOOKUP_BASE_MS = 0.28
DEFAULT_LOOKUP_PER_ENTRY_MS = 0.0078


@dataclass(frozen=True)
class LookupCostModel:
    """The affine cache-lookup cost shared by every latency consumer.

    One lookup of a cache layer holding ``n > 0`` entries costs
    ``base_ms + per_entry_ms * n``; an empty layer costs nothing.  The
    inference engine charges this cost per probed layer, and ACA's
    expected-latency greedy optimizes against the *same* definition —
    extracting it here is what keeps the two from drifting apart.

    Attributes:
        base_ms: fixed cost of evaluating one active cache layer
            (pooling + normalization + bookkeeping).
        per_entry_ms: additional cost per cache entry scanned.
    """

    base_ms: float = DEFAULT_LOOKUP_BASE_MS
    per_entry_ms: float = DEFAULT_LOOKUP_PER_ENTRY_MS

    def __post_init__(self) -> None:
        if self.base_ms < 0 or self.per_entry_ms < 0:
            raise ValueError("lookup costs must be non-negative")

    def cost_ms(self, num_entries: int) -> float:
        """Cost of one cache-layer lookup scanning ``num_entries`` entries."""
        if num_entries < 0:
            raise ValueError(f"num_entries must be >= 0, got {num_entries}")
        if num_entries == 0:
            return 0.0
        return self.base_ms + self.per_entry_ms * num_entries

    __call__ = cost_ms


@dataclass(frozen=True)
class LatencyProfile:
    """Per-block compute times plus the cache-lookup cost model.

    A model with ``L`` cache layers has ``L + 1`` blocks; cache layer ``j``
    sits after block ``j`` (0-based).  A cache hit at layer ``j`` skips
    blocks ``j+1 .. L``.

    Attributes:
        block_times_ms: compute time of each of the ``L + 1`` blocks.
        lookup_base_ms: fixed cost of evaluating one active cache layer
            (pooling + normalization + bookkeeping).
        lookup_per_entry_ms: additional cost per cache entry scanned.
        entry_sizes_bytes: size of one cache entry at each of the ``L``
            cache layers (the per-class semantic centroid).
    """

    block_times_ms: tuple[float, ...]
    lookup_base_ms: float
    lookup_per_entry_ms: float
    entry_sizes_bytes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.block_times_ms) < 2:
            raise ValueError("need at least 2 blocks (1 cache layer)")
        if any(t < 0 for t in self.block_times_ms):
            raise ValueError("block times must be non-negative")
        if self.lookup_base_ms < 0 or self.lookup_per_entry_ms < 0:
            raise ValueError("lookup costs must be non-negative")
        if len(self.entry_sizes_bytes) != self.num_cache_layers:
            raise ValueError(
                f"entry_sizes_bytes must have {self.num_cache_layers} elements, "
                f"got {len(self.entry_sizes_bytes)}"
            )
        if any(s <= 0 for s in self.entry_sizes_bytes):
            raise ValueError("entry sizes must be positive")

    @property
    def num_blocks(self) -> int:
        return len(self.block_times_ms)

    @property
    def num_cache_layers(self) -> int:
        return len(self.block_times_ms) - 1

    @property
    def total_compute_ms(self) -> float:
        """End-to-end compute latency with no caching (Edge-Only)."""
        return float(sum(self.block_times_ms))

    def block_time_ms(self, block: int) -> float:
        return self.block_times_ms[block]

    def compute_up_to_layer_ms(self, layer: int) -> float:
        """Compute cost of blocks 0..layer (everything executed before a
        hit at cache layer ``layer`` can return)."""
        if not 0 <= layer < self.num_cache_layers:
            raise ValueError(f"layer {layer} out of range")
        return float(sum(self.block_times_ms[: layer + 1]))

    def saved_if_hit_at(self, layer: int) -> float:
        """Compute time skipped by a hit at cache layer ``layer`` (the
        paper's saved-inference-time vector Upsilon, compute time only)."""
        return self.total_compute_ms - self.compute_up_to_layer_ms(layer)

    @cached_property
    def lookup_cost_model(self) -> LookupCostModel:
        """This profile's lookup-cost definition as a shareable object
        (handed to ACA so allocation optimizes the true deployment cost)."""
        return LookupCostModel(
            base_ms=self.lookup_base_ms, per_entry_ms=self.lookup_per_entry_ms
        )

    def lookup_cost_ms(self, num_entries: int) -> float:
        """Cost of one cache-layer lookup scanning ``num_entries`` entries."""
        return self.lookup_cost_model.cost_ms(num_entries)

    def entry_size_bytes(self, layer: int) -> int:
        return self.entry_sizes_bytes[layer]


def build_profile(
    total_compute_ms: float,
    num_cache_layers: int,
    channels_per_layer: list[int],
    block_weights: list[float] | None = None,
    lookup_base_ms: float = DEFAULT_LOOKUP_BASE_MS,
    lookup_per_entry_ms: float = DEFAULT_LOOKUP_PER_ENTRY_MS,
) -> LatencyProfile:
    """Construct a :class:`LatencyProfile` from a total-latency budget.

    Args:
        total_compute_ms: calibrated end-to-end latency of the model.
        num_cache_layers: number of preset cache layers ``L``.
        channels_per_layer: pooled channel count at each cache layer
            (determines entry sizes; 4 bytes per channel).
        block_weights: optional relative compute weights of the ``L + 1``
            blocks; defaults to uniform.
        lookup_base_ms / lookup_per_entry_ms: lookup cost model, calibrated
            so 34 ResNet101 layers at 50 entries cost ~56% of the no-cache
            latency.
    """
    if total_compute_ms <= 0:
        raise ValueError("total_compute_ms must be positive")
    num_blocks = num_cache_layers + 1
    if block_weights is None:
        weights = np.full(num_blocks, 1.0)
    else:
        weights = np.asarray(block_weights, dtype=float)
        if weights.size != num_blocks:
            raise ValueError(
                f"block_weights must have {num_blocks} elements, got {weights.size}"
            )
        if np.any(weights <= 0):
            raise ValueError("block weights must be positive")
    weights = weights / weights.sum()
    block_times = tuple(float(t) for t in total_compute_ms * weights)
    if len(channels_per_layer) != num_cache_layers:
        raise ValueError(
            f"channels_per_layer must have {num_cache_layers} elements, "
            f"got {len(channels_per_layer)}"
        )
    entry_sizes = tuple(4 * int(c) for c in channels_per_layer)
    return LatencyProfile(
        block_times_ms=block_times,
        lookup_base_ms=lookup_base_ms,
        lookup_per_entry_ms=lookup_per_entry_ms,
        entry_sizes_bytes=entry_sizes,
    )


@dataclass(frozen=True)
class ResNetStagePlan:
    """Residual-stage layout used to derive ResNet channel counts / weights.

    Cache layers sit after the stem and after every residual block (hence
    ResNet101's 1 + 33 = 34 cache layers, matching the paper's "up to 34
    cache layers"); a final classifier-head block follows the last cache
    layer.
    """

    blocks_per_stage: tuple[int, ...] = (3, 4, 23, 3)
    channels_per_stage: tuple[int, ...] = (256, 512, 1024, 2048)
    stage_weight: tuple[float, ...] = field(default=(0.8, 0.9, 1.0, 1.35))
    stem_channels: int = 64
    stem_weight: float = 0.9
    head_weight: float = 0.45

    @property
    def num_cache_layers(self) -> int:
        return 1 + sum(self.blocks_per_stage)

    def channels(self) -> list[int]:
        """Pooled channel count at each cache layer (stem + every block)."""
        out: list[int] = [self.stem_channels]
        for count, ch in zip(self.blocks_per_stage, self.channels_per_stage):
            out.extend([ch] * count)
        return out

    def weights(self) -> list[float]:
        """Relative compute weights of the ``L + 1`` blocks (stem, residual
        blocks, classifier head)."""
        per_block: list[float] = [self.stem_weight]
        for count, w in zip(self.blocks_per_stage, self.stage_weight):
            per_block.extend([w] * count)
        per_block.append(self.head_weight)
        return per_block
