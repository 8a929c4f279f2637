"""Named, collision-checked derivation of seeded RNG streams.

Components that need their own random stream used to derive it inline as
``np.random.default_rng(seed + <magic offset>)``, scattering magic
numbers across the codebase with nothing preventing two components from
picking the same offset — which would silently correlate their draws.
:func:`derive_rng` replaces those sites: every stream is registered here
by name with its offset (and optional per-index stride), and the
registry is validated at import time so an offset collision is an
``ImportError`` at development time instead of a statistics bug at run
time.

The offsets are exactly the historical magic numbers, so every stream
produces bit-identical draws to the code it replaced — determinism
suites and tuned benchmark gates are unaffected.

Adding a stream: add a :class:`StreamSpec` entry to :data:`STREAMS`.
If validation rejects it, pick a different offset — that is the point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Highest per-stream index the collision check certifies.  Strided
#: streams (one generator per layer/shard/...) may not use an index
#: above this without re-validating the registry.
MAX_STREAM_INDEX = 4096


@dataclass(frozen=True)
class StreamSpec:
    """One named seed stream: ``effective seed = seed + offset + stride*index``.

    Attributes:
        offset: the stream's base displacement from the caller's seed.
        stride: per-index displacement for families of streams (e.g. one
            generator per layer or shard); 0 for scalar streams.
    """

    offset: int
    stride: int = 0

    def seeds(self) -> range:
        """Every effective displacement this stream can occupy."""
        if self.stride == 0:
            return range(self.offset, self.offset + 1)
        return range(
            self.offset,
            self.offset + self.stride * (MAX_STREAM_INDEX + 1),
            self.stride,
        )


#: The registry of every derived seed stream in the codebase.
STREAMS: dict[str, StreamSpec] = {
    # FoggyCache baseline: shared LSH hyperplane draws (was seed + 31_337).
    "foggycache.lsh": StreamSpec(offset=31_337),
    # Replacement-policy baseline: RANDOM eviction choices (was seed + 404).
    "replacement.evict": StreamSpec(offset=404),
    # LearnedCache baseline: exit-head noise (was seed + 77_001).
    "learnedcache.noise": StreamSpec(offset=77_001),
    # Global-updates experiment: probe-set sample draws (was seed + 9_901).
    "experiments.global-updates-probe": StreamSpec(offset=9_901),
}


def _validate(streams: dict[str, StreamSpec]) -> None:
    """Reject any two streams that can collide within the index bound."""
    occupied: dict[int, str] = {}
    for name, spec in streams.items():
        if spec.stride < 0:
            raise ValueError(f"stream {name!r}: stride must be >= 0")
        for seed in spec.seeds():
            owner = occupied.get(seed)
            if owner is not None and owner != name:
                raise ValueError(
                    f"seed-stream collision: {name!r} and {owner!r} both "
                    f"reach displacement {seed} within index "
                    f"{MAX_STREAM_INDEX}"
                )
            occupied[seed] = name
    # NOTE: scalar streams are cheap to check exhaustively; strided
    # streams occupy MAX_STREAM_INDEX+1 slots each.  With few streams
    # this stays trivial; if the registry ever grows large, switch to
    # pairwise congruence checks.


_validate(STREAMS)


def derive_rng(
    seed: int, stream: str, index: int = 0
) -> np.random.Generator:
    """A seeded generator for a registered named stream.

    Args:
        seed: the run's base seed (scenario seed, ...).
        stream: a key of :data:`STREAMS`.
        index: which member of a strided stream family (must be 0 for
            scalar streams).

    Returns:
        ``np.random.default_rng(seed + offset + stride * index)`` —
        bit-identical to the historical inline derivations.
    """
    spec = STREAMS.get(stream)
    if spec is None:
        raise KeyError(
            f"unknown RNG stream {stream!r}; register it in "
            f"repro.core.rng.STREAMS (known: {sorted(STREAMS)})"
        )
    if index < 0 or index > MAX_STREAM_INDEX:
        raise ValueError(
            f"stream index must be in [0, {MAX_STREAM_INDEX}], got {index}"
        )
    if spec.stride == 0 and index != 0:
        raise ValueError(
            f"stream {stream!r} is scalar (stride 0); index must be 0"
        )
    return np.random.default_rng(seed + spec.offset + spec.stride * index)
