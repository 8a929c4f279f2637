"""Temporally-local class streams — the workload the cache exploits.

Result caching pays off because consecutive frames of a video stream are
highly correlated: the same class persists for many frames ("temporal
locality", Sec. II-2).  We model a client's stream with *two levels* of
locality, matching how a camera feed actually behaves:

* a **working set** of classes — the handful of things currently in view
  of the camera (sampled from the client's class distribution) — which
  churns slowly: each run replaces one member with a fresh class with a
  small probability (a "scene change");
* **runs** — geometric-length bursts of consecutive same-class frames
  (mean = ``mean_run_length``), drawn from the working set weighted by
  the client distribution.

The working set is what makes recency-based caching (Eq. 10) effective:
classes recur within a few hundred frames while in the set, and a class
that newly enters the set first misses the cache (the full model handles
it) and is cached from the next round on.

Each frame also carries a *difficulty* in [0, 1): frames early in a run
are slightly harder (scene transitions), and a per-frame random component
models intra-class variation.  The model substrate turns difficulty into
feature confusion, which is what produces the paper's "easy samples hit
at shallow cache layers" behaviour (Fig. 1b).

One generator produces every frame: :meth:`StreamGenerator.take_block`
returns a :class:`FrameBlock` — a structure-of-arrays view of the
two-level process, generated one *run* at a time with the per-frame
difficulty arithmetic vectorized.  Blocks feed
:meth:`repro.models.feature.SemanticFeatureSpace.draw_samples`; no
per-frame Python object exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Width of the per-frame uniform difficulty component.
DIFFICULTY_JITTER = 0.25
#: Extra difficulty applied to the first frames of a run, decaying
#: geometrically (halving) with run position.
TRANSITION_PENALTY = 0.08


@dataclass(frozen=True)
class FrameBlock:
    """A contiguous block of stream frames as a structure of arrays.

    Four aligned arrays of equal length.  Produced by
    :meth:`StreamGenerator.take_block` and consumed directly by
    :meth:`repro.models.feature.SemanticFeatureSpace.draw_samples`.

    Attributes:
        class_ids: ground-truth class per frame, shape ``(n,)``.
        difficulties: per-frame difficulty in [0, 1), shape ``(n,)``.
        run_positions: 0-based index within the same-class run, ``(n,)``.
        stream_indices: global stream index per frame, ``(n,)``.
    """

    class_ids: np.ndarray
    difficulties: np.ndarray
    run_positions: np.ndarray
    stream_indices: np.ndarray

    def __post_init__(self) -> None:
        n = self.class_ids.shape
        for name in ("difficulties", "run_positions", "stream_indices"):
            if getattr(self, name).shape != n:
                raise ValueError(f"{name} shape {getattr(self, name).shape} != {n}")

    def __len__(self) -> int:
        return int(self.class_ids.size)

    def __getitem__(self, rows: slice) -> "FrameBlock":
        """The frames of a row slice, as views of this block's arrays."""
        return FrameBlock(
            self.class_ids[rows],
            self.difficulties[rows],
            self.run_positions[rows],
            self.stream_indices[rows],
        )


class StreamGenerator:
    """Generates an endless temporally-local frame stream for one client.

    Args:
        class_distribution: probability vector over classes for this client
            (from :func:`repro.data.partition.dirichlet_partition`, possibly
            long-tailed).
        mean_run_length: expected frames per same-class run; larger values
            mean stronger temporal locality.
        rng: numpy generator; streams with equal seeds are identical.
        base_difficulty: dataset-level difficulty offset (see
            :class:`repro.data.datasets.DatasetSpec`); every frame adds
            :data:`TRANSITION_PENALTY` and :data:`DIFFICULTY_JITTER`
            terms to it.
        working_set_size: number of classes simultaneously "in view";
            ``None`` or a value >= the class count disables the working
            set (every run samples the full distribution).
        churn_probability: per-run probability that one working-set member
            is replaced by a fresh class (a scene change).
    """

    def __init__(
        self,
        class_distribution: np.ndarray,
        mean_run_length: float,
        rng: np.random.Generator,
        base_difficulty: float = 0.3,
        working_set_size: int | None = 10,
        churn_probability: float = 0.08,
    ) -> None:
        probs = np.asarray(class_distribution, dtype=float)
        if probs.ndim != 1 or probs.size < 1:
            raise ValueError("class_distribution must be a non-empty 1-D vector")
        if np.any(probs < 0) or not np.isclose(probs.sum(), 1.0, atol=1e-6):
            raise ValueError("class_distribution must be a probability vector")
        if mean_run_length < 1.0:
            raise ValueError(f"mean_run_length must be >= 1, got {mean_run_length}")
        if not 0.0 <= base_difficulty < 1.0:
            raise ValueError(f"base_difficulty must be in [0, 1), got {base_difficulty}")

        if not 0.0 <= churn_probability <= 1.0:
            raise ValueError(
                f"churn_probability must be in [0, 1], got {churn_probability}"
            )
        self._probs = probs / probs.sum()
        self._classes = np.arange(probs.size)
        self._mean_run_length = float(mean_run_length)
        self._rng = rng
        self._base_difficulty = float(base_difficulty)
        self._churn = float(churn_probability)
        self._index = 0
        self._current_class: int | None = None
        self._remaining_in_run = 0
        self._run_position = 0

        if working_set_size is None or working_set_size >= probs.size:
            self._working_set: np.ndarray | None = None
        else:
            if working_set_size < 1:
                raise ValueError(
                    f"working_set_size must be >= 1, got {working_set_size}"
                )
            self._working_set = rng.choice(
                self._classes, size=working_set_size, replace=False, p=self._probs
            )

    @property
    def num_classes(self) -> int:
        return int(self._probs.size)

    def _maybe_churn_working_set(self) -> None:
        if self._working_set is None or self._rng.random() >= self._churn:
            return
        outside = np.setdiff1d(self._classes, self._working_set)
        if outside.size == 0:
            return
        weights = self._probs[outside]
        total = weights.sum()
        if total <= 0:
            return
        newcomer = int(self._rng.choice(outside, p=weights / total))
        slot = int(self._rng.integers(self._working_set.size))
        self._working_set[slot] = newcomer

    def _draw_run_class(self) -> int:
        if self._working_set is None:
            return int(self._rng.choice(self._classes, p=self._probs))
        weights = self._probs[self._working_set]
        total = weights.sum()
        if total <= 0:
            return int(self._rng.choice(self._working_set))
        return int(self._rng.choice(self._working_set, p=weights / total))

    def _start_new_run(self) -> None:
        self._maybe_churn_working_set()
        self._current_class = self._draw_run_class()
        # Geometric run length with the configured mean (support >= 1).
        p_stop = 1.0 / self._mean_run_length
        self._remaining_in_run = int(self._rng.geometric(p_stop))
        self._run_position = 0

    def take_block(self, count: int) -> FrameBlock:
        """Produce the next ``count`` frames as a :class:`FrameBlock`.

        The two-level process (working-set churn, run class/length draws)
        advances run by run; the per-frame work — difficulty transition
        decay plus uniform jitter — is one array operation per run, so the
        Python cost is proportional to the number of *runs*, not frames.
        A run may span calls: with no other draws on the generator in
        between, consecutive blocks of any sizes concatenate to exactly
        the frames one block of their total size holds.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        class_parts: list[np.ndarray] = []
        diff_parts: list[np.ndarray] = []
        pos_parts: list[np.ndarray] = []
        produced = 0
        while produced < count:
            if self._remaining_in_run <= 0:
                self._start_new_run()
            assert self._current_class is not None
            n = min(self._remaining_in_run, count - produced)
            positions = self._run_position + np.arange(n)
            transition = TRANSITION_PENALTY * np.power(0.5, positions)
            jitter = self._rng.uniform(0.0, DIFFICULTY_JITTER, size=n)
            difficulties = np.minimum(
                0.999, self._base_difficulty + transition + jitter
            )
            class_parts.append(np.full(n, self._current_class, dtype=np.int64))
            diff_parts.append(difficulties)
            pos_parts.append(positions)
            self._remaining_in_run -= n
            self._run_position += n
            produced += n
        indices = np.arange(self._index, self._index + count, dtype=np.int64)
        self._index += count
        if not class_parts:
            return FrameBlock(
                class_ids=np.zeros(0, dtype=np.int64),
                difficulties=np.zeros(0),
                run_positions=np.zeros(0, dtype=np.int64),
                stream_indices=indices,
            )
        return FrameBlock(
            class_ids=np.concatenate(class_parts),
            difficulties=np.concatenate(diff_parts),
            run_positions=np.concatenate(pos_parts),
            stream_indices=indices,
        )


def empirical_class_frequencies(block: FrameBlock, num_classes: int) -> np.ndarray:
    """Observed class frequency vector of a frame block (sums to 1)."""
    ids = block.class_ids.astype(np.int64, copy=False)
    if ids.size:
        low, high = int(ids.min()), int(ids.max())
        if low < 0 or high >= num_classes:
            offending = low if low < 0 else high
            raise ValueError(
                f"frame class {offending} out of range [0, {num_classes})"
            )
    counts = np.bincount(ids, minlength=num_classes).astype(float)
    total = counts.sum()
    return counts / total if total > 0 else counts
