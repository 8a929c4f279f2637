"""Synthetic semantic feature space replacing PyTorch activations.

The class-based semantic caching mechanism (Sec. II-3) consumes, at every
cache layer, a one-dimensional *semantic vector*: the global-average-pooled
intermediate activation, L2-normalized, compared to cached per-class
centroids by cosine similarity.  This module generates such vectors
directly, reproducing the geometry the paper's mechanism relies on:

* **Large common base, small isotropic spread.**  Pooled post-ReLU
  activations of *any* input correlate strongly with each other, so the
  cosine similarity between a sample and every cached centroid shares a
  large common base; only a small class-dependent margin rides on top.
  This is why the paper's discriminative scores are small numbers (Theta
  ~ 0.01-0.04) and, crucially, why a sample of a class *not present in the
  cache* produces a tight pack of similarities and a near-zero score —
  absent classes fall through to the full model instead of erroneously
  hitting.

* **Directed confusion, not isotropic noise.**  Real model errors are
  low-rank: a hard sample looks like a specific *confusable sibling*
  class, consistently at every depth.  Each sample therefore interpolates
  between its true class centroid and a per-sample confusion target from
  the same class cluster, with weight ``w`` driven by the frame's
  difficulty.  ``w > 0.5`` means the sample genuinely resembles the
  sibling more — the classifier and the cache err together, which is what
  bounds the cache's accuracy loss.

* **Depth-increasing class energy.**  The class-specific fraction of the
  representation grows with depth (shallow layers are dominated by the
  shared component), so discriminative margins — and hit ratios — grow
  with depth, while easy (low-``w``) samples already clear the threshold
  at shallow layers: the paper's Fig. 1b behaviour.

* **Per-client non-IID drift.**  A client's samples of class ``c``
  cluster around a client-specific offset of the global centroid; global
  cache updates (Sec. IV-D) exist precisely to track this.

:meth:`SemanticFeatureSpace.draw_samples` draws a whole block of frames
as one :class:`SampleBatch` — sibling choice and the two-mode
confusion-weight draw vectorized over the block, centroid mixing and
noise/normalization filled into the output :data:`DRAW_BLOCK_ROWS` rows
at a time, so the draw holds two blocks of scratch beside its output —
and every consumer reads its arrays.
:meth:`SemanticFeatureSpace.draw_row` is the same process for one frame
in an older draw order, kept only for the motivation studies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.stream import FrameBlock

#: Rows per block of :meth:`SemanticFeatureSpace.draw_samples`'s mix.
#: Wall time is flat from 16 to 64 rows and worse at 4 (the table is in
#: ``src/repro/core/README.md``); the scratch is two blocks of this many
#: ``(L+1, d)`` rows.
DRAW_BLOCK_ROWS = 32


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=-1, keepdims=True)
    if np.any(norms == 0):
        raise ValueError("cannot normalize a zero vector")
    return matrix / norms


@dataclass(frozen=True)
class FeatureSpaceConfig:
    """Tunables of the synthetic feature space.

    Attributes:
        dim: dimensionality of semantic vectors (stands in for the pooled
            channel count; fixed across layers for simplicity — memory
            accounting uses the real per-layer channel counts instead).
        class_energy_min / class_energy_max: fraction of centroid energy
            on the class-specific direction at the first / last cache
            layer (the remainder sits on the shared direction).
        final_class_energy: class-energy of the final classifier
            representation.
        iso_noise_max / iso_noise_min / final_iso_noise: isotropic noise
            scale at the first / last cache layer / final representation.
            Kept small: it models pooling jitter, not sample hardness.
        conf_base / conf_span / conf_mid / conf_sharp / conf_jitter: the
            difficulty -> confusion-weight mapping is *two-mode*: the
            frame is "hard" with probability
            ``sigmoid((h - conf_mid) / conf_sharp)``; easy frames draw

                w ~ conf_base + conf_jitter * U(0, 1)

            (far below the classification boundary), hard frames draw

                w ~ (boundary - 0.05) + conf_span * U(0, 1)

            capped at ``w_cap``, where ``boundary = 1 / (1 + primary
            share)`` is the weight at which the sample genuinely resembles
            its primary confusion target more than its own class.  Real
            streams are bimodal like this: most frames are unambiguous, a
            minority are genuine confusions on which the model and the
            cache err *together*.  ``conf_mid`` is the per-model accuracy
            knob: the hard-mode probability integrated over the difficulty
            distribution is (approximately) the model's error rate.
        conf_primary_share: the confusion mass splits over *two* sibling
            targets with this share on the primary one.  Splitting is what
            keeps absent-class samples from erroneously hitting a cached
            sibling: the top two cached siblings rise together, so the
            discriminative score stays below threshold unless the sample
            overwhelmingly resembles one specific sibling.
        w_cap: upper clip for the confusion weight.
        cluster_size: classes come in clusters of confusable siblings;
            confusion targets are drawn within the cluster.
        cluster_cos: energy fraction of the shared cluster direction in a
            class direction (sibling boost).
        smooth_frac / smooth_rank: energy fraction and rank of a low-rank
            *similarity continuum* shared by all classes.  Real class
            similarity matrices are smooth — every class has near and
            mid-distance neighbours at every similarity level — so the
            runner-up entry in any cache lookup is never far below the
            top.  Without this term all non-sibling similarities would be
            identical, and an absent class with exactly one cached sibling
            would see that sibling as a clean outlier: a confident
            erroneous hit.
        client_drift_scale: magnitude of per-(client, class) centroid
            offsets — the non-IID feature heterogeneity.
        drift_shared_frac: fraction of drift *energy* shared by all
            clients (the common environment shift — e.g. season, lighting,
            camera generation).  The paper's premise is that spatially
            proximate clients see similar data, which is exactly why
            aggregating their updates into a global cache helps; the
            shared component is what global updates can learn, the
            individual remainder is irreducible per-client mismatch.
        temperature: softmax temperature of the final classifier.
    """

    dim: int = 48
    class_energy_min: float = 0.08
    class_energy_max: float = 0.50
    final_class_energy: float = 0.55
    iso_noise_max: float = 0.24
    iso_noise_min: float = 0.12
    final_iso_noise: float = 0.10
    conf_base: float = 0.02
    conf_span: float = 0.38
    conf_mid: float = 0.545
    conf_sharp: float = 0.035
    conf_jitter: float = 0.10
    conf_primary_share: float = 0.65
    w_cap: float = 0.90
    cluster_size: int = 5
    cluster_cos: float = 0.40
    smooth_frac: float = 0.32
    smooth_rank: int = 8
    client_drift_scale: float = 0.0
    drift_shared_frac: float = 0.7
    temperature: float = 0.05

    def __post_init__(self) -> None:
        if self.dim < 4:
            raise ValueError(f"dim must be >= 4, got {self.dim}")
        if not 0.0 < self.class_energy_min <= self.class_energy_max <= 1.0:
            raise ValueError("need 0 < class_energy_min <= class_energy_max <= 1")
        if not 0.0 < self.final_class_energy <= 1.0:
            raise ValueError("final_class_energy must be in (0, 1]")
        if not 0.0 <= self.iso_noise_min <= self.iso_noise_max:
            raise ValueError("need 0 <= iso_noise_min <= iso_noise_max")
        if min(self.conf_base, self.conf_span, self.conf_jitter) < 0:
            raise ValueError("confusion parameters must be non-negative")
        if self.conf_sharp <= 0:
            raise ValueError("conf_sharp must be positive")
        if not 0.5 <= self.conf_primary_share <= 1.0:
            raise ValueError("conf_primary_share must be in [0.5, 1]")
        if not 0.5 <= self.w_cap <= 1.0:
            raise ValueError("w_cap must be in [0.5, 1]")
        if self.cluster_size < 1:
            raise ValueError("cluster_size must be >= 1")
        if not 0.0 <= self.cluster_cos < 1.0:
            raise ValueError("cluster_cos must be in [0, 1)")
        if not 0.0 <= self.smooth_frac < 1.0:
            raise ValueError("smooth_frac must be in [0, 1)")
        if self.cluster_cos + self.smooth_frac >= 1.0:
            raise ValueError("cluster_cos + smooth_frac must leave unique energy")
        if self.smooth_rank < 2:
            raise ValueError("smooth_rank must be >= 2")
        if not 0.0 <= self.drift_shared_frac <= 1.0:
            raise ValueError("drift_shared_frac must be in [0, 1]")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")


class SemanticFeatureSpace:
    """Generates per-layer semantic vectors for (class, client, frame).

    Args:
        num_classes: classes in the task.
        num_layers: number of cache layers; the *final* classifier
            representation lives at index ``num_layers``.
        num_clients: how many distinct client drift profiles to create.
        config: feature-space tunables.
        rng: generator for the static geometry (class directions, drifts).
            Per-sample randomness uses a generator passed at sampling time
            so streams can be re-drawn independently of the geometry.
    """

    def __init__(
        self,
        num_classes: int,
        num_layers: int,
        num_clients: int,
        config: FeatureSpaceConfig,
        rng: np.random.Generator,
    ) -> None:
        if num_classes < 2:
            raise ValueError(f"need >= 2 classes, got {num_classes}")
        if num_layers < 1:
            raise ValueError(f"need >= 1 cache layer, got {num_layers}")
        if num_clients < 1:
            raise ValueError(f"need >= 1 client, got {num_clients}")
        self.num_classes = num_classes
        self.num_layers = num_layers
        self.num_clients = num_clients
        self.config = config

        d = config.dim
        # Class-specific unit directions: a cluster component (siblings
        # share it -> sibling cosine boost ~= cluster_cos), a smooth
        # low-rank background (continuum of mid-level similarities) and a
        # unique remainder.
        unique = _normalize_rows(rng.standard_normal((num_classes, d)))
        smooth_basis = rng.standard_normal((config.smooth_rank, d))
        smooth = _normalize_rows(rng.standard_normal((num_classes, config.smooth_rank)) @ smooth_basis)
        w_cluster = config.cluster_cos
        w_smooth = config.smooth_frac
        w_unique = 1.0 - w_cluster - w_smooth
        if w_cluster > 0 and config.cluster_size > 1:
            num_clusters = -(-num_classes // config.cluster_size)  # ceil
            cluster_dirs = _normalize_rows(rng.standard_normal((num_clusters, d)))
            assignments = np.arange(num_classes) // config.cluster_size
            cluster_part = cluster_dirs[assignments]
            self._cluster_of = assignments
        else:
            cluster_part = np.zeros((num_classes, d))
            w_unique += w_cluster
            w_cluster = 0.0
            self._cluster_of = np.arange(num_classes)
        mixed = (
            np.sqrt(w_cluster) * cluster_part
            + np.sqrt(w_smooth) * smooth
            + np.sqrt(w_unique) * unique
        )
        self._class_dirs = _normalize_rows(mixed)
        self._shared_dir = _normalize_rows(rng.standard_normal((1, d)))[0]
        # Per-(client, class) drift directions: a per-class environment
        # shift common to all clients plus an individual remainder.
        env = _normalize_rows(rng.standard_normal((num_classes, d)))
        indiv = _normalize_rows(rng.standard_normal((num_clients, num_classes, d)))
        f = config.drift_shared_frac
        self._drift_dirs = _normalize_rows(
            np.sqrt(f) * env[None, :, :] + np.sqrt(1.0 - f) * indiv
        )
        # Sibling lists for confusion-target sampling.
        self._siblings: list[np.ndarray] = []
        for c in range(num_classes):
            sibs = np.flatnonzero(
                (self._cluster_of == self._cluster_of[c])
                & (np.arange(num_classes) != c)
            )
            if sibs.size == 0:
                sibs = np.setdiff1d(np.arange(num_classes), [c])
            self._siblings.append(sibs)
        # Padded sibling table for vectorized confusion-target draws:
        # row c holds class c's siblings left-justified, padded with its
        # first sibling (the pad is never selected because draws are
        # bounded by the per-class sibling count).
        max_sibs = max(s.size for s in self._siblings)
        self._sibling_count = np.array([s.size for s in self._siblings])
        self._sibling_pad = np.zeros((num_classes, max_sibs), dtype=np.int64)
        for c, sibs in enumerate(self._siblings):
            self._sibling_pad[c, : sibs.size] = sibs
            self._sibling_pad[c, sibs.size :] = sibs[0]

        # Depth schedules (cache layers 0..L-1 plus the final layer at L).
        depth = np.linspace(0.0, 1.0, num_layers)
        energy = (
            config.class_energy_min
            + (config.class_energy_max - config.class_energy_min) * depth
        )
        noise = (
            config.iso_noise_max
            - (config.iso_noise_max - config.iso_noise_min) * depth
        )
        self._class_energy = np.append(energy, config.final_class_energy)
        self._iso_noise = np.append(noise, config.final_iso_noise)

        # Precompute ideal (undrifted) centroids for all layers: (L+1, I, d),
        # plus a class-major copy (I, L+1, d) so batched draws can gather
        # one contiguous (B, L+1, d) block per confusion role.
        self._centroids = np.stack(
            [self._layer_centroids(j) for j in range(num_layers + 1)]
        )
        self._centroids_by_class = np.ascontiguousarray(
            self._centroids.transpose(1, 0, 2)
        )

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    def _layer_centroids(self, layer: int) -> np.ndarray:
        a = self._class_energy[layer]
        mix = np.sqrt(a) * self._class_dirs + np.sqrt(1.0 - a) * self._shared_dir
        return _normalize_rows(mix)

    @property
    def final_layer(self) -> int:
        """Index of the final classifier representation."""
        return self.num_layers

    def siblings_of(self, class_id: int) -> np.ndarray:
        """Classes a sample of ``class_id`` can be confused with."""
        return self._siblings[class_id].copy()

    def class_energy(self, layer: int) -> float:
        """Class-specific energy fraction at a layer (grows with depth)."""
        return float(self._class_energy[layer])

    def noise_scale(self, layer: int) -> float:
        """Isotropic noise scale at a layer (shrinks with depth)."""
        return float(self._iso_noise[layer])

    def centroid(self, class_id: int, layer: int) -> np.ndarray:
        """Ideal global centroid of a class at a layer (unit norm).

        This is what a cache initialized from the server's *global shared
        dataset* contains before any global updates.
        """
        return self._centroids[layer, class_id].copy()

    def centroid_matrix(self, layer: int) -> np.ndarray:
        """All ideal class centroids at one layer: shape ``(I, dim)``."""
        return self._centroids[layer].copy()

    def classify_vectors(self, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized final classification of many samples at once.

        Args:
            vectors: ``(n, dim)`` final-layer semantic vectors.

        Returns:
            ``(predictions, top2_prob_gaps)`` — per row, the argmax class
            of the cosine logits and the gap between the two largest
            softmax probabilities (the Delta collection rule's signal).
        """
        vecs = np.asarray(vectors, dtype=float)
        if vecs.ndim != 2 or vecs.shape[1] != self.config.dim:
            raise ValueError(
                f"vectors shape {vecs.shape} does not match (n, {self.config.dim})"
            )
        logits = vecs @ self._centroids[self.final_layer].T
        predictions = np.argmax(logits, axis=1)
        scaled = logits / self.config.temperature
        shifted = scaled - scaled.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)
        top2 = np.partition(probs, probs.shape[1] - 2, axis=1)[:, -2:]
        gaps = top2[:, 1] - top2[:, 0]
        return predictions, gaps

    def client_centroid(self, client_id: int, class_id: int, layer: int) -> np.ndarray:
        """Centre of *client* ``client_id``'s samples of a class at a layer.

        Equals the global centroid displaced by the client's drift; this is
        what a perfectly adapted cache entry would converge to for data
        from this client alone.
        """
        base = self._centroids[layer, class_id]
        drift = self._drift_dirs[client_id, class_id]
        mixed = base + self.config.client_drift_scale * drift
        return mixed / np.linalg.norm(mixed)

    # ------------------------------------------------------------------
    # Temporal evolution
    # ------------------------------------------------------------------

    def evolve_drift(self, magnitude: float, rng: np.random.Generator) -> None:
        """Random-walk the per-client drift directions (contextual change).

        The paper motivates periodic global updates with "capturing
        contextual feature changes in the client": environments evolve
        (lighting, season, traffic mix), so the centres of each client's
        class clusters move over time.  Calling this between rounds steps
        every drift direction by ``magnitude`` on the sphere; the shared
        fraction of the step follows :attr:`FeatureSpaceConfig.drift_shared_frac`,
        so global updates can keep tracking what is common.

        The walk *accumulates*: drift vectors are not renormalized, so the
        displacement from the initial (shared-dataset) state grows roughly
        with the square root of the number of steps — a frozen cache goes
        progressively stale, while updated caches keep tracking.

        A no-op when ``client_drift_scale`` is 0 (there is no drift to
        evolve).

        Args:
            magnitude: step size relative to the drift directions' initial
                unit norm (e.g. 0.1 = a 10% perturbation per call).
            rng: generator for the step.
        """
        if magnitude < 0:
            raise ValueError(f"magnitude must be >= 0, got {magnitude}")
        if magnitude == 0 or self.config.client_drift_scale == 0:
            return
        f = self.config.drift_shared_frac
        shared_step = rng.standard_normal((1, self.num_classes, self.config.dim))
        indiv_step = rng.standard_normal(self._drift_dirs.shape)
        step = np.sqrt(f) * shared_step + np.sqrt(1.0 - f) * indiv_step
        step /= np.linalg.norm(step, axis=-1, keepdims=True)
        self._drift_dirs = self._drift_dirs + magnitude * step

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def confusion_weight(self, difficulty: float, rng: np.random.Generator) -> float:
        """Draw the per-sample confusion weight ``w`` for a difficulty."""
        cfg = self.config
        hard_prob = 1.0 / (1.0 + np.exp(-(difficulty - cfg.conf_mid) / cfg.conf_sharp))
        if rng.random() < hard_prob:
            boundary = 1.0 / (1.0 + cfg.conf_primary_share)
            w = (boundary - 0.05) + cfg.conf_span * float(rng.random())
        else:
            w = cfg.conf_base + cfg.conf_jitter * float(rng.random())
        return float(np.clip(w, 0.0, cfg.w_cap))

    def draw_row(
        self,
        class_id: int,
        difficulty: float,
        client_id: int,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, int, float]:
        """Draw one frame's per-layer semantic vectors, scalar by scalar.

        The generative process of :meth:`draw_samples`, consuming ``rng``
        in a per-frame order of its own (a sibling pair by
        ``rng.choice``, :meth:`confusion_weight`, then the noise), so its
        samples are distributionally, not bitwise, those of
        :meth:`draw_samples`.  Only the motivation studies (Fig. 1a/1b,
        Table I) draw this way, to keep their tracked tables.

        Returns:
            ``(vectors, confusion_target, confusion_weight)`` with
            ``vectors`` of shape ``(L + 1, d)``.
        """
        if not 0 <= class_id < self.num_classes:
            raise ValueError(
                f"frame class {class_id} out of range [0, {self.num_classes})"
            )
        if not 0 <= client_id < self.num_clients:
            raise ValueError(
                f"client_id {client_id} out of range [0, {self.num_clients})"
            )
        cfg = self.config
        d = cfg.dim
        num_levels = self.num_layers + 1

        siblings = self._siblings[class_id]
        if siblings.size >= 2:
            chosen = rng.choice(siblings, size=2, replace=False)
            primary, secondary = int(chosen[0]), int(chosen[1])
        else:
            primary = secondary = int(siblings[0])
        w = self.confusion_weight(difficulty, rng)
        share = cfg.conf_primary_share

        drift = cfg.client_drift_scale * self._drift_dirs[client_id]
        own_centers = self._centroids[:, class_id, :] + drift[class_id]
        primary_centers = self._centroids[:, primary, :] + drift[primary]
        secondary_centers = self._centroids[:, secondary, :] + drift[secondary]
        mixed = (
            (1.0 - w) * own_centers
            + w * share * primary_centers
            + w * (1.0 - share) * secondary_centers
        )  # (L+1, d)

        noise = rng.standard_normal((num_levels, d)) / np.sqrt(d)
        vectors = _normalize_rows(mixed + self._iso_noise[:, None] * noise)
        return vectors, primary, w

    def draw_samples(
        self,
        block: FrameBlock,
        client_id: int,
        rng: np.random.Generator,
    ) -> "SampleBatch":
        """Materialize the semantic vectors of a block of frames at once.

        Per frame: two distinct confusion siblings and the two-mode
        difficulty -> weight draw, each one array operation over the
        block; then centroid/drift mixing, per-layer isotropic noise and
        normalization, filled into the preallocated ``(B, L+1, d)``
        output :data:`DRAW_BLOCK_ROWS` rows at a time.  Beside the output
        the mix holds two ``(DRAW_BLOCK_ROWS, L+1, d)`` scratch blocks
        (a gathered centroid block and the noise), plus, for a drifting
        client, a drifted copy of the centroids the block touches.  The
        bits and the generator state are those of one whole-batch mix
        over the whole drifted table; a zero norm raises ``ValueError``
        after every block has drawn its noise.
        """
        if not 0 <= client_id < self.num_clients:
            raise ValueError(
                f"client_id {client_id} out of range [0, {self.num_clients})"
            )
        cfg = self.config
        d = cfg.dim
        num_levels = self.num_layers + 1
        class_ids = block.class_ids
        batch = len(block)
        if batch == 0:
            return SampleBatch(
                block=block,
                client_id=client_id,
                vectors=np.zeros((0, num_levels, d)),
                space=self,
                confusion_targets=np.zeros(0, dtype=np.int64),
                confusion_weights=np.zeros(0),
            )
        if class_ids.min() < 0 or class_ids.max() >= self.num_classes:
            bad = int(class_ids.min() if class_ids.min() < 0 else class_ids.max())
            raise ValueError(
                f"frame class {bad} out of range [0, {self.num_classes})"
            )

        # Two distinct siblings per sample: a uniform index, then a
        # uniform index into the remaining pool shifted past the first —
        # the vectorized equivalent of ``rng.choice(sibs, 2, False)``.
        counts = self._sibling_count[class_ids]
        first = np.minimum((rng.random(batch) * counts).astype(np.int64), counts - 1)
        pool = np.maximum(counts - 1, 1)
        second = np.minimum((rng.random(batch) * pool).astype(np.int64), pool - 1)
        second = np.where(counts < 2, first, second + (second >= first))
        primary = self._sibling_pad[class_ids, first]
        secondary = self._sibling_pad[class_ids, second]

        # Two-mode confusion weights (vectorized confusion_weight).
        hard_prob = 1.0 / (
            1.0 + np.exp(-(block.difficulties - cfg.conf_mid) / cfg.conf_sharp)
        )
        is_hard = rng.random(batch) < hard_prob
        u = rng.random(batch)
        boundary = 1.0 / (1.0 + cfg.conf_primary_share)
        w = np.where(
            is_hard,
            (boundary - 0.05) + cfg.conf_span * u,
            cfg.conf_base + cfg.conf_jitter * u,
        )
        w = np.clip(w, 0.0, cfg.w_cap)

        # The client's drift is added once per class the block touches, on
        # a gather of those classes that the three role gathers index: the
        # same sums as drifting the whole (I, L+1, d) table first.
        centers, roles = self._centroids_by_class, (class_ids, primary, secondary)
        if cfg.client_drift_scale != 0.0:
            touched, inverse = np.unique(np.concatenate(roles), return_inverse=True)
            drift = cfg.client_drift_scale * self._drift_dirs[client_id, touched]
            centers = centers[touched]
            centers += drift[:, None, :]
            roles = inverse.reshape(3, batch)
        own_at, primary_at, secondary_at = roles
        share = cfg.conf_primary_share
        own_w = (1.0 - w)[:, None, None]
        primary_w = (w * share)[:, None, None]
        secondary_w = (w * (1.0 - share))[:, None, None]
        noise_scale = (self._iso_noise / np.sqrt(d))[None, :, None]
        # The mix fills the output in row blocks, each element by the
        # same operations in the same order as a whole-batch mix; the
        # noise of consecutive blocks is one standard_normal call's
        # values, so the generator ends where a whole-batch draw leaves
        # it.  The gathers use mode="clip" because mode="raise" buffers
        # the output; every index is already in range.
        vectors = np.empty((batch, num_levels, d))
        rows = min(batch, DRAW_BLOCK_ROWS)
        part = np.empty((rows, num_levels, d))
        noise = np.empty((rows, num_levels, d))
        zero_norm = False
        for start in range(0, batch, DRAW_BLOCK_ROWS):
            span = slice(start, min(start + DRAW_BLOCK_ROWS, batch))
            mixed = vectors[span]
            gathered, drawn = part[: len(mixed)], noise[: len(mixed)]
            np.take(centers, own_at[span], axis=0, out=mixed, mode="clip")
            mixed *= own_w[span]
            np.take(centers, primary_at[span], axis=0, out=gathered, mode="clip")
            gathered *= primary_w[span]
            mixed += gathered
            np.take(centers, secondary_at[span], axis=0, out=gathered, mode="clip")
            gathered *= secondary_w[span]
            mixed += gathered
            rng.standard_normal(out=drawn)
            drawn *= noise_scale
            mixed += drawn
            norms = np.sqrt(np.einsum("bld,bld->bl", mixed, mixed))
            # A zero norm raises once every block has drawn its noise.
            if np.any(norms == 0):
                zero_norm = True
                continue
            mixed /= norms[:, :, None]
        if zero_norm:
            raise ValueError("cannot normalize a zero vector")
        return SampleBatch(
            block=block,
            client_id=client_id,
            vectors=vectors,
            space=self,
            confusion_targets=primary,
            confusion_weights=w,
        )


class SampleBatch:
    """Structure-of-arrays batch of drawn samples.

    Produced by :meth:`SemanticFeatureSpace.draw_samples`.  Every
    consumer (the inference engine, the round pipeline, server
    calibration, the baselines) reads the arrays; a row slice
    (``batch[a:b]``) is a batch of views into them.

    Attributes:
        block: the :class:`~repro.data.stream.FrameBlock` the samples
            were drawn for.
        client_id: drift profile the batch was drawn with.
        vectors: per-layer unit semantic vectors, shape ``(B, L+1, d)``
            (cache layers 0..L-1 plus the final representation at L).
        confusion_targets: primary confusion sibling per sample, ``(B,)``.
        confusion_weights: per-sample confusion weight ``w``, ``(B,)``.
    """

    def __init__(
        self,
        block: FrameBlock,
        client_id: int,
        vectors: np.ndarray,
        space: SemanticFeatureSpace,
        confusion_targets: np.ndarray,
        confusion_weights: np.ndarray,
    ) -> None:
        self.block = block
        self.client_id = client_id
        self.vectors = vectors
        self.confusion_targets = confusion_targets
        self.confusion_weights = confusion_weights
        self._space = space

    def __len__(self) -> int:
        return len(self.block)

    @property
    def class_ids(self) -> np.ndarray:
        """Ground-truth class per sample (aligned with ``vectors``)."""
        return self.block.class_ids

    def final_vectors(self) -> np.ndarray:
        """Final-layer representations, shape ``(B, d)`` (no copy)."""
        return self.vectors[:, self._space.final_layer, :]

    def __getitem__(self, rows: slice) -> "SampleBatch":
        """The samples of a row slice, as views of this batch's arrays."""
        return SampleBatch(
            block=self.block[rows],
            client_id=self.client_id,
            vectors=self.vectors[rows],
            space=self._space,
            confusion_targets=self.confusion_targets[rows],
            confusion_weights=self.confusion_weights[rows],
        )
