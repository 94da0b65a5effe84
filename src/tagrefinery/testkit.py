"""Synthetic instance generators and independent diagnostics.

Everything here is deliberately simple, seed-deterministic dense
arithmetic, kept separate from the optimized solvers so it can act as
ground truth in tests: union-of-subspaces point clouds for clustering,
planted low-rank annotation instances for refinement, and the
subspace-preserving-rate / clustering-accuracy oracles.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .config import NoiseSpec, _SynthConfig
from .metrics import inject_noise
from .subspace import ClusterAssignment, SelfRepresentation
from .tagmat import (
    DatasetBundle, DatasetError, FeatureMatrix, TagMatrix, _check_seed, _freeze, _matrix, _unit_rows,
    top_n_tags,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SubspaceInstance:
    points: FeatureMatrix
    labels: np.ndarray
    bases: tuple[np.ndarray, ...]
    noise_sigma: float


def gen_union_of_subspaces(
    k: int,
    dim_subspace: int,
    dim_ambient: int,
    n_per_subspace: int,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> SubspaceInstance:
    """Unit-norm points drawn from k random low-dimensional subspaces.

    Each subspace gets a random orthonormal basis; points are Gaussian
    coefficient mixes of the basis plus optional ambient Gaussian noise,
    then normalized to unit length (a zero row raises DatasetError).
    Bit-reproducible for a fixed seed.
    """
    for name, size in (("k", k), ("dim_subspace", dim_subspace), ("n_per_subspace", n_per_subspace)):
        if size < 1:
            raise DatasetError(f"{name} must be a positive integer, got {size}")
    if dim_ambient <= dim_subspace:
        raise DatasetError(f"dim_ambient must exceed dim_subspace = {dim_subspace}, got {dim_ambient}")
    if not math.isfinite(noise_sigma):
        raise DatasetError(f"noise_sigma expected a finite number, got {json.dumps(noise_sigma)}")
    if noise_sigma < 0:
        raise DatasetError(f"noise_sigma must be >= 0, got {noise_sigma}")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    points, labels, bases = _cluster_points(rng, np.zeros((k, dim_ambient)), dim_subspace,
                                            n_per_subspace, 1.0, noise_sigma)
    return SubspaceInstance(
        points=FeatureMatrix(points),
        labels=labels,
        bases=bases,
        noise_sigma=noise_sigma,
    )


def _cluster_points(rng, centers, dim_subspace, n_per_cluster, spread, noise):
    """Unit rows, labels and bases: per center, a random basis, spread-scaled mixes of it, then noise.

    Each cluster draws its basis, coefficients and (if noise > 0) noise from rng in that order. A huge
    spread or noise overflows to inf or NaN, which raises "feature matrix contains non-finite values".
    """
    blocks, bases = [], []
    for center in centers:
        basis = np.linalg.qr(rng.standard_normal((center.size, dim_subspace)))[0]
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            pts = center + spread * rng.standard_normal((n_per_cluster, dim_subspace)) @ basis.T
            if noise > 0:
                pts = pts + noise * rng.standard_normal(pts.shape)
        blocks.append(pts)
        bases.append(_freeze(basis))
    labels = _freeze(np.repeat(np.arange(len(centers)), n_per_cluster))
    points = _freeze(np.vstack(blocks))  # frozen, so _matrix checks it without a copy
    return _unit_rows(_matrix(points, "feature matrix")), labels, tuple(bases)


def subspace_preserving_rate(rep, labels) -> float:
    """Average fraction of each point's coefficient mass placed within its own cluster.

    Accepts a SelfRepresentation or a raw coefficient matrix. Rows with no
    coefficient mass are excluded from the average; if every row is zero
    there is nothing to measure and an error is raised.
    """
    z = rep.z if isinstance(rep, SelfRepresentation) else np.asarray(rep, dtype=np.float64)
    labels = np.asarray(labels)
    if z.shape[0] != z.shape[1] or z.shape[0] != labels.shape[0]:
        raise DatasetError(f"shape mismatch: z {z.shape}, labels {labels.shape}")
    mass = np.abs(z).copy()
    np.fill_diagonal(mass, 0.0)
    totals = mass.sum(axis=1)
    valid = totals > 0
    if not np.any(valid):
        raise DatasetError("all representation rows are zero; rate undefined")
    if not np.all(valid):
        logger.warning(
            "subspace_preserving_rate: excluded %d all-zero rows", int((~valid).sum())
        )
    same = labels[:, None] == labels[None, :]
    within = (mass * same).sum(axis=1)
    return float((within[valid] / totals[valid]).mean())


def clustering_accuracy(pred, truth) -> float:
    """Best label-permutation agreement between a predicted and true clustering.

    The Hungarian assignment on the confusion matrix finds the best
    permutation exactly for any number of labels.
    """
    pred_labels = pred.labels if isinstance(pred, ClusterAssignment) else np.asarray(pred)
    truth = np.asarray(truth)
    if pred_labels.shape[0] != truth.shape[0]:
        raise DatasetError(
            f"length mismatch: {pred_labels.shape[0]} predictions, {truth.shape[0]} truths"
        )
    # Imported here, not at module level: the package __init__ imports this
    # module, so a top-level import would slow every CLI start, and no
    # subcommand calls this function.
    import scipy.optimize

    n = truth.shape[0]
    k = int(max(pred_labels.max(initial=0), truth.max(initial=0))) + 1
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (pred_labels, truth), 1)
    rows, cols = scipy.optimize.linear_sum_assignment(-confusion)
    return float(confusion[rows, cols].sum()) / n


@dataclass(frozen=True)
class PlantedAnnotation:
    """Low-rank annotation instance with known factors.

    scores is the exact product V P* Q*^T T^T with values in (0, 1); o_star
    is scores itself when density=1 (no thresholding) and otherwise the
    binary indicator of each image's top-ceil(density * n_tags) scores.
    """

    v: FeatureMatrix
    t: FeatureMatrix
    p_star: np.ndarray
    q_star: np.ndarray
    scores: np.ndarray
    o_star: TagMatrix


def gen_planted_annotation(
    n_images: int,
    n_tags: int,
    f_i: int,
    f_t: int,
    r: int,
    density: float = 1.0,
    seed: int = 0,
) -> PlantedAnnotation:
    """Plant factors with a nonnegative low-rank score matrix in (0, 1).

    Features and factors are folded (absolute-value) Gaussians so the
    product is strictly positive, then P* is rescaled to put the peak
    score just under 1. scores is recomputed from the rescaled factors,
    so it is bit-identical to the reconstruction at (p_star, q_star) and
    a valid confidence matrix the refinement model represents exactly.
    """
    for name, size in (("n_images", n_images), ("n_tags", n_tags), ("f_i", f_i), ("f_t", f_t), ("r", r)):
        if size < 1:
            raise DatasetError(f"{name} must be a positive integer, got {size}")
    if r > min(f_i, f_t):
        raise DatasetError(f"rank {r} exceeds min feature dim {min(f_i, f_t)}")
    if not 0.0 < density <= 1.0:
        raise DatasetError(f"density must be in (0, 1], got {density}")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    v = np.abs(rng.standard_normal((n_images, f_i)))
    t = np.abs(rng.standard_normal((n_tags, f_t)))
    p_star = np.abs(rng.standard_normal((f_i, r)))
    q_star = np.abs(rng.standard_normal((f_t, r)))
    scores = (v @ p_star) @ (t @ q_star).T
    # Margin keeps the recomputed peak strictly below 1 despite reordering
    # of the floating-point products.
    p_star /= scores.max() * (1.0 + 1e-9)
    scores = (v @ p_star) @ (t @ q_star).T

    if density >= 1.0:
        o_star = TagMatrix.from_dense(scores)
    else:
        count = max(1, int(np.ceil(density * n_tags)))
        dense = np.zeros_like(scores)
        np.put_along_axis(dense, top_n_tags(scores, count), 1.0, axis=1)
        o_star = TagMatrix.from_dense(dense)

    scores.setflags(write=False)
    p_star.setflags(write=False)
    q_star.setflags(write=False)
    return PlantedAnnotation(
        v=FeatureMatrix(v),
        t=FeatureMatrix(t),
        p_star=p_star,
        q_star=q_star,
        scores=scores,
        o_star=o_star,
    )


_SYNTH = _SynthConfig()  # the synth section's keys of the bundle kind hold gen_annotation_bundle's defaults
# The synth keys that gen_annotation_bundle takes.
_BUNDLE_KEYS = ("n_clusters", "images_per_cluster", "n_tags", "tags_per_cluster", "dim_subspace", "image_dim",
                "tag_dim", "tag_presence", "cluster_spread", "image_noise", "seed")


def gen_annotation_bundle(
    n_clusters: int = _SYNTH.n_clusters,
    images_per_cluster: int = _SYNTH.images_per_cluster,
    n_tags: int = _SYNTH.n_tags,
    tags_per_cluster: int = _SYNTH.tags_per_cluster,
    dim_subspace: int = _SYNTH.dim_subspace,
    image_dim: int = _SYNTH.image_dim,
    tag_dim: int = _SYNTH.tag_dim,
    tag_presence: float = _SYNTH.tag_presence,
    cluster_spread: float = _SYNTH.cluster_spread,
    image_noise: float = _SYNTH.image_noise,
    noise: NoiseSpec | None = None,
    seed: int = _SYNTH.seed,
) -> tuple[DatasetBundle, np.ndarray]:
    """Full synthetic dataset: clustered images, cluster-themed tags, optional corruption.

    Each image cluster is a unit center direction plus a low-dimensional
    within-cluster spread (an affine patch, so self-representation with
    the row-sum constraint clusters it and a linear feature-to-tag map can
    separate the clusters). Each cluster owns a contiguous block of
    characteristic tags, and every image carries a random subset of its
    cluster's block (at least one). Tag features place same-block tags
    near a shared topic centroid so the semantic graph is informative.
    When a NoiseSpec is given, bundle.tags is the corrupted matrix and
    bundle.ground_truth keeps the clean one. The arguments are checked by
    the synth section's rules, so a bad one raises DatasetError naming it.
    """
    args = locals()
    _SynthConfig(kind="bundle", **{key: args[key] for key in _BUNDLE_KEYS})
    rng = np.random.default_rng(seed)
    n_images = n_clusters * images_per_cluster

    centers = _unit_rows(rng.standard_normal((n_clusters, image_dim)))
    points, labels, _ = _cluster_points(rng, centers, dim_subspace, images_per_cluster,
                                        cluster_spread, image_noise)

    rng = np.random.default_rng(seed + 1)
    truth = np.zeros((n_images, n_tags))
    for i, c in enumerate(labels):
        block = np.arange(c * tags_per_cluster, (c + 1) * tags_per_cluster)
        on = block[rng.random(block.size) < tag_presence]
        if on.size == 0:
            on = block[[rng.integers(block.size)]]
        truth[i, on] = 1.0
    truth_tags = TagMatrix.from_dense(truth)

    centroids = rng.standard_normal((n_clusters, tag_dim))
    tag_features = rng.standard_normal((n_tags, tag_dim))
    for c in range(n_clusters):
        block = slice(c * tags_per_cluster, (c + 1) * tags_per_cluster)
        tag_features[block] = centroids[c] + 0.15 * rng.standard_normal(
            (tags_per_cluster, tag_dim)
        )

    bundle = _bundle(truth_tags, FeatureMatrix(points), FeatureMatrix(tag_features), noise, "tag_{:04d}")
    return bundle, labels


def _synth_bundle(section: _SynthConfig) -> tuple[DatasetBundle, np.ndarray | None]:
    """The bundle of the synth section's kind, its tags corrupted by the section's noise, and its true cluster
    labels (None for the planted kind, which has no clusters).

    The section's own check refuses every other value the generators reject, so an error starts with the
    key at fault: the larger of the keys that scale the image features (the bundle's two, else image_noise)
    when they overflow to inf, or inaccurate_rate when there are too few empty cells for its spurious entries.
    """
    s, labels = section, None
    scale = max(("cluster_spread", "image_noise")[s.kind != "bundle":], key=lambda key: abs(getattr(s, key)))
    try:
        if s.kind == "bundle":
            bundle, labels = gen_annotation_bundle(**{key: getattr(s, key) for key in _BUNDLE_KEYS})
        elif s.kind == "planted":
            inst = gen_planted_annotation(s.n_clusters * s.images_per_cluster, s.n_tags, s.image_dim,
                                          s.tag_dim, s.rank, density=s.density, seed=s.seed)
            bundle = _bundle(inst.o_star, inst.v, inst.t, None, "tag_{:04d}")
        else:  # subspaces: one tag per cluster, whose features are Gaussian
            inst = gen_union_of_subspaces(s.n_clusters, s.dim_subspace, s.image_dim, s.images_per_cluster,
                                          noise_sigma=s.image_noise, seed=s.seed)
            labels, n_images = inst.labels, inst.points.n_rows
            onehot = np.zeros((n_images, s.n_clusters))
            onehot[np.arange(n_images), labels] = 1.0
            tag_features = np.random.default_rng(s.seed + 1).standard_normal((s.n_clusters, s.tag_dim))
            bundle = _bundle(TagMatrix.from_dense(onehot), inst.points, FeatureMatrix(tag_features), None,
                             "cluster_{}")
    except DatasetError as exc:
        raise DatasetError(f"{scale}: {exc}") from None
    noise = NoiseSpec(s.missing_rate, s.inaccurate_rate, seed=s.noise_seed)
    try:
        tags = inject_noise(bundle.ground_truth, noise)
    except DatasetError as exc:  # too few empty cells for the spurious entries
        raise DatasetError(f"inaccurate_rate: {exc}") from None
    return replace(bundle, tags=tags), labels


def _bundle(
    truth: TagMatrix,
    image_features: FeatureMatrix,
    tag_features: FeatureMatrix,
    noise: NoiseSpec | None,
    tag_name: str,
) -> DatasetBundle:
    """The bundle whose ground truth is truth and whose tags are truth corrupted by noise, if given.

    Images are named img_00000, img_00001, ...; tag j is named tag_name.format(j).
    """
    return DatasetBundle(
        tags=truth if noise is None else inject_noise(truth, noise),
        image_features=image_features,
        tag_features=tag_features,
        image_ids=tuple(f"img_{i:05d}" for i in range(truth.n_images)),
        tag_names=tuple(tag_name.format(j) for j in range(truth.n_tags)),
        ground_truth=truth,
    )
