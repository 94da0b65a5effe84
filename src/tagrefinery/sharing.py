"""Cluster-local tag completion by neighbor voting.

Each cluster is scored independently: a candidate tag's score blends
(a) local frequency -- the similarity-weighted fraction of the image's
nearest in-cluster neighbors carrying the tag, (b) co-occurrence with the
image's existing tags, and (c) the tag's overall frequency in the cluster.
Components are min-max normalized per cluster and combined as a convex
combination, so every score lands in [0, 1] and can be stored as an
annotation confidence.
"""

from __future__ import annotations

import numpy as np

from .config import SharingConfig
from .subspace import ClusterAssignment
from .tagmat import DatasetError, SimilarityGraph, TagMatrix, top_n_tags


def _minmax(a: np.ndarray) -> np.ndarray:
    lo, hi = a.min(), a.max()
    if hi - lo <= 0.0:
        return np.zeros_like(a)
    return (a - lo) / (hi - lo)


def score_tags_in_cluster(
    tags: TagMatrix, image_sims: SimilarityGraph, config: SharingConfig = SharingConfig()
) -> np.ndarray:
    """Score every (image, tag) pair of one cluster; returns a dense block in [0, 1].

    tags and image_sims must already be restricted to the cluster's images.
    Component (a) uses the image's top n_neighbors other images by
    similarity, ties to the lower image index (tagmat.top_n_tags); (b) is
    max over the image's existing tags t' of the add-one-smoothed
    in-cluster conditional P(tag | t'); (c) is the in-cluster tag
    frequency. Each component is min-max normalized over the block before
    the convex combination.
    """
    if image_sims.size != tags.n_images:
        raise DatasetError(
            f"similarity block has {image_sims.size} images, tag block has {tags.n_images}"
        )
    return _score_block((tags.toarray() != 0).astype(np.float64), image_sims.weights, config)


def _score_block(presence: np.ndarray, sims: np.ndarray, config: SharingConfig) -> np.ndarray:
    """score_tags_in_cluster on a 0/1 presence block and its similarity weights, unchecked."""
    m, n_tags = presence.shape
    local = np.zeros((m, n_tags))
    if m > 1:
        others = sims.copy()
        np.fill_diagonal(others, -np.inf)
        nb = top_n_tags(others, min(config.n_neighbors, m - 1))
        w = np.take_along_axis(sims, nb, axis=1)
        weight = w.sum(axis=1)[:, None]
        vote = np.matmul(w[:, None, :], presence[nb])[:, 0, :]
        np.divide(vote, weight, out=local, where=weight > 0)

    counts = presence.sum(axis=0)
    pair = presence.T @ presence
    # Add-one smoothed P(t | t'), rows indexed by the conditioning tag t'.
    conditional = (pair + 1.0) / (counts[:, None] + 2.0)
    cooc = np.zeros((m, n_tags))
    for i in range(m):
        own = np.flatnonzero(presence[i])
        if own.size:
            cooc[i] = conditional[own].max(axis=0)

    freq = counts / m  # the same row for every image of the cluster

    total = config.w_local + config.w_cooc + config.w_freq
    return (
        config.w_local * _minmax(local)
        + config.w_cooc * _minmax(cooc)
        + config.w_freq * _minmax(freq)
    ) / total


def share_tags(
    tags: TagMatrix,
    clusters: ClusterAssignment,
    image_sims: SimilarityGraph,
    config: SharingConfig = SharingConfig(),
) -> TagMatrix:
    """Densify a tag matrix by in-cluster voting.

    Existing entries are preserved unchanged (annotations at 1.0 stay at
    1.0); per image at most max_added_per_image previously-absent tags
    with score >= min_confidence are added at their scores. Candidates
    rank by score, ties to the lower tag index (tagmat.top_n_tags).
    """
    if clusters.labels.shape[0] != tags.n_images:
        raise DatasetError(
            f"cluster assignment covers {clusters.labels.shape[0]} images, "
            f"tag matrix has {tags.n_images}"
        )
    if image_sims.size != tags.n_images:
        raise DatasetError(
            f"similarity graph covers {image_sims.size} images, "
            f"tag matrix has {tags.n_images}"
        )

    dense = tags.toarray()
    presence = (dense != 0).astype(np.float64)
    cluster_ids = np.unique(clusters.labels) if config.max_added_per_image > 0 else []
    for c in cluster_ids:
        idx = np.flatnonzero(clusters.labels == c)
        scores = _score_block(presence[idx], image_sims.weights[np.ix_(idx, idx)], config)
        eligible = (presence[idx] == 0) & (scores >= config.min_confidence)
        ranked = np.where(eligible, scores, -np.inf)
        top = top_n_tags(ranked, config.max_added_per_image)
        chosen = np.take_along_axis(ranked, top, axis=1)
        keep = chosen > -np.inf
        rows = np.broadcast_to(idx[:, None], top.shape)
        dense[rows[keep], top[keep]] = chosen[keep]
    return TagMatrix.from_dense(dense)
