"""Cluster-local tag sharing tests, checked against a loop-based oracle."""

import numpy as np
import pytest

from tagrefinery.sharing import SharingConfig, score_tags_in_cluster, share_tags
from tagrefinery.subspace import ClusterAssignment
from tagrefinery.tagmat import DatasetError, SimilarityGraph, TagMatrix, cosine_similarity_graph
from tagrefinery.testkit import gen_annotation_bundle

from oracles import shared_tags, sharing_scores


def graph(w):
    w = np.asarray(w, dtype=np.float64)
    return SimilarityGraph(w)


def pair_graph(sim):
    return graph([[0.0, sim], [sim, 0.0]])


def random_weights(rng, m, tied=False):
    """Symmetric zero-diagonal weights; tied ones are drawn from {0, 0.5, 1}."""
    if tied:
        w = np.triu(rng.choice([0.0, 0.5, 1.0], size=(m, m)), 1)
        return w + w.T
    w = np.abs(rng.standard_normal((m, m)))
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    return w


class TestConfig:
    def test_all_weights_zero_rejected(self):
        with pytest.raises(DatasetError, match="positive"):
            SharingConfig(w_local=0.0, w_cooc=0.0, w_freq=0.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(DatasetError, match=r"^w_local must be >= 0, got -0\.1$"):
            SharingConfig(w_local=-0.1)

    def test_bad_neighbor_source(self):
        with pytest.raises(DatasetError, match="neighbor_source"):
            SharingConfig(neighbor_source="knn")


class TestScoreTagsInCluster:
    def test_identical_rows_local_component(self):
        # Both images annotated with tags 0 and 2; with pure local weighting
        # the annotated tags of the neighbor score 1.
        tags = TagMatrix.from_dense([[1.0, 0.0, 1.0], [1.0, 0.0, 1.0]])
        cfg = SharingConfig(w_local=1.0, w_cooc=0.0, w_freq=0.0, n_neighbors=1)
        scores = score_tags_in_cluster(tags, pair_graph(0.9), cfg)
        assert scores[0, 0] == 1.0 and scores[0, 2] == 1.0
        assert scores[1, 0] == 1.0 and scores[1, 2] == 1.0
        assert scores[0, 1] == 0.0

    def test_singleton_cluster_no_local_signal(self):
        tags = TagMatrix.from_dense([[1.0, 0.0, 1.0]])
        cfg = SharingConfig(w_local=0.6, w_cooc=0.25, w_freq=0.15)
        scores = score_tags_in_cluster(tags, graph(np.zeros((1, 1))), cfg)
        expected = sharing_scores(
            tags.toarray() != 0, np.zeros((1, 1)), cfg.n_neighbors,
            cfg.w_local, cfg.w_cooc, cfg.w_freq,
        )
        np.testing.assert_allclose(scores, expected, atol=1e-12)
        # Local component cannot contribute; pure-local config scores nothing.
        only_local = score_tags_in_cluster(
            tags, graph(np.zeros((1, 1))), SharingConfig(w_local=1.0, w_cooc=0.0, w_freq=0.0)
        )
        np.testing.assert_array_equal(only_local, np.zeros((1, 3)))

    def test_hand_built_cluster_matches_oracle(self):
        tags = TagMatrix.from_dense(
            [
                [1.0, 0.0, 1.0],
                [1.0, 1.0, 0.0],
                [0.0, 1.0, 0.0],
                [1.0, 0.0, 0.0],
            ]
        )
        w = np.array(
            [
                [0.0, 0.8, 0.1, 0.5],
                [0.8, 0.0, 0.6, 0.2],
                [0.1, 0.6, 0.0, 0.3],
                [0.5, 0.2, 0.3, 0.0],
            ]
        )
        cfg = SharingConfig(n_neighbors=2, w_local=0.5, w_cooc=0.3, w_freq=0.2)
        scores = score_tags_in_cluster(tags, graph(w), cfg)
        expected = sharing_scores(tags.toarray() != 0, w, 2, 0.5, 0.3, 0.2)
        np.testing.assert_allclose(scores, expected, atol=1e-12)
        assert scores.min() >= 0.0 and scores.max() <= 1.0

    def test_oracle_agreement_randomized(self):
        # Tied weights make the neighbour choice depend on the tie rule.
        for tied in (False, True):
            rng = np.random.default_rng(10)
            for trial in range(10):
                m = int(rng.integers(1, 7))
                n_tags = int(rng.integers(2, 9))
                presence = rng.random((m, n_tags)) < 0.4
                w = random_weights(rng, m, tied)
                cfg = SharingConfig(n_neighbors=int(rng.integers(1, 5)))
                scores = score_tags_in_cluster(
                    TagMatrix.from_dense(presence.astype(float)), graph(w), cfg
                )
                expected = sharing_scores(
                    presence, w, cfg.n_neighbors, cfg.w_local, cfg.w_cooc, cfg.w_freq
                )
                np.testing.assert_allclose(scores, expected, atol=1e-12)

    def test_block_size_mismatch(self):
        tags = TagMatrix.from_dense([[1.0, 0.0]])
        with pytest.raises(DatasetError, match="similarity block"):
            score_tags_in_cluster(tags, pair_graph(0.5))


class TestShareTags:
    def two_image_setup(self):
        tags = TagMatrix.from_dense([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        clusters = ClusterAssignment(labels=np.array([0, 0]), k=1)
        return tags, clusters, pair_graph(0.9)

    def test_impossible_threshold_is_identity(self):
        tags, clusters, sims = self.two_image_setup()
        out = share_tags(tags, clusters, sims, SharingConfig(min_confidence=1.1))
        np.testing.assert_array_equal(out.toarray(), tags.toarray())

    def test_neighbor_gain_matches_component_score(self):
        tags, clusters, sims = self.two_image_setup()
        cfg = SharingConfig(w_local=1.0, w_cooc=0.0, w_freq=0.0,
                            n_neighbors=1, min_confidence=0.5)
        out = share_tags(tags, clusters, sims, cfg)
        expected = sharing_scores(tags.toarray() != 0, sims.weights, 1, 1.0, 0.0, 0.0)
        # Image 1 lacks tag 0 which its only neighbor carries.
        assert out.toarray()[1, 0] == expected[1, 0] == 1.0

    def test_entry_count_bounds(self):
        tags = TagMatrix.from_dense(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        )
        clusters = ClusterAssignment(labels=np.zeros(3, dtype=int), k=1)
        w = np.full((3, 3), 0.8)
        np.fill_diagonal(w, 0.0)
        out = share_tags(tags, clusters, graph(w),
                         SharingConfig(max_added_per_image=2, min_confidence=0.0))
        assert 3 <= out.nnz <= 9

    def test_ones_preserved(self):
        rng = np.random.default_rng(3)
        dense = (rng.random((8, 6)) < 0.3).astype(float)
        dense[0, 0] = 1.0
        tags = TagMatrix.from_dense(dense)
        clusters = ClusterAssignment(labels=rng.integers(0, 2, size=8), k=2)
        w = np.abs(rng.standard_normal((8, 8)))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.0)
        out = share_tags(tags, clusters, graph(w), SharingConfig(min_confidence=0.1))
        before = tags.toarray()
        after = out.toarray()
        assert np.all(after[before == 1.0] == 1.0)
        assert after.min() >= 0.0 and after.max() <= 1.0
        assert out.nnz >= tags.nnz

    def test_max_added_zero_is_identity(self):
        tags, clusters, sims = self.two_image_setup()
        out = share_tags(tags, clusters, sims, SharingConfig(max_added_per_image=0))
        np.testing.assert_array_equal(out.toarray(), tags.toarray())

    def test_cluster_locality(self):
        rng = np.random.default_rng(4)
        labels = np.array([0, 0, 0, 1, 1, 1])
        w = np.abs(rng.standard_normal((6, 6)))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.0)
        base = (rng.random((6, 5)) < 0.4).astype(float)
        changed = base.copy()
        changed[0] = 1.0 - changed[0]  # flip every tag of one cluster-0 image
        cfg = SharingConfig(min_confidence=0.05)
        clusters = ClusterAssignment(labels=labels, k=2)
        out_base = share_tags(TagMatrix.from_dense(base), clusters, graph(w), cfg)
        out_changed = share_tags(TagMatrix.from_dense(changed), clusters, graph(w), cfg)
        np.testing.assert_array_equal(
            out_base.toarray()[3:], out_changed.toarray()[3:]
        )

    def test_deterministic(self):
        tags, clusters, sims = self.two_image_setup()
        cfg = SharingConfig(min_confidence=0.0)
        a = share_tags(tags, clusters, sims, cfg)
        b = share_tags(tags, clusters, sims, cfg)
        np.testing.assert_array_equal(a.toarray(), b.toarray())

    def test_admission_matches_oracle_with_ties(self):
        # w_freq-only scores are equal across a cluster's images and tie
        # between tags of equal count; caps of 1 and 2 make the ties decide.
        configs = [
            SharingConfig(w_local=0.0, w_cooc=0.0, w_freq=1.0,
                          max_added_per_image=1, min_confidence=0.0),
            SharingConfig(w_local=0.0, w_cooc=0.0, w_freq=1.0,
                          max_added_per_image=2, min_confidence=0.3),
            SharingConfig(n_neighbors=2, max_added_per_image=2, min_confidence=0.0),
        ]
        rng = np.random.default_rng(11)
        for trial in range(30):
            n = int(rng.integers(2, 10))
            dense = (rng.random((n, int(rng.integers(3, 9)))) < 0.4).astype(float)
            w = random_weights(rng, n, tied=True)
            labels = rng.integers(0, 2, size=n)
            cfg = configs[trial % len(configs)]
            out = share_tags(
                TagMatrix.from_dense(dense), ClusterAssignment(labels=labels, k=2), graph(w), cfg
            ).toarray()
            expected = shared_tags(
                dense, labels, w, cfg.n_neighbors, cfg.w_local, cfg.w_cooc, cfg.w_freq,
                cfg.max_added_per_image, cfg.min_confidence,
            )
            np.testing.assert_array_equal(out != 0, expected != 0)
            np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_densifies_the_tags_once(self, monkeypatch):
        bundle, labels = gen_annotation_bundle(n_clusters=5, images_per_cluster=8)
        clusters = ClusterAssignment(labels=labels, k=5)
        sims = cosine_similarity_graph(bundle.image_features)
        calls = []
        densify = TagMatrix.toarray
        monkeypatch.setattr(TagMatrix, "toarray", lambda self: calls.append(1) or densify(self))
        out = share_tags(bundle.tags, clusters, sims)
        assert len(calls) == 1
        assert out.nnz > bundle.tags.nnz

    def test_dimension_mismatches(self):
        tags, clusters, sims = self.two_image_setup()
        with pytest.raises(DatasetError, match="cluster assignment"):
            share_tags(tags, ClusterAssignment(labels=np.zeros(3, dtype=int), k=1), sims)
        with pytest.raises(DatasetError, match="similarity graph"):
            share_tags(tags, clusters, graph(np.zeros((3, 3))))
