"""Synthetic generator and oracle-diagnostic tests."""

import itertools

import numpy as np
import pytest

from tagrefinery.metrics import NoiseSpec
from tagrefinery.tagmat import DatasetError
from tagrefinery.testkit import (
    clustering_accuracy,
    gen_annotation_bundle,
    gen_planted_annotation,
    gen_union_of_subspaces,
    subspace_preserving_rate,
)


class TestGenUnionOfSubspaces:
    def test_points_lie_in_their_subspace(self):
        inst = gen_union_of_subspaces(3, 4, 30, 10, noise_sigma=0.0, seed=0)
        for i, label in enumerate(inst.labels):
            x = inst.points.data[i]
            basis = inst.bases[label]
            residual = x - basis @ (basis.T @ x)
            assert np.linalg.norm(residual) <= 1e-10

    def test_unit_norm_rows(self):
        inst = gen_union_of_subspaces(2, 3, 20, 8, noise_sigma=0.1, seed=1)
        np.testing.assert_allclose(
            np.linalg.norm(inst.points.data, axis=1), 1.0, atol=1e-12
        )

    def test_single_subspace(self):
        inst = gen_union_of_subspaces(1, 2, 10, 5, seed=2)
        assert set(inst.labels) == {0}
        assert inst.points.n_rows == 5

    def test_deterministic(self):
        a = gen_union_of_subspaces(2, 3, 15, 7, noise_sigma=0.05, seed=3)
        b = gen_union_of_subspaces(2, 3, 15, 7, noise_sigma=0.05, seed=3)
        np.testing.assert_array_equal(a.points.data, b.points.data)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(DatasetError):
            gen_union_of_subspaces(2, 5, 5, 4)
        with pytest.raises(DatasetError):
            gen_union_of_subspaces(0, 2, 5, 4)


class TestSubspacePreservingRate:
    def test_block_supported_is_one(self):
        labels = np.array([0, 0, 1, 1])
        z = np.array(
            [
                [0.0, 0.5, 0.0, 0.0],
                [0.5, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.7],
                [0.0, 0.0, 0.7, 0.0],
            ]
        )
        assert subspace_preserving_rate(z, labels) == 1.0

    def test_uniform_offdiagonal_counting(self):
        k, m = 3, 4
        n = k * m
        labels = np.repeat(np.arange(k), m)
        z = np.ones((n, n))
        np.fill_diagonal(z, 0.0)
        expected = (m - 1) / (n - 1)
        assert subspace_preserving_rate(z, labels) == pytest.approx(expected, abs=1e-12)

    def test_zero_rows_rejected_when_all_zero(self):
        with pytest.raises(DatasetError, match="zero"):
            subspace_preserving_rate(np.zeros((3, 3)), np.array([0, 0, 1]))

    def test_partial_zero_rows_excluded(self):
        labels = np.array([0, 0, 1])
        z = np.zeros((3, 3))
        z[0, 1] = 1.0
        assert subspace_preserving_rate(z, labels) == 1.0


class TestClusteringAccuracy:
    def test_identical(self):
        labels = np.array([0, 1, 2, 0, 1])
        assert clustering_accuracy(labels, labels) == 1.0

    def test_permutation_invariant(self):
        truth = np.array([0, 0, 1, 1, 2, 2])
        pred = np.array([2, 2, 0, 0, 1, 1])
        assert clustering_accuracy(pred, truth) == 1.0

    def test_partial_agreement(self):
        truth = np.repeat(np.arange(3), 60)
        pred = truth.copy()
        pred[:5] = (pred[:5] + 1) % 3
        assert clustering_accuracy(pred, truth) == pytest.approx(175.0 / 180.0)

    def test_exhaustive_matches_assignment_solver(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(6, 20))
            k = int(rng.integers(2, 5))
            truth = rng.integers(0, k, size=n)
            pred = rng.integers(0, k, size=n)
            confusion = np.zeros((k, k), dtype=int)
            np.add.at(confusion, (pred, truth), 1)
            brute = max(
                sum(confusion[a, perm[a]] for a in range(k))
                for perm in itertools.permutations(range(k))
            ) / n
            assert clustering_accuracy(pred, truth) == pytest.approx(brute)

    def test_length_mismatch(self):
        with pytest.raises(DatasetError, match="length"):
            clustering_accuracy(np.array([0, 1]), np.array([0, 1, 1]))


class TestGenPlantedAnnotation:
    def test_scores_are_exact_low_rank_product(self):
        inst = gen_planted_annotation(10, 8, 5, 4, 3, density=1.0, seed=0)
        recon = (inst.v.data @ inst.p_star) @ (inst.t.data @ inst.q_star).T
        np.testing.assert_array_equal(recon, inst.scores)
        assert np.linalg.matrix_rank(inst.scores) <= 3
        assert 0.0 < inst.scores.min() and inst.scores.max() < 1.0

    def test_full_density_keeps_raw_scores(self):
        inst = gen_planted_annotation(6, 5, 4, 3, 2, density=1.0, seed=1)
        assert inst.o_star.nnz == 30
        np.testing.assert_array_equal(inst.o_star.toarray(), inst.scores)

    def test_partial_density_binary_topk(self):
        inst = gen_planted_annotation(6, 10, 4, 3, 2, density=0.3, seed=2)
        dense = inst.o_star.toarray()
        assert set(np.unique(dense)) <= {0.0, 1.0}
        per_image = dense.sum(axis=1)
        np.testing.assert_array_equal(per_image, np.full(6, 3.0))  # ceil(0.3 * 10)

    def test_rank_one_dominant_column(self):
        inst = gen_planted_annotation(7, 6, 3, 3, 1, density=1.0, seed=3)
        top = np.argmax(inst.scores, axis=1)
        assert len(set(top.tolist())) == 1

    def test_deterministic(self):
        a = gen_planted_annotation(5, 4, 3, 3, 2, density=0.5, seed=9)
        b = gen_planted_annotation(5, 4, 3, 3, 2, density=0.5, seed=9)
        np.testing.assert_array_equal(a.scores, b.scores)
        np.testing.assert_array_equal(a.o_star.toarray(), b.o_star.toarray())

    def test_rank_bound_checked(self):
        with pytest.raises(DatasetError, match="rank"):
            gen_planted_annotation(5, 4, 3, 3, 4)

    # A size below 1 -> the argument it is passed as.
    TOO_SMALL = [((0, 5, 3, 3, 1), "n_images"), ((5, -1, 3, 3, 1), "n_tags"), ((5, 4, 0, 3, 1), "f_i"),
                 ((5, 4, 3, 0, 1), "f_t"), ((5, 4, 3, 3, 0), "r")]

    @pytest.mark.parametrize("args, name", TOO_SMALL, ids=[name for _, name in TOO_SMALL])
    def test_size_below_one_names_the_argument(self, args, name):
        with pytest.raises(DatasetError, match=rf"^{name} must be a positive integer, got "):
            gen_planted_annotation(*args)


class TestGenAnnotationBundle:
    def test_shapes_and_truth(self):
        bundle, labels = gen_annotation_bundle(
            n_clusters=3, images_per_cluster=5, n_tags=20, tags_per_cluster=4, seed=0
        )
        assert bundle.tags.n_images == 15
        assert bundle.tags.n_tags == 20
        assert labels.shape == (15,)
        truth = bundle.ground_truth
        assert truth is not None
        assert np.all(np.isin(truth.matrix.data, [1.0]))
        # Every image has at least one tag from its own cluster's block.
        dense = truth.toarray()
        for i, c in enumerate(labels):
            block = slice(c * 4, (c + 1) * 4)
            assert dense[i, block].sum() >= 1
            outside = dense[i].sum() - dense[i, block].sum()
            assert outside == 0

    def test_noise_applied_to_observed_only(self):
        spec = NoiseSpec(missing_rate=0.5, inaccurate_rate=0.2, seed=1)
        bundle, _ = gen_annotation_bundle(
            n_clusters=2, images_per_cluster=6, n_tags=12, tags_per_cluster=3,
            noise=spec, seed=1,
        )
        assert bundle.tags.nnz != bundle.ground_truth.nnz

    def test_deterministic(self):
        kwargs = dict(n_clusters=2, images_per_cluster=4, n_tags=10,
                      tags_per_cluster=3, seed=5)
        a, la = gen_annotation_bundle(**kwargs)
        b, lb = gen_annotation_bundle(**kwargs)
        np.testing.assert_array_equal(a.tags.toarray(), b.tags.toarray())
        np.testing.assert_array_equal(a.image_features.data, b.image_features.data)
        np.testing.assert_array_equal(la, lb)

    def test_vocabulary_bound(self):
        with pytest.raises(DatasetError, match="n_tags"):
            gen_annotation_bundle(n_clusters=4, images_per_cluster=3,
                                  n_tags=10, tags_per_cluster=3)

    # An argument outside the synth section's rule for its key -> the message that names it.
    OUT_OF_RULE = {
        "image_noise": (-1.0, "image_noise must be >= 0, got -1.0"),
        "tag_presence": (2.0, "tag_presence must be in [0, 1], got 2.0"),
        "n_clusters": (0, "n_clusters must be a positive integer, got 0"),
        "tags_per_cluster": (0, "tags_per_cluster must be a positive integer, got 0"),
    }

    @pytest.mark.parametrize("name, value, message", [(k, *v) for k, v in OUT_OF_RULE.items()],
                             ids=OUT_OF_RULE.keys())
    def test_argument_checked_by_the_synth_rules(self, name, value, message):
        with pytest.raises(DatasetError) as err:
            gen_annotation_bundle(**{name: value})
        assert str(err.value) == message
