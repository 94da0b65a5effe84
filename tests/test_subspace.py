"""Self-representation solver and spectral clustering tests."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg

from tagrefinery import subspace
from tagrefinery.subspace import (
    ClusterAssignment,
    SelfRepresentation,
    SscConfig,
    SscResiduals,
    _kmeans,
    _lloyd,
    _normalized_laplacian,
    _sweep_rows,
    affinity,
    eigengap_k,
    spectral_cluster,
    ssc_solve,
)
from tagrefinery.tagmat import (
    DatasetError,
    FeatureMatrix,
    SimilarityGraph,
    cosine_similarity_graph,
    graph_laplacian,
)
from tagrefinery.testkit import (
    clustering_accuracy,
    gen_annotation_bundle,
    gen_union_of_subspaces,
    subspace_preserving_rate,
)

from oracles import affinity_pinned, normalized_laplacian_pinned, ssc_pinned, ssc_reference


def make_rep(z, e=None):
    z = np.asarray(z, dtype=np.float64)
    if e is None:
        e = np.zeros((z.shape[0], 2))
    return SelfRepresentation(
        z=z, e=e, residuals=SscResiduals(0.0, 0.0, 0.0), converged=True,
        n_iters=1, objective=0.0,
    )


class TestConfig:
    def test_bad_values_collected(self):
        with pytest.raises(DatasetError) as err:
            SscConfig(mu=-1.0, tol=0.0, max_iters=0)
        msg = str(err.value)
        assert "mu" in msg and "tol" in msg and "max_iters" in msg


class TestSscSolve:
    def test_duplicated_points(self):
        rep = ssc_solve(FeatureMatrix([[1.0, 2.0], [1.0, 2.0]]), SscConfig(mu=10.0))
        assert rep.converged
        assert rep.z[0, 0] == 0.0 and rep.z[1, 1] == 0.0
        assert abs(rep.z[0, 1] - 1.0) <= 1e-4
        assert abs(rep.z[1, 0] - 1.0) <= 1e-4
        assert np.linalg.norm(rep.e) <= 1e-4

    def test_constraints_on_random_instance(self):
        inst = gen_union_of_subspaces(2, 3, 20, 15, noise_sigma=0.0, seed=3)
        cfg = SscConfig()
        rep = ssc_solve(inst.points, cfg)
        assert rep.converged
        assert np.abs(np.diagonal(rep.z)).max() == 0.0
        assert np.abs(rep.z.sum(axis=1) - 1.0).max() <= cfg.tol
        x = inst.points.data
        recon = np.linalg.norm(x - rep.z @ x - rep.e) / np.linalg.norm(x)
        assert recon <= cfg.tol

    def test_small_noiseless_recovery(self):
        inst = gen_union_of_subspaces(2, 3, 20, 25, noise_sigma=0.0, seed=1)
        rep = ssc_solve(inst.points)
        assert subspace_preserving_rate(rep, inst.labels) >= 0.99
        labels = spectral_cluster(affinity(rep), 2, seed=0)
        assert clustering_accuracy(labels, inst.labels) >= 0.98

    def test_non_convergence_returns_flagged_iterate(self):
        inst = gen_union_of_subspaces(2, 2, 10, 8, seed=0)
        rep = ssc_solve(inst.points, SscConfig(max_iters=3))
        assert not rep.converged
        assert rep.n_iters == 3
        assert np.isfinite(rep.z).all()

    @pytest.mark.parametrize(
        "features, max_iters",
        [
            (lambda: gen_annotation_bundle()[0].image_features, 4000),
            (lambda: gen_union_of_subspaces(3, 3, 15, 12, noise_sigma=0.01, seed=2).points, 4000),
            (lambda: gen_annotation_bundle()[0].image_features, 5),
            (lambda: gen_union_of_subspaces(4, 5, 30, 105, noise_sigma=0.01, seed=2).points, 4000),
        ],
        ids=["default-bundle", "union-of-subspaces", "capped-at-5", "n-420"],
    )
    def test_matches_reference_loop(self, features, max_iters):
        # The solver applies a precomputed inverse and carries one state array where the
        # reference solves with the Cholesky factor and keeps Z, J and y2, so the two
        # agree to roundoff, not bit for bit.
        images = features()
        cfg = SscConfig(max_iters=max_iters)
        rep = ssc_solve(images, cfg)
        z, e, n_iters, converged, residuals = ssc_reference(
            images.data, cfg.mu, cfg.max_iters, cfg.tol
        )
        assert np.abs(rep.z - z).max() <= 1e-12
        assert np.abs(rep.e - e).max() <= 1e-12
        assert (rep.n_iters, rep.converged) == (n_iters, converged)
        # gap_max = max|Z - J| is tiny beside the O(0.1) entries it subtracts: z's absolute bound.
        got = (rep.residuals.recon_rel, rep.residuals.rowsum_max, rep.residuals.gap_max)
        assert got == pytest.approx(residuals, rel=1e-9, abs=1e-12)
        assert converged == (max_iters > 5)

    @pytest.mark.parametrize("block_rows", [1, 7])
    def test_row_blocks_do_not_change_the_result(self, block_rows):
        # 200 rows leave a short last block of 4 at 7.
        images = gen_annotation_bundle()[0].image_features
        rep = ssc_solve(images)
        with mock.patch.object(subspace, "_sweep_rows", lambda n: block_rows):
            blocked = ssc_solve(images)
        assert (blocked.n_iters, blocked.converged) == (rep.n_iters, rep.converged)
        assert np.abs(blocked.z - rep.z).max() <= 1e-12

    def test_rejects_single_point(self):
        with pytest.raises(DatasetError, match="at least 2"):
            ssc_solve(FeatureMatrix([[1.0, 0.0]]))

    def test_rejects_zero_row_when_normalizing(self):
        with pytest.raises(DatasetError, match=r"^zero-norm feature row\(s\) at indices \[0\]$"):
            ssc_solve(FeatureMatrix([[0.0, 0.0], [1.0, 0.0]]))

    def test_permutation_equivariance(self):
        inst = gen_union_of_subspaces(2, 2, 12, 10, noise_sigma=0.01, seed=4)
        cfg = SscConfig(tol=1e-7)
        rep = ssc_solve(inst.points, cfg)
        rng = np.random.default_rng(0)
        perm = rng.permutation(inst.points.n_rows)
        rep_p = ssc_solve(FeatureMatrix(inst.points.data[perm]), cfg)
        assert np.abs(rep_p.z - rep.z[np.ix_(perm, perm)]).max() <= 1e-6

    def test_row_rescaling_leaves_z_unchanged(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((14, 6))
        rep = ssc_solve(FeatureMatrix(x))
        scaled = ssc_solve(FeatureMatrix(x * rng.uniform(0.01, 100.0, size=(14, 1))))
        assert rep.converged and scaled.converged
        assert np.abs(scaled.z - rep.z).max() <= 1e-12

    def test_objective_reported(self):
        inst = gen_union_of_subspaces(2, 2, 10, 6, seed=2)
        rep = ssc_solve(inst.points)
        expected = np.abs(rep.z).sum() + SscConfig().mu * (rep.e ** 2).sum()
        assert rep.objective == pytest.approx(expected, rel=1e-12)


class TestAffinity:
    def test_symmetric_doubling(self):
        rep = make_rep([[0.0, 1.0], [1.0, 0.0]])
        a = affinity(rep)
        np.testing.assert_array_equal(a.weights, [[0.0, 2.0], [2.0, 0.0]])

    def test_absolute_values_add(self):
        rep = make_rep([[0.0, 0.5], [-0.5, 0.0]])
        a = affinity(rep)
        assert a.weights[0, 1] == 1.0
        assert a.weights[1, 0] == 1.0

    def test_upper_triangular_symmetrized(self):
        rng = np.random.default_rng(0)
        z = np.triu(rng.standard_normal((5, 5)), k=1)
        a = affinity(make_rep(z, e=np.zeros((5, 2))))
        np.testing.assert_array_equal(a.weights, np.abs(z) + np.abs(z).T)
        np.testing.assert_array_equal(a.weights, a.weights.T)


class TestSpectralCluster:
    def block_affinity(self):
        w = np.zeros((6, 6))
        for i, j in [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]:
            w[i, j] = w[j, i] = 1.0
        return SimilarityGraph(w)

    def test_disconnected_blocks_separate(self):
        labels = spectral_cluster(self.block_affinity(), 2, seed=0).labels
        assert len(set(labels[:3])) == 1
        assert len(set(labels[3:])) == 1
        assert labels[0] != labels[3]

    def test_k_equals_one(self):
        labels = spectral_cluster(self.block_affinity(), 1, seed=0).labels
        assert set(labels) == {0}

    def test_k_exceeding_n_rejected(self):
        with pytest.raises(DatasetError, match="exceeds"):
            spectral_cluster(self.block_affinity(), 7, seed=0)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(6)
        w = np.abs(rng.standard_normal((10, 10)))
        w = w + w.T
        np.fill_diagonal(w, 0.0)
        a1 = SimilarityGraph(w)
        a2 = SimilarityGraph(3.7 * w)
        l1 = spectral_cluster(a1, 3, seed=42).labels
        l2 = spectral_cluster(a2, 3, seed=42).labels
        np.testing.assert_array_equal(l1, l2)

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(7)
        w = np.abs(rng.standard_normal((12, 12)))
        w = w + w.T
        np.fill_diagonal(w, 0.0)
        a = SimilarityGraph(w)
        l1 = spectral_cluster(a, 3, seed=9).labels
        l2 = spectral_cluster(a, 3, seed=9).labels
        np.testing.assert_array_equal(l1, l2)

    def test_every_cluster_nonempty_or_noted(self):
        rng = np.random.default_rng(8)
        w = np.abs(rng.standard_normal((15, 15)))
        w = w + w.T
        np.fill_diagonal(w, 0.0)
        assignment = spectral_cluster(SimilarityGraph(w), 4, seed=1)
        sizes = assignment.cluster_sizes()
        assert np.all(sizes > 0) or assignment.notes

    def test_normalized_laplacian_is_exactly_symmetric(self):
        # 400 nodes: _add_transpose's square blocks of 362 leave a short last pair.
        rng = np.random.default_rng(9)
        w = np.abs(rng.standard_normal((400, 400)))
        w = w + w.T
        np.fill_diagonal(w, 0.0)
        w[7] = w[:, 7] = 0.0  # an isolated node
        nlap = _normalized_laplacian(w)
        np.testing.assert_array_equal(bits(nlap), bits(nlap.T))
        np.testing.assert_array_equal(bits(nlap), bits(normalized_laplacian_pinned(w)))

    def test_eigengap_on_blocks(self):
        assert eigengap_k(self.block_affinity(), 5) == 2

    def test_kmeans_iteration_cap_is_noted(self):
        # Starting from centers 0 and 1, the first pass puts 1..12 together;
        # Lloyd needs further passes to split {0, 1, 2} from {10, 11, 12}.
        points = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        _, _, capped = _lloyd(points, points[:2].copy(), max_iter=1)
        assert capped == ["k-means stopped at 1 iterations"]
        labels, _, notes = _lloyd(points, points[:2].copy())
        assert notes == []
        np.testing.assert_array_equal(labels, [0, 0, 0, 1, 1, 1])


def bits(a):
    """uint64 view of a float64 array, so that equality also compares signs of zeros."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestBitPins:
    """The cluster stage reproduces the pinned copies in oracles.py to roundoff, and its decisions exactly.

    ssc_pinned records the solver's arithmetic before the loop came to keep
    one n x n state: z and e agree with it to 1e-12, the bound the solver
    also holds against ssc_reference, while the iteration count, z's
    nonzero pattern, the spectral labels and eigengap_k agree exactly. The
    affinity and the Laplacian are still pinned bit for bit.
    """

    CASES = [
        (lambda: gen_annotation_bundle()[0].image_features, 5, 4000),
        (lambda: gen_union_of_subspaces(3, 3, 15, 12, noise_sigma=0.01, seed=2).points, 3, 4000),
        (lambda: gen_annotation_bundle()[0].image_features, 5, 5),
        # 420 rows: the solver's sweep of 100-row blocks leaves a short last block.
        (lambda: gen_union_of_subspaces(4, 5, 30, 105, noise_sigma=0.01, seed=2).points, 4, 4000),
        # 24 images of 40 features: d + 1 >= n, so the set-up inverts M itself rather than by Woodbury.
        (lambda: gen_union_of_subspaces(3, 3, 40, 8, noise_sigma=0.01, seed=2).points, 3, 4000),
    ]

    @pytest.mark.parametrize("features, k, max_iters", CASES,
                             ids=["default-bundle", "union-of-subspaces", "capped-at-5", "n-420",
                                  "wide-features"])
    def test_cluster_stage_matches_pinned_bits(self, features, k, max_iters):
        images = features()
        n = images.n_rows
        cfg = SscConfig(max_iters=max_iters)
        rows = 100 if n == 420 else _sweep_rows(n)
        with mock.patch.object(subspace, "_sweep_rows", lambda n: rows):
            rep = ssc_solve(images, cfg)
        z, e, n_iters, converged, residuals, objective = ssc_pinned(
            images.data, cfg.mu, cfg.max_iters, cfg.tol
        )
        assert np.abs(rep.z - z).max() <= 1e-12
        assert np.abs(rep.e - e).max() <= 1e-12
        np.testing.assert_array_equal(rep.z != 0, z != 0)
        assert (rep.n_iters, rep.converged) == (n_iters, converged)
        got = (rep.residuals.recon_rel, rep.residuals.rowsum_max, rep.residuals.gap_max)
        assert got == pytest.approx(residuals, rel=1e-9, abs=1e-12)
        assert rep.objective == pytest.approx(objective, rel=1e-12)

        aff = affinity(rep)
        np.testing.assert_array_equal(bits(aff.weights), bits(affinity_pinned(rep.z)))

        nlap = normalized_laplacian_pinned(affinity_pinned(z))
        _, vecs = scipy.linalg.eigh(nlap, subset_by_index=(0, k - 1))
        norms = np.linalg.norm(vecs, axis=1)
        vecs[norms > 0] /= norms[norms > 0, None]
        labels, _, _ = _kmeans(vecs, k, 0)
        np.testing.assert_array_equal(spectral_cluster(aff, k, seed=0).labels, labels)

        vals = scipy.linalg.eigh(nlap, eigvals_only=True, subset_by_index=(0, 10))
        assert eigengap_k(aff, 10) == int(np.argmax(np.diff(vals))) + 1


class TestWorkingSet:
    """Traced allocation peak of each cluster-stage and graph call above its input, in n x n float64s.

    Measured at n = 1000, max_iters = 3. The first three bounds were set
    when the stage was cut to four n x n arrays, each between the peak after
    that cut and the peak before:
    - ssc_solve 4.4 (M^-1, two iterate buffers, y2, row-block and n x d
      temporaries) against 6.2 (a fifth buffer and an |buf| temporary);
    - affinity 2.3 (|Z| plus either NumPy's copy of its transpose or
      SimilarityGraph's copy of the sum) against 5.0 (|Z|, |Z| + |Z|^T as a
      new array, its copy, and w - w^T with its abs in the symmetry check);
    - spectral_cluster 2.0 (the Laplacian and the copy of its transpose
      that symmetrizes it in place) against 3.0 (eye - x, its transpose sum,
      and LAPACK's Fortran copy).

    The last three were set when NumPy's copies of overlapping operands and
    the whole-row-block |a| temporary went, each between the peak after and
    the peak before:
    - ssc_solve 4.25 (the soft threshold's |a| takes 1/16 of a row block)
      against 4.43 (a whole row block of 131 rows);
    - spectral_cluster 1.15 (the Laplacian, symmetrized by _add_transpose)
      against 2.01 (plus NumPy's copy of its transpose);
    - cosine_similarity_graph 2.30 (the cosines, built in place, and
      SimilarityGraph's copy) against 3.30 (cos + cos^T and its halves as
      new arrays).

    The last three were set when SimilarityGraph and GraphLaplacian came to
    adopt the frozen array their builder hands over, each between the peak
    after (one n x n buffer plus the blocked symmetry check's 0.26) and the
    peak before (plus the constructor's copy):
    - affinity 1.6 (|Z| summed with its transpose in place) against 2.26;
    - cosine_similarity_graph 1.7 (the cosines) against 2.30;
    - graph_laplacian 1.6 (0 - W with the degrees added to its diagonal)
      against 2.26 (np.diag(d), np.diag(d) - W, then the copy).

    The last was set when the solver came to keep one n x n state, A = Z +
    y2/rho, instead of Z, J and y2, between the peak after and the peak
    before:
    - ssc_solve 3.0 (M^-1, A, two row blocks of 250 rows and the n x d
      arrays: 2.83) against 4.25.
    """

    @pytest.fixture(scope="class")
    def peaks(self):
        images = gen_union_of_subspaces(5, 5, 40, 200, noise_sigma=0.01, seed=0).points
        unit = 8.0 * images.n_rows ** 2
        out = {}

        def traced(name, fn, *args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = fn(*args, **kwargs)
            out[name] = (tracemalloc.get_traced_memory()[1] - base) / unit
            return result

        tracemalloc.start()
        try:
            rep = traced("ssc_solve", ssc_solve, images, SscConfig(max_iters=3))
            aff = traced("affinity", affinity, rep)
            traced("spectral_cluster", spectral_cluster, aff, 5, seed=0)
            graph = traced("cosine_similarity_graph", cosine_similarity_graph, images)
            traced("graph_laplacian", graph_laplacian, graph)
        finally:
            tracemalloc.stop()
        return out

    @pytest.mark.parametrize("name, bound",
                             [("ssc_solve", 4.6), ("affinity", 2.5), ("spectral_cluster", 2.5),
                              ("ssc_solve", 4.35), ("spectral_cluster", 1.6),
                              ("cosine_similarity_graph", 2.8),
                              ("affinity", 1.6), ("cosine_similarity_graph", 1.7),
                              ("graph_laplacian", 1.6), ("ssc_solve", 3.0)])
    def test_peak_above_input(self, peaks, name, bound):
        assert peaks[name] <= bound


class TestClusterAssignment:
    def test_label_range_checked(self):
        with pytest.raises(DatasetError, match="out of range"):
            ClusterAssignment(labels=np.array([0, 3]), k=2)

    def test_sizes(self):
        a = ClusterAssignment(labels=np.array([0, 1, 1, 2]), k=3)
        np.testing.assert_array_equal(a.cluster_sizes(), [1, 2, 1])

    @pytest.mark.parametrize("labels, dtype, shape", [
        ([0.5, 1.7], "float64", (2,)),
        ([np.nan, 0], "float64", (2,)),
        ([[0, 1]], "int64", (1, 2)),
        (np.array([True, False]), "bool", (2,)),
    ], ids=["fractions", "nan", "2-D", "bool"])
    def test_labels_must_be_a_1d_integer_array(self, labels, dtype, shape):
        with pytest.raises(DatasetError) as exc:
            ClusterAssignment(labels=labels, k=2)
        assert str(exc.value) == f"cluster labels must be a 1-D integer array, got {dtype} of shape {shape}"

    def test_empty_labels_allowed(self):
        assert ClusterAssignment(labels=[], k=1).labels.dtype == np.int64
