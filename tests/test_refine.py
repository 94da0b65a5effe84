"""Refinement objective, gradients, solver behavior, and factor IO tests."""

import numpy as np
import pytest

from tagrefinery.metrics import NoiseSpec
from tagrefinery.refine import (
    FactorPair,
    RefineConfig,
    RefineResult,
    SolveResult,
    apply_factors,
    gradient,
    objective,
    refine,
    save_factors,
    solve_alternating,
    _check_rank,
    _Instance,
)
from tagrefinery.tagmat import (
    DatasetError,
    FeatureMatrix,
    GraphLaplacian,
    SimilarityGraph,
    TagMatrix,
    cosine_similarity_graph,
    graph_laplacian,
    read_dense_matrix,
    top_n_tags,
)
from tagrefinery.testkit import gen_annotation_bundle, gen_planted_annotation

from oracles import (
    central_difference,
    dense_unweighted_als,
    gaussian_start,
    imc_normal_matrix,
    refine_objective,
    unweighted_imc_gradient,
)


def make_instance(n_i=5, n_t=4, f_i=4, f_t=3, seed=0, density=0.5):
    rng = np.random.default_rng(seed)
    o = np.where(rng.random((n_i, n_t)) < density, rng.random((n_i, n_t)), 0.0)
    tags = TagMatrix.from_dense(o)
    v = FeatureMatrix(rng.standard_normal((n_i, f_i)))
    t = FeatureMatrix(rng.standard_normal((n_t, f_t)))
    l_v = graph_laplacian(cosine_similarity_graph(v))
    l_s = graph_laplacian(cosine_similarity_graph(t))
    return tags, v, t, l_v, l_s


def random_factors(f_i, f_t, r, seed=0):
    rng = np.random.default_rng(seed)
    return FactorPair(rng.standard_normal((f_i, r)), rng.standard_normal((f_t, r)))


def zero_laplacians(n_i, n_t):
    return GraphLaplacian(np.zeros((n_i, n_i))), GraphLaplacian(np.zeros((n_t, n_t)))


def bundle_instance(tag_features=None):
    """The default noisy bundle at 40 images, with cosine-similarity Laplacians as the CLI builds them."""
    bundle, _ = gen_annotation_bundle(
        images_per_cluster=8, noise=NoiseSpec(missing_rate=0.3, inaccurate_rate=0.3)
    )
    v = bundle.image_features
    t = bundle.tag_features if tag_features is None else tag_features
    l_v, l_s = (graph_laplacian(cosine_similarity_graph(f)) for f in (v, t))
    return bundle.tags, v, t, l_v, l_s


class TestConfig:
    def test_mu_bound_named(self):
        with pytest.raises(DatasetError, match=r"^mu must be in \[0, 1\), got 1\.2$"):
            RefineConfig(mu=1.2)

    def test_rank_vs_feature_dims(self):
        with pytest.raises(DatasetError, match=r"^rank 5 exceeds min feature dimension 4$"):
            _check_rank(5, 4, 6)

    def test_negative_lambdas(self):
        with pytest.raises(DatasetError, match="lambda"):
            RefineConfig(lambda1=-0.1)


class TestObjective:
    def test_zero_at_exact_fit(self):
        inst = gen_planted_annotation(8, 6, 4, 3, 2, density=1.0, seed=0)
        l_v, l_s = zero_laplacians(8, 6)
        cfg = RefineConfig(rank=2, lambda1=0.0, lambda2=0.0, mu=0.0)
        val = objective(inst.o_star, inst.v, inst.t,
                        FactorPair(inst.p_star, inst.q_star), l_v, l_s, cfg)
        assert val == 0.0

    def test_mu_zero_is_plain_squared_loss(self):
        tags, v, t, l_v, l_s = make_instance(seed=2)
        factors = random_factors(4, 3, 2, seed=3)
        cfg = RefineConfig(rank=2, lambda1=0.5, lambda2=0.0, mu=0.0)
        got = objective(tags, v, t, factors, l_v, l_s, cfg)
        ohat = (v.data @ factors.p) @ (t.data @ factors.q).T
        expected = ((tags.toarray() - ohat) ** 2).sum() + 0.25 * (
            (factors.p ** 2).sum() + (factors.q ** 2).sum()
        )
        assert got == pytest.approx(expected, rel=1e-12)

    def test_matches_bruteforce_oracle(self):
        for seed in range(5):
            tags, v, t, l_v, l_s = make_instance(n_i=4, n_t=3, seed=seed)
            factors = random_factors(4, 3, 2, seed=seed + 50)
            cfg = RefineConfig(rank=2, lambda1=0.7, lambda2=0.3, mu=0.4)
            got = objective(tags, v, t, factors, l_v, l_s, cfg)
            expected = refine_objective(
                tags.toarray(), tags.support(), v.data, t.data,
                factors.p, factors.q, l_v.matrix, l_s.matrix, 0.7, 0.3, 0.4,
            )
            assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))

    def test_weighted_equals_subtracted_identity(self):
        rng = np.random.default_rng(9)
        for mu in (0.0, 0.4, 0.7, 0.9):
            tags, v, t, l_v, l_s = make_instance(seed=int(mu * 10) + 1)
            factors = random_factors(4, 3, 2, seed=int(mu * 10) + 60)
            cfg = RefineConfig(rank=2, lambda1=0.0, lambda2=0.0, mu=mu)
            weighted = objective(tags, v, t, factors, l_v, l_s, cfg)
            o = tags.toarray()
            ohat = (v.data @ factors.p) @ (t.data @ factors.q).T
            omega = ~tags.support()
            subtracted = ((o - ohat) ** 2).sum() - mu * (((o - ohat)[omega]) ** 2).sum()
            assert abs(weighted - subtracted) <= 1e-10 * max(1.0, abs(subtracted))

    def test_dimension_mismatch(self):
        tags, v, t, l_v, l_s = make_instance()
        factors = random_factors(4, 3, 2)
        bad_l_v = GraphLaplacian(np.zeros((3, 3)))
        with pytest.raises(DatasetError, match="Laplacian"):
            objective(tags, v, t, factors, bad_l_v, l_s, RefineConfig(rank=2))


class TestGradient:
    def test_zero_factors_zero_gradient(self):
        tags, v, t, l_v, l_s = make_instance()
        factors = FactorPair(np.zeros((4, 2)), np.zeros((3, 2)))
        cfg = RefineConfig(rank=2, lambda1=0.0, lambda2=0.0, mu=0.0)
        g = gradient(tags, v, t, factors, l_v, l_s, cfg, free="p")
        np.testing.assert_array_equal(g, np.zeros((4, 2)))

    @pytest.mark.parametrize("free", ["p", "q"])
    def test_finite_difference_agreement(self, free):
        for seed in range(3):
            tags, v, t, l_v, l_s = make_instance(seed=seed + 20)
            factors = random_factors(4, 3, 2, seed=seed + 80)
            cfg = RefineConfig(rank=2, lambda1=0.3, lambda2=0.2, mu=0.4)
            g = gradient(tags, v, t, factors, l_v, l_s, cfg, free=free)

            def f(x):
                fp = FactorPair(x, factors.q) if free == "p" else FactorPair(factors.p, x)
                return objective(tags, v, t, fp, l_v, l_s, cfg)

            base = factors.p if free == "p" else factors.q
            num = central_difference(f, base.copy())
            rel = np.abs(num - g) / (1.0 + np.abs(g))
            assert rel.max() <= 1e-5

    def test_unweighted_full_observation_matches_classic(self):
        rng = np.random.default_rng(17)
        # Full observation: every entry annotated, so the mask is all ones.
        o = rng.random((5, 4)) * 0.9 + 0.05
        tags = TagMatrix.from_dense(o)
        v = FeatureMatrix(rng.standard_normal((5, 4)))
        t = FeatureMatrix(rng.standard_normal((4, 3)))
        l_v, l_s = zero_laplacians(5, 4)
        factors = random_factors(4, 3, 2, seed=18)
        cfg = RefineConfig(rank=2, lambda1=0.9, lambda2=0.0, mu=0.0)
        for free in ("p", "q"):
            got = gradient(tags, v, t, factors, l_v, l_s, cfg, free=free)
            expected = unweighted_imc_gradient(
                o, v.data, t.data, factors.p, factors.q, 0.9, free
            )
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


class TestExactHalfStep:
    @pytest.mark.parametrize("lam2, mu", [(0.0, 0.0), (0.05, 0.4), (0.3, 0.9)])
    def test_half_steps_match_kronecker_oracle(self, lam2, mu):
        for seed in range(3):
            tags, v, t, l_v, l_s = make_instance(n_i=8, n_t=6, seed=seed + 40)
            factors = random_factors(4, 3, 2, seed=seed + 90)
            cfg = RefineConfig(rank=2, lambda1=0.2, lambda2=lam2, mu=mu)
            inst = _Instance.build(tags, v, t, l_v, l_s, cfg)
            o, annotated = tags.toarray(), tags.support()
            sides = [
                (inst.half_step(factors.q), annotated, v.data, t.data @ factors.q, o,
                 l_v.matrix, l_s.matrix),
                (inst.transposed().half_step(factors.p), annotated.T, t.data, v.data @ factors.p, o.T,
                 l_s.matrix, l_v.matrix),
            ]
            for got, mask, rows, b, o_side, l_rows, l_cols in sides:
                h = imc_normal_matrix(mask, rows, b, l_rows, l_cols, 0.2, lam2, mu)
                want = np.linalg.solve(h, (2.0 * rows.T @ o_side @ b).ravel()).reshape(got.shape)
                assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_fit_ends_stationary_in_q(self):
        tags, v, t, l_v, l_s = bundle_instance()
        cfg = RefineConfig(outer_iters=5)
        factors = solve_alternating(tags, v, t, l_v, l_s, cfg).factors
        g = gradient(tags, v, t, factors, l_v, l_s, cfg, free="q")
        rhs = 2.0 * t.data.T @ tags.toarray().T @ (v.data @ factors.p)
        assert np.linalg.norm(g) <= 1e-12 * np.linalg.norm(rhs)

    def test_scores_do_not_amplify_input_roundoff(self):
        tags, v, t, l_v, l_s = bundle_instance()
        o = 0.5 * tags.toarray()
        nudged = o * (1.0 + 1e-13 * np.random.default_rng(0).uniform(-1.0, 1.0, o.shape))
        cfg = RefineConfig(outer_iters=5)
        scores = [refine(TagMatrix.from_dense(x), v, t, l_v, l_s, cfg).scores for x in (o, nudged)]
        d_in = np.abs(nudged - o).max()
        assert d_in > 0.0
        assert np.abs(scores[1] - scores[0]).max() <= 1e3 * d_in

    def test_not_positive_definite_raises_naming_lambda1(self):
        # Equal tag-feature rows make T Q rank one, so with lambda1 = 0 the
        # normal matrix is singular.
        tag_features = FeatureMatrix(np.tile(np.linspace(0.5, 1.5, 16), (50, 1)))
        tags, v, t, l_v, l_s = bundle_instance(tag_features)
        cfg = RefineConfig(lambda1=0.0)
        with pytest.raises(np.linalg.LinAlgError, match=r"refine\.lambda1"):
            solve_alternating(tags, v, t, l_v, l_s, cfg)


class TestSolveAlternating:
    def test_planted_exact_recovery(self):
        inst = gen_planted_annotation(15, 12, 5, 4, 2, density=1.0, seed=3)
        l_v, l_s = zero_laplacians(15, 12)
        cfg = RefineConfig(rank=2, lambda1=1e-8, lambda2=0.0, mu=0.0,
                           outer_iters=80, obj_tol=1e-13)
        result = solve_alternating(inst.o_star, inst.v, inst.t, l_v, l_s, cfg)
        ohat = (inst.v.data @ result.factors.p) @ (inst.t.data @ result.factors.q).T
        rel = np.linalg.norm(ohat - inst.scores) / np.linalg.norm(inst.scores)
        assert rel <= 1e-2

    def test_converging_fit_logs_no_warning(self, caplog):
        inst = gen_planted_annotation(10, 8, 4, 3, 2, density=1.0, seed=3)
        l_v, l_s = zero_laplacians(10, 8)
        cfg = RefineConfig(rank=2, lambda1=10.0, lambda2=0.0, mu=0.0, outer_iters=100)
        with caplog.at_level("WARNING", logger="tagrefinery.refine"):
            result = solve_alternating(inst.o_star, inst.v, inst.t, l_v, l_s, cfg)
        assert result.converged
        assert caplog.records == []

    def test_huge_lambda_drives_factors_to_zero(self):
        tags, v, t, l_v, l_s = make_instance(seed=4)
        cfg = RefineConfig(rank=2, lambda1=1e8, lambda2=0.0, mu=0.0, outer_iters=10)
        result = solve_alternating(tags, v, t, l_v, l_s, cfg)
        ohat = (v.data @ result.factors.p) @ (t.data @ result.factors.q).T
        assert np.abs(ohat).max() <= 1e-6

    def test_start_is_the_top_rank_svd_of_vt_o_t(self):
        tags, v, t, l_v, l_s = bundle_instance()
        cfg = RefineConfig(outer_iters=3)
        r = cfg.rank
        u, s, wt = np.linalg.svd(v.data.T @ (tags.toarray() @ t.data), full_matrices=False)
        svd = solve_alternating(tags, v, t, l_v, l_s, cfg, init=FactorPair(u[:, :r] * s[:r], wt[:r].T))
        own = solve_alternating(tags, v, t, l_v, l_s, cfg)
        assert own.objective_trace.tobytes() == svd.objective_trace.tobytes()
        assert own.factors.p.tobytes() == svd.factors.p.tobytes()
        assert own.factors.q.tobytes() == svd.factors.q.tobytes()

    def test_empty_tags_refine_to_zero(self):
        # V^T O T = 0, so the start is P = 0 and an orthonormal Q; lambda1 > 0 keeps each half-step solvable.
        tags, v, t, l_v, l_s = bundle_instance()
        empty = TagMatrix.from_dense(np.zeros((tags.n_images, tags.n_tags)))
        result = refine(empty, v, t, l_v, l_s, RefineConfig(lambda1=0.1))
        assert result.converged
        assert not result.scores.any()
        with pytest.raises(np.linalg.LinAlgError, match=r"refine\.lambda1"):
            solve_alternating(empty, v, t, l_v, l_s, RefineConfig(lambda1=0.0))

    def test_objective_trace_monotone(self):
        for seed in range(3):
            tags, v, t, l_v, l_s = make_instance(n_i=8, n_t=6, seed=seed + 30)
            cfg = RefineConfig(rank=2, lambda1=0.1, lambda2=0.05, mu=0.4,
                               outer_iters=20, obj_tol=0.0)
            init = FactorPair(*gaussian_start(4, 3, 2, seed))
            result = solve_alternating(tags, v, t, l_v, l_s, cfg, init=init)
            diffs = np.diff(result.objective_trace)
            assert diffs.max() <= 1e-9

    def test_deterministic(self):
        tags, v, t, l_v, l_s = make_instance(seed=5)
        cfg = RefineConfig(rank=2, outer_iters=5)
        r1 = solve_alternating(tags, v, t, l_v, l_s, cfg)
        r2 = solve_alternating(tags, v, t, l_v, l_s, cfg)
        np.testing.assert_array_equal(r1.factors.p, r2.factors.p)
        np.testing.assert_array_equal(r1.factors.q, r2.factors.q)

    def test_lambda2_zero_ignores_laplacians(self):
        tags, v, t, l_v, l_s = make_instance(seed=6)
        rng = np.random.default_rng(2)
        w = np.abs(rng.standard_normal((5, 5)))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.0)
        other_l_v = graph_laplacian(SimilarityGraph(w))
        cfg = RefineConfig(rank=2, lambda2=0.0, outer_iters=5)
        r1 = solve_alternating(tags, v, t, l_v, l_s, cfg)
        r2 = solve_alternating(tags, v, t, other_l_v, l_s, cfg)
        np.testing.assert_array_equal(r1.factors.p, r2.factors.p)
        np.testing.assert_array_equal(r1.factors.q, r2.factors.q)

    def test_mu_zero_matches_dense_als_oracle(self):
        rng = np.random.default_rng(21)
        o = rng.random((7, 5))
        tags = TagMatrix.from_dense(o)  # fully observed
        v = FeatureMatrix(rng.standard_normal((7, 4)))
        t = FeatureMatrix(rng.standard_normal((5, 3)))
        l_v, l_s = zero_laplacians(7, 5)
        cfg = RefineConfig(rank=2, lambda1=0.2, lambda2=0.0, mu=0.0,
                           outer_iters=6, obj_tol=0.0)
        init = FactorPair(*gaussian_start(4, 3, 2, seed=11))
        result = solve_alternating(tags, v, t, l_v, l_s, cfg, init=init)
        _, _, oracle_obj = dense_unweighted_als(o, v.data, t.data, 2, 0.2, 6, seed=11)
        got = result.objective_trace[-1]
        assert abs(got - oracle_obj) <= 1e-8 * max(1.0, abs(oracle_obj))

    def test_densifies_tags_once_per_fit(self, monkeypatch):
        tags, v, t, l_v, l_s = make_instance(seed=9)
        calls = []
        for name in ("toarray", "support"):
            original = getattr(TagMatrix, name)

            def counted(self, _original=original):
                calls.append(1)
                return _original(self)

            monkeypatch.setattr(TagMatrix, name, counted)
        cfg = RefineConfig(rank=2, outer_iters=5, obj_tol=0.0)
        solve_alternating(tags, v, t, l_v, l_s, cfg)
        assert len(calls) <= 2

    def test_trace_ends_at_public_objective(self):
        tags, v, t, l_v, l_s = make_instance(n_i=8, n_t=6, seed=10)
        cfg = RefineConfig(rank=2, lambda1=0.1, lambda2=0.05, mu=0.4, outer_iters=5)
        result = solve_alternating(tags, v, t, l_v, l_s, cfg)
        final = objective(tags, v, t, result.factors, l_v, l_s, cfg)
        assert result.objective_trace[-1] == pytest.approx(final, rel=1e-12)

    def test_factor_rank_bounded(self):
        tags, v, t, l_v, l_s = make_instance(seed=8)
        cfg = RefineConfig(rank=2, outer_iters=3)
        result = solve_alternating(tags, v, t, l_v, l_s, cfg)
        m = result.factors.p @ result.factors.q.T
        assert np.linalg.matrix_rank(m) <= 2


class TestRefine:
    def test_refine_is_the_solve_plus_its_scores(self):
        inst = gen_planted_annotation(12, 10, 5, 4, 2, density=0.5, seed=21)
        l_v, l_s = zero_laplacians(12, 10)
        cfg = RefineConfig(rank=2, lambda1=1e-3, lambda2=0.0, mu=0.3, outer_iters=5)
        solved = solve_alternating(inst.o_star, inst.v, inst.t, l_v, l_s, cfg)
        refined = refine(inst.o_star, inst.v, inst.t, l_v, l_s, cfg)
        assert isinstance(refined, RefineResult) and isinstance(refined, SolveResult)
        np.testing.assert_array_equal(refined.factors.p, solved.factors.p)
        np.testing.assert_array_equal(refined.factors.q, solved.factors.q)
        np.testing.assert_array_equal(refined.objective_trace, solved.objective_trace)
        assert (refined.converged, refined.n_outer) == (solved.converged, solved.n_outer)
        p, q = solved.factors.p, solved.factors.q
        np.testing.assert_array_equal(refined.scores, (inst.v.data @ p) @ (inst.t.data @ q).T)

    def test_zero_tags_zero_fixed_point(self):
        tags = TagMatrix.from_dense(np.zeros((6, 5)))
        rng = np.random.default_rng(12)
        v = FeatureMatrix(rng.standard_normal((6, 4)))
        t = FeatureMatrix(rng.standard_normal((5, 3)))
        l_v, l_s = zero_laplacians(6, 5)
        cfg = RefineConfig(rank=2, lambda1=0.5, lambda2=0.0, mu=0.0, outer_iters=20)
        result = refine(tags, v, t, l_v, l_s, cfg)
        assert np.abs(result.scores).max() <= 1e-6

    def test_planted_ranking_recovered(self):
        inst = gen_planted_annotation(12, 10, 5, 4, 2, density=1.0, seed=9)
        l_v, l_s = zero_laplacians(12, 10)
        cfg = RefineConfig(rank=2, lambda1=1e-8, lambda2=0.0, mu=0.0,
                           outer_iters=80, obj_tol=1e-13)
        result = refine(inst.o_star, inst.v, inst.t, l_v, l_s, cfg)
        got = top_n_tags(result.scores, 3)
        want = top_n_tags(inst.scores, 3)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_annotated_residual_nonincreasing_in_mu(self):
        # Corrupt some annotated entries; heavier mu weights the annotated
        # positions relatively more, so their squared residual shrinks.
        inst = gen_planted_annotation(15, 10, 5, 4, 2, density=0.4, seed=13)
        rng = np.random.default_rng(14)
        dense = inst.o_star.toarray()
        annotated = dense != 0
        rows, cols = np.nonzero(annotated)
        flip = rng.choice(rows.size, size=max(1, rows.size // 5), replace=False)
        dense[rows[flip], cols[flip]] = 0.05
        tags = TagMatrix.from_dense(dense)
        l_v, l_s = zero_laplacians(15, 10)
        annotated = tags.support()
        residuals = []
        for mu in (0.0, 0.3, 0.6, 0.9):
            cfg = RefineConfig(rank=2, lambda1=1e-4, lambda2=0.0, mu=mu,
                               outer_iters=60, obj_tol=1e-12)
            result = refine(tags, inst.v, inst.t, l_v, l_s, cfg)
            resid = (tags.toarray() - result.scores)[annotated]
            residuals.append(float((resid ** 2).sum()))
        diffs = np.diff(residuals)
        assert diffs.max() <= 1e-8 * max(1.0, residuals[0])

    def test_resume_from_planted_factors(self):
        inst = gen_planted_annotation(10, 8, 4, 3, 2, density=1.0, seed=16)
        l_v, l_s = zero_laplacians(10, 8)
        cfg = RefineConfig(rank=2, lambda1=0.0, lambda2=0.0, mu=0.0,
                           outer_iters=1)
        init = FactorPair(inst.p_star, inst.q_star)
        result = solve_alternating(inst.o_star, inst.v, inst.t, l_v, l_s, cfg, init=init)
        assert result.objective_trace[0] == 0.0

    def test_factor_io_roundtrip(self, tmp_path):
        factors = random_factors(4, 3, 2, seed=19)
        p_path, q_path = save_factors(factors, tmp_path)
        assert (p_path, q_path) == (str(tmp_path / "factors_p.mtx"), str(tmp_path / "factors_q.mtx"))
        np.testing.assert_array_equal(read_dense_matrix(p_path), factors.p)
        np.testing.assert_array_equal(read_dense_matrix(q_path), factors.q)

    def test_apply_factors_matches_reconstruction(self):
        inst = gen_planted_annotation(6, 5, 4, 3, 2, density=1.0, seed=20)
        scores = apply_factors(inst.v, inst.t, FactorPair(inst.p_star, inst.q_star))
        np.testing.assert_allclose(scores, inst.scores, atol=1e-12)

    def test_apply_factors_dimension_check(self):
        factors = random_factors(4, 3, 2)
        with pytest.raises(DatasetError, match="do not match"):
            apply_factors(FeatureMatrix(np.ones((2, 5))), FeatureMatrix(np.ones((2, 3))), factors)
