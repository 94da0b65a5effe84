"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines. Instances and seeds are frozen; tolerances are stated inline.
"""

import json
import time

import numpy as np
import pytest

import tagrefinery as tr
from tagrefinery.cli import main as cli_main

from oracles import ap_ar, central_difference


def check(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {status} - {desc}{suffix}", flush=True)
    assert ok, f"criterion {num}: {desc}{suffix}"


# Frozen clustering instance shared by criteria 1 and 2:
# 3 subspaces of dimension 4 in ambient dimension 50, 60 points each.
FROZEN_SEED = 7


@pytest.fixture(scope="module")
def frozen_clean_solution():
    inst = tr.gen_union_of_subspaces(3, 4, 50, 60, noise_sigma=0.0, seed=FROZEN_SEED)
    start = time.monotonic()
    rep = tr.ssc_solve(inst.points, tr.SscConfig())
    elapsed = time.monotonic() - start
    return inst, rep, elapsed


@pytest.fixture(scope="module")
def frozen_noisy_solution():
    inst = tr.gen_union_of_subspaces(3, 4, 50, 60, noise_sigma=0.05, seed=FROZEN_SEED)
    rep = tr.ssc_solve(inst.points, tr.SscConfig())
    return inst, rep


def make_refine_instance(seed, n_i=5, n_t=4, f_i=4, f_t=3, density=0.5):
    rng = np.random.default_rng(seed)
    o = np.where(rng.random((n_i, n_t)) < density, rng.random((n_i, n_t)), 0.0)
    tags = tr.TagMatrix.from_dense(o)
    v = tr.FeatureMatrix(rng.standard_normal((n_i, f_i)))
    t = tr.FeatureMatrix(rng.standard_normal((n_t, f_t)))
    l_v = tr.graph_laplacian(tr.cosine_similarity_graph(v))
    l_s = tr.graph_laplacian(tr.cosine_similarity_graph(t))
    return tags, v, t, l_v, l_s


def test_criterion_1_ssc_constraints(frozen_clean_solution, frozen_noisy_solution):
    inst, rep, elapsed = frozen_clean_solution
    noisy_inst, noisy_rep = frozen_noisy_solution
    small = tr.gen_union_of_subspaces(2, 3, 20, 15, noise_sigma=0.02, seed=1)
    small_rep = tr.ssc_solve(small.points, tr.SscConfig())
    dup_rep = tr.ssc_solve(
        tr.FeatureMatrix([[1.0, 2.0], [1.0, 2.0]]), tr.SscConfig(mu=10.0)
    )

    cases = [
        (inst.points, rep),
        (noisy_inst.points, noisy_rep),
        (small.points, small_rep),
        (tr.FeatureMatrix([[1.0, 2.0], [1.0, 2.0]]), dup_rep),
    ]
    ok = True
    worst = {"diag": 0.0, "rowsum": 0.0, "recon": 0.0}
    for feats, r in cases:
        x = feats.data / np.linalg.norm(feats.data, axis=1, keepdims=True)
        diag = float(np.abs(np.diagonal(r.z)).max())
        rowsum = float(np.abs(r.z.sum(axis=1) - 1.0).max())
        recon = float(np.linalg.norm(x - r.z @ x - r.e) / np.linalg.norm(x))
        worst["diag"] = max(worst["diag"], diag)
        worst["rowsum"] = max(worst["rowsum"], rowsum)
        worst["recon"] = max(worst["recon"], recon)
        ok = ok and diag == 0.0 and rowsum <= 1e-4 and recon <= 1e-3
    ok = ok and elapsed <= 30.0
    check(
        1,
        "SSC constraints: diag(Z)=0 exactly, max|Z1-1|<=1e-4, recon<=1e-3, 180pts<=30s",
        ok,
        f"worst diag={worst['diag']:.1e}, rowsum={worst['rowsum']:.1e}, "
        f"recon={worst['recon']:.1e}, time={elapsed:.1f}s",
    )


def test_criterion_2_ssc_recovery(frozen_clean_solution, frozen_noisy_solution):
    inst, rep, _ = frozen_clean_solution
    rate = tr.subspace_preserving_rate(rep, inst.labels)
    labels = tr.spectral_cluster(tr.affinity(rep), 3, seed=0)
    acc = tr.clustering_accuracy(labels, inst.labels)
    noisy_inst, noisy_rep = frozen_noisy_solution
    noisy_rate = tr.subspace_preserving_rate(noisy_rep, noisy_inst.labels)
    ok = rate >= 0.99 and acc >= 0.98 and noisy_rate >= 0.90
    check(
        2,
        "SSC recovery: clean rate>=0.99 & accuracy>=0.98; sigma=0.05 rate>=0.90",
        ok,
        f"rate={rate:.4f}, accuracy={acc:.4f}, noisy rate={noisy_rate:.4f}",
    )


def test_criterion_3_gradient_correctness():
    worst = 0.0
    for seed in range(20):
        tags, v, t, l_v, l_s = make_refine_instance(seed + 100)
        rng = np.random.default_rng(seed + 500)
        factors = tr.FactorPair(rng.standard_normal((4, 2)), rng.standard_normal((3, 2)))
        cfg = tr.RefineConfig(rank=2, lambda1=0.3, lambda2=0.2, mu=0.4)
        for free in ("p", "q"):
            g = tr.gradient(tags, v, t, factors, l_v, l_s, cfg, free=free)

            def f(x, _free=free):
                fp = (
                    tr.FactorPair(x, factors.q)
                    if _free == "p"
                    else tr.FactorPair(factors.p, x)
                )
                return tr.objective(tags, v, t, fp, l_v, l_s, cfg)

            base = factors.p if free == "p" else factors.q
            num = central_difference(f, base.copy(), h=1e-5)
            rel = float((np.abs(num - g) / (1.0 + np.abs(g))).max())
            worst = max(worst, rel)
    check(
        3,
        "gradients match central finite differences to 1e-5 on 20 instances",
        worst <= 1e-5,
        f"worst relative error {worst:.2e}",
    )


def test_criterion_4_objective_monotone():
    worst = -np.inf
    for seed in range(5):
        tags, v, t, l_v, l_s = make_refine_instance(seed + 300, n_i=10, n_t=8, f_i=5, f_t=4)
        cfg = tr.RefineConfig(
            rank=3, lambda1=0.1, lambda2=0.05, mu=0.4, outer_iters=20,
            seed=seed, obj_tol=0.0,
        )
        result = tr.solve_alternating(tags, v, t, l_v, l_s, cfg)
        worst = max(worst, float(np.diff(result.objective_trace).max()))
    check(
        4,
        "objective never increases by more than 1e-9 across 20 outer iterations",
        worst <= 1e-9,
        f"worst increase {worst:.2e}",
    )


def test_criterion_5_complex_error_identity():
    worst = 0.0
    for mu in (0.0, 0.4, 0.7, 0.9):
        for seed in range(5):
            tags, v, t, l_v, l_s = make_refine_instance(seed + 700)
            rng = np.random.default_rng(seed + 900)
            factors = tr.FactorPair(
                rng.standard_normal((4, 2)), rng.standard_normal((3, 2))
            )
            cfg = tr.RefineConfig(rank=2, lambda1=0.0, lambda2=0.0, mu=mu)
            weighted = tr.objective(tags, v, t, factors, l_v, l_s, cfg)
            o = tags.toarray()
            ohat = (v.data @ factors.p) @ (t.data @ factors.q).T
            omega = ~tags.support()
            subtracted = ((o - ohat) ** 2).sum() - mu * (((o - ohat)[omega]) ** 2).sum()
            rel = abs(weighted - subtracted) / max(1.0, abs(subtracted))
            worst = max(worst, rel)
    check(
        5,
        "weighted loss equals subtracted form to 1e-10 for mu in {0, 0.4, 0.7, 0.9}",
        worst <= 1e-10,
        f"worst relative difference {worst:.2e}",
    )


def test_criterion_6_planted_recovery():
    inst = tr.gen_planted_annotation(25, 20, 6, 5, 3, density=1.0, seed=17)
    l_v = tr.GraphLaplacian(np.zeros((25, 25)))
    l_s = tr.GraphLaplacian(np.zeros((20, 20)))
    cfg = tr.RefineConfig(
        rank=3, lambda1=1e-8, lambda2=0.0, mu=0.0,
        outer_iters=120, seed=4, obj_tol=1e-13,
    )
    result = tr.refine(inst.o_star, inst.v, inst.t, l_v, l_s, cfg)
    rel = float(np.linalg.norm(result.scores - inst.scores) / np.linalg.norm(inst.scores))
    got = tr.top_n_tags(result.scores, 3)
    want = tr.top_n_tags(inst.scores, 3)
    rank_match = all(np.array_equal(g, w) for g, w in zip(got, want))
    check(
        6,
        "planted instance recovered: relative error <= 1e-2 and top-3 ranking matches",
        rel <= 1e-2 and rank_match,
        f"relative error {rel:.2e}, ranking match {rank_match}",
    )


def test_criterion_7_metric_oracle_equivalence():
    rng = np.random.default_rng(23)
    mismatches = 0
    instances = 0
    while instances < 100:
        n_i = int(rng.integers(2, 15))
        n_t = int(rng.integers(2, 18))
        truth = tr.TagMatrix.from_dense((rng.random((n_i, n_t)) < 0.35).astype(float))
        if truth.nnz == 0:
            continue
        instances += 1
        scores = rng.standard_normal((n_i, n_t))
        n = int(rng.integers(1, n_t + 2))
        report = tr.ap_ar_at_n(scores, truth, n)
        precs, recs = ap_ar(scores, truth.toarray(), n)
        same = (
            list(report.per_image_precision) == precs
            and list(report.per_image_recall) == recs
            and report.ap == float(np.mean(precs))
            and report.ar == float(np.mean(recs))
        )
        mismatches += 0 if same else 1
    check(
        7,
        "AP/AR matches the brute-force scorer exactly on 100 random instances",
        mismatches == 0,
        f"{mismatches} mismatching instances",
    )


def test_criterion_8_laplacian_properties():
    rng = np.random.default_rng(31)
    laps = []
    for trial in range(5):
        feats = tr.FeatureMatrix(rng.standard_normal((15, 6)))
        laps.append(tr.graph_laplacian(tr.cosine_similarity_graph(feats)))
    inst = tr.gen_union_of_subspaces(2, 2, 12, 10, seed=5)
    rep = tr.ssc_solve(inst.points, tr.SscConfig())
    laps.append(tr.graph_laplacian(tr.affinity(rep)))

    worst_rowsum, worst_quad = 0.0, np.inf
    for lap in laps:
        worst_rowsum = max(worst_rowsum, float(np.abs(lap.matrix.sum(axis=1)).max()))
        n = lap.size
        for _ in range(100):
            x = rng.standard_normal(n)
            x /= np.linalg.norm(x)
            worst_quad = min(worst_quad, float(x @ lap.matrix @ x))
    check(
        8,
        "Laplacians satisfy L1=0 (<=1e-9) and x'Lx >= -1e-8 on 100 unit vectors",
        worst_rowsum <= 1e-9 and worst_quad >= -1e-8,
        f"max |row sum| {worst_rowsum:.1e}, min quadratic form {worst_quad:.1e}",
    )


def test_criterion_9_end_to_end_improvement(tmp_path):
    data_dir = tmp_path / "data"
    rc = cli_main([
        "synth", "--output-dir", str(data_dir),
        "--set", "synth.n_clusters=5",
        "--set", "synth.images_per_cluster=100",
        "--set", "synth.n_tags=50",
        "--set", "synth.tags_per_cluster=8",
        "--set", "synth.missing_rate=0.3",
        "--set", "synth.inaccurate_rate=0.3",
        "--set", "synth.seed=0",
        "--set", "synth.noise_seed=0",
    ])
    assert rc == 0
    manifest = str(data_dir / "synthetic.manifest")

    out = tmp_path / "run"
    start = time.monotonic()
    rc = cli_main([
        "pipeline", "--manifest", manifest, "--output-dir", str(out),
        "--k", "5", "--set", "eval_n=[5]",
    ])
    elapsed = time.monotonic() - start
    assert rc == 0

    bundle = tr.load_dataset(manifest)
    noisy_ap = tr.ap_ar_at_n(bundle.tags, bundle.ground_truth, 5).ap
    text = (out / "eval_at_5.txt").read_text()
    refined_ap = float(dict(line.split(": ") for line in text.strip().splitlines())["ap"])
    gain = refined_ap - noisy_ap
    check(
        9,
        "pipeline AP@5 beats the noisy input by >= 0.05 within 5 minutes at 500x50",
        gain >= 0.05 and elapsed <= 300.0,
        f"noisy {noisy_ap:.4f} -> refined {refined_ap:.4f} (gain {gain:+.4f}), "
        f"{elapsed:.0f}s",
    )


def test_criterion_10_mu_noise_trend(tmp_path):
    best_mu = {}
    for rate in ("0.1", "0.4"):
        data_dir = tmp_path / f"data_{rate}"
        rc = cli_main([
            "synth", "--output-dir", str(data_dir),
            "--set", "synth.n_clusters=5",
            "--set", "synth.images_per_cluster=24",
            "--set", "synth.n_tags=40",
            "--set", "synth.tags_per_cluster=6",
            "--set", "synth.tag_presence=1.0",
            "--set", "synth.missing_rate=0.5",
            "--set", f"synth.inaccurate_rate={rate}",
            "--set", "synth.noise_seed=1",
            "--set", "synth.seed=1",
        ])
        assert rc == 0
        out = tmp_path / f"tune_{rate}"
        rc = cli_main([
            "tune", "--manifest", str(data_dir / "synthetic.manifest"),
            "--output-dir", str(out),
            "--set", "ssc.tol=1e-4",
            "--set", "sharing.min_confidence=0.3",
            "--set", "tune.lambda1_grid=[0.1]",
            "--set", "tune.lambda2_grid=[0.01]",
            "--set", "tune.mu_grid=[0.0,0.4,0.7]",
            "--set", "tune.rank_grid=[4]",
        ])
        assert rc == 0
        best_mu[rate] = json.loads((out / "tune_best.json").read_text())["mu"]
    check(
        10,
        "tuned mu for the noisier bundle is >= the cleaner bundle's",
        best_mu["0.4"] >= best_mu["0.1"],
        f"clean mu*={best_mu['0.1']}, noisy mu*={best_mu['0.4']}",
    )


def test_criterion_11_determinism():
    inst = tr.gen_union_of_subspaces(2, 3, 20, 12, noise_sigma=0.02, seed=9)
    rep1 = tr.ssc_solve(inst.points, tr.SscConfig())
    rep2 = tr.ssc_solve(inst.points, tr.SscConfig())
    ssc_same = np.array_equal(rep1.z, rep2.z) and np.array_equal(rep1.e, rep2.e)

    aff = tr.affinity(rep1)
    lab1 = tr.spectral_cluster(aff, 2, seed=3).labels
    lab2 = tr.spectral_cluster(aff, 2, seed=3).labels
    cluster_same = np.array_equal(lab1, lab2)

    rng = np.random.default_rng(2)
    truth = tr.TagMatrix.from_dense((rng.random((24, 10)) < 0.4).astype(float))
    spec = tr.NoiseSpec(0.3, 0.3, seed=8)
    noise_same = np.array_equal(
        tr.inject_noise(truth, spec).toarray(), tr.inject_noise(truth, spec).toarray()
    )

    noisy = tr.inject_noise(truth, spec)
    assignment = tr.spectral_cluster(aff, 2, seed=3)
    shared1 = tr.share_tags(noisy, assignment, aff, tr.SharingConfig())
    shared2 = tr.share_tags(noisy, assignment, aff, tr.SharingConfig())
    share_same = np.array_equal(shared1.toarray(), shared2.toarray())

    tags, v, t, l_v, l_s = make_refine_instance(41, n_i=12, n_t=9, f_i=5, f_t=4)
    cfg = tr.RefineConfig(rank=3, outer_iters=8, seed=13)
    ref1 = tr.refine(tags, v, t, l_v, l_s, cfg)
    ref2 = tr.refine(tags, v, t, l_v, l_s, cfg)
    refine_same = np.array_equal(ref1.scores, ref2.scores)

    ok = ssc_same and cluster_same and noise_same and share_same and refine_same
    check(
        11,
        "identical seeds reproduce solver outputs bit-exactly",
        ok,
        f"ssc={ssc_same}, cluster={cluster_same}, noise={noise_same}, "
        f"share={share_same}, refine={refine_same}",
    )
