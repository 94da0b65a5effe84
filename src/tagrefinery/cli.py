"""Command line stages: every subcommand is the list of stages it runs (config.build_parser).

A stage uses what an earlier stage of the same command made; run alone, it
reads the file its flag names, or the artifact the earlier stage writes.
All inputs and outputs go through the manifest + Matrix Market formats; a bad
input file is reported starting with its flag (or manifest key) and path.
Configuration comes from one JSON file plus repeatable --set overrides
(flags win), resolved and checked by tagrefinery.config before any stage runs.
Every run writes the fully resolved configuration next to its outputs so
it can be replayed bit-for-bit. Logs go to stderr, machine artifacts to
files only; the output directory is made on the first write.

Exit codes: 0 success, 1 SSC non-convergence (in every command that clusters)
or a refine half-step whose normal matrix is not positive definite (artifacts
of earlier stages and the resolved configuration preserved), 2 unknown command,
invalid configuration/input, or a failed write ("output_dir: <path>: <reason>").
Refine stopping at refine.outer_iters before meeting refine.obj_tol logs a
warning and still exits 0.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import logging
import os
import pathlib
import sys

import numpy as np

from . import subspace
from .config import DatasetError, RefineConfig, SharingConfig, SscConfig, _read_input, _SynthConfig
from .config import DEFAULT_CONFIG, build_parser, load_command, resolve_config  # the last three stay public here
from .metrics import ap_ar_at_n, save_report
from .refine import FactorPair, _check_rank, apply_factors, save_factors
from .refine import refine as run_refine
from .sharing import share_tags
from .subspace import ClusterAssignment
from .tagmat import (
    DatasetBundle,
    SimilarityGraph,
    TagMatrix,
    _held_csr,
    _matrix,
    _read_frozen,
    _unit_rows,
    cosine_similarity_graph,
    graph_laplacian,
    load_dataset,
    read_sparse_matrix,
    save_dataset,
    write_dense_matrix,
    write_id_list,
    write_sparse_matrix,
)
from .testkit import _synth_bundle

log = logging.getLogger("tagrefinery")


def _check_output_dir(path: str) -> None:
    """Refuse, before any stage runs, an output_dir that exists as, or lies under, a non-directory."""
    probe = os.path.abspath(path)
    while not os.path.exists(probe):  # up to the nearest existing ancestor
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise DatasetError(f"output_dir: {path}: {probe} is not a directory")


def _write_json(path: str, obj, sort_keys: bool = False) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Stages: each takes the run and adds its products to it.
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _Run:
    """One command: flags, resolved config, stage configs, bundle, then each stage's products."""

    args: argparse.Namespace
    cfg: dict
    ssc: SscConfig
    sharing: SharingConfig
    refine: RefineConfig
    bundle: DatasetBundle | None = None
    affinity: SimilarityGraph | None = None  # cluster; share, its last user, drops it
    assignment: ClusterAssignment | None = None  # cluster
    completed: TagMatrix | None = None  # share
    laplacians: tuple | None = None  # the first refine fit
    scores: np.ndarray | None = None  # refine
    exit_code: int = 0

    def out(self, name: str) -> str:
        """Path of an artifact to write; the output directory is made on the first write."""
        os.makedirs(self.cfg["output_dir"], exist_ok=True)
        return os.path.join(self.cfg["output_dir"], name)


def _fit(run: _Run, tags: TagMatrix, refine_cfg: RefineConfig, init=None):
    """One refine fit; the image- and tag-similarity Laplacians are built once per run."""
    features = (run.bundle.image_features, run.bundle.tag_features)
    if run.laplacians is None:
        run.laplacians = tuple(graph_laplacian(cosine_similarity_graph(f)) for f in features)
    return run_refine(tags, *features, *run.laplacians, refine_cfg, init=init)


def _val_rows(run: _Run) -> np.ndarray:
    """The sorted image rows of tune's validation split (tune.val_fraction, tune.split_seed)."""
    t, n_images = run.cfg["tune"], run.bundle.tags.n_images
    n_val = max(1, int(round(t["val_fraction"] * n_images)))
    return np.sort(np.random.default_rng(t["split_seed"]).permutation(n_images)[:n_val])


def _check_bundle(run: _Run, stages: tuple) -> None:
    """The one owner of every check before the first stage that depends on the stages that run.

    Tune, and eval without refine, need a ground_truth entry; fits need a rank within both feature
    dimensions and nonzero feature rows (cosine graphs); clustering and cosine sharing need nonzero
    image rows; evaluation an annotated ground truth and cut-offs within the tag count; tune an
    annotated image in its validation split; clustering at a fixed k (auto_k off) k <= images.
    """
    args, cfg, truth = run.args, run.cfg, run.bundle.ground_truth
    n_images, n_tags = run.bundle.tags.matrix.shape
    if truth is None and ("tune" in stages or ("eval" in stages and "refine" not in stages)):
        raise DatasetError(f"ground_truth: {args.command} needs a manifest with a ground_truth entry")
    fits = "tune" in stages or ("refine" in stages and not getattr(args, "apply", False))
    if fits:
        key, ranks = ("tune.rank_grid", cfg["tune"]["rank_grid"]) if "tune" in stages \
            else ("refine.rank", [run.refine.rank])
        dims = (run.bundle.image_features.dim, run.bundle.tag_features.dim)
        for rank in ranks:
            try:
                _check_rank(rank, *dims)
            except DatasetError as exc:
                raise DatasetError(f"{key}: {exc}") from None
    cosine = "share" in stages and run.sharing.neighbor_source == "cosine"
    for key, needed in (("image_features", fits or cosine or "cluster" in stages), ("tag_features", fits)):
        if needed:
            try:
                _unit_rows(getattr(run.bundle, key).data)
            except DatasetError as exc:
                raise DatasetError(f"{key}: {exc}") from None
    evaluates = "eval" in stages and not getattr(args, "skip_eval", False) and truth is not None
    if ("tune" in stages or evaluates) and truth.nnz == 0:
        raise DatasetError("ground_truth: all rows are empty; nothing to evaluate")
    for key, n, checked in (("eval_n", max(cfg["eval_n"]), evaluates),
                            ("tune.n", cfg["tune"]["n"], "tune" in stages)):
        if checked and n > n_tags:
            raise DatasetError(f"{key}: {n} exceeds the number of tags {n_tags}")
    if "tune" in stages:
        val_rows = _val_rows(run)
        if truth.matrix[val_rows].nnz == 0:
            raise DatasetError(f"tune.val_fraction: the validation split of {val_rows.size} images "
                               f"(tune.split_seed={cfg['tune']['split_seed']}) has no ground-truth "
                               "tags; nothing to evaluate")
    if "cluster" in stages and not cfg["auto_k"] and cfg["k"] > n_images:
        raise DatasetError(f"k: {cfg['k']} exceeds the number of images {n_images}")


def _synth(run: _Run) -> None:
    """A synthetic bundle of kind synth.kind (testkit._synth_bundle), written as a manifest plus its files."""
    section = _SynthConfig(**run.cfg["synth"])
    try:
        bundle, labels = _synth_bundle(section)
    except DatasetError as exc:
        raise DatasetError(f"synth.{exc}") from None
    manifest = save_dataset(bundle, run.cfg["output_dir"], name=section.name)
    if labels is not None:
        write_id_list(run.out(f"{section.name}_true_clusters.txt"), labels)
    log.info("wrote synthetic bundle: %s", manifest)
    print(manifest)


def _cluster(run: _Run) -> None:
    """SSC affinity, then spectral clustering; SSC non-convergence makes the run exit 1.

    z.mtx is written as soon as the affinity is built and Z is dropped, so
    spectral clustering holds only the affinity and its Laplacian n x n.
    """
    rep = subspace.ssc_solve(run.bundle.image_features, run.ssc)
    log.info(
        "ssc: %d iterations, converged=%s, residuals: recon=%.3e rowsum=%.3e gap=%.3e",
        rep.n_iters, rep.converged, rep.residuals.recon_rel,
        rep.residuals.rowsum_max, rep.residuals.gap_max,
    )
    run.affinity = subspace.affinity(rep)
    write_dense_matrix(run.out("z.mtx"), rep.z)
    diagnostics = {
        "converged": rep.converged,
        "iterations": rep.n_iters,
        "objective": rep.objective,
        **dataclasses.asdict(rep.residuals),
    }
    del rep
    k = run.cfg["k"]
    if run.cfg["auto_k"]:
        k = subspace.eigengap_k(run.affinity, run.cfg["auto_k_max"])
        log.info("eigengap heuristic selected k=%d", k)
    run.assignment = subspace.spectral_cluster(run.affinity, k, seed=0)
    for note in run.assignment.notes:
        log.warning("spectral clustering: %s", note)

    write_dense_matrix(run.out("affinity.mtx"), run.affinity.weights)
    write_id_list(run.out("labels.txt"), run.assignment.labels)
    _write_json(
        run.out("ssc_diagnostics.json"),
        {**diagnostics, "k": int(k), "cluster_sizes": [int(s) for s in run.assignment.cluster_sizes()]},
    )
    if not diagnostics["converged"]:
        log.error("ssc did not converge within %d iterations; artifacts preserved in %s",
                  run.ssc.max_iters, run.cfg["output_dir"])
        run.exit_code = 1


def _share(run: _Run) -> None:
    """Share tags within clusters over the SSC affinity, or over cosine similarity when asked."""
    out_dir, n_images = run.cfg["output_dir"], run.bundle.tags.n_images
    if run.assignment is None:
        run.assignment = _read_input(
            "--labels", run.args.labels or os.path.join(out_dir, "labels.txt"),
            lambda p: np.array(pathlib.Path(p).read_text("utf-8").split(), dtype=np.int64),
            (n_images,), lambda labels: ClusterAssignment(labels, k=int(labels.max()) + 1),
        )
    if run.sharing.neighbor_source == "cosine":
        sims = cosine_similarity_graph(run.bundle.image_features)
    else:
        if run.affinity is None:
            path = run.args.affinity or os.path.join(out_dir, "affinity.mtx")
            try:
                run.affinity = _read_input("--affinity", path, _read_frozen,
                                           (n_images, n_images), SimilarityGraph)
            except DatasetError as exc:
                if run.args.affinity:
                    raise
                raise DatasetError(f"{exc}; run `cluster` first, pass --affinity, or set "
                                   "sharing.neighbor_source=cosine") from None
        sims = run.affinity
    run.completed = share_tags(run.bundle.tags, run.assignment, sims, run.sharing)
    run.affinity = None  # no later stage reads it, so its n x n buffer goes before refine's
    log.info("sharing: %d -> %d entries", run.bundle.tags.nnz, run.completed.nnz)
    write_sparse_matrix(run.out("completed.mtx"), run.completed)


def _refine(run: _Run) -> None:
    """Refine share's tags (run alone: --tags-in, else the bundle's); --apply only scores factors.

    Writes the raw scores as refined_scores.mtx and their [0, 1] clamp as refined.mtx, both
    Matrix Market arrays.
    """
    args, bundle = run.args, run.bundle
    apply, init = getattr(args, "apply", False), None
    if getattr(args, "import_factors", None):  # P's rank is free under --apply, Q's follows P's
        p_path, q_path = args.import_factors
        p = _read_input("--import-factors", p_path, _read_frozen,
                        (bundle.image_features.dim, None if apply else run.refine.rank),
                        lambda arr: _matrix(arr, "factor P"))
        init = FactorPair(p, _read_input("--import-factors", q_path, _read_frozen,
                                         (bundle.tag_features.dim, p.shape[1]),
                                         lambda arr: _matrix(arr, "factor Q")))
    if apply:  # no fit: no Laplacians; --tags-in is ignored, the bundle is loaded as always
        if init is None:
            raise DatasetError("--apply requires --import-factors P.mtx Q.mtx")
        run.scores = apply_factors(bundle.image_features, bundle.tag_features, init)
    else:
        tags = run.completed
        if tags is None and args.tags_in:
            tags = _read_input("--tags-in", args.tags_in, read_sparse_matrix, bundle.tags.matrix.shape)
        result = _fit(run, bundle.tags if tags is None else tags, run.refine, init)
        log.info(
            "refine: %d objective evaluations, final objective %.6e",
            len(result.objective_trace), result.objective_trace[-1],
        )
        run.scores = result.scores
        save_factors(result.factors, run.cfg["output_dir"])
    clamped = np.clip(run.scores, 0.0, 1.0)
    clamped += 0.0  # -0.0 becomes +0.0, so the file never says -0
    write_dense_matrix(run.out("refined.mtx"), clamped)
    write_dense_matrix(run.out("refined_scores.mtx"), run.scores)


def _eval(run: _Run) -> None:
    """AP@N / AR@N of refine's scores, or run alone of --predictions, against the ground truth."""
    truth = run.bundle.ground_truth
    if run.scores is None:
        run.scores = _read_input("--predictions", run.args.predictions, _read_frozen,
                                 run.bundle.tags.matrix.shape, lambda arr: _matrix(arr, "prediction matrix"))
    elif truth is None or run.args.skip_eval:
        return  # pipeline evaluates only a bundle with ground truth
    for n in run.cfg["eval_n"]:
        report = ap_ar_at_n(run.scores, truth, n)
        save_report(
            report,
            run.out(f"eval_at_{n}.txt"),
            per_image_csv=run.out(f"eval_at_{n}_per_image.csv"),
        )
        log.info("eval: AP@%d=%.4f AR@%d=%.4f", n, report.ap, n, report.ar)


def _tune(run: _Run) -> None:
    """Grid-search refine parameters on share's tags (run alone: --completed) by validation AP@N."""
    if run.completed is None:
        run.completed = _read_input("--completed", run.args.completed, read_sparse_matrix,
                                    run.bundle.tags.matrix.shape)
    t, val_idx = run.cfg["tune"], _val_rows(run)
    truth_val = TagMatrix(_held_csr(run.bundle.ground_truth.matrix[val_idx]))

    rows = []
    best = None
    grid = itertools.product(t["lambda1_grid"], t["lambda2_grid"], t["mu_grid"], t["rank_grid"])
    for lam1, lam2, mu, rank in grid:
        rc = dataclasses.replace(run.refine, lambda1=lam1, lambda2=lam2, mu=mu, rank=rank)
        result = _fit(run, run.completed, rc)
        report = ap_ar_at_n(result.scores[val_idx], truth_val, t["n"])
        rows.append((lam1, lam2, mu, rank, report.ap, report.ar))
        log.info(
            "tune: lambda1=%g lambda2=%g mu=%g rank=%d -> AP@%d=%.4f",
            lam1, lam2, mu, rank, t["n"], report.ap,
        )
        if best is None or report.ap > best["ap"]:
            best = {
                "lambda1": lam1, "lambda2": lam2, "mu": mu, "rank": rank,
                "ap": report.ap, "ar": report.ar, "n": t["n"],
            }

    with open(run.out("tune_results.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda1", "lambda2", "mu", "rank", f"ap_at_{t['n']}", f"ar_at_{t['n']}"])
        for row in rows:
            writer.writerow(row)
    _write_json(run.out("tune_best.json"), best)
    log.info("tune: best %s", best)




# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

# Stage name, as each subcommand of config.build_parser lists it -> the stage.
_STAGES = {"synth": _synth, "cluster": _cluster, "share": _share, "refine": _refine, "eval": _eval,
           "tune": _tune}


def run_stages(args: argparse.Namespace, cfg: dict, configs: tuple) -> int:
    """Run the stages of a parsed command on its checked config (config.load_command); the exit code."""
    run = _Run(args, cfg, *configs)
    try:
        stages = args.stages
        if getattr(args, "completed", None):
            stages = stages[2:]  # tune --completed stands in for cluster and share
        if "synth" not in stages:
            if not cfg["manifest"]:
                raise DatasetError("manifest: no dataset manifest given (config key or --manifest)")
            run.bundle = load_dataset(cfg["manifest"])
            _check_bundle(run, stages)
        _check_output_dir(cfg["output_dir"])
        for stage in stages:
            try:
                _STAGES[stage](run)
            except np.linalg.LinAlgError as exc:  # a ValueError: exit 1, earlier artifacts stay
                log.error("numerical breakdown: %s", exc)
                run.exit_code = 1
                break
        if os.path.isdir(cfg["output_dir"]):  # so that a failed run can be replayed too
            _write_json(run.out("config.resolved.json"), cfg, sort_keys=True)
        return run.exit_code
    except ValueError as exc:
        log.error("%s", exc)
        return 2
    except OSError as exc:  # every read goes through _read_input, so this is a failed write
        log.error("output_dir: %s: %s", exc.filename or cfg["output_dir"], exc.strerror or exc)
        return 2


def main(argv=None) -> int:
    """Run one command line. numpy is loaded by now, so this pins no BLAS threads: the console entry
    (tagrefinery.__main__) sets them from the threads key before numpy loads."""
    command = load_command(argv)
    return 2 if command is None else run_stages(*command)


if __name__ == "__main__":
    sys.exit(main())
