"""Command line: every subcommand is the list of stages it runs (build_parser).

A stage uses what an earlier stage of the same command made; run alone, it
reads the file its flag names, or the artifact the earlier stage writes.
All inputs and outputs go through the manifest + Matrix Market formats; a bad
input file is reported starting with its flag (or manifest key) and path.
Configuration comes from one JSON file plus repeatable --set overrides
(flags win); every value must have the kind its key's field declares.
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
import copy
import csv
import dataclasses
import inspect
import itertools
import json
import logging
import os
import pathlib
import sys

import numpy as np
import scipy.sparse as sp

from . import subspace
from .metrics import NoiseSpec, ap_ar_at_n, inject_noise, save_report
from .refine import FactorPair, RefineConfig, apply_factors, save_factors
from .refine import refine as run_refine
from .sharing import SharingConfig, share_tags
from .subspace import ClusterAssignment, SscConfig
from .tagmat import (
    DatasetBundle,
    DatasetError,
    FeatureMatrix,
    SimilarityGraph,
    TagMatrix,
    _config_problems,
    _read_input,
    _unit_rows,
    cosine_similarity_graph,
    graph_laplacian,
    load_dataset,
    read_dense_matrix,
    read_sparse_matrix,
    save_dataset,
    write_dense_matrix,
    write_id_list,
    write_sparse_matrix,
)
from .testkit import _bundle, gen_annotation_bundle, gen_planted_annotation, gen_union_of_subspaces

log = logging.getLogger("tagrefinery")

# The synth keys of the bundle kind, with gen_annotation_bundle's defaults.
_BUNDLE_DEFAULTS = {name: param.default for name, param
                    in inspect.signature(gen_annotation_bundle).parameters.items() if name != "noise"}


def _key(default, like: tuple = (), **bound):
    """A config key: its default (a list is copied per use) and its bound, or like=(class, field)'s."""
    if like:
        bound = next(f.metadata for f in dataclasses.fields(like[0]) if f.name == like[1])
    if isinstance(default, list):
        return dataclasses.field(default_factory=default.copy, metadata=bound)
    return dataclasses.field(default=default, metadata=bound)


@dataclasses.dataclass(frozen=True)
class _TopConfig:
    """The top-level keys, outside every section. Field metadata holds each key's bound."""

    manifest: str | None = None
    output_dir: str = "out"
    k: int = _key(5, ge=1)
    auto_k: bool = False
    auto_k_max: int = _key(10, ge=1)
    eval_n: list[int] = _key([2, 5, 10], ge=1)
    threads: int = _key(1, ge=1)

    def _cross_field(self) -> list[tuple[str, str]]:
        return [] if self.output_dir else [("output_dir", "must name a directory, got ''")]


@dataclasses.dataclass(frozen=True)
class _SynthConfig:
    """The synth section: every kind's keys. Field metadata holds each key's bound, whatever the kind."""

    kind: str = dataclasses.field(default="bundle", metadata={"in": ("bundle", "planted", "subspaces")})
    n_clusters: int = _key(_BUNDLE_DEFAULTS["n_clusters"], ge=1)
    images_per_cluster: int = _key(_BUNDLE_DEFAULTS["images_per_cluster"], ge=1)
    n_tags: int = _key(_BUNDLE_DEFAULTS["n_tags"], ge=1)
    tags_per_cluster: int = _key(_BUNDLE_DEFAULTS["tags_per_cluster"], ge=1)
    dim_subspace: int = _key(_BUNDLE_DEFAULTS["dim_subspace"], ge=1)
    image_dim: int = _key(_BUNDLE_DEFAULTS["image_dim"], ge=1)
    tag_dim: int = _key(_BUNDLE_DEFAULTS["tag_dim"], ge=1)
    tag_presence: float = _key(_BUNDLE_DEFAULTS["tag_presence"], ge=0, le=1)
    cluster_spread: float = _BUNDLE_DEFAULTS["cluster_spread"]
    image_noise: float = _key(_BUNDLE_DEFAULTS["image_noise"], ge=0)
    seed: int = _key(_BUNDLE_DEFAULTS["seed"], ge=0)
    rank: int = _key(3, ge=1)
    density: float = _key(0.2, gt=0, lt=1)
    missing_rate: float = _key(0.3, like=(NoiseSpec, "missing_rate"))
    inaccurate_rate: float = _key(0.3, like=(NoiseSpec, "inaccurate_rate"))
    noise_seed: int = _key(0, like=(NoiseSpec, "seed"))
    name: str = "synthetic"

    def _cross_field(self) -> list[tuple[str, str]]:
        """The name's form, then the checks of the kind's generator that tie keys together."""
        vocabulary, dims = self.n_clusters * self.tags_per_cluster, min(self.image_dim, self.tag_dim)
        checks = [("name", not self.name or os.path.dirname(self.name),
                   "be a non-empty file name, not a path"),
                  ("n_tags", self.kind == "bundle" and self.n_tags < vocabulary,
                   f"be at least synth.n_clusters x synth.tags_per_cluster = {vocabulary}"),
                  ("image_dim", self.kind != "planted" and self.image_dim <= self.dim_subspace,
                   f"exceed synth.dim_subspace = {self.dim_subspace}"),
                  ("rank", self.kind == "planted" and self.rank > dims,
                   f"be at most min(synth.image_dim, synth.tag_dim) = {dims}")]
        return [(key, f"must {must}, got {getattr(self, key)!r}") for key, bad, must in checks if bad]


@dataclasses.dataclass(frozen=True)
class _TuneConfig:
    """The tune section. Field metadata holds each key's bound; a grid takes its RefineConfig field's."""

    lambda1_grid: list[float] = _key([0.01, 0.1], like=(RefineConfig, "lambda1"))
    lambda2_grid: list[float] = _key([0.0, 0.01], like=(RefineConfig, "lambda2"))
    mu_grid: list[float] = _key([0.0, 0.2, 0.4, 0.6, 0.8], like=(RefineConfig, "mu"))
    rank_grid: list[int] = _key([8], like=(RefineConfig, "rank"))
    val_fraction: float = _key(0.5, gt=0, le=1)
    split_seed: int = _key(0, ge=0)
    n: int = _key(5, ge=1)


# Config section -> its class; the class defaults are the section defaults.
_SECTIONS = (("ssc", SscConfig), ("sharing", SharingConfig), ("refine", RefineConfig),
             ("synth", _SynthConfig), ("tune", _TuneConfig))
DEFAULT_CONFIG: dict = {**dataclasses.asdict(_TopConfig()),
                        **{section: dataclasses.asdict(cls()) for section, cls in _SECTIONS}}


def _merge_section(base: dict, override: dict, prefix: str) -> None:
    for key, value in override.items():
        path = f"{prefix}{key}"
        if key not in base:
            raise DatasetError(f"unknown config key {path!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise DatasetError(f"config key {path!r} must be a section/object")
            _merge_section(base[key], value, f"{path}.")
        else:
            base[key] = value  # _build_configs checks it once everything is merged


def _apply_override(cfg: dict, assignment: str) -> None:
    """Merge one ``dotted.key=value`` flag as if it came from a config file."""
    if "=" not in assignment:
        raise DatasetError(f"override {assignment!r} is not of the form key=value")
    dotted, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    for part in reversed(dotted.strip().split(".")):
        value = {part: value}
    _merge_section(cfg, value, "")


def resolve_config(args: argparse.Namespace) -> dict:
    """Defaults <- config file <- --set overrides <- dedicated flags; _build_configs checks the values."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if getattr(args, "config", None):
        loaded = _read_input("--config", args.config,
                             lambda path: json.loads(pathlib.Path(path).read_text("utf-8")))
        if not isinstance(loaded, dict):
            raise DatasetError(f"--config: {args.config}: must hold a JSON object")
        _merge_section(cfg, loaded, "")
    for assignment in getattr(args, "set", None) or []:
        _apply_override(cfg, assignment)
    for key in ("manifest", "output_dir", "threads", "k"):
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    return cfg


def _build_configs(cfg: dict) -> tuple:
    """The (ssc, sharing, refine) configs of the resolved config, once every key's kind, bound and cross-field
    checks pass; a problem reads `section.key: …`."""
    top = _TopConfig(**{f.name: cfg[f.name] for f in dataclasses.fields(_TopConfig)})
    configs = {section: cls(**cfg[section]) for section, cls in _SECTIONS}
    problems = [f"{key}: {reason}" for key, reason in _config_problems(top)]
    problems += [f"{section}.{key}: {reason}" for section, config in configs.items()
                 for key, reason in _config_problems(config)]
    if problems:
        raise DatasetError("; ".join(problems))
    return configs["ssc"], configs["sharing"], configs["refine"]


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
    if truth is None and (_tune in stages or (_eval in stages and _refine not in stages)):
        raise DatasetError(f"ground_truth: {args.command} needs a manifest with a ground_truth entry")
    fits = _tune in stages or (_refine in stages and not getattr(args, "apply", False))
    if fits:
        key, ranks = ("tune.rank_grid", cfg["tune"]["rank_grid"]) if _tune in stages \
            else ("refine.rank", [run.refine.rank])
        dims = (run.bundle.image_features.dim, run.bundle.tag_features.dim)
        for rank in ranks:
            try:
                dataclasses.replace(run.refine, rank=rank).validate(*dims)
            except DatasetError as exc:
                raise DatasetError(f"{key}: {exc}") from None
    cosine = _share in stages and run.sharing.neighbor_source == "cosine"
    for key, needed in (("image_features", fits or cosine or _cluster in stages), ("tag_features", fits)):
        if needed:
            try:
                _unit_rows(getattr(run.bundle, key).data)
            except DatasetError as exc:
                raise DatasetError(f"{key}: {exc}") from None
    evaluates = _eval in stages and not getattr(args, "skip_eval", False) and truth is not None
    if (_tune in stages or evaluates) and truth.nnz == 0:
        raise DatasetError("ground_truth: all rows are empty; nothing to evaluate")
    for key, n, checked in (("eval_n", max(cfg["eval_n"]), evaluates),
                            ("tune.n", cfg["tune"]["n"], _tune in stages)):
        if checked and n > n_tags:
            raise DatasetError(f"{key}: {n} exceeds the number of tags {n_tags}")
    if _tune in stages:
        val_rows = _val_rows(run)
        if truth.matrix[val_rows].nnz == 0:
            raise DatasetError(f"tune.val_fraction: the validation split of {val_rows.size} images "
                               f"(tune.split_seed={cfg['tune']['split_seed']}) has no ground-truth "
                               "tags; nothing to evaluate")
    if _cluster in stages and not cfg["auto_k"] and cfg["k"] > n_images:
        raise DatasetError(f"k: {cfg['k']} exceeds the number of images {n_images}")


def _synth(run: _Run) -> None:
    """A synthetic bundle of kind synth.kind, written as a manifest plus its files."""
    s = run.cfg["synth"]
    labels = None
    # _build_configs refuses every other value these generators reject. The image features still overflow
    # to inf when the larger of the keys that scale them (the bundle's two, else image_noise) is huge.
    scale = max(("cluster_spread", "image_noise")[s["kind"] != "bundle":], key=lambda key: abs(s[key]))
    try:
        if s["kind"] == "bundle":
            bundle, labels = gen_annotation_bundle(**{key: s[key] for key in _BUNDLE_DEFAULTS})
        elif s["kind"] == "planted":
            inst = gen_planted_annotation(
                n_images=s["n_clusters"] * s["images_per_cluster"],
                n_tags=s["n_tags"],
                f_i=s["image_dim"],
                f_t=s["tag_dim"],
                r=s["rank"],
                density=s["density"],
                seed=s["seed"],
            )
            bundle = _bundle(inst.o_star, inst.v, inst.t, None, "tag_{:04d}")
        else:  # subspaces
            inst = gen_union_of_subspaces(
                k=s["n_clusters"],
                dim_subspace=s["dim_subspace"],
                dim_ambient=s["image_dim"],
                n_per_subspace=s["images_per_cluster"],
                noise_sigma=s["image_noise"],
                seed=s["seed"],
            )
            labels = inst.labels
            rng = np.random.default_rng(s["seed"] + 1)
            onehot = np.zeros((inst.points.n_rows, s["n_clusters"]))
            onehot[np.arange(inst.points.n_rows), labels] = 1.0
            tag_features = FeatureMatrix(rng.standard_normal((s["n_clusters"], s["tag_dim"])))
            bundle = _bundle(TagMatrix.from_dense(onehot), inst.points, tag_features, None, "cluster_{}")
    except DatasetError as exc:
        raise DatasetError(f"synth.{scale}: {exc}") from None
    try:
        tags = inject_noise(bundle.ground_truth, NoiseSpec(s["missing_rate"], s["inaccurate_rate"],
                                                           seed=s["noise_seed"]))
    except DatasetError as exc:  # too few empty cells for the spurious entries
        raise DatasetError(f"synth.inaccurate_rate: {exc}") from None
    bundle = dataclasses.replace(bundle, tags=tags)

    manifest = save_dataset(bundle, run.cfg["output_dir"], name=s["name"])
    if labels is not None:
        write_id_list(run.out(f"{s['name']}_true_clusters.txt"), labels)
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
        "recon_rel": rep.residuals.recon_rel,
        "rowsum_max": rep.residuals.rowsum_max,
        "gap_max": rep.residuals.gap_max,
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
                run.affinity = _read_input("--affinity", path, read_dense_matrix,
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


def _finite(arr: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise DatasetError("contains non-finite entries")
    return arr


def _refine(run: _Run) -> None:
    """Refine share's tags (run alone: --tags-in, else the bundle's); --apply only scores factors.

    Writes the raw scores as refined_scores.mtx and their [0, 1] clamp as refined.mtx, both
    Matrix Market arrays.
    """
    args, bundle = run.args, run.bundle
    apply, init = getattr(args, "apply", False), None
    if getattr(args, "import_factors", None):  # P's rank is free under --apply, Q's follows P's
        p_path, q_path = args.import_factors
        p = _read_input("--import-factors", p_path, read_dense_matrix,
                        (bundle.image_features.dim, None if apply else run.refine.rank), _finite)
        init = FactorPair(p, _read_input("--import-factors", q_path, read_dense_matrix,
                                         (bundle.tag_features.dim, p.shape[1]), _finite))
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
        run.scores = _read_input("--predictions", run.args.predictions, read_dense_matrix,
                                 run.bundle.tags.matrix.shape, _finite)
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
    truth_val = TagMatrix(sp.csr_array(run.bundle.ground_truth.matrix[val_idx]))

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


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="override a config value by dotted path, e.g. --set refine.mu=0.7",
    )
    parser.add_argument("--manifest", help="dataset manifest path (overrides config)")
    parser.add_argument("--output-dir", help="artifact directory (overrides config)")
    parser.add_argument(
        "--threads", type=int,
        help="the threads config key, set as OMP/OPENBLAS/MKL_NUM_THREADS where unset; "
             "numpy is loaded by then, so this does not pin BLAS: set them in the environment",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tagrefinery",
        description="Complete and refine noisy image-tag annotation matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="self-representation + spectral clustering of images")
    _add_common(p)
    p.add_argument("--k", type=int, help="number of clusters (overrides config)")
    p.set_defaults(stages=(_cluster,))

    p = sub.add_parser("share", help="densify tags by in-cluster neighbor voting")
    _add_common(p)
    p.add_argument("--labels", help="cluster labels file (default: <output-dir>/labels.txt)")
    p.add_argument("--affinity", help="affinity matrix file (default: <output-dir>/affinity.mtx)")
    p.set_defaults(stages=(_share,))

    p = sub.add_parser("refine", help="low-rank refinement of a (completed) tag matrix")
    _add_common(p)
    p.add_argument("--tags-in", help="completed tag matrix to refine instead of the bundle's")
    p.add_argument(
        "--import-factors", nargs=2, metavar=("P.mtx", "Q.mtx"),
        help="resume from saved factors",
    )
    p.add_argument(
        "--apply", action="store_true",
        help="only apply imported factors to the bundle's features (no solving)",
    )
    p.set_defaults(stages=(_refine,))

    p = sub.add_parser("pipeline", help="cluster -> share -> refine -> eval")
    _add_common(p)
    p.add_argument("--k", type=int, help="number of clusters (overrides config)")
    p.add_argument("--skip-eval", action="store_true", help="skip evaluation even with ground truth")
    p.set_defaults(stages=(_cluster, _share, _refine, _eval))

    p = sub.add_parser("eval", help="AP@N / AR@N of a prediction matrix against ground truth")
    _add_common(p)
    p.add_argument("--predictions", required=True, help="Matrix Market score or tag matrix")
    p.set_defaults(stages=(_eval,))

    p = sub.add_parser("synth", help="generate a synthetic bundle (manifest + files)")
    _add_common(p)
    p.set_defaults(stages=(_synth,))

    p = sub.add_parser("tune", help="grid-search refine parameters against validation AP@N")
    _add_common(p)
    p.add_argument("--completed", help="reuse an existing completed matrix instead of re-sharing")
    p.set_defaults(stages=(_cluster, _share, _tune))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(message)s",
    )
    try:
        cfg = resolve_config(args)
        run = _Run(args, cfg, *_build_configs(cfg))
        # Best effort: only effective if numpy has not been imported yet in this process.
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, str(cfg["threads"]))
        stages = args.stages
        if getattr(args, "completed", None):
            stages = stages[2:]  # tune --completed stands in for cluster and share
        if _synth not in stages:
            if not cfg["manifest"]:
                raise DatasetError("manifest: no dataset manifest given (config key or --manifest)")
            run.bundle = load_dataset(cfg["manifest"])
            _check_bundle(run, stages)
        _check_output_dir(cfg["output_dir"])
        for stage in stages:
            try:
                stage(run)
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


if __name__ == "__main__":
    sys.exit(main())
