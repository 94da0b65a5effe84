"""Pipeline runner: every stage and the full sequence as subcommands.

All inputs and outputs go through the manifest + Matrix Market formats.
Configuration comes from one JSON file plus repeatable --set overrides
(flags win); every run writes the fully resolved configuration next to
its outputs so it can be replayed bit-for-bit. Logs go to stderr, machine
artifacts to files only.

Exit codes: 0 success, 1 solver non-convergence or numerical breakdown
(artifacts preserved), 2 unknown command or invalid configuration/input.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import itertools
import json
import logging
import os
import sys

import numpy as np
import scipy.sparse as sp

from . import subspace
from .metrics import NoiseSpec, ap_ar_at_n, inject_noise, save_report
from .refine import CgBreakdownError, RefineConfig, apply_factors, load_factors, save_factors
from .refine import refine as run_refine
from .sharing import SharingConfig, share_tags
from .subspace import ClusterAssignment, SscConfig
from .tagmat import (
    DatasetBundle,
    FeatureMatrix,
    SimilarityGraph,
    TagMatrix,
    cosine_similarity_graph,
    graph_laplacian,
    load_dataset,
    read_dense_matrix,
    read_sparse_matrix,
    save_dataset,
    write_dense_matrix,
    write_sparse_matrix,
)
from .testkit import gen_annotation_bundle, gen_planted_annotation, gen_union_of_subspaces

log = logging.getLogger("tagrefinery")

# Config section -> stage config class; the class defaults are the section defaults.
_STAGE_SECTIONS = (("ssc", SscConfig), ("sharing", SharingConfig), ("refine", RefineConfig))

DEFAULT_CONFIG: dict = {
    "manifest": None,
    "output_dir": "out",
    "k": 5,
    "auto_k": False,
    "auto_k_max": 10,
    "eval_n": [2, 5, 10],
    "threads": 1,
    **{section: dataclasses.asdict(cls()) for section, cls in _STAGE_SECTIONS},
    "synth": {
        "kind": "bundle",
        "n_clusters": 5,
        "images_per_cluster": 40,
        "n_tags": 50,
        "tags_per_cluster": 8,
        "dim_subspace": 4,
        "image_dim": 30,
        "tag_dim": 16,
        "tag_presence": 0.9,
        "cluster_spread": 0.35,
        "image_noise": 0.02,
        "rank": 3,
        "density": 0.2,
        "missing_rate": 0.3,
        "inaccurate_rate": 0.3,
        "noise_seed": 0,
        "seed": 0,
        "name": "synthetic",
    },
    "tune": {
        "lambda1_grid": [0.01, 0.1],
        "lambda2_grid": [0.0, 0.01],
        "mu_grid": [0.0, 0.2, 0.4, 0.6, 0.8],
        "rank_grid": [8],
        "val_fraction": 0.5,
        "split_seed": 0,
        "n": 5,
    },
}


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field(s)."""


def _merge_section(base: dict, override: dict, prefix: str) -> None:
    for key, value in override.items():
        path = f"{prefix}{key}"
        if key not in base:
            raise ConfigError(f"unknown config key {path!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {path!r} must be a section/object")
            _merge_section(base[key], value, f"{path}.")
        elif isinstance(value, dict):
            raise ConfigError(f"config key {path!r} is a value, not a section/object")
        else:
            base[key] = value


def _apply_override(cfg: dict, assignment: str) -> None:
    """Merge one ``dotted.key=value`` flag as if it came from a config file."""
    if "=" not in assignment:
        raise ConfigError(f"override {assignment!r} is not of the form key=value")
    dotted, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    for part in reversed(dotted.strip().split(".")):
        value = {part: value}
    _merge_section(cfg, value, "")


def resolve_config(args: argparse.Namespace) -> dict:
    """Defaults <- config file <- --set overrides <- dedicated flags."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if getattr(args, "config", None):
        if not os.path.exists(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        with open(args.config, encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        _merge_section(cfg, loaded, "")
    for assignment in getattr(args, "set", None) or []:
        _apply_override(cfg, assignment)
    if getattr(args, "manifest", None):
        cfg["manifest"] = args.manifest
    if getattr(args, "output_dir", None):
        cfg["output_dir"] = args.output_dir
    if getattr(args, "threads", None):
        cfg["threads"] = args.threads
    if getattr(args, "k", None):
        cfg["k"] = args.k
    return cfg


def _build_configs(cfg: dict) -> tuple:
    """Turn the resolved dict into validated (ssc, sharing, refine) config objects."""
    problems = []
    configs = []
    for section, cls in _STAGE_SECTIONS:
        try:
            stage_cfg = cls(**cfg[section])
            stage_cfg.validate()
        except (TypeError, ValueError) as exc:
            problems.append(f"{section}: {exc}")
            stage_cfg = None
        configs.append(stage_cfg)
    if not isinstance(cfg["k"], int) or cfg["k"] < 1:
        problems.append(f"k: must be a positive integer, got {cfg['k']!r}")
    if not isinstance(cfg["eval_n"], list) or not all(
        isinstance(n, int) and n >= 1 for n in cfg["eval_n"]
    ):
        problems.append(f"eval_n: must be a list of positive integers, got {cfg['eval_n']!r}")
    if problems:
        raise ConfigError("; ".join(problems))
    return tuple(configs)


def _write_json(path: str, obj, sort_keys: bool = False) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def _write_labels(path: str, labels) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for lab in labels:
            fh.write(f"{int(lab)}\n")


def _read_labels(path: str):
    if not os.path.exists(path):
        raise ConfigError(f"labels file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        return np.asarray([int(line.strip()) for line in fh if line.strip()], dtype=np.int64)


# ---------------------------------------------------------------------------
# Stage runners (shared between individual subcommands and `pipeline`)
# ---------------------------------------------------------------------------


def _stage_cluster(bundle, cfg, ssc_cfg, out_dir):
    rep = subspace.ssc_solve(bundle.image_features, ssc_cfg)
    log.info(
        "ssc: %d iterations, converged=%s, residuals: recon=%.3e rowsum=%.3e gap=%.3e",
        rep.n_iters, rep.converged, rep.residuals.recon_rel,
        rep.residuals.rowsum_max, rep.residuals.gap_max,
    )
    aff = subspace.affinity(rep)
    k = cfg["k"]
    if cfg["auto_k"]:
        k = subspace.eigengap_k(aff, cfg["auto_k_max"])
        log.info("eigengap heuristic selected k=%d", k)
    assignment = subspace.spectral_cluster(aff, k, seed=0)
    for note in assignment.notes:
        log.warning("spectral clustering: %s", note)

    write_dense_matrix(os.path.join(out_dir, "z.mtx"), rep.z)
    write_dense_matrix(os.path.join(out_dir, "affinity.mtx"), aff.weights)
    _write_labels(os.path.join(out_dir, "labels.txt"), assignment.labels)
    _write_json(
        os.path.join(out_dir, "ssc_diagnostics.json"),
        {
            "converged": rep.converged,
            "iterations": rep.n_iters,
            "objective": rep.objective,
            "recon_rel": rep.residuals.recon_rel,
            "rowsum_max": rep.residuals.rowsum_max,
            "gap_max": rep.residuals.gap_max,
            "k": int(k),
            "cluster_sizes": [int(s) for s in assignment.cluster_sizes()],
        },
    )
    return rep, aff, assignment


def _stage_share(bundle, sharing_cfg, assignment, aff, out_dir):
    """Share tags over the affinity graph, or over cosine similarity when asked or aff is None."""
    sims = aff
    if sharing_cfg.neighbor_source == "cosine" or aff is None:
        sims = cosine_similarity_graph(bundle.image_features)
    completed = share_tags(bundle.tags, assignment, sims, sharing_cfg)
    log.info("sharing: %d -> %d entries", bundle.tags.nnz, completed.nnz)
    write_sparse_matrix(os.path.join(out_dir, "completed.mtx"), completed)
    return completed


def _laplacians(bundle):
    """Image- and tag-similarity graph Laplacians used by refine."""
    return (
        graph_laplacian(cosine_similarity_graph(bundle.image_features)),
        graph_laplacian(cosine_similarity_graph(bundle.tag_features)),
    )


def _write_scores(out_dir, scores) -> None:
    """Raw scores as refined_scores.mtx and their [0, 1] clamp as refined.mtx."""
    write_sparse_matrix(
        os.path.join(out_dir, "refined.mtx"), TagMatrix.from_dense(np.clip(scores, 0.0, 1.0))
    )
    write_dense_matrix(os.path.join(out_dir, "refined_scores.mtx"), scores)


def _stage_refine(bundle, tags, refine_cfg, out_dir, init=None):
    l_v, l_s = _laplacians(bundle)
    result = run_refine(tags, bundle.image_features, bundle.tag_features,
                        l_v, l_s, refine_cfg, init=init)
    log.info(
        "refine: %d objective evaluations, final objective %.6e",
        len(result.objective_trace), result.objective_trace[-1],
    )
    _write_scores(out_dir, result.scores)
    save_factors(result.factors, out_dir)
    return result


def _stage_eval(scores, truth, n_list, out_dir):
    for n in n_list:
        report = ap_ar_at_n(scores, truth, n)
        save_report(
            report,
            os.path.join(out_dir, f"eval_at_{n}.txt"),
            per_image_csv=os.path.join(out_dir, f"eval_at_{n}_per_image.csv"),
        )
        log.info("eval: AP@%d=%.4f AR@%d=%.4f", n, report.ap, n, report.ar)


# ---------------------------------------------------------------------------
# Subcommands: each gets the parsed flags, the resolved config, the loaded
# bundle (None for synth), the (ssc, sharing, refine) configs, and returns
# its exit code. main() does the shared set-up and writes the snapshot.
# ---------------------------------------------------------------------------


def cmd_synth(args, cfg, bundle, configs) -> int:
    out_dir = cfg["output_dir"]
    s = cfg["synth"]
    noise = NoiseSpec(
        missing_rate=s["missing_rate"],
        inaccurate_rate=s["inaccurate_rate"],
        seed=s["noise_seed"],
    )
    labels = None
    if s["kind"] == "bundle":
        bundle, labels = gen_annotation_bundle(
            n_clusters=s["n_clusters"],
            images_per_cluster=s["images_per_cluster"],
            n_tags=s["n_tags"],
            tags_per_cluster=s["tags_per_cluster"],
            dim_subspace=s["dim_subspace"],
            image_dim=s["image_dim"],
            tag_dim=s["tag_dim"],
            tag_presence=s["tag_presence"],
            cluster_spread=s["cluster_spread"],
            image_noise=s["image_noise"],
            noise=noise,
            seed=s["seed"],
        )
    elif s["kind"] == "planted":
        if not s["density"] < 1.0:
            raise ConfigError(
                "synth.density: planted bundles need density < 1 so the tag "
                "matrix is binary and noise can be injected"
            )
        inst = gen_planted_annotation(
            n_images=s["n_clusters"] * s["images_per_cluster"],
            n_tags=s["n_tags"],
            f_i=s["image_dim"],
            f_t=s["tag_dim"],
            r=s["rank"],
            density=s["density"],
            seed=s["seed"],
        )
        n_images = inst.v.n_rows
        bundle = DatasetBundle(
            tags=inject_noise(inst.o_star, noise),
            image_features=inst.v,
            tag_features=inst.t,
            image_ids=tuple(f"img_{i:05d}" for i in range(n_images)),
            tag_names=tuple(f"tag_{j:04d}" for j in range(s["n_tags"])),
            ground_truth=inst.o_star,
        )
    elif s["kind"] == "subspaces":
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
        truth = TagMatrix.from_dense(onehot)
        bundle = DatasetBundle(
            tags=inject_noise(truth, noise),
            image_features=inst.points,
            tag_features=FeatureMatrix(rng.standard_normal((s["n_clusters"], s["tag_dim"]))),
            image_ids=tuple(f"img_{i:05d}" for i in range(inst.points.n_rows)),
            tag_names=tuple(f"cluster_{j}" for j in range(s["n_clusters"])),
            ground_truth=truth,
        )
    else:
        raise ConfigError(
            f"synth.kind: expected 'bundle', 'planted' or 'subspaces', got {s['kind']!r}"
        )

    manifest = save_dataset(bundle, out_dir, name=s["name"])
    if labels is not None:
        _write_labels(os.path.join(out_dir, f"{s['name']}_true_clusters.txt"), labels)
    log.info("wrote synthetic bundle: %s", manifest)
    print(manifest)
    return 0


def cmd_cluster(args, cfg, bundle, configs) -> int:
    ssc_cfg = configs[0]
    rep, _, _ = _stage_cluster(bundle, cfg, ssc_cfg, cfg["output_dir"])
    if not rep.converged:
        log.error("ssc did not converge within %d iterations", ssc_cfg.max_iters)
        return 1
    return 0


def cmd_share(args, cfg, bundle, configs) -> int:
    sharing_cfg = configs[1]
    out_dir = cfg["output_dir"]
    labels = _read_labels(args.labels or os.path.join(out_dir, "labels.txt"))
    assignment = ClusterAssignment(labels=labels, k=int(labels.max()) + 1)

    aff = None
    if sharing_cfg.neighbor_source == "affinity":
        aff_path = args.affinity or os.path.join(out_dir, "affinity.mtx")
        if not os.path.exists(aff_path):
            raise ConfigError(
                f"affinity matrix not found at {aff_path}; run `cluster` first, pass "
                "--affinity, or set sharing.neighbor_source=cosine"
            )
        aff = SimilarityGraph(read_dense_matrix(aff_path))
    _stage_share(bundle, sharing_cfg, assignment, aff, out_dir)
    return 0


def cmd_refine(args, cfg, bundle, configs) -> int:
    refine_cfg = configs[2]
    out_dir = cfg["output_dir"]
    tags = bundle.tags
    if args.tags_in:
        tags = read_sparse_matrix(args.tags_in)
        if (tags.n_images, tags.n_tags) != (bundle.tags.n_images, bundle.tags.n_tags):
            raise ConfigError(
                f"--tags-in matrix {tags.n_images}x{tags.n_tags} does not match the "
                f"bundle {bundle.tags.n_images}x{bundle.tags.n_tags}"
            )

    init = None
    if args.import_factors:
        init = load_factors(*args.import_factors)
    if args.apply:
        if init is None:
            raise ConfigError("--apply requires --import-factors P.mtx Q.mtx")
        _write_scores(out_dir, apply_factors(bundle.image_features, bundle.tag_features, init))
        return 0

    _stage_refine(bundle, tags, refine_cfg, out_dir, init=init)
    return 0


def cmd_pipeline(args, cfg, bundle, configs) -> int:
    ssc_cfg, sharing_cfg, refine_cfg = configs
    out_dir = cfg["output_dir"]
    rep, aff, assignment = _stage_cluster(bundle, cfg, ssc_cfg, out_dir)
    completed = _stage_share(bundle, sharing_cfg, assignment, aff, out_dir)
    result = _stage_refine(bundle, completed, refine_cfg, out_dir)
    if bundle.ground_truth is not None and not args.skip_eval:
        _stage_eval(result.scores, bundle.ground_truth, cfg["eval_n"], out_dir)
    if not rep.converged:
        log.error("ssc did not converge; artifacts preserved in %s", out_dir)
        return 1
    return 0


def cmd_eval(args, cfg, bundle, configs) -> int:
    if bundle.ground_truth is None:
        raise ConfigError("manifest has no ground_truth entry; nothing to evaluate against")
    scores = read_dense_matrix(args.predictions)
    _stage_eval(scores, bundle.ground_truth, cfg["eval_n"], cfg["output_dir"])
    return 0


def cmd_tune(args, cfg, bundle, configs) -> int:
    ssc_cfg, sharing_cfg, refine_base = configs
    out_dir = cfg["output_dir"]
    if bundle.ground_truth is None:
        raise ConfigError("tune needs a manifest with ground_truth for validation scoring")

    if args.completed:
        completed = read_sparse_matrix(args.completed)
    else:
        _, aff, assignment = _stage_cluster(bundle, cfg, ssc_cfg, out_dir)
        completed = _stage_share(bundle, sharing_cfg, assignment, aff, out_dir)

    t = cfg["tune"]
    rng = np.random.default_rng(t["split_seed"])
    n_images = bundle.tags.n_images
    n_val = max(1, int(round(t["val_fraction"] * n_images)))
    val_idx = np.sort(rng.permutation(n_images)[:n_val])
    truth_val = TagMatrix(sp.csr_array(bundle.ground_truth.matrix[val_idx]))
    l_v, l_s = _laplacians(bundle)

    rows = []
    best = None
    grid = itertools.product(
        t["lambda1_grid"], t["lambda2_grid"], t["mu_grid"], t["rank_grid"]
    )
    for lam1, lam2, mu, rank in grid:
        rc = dataclasses.replace(refine_base, lambda1=lam1, lambda2=lam2, mu=mu, rank=rank)
        rc.validate(bundle.image_features.dim, bundle.tag_features.dim)
        result = run_refine(
            completed, bundle.image_features, bundle.tag_features, l_v, l_s, rc
        )
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

    with open(os.path.join(out_dir, "tune_results.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda1", "lambda2", "mu", "rank", f"ap_at_{t['n']}", f"ar_at_{t['n']}"])
        for row in rows:
            writer.writerow(row)
    _write_json(os.path.join(out_dir, "tune_best.json"), best)
    log.info("tune: best %s", best)
    return 0


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
    parser.add_argument("--threads", type=int, help="BLAS thread budget; 1 keeps runs bit-stable")
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
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("share", help="densify tags by in-cluster neighbor voting")
    _add_common(p)
    p.add_argument("--labels", help="cluster labels file (default: <output-dir>/labels.txt)")
    p.add_argument("--affinity", help="affinity matrix file (default: <output-dir>/affinity.mtx)")
    p.set_defaults(func=cmd_share)

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
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("pipeline", help="cluster -> share -> refine -> eval")
    _add_common(p)
    p.add_argument("--k", type=int, help="number of clusters (overrides config)")
    p.add_argument("--skip-eval", action="store_true", help="skip evaluation even with ground truth")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("eval", help="AP@N / AR@N of a prediction matrix against ground truth")
    _add_common(p)
    p.add_argument("--predictions", required=True, help="Matrix Market score or tag matrix")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic bundle (manifest + files)")
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("tune", help="grid-search refine parameters against validation AP@N")
    _add_common(p)
    p.add_argument("--completed", help="reuse an existing completed matrix instead of re-sharing")
    p.set_defaults(func=cmd_tune)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(message)s",
    )
    threads = args.threads if args.threads else 1
    # Best effort: only effective if numpy has not been imported yet in this process.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(threads))

    try:
        cfg = resolve_config(args)
        configs = _build_configs(cfg)
        bundle = None
        if args.command != "synth":
            if not cfg["manifest"]:
                raise ConfigError("manifest: no dataset manifest given (config key or --manifest)")
            bundle = load_dataset(cfg["manifest"])
        os.makedirs(cfg["output_dir"], exist_ok=True)
        rc = args.func(args, cfg, bundle, configs)
        _write_json(os.path.join(cfg["output_dir"], "config.resolved.json"), cfg, sort_keys=True)
        return rc
    except CgBreakdownError as exc:
        log.error("numerical breakdown: %s", exc)
        return 1
    except ValueError as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
