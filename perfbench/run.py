"""Benchmark of the ``tagrefinery`` command line, one child process per job.

Usage, from the repository root::

    python3 perfbench/run.py --workload pipeline-500 --seed 0 --seconds 20 --trace 0

Each run generates the workload's inputs from ``--seed`` (untimed), then runs
the workload's ``tagrefinery`` subcommand as a child process, one at a time
(closed loop, one client), until ``--seconds`` have passed; at least one job
always runs. Children get one BLAS thread and ``--threads 1``. Every job's
artifacts are checked; a job fails on a nonzero exit, a missing or
unparsable artifact or a failed check.

With ``--trace 0`` the last stdout line holds the end-to-end metrics
(medians over the run's jobs). With ``--trace 1`` one job traced by
``trace_cli.py`` runs between two untraced ones, and the last line holds the
per-layer metrics. See README.md in this directory for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import trace_cli

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
JOB_TIMEOUT_S = 150.0
SETUP_REPS = 5
N_CLUSTERS = 5
EVAL_N = 5
RANK = 8  # refine.rank of the default config
NOISE_RATE = 0.3
# Criterion 9 of the acceptance suite: refined AP@5 beats the noisy input by this much.
MIN_AP_GAIN = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "pipeline", "cluster", "tune" or "apply"
    images_per_cluster: int
    # apply: held-out images per cluster scored with factors fit on the others.
    held_out_per_cluster: int = 0
    # --set overrides of the default config passed to every job.
    overrides: tuple[str, ...] = ()
    # Traced runs require this span to take at least min_share of the traced job's wall time.
    dominant_span: str | None = None
    min_share: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        # The acceptance reference job; the only one running every stage in sequence.
        Workload("pipeline-500", "pipeline", 100),
        # SSC's n^3 cost dominates; refine does no work (control for refine changes).
        Workload("cluster-1000", "cluster", 200, dominant_span="subspace.ssc_solve", min_share=0.9),
        # Cold refine fits dominate; SSC does no work (control for SSC changes).
        # The 5-fit mu slice of the default 20-fit grid keeps a run within budget.
        Workload(
            "tune-200", "tune", 40,
            overrides=("tune.lambda1_grid=[0.1]", "tune.lambda2_grid=[0.01]"),
            dominant_span="refine.refine", min_share=0.9,
        ),
        # No solver runs: process start, load_dataset and Matrix Market I/O dominate.
        Workload("apply-100k", "apply", 40, held_out_per_cluster=20000),
    )
}

# Layers (besides cli) that must record spans in a traced job; the others must record none.
RUNNING_LAYERS = {
    "pipeline": {"tagmat", "subspace", "sharing", "refine", "metrics"},
    "cluster": {"tagmat", "subspace"},
    "tune": {"tagmat", "refine", "metrics"},
    "apply": {"tagmat", "refine"},
}
SOLVERS = ("subspace.ssc_solve", "refine.solve_alternating")


class CheckFailed(Exception):
    """An artifact of a job is missing, unparsable or wrong."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class ChildRun:
    rc: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_child(argv: list[str], log_path: Path) -> ChildRun:
    """Spawn, wait and return wall time (spawn to exit) and the child's rusage."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=log, stderr=subprocess.STDOUT,
        )
    killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        rc=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "tagrefinery.cli", *args]


# ---------------------------------------------------------------------------
# Inputs, generated from the seed before any timing
# ---------------------------------------------------------------------------


def ap_at_n(scores, truth_dense, n: int = EVAL_N) -> float:
    """AP@n by the package's documented rule, vectorized and independent of it.

    Rank by score descending, ties by ascending tag index; precision divides
    by n; images without ground-truth tags are left out.
    """
    import numpy as np

    top = np.argsort(-np.asarray(scores), axis=1, kind="stable")[:, :n]
    hits = np.take_along_axis(truth_dense, top, axis=1).sum(axis=1)
    keep = truth_dense.sum(axis=1) > 0
    return float(np.mean(hits[keep] / n))


@dataclass
class Inputs:
    manifest: Path
    job_args: list[str]
    n_images: int
    n_tags: int
    image_dim: int
    tag_dim: int
    truth_labels: object = None  # true clusters (pipeline, cluster)
    truth_dense: object = None  # ground-truth tags (pipeline, apply)
    noisy_ap: float = 0.0  # AP@5 of the noisy input tags (pipeline)


def generate(w: Workload, seed: int, data: Path) -> Inputs:
    """Write the workload's dataset (and any precomputed inputs) under data/."""
    from tagrefinery.metrics import NoiseSpec
    from tagrefinery.tagmat import save_dataset
    from tagrefinery.testkit import gen_annotation_bundle

    bundle, labels = gen_annotation_bundle(
        n_clusters=N_CLUSTERS,
        images_per_cluster=w.images_per_cluster + w.held_out_per_cluster,
        noise=NoiseSpec(missing_rate=NOISE_RATE, inaccurate_rate=NOISE_RATE, seed=seed),
        seed=seed,
    )
    if w.kind == "apply":
        inputs = held_out_inputs(w, bundle, data)
    else:
        manifest = Path(save_dataset(bundle, data, name="synthetic"))
        inputs = Inputs(
            manifest=manifest, job_args=[], n_images=bundle.tags.n_images,
            n_tags=bundle.tags.n_tags, image_dim=bundle.image_features.dim,
            tag_dim=bundle.tag_features.dim,
        )
    if w.kind == "pipeline":
        inputs.job_args = ["pipeline", "--manifest", str(inputs.manifest), "--k", str(N_CLUSTERS),
                           "--set", f"eval_n=[{EVAL_N}]"]
        inputs.truth_labels = labels
        inputs.truth_dense = bundle.ground_truth.toarray()
        inputs.noisy_ap = ap_at_n(bundle.tags.toarray(), inputs.truth_dense)
    elif w.kind == "cluster":
        inputs.job_args = ["cluster", "--manifest", str(inputs.manifest), "--k", str(N_CLUSTERS)]
        inputs.truth_labels = labels
    elif w.kind == "tune":
        completed = complete_tags(bundle, data / "completed.mtx")
        inputs.job_args = ["tune", "--manifest", str(inputs.manifest), "--completed", str(completed)]
    elif w.kind != "apply":
        raise ValueError(f"unknown workload kind {w.kind!r}")
    for override in w.overrides:
        inputs.job_args += ["--set", override]
    return inputs


def held_out_inputs(w: Workload, bundle, data: Path) -> Inputs:
    """Split one draw into train and held-out images; fit factors on the train part.

    Both parts share tag features and cluster geometry, so the factors
    score the held-out images meaningfully.
    """
    import numpy as np

    from tagrefinery.tagmat import DatasetBundle, FeatureMatrix, TagMatrix, save_dataset

    per_cluster = w.images_per_cluster + w.held_out_per_cluster
    in_train = np.arange(bundle.tags.n_images) % per_cluster < w.images_per_cluster

    def subset(mask, prefix):
        rows = np.flatnonzero(mask)
        return DatasetBundle(
            tags=TagMatrix(bundle.tags.matrix[rows]),
            image_features=FeatureMatrix(bundle.image_features.data[rows]),
            tag_features=bundle.tag_features,
            image_ids=tuple(f"{prefix}_{i:06d}" for i in range(rows.size)),
            tag_names=bundle.tag_names,
            ground_truth=TagMatrix(bundle.ground_truth.matrix[rows]),
        )

    factors = fit_factors(subset(in_train, "train"), data / "fit")
    held = subset(~in_train, "held")
    manifest = Path(save_dataset(held, data, name="held_out"))
    return Inputs(
        manifest=manifest,
        job_args=["refine", "--manifest", str(manifest), "--import-factors", *factors, "--apply"],
        n_images=held.tags.n_images,
        n_tags=held.tags.n_tags,
        image_dim=held.image_features.dim,
        tag_dim=held.tag_features.dim,
        truth_dense=held.ground_truth.toarray(),
    )


def complete_tags(bundle, path: Path) -> Path:
    """The cluster and share stages with default settings, as `pipeline` runs them."""
    from tagrefinery.sharing import SharingConfig, share_tags
    from tagrefinery.subspace import SscConfig, affinity, spectral_cluster, ssc_solve
    from tagrefinery.tagmat import write_sparse_matrix

    aff = affinity(ssc_solve(bundle.image_features, SscConfig()))
    clusters = spectral_cluster(aff, N_CLUSTERS, seed=0)
    write_sparse_matrix(path, share_tags(bundle.tags, clusters, aff, SharingConfig()))
    return path


def fit_factors(train, out_dir: Path) -> tuple[str, str]:
    """Refine with default settings on the training images; returns P and Q paths."""
    from tagrefinery.refine import RefineConfig, refine, save_factors
    from tagrefinery.tagmat import cosine_similarity_graph, graph_laplacian

    result = refine(
        train.tags, train.image_features, train.tag_features,
        graph_laplacian(cosine_similarity_graph(train.image_features)),
        graph_laplacian(cosine_similarity_graph(train.tag_features)),
        RefineConfig(),
    )
    return save_factors(result.factors, out_dir)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

# Artifacts each kind must write, by file name.
ARTIFACTS = {
    "pipeline": ("z.mtx", "affinity.mtx", "labels.txt", "completed.mtx", "refined.mtx",
                 "refined_scores.mtx", "factors_p.mtx", "factors_q.mtx", f"eval_at_{EVAL_N}.txt"),
    "cluster": ("z.mtx", "affinity.mtx", "labels.txt", "ssc_diagnostics.json"),
    "tune": ("tune_results.csv", "tune_best.json"),
    "apply": ("refined.mtx", "refined_scores.mtx"),
}
# The artifact that must be byte-identical across repeats of a job.
STABLE_ARTIFACT = {
    "pipeline": "refined_scores.mtx",
    "cluster": "z.mtx",
    "tune": "tune_results.csv",
    "apply": "refined_scores.mtx",
}


def digests(kind: str, out: Path) -> dict[str, str]:
    found = {}
    for name in ARTIFACTS[kind]:
        path = out / name
        if not path.is_file():
            raise CheckFailed(f"missing artifact {name}")
        with open(path, "rb") as fh:
            found[name] = hashlib.file_digest(fh, "sha256").hexdigest()
    return found


def _shape(arr, expected, name):
    if tuple(arr.shape) != tuple(expected):
        raise CheckFailed(f"{name} has shape {tuple(arr.shape)}, expected {tuple(expected)}")


def _read_labels(path: Path, n: int):
    import numpy as np

    labels = np.asarray([int(line) for line in path.read_text().split()], dtype=np.int64)
    _shape(labels, (n,), path.name)
    if labels.min() < 0 or labels.max() >= N_CLUSTERS:
        raise CheckFailed(f"{path.name} has labels outside [0, {N_CLUSTERS})")
    return labels


def _check_scores(out: Path, inputs: Inputs):
    """refined_scores.mtx and refined.mtx: shapes, and refined.mtx within [0, 1]."""
    from tagrefinery.tagmat import read_dense_matrix, read_sparse_matrix

    shape = (inputs.n_images, inputs.n_tags)
    scores = read_dense_matrix(out / "refined_scores.mtx")
    _shape(scores, shape, "refined_scores.mtx")
    refined = read_sparse_matrix(out / "refined.mtx")  # rejects values outside [0, 1]
    _shape(refined.matrix, shape, "refined.mtx")
    if refined.nnz and not (refined.matrix.data.min() >= 0.0 and refined.matrix.data.max() <= 1.0):
        raise CheckFailed("refined.mtx has entries outside [0, 1]")
    return scores


def check_outputs(kind: str, out: Path, inputs: Inputs) -> dict[str, float]:
    """Parse every artifact of one job; return its quality figures."""
    from tagrefinery.tagmat import DatasetError, read_dense_matrix, read_sparse_matrix
    from tagrefinery.testkit import clustering_accuracy

    n, m = inputs.n_images, inputs.n_tags
    try:
        if kind in ("pipeline", "cluster"):
            for name in ("z.mtx", "affinity.mtx"):
                _shape(read_dense_matrix(out / name), (n, n), name)
            labels = _read_labels(out / "labels.txt", n)
            acc = clustering_accuracy(labels, inputs.truth_labels)
        if kind == "cluster":
            json.loads((out / "ssc_diagnostics.json").read_text())
            return {"quality": acc, "cluster_acc": acc}
        if kind == "pipeline":
            _shape(read_sparse_matrix(out / "completed.mtx").matrix, (n, m), "completed.mtx")
            _shape(read_dense_matrix(out / "factors_p.mtx"), (inputs.image_dim, RANK), "factors_p.mtx")
            _shape(read_dense_matrix(out / "factors_q.mtx"), (inputs.tag_dim, RANK), "factors_q.mtx")
            scores = _check_scores(out, inputs)
            report = dict(
                line.split(": ", 1) for line in (out / f"eval_at_{EVAL_N}.txt").read_text().splitlines()
            )
            ap = float(report["ap"])
            own = ap_at_n(scores, inputs.truth_dense)
            if abs(ap - own) > 1e-9:
                raise CheckFailed(f"eval_at_{EVAL_N}.txt says AP {ap}, refined_scores.mtx gives {own}")
            if ap - inputs.noisy_ap < MIN_AP_GAIN:
                raise CheckFailed(
                    f"AP@{EVAL_N} {ap:.4f} beats the noisy input {inputs.noisy_ap:.4f} "
                    f"by less than {MIN_AP_GAIN}"
                )
            return {"quality": ap, "ap_at_5": ap, "cluster_acc": acc}
        if kind == "tune":
            best = json.loads((out / "tune_best.json").read_text())
            rows = (out / "tune_results.csv").read_text().splitlines()[1:]
            aps = [float(row.split(",")[4]) for row in rows]
            if not rows or best["ap"] != max(aps):
                raise CheckFailed("tune_best.json does not hold the best AP of tune_results.csv")
            return {"quality": best["ap"], "ap_at_5": best["ap"]}
        if kind == "apply":
            ap = ap_at_n(_check_scores(out, inputs), inputs.truth_dense)
            return {"quality": ap, "ap_at_5": ap}
    except (OSError, ValueError, KeyError, IndexError, DatasetError) as exc:
        raise CheckFailed(f"{type(exc).__name__}: {exc}") from exc
    raise ValueError(f"unknown workload kind {kind!r}")


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------


@dataclass
class Job:
    run: ChildRun
    quality: dict[str, float]
    stable_digest: str | None
    error: str | None


class JobRunner:
    """Runs a workload's job and checks it; full checks only for new artifact bytes."""

    def __init__(self, w: Workload, inputs: Inputs, work: Path):
        self.w = w
        self.inputs = inputs
        self.work = work
        self.out = work / "out"
        self.checked: dict[tuple, dict[str, float]] = {}

    def argv(self) -> list[str]:
        return [*self.inputs.job_args, "--output-dir", str(self.out), "--threads", "1"]

    def run(self, traced_spans: Path | None = None) -> Job:
        shutil.rmtree(self.out, ignore_errors=True)
        if traced_spans is None:
            argv = cli_argv(*self.argv())
        else:
            argv = [sys.executable, str(BENCH_DIR / "trace_cli.py"), str(traced_spans), "--", *self.argv()]
        child = run_child(argv, self.work / "jobs.log")
        return self.check(child)

    def check(self, child: ChildRun) -> Job:
        kind = self.w.kind
        try:
            if child.rc != 0:
                raise CheckFailed(f"exit code {child.rc}")
            found = digests(kind, self.out)
            key = tuple(sorted(found.items()))
            if key not in self.checked:
                self.checked[key] = check_outputs(kind, self.out, self.inputs)
            return Job(child, self.checked[key], found[STABLE_ARTIFACT[kind]], None)
        except CheckFailed as exc:
            return Job(child, {}, None, str(exc))


def unstable(jobs: list[Job]) -> bool:
    """True when the stable artifact differs between jobs of one run."""
    return len({j.stable_digest for j in jobs if j.error is None}) > 1


def measure_setup(inputs: Inputs, work: Path, reps: int) -> list[float]:
    """Wall time of a child that imports the CLI and loads the workload's manifest."""
    code = (
        "import sys, tagrefinery.cli; "
        "from tagrefinery.tagmat import load_dataset; load_dataset(sys.argv[1])"
    )
    times = []
    for _ in range(reps):
        child = run_child([sys.executable, "-c", code, str(inputs.manifest)], work / "setup.log")
        if child.rc != 0:
            raise RuntimeError(f"set-up child exited with {child.rc}; see {work / 'setup.log'}")
        times.append(child.wall_s)
    return times


def closed_loop(runner: JobRunner, seconds: float) -> list[Job]:
    """One job at a time; start another only if it should end within the budget."""
    jobs: list[Job] = []
    start = time.perf_counter()
    while True:
        jobs.append(runner.run())
        elapsed = time.perf_counter() - start
        typical = statistics.median(j.run.wall_s for j in jobs)
        if elapsed + typical > seconds:
            return jobs


def end_to_end(jobs: list[Job], setup: list[float]) -> dict[str, dict]:
    ok = [j for j in jobs if j.error is None] or jobs
    med = statistics.median
    return {
        "job_s": {"value": med(j.run.wall_s for j in ok), "unit": "s"},
        "cpu_s": {"value": med(j.run.cpu_s for j in ok), "unit": "s"},
        "setup_s": {"value": med(setup), "unit": "s"},
        "peak_rss_mb": {"value": med(j.run.peak_rss_mb for j in ok), "unit": "MB"},
        "quality": {"value": med(j.quality.get("quality", 0.0) for j in jobs), "unit": "frac"},
    }


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics from spans
# ---------------------------------------------------------------------------


def layer_metrics(trace: dict, traced_wall: float, untraced_wall: float) -> dict[str, dict]:
    spans = trace["spans"]
    for span in spans:
        span["dur"] = span["end"] - span["start"]
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["dur"]

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def total(*names):
        return sum(s["dur"] for s in named(*names))

    def field(name, key):
        return [s[key] for s in named(name) if key in s]

    def ratio(a, b):
        return a / b if b else 0.0

    ssc_s, ssc_iters = total("subspace.ssc_solve"), sum(field("subspace.ssc_solve", "iters"))
    fits = field("refine.solve_alternating", "converged")
    finals = field("refine.solve_alternating", "final_objective")
    # Outermost layer spans: their parent is a cli span or none.
    layer_cover = sum(
        s["dur"] for s in spans
        if not s["name"].startswith("cli.")
        and (s["parent"] is None or spans[s["parent"]]["name"].startswith("cli."))
    )
    values = {
        "subspace.ssc_solve.s": (ssc_s, "s"),
        "subspace.ssc_solve.iters": (ssc_iters, "count"),
        "subspace.ssc_solve.s_per_iter": (ratio(ssc_s, ssc_iters), "s"),
        "subspace.ssc_solve.converged": (ratio(sum(field("subspace.ssc_solve", "converged")),
                                               len(named("subspace.ssc_solve"))), "frac"),
        "subspace.spectral_cluster.s": (total("subspace.spectral_cluster"), "s"),
        "refine.fit.s": (total("refine.refine"), "s"),
        "refine.fits": (len(named("refine.refine")), "count"),
        "refine.solve.self_s": (sum(s["dur"] - child_time[i] for i, s in enumerate(spans)
                                    if s["name"] == "refine.solve_alternating"), "s"),
        "refine.objective.s": (total("refine.objective"), "s"),
        "refine.objective.calls": (len(named("refine.objective")), "count"),
        "refine.outer_iters": (sum(field("refine.solve_alternating", "outer_iters")), "count"),
        "refine.converged_frac": (ratio(sum(fits), len(fits)), "frac"),
        "refine.final_objective": (ratio(sum(finals), len(finals)), "obj"),
        "refine.apply_factors.s": (total("refine.apply_factors"), "s"),
        "tagmat.load_dataset.s": (total("tagmat.load_dataset"), "s"),
        "tagmat.read.s": (total("tagmat.read_sparse_matrix", "tagmat.read_dense_matrix"), "s"),
        "tagmat.write.s": (total("tagmat.write_sparse_matrix", "tagmat.write_dense_matrix"), "s"),
        "tagmat.write.bytes": (sum(field("tagmat.write_sparse_matrix", "bytes"))
                               + sum(field("tagmat.write_dense_matrix", "bytes")), "B"),
        "tagmat.laplacian.s": (total("tagmat.graph_laplacian"), "s"),
        "tagmat.laplacian.calls": (len(named("tagmat.graph_laplacian")), "count"),
        "tagmat.densify.calls": (sum(trace["counts"].values()), "count"),
        "sharing.share_tags.s": (total("sharing.share_tags"), "s"),
        "sharing.entries_added": (sum(field("sharing.share_tags", "entries_added")), "count"),
        "metrics.ap_ar_at_n.s": (total("metrics.ap_ar_at_n"), "s"),
        "metrics.ap_ar_at_n.calls": (len(named("metrics.ap_ar_at_n")), "count"),
        "cli.self_s": (traced_wall - layer_cover, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def premise_problems(w: Workload, trace: dict, traced_s: float) -> list[str]:
    """What the workload's stated premise says about which layers run."""
    problems = []
    seen = {s["name"].split(".")[0] for s in trace["spans"]}
    for layer in (name for name in trace_cli.LAYERS if name != "cli"):
        runs = layer in RUNNING_LAYERS[w.kind]
        if runs and layer not in seen:
            problems.append(f"layer {layer} recorded no spans")
        if not runs and layer in seen:
            problems.append(f"layer {layer} recorded spans but should not run")
    if w.kind == "apply":
        called = {s["name"] for s in trace["spans"]} & set(SOLVERS)
        if called:
            problems.append(f"solver(s) {sorted(called)} called")
    if w.dominant_span:
        share = sum(s["end"] - s["start"] for s in trace["spans"] if s["name"] == w.dominant_span) / traced_s
        if share < w.min_share:
            problems.append(f"{w.dominant_span} takes {share:.1%} of the traced job, below {w.min_share:.0%}")
    return problems


def fmm_single_thread(runner: JobRunner) -> ChildRun:
    """The job with scipy's Matrix Market reader/writer limited to one thread."""
    code = (
        "import sys, scipy.io._fast_matrix_market as fmm; fmm.PARALLELISM = 1; "
        "from tagrefinery.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    shutil.rmtree(runner.out, ignore_errors=True)
    return run_child([sys.executable, "-c", code, *runner.argv()], runner.work / "jobs.log")


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "child_threads": {var: "1" for var in THREAD_VARS} | {"--threads": "1"},
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    """One benchmark run; returns the result object and the environment record."""
    data = work / "data"
    data.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    inputs = generate(w, seed, data)
    print(f"inputs generated in {time.perf_counter() - started:.1f} s", file=sys.stderr)
    env = environment()
    # Compile the package's bytecode once; users do not pay that on every run.
    run_child([sys.executable, "-c", "import tagrefinery"], work / "warmup.log")
    runner = JobRunner(w, inputs, work)

    if not trace:
        setup = measure_setup(inputs, work, SETUP_REPS)
        started = time.perf_counter()
        jobs = closed_loop(runner, seconds)
        print(f"{len(jobs)} job(s) run and checked in {time.perf_counter() - started:.1f} s",
              file=sys.stderr)
        problems = [f"job {i}: {j.error}" for i, j in enumerate(jobs) if j.error]
        if unstable(jobs):
            problems.append(f"{STABLE_ARTIFACT[w.kind]} differs between repeats")
        metrics = end_to_end(jobs, setup)
        summary(w, seed, jobs, metrics)
        return result(jobs, problems, metrics), env

    spans_path = work / "spans.json"
    before = runner.run()
    traced = runner.run(traced_spans=spans_path)
    after = runner.run()
    jobs = [before, traced, after]
    # Untraced jobs on both sides of the traced one, so slow drift cancels.
    plain_s = (before.run.wall_s + after.run.wall_s) / 2
    problems = [f"job {i}: {j.error}" for i, j in enumerate(jobs) if j.error]
    if unstable(jobs):
        problems.append(f"{STABLE_ARTIFACT[w.kind]} differs between the untraced and traced jobs")
    metrics = {}
    if spans_path.is_file():
        spans = json.loads(spans_path.read_text())
        metrics = layer_metrics(spans, traced.run.wall_s, plain_s)
        problems += premise_problems(w, spans, traced.run.wall_s)
    env["trace_overhead_s"] = traced.run.wall_s - plain_s
    if w.kind == "apply":
        single = fmm_single_thread(runner)
        env["matrix_market_threads"] = {
            "default": {"job_s": plain_s, "cpu_s": (before.run.cpu_s + after.run.cpu_s) / 2},
            "one_thread": {"job_s": single.wall_s, "cpu_s": single.cpu_s, "rc": single.rc},
        }
    return result(jobs, problems, metrics), env


def result(jobs: list[Job], problems: list[str], metrics: dict) -> dict:
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    failed = sum(1 for j in jobs if j.error)
    # A failure that is not tied to one job (stability, premise) fails the last job.
    if problems and not failed:
        failed = 1
    return {"correct": not problems, "attempted": len(jobs), "failed": failed, "metrics": metrics}


def summary(w: Workload, seed: int, jobs: list[Job], metrics: dict) -> None:
    """Human-readable table of all end-to-end figures, ahead of the JSON line."""
    print(f"{w.name} seed {seed}: {len(jobs)} job(s), closed loop, one client")
    for name in ("job_s", "cpu_s", "setup_s", "peak_rss_mb"):
        print(f"  {name:<12} {metrics[name]['value']:.4f} {metrics[name]['unit']} (median)")
    figures = jobs[0].quality
    for name in ("ap_at_5", "cluster_acc"):
        if name in figures:
            print(f"  {name:<12} {figures[name]:.4f}")
    failed = sum(1 for j in jobs if j.error)
    print(f"  {'failed_frac':<12} {failed}/{len(jobs)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tagrefinery" / "cli.py").is_file():
        print(f"no tagrefinery sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # The harness's own numpy (input generation, checks) runs single-threaded too.
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    w = WORKLOADS[args.workload]
    work = WORK / f"{w.name}-seed{args.seed}-{os.getpid()}"
    try:
        res, env = run_workload(w, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("env " + json.dumps(env))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
