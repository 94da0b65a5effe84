"""Command-line interface tests: subcommands, config handling, exit codes."""

import copy
import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.io

from oracles import clamped_tags
from tagrefinery import cli, config, tagmat
from tagrefinery.cli import main
from tagrefinery.config import DEFAULT_CONFIG, resolve_config
from tagrefinery.tagmat import (
    DatasetError,
    TagMatrix,
    load_dataset,
    read_dense_matrix,
    read_sparse_matrix,
    write_dense_matrix,
    write_sparse_matrix,
)
from test_tagmat import built


TINY = [
    "--set", "synth.n_clusters=2",
    "--set", "synth.images_per_cluster=6",
    "--set", "synth.n_tags=12",
    "--set", "synth.tags_per_cluster=3",
    "--set", "synth.tag_presence=1.0",
    "--set", "synth.missing_rate=0.2",
    "--set", "synth.inaccurate_rate=0.1",
]


def config_leaves(section, prefix=""):
    """(dotted key, default) for every value of a config section, recursively."""
    for key, value in section.items():
        if isinstance(value, dict):
            yield from config_leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def wrong_kind(default) -> str:
    """A --set value whose kind the type rule rejects for a key with this default."""
    if isinstance(default, list):
        return "[true]"  # a bool is no item of any list key
    if isinstance(default, bool):
        return "1"
    if isinstance(default, int):
        return "2.5"
    if isinstance(default, float):
        return "true"
    return "7"  # str keys, and manifest


def bounded_keys():
    """(dotted key, bound, default) for every config key whose field metadata declares a bound."""
    for section, cls in [("", config._TopConfig), *config._SECTIONS]:
        defaults = DEFAULT_CONFIG[section] if section else DEFAULT_CONFIG
        for field in dataclasses.fields(cls):
            if field.metadata:
                yield f"{section}.{field.name}".lstrip("."), field.metadata, defaults[field.name]


def beyond_bound(bound, default):
    """(id suffix, value, offending item) just outside each end of a bound: an int one step, a float
    one ulp beyond a closed end, the end itself if open; an unknown choice; for a list, also []."""
    listed = isinstance(default, list)
    integer = isinstance(default[0] if listed else default, int)
    cases = [("", "x")] if "in" in bound else []
    for end, suffix, step in (("gt", "", 0), ("ge", "", -1), ("lt", "-high", 0), ("le", "-high", 1)):
        if end in bound:
            limit = bound[end]
            beyond = limit + step if integer or not step else math.nextafter(limit, step * math.inf)
            cases.append((suffix, beyond))
    cases = [(suffix, [item] if listed else item, item) for suffix, item in cases]
    return cases + [("-empty", [], [])] * listed


def at_bound(bound, default):
    """(id suffix, value) at each end of a bound, one ulp inside an open end; each choice."""
    listed = isinstance(default, list)
    cases = [(f"-{choice}", choice) for choice in bound.get("in", ())]
    for end, suffix, step in (("gt", "", 1), ("ge", "", 0), ("lt", "-high", -1), ("le", "-high", 0)):
        if end in bound:
            limit = bound[end]
            cases.append((suffix, math.nextafter(limit, step * math.inf) if step else limit))
    return [(suffix, [value] if listed else value) for suffix, value in cases]


def make_bundle(tmp_path, extra=()):
    data_dir = tmp_path / "data"
    rc = main(["synth", "--output-dir", str(data_dir), *TINY, *extra])
    assert rc == 0
    return str(data_dir / "synthetic.manifest")


class TestConfigResolution:
    def test_defaults_plus_set_overrides(self, tmp_path):
        class Args:
            config = None
            set = ["refine.mu=0.55", "k=3"]
            manifest = None
            output_dir = str(tmp_path)
            threads = None
            k = None

        cfg = resolve_config(Args())
        assert cfg["refine"]["mu"] == 0.55
        assert cfg["k"] == 3
        assert cfg["output_dir"] == str(tmp_path)

    def test_unknown_key_rejected(self):
        class Args:
            config = None
            set = ["refine.bogus=1"]

        with pytest.raises(DatasetError, match="bogus"):
            resolve_config(Args())

    # A fit starts from the top-rank SVD of V^T O T, so there is no seed to set; share always reads the SSC
    # affinity, so there is no neighbor source to choose. A resolved config that holds either key is refused.
    @pytest.mark.parametrize("assignment", ["refine.seed=0", "sharing.neighbor_source=cosine"])
    def test_refine_seed_is_no_key(self, tmp_path, caplog, assignment):
        manifest, out = make_bundle(tmp_path), tmp_path / "out"
        assert main(["refine", "--manifest", manifest, "--output-dir", str(out), "--set", assignment]) == 2
        assert caplog.records[-1].getMessage() == f"unknown config key '{assignment.split('=')[0]}'"
        assert not out.exists()

    def test_config_file_merge(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"k": 7, "ssc": {"mu": 3.5}}))

        class Args:
            config = str(path)
            set = None

        cfg = resolve_config(Args())
        assert cfg["k"] == 7
        assert cfg["ssc"]["mu"] == 3.5
        assert cfg["ssc"]["tol"] == DEFAULT_CONFIG["ssc"]["tol"]

    def test_unknown_config_file_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"nonsense": 1}))

        class Args:
            config = str(path)
            set = None

        with pytest.raises(DatasetError, match="nonsense"):
            resolve_config(Args())

    def test_object_for_value_key_in_config_file_exits_two(self, tmp_path, caplog):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"synth": {"seed": {"a": 1}}}))
        rc = main(["synth", "--output-dir", str(tmp_path / "x"), "--config", str(path)])
        assert rc == 2
        assert "synth.seed" in caplog.text

    def test_object_for_value_key_in_override_exits_two(self, tmp_path, caplog):
        rc = main(["synth", "--output-dir", str(tmp_path / "x"), "--set", "synth.seed.a=1"])
        assert rc == 2
        assert "synth.seed" in caplog.text

    # A flag that changes what runs sets the stage list where the command line is parsed; no stage reads it.
    @pytest.mark.parametrize("argv, stages", [
        (["pipeline"], ("cluster", "share", "refine", "eval")),
        (["pipeline", "--skip-eval"], ("cluster", "share", "refine")),
        (["refine", "--apply"], ("apply",)),
        (["tune", "--completed", "completed.mtx"], ("tune",)),
    ], ids=["pipeline", "pipeline-skip-eval", "refine-apply", "tune-completed"])
    def test_a_flag_that_changes_what_runs_sets_the_stage_list(self, argv, stages):
        assert config.load_command(argv)[0].stages == stages

    def test_verbose_is_no_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            config.build_parser().parse_args(["pipeline", "-v"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: -v" in capsys.readouterr().err


class TestTypeRule:
    LEAVES = list(config_leaves(DEFAULT_CONFIG))

    @pytest.mark.parametrize("key, default", LEAVES, ids=[key for key, _ in LEAVES])
    def test_wrong_kind_exits_two_naming_the_key(
        self, tmp_path, monkeypatch, caplog, key, default
    ):
        monkeypatch.chdir(tmp_path)  # output_dir is one of the keys, so use the default
        rc = main(["synth", "--set", f"{key}={wrong_kind(default)}"])
        assert rc == 2
        assert caplog.records[-1].getMessage().startswith(f"{key}: expected ")
        assert not any(tmp_path.iterdir())

    def test_wrong_kind_in_config_file_exits_two(self, tmp_path, caplog):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"refine": {"rank": 3.5}}))
        out = tmp_path / "out"
        rc = main(["synth", "--output-dir", str(out), "--config", str(path)])
        assert rc == 2
        assert "refine.rank: expected an integer, got 3.5" in caplog.text
        assert not out.exists()

    NUMBER_LEAVES = [(key, default) for key, default in LEAVES
                     if isinstance(default, float) or isinstance(default, list) and isinstance(default[0], float)]

    @pytest.mark.parametrize("key, default", NUMBER_LEAVES, ids=[key for key, _ in NUMBER_LEAVES])
    def test_non_finite_number_exits_two_naming_the_key(
        self, tmp_path, monkeypatch, caplog, key, default
    ):
        monkeypatch.chdir(tmp_path)
        kind, value = ("a list of finite numbers", "[0.5, Infinity]") if isinstance(default, list) \
            else ("a finite number", "NaN")
        rc = main(["synth", "--set", f"{key}={value}"])
        assert rc == 2
        assert caplog.records[-1].getMessage() == f"{key}: expected {kind}, got {value}"
        assert not any(tmp_path.iterdir())

    def test_non_finite_number_in_config_file_exits_two(self, tmp_path, caplog):
        path = tmp_path / "cfg.json"
        path.write_text('{"refine": {"lambda2": -Infinity}}')
        out = tmp_path / "out"
        assert main(["synth", "--output-dir", str(out), "--config", str(path)]) == 2
        assert caplog.records[-1].getMessage() == "refine.lambda2: expected a finite number, got -Infinity"
        assert not out.exists()

    def test_int_for_float_key_kept_as_given(self, tmp_path):
        out = tmp_path / "out"
        assert main(["synth", "--output-dir", str(out), *TINY, "--set", "refine.mu=0"]) == 0
        mu = json.loads((out / "config.resolved.json").read_text())["refine"]["mu"]
        assert mu == 0 and type(mu) is int


def test_cli_import_leaves_scipy_optimize_unloaded():
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    code = "import sys, tagrefinery.cli; print('scipy.optimize' in sys.modules)"
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                           check=True, timeout=60)
    assert child.stdout.strip() == "False"


def test_scipy_linalg_loads_only_once_a_command_needs_it(tmp_path):
    """Import, refine --apply and eval leave scipy.linalg and its LAPACK unloaded; cluster loads it."""
    manifest = make_bundle(tmp_path)
    bundle = load_dataset(manifest)
    p, q = tmp_path / "p.mtx", tmp_path / "q.mtx"
    write_dense_matrix(p, np.ones((bundle.image_features.dim, 2)))
    write_dense_matrix(q, np.ones((bundle.tag_features.dim, 2)))
    code = """
import sys
from tagrefinery.cli import main
manifest, p, q, out = sys.argv[1:]
seen = ['scipy.linalg' in sys.modules]
for argv in (['refine', '--manifest', manifest, '--output-dir', out + '/applied', '--apply',
              '--import-factors', p, q],
             ['eval', '--manifest', manifest, '--predictions', out + '/applied/refined_scores.mtx',
              '--output-dir', out + '/eval'],
             ['cluster', '--manifest', manifest, '--output-dir', out + '/cluster', '--k', '2']):
    assert main(argv) == 0, argv
    seen.append('scipy.linalg' in sys.modules)
print(seen)
"""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    child = subprocess.run([sys.executable, "-c", code, manifest, str(p), str(q), str(tmp_path)], env=env,
                           capture_output=True, text=True, check=True, timeout=120)
    assert child.stdout.strip() == "[False, False, False, True]"


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def console(argv, code=None, **env_vars):
    """`python -m tagrefinery argv` in a child (or code, run with argv), in our environment with env_vars set;
    a None value unsets its variable."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"), **env_vars)
    env = {var: value for var, value in env.items() if value is not None}
    head = ["-m", "tagrefinery"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *head, *argv], env=env, capture_output=True, text=True, timeout=120)


class TestConsoleEntry:
    """`tagrefinery` and `python -m tagrefinery` set the BLAS thread variables to the threads key before
    numpy loads."""

    def test_threads_key_overwrites_every_blas_variable(self, tmp_path):
        code = ("import os, runpy\n"
                "try:\n"
                "    runpy.run_module('tagrefinery', run_name='__main__', alter_sys=True)\n"
                "finally:\n"
                f"    print(*(os.environ.get(var) for var in {THREAD_VARS}))\n")
        child = console(["synth", "--output-dir", str(tmp_path), *TINY, "--set", "threads=3"], code,
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS=None, MKL_NUM_THREADS=None)
        assert child.returncode == 0, child.stderr
        assert child.stdout.splitlines()[-1] == "3 3 3"

    def test_pipeline_bytes_do_not_depend_on_the_thread_variables(self, tmp_path):
        """On 300 images a multi-threaded BLAS changes SSC's and refine's roundoff, yet with the variables
        unset every artifact has the bytes it has with them at 1: the threads key (1) pins them."""
        assert main(["synth", "--output-dir", str(tmp_path / "data"), "--set", "synth.images_per_cluster=60"]) == 0
        for label, value in (("unset", None), ("one", "1")):
            child = console(["pipeline", "--manifest", str(tmp_path / "data" / "synthetic.manifest"),
                             "--output-dir", str(tmp_path / label), "--set", "refine.outer_iters=3"],
                            **dict.fromkeys(THREAD_VARS, value))
            assert child.returncode == 0, child.stderr
        names = sorted(path.name for path in (tmp_path / "one").iterdir())
        assert names == sorted(path.name for path in (tmp_path / "unset").iterdir())
        assert "refined_scores.mtx" in names
        for name in set(names) - {"config.resolved.json"}:  # which names its own output_dir
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "unset" / name).read_bytes(), name

    def test_bad_config_exits_two_before_the_stages_load(self, tmp_path):
        child = console(["synth", "--output-dir", str(tmp_path / "out"), "--threads", "0"])
        assert child.returncode == 2
        assert child.stderr.splitlines() == ["ERROR threads: must be a positive integer, got 0"]
        assert not (tmp_path / "out").exists()


class TestExitCodes:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_invalid_mu_exits_two(self, tmp_path):
        manifest = make_bundle(tmp_path)
        rc = main([
            "refine", "--manifest", manifest,
            "--output-dir", str(tmp_path / "out"),
            "--set", "refine.mu=1.2",
        ])
        assert rc == 2

    def test_eval_validates_stage_sections(self, tmp_path):
        manifest = make_bundle(tmp_path)
        rc = main([
            "eval", "--manifest", manifest,
            "--predictions", str(tmp_path / "data" / "synthetic_ground_truth.mtx"),
            "--output-dir", str(tmp_path / "out"),
            "--set", "refine.mu=1.2",
        ])
        assert rc == 2

    def test_missing_manifest_exits_two(self, tmp_path):
        rc = main(["cluster", "--output-dir", str(tmp_path / "out")])
        assert rc == 2

    @staticmethod
    def check_nonconvergent_ssc(tmp_path, command, extra, artifact):
        manifest = make_bundle(tmp_path)
        out = tmp_path / "out"
        rc = main([
            command, "--manifest", manifest, "--output-dir", str(out),
            "--set", "k=2", "--set", "ssc.max_iters=2", *extra,
        ])
        assert rc == 1
        assert (out / "z.mtx").exists()
        assert (out / artifact).exists()
        assert (out / "config.resolved.json").exists()

    def test_nonconvergent_ssc_exits_one_with_artifacts(self, tmp_path):
        self.check_nonconvergent_ssc(tmp_path, "cluster", [], "labels.txt")

    @pytest.mark.parametrize("command, extra, artifact", [
        ("pipeline", ["--set", "refine.outer_iters=2"], "refined_scores.mtx"),
        ("tune", ["--set", "tune.lambda1_grid=[0.1]", "--set", "tune.lambda2_grid=[0.0]",
                  "--set", "tune.mu_grid=[0.0]", "--set", "refine.outer_iters=2"],
         "tune_results.csv"),
    ], ids=["pipeline", "tune"])
    def test_nonconvergent_ssc_exits_one_after_later_stages(
        self, tmp_path, command, extra, artifact
    ):
        self.check_nonconvergent_ssc(tmp_path, command, extra, artifact)

    # (argv, key[, test id where the key repeats])
    OUT_OF_RANGE = [
        (["cluster", "--manifest", "missing.manifest", "--k", "0"], "k"),
        (["synth", "--threads", "0"], "threads"),
        (["synth", "--output-dir", ""], "output_dir"),
        (["synth", "--set", "synth.kind=wat"], "synth.kind"),
        (["synth", "--set", "synth.kind=planted", "--set", "synth.density=1.0"], "synth.density"),
        (["synth", "--set", "synth.n_clusters=0"], "synth.n_clusters"),
        (["synth", "--set", "synth.images_per_cluster=0"], "synth.images_per_cluster"),
        (["synth", "--set", "synth.tags_per_cluster=0"], "synth.tags_per_cluster"),
        (["cluster", "--manifest", "missing.manifest", "--set", "auto_k=true",
          "--set", "auto_k_max=0"], "auto_k_max"),
        (["eval", "--manifest", "missing.manifest", "--predictions", "p.mtx", "--set", "eval_n=[]"],
         "eval_n"),
        (["synth", "--set", "synth.image_dim=4"], "synth.image_dim"),
        (["synth", "--set", "synth.kind=subspaces", "--set", "synth.image_dim=4"], "synth.image_dim",
         "synth.image_dim-subspaces"),
        (["synth", "--set", "synth.kind=planted", "--set", "synth.rank=40"], "synth.rank"),
        (["synth", "--set", "synth.kind=planted", "--set", "synth.rank=0"], "synth.rank",
         "synth.rank-zero"),
        (["synth", "--set", "synth.missing_rate=2"], "synth.missing_rate"),
        (["synth", "--set", "synth.inaccurate_rate=-0.5"], "synth.inaccurate_rate"),
        (["synth", "--set", "synth.tag_presence=-3"], "synth.tag_presence"),
        (["synth", "--set", "synth.kind=subspaces", "--set", "synth.n_clusters=1"],
         "synth.inaccurate_rate", "synth.inaccurate_rate-no-empty-cells"),
        (["synth", "--set", "synth.n_tags=10"], "synth.n_tags"),
        (["synth", "--set", "synth.kind=planted", "--set", "synth.n_tags=0"], "synth.n_tags",
         "synth.n_tags-planted"),
        (["synth", "--set", "synth.kind=planted", "--set", "synth.density=0"], "synth.density",
         "synth.density-zero"),
        (["synth", "--set", "synth.dim_subspace=0"], "synth.dim_subspace"),
        (["synth", "--set", "synth.kind=subspaces", "--set", "synth.tag_dim=0"], "synth.tag_dim"),
        (["synth", "--set", "synth.kind=subspaces", "--set", "synth.image_noise=-1"],
         "synth.image_noise"),
        (["synth", "--set", "synth.seed=-1"], "synth.seed"),
        (["synth", "--set", "synth.noise_seed=-1"], "synth.noise_seed"),
        (["synth", "--set", "synth.name=sub/x"], "synth.name"),
        (["synth", "--set", "synth.name="], "synth.name", "synth.name-empty"),
        (["tune", "--manifest", "missing.manifest", "--set", "tune.split_seed=-1"], "tune.split_seed"),
    ]

    @pytest.mark.parametrize("argv, key", [row[:2] for row in OUT_OF_RANGE],
                             ids=[row[-1] for row in OUT_OF_RANGE])
    def test_out_of_range_value_exits_two_naming_the_key(self, tmp_path, caplog, argv, key):
        out = tmp_path / "out"
        assert main([argv[0], "--output-dir", str(out), *argv[1:]]) == 2
        assert caplog.records[-1].getMessage().startswith(f"{key}: ")
        assert not out.exists()

    # Every value just beyond an end of a bound that a section class declares in its field metadata:
    # (test id, dotted key, the value, the item the message names).
    OUT_OF_BOUNDS = [
        (f"{key}{suffix}", key, value, item)
        for key, bound, default in bounded_keys()
        for suffix, value, item in beyond_bound(bound, default)
    ]
    # Exact messages of some rows; every row pins the leading "section.key: " and the closing "got v".
    EXACT = {
        "sharing.w_cooc": "sharing.w_cooc: must be >= 0, got -5e-324",
        "sharing.max_added_per_image": "sharing.max_added_per_image: must be a non-negative integer, got -1",
        "sharing.min_confidence-high": "sharing.min_confidence: must be in [0, 1.1], got 1.1000000000000003",
        "refine.lambda2": "refine.lambda2: must be >= 0, got -5e-324",
        "refine.mu-high": "refine.mu: must be in [0, 1), got 1",
        "ssc.mu": "ssc.mu: must be > 0, got 0",
        "tune.val_fraction": "tune.val_fraction: must be in (0, 1], got 0",
        "tune.rank_grid": "tune.rank_grid: must be a positive integer, got 0",
        "eval_n-empty": "eval_n: must be a non-empty list, got []",
        "synth.kind": "synth.kind: must be 'bundle', 'planted' or 'subspaces', got 'x'",
    }

    @pytest.mark.parametrize("case_id, key, value, item", OUT_OF_BOUNDS,
                             ids=[row[0] for row in OUT_OF_BOUNDS])
    def test_stage_value_out_of_range_names_field_and_value(
        self, tmp_path, caplog, case_id, key, value, item
    ):
        out = tmp_path / "out"
        assert main(["synth", "--output-dir", str(out), "--set", f"{key}={json.dumps(value)}"]) == 2
        message = caplog.records[-1].getMessage()
        assert message.startswith(f"{key}: ") and message.endswith(f", got {item!r}")
        assert message == self.EXACT.get(case_id, message)
        assert not out.exists()

    def test_exact_messages_name_table_rows(self):
        assert set(self.EXACT) <= {row[0] for row in self.OUT_OF_BOUNDS}

    # Every value at an end of a declared bound, or one step inside an open end, and every choice.
    AT_BOUNDS = [
        (f"{key}{suffix}", key, value)
        for key, bound, default in bounded_keys()
        for suffix, value in at_bound(bound, default)
    ]

    @pytest.mark.parametrize("key, value", [row[1:] for row in AT_BOUNDS], ids=[row[0] for row in AT_BOUNDS])
    def test_value_at_bound_passes(self, key, value):
        cfg = copy.deepcopy(DEFAULT_CONFIG)
        # A planted bundle of rank 1 lets every synth key reach its bound: the bundle kind ties n_tags
        # and image_dim to other keys, and the planted kind ties rank to image_dim and tag_dim.
        cfg["synth"].update(kind="planted", rank=1)
        *section, name = key.split(".")
        (cfg[section[0]] if section else cfg)[name] = value
        config._build_configs(cfg)

    RANK_TOO_BIG = [
        (["pipeline", "--k", "2"], "refine.rank"),
        (["refine"], "refine.rank"),
        (["tune", "--set", "k=2", "--set", "tune.rank_grid=[2, 8]"], "tune.rank_grid"),
    ]

    @pytest.mark.parametrize("argv, key", RANK_TOO_BIG, ids=["pipeline", "refine", "tune"])
    def test_rank_above_feature_dim_exits_two_before_any_stage(self, tmp_path, caplog, argv, key):
        manifest = make_bundle(tmp_path, ["--set", "synth.images_per_cluster=8",
                                          "--set", "synth.tag_dim=4"])
        out = tmp_path / "out"
        assert main([argv[0], "--manifest", manifest, "--output-dir", str(out), *argv[1:]]) == 2
        assert caplog.records[-1].getMessage() == (
            f"{key}: rank 8 exceeds min feature dimension 4"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["cluster", "pipeline"])
    def test_k_above_image_count_exits_two_before_ssc(self, tmp_path, monkeypatch, caplog, command):
        manifest = make_bundle(tmp_path, ["--set", "synth.images_per_cluster=4"])  # 8 images

        def no_ssc(*args, **kwargs):
            raise AssertionError("ssc_solve ran")

        monkeypatch.setattr("tagrefinery.subspace.ssc_solve", no_ssc)
        out = tmp_path / "out"
        assert main([command, "--manifest", manifest, "--output-dir", str(out), "--k", "9"]) == 2
        assert caplog.records[-1].getMessage() == "k: 9 exceeds the number of images 8"
        assert not out.exists()

    # (argv, message): a ranking cut-off above the 12 tags of the TINY bundle
    CUTOFF_TOO_BIG = [
        (["pipeline", "--k", "2", "--set", "eval_n=[5, 13]"], "eval_n: 13 exceeds the number of tags 12"),
        (["eval", "--predictions", "PREDICTIONS", "--set", "eval_n=[13]"],
         "eval_n: 13 exceeds the number of tags 12"),
        (["tune", "--set", "k=2", "--set", "tune.n=13"], "tune.n: 13 exceeds the number of tags 12"),
    ]

    @pytest.mark.parametrize("argv, message", CUTOFF_TOO_BIG, ids=["pipeline", "eval", "tune"])
    def test_cutoff_above_tag_count_exits_two_before_any_stage(
        self, tmp_path, monkeypatch, caplog, argv, message
    ):
        manifest = make_bundle(tmp_path)
        predictions = tmp_path / "p.mtx"
        write_dense_matrix(predictions, np.ones(load_dataset(manifest).tags.matrix.shape))

        def no_ssc(*args, **kwargs):
            raise AssertionError("ssc_solve ran")

        monkeypatch.setattr("tagrefinery.subspace.ssc_solve", no_ssc)
        out = tmp_path / "out"
        argv = [str(predictions) if arg == "PREDICTIONS" else arg for arg in argv]
        assert main([argv[0], "--manifest", manifest, "--output-dir", str(out), *argv[1:]]) == 2
        assert caplog.records[-1].getMessage() == message
        assert not out.exists()

    def test_cutoff_above_tag_count_passes_when_pipeline_skips_eval(self, tmp_path):
        out = tmp_path / "out"
        assert main(["pipeline", "--manifest", make_bundle(tmp_path), "--output-dir", str(out),
                     "--k", "2", "--skip-eval", "--set", "eval_n=[13]",
                     "--set", "refine.outer_iters=2"]) == 0
        assert not list(out.glob("eval_at_*"))

    # (argv, the manifest key whose file is spoiled, test id)
    UNUSABLE_BUNDLE = [
        *[(argv, "image_features", f"image_features-{argv[0]}") for argv in (
            ["cluster", "--k", "2"], ["pipeline", "--k", "2"], ["tune", "--set", "k=2"], ["refine"])],
        *[(argv, "tag_features", f"tag_features-{argv[0]}") for argv in (
            ["pipeline", "--k", "2"], ["tune", "--set", "k=2"], ["refine"])],
        *[(argv, "ground_truth", f"ground_truth-{argv[0]}") for argv in (
            ["eval", "--predictions", "PREDICTIONS"], ["tune", "--set", "k=2"], ["pipeline", "--k", "2"])],
    ]
    UNUSABLE_REASONS = {
        "image_features": "zero-norm feature row(s) at indices [2]",
        "tag_features": "zero-norm feature row(s) at indices [2]",
        "ground_truth": "all rows are empty; nothing to evaluate",
    }

    @staticmethod
    def spoil(tmp_path, key):
        """The bundle with image or tag feature row 2 zeroed, or with an empty ground truth."""
        manifest = make_bundle(tmp_path)
        bundle = load_dataset(manifest)
        path = tmp_path / "data" / f"synthetic_{key}.mtx"
        if key == "ground_truth":
            write_sparse_matrix(path, TagMatrix.from_dense(np.zeros(bundle.tags.matrix.shape)))
        else:
            features = getattr(bundle, key).data.copy()
            features[2] = 0.0
            write_dense_matrix(path, features)
        return manifest, bundle

    @pytest.mark.parametrize("argv, key", [row[:2] for row in UNUSABLE_BUNDLE],
                             ids=[row[2] for row in UNUSABLE_BUNDLE])
    def test_unusable_bundle_value_exits_two_before_any_stage(
        self, tmp_path, monkeypatch, caplog, argv, key
    ):
        manifest, bundle = self.spoil(tmp_path, key)
        (tmp_path / "labels.txt").write_text("0\n" * 6 + "1\n" * 6)
        write_dense_matrix(tmp_path / "p.mtx", np.ones(bundle.tags.matrix.shape))

        def no_ssc(*args, **kwargs):
            raise AssertionError("ssc_solve ran")

        monkeypatch.setattr("tagrefinery.subspace.ssc_solve", no_ssc)
        files = {"LABELS": str(tmp_path / "labels.txt"), "PREDICTIONS": str(tmp_path / "p.mtx")}
        out = tmp_path / "out"
        argv = [files.get(arg, arg) for arg in argv]
        assert main([argv[0], "--manifest", manifest, "--output-dir", str(out), *argv[1:]]) == 2
        assert caplog.records[-1].getMessage() == f"{key}: {self.UNUSABLE_REASONS[key]}"
        assert not out.exists()

    @staticmethod
    def half_truth(tmp_path):
        """The bundle with one ground-truth entry set to 0.5."""
        manifest = make_bundle(tmp_path)
        truth = load_dataset(manifest).ground_truth.toarray()
        truth[np.unravel_index(np.argmax(truth), truth.shape)] = 0.5
        write_sparse_matrix(tmp_path / "data" / "synthetic_ground_truth.mtx", TagMatrix.from_dense(truth))
        return manifest

    @pytest.mark.parametrize("argv", [["eval", "--predictions", "PREDICTIONS"], ["tune", "--set", "k=2"],
                                      ["pipeline", "--k", "2"]], ids=["eval", "tune", "pipeline"])
    def test_non_binary_ground_truth_exits_two_before_any_stage(self, tmp_path, monkeypatch, caplog, argv):
        manifest = self.half_truth(tmp_path)
        write_dense_matrix(tmp_path / "p.mtx", np.ones((12, 12)))

        def no_ssc(*args, **kwargs):
            raise AssertionError("ssc_solve ran")

        monkeypatch.setattr("tagrefinery.subspace.ssc_solve", no_ssc)
        out = tmp_path / "out"
        argv = [str(tmp_path / "p.mtx") if arg == "PREDICTIONS" else arg for arg in argv]
        assert main([argv[0], "--manifest", manifest, "--output-dir", str(out), *argv[1:]]) == 2
        assert caplog.records[-1].getMessage() == (
            "ground_truth: ground truth must be binary (confidences exactly 0 or 1)")
        assert not out.exists()

    def test_non_binary_ground_truth_is_not_read_by_a_pipeline_that_skips_eval(self, tmp_path):
        out = tmp_path / "out"
        assert main(["pipeline", "--manifest", self.half_truth(tmp_path), "--output-dir", str(out),
                     "--k", "2", "--skip-eval", "--set", "refine.outer_iters=2"]) == 0
        assert not list(out.glob("eval_at_*"))

    @staticmethod
    def without_ground_truth(tmp_path):
        """The bundle's manifest with its ground_truth line removed."""
        manifest = pathlib.Path(make_bundle(tmp_path))
        stripped = manifest.with_name("stripped.manifest")
        stripped.write_text("".join(line for line in manifest.read_text().splitlines(keepends=True)
                                    if not line.startswith("ground_truth")))
        return str(stripped)

    @pytest.mark.parametrize("argv", [["eval", "--predictions", "p.mtx"], ["tune", "--set", "k=2"],
                                      ["tune", "--completed", "c.mtx"]],
                             ids=["eval", "tune", "tune-completed"])
    def test_manifest_without_ground_truth_exits_two_naming_the_key(self, tmp_path, caplog, argv):
        stripped = self.without_ground_truth(tmp_path)
        out = tmp_path / "out"
        assert main([argv[0], "--manifest", stripped, "--output-dir", str(out), *argv[1:]]) == 2
        assert caplog.records[-1].getMessage() == (
            f"ground_truth: {argv[0]} needs a manifest with a ground_truth entry")
        assert not out.exists()

    def test_pipeline_without_ground_truth_refines_and_skips_eval(self, tmp_path):
        out = tmp_path / "out"
        assert main(["pipeline", "--manifest", self.without_ground_truth(tmp_path), "--output-dir",
                     str(out), "--k", "2", "--set", "refine.outer_iters=2"]) == 0
        assert (out / "refined.mtx").exists()
        assert not list(out.glob("eval_at_*"))

    def test_tune_completed_ignores_k_since_cluster_does_not_run(self, tmp_path):
        out = tmp_path / "out"
        assert main(["tune", "--manifest", make_bundle(tmp_path), "--output-dir", str(out),
                     "--completed", str(tmp_path / "data" / "synthetic_tags.mtx"), "--set", "k=10000",
                     "--set", "tune.mu_grid=[0.4]", "--set", "refine.outer_iters=2"]) == 0
        assert (out / "tune_best.json").exists()

    def test_apply_scores_a_zero_image_row(self, tmp_path):
        manifest, bundle = self.spoil(tmp_path, "image_features")
        p, q = tmp_path / "p.mtx", tmp_path / "q.mtx"
        write_dense_matrix(p, np.ones((bundle.image_features.dim, 3)))
        write_dense_matrix(q, np.ones((bundle.tag_features.dim, 3)))
        out = tmp_path / "out"
        assert main(["refine", "--manifest", manifest, "--output-dir", str(out), "--apply",
                     "--import-factors", str(p), str(q)]) == 0
        assert not read_dense_matrix(out / "refined_scores.mtx")[2].any()

    def test_refine_stopping_at_outer_cap_warns_and_exits_zero(self, tmp_path, caplog):
        manifest = make_bundle(tmp_path)
        rc = main([
            "refine", "--manifest", manifest, "--output-dir", str(tmp_path / "out"),
            "--set", "refine.outer_iters=1",
        ])
        assert rc == 0
        assert "refine.outer_iters=1" in caplog.text
        assert "relative objective change" in caplog.text


class TestFailedWrite:
    @pytest.mark.parametrize("artifact", ["z.mtx", "labels.txt"])
    def test_unwritable_artifact_exits_two_naming_output_dir(self, tmp_path, caplog, artifact):
        manifest = make_bundle(tmp_path)
        out = tmp_path / "out"
        (out / artifact).mkdir(parents=True)
        assert main(["cluster", "--manifest", manifest, "--output-dir", str(out), "--k", "2"]) == 2
        assert caplog.records[-1].getMessage() == f"output_dir: {out / artifact}: Is a directory"

    @pytest.mark.parametrize("argv, output_dir", [
        (["pipeline", "--k", "2"], "afile"),
        (["synth"], "afile/sub"),
    ], ids=["pipeline-file", "synth-under-file"])
    def test_output_dir_not_a_directory_exits_two_before_any_stage(
        self, tmp_path, monkeypatch, caplog, argv, output_dir
    ):
        manifest = make_bundle(tmp_path)
        (tmp_path / "afile").write_text("")

        def no_stage(*args, **kwargs):
            raise AssertionError("a stage ran")

        monkeypatch.setattr("tagrefinery.subspace.ssc_solve", no_stage)
        monkeypatch.setattr("tagrefinery.cli.save_dataset", no_stage)
        out = tmp_path / output_dir
        assert main([argv[0], "--manifest", manifest, "--output-dir", str(out), *argv[1:]]) == 2
        assert caplog.records[-1].getMessage() == (
            f"output_dir: {out}: {tmp_path / 'afile'} is not a directory")


class TestClusterCommand:
    def test_auto_k_picks_planted_cluster_count(self, tmp_path):
        data_dir = tmp_path / "data"
        assert main(["synth", "--output-dir", str(data_dir)]) == 0
        out = tmp_path / "out"
        rc = main([
            "cluster", "--manifest", str(data_dir / "synthetic.manifest"),
            "--output-dir", str(out), "--k", "2", "--set", "auto_k=true",
        ])
        assert rc == 0
        with open(out / "ssc_diagnostics.json", encoding="utf-8") as fh:
            assert json.load(fh)["k"] == 5

    def test_stage_drops_z_before_spectral_clustering(self, tmp_path, monkeypatch):
        # Traced from the SSC call, so the loaded bundle is not counted. With 16-row
        # sweep blocks and tagmat blocks of 8 rows, SSC peaks at 2.77 n x n (M^-1, its
        # state, row blocks, n x d arrays) and spectral clustering at 2.13 (affinity and
        # Laplacian); Z kept alive beside them would make that 3.20.
        data_dir = tmp_path / "data"
        assert main(["synth", "--output-dir", str(data_dir), "--set", "synth.images_per_cluster=80"]) == 0
        n = 400
        solve = cli.subspace.ssc_solve

        def traced_solve(*args, **kwargs):
            tracemalloc.start()
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli.subspace, "ssc_solve", traced_solve)
        monkeypatch.setattr(cli.subspace, "_sweep_rows", lambda n: 16)
        monkeypatch.setattr(tagmat, "_BLOCK_BYTES", 8 * n * 8)
        try:
            rc = main(["cluster", "--manifest", str(data_dir / "synthetic.manifest"),
                       "--output-dir", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak <= 3.0 * 8 * n * n


class TestPipeline:
    def test_full_pipeline_artifacts(self, tmp_path):
        manifest = make_bundle(tmp_path)
        out = tmp_path / "run"
        rc = main([
            "pipeline", "--manifest", manifest, "--output-dir", str(out),
            "--k", "2",
            "--set", "eval_n=[2,3]",
            "--set", "refine.rank=4",
        ])
        assert rc == 0
        for name in (
            "z.mtx", "affinity.mtx", "labels.txt", "completed.mtx",
            "refined.mtx", "refined_scores.mtx", "factors_p.mtx", "factors_q.mtx",
            "eval_at_2.txt", "eval_at_3.txt", "config.resolved.json",
        ):
            assert (out / name).exists(), name
        text = (out / "eval_at_2.txt").read_text()
        fields = dict(line.split(": ") for line in text.strip().splitlines())
        assert 0.0 <= float(fields["ap"]) <= 1.0
        assert int(fields["images_evaluated"]) == 12

    def test_snapshot_rerun_is_bit_identical(self, tmp_path):
        manifest = make_bundle(tmp_path)
        out = tmp_path / "run"
        rc = main([
            "pipeline", "--manifest", manifest, "--output-dir", str(out),
            "--k", "2", "--set", "refine.rank=4", "--set", "eval_n=[2]",
        ])
        assert rc == 0
        artifacts = [
            "z.mtx", "affinity.mtx", "labels.txt", "completed.mtx",
            "refined.mtx", "refined_scores.mtx", "eval_at_2.txt",
        ]
        first = {name: (out / name).read_bytes() for name in artifacts}
        rc = main(["pipeline", "--config", str(out / "config.resolved.json")])
        assert rc == 0
        for name in artifacts:
            assert (out / name).read_bytes() == first[name], name

    def test_subspaces_bundle_with_rank_deficient_start(self, tmp_path):
        # 5 clusters give 5 tags, so V^T O T has rank 5 < refine.rank = 8: the start's last singular
        # values are 0 and lambda1 keeps every half-step solvable.
        data, out = tmp_path / "data", tmp_path / "run"
        assert main(["synth", "--output-dir", str(data), "--set", "synth.kind=subspaces",
                     "--set", "synth.images_per_cluster=10"]) == 0
        assert main(["pipeline", "--manifest", str(data / "synthetic.manifest"), "--output-dir", str(out),
                     "--set", "eval_n=[1]"]) == 0
        assert (out / "eval_at_1.txt").exists()

    def test_staged_commands_match_pipeline(self, tmp_path):
        manifest = make_bundle(tmp_path)
        pipe_out = tmp_path / "pipe"
        rc = main([
            "pipeline", "--manifest", manifest, "--output-dir", str(pipe_out),
            "--k", "2", "--set", "refine.rank=4", "--skip-eval",
        ])
        assert rc == 0
        stage_out = tmp_path / "staged"
        assert main(["cluster", "--manifest", manifest, "--output-dir",
                     str(stage_out), "--k", "2"]) == 0
        assert main(["share", "--manifest", manifest, "--output-dir",
                     str(stage_out)]) == 0
        assert main(["refine", "--manifest", manifest, "--output-dir",
                     str(stage_out), "--tags-in", str(stage_out / "completed.mtx"),
                     "--set", "refine.rank=4"]) == 0
        for name in ("completed.mtx", "refined_scores.mtx"):
            assert (stage_out / name).read_bytes() == (pipe_out / name).read_bytes()


class TestEval:
    def test_perfect_predictions_score_one(self, tmp_path):
        manifest = make_bundle(tmp_path)
        out = tmp_path / "eval"
        truth_file = tmp_path / "data" / "synthetic_ground_truth.mtx"
        rc = main([
            "eval", "--manifest", manifest, "--predictions", str(truth_file),
            "--output-dir", str(out), "--set", "eval_n=[2,3]",
        ])
        assert rc == 0
        for n in (2, 3):
            text = (out / f"eval_at_{n}.txt").read_text()
            fields = dict(line.split(": ") for line in text.strip().splitlines())
            assert float(fields["ap"]) == 1.0

    def test_dense_score_predictions(self, tmp_path):
        manifest = make_bundle(tmp_path)
        predictions = tmp_path / "refined_scores.mtx"
        write_dense_matrix(predictions, load_dataset(manifest).ground_truth.toarray())
        out = tmp_path / "eval"
        rc = main([
            "eval", "--manifest", manifest, "--predictions", str(predictions),
            "--output-dir", str(out), "--set", "eval_n=[2,3]",
        ])
        assert rc == 0
        for n in (2, 3):
            text = (out / f"eval_at_{n}.txt").read_text()
            fields = dict(line.split(": ") for line in text.strip().splitlines())
            assert float(fields["ap"]) == 1.0

    def test_eval_requires_ground_truth(self, tmp_path):
        manifest = make_bundle(tmp_path)
        # Build a manifest without the ground-truth line.
        data_dir = tmp_path / "data"
        lines = [
            line for line in (data_dir / "synthetic.manifest").read_text().splitlines()
            if not line.startswith("ground_truth")
        ]
        stripped = data_dir / "stripped.manifest"
        stripped.write_text("\n".join(lines) + "\n")
        rc = main([
            "eval", "--manifest", str(stripped),
            "--predictions", str(data_dir / "synthetic_ground_truth.mtx"),
            "--output-dir", str(tmp_path / "out"),
        ])
        assert rc == 2


class TestRefineCommand:
    def test_apply_imported_factors(self, tmp_path):
        manifest = make_bundle(tmp_path)
        out = tmp_path / "solve"
        rc = main([
            "refine", "--manifest", manifest, "--output-dir", str(out),
            "--set", "refine.rank=3", "--set", "refine.outer_iters=4",
        ])
        assert rc == 0
        apply_out = tmp_path / "apply"
        rc = main([
            "refine", "--manifest", manifest, "--output-dir", str(apply_out),
            "--import-factors", str(out / "factors_p.mtx"), str(out / "factors_q.mtx"),
            "--apply",
        ])
        assert rc == 0
        for name in ("refined_scores.mtx", "refined.mtx"):
            assert (apply_out / name).read_bytes() == (out / name).read_bytes(), name

    @pytest.mark.parametrize("flags, message", [
        (["--import-factors", "P", "Q"],
         "--import-factors: saved factors are read only by --apply; a fit starts from the SVD of V^T O T, "
         "and a longer fit is refine.outer_iters"),
        (["--apply"], "--apply requires --import-factors P.mtx Q.mtx"),
    ], ids=["import-factors-without-apply", "apply-without-import-factors"])
    def test_apply_and_import_factors_go_together(self, tmp_path, caplog, flags, message):
        """Either flag alone exits 2 with one error before anything is written; no fit resumes from files."""
        manifest = make_bundle(tmp_path)
        write_dense_matrix(tmp_path / "p.mtx", np.ones((30, 3)))
        write_dense_matrix(tmp_path / "q.mtx", np.ones((16, 3)))
        files = {"P": str(tmp_path / "p.mtx"), "Q": str(tmp_path / "q.mtx")}
        out = tmp_path / "out"
        caplog.clear()
        assert main(["refine", "--manifest", manifest, "--output-dir", str(out),
                     *[files.get(flag, flag) for flag in flags]]) == 2
        assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [message]
        assert not out.exists()

    def test_refined_mtx_is_clamp_of_scores(self, tmp_path):
        manifest = make_bundle(tmp_path)
        out = tmp_path / "out"
        rc = main([
            "refine", "--manifest", manifest, "--output-dir", str(out),
            "--set", "refine.outer_iters=2",
        ])
        assert rc == 0
        scores = read_dense_matrix(out / "refined_scores.mtx")
        assert scores.min() < 0.0 or scores.max() > 1.0  # so the clamp is exercised
        exported = read_sparse_matrix(out / "refined.mtx").toarray()
        np.testing.assert_array_equal(exported, np.clip(scores, 0.0, 1.0))

    @staticmethod
    def apply_scores(tmp_path, monkeypatch, scores):
        """refine --apply on a bundle of scores' shape, whose factors score it as `scores`.

        Returns the output directory and the peak bytes that tracemalloc saw
        allocated from the scoring to the end of the run.
        """
        n_images, n_tags = scores.shape
        manifest = make_bundle(tmp_path, ["--set", f"synth.images_per_cluster={n_images // 2}",
                                          "--set", f"synth.n_tags={n_tags}"])
        write_dense_matrix(tmp_path / "p.mtx", np.ones((30, 3)))
        write_dense_matrix(tmp_path / "q.mtx", np.ones((16, 3)))

        def apply_factors(v, t, factors):
            tracemalloc.start()
            return scores

        monkeypatch.setattr(cli, "apply_factors", apply_factors)
        out = tmp_path / "apply"
        try:
            rc = main(["refine", "--manifest", manifest, "--output-dir", str(out), "--apply",
                       "--import-factors", str(tmp_path / "p.mtx"), str(tmp_path / "q.mtx")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        return out, peak

    def test_refined_mtx_is_an_array_of_the_clipped_scores(self, tmp_path, monkeypatch):
        scores = np.random.default_rng(0).uniform(-1.0, 2.0, (12, 13))
        scores[0, :3] = [-0.0, 0.0, 1.0]
        out, _ = self.apply_scores(tmp_path, monkeypatch, scores)
        path = out / "refined.mtx"
        lines = path.read_text().splitlines()
        assert lines[0] == "%%MatrixMarket matrix array real general"
        size, *column_major = [line for line in lines if not line.startswith("%")]
        assert size == "12 13"
        # Python's float() keeps the sign of "-0", which the Matrix Market reader drops.
        values = np.array([float(x) for x in column_major]).reshape(13, 12).T
        assert values.tobytes() == np.abs(np.clip(scores, 0.0, 1.0)).tobytes()
        assert not np.signbit(values).any()
        assert built(lambda: read_sparse_matrix(path)) == built(lambda: clamped_tags(scores))

    @pytest.mark.parametrize("apply", [False, True], ids=["fit", "apply"])
    def test_score_files_are_what_scipy_writes_for_the_row_major_scores(self, tmp_path, monkeypatch, apply):
        """refined_scores.mtx and refined.mtx hold the bytes scipy.io.mmwrite writes for the row-major scores
        and their clamp, though refine writes both from a column-major buffer."""
        if apply:
            scores = np.random.default_rng(1).uniform(-1.0, 2.0, (12, 13))
            scores[0, :3] = [-0.0, 0.0, 1.0]
            out, _ = self.apply_scores(tmp_path, monkeypatch, scores)
        else:
            fits, fit = [], cli.run_refine
            monkeypatch.setattr(cli, "run_refine", lambda *args: fits.append(fit(*args)) or fits[-1])
            out = tmp_path / "out"
            assert main(["refine", "--manifest", make_bundle(tmp_path), "--output-dir", str(out),
                         "--set", "refine.outer_iters=2"]) == 0
            scores = fits[0].scores
        assert scores.min() < 0.0 or scores.max() > 1.0  # so the clamp is exercised
        row_major = np.ascontiguousarray(scores)
        clamped = np.clip(row_major, 0.0, 1.0)
        clamped += 0.0
        for name, arr in (("refined_scores.mtx", row_major), ("refined.mtx", clamped)):
            expected = tmp_path / f"expected_{name}"
            scipy.io.mmwrite(str(expected), arr)
            assert (out / name).read_bytes() == expected.read_bytes(), name

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_clamp_and_write_allocate_one_copy_of_the_scores(self, tmp_path, monkeypatch, order):
        scores = np.asarray(np.random.default_rng(0).standard_normal((2000, 50)), order=order)
        _, peak = self.apply_scores(tmp_path, monkeypatch, scores)
        assert peak <= 1.1 * scores.nbytes

    @pytest.mark.parametrize("command, flag", [("refine", "--tags-in"), ("tune", "--completed")])
    def test_mismatched_tag_matrix_exits_two_naming_the_flag(self, tmp_path, caplog, command, flag):
        manifest = make_bundle(tmp_path)
        other = tmp_path / "other"
        assert main(["synth", "--output-dir", str(other), *TINY, "--set", "synth.n_tags=13"]) == 0
        out = tmp_path / "out"
        path = other / "synthetic_tags.mtx"
        rc = main([command, "--manifest", manifest, "--output-dir", str(out), flag, str(path)])
        assert rc == 2
        assert caplog.records[-1].getMessage() == (
            f"{flag}: {path}: has shape 12x13, expected 12x12"
        )
        assert not out.exists()

    def test_not_positive_definite_half_step_exits_one_naming_lambda1(self, tmp_path, caplog):
        manifest = make_bundle(tmp_path)
        # Equal tag-feature rows make T Q rank one: with lambda1 = 0 the normal matrix is singular.
        write_dense_matrix(tmp_path / "data" / "synthetic_tag_features.mtx",
                           np.tile(np.linspace(0.5, 1.5, 16), (12, 1)))
        rc = main(["refine", "--manifest", manifest, "--output-dir", str(tmp_path / "out"),
                   "--set", "refine.lambda1=0"])
        assert rc == 1
        assert "not positive definite; raise refine.lambda1 (now 0)" in caplog.records[-1].getMessage()

    def test_breakdown_keeps_earlier_artifacts_and_a_replayable_snapshot(self, tmp_path, caplog):
        manifest = make_bundle(tmp_path)
        write_dense_matrix(tmp_path / "data" / "synthetic_tag_features.mtx",
                           np.tile(np.linspace(0.5, 1.5, 16), (12, 1)))
        out = tmp_path / "out"
        rc = main(["pipeline", "--manifest", manifest, "--output-dir", str(out), "--k", "2",
                   "--set", "refine.lambda1=0", "--set", "refine.rank=1"])
        assert rc == 1
        assert "not positive definite" in caplog.records[-1].getMessage()
        earlier = ["z.mtx", "affinity.mtx", "labels.txt", "ssc_diagnostics.json", "completed.mtx"]
        first = {name: (out / name).read_bytes() for name in earlier}
        assert main(["pipeline", "--config", str(out / "config.resolved.json")]) == 1
        for name in earlier:
            assert (out / name).read_bytes() == first[name], name


class TestShareCommand:
    def test_share_drops_the_affinity_from_the_run(self, tmp_path):
        args = config.build_parser().parse_args([
            "pipeline", "--manifest", make_bundle(tmp_path), "--output-dir", str(tmp_path / "out"), "--k", "2",
        ])
        cfg = resolve_config(args)
        run = cli._Run(args, **config._build_configs(cfg), bundle=load_dataset(cfg["manifest"]))
        cli._cluster(run)
        assert run.affinity is not None
        cli._share(run)
        assert run.affinity is None and run.completed is not None

    def test_share_reads_no_image_features(self, tmp_path):
        manifest, out = make_bundle(tmp_path), tmp_path / "out"
        assert main(["cluster", "--manifest", manifest, "--output-dir", str(out), "--k", "2"]) == 0
        assert main(["share", "--manifest", manifest, "--output-dir", str(out)]) == 0
        shared = (out / "completed.mtx").read_bytes()
        TestExitCodes.spoil(tmp_path, "image_features")
        assert main(["share", "--manifest", manifest, "--output-dir", str(out)]) == 0
        assert (out / "completed.mtx").read_bytes() == shared

    def test_labels_and_affinity_flags_read_the_given_files(self, tmp_path):
        manifest = make_bundle(tmp_path)
        clustered = tmp_path / "clustered"
        assert main(["cluster", "--manifest", manifest, "--output-dir", str(clustered),
                     "--k", "2"]) == 0
        assert main(["share", "--manifest", manifest, "--output-dir", str(clustered)]) == 0
        out = tmp_path / "out"
        rc = main([
            "share", "--manifest", manifest, "--output-dir", str(out),
            "--labels", str(clustered / "labels.txt"),
            "--affinity", str(clustered / "affinity.mtx"),
        ])
        assert rc == 0
        assert (out / "completed.mtx").read_bytes() == (clustered / "completed.mtx").read_bytes()

    def test_affinity_file_is_held_once(self, tmp_path, monkeypatch):
        """share keeps the 1000 x 1000 affinity array it reads (8 MB): traced from the end of the load to
        the start of sharing, the read and the SimilarityGraph peak near one copy, not two."""
        n = 1000
        manifest = make_bundle(tmp_path, ["--set", f"synth.images_per_cluster={n // 2}"])
        write_dense_matrix(tmp_path / "affinity.mtx",
                           tagmat.cosine_similarity_graph(load_dataset(manifest).image_features).weights)
        (tmp_path / "labels.txt").write_text("0\n1\n" * (n // 2))
        load, share = cli.load_dataset, cli.share_tags
        peaks = []

        def traced_load(path):
            bundle = load(path)
            tracemalloc.start()
            return bundle

        def traced_share(*args):
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            return share(*args)

        monkeypatch.setattr(cli, "load_dataset", traced_load)
        monkeypatch.setattr(cli, "share_tags", traced_share)
        try:
            rc = main(["share", "--manifest", manifest, "--output-dir", str(tmp_path / "out"),
                       "--labels", str(tmp_path / "labels.txt"), "--affinity", str(tmp_path / "affinity.mtx")])
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peaks[0] < 1.5 * 8 * n * n, peaks

    def test_empty_labels_file_exits_two_naming_the_flag(self, tmp_path, caplog):
        manifest = make_bundle(tmp_path)
        empty = tmp_path / "empty.txt"
        empty.write_text("\n")
        rc = main(["share", "--manifest", manifest, "--output-dir", str(tmp_path / "out"),
                   "--labels", str(empty)])
        assert rc == 2
        assert caplog.records[-1].getMessage() == (
            f"--labels: {empty}: has shape 0, expected 12"
        )

    @pytest.mark.parametrize("labels, message", [
        pytest.param([0] * 5, "has shape 5, expected 40", id="labels0-holds 5 labels"),
        pytest.param([0] * 39 + [-1], "cluster labels out of range [0, 1): got -1 to 0",
                     id="labels1-holds label -1"),
    ])
    def test_bad_labels_file_exits_two_naming_the_flag(self, tmp_path, caplog, labels, message):
        manifest = make_bundle(tmp_path, ["--set", "synth.images_per_cluster=20"])
        path = tmp_path / "labels.txt"
        path.write_text("".join(f"{lab}\n" for lab in labels))
        rc = main(["share", "--manifest", manifest, "--output-dir", str(tmp_path / "out"),
                   "--labels", str(path)])
        assert rc == 2
        assert caplog.records[-1].getMessage() == f"--labels: {path}: {message}"

    def test_affinity_of_wrong_size_exits_two_naming_the_flag(self, tmp_path, caplog):
        manifest = make_bundle(tmp_path, ["--set", "synth.images_per_cluster=20"])
        labels, affinity = tmp_path / "labels.txt", tmp_path / "affinity.mtx"
        labels.write_text("0\n" * 20 + "1\n" * 20)
        write_dense_matrix(affinity, np.ones((5, 5)) - np.eye(5))
        rc = main(["share", "--manifest", manifest, "--output-dir", str(tmp_path / "out"),
                   "--labels", str(labels), "--affinity", str(affinity)])
        assert rc == 2
        assert caplog.records[-1].getMessage() == (
            f"--affinity: {affinity}: has shape 5x5, expected 40x40"
        )

    def test_missing_affinity_reported(self, tmp_path, caplog):
        manifest = make_bundle(tmp_path)
        out = tmp_path / "out"
        assert main(["cluster", "--manifest", manifest, "--output-dir", str(out),
                     "--k", "2"]) == 0
        os.remove(out / "affinity.mtx")
        rc = main(["share", "--manifest", manifest, "--output-dir", str(out)])
        assert rc == 2
        message = caplog.records[-1].getMessage()
        assert message.startswith(f"--affinity: {out / 'affinity.mtx'}: ")
        assert message.endswith("; run `cluster` first or pass --affinity")


class TestSynthKinds:
    def test_planted_bundle_loads(self, tmp_path):
        out = tmp_path / "p"
        rc = main([
            "synth", "--output-dir", str(out),
            "--set", "synth.kind=planted",
            "--set", "synth.n_tags=15", "--set", "synth.image_dim=6",
            "--set", "synth.tag_dim=5", "--set", "synth.images_per_cluster=4",
        ])
        assert rc == 0
        bundle = load_dataset(out / "synthetic.manifest")
        assert bundle.tags.n_tags == 15
        assert bundle.ground_truth is not None

    def test_planted_requires_partial_density(self, tmp_path):
        rc = main([
            "synth", "--output-dir", str(tmp_path / "p"),
            "--set", "synth.kind=planted", "--set", "synth.density=1.0",
        ])
        assert rc == 2

    def test_subspaces_bundle_has_cluster_tags(self, tmp_path):
        out = tmp_path / "s"
        rc = main([
            "synth", "--output-dir", str(out),
            "--set", "synth.kind=subspaces",
            "--set", "synth.n_clusters=3", "--set", "synth.images_per_cluster=5",
        ])
        assert rc == 0
        bundle = load_dataset(out / "synthetic.manifest")
        assert bundle.tags.n_tags == 3
        assert (out / "synthetic_true_clusters.txt").exists()

    def test_unknown_kind_exits_two(self, tmp_path):
        rc = main([
            "synth", "--output-dir", str(tmp_path / "x"), "--set", "synth.kind=wat",
        ])
        assert rc == 2

    # Image features that overflow to inf name the key that scales them, not synth.inaccurate_rate.
    OVERFLOWING = [
        (["--set", "synth.cluster_spread=1e308"], "synth.cluster_spread"),
        (["--set", "synth.cluster_spread=-1e308"], "synth.cluster_spread"),
        (["--set", "synth.image_noise=1e308"], "synth.image_noise"),
        (["--set", "synth.kind=subspaces", "--set", "synth.image_noise=1e308"], "synth.image_noise"),
    ]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    @pytest.mark.parametrize("argv, key", OVERFLOWING, ids=["spread", "negative-spread", "noise", "subspaces"])
    def test_overflowing_features_exit_two_naming_their_scale(self, tmp_path, caplog, argv, key):
        out = tmp_path / "out"
        assert main(["synth", "--output-dir", str(out), *argv]) == 2
        assert caplog.records[-1].getMessage() == f"{key}: feature matrix contains non-finite values"
        assert not out.exists()

    @pytest.mark.parametrize("argv, key", OVERFLOWING, ids=["spread", "negative-spread", "noise", "subspaces"])
    def test_overflowing_features_print_only_log_lines(self, tmp_path, argv, key):
        """No raw numpy warning reaches stderr ahead of the error: every line starts with a log level."""
        env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
        child = subprocess.run([sys.executable, "-m", "tagrefinery.cli", "synth", "--output-dir",
                                str(tmp_path / "out"), *argv], env=env, capture_output=True, text=True,
                               timeout=60)
        assert child.returncode == 2
        lines = child.stderr.splitlines()
        assert lines[-1] == f"ERROR {key}: feature matrix contains non-finite values"
        assert all(line.startswith(("INFO ", "WARNING ", "ERROR ")) for line in lines), lines

    def test_huge_cluster_spread_gives_unit_image_rows(self, tmp_path):
        out = tmp_path / "s"
        argv = ["--set", "synth.cluster_spread=1e300", "--set", "synth.image_noise=0"]
        assert main(["synth", "--output-dir", str(out), *argv]) == 0
        norms = np.linalg.norm(load_dataset(out / "synthetic.manifest").image_features.data, axis=1)
        np.testing.assert_allclose(norms, 1.0, rtol=1e-12)


class TestTune:
    def test_tiny_grid_writes_results(self, tmp_path):
        manifest = make_bundle(tmp_path)
        out = tmp_path / "tune"
        rc = main([
            "tune", "--manifest", manifest, "--output-dir", str(out),
            "--set", "k=2",
            "--set", "tune.lambda1_grid=[0.1]",
            "--set", "tune.lambda2_grid=[0.01]",
            "--set", "tune.mu_grid=[0.0,0.5]",
            "--set", "tune.rank_grid=[3]",
            "--set", "tune.n=2",
        ])
        assert rc == 0
        best = json.loads((out / "tune_best.json").read_text())
        assert best["mu"] in (0.0, 0.5)
        lines = (out / "tune_results.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 grid points

    def test_validation_split_without_ground_truth_exits_two_before_any_stage(
        self, tmp_path, monkeypatch, caplog
    ):
        manifest = make_bundle(tmp_path)
        truth = load_dataset(manifest).ground_truth.toarray()
        truth[1:] = 0.0  # only image 0 is annotated
        write_sparse_matrix(tmp_path / "data" / "synthetic_ground_truth.mtx", TagMatrix.from_dense(truth))

        def no_ssc(*args, **kwargs):
            raise AssertionError("ssc_solve ran")

        monkeypatch.setattr("tagrefinery.subspace.ssc_solve", no_ssc)
        out = tmp_path / "tune"
        assert main(["tune", "--manifest", manifest, "--output-dir", str(out), "--set", "k=2",
                     "--set", "tune.val_fraction=0.25", "--set", "tune.split_seed=1"]) == 2
        assert caplog.records[-1].getMessage() == (
            "tune.val_fraction: the validation split of 3 images (tune.split_seed=1) has no "
            "ground-truth tags; nothing to evaluate")
        assert not out.exists()

    @pytest.mark.parametrize("assignment, key", [
        ("tune.mu_grid=[]", "tune.mu_grid"),
        ("tune.mu_grid=0.4", "tune.mu_grid"),
        ("tune.mu_grid=[0.4,1.5]", "tune.mu_grid"),
        ('tune.rank_grid=["x"]', "tune.rank_grid"),
        ("tune.split_seed=abc", "tune.split_seed"),
        ("tune.n=0", "tune.n"),
        ("tune.val_fraction=abc", "tune.val_fraction"),
    ])
    def test_invalid_tune_section_exits_two_before_any_fit(
        self, tmp_path, caplog, assignment, key
    ):
        manifest = make_bundle(tmp_path)
        out = tmp_path / "tune"
        rc = main(["tune", "--manifest", manifest, "--output-dir", str(out), "--set", assignment])
        assert rc == 2
        assert f"{key}:" in caplog.text
        assert not out.exists()



# Each flag's command, reading the file under test at BAD, and how to write a file of the
# wrong shape for the TINY bundle (12 images, 12 tags, 30 image and 16 tag features).
FLAG_FILES = {
    "--labels": (["share", "--labels", "BAD"],
                 lambda path: path.write_text("0\n" * 5)),
    "--affinity": (["share", "--labels", "LABELS", "--affinity", "BAD"],
                   lambda path: write_dense_matrix(path, np.ones((5, 5)) - np.eye(5))),
    "--tags-in": (["refine", "--tags-in", "BAD"],
                  lambda path: write_dense_matrix(path, np.zeros((12, 13)))),
    "--completed": (["tune", "--completed", "BAD"],
                    lambda path: write_dense_matrix(path, np.zeros((13, 12)))),
    "--import-factors P": (["refine", "--apply", "--import-factors", "BAD", "Q"],
                           lambda path: write_dense_matrix(path, np.ones((5, 3)))),
    "--import-factors Q": (["refine", "--apply", "--import-factors", "P", "BAD"],
                           lambda path: write_dense_matrix(path, np.ones((16, 4)))),
    "--predictions": (["eval", "--predictions", "BAD"],
                      lambda path: write_dense_matrix(path, np.ones((12, 7)))),
}


def with_nan(shape):
    arr = np.ones(shape)
    arr[1, 2] = np.nan
    return arr


# Kind of bad file -> how to make it, and a part of the error it must give.
BAD_FILES = {
    "missing": (lambda path, wrong_shape: None, "No such file or directory"),
    "directory": (lambda path, wrong_shape: path.mkdir(), "Is a directory"),
    "unparsable": (lambda path, wrong_shape: path.write_text("a\nb\n"), ""),
    "wrong-shape": (lambda path, wrong_shape: wrong_shape(path), ": has shape "),
}
# Manifest key -> its file in the bundle, what spoils it, and a part of the error it must give.
MANIFEST_FILES = {
    "tags": ("synthetic_tags.mtx",
             lambda path: write_dense_matrix(path, np.full((12, 12), 1.5)), "[0, 1]"),
    "image_features": ("synthetic_image_features.mtx",
                       lambda path: write_dense_matrix(path, np.full((12, 30), np.nan)), "non-finite"),
    "tag_features": ("synthetic_tag_features.mtx",
                     lambda path: write_dense_matrix(path, np.full((12, 16), np.inf)), "non-finite"),
    "ground_truth": ("synthetic_ground_truth.mtx",
                     lambda path: write_dense_matrix(path, np.full((12, 12), -1.0)), "[0, 1]"),
    "image_ids": ("synthetic_image_ids.txt",
                  lambda path: path.write_text("a\n" * 11), "expected 12 image ids, got 11"),
    "tag_names": ("synthetic_tag_names.txt",
                  lambda path: path.write_text("a\n" * 13), "expected 12 tag names, got 13"),
    "manifest": ("synthetic.manifest", lambda path: (path.unlink(), path.mkdir()), "directory"),
}
INPUT_ROWS = [
    *[pytest.param(flag.split()[0], argv, None,
                   lambda path, make=make, wrong_shape=wrong_shape: make(path, wrong_shape), reason,
                   id=f"{flag.replace(' ', '-')}-{kind}")
      for flag, (argv, wrong_shape) in FLAG_FILES.items()
      for kind, (make, reason) in BAD_FILES.items()],
    *[pytest.param(flag.split()[0], FLAG_FILES[flag][0], None,
                   lambda path, shape=shape: write_dense_matrix(path, with_nan(shape)), "non-finite",
                   id=f"{flag.replace(' ', '-')}-non-finite")
      for flag, shape in [("--import-factors P", (30, 3)), ("--import-factors Q", (16, 3)),
                          ("--predictions", (12, 12))]],
    pytest.param("--import-factors", FLAG_FILES["--import-factors P"][0], None,
                 lambda path: write_dense_matrix(path, np.zeros((30, 0))),
                 "factor P must be at least 1x1, got (30, 0)", id="--import-factors-P-empty"),
    pytest.param("--predictions", FLAG_FILES["--predictions"][0], None,
                 lambda path: write_dense_matrix(path, np.full((12, 12), -np.inf)),
                 "prediction matrix contains non-finite values", id="--predictions-minus-inf"),
    pytest.param("--affinity", FLAG_FILES["--affinity"][0], None,
                 lambda path: write_dense_matrix(path, np.triu(np.ones((12, 12)), 1)),
                 "not symmetric", id="--affinity-asymmetric"),
    *[pytest.param(key, ["cluster", "--k", "2"], name, spoil, reason, id=f"manifest-{key}")
      for key, (name, spoil, reason) in MANIFEST_FILES.items()],
    *[pytest.param("--config", ["cluster", "--config", "BAD"], None, spoil, reason, id=f"--config-{kind}")
      for kind, spoil, reason in [
          ("missing", lambda path: None, "No such file"),
          ("directory", lambda path: path.mkdir(), "Is a directory"),
          ("unparsable", lambda path: path.write_text("{"), "Expecting"),
          ("no-object", lambda path: path.write_text("[1]"), "must hold a JSON object"),
      ]],
]


@pytest.mark.parametrize("field, argv, data_file, spoil, reason", INPUT_ROWS)
def test_bad_input_file_exits_two_naming_its_field(
    tmp_path, caplog, recwarn, field, argv, data_file, spoil, reason
):
    """One error, naming the flag or manifest key and the path; no output directory, no warning."""
    manifest = make_bundle(tmp_path)
    (tmp_path / "labels.txt").write_text("0\n" * 6 + "1\n" * 6)
    write_dense_matrix(tmp_path / "p.mtx", np.ones((30, 3)))
    write_dense_matrix(tmp_path / "q.mtx", np.ones((16, 3)))
    bad = tmp_path / "data" / data_file if data_file else tmp_path / "bad.mtx"  # mmwrite adds .mtx
    spoil(bad)
    files = {"BAD": bad, "LABELS": tmp_path / "labels.txt", "P": tmp_path / "p.mtx",
             "Q": tmp_path / "q.mtx"}
    out = tmp_path / "out"
    caplog.clear()
    rc = main([argv[0], "--manifest", manifest, "--output-dir", str(out),
               *[str(files.get(arg, arg)) for arg in argv[1:]]])
    assert rc == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1
    assert errors[0].startswith(f"{field}: {bad}: ")
    assert reason in errors[0]
    assert not out.exists()
    assert not recwarn.list
