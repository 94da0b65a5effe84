"""Command-line interface tests: subcommands, config handling, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from tagrefinery.cli import DEFAULT_CONFIG, ConfigError, main, resolve_config
from tagrefinery.tagmat import load_dataset, read_dense_matrix, read_sparse_matrix, write_dense_matrix


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

        with pytest.raises(ConfigError, match="bogus"):
            resolve_config(Args())

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

        with pytest.raises(ConfigError, match="nonsense"):
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

    OUT_OF_RANGE = [
        (["cluster", "--manifest", "missing.manifest", "--k", "0"], "k"),
        (["synth", "--threads", "0"], "threads"),
        (["synth", "--output-dir", ""], "output_dir"),
        (["synth", "--set", "synth.kind=wat"], "synth.kind"),
        (["synth", "--set", "synth.kind=planted", "--set", "synth.density=1.0"], "synth.density"),
        (["synth", "--set", "synth.n_clusters=0"], "synth.n_clusters"),
        (["synth", "--set", "synth.images_per_cluster=0"], "synth.images_per_cluster"),
        (["synth", "--set", "synth.tags_per_cluster=0"], "synth.tags_per_cluster"),
    ]

    @pytest.mark.parametrize("argv, key", OUT_OF_RANGE, ids=[key for _, key in OUT_OF_RANGE])
    def test_out_of_range_value_exits_two_naming_the_key(self, tmp_path, caplog, argv, key):
        out = tmp_path / "out"
        assert main([argv[0], "--output-dir", str(out), *argv[1:]]) == 2
        assert caplog.records[-1].getMessage().startswith(f"{key}: ")
        assert not out.exists()

    def test_threads_key_sets_the_blas_budget(self, tmp_path, monkeypatch):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.setenv(var, "")  # so that undo removes what main sets
            monkeypatch.delenv(var)
        assert main(["synth", "--output-dir", str(tmp_path), *TINY, "--set", "threads=3"]) == 0
        assert os.environ["OPENBLAS_NUM_THREADS"] == "3"

    def test_refine_stopping_at_outer_cap_warns_and_exits_zero(self, tmp_path, caplog):
        manifest = make_bundle(tmp_path)
        rc = main([
            "refine", "--manifest", manifest, "--output-dir", str(tmp_path / "out"),
            "--set", "refine.outer_iters=1",
        ])
        assert rc == 0
        assert "refine.outer_iters=1" in caplog.text
        assert "relative objective change" in caplog.text


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

    @pytest.mark.parametrize("command, flag", [("refine", "--tags-in"), ("tune", "--completed")])
    def test_mismatched_tag_matrix_exits_two_naming_the_flag(self, tmp_path, caplog, command, flag):
        manifest = make_bundle(tmp_path)
        other = tmp_path / "other"
        assert main(["synth", "--output-dir", str(other), *TINY, "--set", "synth.n_tags=13"]) == 0
        out = tmp_path / "out"
        rc = main([command, "--manifest", manifest, "--output-dir", str(out),
                   flag, str(other / "synthetic_tags.mtx")])
        assert rc == 2
        assert caplog.records[-1].getMessage().startswith(f"{flag}: matrix 12x13 ")
        assert not out.exists()

    def test_apply_without_factors_rejected(self, tmp_path):
        manifest = make_bundle(tmp_path)
        rc = main([
            "refine", "--manifest", manifest,
            "--output-dir", str(tmp_path / "out"), "--apply",
        ])
        assert rc == 2


class TestShareCommand:
    def test_cosine_neighbor_source_needs_no_affinity(self, tmp_path):
        manifest = make_bundle(tmp_path)
        out = tmp_path / "out"
        assert main(["cluster", "--manifest", manifest, "--output-dir", str(out),
                     "--k", "2"]) == 0
        os.remove(out / "affinity.mtx")
        rc = main([
            "share", "--manifest", manifest, "--output-dir", str(out),
            "--set", "sharing.neighbor_source=cosine",
        ])
        assert rc == 0
        assert (out / "completed.mtx").exists()

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

    def test_empty_labels_file_exits_two_naming_the_flag(self, tmp_path, caplog):
        manifest = make_bundle(tmp_path)
        empty = tmp_path / "empty.txt"
        empty.write_text("\n")
        rc = main(["share", "--manifest", manifest, "--output-dir", str(tmp_path / "out"),
                   "--labels", str(empty), "--set", "sharing.neighbor_source=cosine"])
        assert rc == 2
        assert caplog.records[-1].getMessage() == (
            f"--labels: labels file {empty} holds no cluster labels"
        )

    def test_missing_affinity_reported(self, tmp_path):
        manifest = make_bundle(tmp_path)
        out = tmp_path / "out"
        assert main(["cluster", "--manifest", manifest, "--output-dir", str(out),
                     "--k", "2"]) == 0
        os.remove(out / "affinity.mtx")
        rc = main(["share", "--manifest", manifest, "--output-dir", str(out)])
        assert rc == 2


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
