"""Toy-size smoke test of the benchmark harness: every workload kind, both modes."""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

SHORT_REFINE = ("refine.outer_iters=3",)
TOY = {
    "pipeline": dict(images_per_cluster=12, overrides=SHORT_REFINE),
    "cluster": dict(images_per_cluster=12),
    "tune": dict(images_per_cluster=12, overrides=SHORT_REFINE + ("tune.mu_grid=[0.4]",)),
    "apply": dict(images_per_cluster=12, held_out_per_cluster=40),
}


def toy(name: str) -> run.Workload:
    w = run.WORKLOADS[name]
    # Fixed costs dominate at toy size, so no layer's share can be asserted.
    return dataclasses.replace(w, min_share=0.0, **TOY[w.kind])


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    res, env = run.run_workload(toy(name), seed=1, seconds=0.0, trace=True, work=tmp_path)
    assert res["correct"], res
    assert (res["attempted"], res["failed"]) == (3, 0)
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert env["child_threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_untimed_run_reports_end_to_end_metrics(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    res, _ = run.run_workload(toy("pipeline-500"), seed=0, seconds=0.0, trace=False, work=tmp_path)
    assert res["correct"] and res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "tune-200", "--seconds", "1"]) != 0
