"""Tests of the benchmark itself.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import pathlib

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import refs                              # noqa: E402
import run                               # noqa: E402
from workloads import WORKLOADS, Job     # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def context(name: str, seed: int):
    workload = WORKLOADS[name]
    _, ctx, first = run.set_up(workload, run.ROOT, seed)
    ctx.oracles = refs.load_oracles(run.ROOT)
    return workload, ctx, workload.refine(ctx, first)


def job_list(name: str, seed: int, passes: int = 2) -> list:
    workload, ctx, first = context(name, seed)
    later = [workload.refine(ctx, workload.build(ctx, k))
             for k in range(1, passes)]
    return [job.desc for jobs in [first, *later] for job in jobs]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_jobs(name):
    assert job_list(name, 3) == job_list(name, 3)
    assert job_list(name, 3) != job_list(name, 4)


def test_benchmark_json_workloads_exist():
    listed = {w["name"] for w in SPEC["workloads"]}
    assert listed <= set(WORKLOADS)
    assert set(WORKLOADS) - listed == {"search"}


def test_end_to_end_names_match_benchmark_json():
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "bisim",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=120,
        check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_names_match_benchmark_json():
    workload, ctx, _ = context("oneshot", 1)
    stats, metrics = run.traced(
        dataclasses.replace(workload, trace_passes=1), ctx)
    assert stats.failed == 0
    assert {n: unit for n, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in ("models.validate_calls", "transform.tree_states",
                 "proof.check_steps", "cli.calls", "syntax.reduce_out_nodes",
                 "semantics.search_calls", "semantics.search_models_per_s"):
        assert metrics[name][0] > 0, name


def test_wrong_verdicts_and_crashes_are_counted():
    _, _, jobs = context("bisim", 1)
    heads = next(j for j in jobs if j.control)
    bisimilar = next(j for j in jobs if j.kind == "split")
    wrong = [
        dataclasses.replace(heads, run=lambda: None),        # "bisimilar"
        dataclasses.replace(bisimilar, run=heads.run),       # other pair's answer
        dataclasses.replace(heads, run=lambda: 1 / 0),       # crash
    ]
    stats = run.Stats()
    run.run_jobs(jobs + wrong, stats)
    assert stats.attempted == len(jobs) + 3
    assert stats.failed == 3


def test_fuzz_controls_without_any_finding_all_fail():
    workload, _, jobs = context("fuzz", 1)
    clean = [dataclasses.replace(j, check=lambda out: True)
             for j in jobs if j.control]
    stats = run.Stats()
    run.run_jobs(clean, stats)
    stats.audit_controls(workload)
    assert stats.failed == len(clean)


def test_tail_has_ten_samples_beyond():
    p, beyond, value = run.tail([float(k) for k in range(1024)])
    assert (p, beyond) == (99, 11)
    assert 1012 < value < 1013


def test_labeled_space_counts_what_a_failed_search_visits():
    # one state: two valuations times three pair/edge choices
    assert refs.labeled_space(1, 1, 1, 1) == 6
    assert refs.labeled_space(1, 1, 1, 3) == 405_630


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fuzz", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
