"""Tests of the benchmark harness itself: gates, span accounting, output."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# 30 identity combos on tiny grids: cheap, and still runs cli._fan_out's pool.
SMALL_IDENTITY = run.Step("verify-identity", "cli", ("verify-identity",),
                          configs=({"schema": 1, "levels": [16, 32]},))


def _measure(steps, iterations, trace, workroot):
    return run.measure(steps, iterations, seed=0, trace=trace, workroot=workroot,
                       started=time.monotonic())


def test_failing_operations_count_against_passed_frac(tmp_path):
    steps = (
        run.Step("limits", "cli", ("limits",)),
        # exits 2: too few sequence points for a slope
        run.Step("limits", "cli", ("limits",), configs=({"schema": 1, "count": 2},)),
        # exits 0 and passes, but its record names are not the pinned ones
        run.Step("verify-nl", "cli", ("limits",)),
    )
    iters = _measure(steps, 1, False, tmp_path)
    results = iters[0].steps
    assert sum(s.attempted for s in results) == 3
    assert sum(s.failed for s in results) == 2
    metrics, _ = run.end_to_end(iters)
    assert metrics["passed_frac"] == 1 / 3


def test_library_step_without_results_fails_every_check(tmp_path):
    failed, _, problem = run._judge_evolve(tmp_path, 1)
    assert failed == len(run.child.evolve_ops()) > 0
    assert problem


def test_fair_share_self_time_partitions_the_wall():
    # one main-thread span [0, 10] whose pool runs two worker spans
    spans = [
        (0, None, 1, "pool", 0.0, 10.0, None),
        (1, 0, 2, "job", 1.0, 9.0, None),
        (2, 0, 3, "job", 2.0, 8.0, None),
        (3, 1, 2, "leaf", 4.0, 5.0, None),
    ]
    fair = tracer.self_times(spans)
    assert fair[0] == 2.0          # pool set-up and tear-down only
    assert fair[3] == 0.5          # shared with the other job
    assert fair[1] == 4.5          # alone on [1, 2] and [8, 9], shared elsewhere
    assert fair[2] == 3.0
    assert abs(sum(fair.values()) - 10.0) < 1e-12
    layers = tracer.summarize([list(s) for s in spans])
    assert layers["pool"]["incl_s"] == 10.0
    assert layers["job"]["calls"] == 2


def test_traced_self_times_never_exceed_traced_wall(tmp_path):
    step = run.run_step(SMALL_IDENTITY, tmp_path / "s", run.random.Random(0),
                        trace=True, deadline=time.monotonic() + 120)
    layers = {k: v for k, v in step.summary.items() if not k.startswith("_")}
    assert layers["cli._fan_out"]["calls"] == 1
    assert layers["verifier.identity_convergence"]["calls"] == 30
    total = sum(v["self_s"] for v in layers.values())
    assert 0.0 < total <= step.wall
    for name, stats in layers.items():
        assert 0.0 <= stats["self_s"] <= stats["incl_s"] + 1e-9 <= step.wall, name
    # the pool's own time excludes the jobs its worker threads ran
    assert layers["cli._fan_out"]["self_s"] < 0.5 * layers["cli._fan_out"]["incl_s"]


def test_trace_run_reports_every_per_layer_metric(tmp_path):
    iters = _measure((SMALL_IDENTITY,), 2, True, tmp_path)
    assert [it.traced for it in iters] == [False, True]
    values = run.per_layer(iters)
    declared = [m["name"] for m in SPEC["per_layer"]]
    assert sorted(values) == sorted(declared)
    assert values["verifier.identity_residual.repeat"] == 30
    assert values["currents.current_general.discarded"] == 60
    assert values["trace.wall_s"] > 0


def test_declared_metrics_match_what_the_command_prints():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    declared = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert declared == tracer.per_layer_metrics()
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


def test_one_command_prints_every_end_to_end_metric_with_its_unit():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chains", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == len(run.WORKLOADS["chains"])
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert metric["value"] > 0
    assert len(result["metrics"]) == len(SPEC["end_to_end"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chains", "--seed", "1",
         "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
