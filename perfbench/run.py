#!/usr/bin/env python3
"""conelab benchmark: end-to-end cost of getting a verified report.

    python3 perfbench/run.py --workload identity|chains|evolve \
        --seed N --seconds S --trace 0|1

Load is a closed loop with one client.  One iteration runs the workload's
steps one after another, each in a fresh interpreter, because a user pays
interpreter start and `import conelab` on every CLI run.  A run makes
round(S / SECONDS_PER_ITERATION) iterations (at least one) and reports medians.

--trace 0 prints the end-to-end metrics: CPU time, set-up CPU time, peak
RSS and the share of operations that passed their correctness gate; the
line before it gives wall-time quartiles too.
--trace 1 alternates untraced and traced iterations and prints the per-layer
metrics taken from spans around calls into each conelab module, with the
tracing overhead (traced minus untraced wall time).

An operation is one CLI invocation or one library check.  A CLI invocation
passes when it exits 0, its report says passed, and its record names equal
the pinned set in pinned.json; a moved stability hash is only counted.  The
seed reorders steps and picks among pinned, equivalent configurations; it
never changes sizes.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
RUN_LIMIT_S = 170.0

sys.path.insert(0, str(HERE))
import child  # noqa: E402
import tracer  # noqa: E402

PINNED = json.loads((HERE / "pinned.json").read_text())

# Wall time is not among them: on a shared VM the hypervisor steals up to a
# third of the CPU time in some minutes, which moved ten-run wall-time
# medians by more than any allowed bound while CPU time stayed steady.
# Wall times are still printed on the detail line and in the traced run.
END_TO_END = (
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("passed_frac", "ratio"),
)

# Seconds of --seconds that buy one iteration: about the wall time of one
# iteration at the seed commit on 2 cores.  The count is fixed by --seconds,
# not by the clock, so both sides of a comparison measure the same work.
SECONDS_PER_ITERATION = {"identity": 7.5, "chains": 7.5, "evolve": 8.5}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Step:
    """One process of a workload iteration."""

    key: str                      # entry in pinned.json
    kind: str                     # "cli" or "evolve"
    args: tuple = ()              # CLI arguments before --config/--out
    configs: tuple = (None,)      # equivalent configurations (None: defaults)
    csv: bool = False             # --format csv-bundle

    @property
    def ops(self) -> int:
        return len(child.evolve_ops()) if self.kind == "evolve" else 1


def _cfg(command, **params):
    return {"schema": 1, "command": command, **params}


MULTIPOLE = dict(case="multipole", beta=2.0, p=1.0, grid=96, nodes=96)
SOLVE_256 = dict(T=1.0, R=6.0, dr=0.002, grid=256,
                 region={"rho": 0.25, "omega": 1.0, "sigma": 0.6, "tau": 1.6666667})

WORKLOADS = {
    "identity": (
        Step("verify-identity", "cli", ("verify-identity",), configs=(
            None,
            _cfg("verify-identity", n=3, levels=[64, 128, 256]),
            {"levels": [64, 128, 256], "schema": 1,
             "region": {"rho": 0.1, "omega": 10.0, "sigma": 0.1, "tau": 10.0}},
        )),
    ),
    "chains": (
        Step("verify-carleman", "cli", ("verify-carleman",), configs=(
            None,
            _cfg("verify-carleman", n=3, nodes=160, grid=96,
                 weight={"a": 1.0, "b": 0.1, "p": 0.5}),
        )),
        Step("verify-nl", "cli", ("verify-nl",), configs=(
            None,
            _cfg("verify-nl", n=3, a=0.1, nodes=160, grid=96),
        )),
        Step("limits", "cli", ("limits",), configs=(
            None,
            _cfg("limits", n=3, nodes=192, count=6, delta=1.0, alpha=0.25, beta=0.25),
        )),
        Step("pipeline-multipole-refine", "cli", ("pipeline", "--refine"), configs=(
            _cfg("pipeline", **MULTIPOLE),
            {"schema": 1, **dict(reversed(list(MULTIPOLE.items()))), "n": 3},
        )),
    ),
    "evolve": (
        Step("evolve-library", "evolve"),
        Step("solve-csv-256", "cli", ("solve", "--format", "csv-bundle"), csv=True, configs=(
            _cfg("solve", **SOLVE_256),
            _cfg("solve", n=3, profile="spherical-wave", ell=0, width=1.0, power=6,
                 sample=True, **SOLVE_256),
        )),
    ),
}


# ---------------------------------------------------------------------------
# one step, one iteration
# ---------------------------------------------------------------------------

@dataclass
class StepResult:
    wall: float
    cpu: float
    rss_kb: int
    setup: float
    import_s: float
    attempted: int
    failed: int
    hash_changed: int
    summary: Optional[dict] = None
    problem: str = ""


def _count_lines(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def _judge_cli(step: Step, outdir: Path, rc) -> tuple:
    """(failed ops, hash changed, problem) for a CLI step."""
    pin = PINNED[step.key]
    report_path = outdir / ("out/report.json" if step.csv else "report.json")
    if rc != 0:
        return 1, 0, f"exit status {rc}"
    try:
        report = json.loads(report_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return 1, 0, f"unreadable report: {exc}"
    changed = int(report.get("stability_hash") != pin["stability_hash"])
    if report.get("passed") is not True:
        return 1, changed, "report not passed"
    names = sorted(r.get("name") for r in report.get("records", []))
    if names != sorted(pin["records"]):
        return 1, changed, "record names differ from the pinned set"
    for fname, (header, rows) in pin.get("csv", {}).items():
        path = outdir / "out" / fname
        if not path.is_file():
            return 1, changed, f"missing {fname}"
        with path.open() as fh:
            first = fh.readline().rstrip("\r\n")
        if first != header or _count_lines(path) != rows + 1:
            return 1, changed, f"{fname} has the wrong header or row count"
    return 0, changed, ""


def _judge_evolve(outdir: Path, rc) -> tuple:
    expected = set(child.evolve_ops())
    try:
        ops = json.loads((outdir / "ops.json").read_text())
    except (OSError, json.JSONDecodeError):
        return len(expected), 0, f"no check results (exit status {rc})"
    passed = {op["name"] for op in ops if op.get("passed") is True}
    failed = len(expected - passed)
    return failed, 0, (f"{failed} library checks failed" if failed else "")


def run_step(step: Step, workdir: Path, rng: random.Random, trace: bool,
             deadline: float) -> StepResult:
    workdir.mkdir(parents=True)
    argv = [sys.executable, str(CHILD), str(workdir), "1" if trace else "0", step.kind]
    if step.kind == "cli":
        config = rng.choice(step.configs)
        argv += list(step.args)
        if config is not None:
            cfg_path = workdir / "config.json"
            cfg_path.write_text(json.dumps(config))
            argv += ["--config", str(cfg_path)]
        argv += ["--out", str(workdir / ("out" if step.csv else "report.json"))]
    else:
        argv.append(str(rng.randrange(1 << 30)))

    with (workdir / "stderr.txt").open("wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT)
        watchdog = threading.Timer(max(deadline - t0, 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        t1 = time.monotonic()
    proc.returncode = rc = os.waitstatus_to_exitcode(status)

    try:
        meta = json.loads((workdir / "meta.json").read_text())
    except (OSError, json.JSONDecodeError):
        meta = {}
    if step.kind == "cli":
        failed, changed, problem = _judge_cli(step, workdir, rc)
    else:
        failed, changed, problem = _judge_evolve(workdir, rc)
    if problem:
        tail = (workdir / "stderr.txt").read_text(errors="replace")[-400:]
        problem = f"{step.key}: {problem}" + (f" | {tail.strip()}" if tail.strip() else "")

    summary = None
    if trace and (workdir / "spans.json").is_file():
        spans = json.loads((workdir / "spans.json").read_text())
        summary = tracer.summarize(spans)
    cpu = usage.ru_utime + usage.ru_stime
    return StepResult(wall=t1 - t0, cpu=cpu,
                      rss_kb=usage.ru_maxrss, setup=meta.get("setup_cpu", cpu),
                      import_s=meta.get("import_s", 0.0), attempted=step.ops,
                      failed=failed, hash_changed=changed, summary=summary,
                      problem=problem)


@dataclass
class Iteration:
    traced: bool
    order: list
    steps: list = field(default_factory=list)

    @property
    def wall(self):
        return sum(s.wall for s in self.steps)

    @property
    def cpu(self):
        return sum(s.cpu for s in self.steps)

    @property
    def setup(self):
        return sum(s.setup for s in self.steps)

    @property
    def rss_mb(self):
        return max(s.rss_kb for s in self.steps) / 1024.0


def run_iteration(steps, workdir: Path, rng: random.Random, traced: bool,
                  deadline: float) -> Iteration:
    order = list(steps)
    rng.shuffle(order)
    it = Iteration(traced=traced, order=[s.key for s in order])
    for k, step in enumerate(order):
        it.steps.append(run_step(step, workdir / f"{k}-{step.key}", rng, traced, deadline))
    shutil.rmtree(workdir, ignore_errors=True)
    return it


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------

def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def machine_facts() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "sympy": version("sympy"),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure(steps, iterations: int, seed: int, trace: bool, workroot: Path,
            started: float) -> list:
    """Run `iterations` iterations; with tracing, alternate off and on."""
    rng = random.Random(seed)
    deadline = started + RUN_LIMIT_S
    done = []
    for k in range(iterations):
        traced = trace and k % 2 == 1
        if done and time.monotonic() + 1.5 * done[-1].wall > deadline:
            break
        done.append(run_iteration(steps, workroot / f"it{k}", rng, traced, deadline))
    return done


def end_to_end(iters) -> tuple:
    """(metrics, quartiles) over the untraced iterations."""
    plain = [it for it in iters if not it.traced]
    series = {
        "wall_s": [it.wall for it in plain],
        "cpu_s": [it.cpu for it in plain],
        "setup_s": [it.setup for it in plain],
        "peak_rss_mb": [it.rss_mb for it in plain],
    }
    attempted = sum(s.attempted for it in iters for s in it.steps)
    failed = sum(s.failed for it in iters for s in it.steps)
    metrics = {k: statistics.median(v) for k, v in series.items() if k != "wall_s"}
    metrics["passed_frac"] = (attempted - failed) / attempted
    return metrics, {k: _quartiles(v) for k, v in series.items()}


def per_layer(iters) -> dict:
    traced = [it for it in iters if it.traced]
    plain = [it for it in iters if not it.traced]
    rows = []
    for it in traced:
        vals = tracer.layer_values(tracer.merge(s.summary or {} for s in it.steps))
        vals["import.conelab.self_s"] = sum(s.import_s for s in it.steps)
        rows.append(vals)
    out = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    out["trace.wall_s"] = statistics.median(it.wall for it in traced)
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(it.wall for it in plain)
    out["cli.stability_hash.changed"] = max(sum(s.hash_changed for s in it.steps)
                                            for it in iters)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "conelab" / "__init__.py").is_file():
        print(f"error: no conelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    iterations = max(1, round(args.seconds / SECONDS_PER_ITERATION[args.workload]))
    if args.trace:
        iterations = max(iterations, 2)
    steps = WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench_run"
    scratch.mkdir(exist_ok=True)
    workroot = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        # Untimed warm-up: fills the bytecode and file caches once per run,
        # including sympy, which conelab imports only when it builds a field.
        subprocess.run([sys.executable, "-c",
                        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
                        "import conelab.cli; conelab.from_expr('u*v')"],
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                       cwd=ROOT, timeout=60, check=False)
        iters = measure(steps, iterations, args.seed, bool(args.trace), workroot, started)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    attempted = sum(s.attempted for it in iters for s in it.steps)
    failed = sum(s.failed for it in iters for s in it.steps)
    for it in iters:
        for s in it.steps:
            if s.problem:
                print(f"failed: {s.problem}", file=sys.stderr)

    e2e, quartiles = end_to_end(iters)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "iterations": len(iters), "orders": [it.order for it in iters],
        "quartiles": quartiles, "samples": sum(not it.traced for it in iters),
        "walls": [[round(s.wall, 4) for s in it.steps] for it in iters],
        "hash_changed": max(sum(s.hash_changed for s in it.steps) for it in iters),
        "elapsed_s": time.monotonic() - started, "machine": machine_facts(),
    }
    print(json.dumps(detail))
    if args.trace:
        values = per_layer(iters)
        units = {name: unit for name, unit, _ in tracer.per_layer_metrics()}
    else:
        values = e2e
        units = dict(END_TO_END)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
