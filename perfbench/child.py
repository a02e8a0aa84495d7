"""One workload step, run in a fresh interpreter by run.py.

    python3 perfbench/child.py OUTDIR TRACE cli ARG...      conelab CLI run
    python3 perfbench/child.py OUTDIR TRACE evolve SEED     library run

The step imports conelab from the checkout's `src/`, notes the CPU time the
process has used up to then (its set-up cost), optionally installs the span
recorder (TRACE = 1), does its work and writes OUTDIR/meta.json (and
OUTDIR/spans.json when traced).  The exit status is the CLI's, or for the
library run 0 when every check passed.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# The library run repeats what acceptance criteria 04 and 10 do, on a finer
# time step: evolve the spherical wave at two resolutions, resample the finest
# evolution onto three grid levels, and run the estimate checks on the result.
EVOLVE_DRS = (0.002, 0.001)
EVOLVE_LEVELS = (48, 96, 192)
EVOLVE_REGION = (0.25, 1.0, 0.6, 5.0 / 3.0)
NL_COMBOS = ((1, 1, "constant"), (1, 2, "power"), (-1, 3, "constant"))
ENERGY_DRIFT_MAX = 0.01
FD_SHRINK_MIN = 4.0  # order >= 2 under grid doubling


def evolve_ops() -> list:
    """Names of the checks the library run reports, in no particular order."""
    return ([f"solve[dr={dr}]" for dr in EVOLVE_DRS]
            + [f"identity-fd[{m}]" for m in EVOLVE_LEVELS]
            + [f"pointwise-fd[{EVOLVE_LEVELS[1]}]"]
            + [f"nl-chain[{s}/p={p}/{k}]" for s, p, k in NL_COMBOS])


def evolve(seed: int) -> list:
    """Run the library checks; the seed only orders them."""
    from conelab import currents, fields, geometry, solver, verifier, weights

    rng = random.Random(seed)
    ops = []
    drs = list(EVOLVE_DRS)
    rng.shuffle(drs)
    results = {}
    for dr in drs:
        res = solver.solve(solver.spherical_wave_data(width=1.0, power=6),
                           T=1.0, R=6.0, dr=dr, n=3)
        drift = res.energy_drift
        ops.append((f"solve[dr={dr}]", math.isfinite(drift) and drift < ENERGY_DRIFT_MAX, drift))
        results[dr] = res

    finest = results[min(EVOLVE_DRS)]
    region = geometry.AdmissibleRegion(*EVOLVE_REGION)
    levels = list(EVOLVE_LEVELS)
    rng.shuffle(levels)
    sampled = {m: finest.field_on(fields.GridSpec.from_region(region, m, m, 3)) for m in levels}

    rep = weights.PowerLog(0.1)
    rel = {m: verifier.identity_residual(sampled[m], rep, derivative_mode="fd").rel_residual
           for m in levels}
    prev = None
    for m in EVOLVE_LEVELS:
        ok = math.isfinite(rel[m]) and (prev is None or rel[m] * FD_SHRINK_MIN <= prev)
        ops.append((f"identity-fd[{m}]", ok, rel[m]))
        prev = rel[m]

    mid = EVOLVE_LEVELS[1]
    pw = verifier.pointwise_inequality(sampled[mid], rep, derivative_mode="fd")
    ops.append((f"pointwise-fd[{mid}]", pw.passed and pw.mode == "fd", pw.margin_min))

    combos = list(NL_COMBOS)
    rng.shuffle(combos)
    for sgn, p, kind in combos:
        pot = (weights.Potential.constant(1.0) if kind == "constant"
               else weights.Potential.power_of_f(0.25, amplitude=1.0))
        out = verifier.carleman_nl_check(sampled[EVOLVE_LEVELS[0]], 0.1,
                                         currents.PowerU(sign=sgn, p=p, V=pot),
                                         nodes=128, rel_tol=1e-3)
        sign_ok = out.gamma_min > 0 if sgn > 0 else out.gamma_max < 0
        ops.append((f"nl-chain[{sgn}/p={p}/{kind}]", out.passed and sign_ok, out.margin))
    return [{"name": n, "passed": bool(ok), "value": float(v)} for n, ok, v in ops]


def main(argv) -> int:
    outdir, trace, kind, *rest = argv
    outdir = Path(outdir)
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import conelab  # noqa: F401
    if kind == "cli":
        import conelab.cli
    setup_cpu = time.process_time()
    import_s = time.perf_counter() - t0

    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    meta = {"setup_cpu": setup_cpu, "import_s": import_s, "rc": None}
    start = time.perf_counter()
    try:
        if kind == "cli":
            meta["rc"] = conelab.cli.main(rest)
        elif kind == "evolve":
            ops = evolve(int(rest[0]))
            (outdir / "ops.json").write_text(json.dumps(ops))
            meta["rc"] = 0 if all(op["passed"] for op in ops) else 1
        else:
            raise SystemExit(f"unknown step kind {kind!r}")
    finally:
        if tracer is not None:
            tracer.dump(outdir / "spans.json", start)
        (outdir / "meta.json").write_text(json.dumps(meta))
    return meta["rc"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
