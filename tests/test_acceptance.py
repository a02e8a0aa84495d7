"""Acceptance battery: ten end-to-end criteria, one PASS/FAIL line each.

Every criterion pins its tolerance in the assertion; run with `-s` to see
the summary lines:

    pytest tests/test_acceptance.py -v -s

The battery fields are zero, the constant, the unit conjugate e^{+F} of the
weight under test, a Gaussian bump, and the closed-form d'Alembert wave;
criteria 4 and 10 additionally exercise genuinely evolved solver output.
"""

import math

import numpy as np
import pytest

from conelab.currents import PowerU, ZeroU
from conelab.fields import (
    AnalyticField,
    GridSpec,
    ScalarField,
    exact_spherical_wave,
    from_expr,
    static_multipole,
    wave_op,
)
from conelab.geometry import AdmissibleRegion
from conelab.quadrature import (
    bulk_integral,
    cone_integral,
    hyperboloid_integral,
    inverted_hyperboloid_integral,
)
from conelab.solver import (
    counterexample_build,
    solve,
    spherical_wave_data,
)
from conelab.verifier import (
    E2_OVER_4,
    boundary_limit_experiment,
    carleman_nl_check,
    carleman_split_check,
    identity_convergence,
    identity_residual,
    pointwise_inequality,
    split_cancellation,
    uniqueness_pipeline,
)
from conelab.weights import Potential, PowerLog, SplitWeight, SplitWeightParams

from _oracles import (
    PRETENDER_EXPRS,
    bulk_simpson,
    conjugate_analytic,
    fixed_f_surface_integral,
    fixed_h_surface_integral,
    pointwise_potential_bound,
    pretender_joint,
)

PARAMS = SplitWeightParams(a=1.0, b=0.1, p=0.5)
REGION = AdmissibleRegion(0.1, 10.0, 0.1, 10.0)
REG_LO = AdmissibleRegion(0.1, 1.0, 0.1, 10.0)
REG_HI = AdmissibleRegion(1.0, 10.0, 0.1, 10.0)
LEVELS = (128, 256, 512)
U_POWER = PowerU(sign=1, p=1.0, V=Potential.constant(1.0))


def _line(idx, label, ok, detail):
    print(f"criterion {idx:02d} [{label}]: {'PASS' if ok else 'FAIL'} — {detail}")


def acceptance_weights():
    return [("power-log", PowerLog(1.0)),
            ("split-low", SplitWeight(PARAMS, "low")),
            ("split-high", SplitWeight(PARAMS, "high"))]


def acceptance_fields(rep):
    """The five battery fields; the conjugate one depends on the weight."""
    return [
        ("zero", from_expr("0*u", label="zero")),
        ("constant", from_expr("1 + 0*u", label="constant")),
        ("unit-conjugate", conjugate_analytic(from_expr("1 + 0*u"), rep, sign=1)),
        ("gaussian-bump",
         from_expr("exp(-((u+2)**2 + (v-2)**2)/2)", label="gaussian-bump")),
        ("dalembert-wave", exact_spherical_wave(width=1.0, power=8)),
    ]


@pytest.fixture(scope="module")
def evolved_wave():
    return solve(spherical_wave_data(width=1.0, power=6),
                 T=1.0, R=6.0, dr=0.005, n=3)


# ---------------------------------------------------------------------------
# 1. divergence identity: FD residual order and finest-grid size
# ---------------------------------------------------------------------------

def test_criterion_01_identity_battery():
    failures = []
    worst_res = 0.0
    orders = []
    for wname, rep in acceptance_weights():
        for fname, src in acceptance_fields(rep):
            levels = [ScalarField.from_analytic(GridSpec.from_region(REGION, m, m, 3), src)
                      for m in LEVELS]
            for uname, U in (("linear", ZeroU()), ("power", U_POWER)):
                rec = identity_convergence(levels, [
                    identity_residual(fld, rep, U, derivative_mode="fd").rel_residual
                    for fld in levels])
                finest = rec.details["residuals"][-1]
                worst_res = max(worst_res, finest)
                if not rec.details["at_floor"]:
                    orders.append(rec.value)
                if not (rec.passed and finest < 1e-6):
                    failures.append((wname, fname, uname, rec.value, finest))
    ok = not failures
    _line(1, "identity-battery", ok,
          f"30 combos at {LEVELS}: orders in "
          f"[{min(orders):.2f}, {max(orders):.2f}], "
          f"worst finest residual {worst_res:.2e} (< 1e-6)")
    assert ok, failures


# ---------------------------------------------------------------------------
# 2. pointwise inequality margin dominated by identity residual
# ---------------------------------------------------------------------------

def test_criterion_02_pointwise_margins():
    failures = []
    worst = math.inf
    for wname, rep in acceptance_weights():
        grid = GridSpec.from_region(REGION, 128, 128, 3)
        for fname, src in acceptance_fields(rep):
            fld = ScalarField.from_analytic(grid, src)
            for uname, U in (("linear", ZeroU()), ("power", U_POWER)):
                out = pointwise_inequality(fld, rep, U)
                worst = min(worst, out.margin_min)
                if not out.passed:
                    failures.append((wname, fname, uname, out.margin_min,
                                     out.identity.residual))
    ok = not failures
    _line(2, "pointwise-margin", ok,
          f"30 combos: min margin {worst:.2e} >= -2x identity residual")
    assert ok, failures


# ---------------------------------------------------------------------------
# 3. split estimate chain: margins, calibrated constants, seam cancellation
# ---------------------------------------------------------------------------

def test_criterion_03_split_chain():
    failures = []
    c_vals, k_vals = [], []
    for branch, region, wrep in (("low", REG_LO, SplitWeight(PARAMS, "low")),
                                 ("high", REG_HI, SplitWeight(PARAMS, "high"))):
        grid = GridSpec.from_region(region, 96, 96, 3)
        for fname, src in acceptance_fields(wrep):
            fld = ScalarField.from_analytic(grid, src)
            out = carleman_split_check(fld, PARAMS, branch, nodes=128)
            if not out.passed:
                failures.append((branch, fname, "margin/constants", out.value))
            refined = carleman_split_check(fld, PARAMS, branch, nodes=256)
            for cname, x, y in (("C", out.details["c_cal"], refined.details["c_cal"]),
                                ("K", out.details["k_cal"], refined.details["k_cal"])):
                if (x is None) != (y is None):
                    failures.append((branch, fname, cname, "degenerate flip"))
                elif x is not None and abs(x - y) > 0.10 * max(abs(x), abs(y)):
                    failures.append((branch, fname, cname, x, y))
            if out.details["c_cal"] is not None:
                c_vals.append(out.details["c_cal"])
            if out.details["k_cal"] is not None:
                k_vals.append(out.details["k_cal"])

    bump = from_expr("exp(-((u+2)**2 + (v-2)**2)/2)")
    lo = ScalarField.from_analytic(GridSpec.from_region(REG_LO, 96, 96, 3), bump)
    hi = ScalarField.from_analytic(GridSpec.from_region(REG_HI, 96, 96, 3), bump)
    seam = split_cancellation(lo, hi, PARAMS, nodes=160)
    if not (seam.passed and seam.value <= 1e-10):
        failures.append(("seam", seam.value))

    ok = not failures
    _line(3, "split-chain", ok,
          f"margins >= -1e-7 rel on both branches; "
          f"C in [{min(c_vals):.2f}, {max(c_vals):.2f}] (>= 1), "
          f"K <= {max(k_vals):.4f} (<= e^2/4 = {E2_OVER_4:.3f}), "
          f"stable to 10%; seam cancellation {seam.value:.1e} <= 1e-10")
    assert ok, failures


# ---------------------------------------------------------------------------
# 4. nonlinear estimate chain on solver-evolved fields
# ---------------------------------------------------------------------------

def test_criterion_04_nonlinear_chain(evolved_wave):
    reg = AdmissibleRegion(0.25, 1.0, 0.6, 5.0 / 3.0)
    fld = evolved_wave.field_on(GridSpec.from_region(reg, 48, 48, 3))
    failures = []
    gammas = {}
    for sgn, p in ((1, 1.0), (1, 2.0), (-1, 3.0)):
        U = PowerU(sign=sgn, p=p, V=Potential.constant(1.0))
        out = carleman_nl_check(fld, 0.1, U, nodes=128, rel_tol=1e-3)
        gammas[(sgn, p)] = (out.gamma_min, out.gamma_max)
        sign_ok = out.gamma_min > 0 if sgn > 0 else out.gamma_max < 0
        if not (out.passed and sign_ok):
            failures.append((sgn, p, out.margin, out.gamma_min, out.gamma_max))
    ok = not failures
    _line(4, "nonlinear-chain", ok,
          "evolved wave, a=0.1: exponent sign positive for (+,1) "
          f"[{gammas[(1, 1.0)][0]:.2f}] and (+,2) [{gammas[(1, 2.0)][0]:.2f}], "
          f"negative for (-,3) [{gammas[(-1, 3.0)][1]:.2f}]; "
          "margins >= -1e-3 rel")
    assert ok, failures


# ---------------------------------------------------------------------------
# 5. level-set quadrature vs independent oracles; inversion duality
# ---------------------------------------------------------------------------

def test_criterion_05_coarea_and_inversion():
    def smooth(u, v):
        f = -u * v
        h = -v / u
        return np.exp(-np.log(h) ** 2 / 2.0) / (1.0 + f * f)

    failures = []
    worst_surface = 0.0
    for omega in (0.3, 1.0, 4.0):
        got = hyperboloid_integral(smooth, omega, (0.2, 5.0), n=3, nodes=160)
        ref = fixed_f_surface_integral(smooth, omega, (0.2, 5.0), n=3)
        rel = abs(got - ref) / max(1.0, abs(ref))
        worst_surface = max(worst_surface, rel)
        if rel >= 1e-8:
            failures.append(("hyperboloid", omega, rel))
    for tau in (0.5, 2.0, 7.0):
        got = cone_integral(smooth, tau, (0.2, 5.0), n=3, nodes=160)
        ref = fixed_h_surface_integral(smooth, tau, (0.2, 5.0), n=3)
        rel = abs(got - ref) / max(1.0, abs(ref))
        worst_surface = max(worst_surface, rel)
        if rel >= 1e-8:
            failures.append(("cone", tau, rel))

    def bump(u, v):
        s = np.log(-u * v)
        y = np.log(-v / u)
        return np.exp(-(s**2 + y**2))

    got = bulk_integral(bump, REGION, n=3, nodes=384)
    ref = bulk_simpson(bump, REGION, n=3)
    bulk_rel = abs(got - ref) / abs(ref)
    if bulk_rel >= 1e-6:
        failures.append(("bulk", bulk_rel))

    worst_inv = 0.0
    for omega in (0.25, 1.0, 9.0):
        direct = hyperboloid_integral(smooth, omega, (0.2, 5.0), n=3, nodes=160)
        inverted = inverted_hyperboloid_integral(smooth, omega, (0.2, 5.0),
                                                 n=3, nodes=160)
        rel = abs(direct - inverted) / max(1.0, abs(direct))
        worst_inv = max(worst_inv, rel)
        if rel >= 1e-6 or abs(direct) <= 1e-6:
            failures.append(("inversion", omega, rel, direct))

    ok = not failures
    _line(5, "coarea-oracles", ok,
          f"surface vs embedding {worst_surface:.1e} (< 1e-8), "
          f"bulk vs Simpson {bulk_rel:.1e} (< 1e-6), "
          f"inverted chart {worst_inv:.1e} (< 1e-6) at omega = 1/4, 1, 9")
    assert ok, failures


# ---------------------------------------------------------------------------
# 6. boundary-limit slopes vs proof rates
# ---------------------------------------------------------------------------

def test_criterion_06_limit_slopes():
    cases = [("cone_tau", -0.5), ("cone_sigma", +0.5),
             ("hyperboloid_rho", +0.25), ("hyperboloid_omega", -0.75)]
    failures = []
    summary = []
    for kind, target in cases:
        rec = boundary_limit_experiment(kind, n=3, delta=1.0, alpha=0.25,
                                        beta=0.25, count=6, nodes=192)
        summary.append(f"{kind}: {rec.value:+.3f} vs {target:+.2f}")
        if not (rec.passed and rec.details["target"] == pytest.approx(target)
                and abs(rec.value - target) <= 0.10 * max(abs(target), 0.05)):
            failures.append((kind, rec.value, target))
    ok = not failures
    _line(6, "limit-slopes", ok, "; ".join(summary) + " (within 10%)")
    assert ok, failures


# ---------------------------------------------------------------------------
# 7. static counterexample bundle
# ---------------------------------------------------------------------------

def test_criterion_07_counterexample():
    bun = counterexample_build(n=3, a=6.0)
    r = np.linspace(0.05, 40.0, 4000)
    res_max = float(np.max(np.abs(bun.residual(r))))
    inside = (r > bun.support[0] + 1e-9) & (r < bun.support[1] - 1e-9)
    outside = ~((r > bun.support[0] - 1e-9) & (r < bun.support[1] + 1e-9))
    u_out = float(np.max(np.abs(bun.potential(r[outside]))))
    u_in = float(np.max(np.abs(bun.potential(r[inside]))))
    tail = np.logspace(1, 3, 31)
    slope = float(np.polyfit(np.log(tail), np.log(bun.beta(tail)), 1)[0])

    checks = {
        "exponents": bun.q_plus == 2.0 and bun.q_minus == -3.0,
        "residual": res_max < 1e-10,
        "support": bun.support == (1.0, 2.0) and u_out == 0.0
                   and np.isfinite(u_in) and u_in > 1.0,
        "tail": abs(slope - bun.q_minus) <= 0.01 * abs(bun.q_minus),
    }
    ok = all(checks.values())
    _line(7, "counterexample", ok,
          f"q+ = {bun.q_plus:g}, q- = {bun.q_minus:g} exact; "
          f"residual {res_max:.1e} < 1e-10; potential support exactly "
          f"{list(bun.support)} (max {u_in:.1f}); tail slope {slope:.4f} "
          "within 1%")
    assert ok, checks


# ---------------------------------------------------------------------------
# 8. verdict pipeline discrimination, stable under refinement
# ---------------------------------------------------------------------------

def test_criterion_08_pipeline_discrimination():
    bun = counterexample_build(n=3, a=6.0)
    zero = ScalarField.zeros(GridSpec.from_region(REGION, 64, 64, 3))
    multi = ScalarField.from_analytic(GridSpec.from_region(REGION, 96, 96, 3),
                                      static_multipole(1, 3), 1)
    cg = GridSpec.from_region(REGION, 96, 96, 3)
    static = ScalarField.from_function(cg, lambda u, v: bun.beta(v - u),
                                       name="glued-static", ell=bun.ell)

    cases = [
        ("zero", zero, None, "zero bulk"),
        ("multipole", multi, None, "obstructed by I1"),
        ("counterexample", static, lambda u, v: bun.potential(v - u),
         "potential-bound violation"),
    ]
    failures = []
    verdicts = []
    for name, fld, pot, prefix in cases:
        verdict, refined = (
            uniqueness_pipeline(fld, beta=2.0, p=1.0, potential=pot, nodes=nodes)[0]
            .details["verdict"] for nodes in (96, 192))
        stable = verdict.split(":")[0] == refined.split(":")[0]
        verdicts.append(f"{name} -> {verdict.split(':')[0]}")
        if not (verdict.startswith(prefix) and stable):
            failures.append((name, verdict, refined))
    ok = not failures
    _line(8, "pipeline-discrimination", ok,
          "; ".join(verdicts) + " (verdicts stable at doubled quadrature)")
    assert ok, failures


# ---------------------------------------------------------------------------
# 9. falsifiability: decay pretenders violate the potential envelope
# ---------------------------------------------------------------------------

# The B each pretender's induced potential needs, as the pipeline measures it
PRETENDER_B = (1.085708738243325, 1.5785724857606724, 1.0843778582984616)


def test_criterion_09_falsifiability():
    # a pretender solves box phi + V |phi|^{p-1} phi = 0 only with the V it
    # induces; the pipeline's potential step must find that V inadmissible,
    # under its own bound and under the split estimate's pointwise one
    reg = AdmissibleRegion(0.1, 10.0, 0.1, 1000.0)
    grid = GridSpec.from_region(reg, 128, 128, 3)
    p = 0.5
    pointwise = pointwise_potential_bound(1.0, p)
    failures = []
    required = []
    for expr, pinned in zip(PRETENDER_EXPRS, PRETENDER_B):
        af = AnalyticField(pretender_joint(expr), expr)  # from_expr(expr), built once

        def induced(u, v, af=af):
            slots = af.derivs_wave(u, v)
            return -wave_op(3, 0.0, v - u, *slots) / (np.abs(slots[0]) ** (p - 1.0) * slots[0])

        rec, _ = uniqueness_pipeline(ScalarField.from_analytic(grid, af), beta=1.0, p=p,
                                     potential=induced)
        required.append(rec.value)
        if not (rec.details["verdict"].startswith("potential-bound violation")
                and rec.value > max(rec.tolerance, pointwise)
                and rec.value == pytest.approx(pinned, rel=1e-14)):
            failures.append((expr, rec.details["verdict"], rec.value))
    ok = not failures
    _line(9, "falsifiability", ok,
          f"3 rate-1 pretenders need B = {required[0]:.3f}, {required[1]:.3f}, "
          f"{required[2]:.3f} against admissible {rec.tolerance:.3f} "
          f"(pointwise {pointwise:.3f})")
    assert ok, failures


# ---------------------------------------------------------------------------
# 10. solver order and finite-speed support exactness
# ---------------------------------------------------------------------------

def test_criterion_10_solver():
    def wave_error(dr):
        data = spherical_wave_data(width=1.0, power=6)
        res = solve(data, T=0.8, R=6.0, dr=dr, n=3)
        exact = exact_spherical_wave(width=1.0, power=6)
        t = res.times[-1]
        u = 0.5 * (t - res.r)
        v = 0.5 * (t + res.r)
        return float(np.max(np.abs(res.slices[-1] - exact.value(u, v))))

    errs = [wave_error(dr) for dr in (0.02, 0.01, 0.005)]
    rates = [math.log2(errs[k] / errs[k + 1]) for k in range(2)]
    order_ok = all(abs(rate - 2.0) <= 0.3 for rate in rates)

    width, T, cfl = 1.0, 1.0, 0.9
    res = solve(spherical_wave_data(width=width, power=6),
                T=T, R=8.0, dr=0.01, n=3)
    scale = float(np.max(np.abs(res.slices)))
    untouched = res.r > width + T / cfl + 5 * res.dr
    exact_zero = float(np.max(np.abs(np.asarray(res.slices)[:, untouched])))
    leak = 0.0
    for k, t in enumerate(res.times):
        outside = res.r > width + abs(t) + 2 * res.dr
        if np.any(outside):
            leak = max(leak, float(np.max(np.abs(res.slices[k][outside]))))
    support_ok = exact_zero == 0.0 and leak < 1e-10 * scale

    ok = order_ok and support_ok
    _line(10, "solver", ok,
          f"convergence rates {rates[0]:.2f}, {rates[1]:.2f} (2.0 +- 0.3); "
          f"untouched nodes exactly 0.0 "
          f"({int(np.sum(untouched))} radii x all times); light-cone leak "
          f"{leak / scale:.1e} of amplitude")
    assert ok, (rates, exact_zero, leak / scale)
