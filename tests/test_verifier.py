"""Verification engines: the multiplier identity, pointwise and integral
chains, boundary-limit experiments, the potential envelope, and the verdict
pipeline."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conelab.currents import PowerU, ZeroU
from conelab.errors import (
    InsufficientSequence,
    InvalidInput,
    InvalidPotential,
    MissingDerivative,
)
from conelab.fields import (
    GridSpec,
    ScalarField,
    exact_spherical_wave,
    from_expr,
    static_multipole,
)
from conelab.geometry import AdmissibleRegion
from conelab.verifier import (
    E2_OVER_4,
    CheckRecord,
    battery_fields,
    battery_weights,
    boundary_limit_experiment,
    carleman_nl_check,
    carleman_split_check,
    identity_convergence,
    identity_residual,
    log_slope,
    pointwise_inequality,
    split_cancellation,
    uniqueness_pipeline,
)
from conelab.weights import Potential, PowerLog, SplitWeightParams, decay_envelope

from _oracles import pointwise_potential_bound

PARAMS = SplitWeightParams(1.0, 0.1, 0.5)
REGION = AdmissibleRegion(0.1, 10.0, 0.1, 10.0)
REG_LO = AdmissibleRegion(0.1, 1.0, 0.1, 10.0)
REG_HI = AdmissibleRegion(1.0, 10.0, 0.1, 10.0)


def mkfield(expr="sin(u)*cos(v/3)", region=REGION, m=96, n=3, ell=0):
    g = GridSpec.from_region(region, m, m, n)
    src = from_expr(expr) if isinstance(expr, str) else expr
    return ScalarField.from_analytic(g, src, ell)


def fd_order(fields, rep=PowerLog(1.0), U=ZeroU()):
    """The identity-order record of the FD residuals on `fields`."""
    return identity_convergence(
        fields, [identity_residual(fld, rep, U, derivative_mode="fd").rel_residual
                 for fld in fields])


# ---------------------------------------------------------------------------
# multiplier identity
# ---------------------------------------------------------------------------

def test_identity_closes_analytically():
    rep = identity_residual(mkfield(), PowerLog(1.0))
    assert rep.mode == "analytic"
    assert rep.rel_residual < 1e-13


def test_identity_closes_with_nonlinearity():
    U = PowerU(1, 2.0, Potential.constant(1.0))
    rep = identity_residual(mkfield("(-u*v)**(4/5)"), PowerLog(0.5), U)
    assert rep.rel_residual < 1e-13


def test_identity_fd_route_converges():
    rec = fd_order([mkfield(m=m) for m in (64, 128, 256)])
    assert rec.passed
    assert rec.details["at_floor"] or 1.5 <= rec.value <= 4.5


def test_identity_order_needs_distinct_levels():
    with pytest.raises(InsufficientSequence, match="distinct"):
        fd_order([mkfield(m=64), mkfield(m=64)])
    rec = fd_order([mkfield(m=128), mkfield(m=64)])
    assert rec.passed and 1.5 <= rec.value <= 4.5
    assert rec.details["levels"] == [128, 64]
    with pytest.raises(InsufficientSequence, match="two"):
        fd_order([mkfield(m=64)])


@pytest.mark.parametrize("other", [
    dict(region=REG_LO), dict(n=4), dict(ell=1), dict(order=2),
], ids=["region", "n", "ell", "order"])
def test_identity_order_levels_must_share_all_but_their_size(other):
    grid_keys = {k: v for k, v in other.items() if k != "ell"}
    g = GridSpec(**{"region": REGION, "n_s": 64, "n_y": 64, "n": 3, **grid_keys})
    odd = ScalarField.from_analytic(g, from_expr("sin(u)*cos(v/3)"), other.get("ell", 0))
    with pytest.raises(InvalidInput, match="share"):
        fd_order([mkfield(m=32), odd])


@pytest.mark.parametrize("count", [1, 3])
def test_identity_order_needs_one_residual_per_level(count):
    fields = [mkfield(m=32), mkfield(m=64)]
    with pytest.raises(InvalidInput, match="one residual per level"):
        identity_convergence(fields, [1e-3, 2.5e-4, 6e-5][:count])


def test_nan_value_or_tolerance_fails_its_record():
    for value, tol in ((math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan)):
        assert not CheckRecord(name="x", passed=True, value=value, tolerance=tol).passed
    ok = CheckRecord(name="x", passed=True, value=0.5, tolerance=1.0)
    assert ok.passed
    assert not replace(ok, value=math.nan).passed
    # a field the identity annihilates exactly has no order to fit; its
    # record reports the largest residual, so the guard leaves it passing
    zeros = [ScalarField.zeros(GridSpec.from_region(REGION, m, m, 3)) for m in (16, 32)]
    rec = fd_order(zeros)
    assert rec.details["at_floor"] and rec.passed and rec.value == 0.0


def test_analytic_mode_demands_a_closed_form():
    # the identity holds algebraically for any derivative arrays, so FD
    # arrays under an "analytic" label would pass at rounding level
    g = GridSpec.from_region(REGION, 64, 64, 3)
    fld = ScalarField.from_function(g, lambda u, v: np.sin(u) * np.cos(v / 3))
    for check in (identity_residual, pointwise_inequality):
        with pytest.raises(MissingDerivative):
            check(fld, PowerLog(1.0), derivative_mode="analytic")
        out = check(fld, PowerLog(1.0), derivative_mode="auto")
        assert out.mode == "fd"


def test_identity_battery_all_combinations():
    U = PowerU(1, 1.0, Potential.constant(1.0))
    for name, expr, ell in battery_fields():
        for wname, rep in battery_weights():
            for nl in (ZeroU(), U):
                if ell != 0 and not nl.is_zero and nl.p != 1.0:
                    continue
                fld = mkfield(expr, m=96, ell=ell)
                out = identity_residual(fld, rep, nl)
                assert out.rel_residual < 1e-12, (name, wname)


# ---------------------------------------------------------------------------
# pointwise inequality
# ---------------------------------------------------------------------------

def test_pointwise_margin_dominated_by_residual():
    for expr in ("sin(u)*cos(v/3)", "(-u*v)**(4/5)"):
        rep = pointwise_inequality(mkfield(expr), PowerLog(1.0))
        assert rep.passed
        assert rep.margin_min >= -2.0 * max(rep.identity.residual, 1e-300)


def test_pointwise_rejects_outward_weight():
    # the high-branch weight turns outward below f = 1
    from conelab.errors import NotInwardDirected
    from conelab.weights import SplitWeight
    fld = mkfield(region=AdmissibleRegion(1e-4, 0.5, 0.1, 10.0), m=48)
    with pytest.raises(NotInwardDirected):
        pointwise_inequality(fld, SplitWeight(PARAMS, "high"))


# Bit patterns (float.hex) of margin_min, the pointwise identity_residual and
# identity_residual(...).rel_residual on 48x48 grids of REGION, recorded from
# the implementation in which pointwise_inequality rebuilt the identity's
# arrays itself, and recorded again when the current's weight half began to
# read the grid's f column F_col, as the identity's other terms do, instead
# of -u v at every node.  Reusing the arrays must not move a bit.
POINTWISE_PINS = [
    ("analytic", "oscillatory", "power-log", "free", "0x1.12afdf4958c00p-16", "0x1.a000000000000p-44", "0x1.e0e57b41e46f4p-53"),
    ("analytic", "oscillatory", "power-log", "power-u", "0x1.fae1d61fa6000p-13", "0x1.2000000000000p-43", "0x1.adadb0435d404p-53"),
    ("analytic", "oscillatory", "split-low", "free", "0x1.03013364a1000p-16", "0x1.4600000000000p-41", "0x1.08964a2498438p-51"),
    ("analytic", "oscillatory", "split-low", "power-u", "0x1.821b1c1647400p-13", "0x1.5000000000000p-41", "0x1.7a50950ef52c5p-52"),
    ("analytic", "spherical-wave", "power-log", "free", "0x0.0p+0", "0x1.6800000000000p-54", "0x1.2645ef4f7ca1dp-49"),
    ("analytic", "spherical-wave", "power-log", "power-u", "0x0.0p+0", "0x1.8600000000000p-54", "0x1.19cefea1ecbeep-49"),
    ("analytic", "spherical-wave", "split-low", "free", "0x0.0p+0", "0x1.01ff3c3344f86p-53", "0x1.33934413c32fdp-49"),
    ("analytic", "spherical-wave", "split-low", "power-u", "0x0.0p+0", "0x1.fc00000000000p-54", "0x1.0494e4f16c229p-49"),
    ("analytic", "multipole", "power-log", "free", "0x1.661883a0cf95ap-12", "0x1.3c328f70daa3bp-50", "0x1.fa860018d2d6ep-49"),
    ("analytic", "multipole", "power-log", "power-u", "0x1.bfd0838ad0daep-8", "0x1.0500000000000p-50", "0x1.5c6af70fca43fp-49"),
    ("analytic", "multipole", "split-low", "free", "0x1.f369dc420e48fp-10", "0x1.b000000000000p-50", "0x1.0cc3d84cf4a39p-48"),
    ("analytic", "multipole", "split-low", "power-u", "0x1.6b1038f57db54p-7", "0x1.1100000000000p-49", "0x1.0d87814d6c618p-48"),
    ("fd", "oscillatory", "power-log", "free", "-0x1.5f206eca57520p-10", "0x1.1e3a8ad6bb663p+1", "0x1.68638d027bbbdp-9"),
    ("fd", "oscillatory", "power-log", "power-u", "-0x1.9aee6261d2b00p-9", "0x1.4ee4911c2ecc0p+0", "0x1.a82bc91a930c2p-10"),
    ("fd", "oscillatory", "split-low", "free", "-0x1.8491a90fc1ba0p-8", "0x1.1fddac4ec52c6p+2", "0x1.25dbfd9fe3d6ap-9"),
    ("fd", "oscillatory", "split-low", "power-u", "-0x1.f6172c5449e28p-7", "0x1.8cd8143faee30p+1", "0x1.87b1984c05a23p-10"),
    ("fd", "spherical-wave", "power-log", "free", "-0x1.85b30acf61422p-20", "0x1.ae74af438f699p-17", "0x1.54955fdc0d887p-12"),
    ("fd", "spherical-wave", "power-log", "power-u", "-0x1.86f101eeaf950p-20", "0x1.a8b7e2977f374p-17", "0x1.2a005a1698432p-12"),
    ("fd", "spherical-wave", "split-low", "free", "-0x1.00abcae0f1d82p-19", "0x1.465c1d414b80bp-16", "0x1.76a15e4da0992p-12"),
    ("fd", "spherical-wave", "split-low", "power-u", "-0x1.01aefb374ac8ep-19", "0x1.41a730cb9fe96p-16", "0x1.3f2e5dafdb8d0p-12"),
    ("fd", "multipole", "power-log", "free", "0x1.e9276809cbbf4p-11", "0x1.78016a129a703p-19", "0x1.299cec470264ap-17"),
    ("fd", "multipole", "power-log", "power-u", "0x1.9d5c040299bc2p-7", "0x1.9ccb12acb6000p-19", "0x1.24614a882c279p-17"),
    ("fd", "multipole", "split-low", "free", "0x1.dd0397a8b1333p-9", "0x1.5b22f43f69efap-18", "0x1.b74506032dd79p-17"),
    ("fd", "multipole", "split-low", "power-u", "0x1.4f2114297c196p-6", "0x1.57b9f26e48000p-18", "0x1.6b1c4f74fd015p-17"),
]
U_CHOICES = {"free": ZeroU(), "power-u": PowerU(sign=1, p=1, V=Potential.constant(1.0))}


@pytest.mark.parametrize("mode, fname, wname, uname, margin, residual, rel", POINTWISE_PINS,
                         ids=["/".join(row[:4]) for row in POINTWISE_PINS])
def test_pointwise_and_identity_are_bitwise_pinned(mode, fname, wname, uname,
                                                   margin, residual, rel):
    src, ell = {name: (s, e) for name, s, e in battery_fields()}[fname]
    fld = ScalarField.from_analytic(GridSpec(region=REGION, n_s=48, n_y=48, n=3), src, ell)
    rep, U = dict(battery_weights())[wname], U_CHOICES[uname]
    pw = pointwise_inequality(fld, rep, U, derivative_mode=mode)
    idr = identity_residual(fld, rep, U, derivative_mode=mode)
    assert (pw.margin_min.hex(), pw.identity.residual.hex()) == (margin, residual)
    assert idr.rel_residual.hex() == rel
    assert pw.passed and pw.mode == mode
    # the report carries the identity evaluation it used, without its arrays
    assert pw.identity == idr and pw.identity.terms is None
    assert idr.terms is not None and "terms" not in repr(idr)


def test_pointwise_evaluates_the_identity_once(monkeypatch):
    import conelab.verifier as verifier
    from conelab.currents import CurrentAssembler

    calls = {"divergence": 0, "identity_residual": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(CurrentAssembler, "divergence",
                        counted("divergence", CurrentAssembler.divergence))
    monkeypatch.setattr(verifier, "identity_residual",
                        counted("identity_residual", verifier.identity_residual))
    out = pointwise_inequality(mkfield(m=32), PowerLog(1.0), derivative_mode="analytic")
    assert out.mode == "analytic" and out.passed
    assert calls == {"divergence": 1, "identity_residual": 1}


def test_pointwise_never_passes_on_a_non_finite_residual(monkeypatch):
    import conelab.verifier as verifier

    real = verifier.identity_residual
    for bad in (math.inf, math.nan):
        monkeypatch.setattr(verifier, "identity_residual",
                            lambda *a, _bad=bad, **k: replace(real(*a, **k), residual=_bad))
        out = pointwise_inequality(mkfield(m=32), PowerLog(1.0))
        assert math.isfinite(out.margin_min)
        assert out.passed is False


def test_pointwise_never_passes_on_a_non_finite_margin(monkeypatch):
    import conelab.verifier as verifier

    real = verifier.identity_residual

    def with_bulk(bad):
        def patched(*args, **kwargs):
            rep = real(*args, **kwargs)
            return replace(rep, terms={**rep.terms, "B": np.full_like(rep.terms["B"], bad)})
        return patched

    for bad in (math.inf, -math.inf, math.nan):
        monkeypatch.setattr(verifier, "identity_residual", with_bulk(bad))
        out = pointwise_inequality(mkfield(m=32), PowerLog(1.0))
        assert not math.isfinite(out.margin_min)
        assert out.passed is False


def test_identity_margin_and_split_chain_read_the_weights_bulk_coefficient(monkeypatch):
    # f|F'|G - H has one implementation, on the weight: raising it there
    # must open the identity, lower the pointwise margin and grow the split
    # chain's left side
    from conelab.weights import Reparametrization

    fld = mkfield("sin(u) * exp(-(v-1)**2 / 8)", REG_LO, m=32)
    rep = dict(battery_weights())["split-low"]
    before = pointwise_inequality(fld, rep), carleman_split_check(fld, PARAMS, "low", nodes=40)
    real = Reparametrization.bulk_coefficient
    monkeypatch.setattr(Reparametrization, "bulk_coefficient",
                        lambda self, f: real(self, f) + 1.0)
    after = pointwise_inequality(fld, rep), carleman_split_check(fld, PARAMS, "low", nodes=40)
    assert before[0].identity.rel_residual < 1e-12 < 1e-3 < after[0].identity.rel_residual
    assert after[0].margin_min < before[0].margin_min
    assert after[1].details["lhs_bulk"] > before[1].details["lhs_bulk"]


# ---------------------------------------------------------------------------
# split integral chain
# ---------------------------------------------------------------------------

def test_split_chain_constants_on_both_branches():
    for region, branch in ((REG_LO, "low"), (REG_HI, "high")):
        fld = mkfield("sin(u) * exp(-(v-1)**2 / 8)", region)
        rep = carleman_split_check(fld, PARAMS, branch, nodes=160)
        assert rep.passed
        assert rep.value >= 0.0
        if rep.details["c_cal"] is not None:
            assert rep.details["c_cal"] >= 1.0 - 1e-9
        if rep.details["k_cal"] is not None:
            assert rep.details["k_cal"] <= E2_OVER_4 + 1e-9


def test_split_chain_static_solution_skips_calibration():
    # box phi = 0 makes the reference integral vanish: K must be None
    fld = mkfield(static_multipole(1, 3), REG_HI, ell=1)
    rep = carleman_split_check(fld, PARAMS, "high", nodes=160)
    assert rep.details["k_cal"] is None
    assert rep.passed


def test_split_seam_cancellation_exact():
    lo = mkfield("sin(u) * exp(-(v-1)**2 / 8)", REG_LO)
    hi = mkfield("sin(u) * exp(-(v-1)**2 / 8)", REG_HI)
    rec = split_cancellation(lo, hi, PARAMS)
    assert rec.passed
    assert rec.value <= 1e-10


def test_split_cancellation_region_guard():
    from conelab.errors import RangeMismatch
    lo = mkfield("u + v", AdmissibleRegion(0.1, 0.5, 0.1, 10.0))
    hi = mkfield("u + v", REG_HI)
    with pytest.raises(RangeMismatch):
        split_cancellation(lo, hi, PARAMS)


@pytest.mark.parametrize("field", ["value", "tolerance"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf])
def test_infinite_value_or_tolerance_fails_its_record(field, bad):
    # an infinite tolerance admits every value, and an infinite value is
    # written to the report as the string "inf"; neither may pass
    ok = CheckRecord(name="x", passed=True, value=0.5, tolerance=1.0)
    assert not replace(ok, **{field: bad}).passed


def _count_derivs_wave(monkeypatch):
    # the bulk integrands read the four slots of the wave operator
    from conelab.fields import AnalyticField

    shapes = []
    real = AnalyticField.derivs_wave

    def spy(self, u, v):
        shapes.append(np.shape(u))
        return real(self, u, v)

    monkeypatch.setattr(AnalyticField, "derivs_wave", spy)
    return shapes


def test_chains_evaluate_the_field_once_per_bulk_mesh(monkeypatch):
    shapes = _count_derivs_wave(monkeypatch)
    fld = mkfield("sin(u) * exp(-(v-1)**2 / 8)", REG_LO, m=32)
    assert carleman_split_check(fld, PARAMS, "low", nodes=40).passed
    assert shapes == [(40, 40)]
    shapes.clear()
    fld = mkfield("(-u*v)**(4/5) * exp(-(v-1)**2 / 8)", m=32)
    U = PowerU(1, 2.0, Potential.power_of_f(0.25))
    assert carleman_nl_check(fld, 0.1, U, nodes=40).passed
    assert shapes == [(40, 40)]


def test_split_chain_evaluates_its_current_only_at_the_nodes(monkeypatch):
    # the chain reads the current through its point evaluator; nothing
    # samples the components on the field's grid
    from conelab.currents import CurrentAssembler

    shapes = []
    real = CurrentAssembler.components

    def spy(self, u, v, *rest):
        shapes.append(np.shape(u))
        return real(self, u, v, *rest)

    monkeypatch.setattr(CurrentAssembler, "components", spy)
    fld = mkfield("sin(u) * exp(-(v-1)**2 / 8)", REG_LO, m=32)
    assert carleman_split_check(fld, PARAMS, "low", nodes=40).passed
    assert shapes and fld.grid.U.shape not in shapes


# ---------------------------------------------------------------------------
# nonlinear integral chain
# ---------------------------------------------------------------------------

def test_nl_chain_gamma_branch_values():
    # closed forms: V constant, p = 1 gives 1 for any a; n = 3, p = 2 gives
    # 1/2 - a; n = 3, p = 3 gives -2a
    a = 0.1
    fld = mkfield("(-u*v)**(4/5) * exp(-(v-1)**2 / 8)")
    for sign, p, expect in ((1, 1.0, 1.0), (1, 2.0, 0.5 - a), (-1, 3.0, -2 * a)):
        U = PowerU(sign, p, Potential.constant(1.0))
        rep = carleman_nl_check(fld, a, U, nodes=160)
        assert rep.passed
        assert rep.margin >= 0.0
        assert rep.gamma_min == pytest.approx(expect, abs=1e-12)
        assert rep.gamma_max == pytest.approx(expect, abs=1e-12)


def test_nl_chain_indefinite_gamma_flagged():
    # a saturating scaling derivative crosses the Gamma sign threshold; the
    # reported range shows it, which fails verify-nl's record on either sign
    sat = Potential.saturating(1.0, 3.0, 1.5)
    U = PowerU(1, 1.5, sat)
    fld = mkfield("(-u*v)**(4/5) * exp(-(v-1)**2 / 8)")
    rep = carleman_nl_check(fld, 0.1, U, nodes=96)
    assert rep.gamma_min < 0.0 < rep.gamma_max
    assert not rep.passed


# ---------------------------------------------------------------------------
# boundary-limit experiments
# ---------------------------------------------------------------------------

def test_limit_experiment_slopes():
    cases = [
        ("cone_tau", dict(delta=1.0), -0.5),
        ("cone_sigma", dict(delta=1.0), +0.5),
        ("hyperboloid_rho", dict(delta=1.0, alpha=0.25), +0.25),
        ("hyperboloid_omega", dict(delta=1.0, beta=0.25), -0.75),
    ]
    for kind, kw, target in cases:
        rec = boundary_limit_experiment(kind, n=3, **kw)
        assert rec.name == f"limit-slope[{kind}]"
        assert rec.details["target"] == pytest.approx(target)
        assert rec.passed, (kind, rec.value, target)
        assert abs(rec.value - target) <= 0.10 * max(abs(target), 0.05)


# (levels, values, slope, passed) of every kind at count=5, delta=0.5,
# alpha=0.3, beta=0.1, nodes=64 as float.hex; the `limits` hash covers the
# defaults only
LIMIT_PINS = {
    "cone_tau": (
        ("0x1.0000000000000p+8", "0x1.0000000000000p+9", "0x1.0000000000000p+10",
         "0x1.0000000000000p+11", "0x1.0000000000000p+12"),
        ("0x1.0cfb6afa6f21cp+0", "0x1.d737a1c3e2b77p-1", "0x1.983a427a5c2f9p-1",
         "0x1.5ec26259420d0p-1", "0x1.2b8fc64ba39dap-1"),
        "-0x1.be5d2be922865p-3", False),
    "cone_sigma": (
        ("0x1.0000000000000p-8", "0x1.0000000000000p-9", "0x1.0000000000000p-10",
         "0x1.0000000000000p-11", "0x1.0000000000000p-12"),
        ("0x1.0cfb6afa6f21cp+0", "0x1.d737a1c3e2b76p-1", "0x1.983a427a5c2f9p-1",
         "0x1.5ec26259420cep-1", "0x1.2b8fc64ba39dap-1"),
        "0x1.be5d2be922865p-3", False),
    "hyperboloid_rho": (
        ("0x1.47ae147ae147bp-6", "0x1.47ae147ae147bp-7", "0x1.47ae147ae147bp-8",
         "0x1.47ae147ae147bp-9", "0x1.47ae147ae147bp-10"),
        ("0x1.9d7380782a194p-2", "0x1.4ad1dbb73605ap-2", "0x1.08ed915fd84d7p-2",
         "0x1.a997851eec3a0p-3", "0x1.56f7f91bbb65bp-3"),
        "0x1.439671bf0ccb7p-2", True),
    "hyperboloid_omega": (
        ("0x1.0000000000000p+6", "0x1.0000000000000p+7", "0x1.0000000000000p+8",
         "0x1.0000000000000p+9", "0x1.0000000000000p+10"),
        ("0x1.edac97d70a738p-3", "0x1.744c02f53c301p-3", "0x1.17e508db18d84p-3",
         "0x1.a52140ce53e91p-4", "0x1.3d665a7478d64p-4"),
        "-0x1.a3f33e216b301p-2", True),
}


@pytest.mark.parametrize("kind", sorted(LIMIT_PINS))
def test_limit_experiment_is_pinned_off_the_defaults(kind):
    rec = boundary_limit_experiment(kind, n=3, count=5, delta=0.5, alpha=0.3,
                                    beta=0.1, nodes=64)
    levels, values, slope, passed = LIMIT_PINS[kind]
    assert tuple(x.hex() for x in rec.details["levels"]) == levels
    assert tuple(x.hex() for x in rec.details["values"]) == values
    assert (rec.value.hex(), rec.passed) == (slope, passed)


def test_limit_experiment_guards():
    with pytest.raises(InsufficientSequence):
        boundary_limit_experiment("cone_tau", n=3, delta=1.0, count=3)
    with pytest.raises(InvalidInput):
        boundary_limit_experiment("cone_chi", n=3, delta=1.0)


@pytest.mark.parametrize("levels", [
    [256.0 * 2.0**k for k in range(4)],          # tau-like, growing
    [64.0 * 2.0**k for k in range(6)],           # omega-like, growing
    [2.0**-8 / 2.0**k for k in range(4)],        # sigma-like, shrinking
    [0.02 / 2.0**k for k in range(5)],           # rho-like, shrinking
], ids=["tau", "omega", "sigma", "rho"])
def test_log_slope_is_the_least_squares_log_log_fit(levels):
    values = [math.exp(0.3 * k) / (1.0 + x) ** 0.7 for k, x in enumerate(levels)]
    expected = float(np.polyfit(np.log(levels), np.log(values), 1)[0])
    assert log_slope(levels, values).hex() == expected.hex()


def test_log_slope_recovers_the_power_of_an_exact_power_law():
    hs = np.array([1.0 / (m - 1) for m in (16, 32, 64, 128)])
    assert abs(log_slope(hs, 3.7 * hs**2.5) - 2.5) <= 1e-12


@pytest.mark.parametrize("bad", [0.0, -1e-3])
def test_log_slope_raises_on_a_nonpositive_value(bad):
    with pytest.raises(InsufficientSequence, match="nonpositive"):
        log_slope([1.0, 2.0, 4.0, 8.0], [1.0, 0.5, bad, 0.125])


def test_log_slope_of_a_nan_value_is_nan_and_fails_its_record():
    slope = log_slope([1.0, 2.0, 4.0, 8.0], [1.0, math.nan, 0.25, 0.125])
    assert math.isnan(slope)
    assert CheckRecord(name="x", passed=True, value=slope, tolerance=0.1).passed is False


def test_limit_experiment_rejects_a_nonpositive_tail(monkeypatch):
    # a log-log slope needs positive values; a vanishing surface integral
    # must not be fitted as log(0)
    from conelab import quadrature

    monkeypatch.setattr(quadrature, "cone_integral", lambda *args, **kwargs: 0.0)
    with pytest.raises(InsufficientSequence, match="nonpositive"):
        boundary_limit_experiment("cone_tau", n=3, delta=1.0, nodes=16)


# ---------------------------------------------------------------------------
# potential envelope
# ---------------------------------------------------------------------------

def test_decay_envelope_shape_and_guard():
    f = np.array([0.25, 1.0, 4.0])
    env = decay_envelope(f, beta=1.0, p=0.5)
    # p min(beta - p, p) min(f^{-1+p/2}, f^{-1-p/2})
    expect = 0.5 * 0.5 * np.minimum(f**-0.75, f**-1.25)
    assert np.allclose(env, expect, rtol=1e-14)
    with pytest.raises(InvalidInput):
        decay_envelope(f, beta=0.5, p=0.5)


def test_falsifiability_no_false_positive_on_zero_potential_solution():
    # an exact wave solution induces V = 0: the pipeline's potential step
    # must need no B for it, and pass it on to the flux terms
    fld = mkfield(exact_spherical_wave(width=4.0, power=8), m=128)
    rec, _ = uniqueness_pipeline(fld, beta=1.0, p=0.5, potential=lambda u, v: np.zeros_like(u))
    assert rec.value == 0.0
    assert not rec.details["verdict"].startswith("potential-bound violation")
    assert rec.details["terms"]


# The largest B the split estimate absorbs pointwise, at the weight the
# pipeline builds, as measured at these (beta, p).  The pipeline's own bound
# exceeds it at (2, 1) and (1, 0.5) until it is derived from the weight.
POINTWISE_B = {(2.0, 1.0): 0.2539, (1.0, 0.5): 0.2539, (4.0, 1.0): 0.9468,
               (3.0, 0.25): 4.985, (20.0, 2.0): 3.969, (8.0, 0.5): 6.982}
ABOVE_POINTWISE = pytest.mark.xfail(
    strict=True, reason="b_adm exceeds the pointwise bound (ROADMAP item 20)")


@pytest.mark.parametrize("beta, p", sorted(POINTWISE_B))
def test_pointwise_potential_bound_is_pinned(beta, p):
    assert pointwise_potential_bound(beta, p) == pytest.approx(POINTWISE_B[beta, p], rel=5e-4)


@pytest.mark.parametrize("beta, p", [
    pytest.param(*bp, marks=ABOVE_POINTWISE) if bp in {(2.0, 1.0), (1.0, 0.5)} else bp
    for bp in sorted(POINTWISE_B)])
def test_pipeline_admits_no_potential_its_estimate_cannot_absorb(beta, p):
    g = GridSpec.from_region(REGION, 16, 16, 3)
    b_adm = uniqueness_pipeline(ScalarField.zeros(g), beta=beta, p=p)[0].tolerance
    assert b_adm <= pointwise_potential_bound(beta, p)


# ---------------------------------------------------------------------------
# verdict pipeline
# ---------------------------------------------------------------------------

def test_pipeline_zero_field():
    g = GridSpec.from_region(REGION, 64, 64, 3)
    rec, series = uniqueness_pipeline(ScalarField.zeros(g), beta=2.0, p=1.0)
    assert rec.details["verdict"].startswith("zero bulk")
    assert rec.details["terms"] == [] and series == {}


def test_pipeline_multipole_obstructed_by_inner_flux():
    fld = mkfield(static_multipole(1, 3), m=96, ell=1)
    rec, _ = uniqueness_pipeline(fld, beta=2.0, p=1.0)
    assert rec.details["verdict"].startswith("obstructed by I1")
    terms = {t["name"]: t for t in rec.details["terms"]}
    assert terms["I1"]["classification"] == "growing"
    # r^{-2} on the high current grows like 2(a+b) - 1 along F_omega
    expect = 2 * (rec.details["a"] + rec.details["b"]) - 1.0
    assert abs(terms["I1"]["slope"] - expect) < 0.07


def test_pipeline_counterexample_needs_unbounded_potential():
    from conelab.solver import counterexample_build
    bun = counterexample_build(n=3, a=6.0)

    def value(u, v):
        return bun.beta(v - u)

    fld = mkfield(from_expr("1 + 0*u"), m=96)
    fld = ScalarField.from_function(fld.grid, value, name="glued-static", ell=bun.ell)

    def vfun(u, v):
        return bun.potential(v - u)

    rec, series = uniqueness_pipeline(fld, beta=2.0, p=1.0, potential=vfun)
    assert rec.details["verdict"].startswith("potential-bound violation")
    assert rec.value > rec.tolerance
    assert rec.details["terms"] == [] and series == {}


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_pipeline_non_finite_potential_is_rejected(bad):
    fld = mkfield(static_multipole(1, 3), m=48, ell=1)
    with pytest.raises(InvalidPotential):
        uniqueness_pipeline(fld, beta=2.0, p=1.0,
                            potential=lambda u, v: np.full(np.shape(u), bad))


def test_pipeline_needs_a_closed_form_to_track_flux_terms():
    # the tracked surfaces leave the region, where a grid-only field has no values
    fld = mkfield(static_multipole(1, 3), m=48, ell=1)
    sampled = ScalarField(grid=fld.grid, values=fld.values, name="sampled")
    with pytest.raises(InsufficientSequence, match="closed form"):
        uniqueness_pipeline(sampled, beta=2.0, p=1.0)


def test_pipeline_wave_beta_claim_obstructed():
    fld = mkfield(exact_spherical_wave(width=4.0, power=8), m=96)
    rec, _ = uniqueness_pipeline(fld, beta=2.0, p=1.0)
    assert rec.details["verdict"].startswith("obstructed by")


def test_pipeline_term_count_and_invalid_input():
    fld = mkfield(m=48)
    rec, series = uniqueness_pipeline(fld, beta=2.0, p=1.0)
    names = {"I1", "I2", "J1", "J2", "J3", "J4"}
    assert {t["name"] for t in rec.details["terms"]} == names
    assert series.keys() == {f"term-{name}" for name in names}
    with pytest.raises(InvalidInput):
        uniqueness_pipeline(fld, beta=0.5, p=1.0)  # needs p < beta


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_classify_sequence_rejects_a_non_finite_term(bad):
    from conelab.verifier import _classify_sequence

    levels = [1.0, 2.0, 4.0, 8.0, 16.0]
    assert _classify_sequence("I1", levels, [1.0] * 5, True)[1] == "bounded"
    with pytest.raises(InvalidInput, match="I1"):
        _classify_sequence("I1", levels, [1.0, 1.0, bad, 1.0, 1.0], True)
