"""Flux-current assembly, contractions, divergence routes, bulk terms."""

import csv
import math

import numpy as np
import pytest

from conelab.currents import (
    CurrentAssembler,
    PowerU,
    ZeroU,
    bulk_b,
    bulk_term,
    current_general,
    current_split,
    current_to_csv,
    divergence_fd,
    field_half,
)
from conelab.errors import (
    InvalidInput,
    MissingDerivative,
    ModeNotSupported,
    NotInwardDirected,
    RangeMismatch,
)
from conelab import _floatrepr
from conelab.fields import GridSpec, NodeRows, ScalarField, field_to_csv, from_expr
from conelab.geometry import AdmissibleRegion
from conelab.verifier import battery_weights
from conelab.weights import (
    Potential,
    PowerLog,
    SplitWeight,
    SplitWeightParams,
    gamma_v,
)

from _oracles import (
    assert_same_block_bits,
    block_arrays,
    boundary_expansion_f,
    boundary_expansion_h,
    bracket_components,
    bracket_divergence,
    csv_writer_file,
    grid_components,
    special_values,
)

PARAMS = SplitWeightParams(1.0, 0.1, 0.5)
REGION = AdmissibleRegion(0.1, 10.0, 0.1, 10.0)
REG_LO = AdmissibleRegion(0.1, 1.0, 0.1, 10.0)
REG_HI = AdmissibleRegion(1.0, 10.0, 0.1, 10.0)


def mkfield(expr="sin(u)*cos(v/3)", region=REGION, m=64, n=3, ell=0):
    g = GridSpec.from_region(region, m, m, n)
    return ScalarField.from_analytic(g, from_expr(expr), ell)


def grid_divergence(cur):
    """The assembler's closed-form divergence at the grid's nodes, from the
    field's point evaluator."""
    g = cur.grid
    return cur.assembler.divergence(g.U, g.V, -g.U * g.V,
                                    *cur.field.evaluator().derivs2(g.U, g.V))


def grid_flux(cur, face):
    """`cur.flux` at the nodes of the current's grid."""
    g = cur.grid
    return cur.flux(g.U, g.V, face)


# ---------------------------------------------------------------------------
# frozen values and structure
# ---------------------------------------------------------------------------

def test_constant_profile_flux_frozen_at_seam():
    # phi == 1 on the low branch: P_u = -W v z, P_v = -W u z, so
    # P.grad f = W z f with z(1) = 1.475 and W(1) = e^{0.4}
    fld = mkfield("1 + 0*u", REG_LO)
    cur = current_split(fld, PARAMS, "low")
    h = np.linspace(0.5, 2.0, 7)
    useam, vseam = -1.0 / np.sqrt(h), np.sqrt(h)
    vals = cur.flux(useam, vseam, "f")
    assert np.allclose(vals, 1.475 * math.exp(0.4), rtol=1e-14)
    assert np.allclose(vals, 2.2004414290208736, rtol=1e-14)
    # and the h-contraction of a constant profile vanishes identically
    ch = grid_flux(cur, "h")
    assert np.max(np.abs(ch)) < 1e-14


def test_general_current_quadratic_homogeneity():
    fld1 = mkfield()
    fld3 = mkfield("3*(sin(u)*cos(v/3))")
    rep = PowerLog(1.0)
    c1 = grid_components(current_general(fld1, rep))
    c3 = grid_components(current_general(fld3, rep))
    assert np.allclose(c3[0], 9.0 * c1[0], rtol=1e-12, atol=1e-13)
    assert np.allclose(c3[1], 9.0 * c1[1], rtol=1e-12, atol=1e-13)


def test_nonlinear_current_adds_potential_flux():
    # the nonlinear current differs from the zero-U current by the
    # -v U / -u U advection of U = sign/(p+1) V |phi|^{p+1}
    fld = mkfield("(-u*v)**(4/5)")
    a, p = 0.6, 2.0
    U = PowerU(1, p, Potential.constant(1.0))
    base = grid_components(current_general(fld, PowerLog(a)))
    nl = grid_components(current_general(fld, PowerLog(a), U))
    g = fld.grid
    W = g.F ** (2 * a)  # e^{-2F} for the pure power weight
    Uval = (1.0 / (p + 1.0)) * np.abs(fld.values) ** (p + 1.0)
    assert np.allclose(nl[0] - base[0], -W * g.V * Uval, rtol=1e-12)
    assert np.allclose(nl[1] - base[1], -W * g.U * Uval, rtol=1e-12)


@pytest.mark.parametrize("p", [0.25, 0.5, 1.0, 3.0])
def test_power_force_vanishes_with_phi(p):
    # dU/dphi = sign V |phi|^(p-1) phi is 0 at phi = 0, for p < 1 as well,
    # where |0|^(p-1) is inf
    U = PowerU(-1, p, Potential.constant(2.0))
    phi = np.array([0.0, -0.0, 0.25, -4.0])
    with np.errstate(all="raise"):
        got = U.udot(-1.0, 2.0, phi)
    assert np.array_equal(got[:2], [0.0, 0.0])
    assert np.allclose(got[2:], -2.0 * np.abs(phi[2:]) ** p * np.sign(phi[2:]), rtol=1e-15)
    assert U.udot(-1.0, 2.0, 0.0) == 0.0


def test_split_currents_match_across_seam():
    # low and high currents come from different weights that agree at f = 1,
    # so the assembled components must match on the seam
    expr = "sin(u) * exp(-(v - 1)**2)"
    lo = current_split(mkfield(expr, REG_LO), PARAMS, "low")
    hi = current_split(mkfield(expr, REG_HI), PARAMS, "high")
    h = np.geomspace(0.2, 5.0, 11)
    useam, vseam = -1.0 / np.sqrt(h), np.sqrt(h)
    pu_lo, pv_lo = lo.components_at(useam, vseam)
    pu_hi, pv_hi = hi.components_at(useam, vseam)
    assert np.allclose(pu_lo, pu_hi, rtol=1e-13, atol=1e-14)
    assert np.allclose(pv_lo, pv_hi, rtol=1e-13, atol=1e-14)


def test_building_a_current_samples_nothing_on_the_grid(monkeypatch):
    from conelab.currents import CurrentAssembler

    def refuse(*args, **kwargs):
        raise AssertionError("a current was sampled while it was built")

    monkeypatch.setattr(ScalarField, "derivs", refuse)
    monkeypatch.setattr(CurrentAssembler, "components", refuse)
    U = PowerU(1, 2.0, Potential.constant(1.0))
    current_general(mkfield(), PowerLog(1.0))
    current_split(mkfield(region=REG_LO), PARAMS, "low")
    current_general(mkfield("(-u*v)**(4/5)"), PowerLog(0.6), U)


@pytest.mark.parametrize("takes_u", ["current_general", "bulk_b", "identity_residual",
                                     "pointwise_inequality", "solve"])
def test_the_linear_case_is_spelled_zero_u_alone(takes_u):
    # ZeroU() is the default wherever a U is taken; None is no nonlinearity
    from conelab import verifier
    from conelab.solver import solve, spherical_wave_data

    fld = mkfield(m=16)
    call = {"current_general": lambda U: current_general(fld, PowerLog(1.0), U),
            "bulk_b": lambda U: bulk_b(fld, PowerLog(1.0), U),
            "identity_residual": lambda U: verifier.identity_residual(fld, PowerLog(1.0), U),
            "pointwise_inequality":
                lambda U: verifier.pointwise_inequality(fld, PowerLog(1.0), U),
            "solve": lambda U: solve(spherical_wave_data(), T=0.1, R=4.0, dr=0.05, n=3, U=U),
            }[takes_u]
    call(ZeroU())
    with pytest.raises(InvalidInput, match=r"U must be ZeroU\(\) or a PowerU, got NoneType"):
        call(None)


# ---------------------------------------------------------------------------
# expanded boundary formulas (dual route)
# ---------------------------------------------------------------------------

def test_boundary_expansion_f_matches_assembled_current():
    for ell in (0, 2):
        fld = mkfield("sin(u)*cos(v/3)", REG_LO, ell=ell)
        rep = SplitWeight(PARAMS, "low")
        cur = current_general(fld, rep)
        direct = grid_flux(cur, "f")
        expanded = boundary_expansion_f(fld, rep, variant="consistent")
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(direct - expanded)) < 1e-12 * scale


def test_boundary_expansion_variants_differ_by_g_term():
    # the two recorded sign conventions differ by exactly G f W phi^2
    fld = mkfield("sin(u)*cos(v/3)", REG_LO)
    rep = SplitWeight(PARAMS, "low")
    cons = boundary_expansion_f(fld, rep, variant="consistent")
    proof = boundary_expansion_f(fld, rep, variant="proof_expansion")
    g = fld.grid
    gap = rep.G(g.F) * g.F * np.exp(-2 * rep.F(g.F)) * fld.values**2
    assert np.allclose(proof - cons, gap, rtol=1e-12, atol=1e-15)
    assert np.max(np.abs(gap)) > 1e-3  # the discrepancy is macroscopic
    with pytest.raises(InvalidInput):
        boundary_expansion_f(fld, rep, variant="mystery")


def test_boundary_expansion_h_matches_and_is_mode_free():
    rep = SplitWeight(PARAMS, "low")
    fld0 = mkfield("sin(u)*cos(v/3)", REG_LO, ell=0)
    fld2 = mkfield("sin(u)*cos(v/3)", REG_LO, ell=2)
    for fld in (fld0, fld2):
        cur = current_general(fld, rep)
        direct = grid_flux(cur, "h")
        expanded = boundary_expansion_h(fld, rep)
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(direct - expanded)) < 1e-12 * scale
    # the angular energy cancels from the h-contraction: same values on
    # both modes even though the f-contraction differs
    h0 = grid_flux(current_general(fld0, rep), "h")
    h2 = grid_flux(current_general(fld2, rep), "h")
    f0 = grid_flux(current_general(fld0, rep), "f")
    f2 = grid_flux(current_general(fld2, rep), "f")
    assert np.allclose(h0, h2, atol=1e-14)
    assert np.max(np.abs(f0 - f2)) > 1e-3


@pytest.mark.parametrize("face", ["f", "h"])
def test_flux_at_grid_points_is_the_contraction_of_the_sampled_components(face):
    fld = mkfield("sin(u)*cos(v/3)", REG_LO, ell=1)
    cur = current_split(fld, PARAMS, "low")
    g = cur.grid
    P_u, P_v = grid_components(cur)
    if face == "f":
        want = 0.5 * (g.U * P_u + g.V * P_v)
    else:
        want = 0.5 * (g.U * P_u - g.V * P_v)
    assert cur.flux(g.U, g.V, face).tobytes() == want.tobytes()


def test_flux_rejects_an_unknown_face():
    cur = current_split(mkfield(region=REG_LO, m=16), PARAMS, "low")
    with pytest.raises(InvalidInput):
        cur.flux(-1.0, 1.0, "g")


# ---------------------------------------------------------------------------
# divergence routes
# ---------------------------------------------------------------------------

def test_divergence_analytic_vs_fd():
    # the FD route must converge to the closed-form assembler divergence
    errs = []
    for m in (96, 192):
        fld = mkfield("sin(u) * exp(-v/4)", m=m)
        cur = current_general(fld, PowerLog(0.8))
        da = grid_divergence(cur)
        df = divergence_fd(NodeRows(fld.grid), *grid_components(cur))
        ii, jj = fld.grid.interior(2)
        scale = np.max(np.abs(da))
        errs.append(np.max(np.abs((da - df)[ii, jj])) / scale)
    assert errs[1] < 1e-3
    assert math.log2(errs[0] / errs[1]) > 3.0


@pytest.mark.parametrize("ell", [0, 1])
def test_divergence_fd_is_bitwise_the_formula_of_all_four_derivatives(ell):
    # only d_v P_u and d_u P_v enter; the other two were built and dropped
    for m in (16, 33):
        fld = mkfield("sin(u) * exp(-v/4)", m=m, ell=ell)
        g = fld.grid
        for U in (ZeroU(), PowerU(1, 1, Potential.constant(1.0))):
            P_u, P_v = grid_components(current_general(fld, PowerLog(0.8), U))
            _, _, dPu_v = ScalarField(grid=g, values=P_u).fd_derivs(1)
            _, dPv_u, _ = ScalarField(grid=g, values=P_v).fd_derivs(1)
            want = -0.5 * (dPv_u + dPu_v) - ((g.n - 1) / (2.0 * g.R)) * (P_u - P_v)
            assert divergence_fd(NodeRows(g), P_u, P_v).tobytes() == want.tobytes()
    bad = P_u.copy()
    bad[3, 4] = np.nan
    with pytest.raises(InvalidInput, match="finite"):
        divergence_fd(NodeRows(g), bad, P_v)


def test_divergence_analytic_vs_fd_nonlinear():
    fld = mkfield("(-u*v)**(3/5) * exp(-v/6)", m=128)
    U = PowerU(-1, 2.0, Potential.power_of_f(-0.5))
    cur = current_general(fld, PowerLog(0.4), U)
    da = grid_divergence(cur)
    df = divergence_fd(NodeRows(fld.grid), *grid_components(cur))
    ii, jj = fld.grid.interior(2)
    scale = np.max(np.abs(da))
    assert np.max(np.abs((da - df)[ii, jj])) < 1e-5 * scale


def test_point_divergence_unavailable_without_log_partials():
    # the saturating potential carries no closed-form log-gradient, so the
    # closed-form divergence must be refused rather than wrong
    fld = mkfield("(-u*v)**(3/5)")
    sat = Potential.saturating(1.0, 3.0, 1.0)
    cur = current_general(fld, PowerLog(0.4), PowerU(1, 1.0, sat))
    with pytest.raises(MissingDerivative):
        grid_divergence(cur)
    ok = current_general(fld, PowerLog(0.4), PowerU(1, 1.0, Potential.power_of_f(-0.5)))
    assert np.all(np.isfinite(grid_divergence(ok)))


# ---------------------------------------------------------------------------
# bulk source term
# ---------------------------------------------------------------------------

def test_bulk_b_matches_closed_form():
    # B = -sign/(p+1) f^{2a} V Gamma_V |phi|^{p+1} for the power weight;
    # tests/test_certificate.py proves it symbolically, this checks the
    # numbers on a grid
    fld = mkfield("(-u*v)**(4/5)")
    a, p = 0.1, 2.0
    U = PowerU(1, p, Potential.constant(1.0))
    B = bulk_b(fld, PowerLog(a), U)
    g = fld.grid
    gam = gamma_v(Potential.constant(1.0), a, p, g.U, g.V, g.n)
    closed = -(1.0 / (p + 1.0)) * g.F ** (2 * a) * gam * np.abs(fld.values) ** (p + 1.0)
    assert np.allclose(B.values, closed, rtol=1e-12)
    assert np.allclose(gam, 0.5 - a)  # n = 3, p = 2, V constant


@pytest.mark.parametrize("rep, U", [
    (SplitWeight(PARAMS, "low"), ZeroU()),
    (PowerLog(0.1), PowerU(1, 1.0, Potential.constant(1.0))),
    (PowerLog(0.1), PowerU(-1, 2.0, Potential.power_of_f(0.25))),
], ids=["zero", "p1", "power_of_f"])
def test_bulk_term_at_grid_points_is_bulk_b(rep, U):
    fld = mkfield("(-u*v)**(4/5) * exp(-(v-1)**2 / 8)")
    g = fld.grid
    pt = bulk_term(rep, U, g.n, g.F, g.U, g.V, fld.values)
    assert pt.tobytes() == bulk_b(fld, rep, U).values.tobytes()


def test_bulk_b_zero_nonlinearity_is_zero():
    fld = mkfield()
    B = bulk_b(fld, PowerLog(1.0), ZeroU())
    assert np.max(np.abs(B.values)) == 0.0


class _ZeroArraysU(ZeroU):
    """ZeroU as it was: a fresh array of zeros from every method."""

    def value(self, u, v, phi):
        return np.zeros_like(np.asarray(phi, float))

    udot = value
    scaling_q = value
    du_ext = value
    dv_ext = value


@pytest.mark.parametrize("mode", ["fd", "analytic"])
def test_zero_u_scalar_zeros_give_the_bits_of_zero_arrays(mode):
    fld = mkfield("(-u*v)**(4/5) * exp(-(v-1)**2 / 8)")
    for rep in (PowerLog(1.0), SplitWeight(PARAMS, "low")):
        got = bulk_b(fld, rep, ZeroU()).values
        assert got.tobytes() == bulk_b(fld, rep, _ZeroArraysU()).values.tobytes()
        (blocks,), (blocks0,) = (block_arrays(fld, mode, [(rep, U)])
                                 for U in (ZeroU(), _ZeroArraysU()))
        assert len(blocks) == 1
        assert_same_block_bits(blocks, blocks0)


@pytest.mark.parametrize("ell", [0, 1])
@pytest.mark.parametrize("U", [ZeroU(), PowerU(1, 1, Potential.constant(1.0))],
                         ids=["zero-u", "power-u"])
def test_field_half_keeps_the_bits_of_the_bracket_in_one_piece(ell, U):
    # the battery weights on grid arrays by both derivative routes, with f
    # the grid's column and at every node, and on 1-D node arrays, with the
    # half built inside the call and passed in with the stages it feeds
    fld = mkfield(m=32, ell=ell)
    g = fld.grid
    f, h = np.meshgrid(np.linspace(0.15, 9.0, 7), np.linspace(0.2, 8.0, 5))
    u, v = -np.sqrt(np.ravel(f / h)), np.sqrt(np.ravel(f * h))
    points = [(g.U, g.V, f_, fld.derivs(2, mode=mode))
              for f_ in (g.F_col, -g.U * g.V) for mode in ("analytic", "fd")]
    points.append((u, v, -u * v, fld.evaluator().derivs2(u, v)))
    for _, rep in battery_weights():
        asm = CurrentAssembler(rep=rep, U=U, n=g.n, lam=fld.lam)
        for u, v, f, d in points:
            want = [a.tobytes() for a in bracket_components(asm, u, v, f, *d[:3])]
            terms = asm.terms(u, v, f, *d[:3], field_half(u, v, asm.lam, *d[:3]))
            for got in (asm.components(u, v, f, *d[:3]),
                        asm.components(u, v, f, *d[:3], terms=terms)):
                assert [a.tobytes() for a in got] == want
            want = bracket_divergence(asm, u, v, f, *d).tobytes()
            terms = asm.terms(u, v, f, *d[:3], field_half(u, v, asm.lam, *d))
            assert asm.divergence(u, v, f, *d).tobytes() == want
            assert asm.divergence(u, v, f, *d, terms=terms).tobytes() == want


# On a grid the weight half reads f from the grid's column F_col = exp(s),
# one rounding from the node's f; -u v carries three.  Measured on 32^2 and
# 64^2 grids of REGION, the two agree to at most 4.8 ulps of each array's
# largest entry (components) and 4.1 ulps (divergence).
WEIGHT_HALF_ULPS = 8


@pytest.mark.parametrize("ell", [0, 1])
@pytest.mark.parametrize("U", [ZeroU(), PowerU(1, 1, Potential.constant(1.0))],
                         ids=["zero-u", "power-u"])
def test_weight_half_on_the_f_column_agrees_with_f_at_every_node(ell, U):
    fld = mkfield(m=32, ell=ell)
    g = fld.grid
    bound = WEIGHT_HALF_ULPS * np.finfo(float).eps
    for _, rep in battery_weights():
        asm = CurrentAssembler(rep=rep, U=U, n=g.n, lam=fld.lam)
        for mode in ("analytic", "fd"):
            d = fld.derivs(2, mode=mode)
            col = [*asm.components(g.U, g.V, g.F_col, *d[:3]),
                   asm.divergence(g.U, g.V, g.F_col, *d)]
            node = [*asm.components(g.U, g.V, -g.U * g.V, *d[:3]),
                    asm.divergence(g.U, g.V, -g.U * g.V, *d)]
            for got, want in zip(col, node):
                assert got.shape == want.shape == g.U.shape
                assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------

def test_split_range_mismatch():
    fld_full = mkfield(region=REGION)
    with pytest.raises(RangeMismatch):
        current_split(fld_full, PARAMS, "low")
    with pytest.raises(RangeMismatch):
        current_split(fld_full, PARAMS, "high")
    with pytest.raises(InvalidInput):
        current_split(mkfield(region=REG_LO), PARAMS, "middle")


def test_not_inward_directed_guard():
    # the high-branch weight turns outward below f = 1
    fld = mkfield(region=AdmissibleRegion(1e-6, 0.5, 0.1, 10.0), m=32)
    with pytest.raises(NotInwardDirected):
        current_general(fld, SplitWeight(PARAMS, "high"))


def test_mode_restriction_for_nonlinear_powers():
    fld2 = mkfield(ell=2)
    U2 = PowerU(1, 2.0, Potential.constant(1.0))
    with pytest.raises(ModeNotSupported):
        current_general(fld2, PowerLog(0.5), U2)
    # p = 1 stays linear in the mode and is allowed on any single mode
    U1 = PowerU(1, 1.0, Potential.constant(1.0))
    cur = current_general(fld2, PowerLog(0.5), U1)
    assert np.all(np.isfinite(grid_components(cur)[0]))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_current_to_csv(tmp_path):
    fld = mkfield(m=8)
    cur = current_general(fld, PowerLog(1.0))
    path = tmp_path / "current.csv"
    current_to_csv(cur, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["u", "v", "P_u", "P_v"]
    assert len(rows) == 1 + 8 * 8
    floats = [float(x) for x in rows[1]]
    assert all(math.isfinite(x) for x in floats)


def test_current_to_csv_matches_a_csv_writer_loop(tmp_path):
    fld = mkfield(m=10)
    cur = current_general(fld, PowerLog(1.0))
    g = cur.grid
    P_u, P_v = grid_components(cur)
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["u", "v", "P_u", "P_v"])
        for i in range(g.n_s):
            for j in range(g.n_y):
                w.writerow([repr(float(x[i, j])) for x in (g.U, g.V, P_u, P_v)])
    current_to_csv(cur, tmp_path / "current.csv")
    assert (tmp_path / "current.csv").read_bytes() == ref.read_bytes()


def test_current_to_csv_keeps_the_text_of_repeated_bit_patterns(tmp_path, monkeypatch):
    cur = current_general(mkfield(m=16), PowerLog(1.0))
    g = cur.grid
    P = special_values(g), special_values(g, shift=3)
    monkeypatch.setattr(CurrentAssembler, "components", lambda self, *args: P)
    for a in (g.U, g.V, *P):
        assert 2 * np.unique(a.view(np.int64)).size <= a.size
    ref = tmp_path / "ref.csv"
    csv_writer_file(ref, ["u", "v", "P_u", "P_v"], (g.U, g.V, *P))
    current_to_csv(cur, tmp_path / "current.csv")
    assert (tmp_path / "current.csv").read_bytes() == ref.read_bytes()


def test_field_and_current_files_format_u_and_v_once(tmp_path, monkeypatch):
    fld = mkfield(m=16)
    g = fld.grid
    formatted = []
    repr_bytes = _floatrepr.repr_bytes
    monkeypatch.setattr(_floatrepr, "repr_bytes",
                        lambda a: formatted.append(a) or repr_bytes(a))
    field_to_csv(fld, tmp_path / "field.csv")
    current_to_csv(current_general(fld, PowerLog(1.0)), tmp_path / "current.csv")
    assert [a is g.U for a in formatted].count(True) == 1
    assert [a is g.V for a in formatted].count(True) == 1
    assert len(formatted) == 2 + 3 + 2  # u, v; f, h, value; P_u, P_v
    u_v = [line.split(",")[:2] for line in (tmp_path / "field.csv").read_text().splitlines()]
    assert [line.split(",")[:2] for line in (tmp_path / "current.csv").read_text().splitlines()] == u_v
