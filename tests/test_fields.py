"""Grids, field containers, derivative routes, the wave operator, and
serialization."""

import csv
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from conelab import stencils
from conelab.errors import InvalidInput, MissingDerivative, RegionOutOfGrid
from conelab.fields import (
    AnalyticField,
    GridSpec,
    ScalarField,
    exact_spherical_wave,
    field_to_csv,
    from_expr,
    static_multipole,
    wave_op,
)
from conelab.geometry import AdmissibleRegion
from conelab.weights import PowerLog

from _oracles import (
    box,
    conjugate_analytic,
    conjugated_wave_residual,
    csv_writer_file,
    special_values,
)

REGION = AdmissibleRegion(0.1, 10.0, 0.1, 10.0)


def mkgrid(m=96, n=3):
    return GridSpec.from_region(REGION, m, m, n)


# ---------------------------------------------------------------------------
# grid bookkeeping
# ---------------------------------------------------------------------------

def test_grid_sizes_dimension_and_mode_are_integers():
    # a malformed size is named, never a bare TypeError; numpy integers pass
    for key, bad in (("n_s", 8.5), ("n_s", math.nan), ("n_s", None), ("n_y", 8.5),
                     ("n_y", True), ("n_s", 7), ("n", 3.0), ("n", None)):
        with pytest.raises(InvalidInput):
            GridSpec(**{"region": REGION, "n_s": 16, "n_y": 16, "n": 3, key: bad})
    g = GridSpec(REGION, np.int64(16), np.int32(12), np.int64(3))
    assert g.F.shape == (16, 12)
    # the mode is the field's
    for bad in (True, 1.0, -1):
        with pytest.raises(InvalidInput):
            ScalarField(grid=g, values=np.zeros((16, 12)), ell=bad)
    assert ScalarField(grid=g, values=np.zeros((16, 12)), ell=np.int64(1)).lam == 2.0


def test_grid_coordinate_consistency():
    g = mkgrid(48)
    assert np.allclose(g.F, -g.U * g.V)
    assert np.allclose(g.H, -g.V / g.U)
    assert np.allclose(g.R, g.V - g.U)
    assert np.allclose(g.T, g.U + g.V)
    assert np.allclose(g.F, np.exp(g.s)[:, None])
    assert np.allclose(g.H, np.exp(g.y)[None, :])
    # log-uniform spacing and region corners
    assert math.isclose(g.s[0], math.log(REGION.rho))
    assert math.isclose(g.s[-1], math.log(REGION.omega))


def test_grid_node_arrays_come_from_the_1d_axes_to_the_same_bits():
    # U, V and F_col are built from s and y without an n_s x n_y S or Y,
    # and F only when read; each has the bits of its 2-D formula
    for region in (REGION, AdmissibleRegion(0.25, 1.0, 0.6, 5.0 / 3.0)):
        for m in (16, 33, 64, 256):
            g = GridSpec.from_region(region, m, m + 3, 3)
            S = np.broadcast_to(g.s[:, None], (m, m + 3)).copy()
            Y = np.broadcast_to(g.y[None, :], (m, m + 3)).copy()
            assert g.U.tobytes() == (-np.exp((S - Y) / 2.0)).tobytes()
            assert g.V.tobytes() == np.exp((S + Y) / 2.0).tobytes()
            assert g.F_col.shape == (m, 1)
            assert g.F_col.tobytes() == np.exp(S)[:, :1].copy().tobytes()
            assert "F" not in vars(g)
            assert g.F.tobytes() == np.exp(S).tobytes()
            assert g.H.tobytes() == np.exp(Y).tobytes()
            assert g.radial_coef.tobytes() == ((g.n - 1) / (2.0 * g.R)).tobytes()
            assert not {"S", "Y"} & set(vars(g))


def test_fields_of_every_mode_on_one_grid_read_its_node_arrays():
    g = GridSpec.from_region(REGION, 16, 20, 3)
    src = from_expr("sin(u)*cos(v/3)")
    f0, f2 = (ScalarField.from_analytic(g, src, ell) for ell in (0, 2))
    assert (f0.ell, f0.lam, f2.ell, f2.lam) == (0, 0.0, 2, 6.0)
    for name in ("s", "y", "F_col", "F", "H", "U", "V", "R", "T", "radial_coef"):
        assert getattr(f2.grid, name) is getattr(f0.grid, name) is getattr(g, name), name
    assert box(f2).ell == 2 and box(f0).ell == 0
    # (n-1)/(2r) reads n
    other_n = GridSpec.from_region(REGION, 16, 20, 4)
    assert other_n.radial_coef.tobytes() == (3 / (2.0 * g.R)).tobytes()


def test_an_in_place_write_into_a_node_array_raises():
    # every field on a grid reads the same arrays: a write into one would
    # change them for all of them
    g = GridSpec.from_region(REGION, 16, 20, 3)
    for name in ("s", "y", "F_col", "F", "H", "U", "V", "R", "T", "radial_coef", "uv_text"):
        arr = getattr(g, name)
        before = arr.tobytes()
        for write in (lambda a: a.__setitem__(0, 0), lambda a: a.__iadd__(1),
                      lambda a: np.negative(a, out=a)):
            with pytest.raises(ValueError):
                write(arr)
        assert getattr(g, name).tobytes() == before, name


def test_grid_refine_keeps_the_existing_nodes():
    g = mkgrid(32)
    # a refined grid of (m - 1) * 2 + 1 nodes per axis keeps the existing nodes
    g2 = replace(g, n_s=63, n_y=63)
    assert np.allclose(g2.s[::2], g.s, rtol=0, atol=1e-15)
    assert np.allclose(g2.y[::2], g.y, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# wave operator against closed forms
# ---------------------------------------------------------------------------

def test_box_of_f_matches_metric_constant():
    # box f = (n+1)/2, matching the metric-level constant
    for n in (2, 3, 4, 7):
        g = mkgrid(48, n=n)
        fld = ScalarField.from_analytic(g, from_expr("-u*v"))
        got = box(fld).values
        assert np.allclose(got, (n + 1) / 2.0, atol=1e-12)


def test_dalembert_solution_annihilated():
    # phi = [g(2u) - g(2v)] / r solves the n=3 radial wave equation exactly
    wave = exact_spherical_wave(width=4.0, power=6)
    g = mkgrid(64, n=3)
    fld = ScalarField.from_analytic(g, wave)
    res = box(fld).values
    assert np.max(np.abs(res)) < 1e-11


def test_static_multipole_annihilated():
    # r^{-(n-2+ell)} on the ell-th mode is a static solution
    for n, ell in ((3, 1), (3, 2), (4, 1)):
        g = mkgrid(48, n=n)
        fld = ScalarField.from_analytic(g, static_multipole(ell, n), ell)
        res = box(fld).values
        scale = np.max(np.abs(fld.values) / g.R**2)
        assert np.max(np.abs(res)) < 1e-10 * scale


def test_mode_coupling_term_sign():
    # on a mode the operator picks up +lam/r^2 relative to ell=0
    g = mkgrid(32, n=3)
    fld0 = ScalarField.from_analytic(g, from_expr("sin(u)*cos(v)"), 0)
    fld2 = ScalarField.from_analytic(g, from_expr("sin(u)*cos(v)"), 2)
    assert fld0.lam == 0.0 and fld2.lam == 2 * (2 + 3 - 2)
    diff = box(fld2).values - box(fld0).values
    expect = -fld2.lam * fld2.values / g.R**2
    assert np.allclose(diff, expect, atol=1e-13)


# ---------------------------------------------------------------------------
# the scaling operator S = grad f . grad = d/ds
# ---------------------------------------------------------------------------

def scaling(fld):
    """S phi = (u d_u + v d_v) phi / 2 from the field's first derivatives."""
    g = fld.grid
    _, phi_u, phi_v = fld.derivs1()
    return 0.5 * (g.U * phi_u + g.V * phi_v)


def test_scaling_operator_closed_forms():
    g = mkgrid(48)
    f_fld = ScalarField.from_analytic(g, from_expr("-u*v"))
    h_fld = ScalarField.from_analytic(g, from_expr("-v/u"))
    one = ScalarField.from_analytic(g, from_expr("1 + 0*u"))
    # S f = f, S h = 0, S* 1 = S 1 + (n-1)/4 = (n-1)/4
    assert np.allclose(scaling(f_fld), g.F, atol=1e-12)
    assert np.allclose(scaling(h_fld), 0.0, atol=1e-12)
    assert np.allclose(scaling(one) + (g.n - 1) / 4.0, (g.n - 1) / 4.0, atol=1e-14)


def test_scaling_finite_difference_route():
    # on the grid S is d/ds, which the s-stencil differentiates directly
    g = mkgrid(128)
    fld = ScalarField.from_function(g, lambda u, v: np.sin(u) * np.cos(v / 3))
    sa = scaling(ScalarField.from_analytic(g, from_expr("sin(u)*cos(v/3)")))
    sf = fld.d_s()
    ii, jj = g.interior(1)
    assert np.max(np.abs((sa - sf)[ii, jj])) < 5e-4


# ---------------------------------------------------------------------------
# derivative routes and convergence
# ---------------------------------------------------------------------------

def fd_order(source, deriv_fn, levels=(48, 96, 192)):
    """Errors of `deriv_fn(field, mode)` on the FD route against the
    closed form, and the observed orders between successive levels."""
    errs = []
    for m in levels:
        g = mkgrid(m)
        fld = ScalarField.from_function(g, source.value)
        got = deriv_fn(fld, "fd")
        ref = deriv_fn(ScalarField.from_analytic(g, source), "auto")
        ii, jj = g.interior(2)
        errs.append(np.max(np.abs((got - ref)[ii, jj])))
    rates = [math.log2(errs[k] / errs[k + 1]) for k in range(len(errs) - 1)]
    return rates, errs


def test_fd_first_derivative_order():
    src = from_expr("sin(u) * cos(v/3)")
    rates_u, errs_u = fd_order(src, lambda fld, mode: fld.derivs1(mode)[1])
    rates_v, errs_v = fd_order(src, lambda fld, mode: fld.derivs1(mode)[2])
    # order-4 stencils composed through the chain rule; the coarsest
    # segment is pre-asymptotic so judge the fine one
    assert rates_u[-1] > 3.2 and errs_u[-1] < 1e-5
    assert rates_v[-1] > 3.2 and errs_v[-1] < 1e-5


def test_fd_box_convergence():
    src = from_expr("(-u*v)**(4/5) * (-v/u)**(3/10)")
    rates, errs = fd_order(src, lambda fld, mode: box(fld, mode).values)
    assert errs[-1] < 1e-6
    assert min(rates) > 3.3


def test_fd_derivs2_bitwise_equal_to_composed_d_sy():
    fld = ScalarField.from_function(mkgrid(40), lambda u, v: np.sin(u) * np.cos(v / 3))
    g = fld.grid
    ps, py, pss, pyy = fld.d_s(), fld.d_y(), fld.d_ss(), fld.d_yy()
    psy = stencils.d1(ps, g.dy, axis=1, order=g.order)
    want = (fld.values, (ps - py) / g.U, (ps + py) / g.V,
            (pss - 2 * psy + pyy - (ps - py)) / g.U**2,
            (pss - pyy) / (g.U * g.V),
            (pss + 2 * psy + pyy - (ps + py)) / g.V**2)
    for got, ref in zip(fld.fd_derivs2(), want, strict=True):
        assert got.tobytes() == ref.tobytes()


def test_fd_derivs_wave_are_bitwise_fd_derivs2_entries(monkeypatch):
    # the wave operator's four arrays, without the mixed (s, y) stencil
    fld = ScalarField.from_function(mkgrid(40), lambda u, v: np.sin(u) * np.cos(v / 3))
    phi, phi_u, phi_v, _, phi_uv, _ = fld.fd_derivs2()
    shapes = []
    real = stencils.d1
    monkeypatch.setattr(stencils, "d1", lambda a, *args, **kw: shapes.append(a is fld.values)
                        or real(a, *args, **kw))
    got = fld.fd_derivs_wave()
    assert shapes == [True, True]  # d_s and d_y of the values, no d_y of d_s
    _bitwise_equal(got, (phi, phi_u, phi_v, phi_uv))


def test_spline_derivs_bitwise_equal_to_composed_d_sy():
    fld = ScalarField.from_function(mkgrid(40), lambda u, v: np.sin(u) * np.cos(v / 3))
    f, h = np.meshgrid([0.2, 1.0, 7.5], [0.15, 2.0, 9.0])
    u, v = -np.sqrt(f / h), np.sqrt(f * h)
    s, y = np.log(-u * v), np.log(-v / u)

    def d(dx, dy):
        return fld._spline.ev(np.ravel(s), np.ravel(y), dx=dx, dy=dy).reshape(s.shape)

    ps, py, pss, pyy, psy = d(1, 0), d(0, 1), d(2, 0), d(0, 2), d(1, 1)
    want = (d(0, 0), (ps - py) / u, (ps + py) / v,
            (pss - 2 * psy + pyy - (ps - py)) / u**2,
            (pss - pyy) / (u * v),
            (pss + 2 * psy + pyy - (ps + py)) / v**2)
    ev = fld.evaluator()
    for got, ref in zip(ev.derivs2(u, v), want, strict=True):
        assert got.tobytes() == ref.tobytes()
    for got, ref in zip(ev.derivs1(u, v), want[:3], strict=True):
        assert got.tobytes() == ref.tobytes()


def test_spline_derivs_wave_are_bitwise_derivs2_entries():
    # derivs_wave skips the mixed (s, y) pair; an `ev_pairs` output does not
    # depend on which other pairs are asked for
    fld = ScalarField.from_function(mkgrid(40), lambda u, v: np.sin(u) * np.cos(v / 3))
    f, h = np.meshgrid([0.2, 1.0, 7.5, 3.3], [0.15, 2.0, 9.0])
    u, v = -np.sqrt(f / h), np.sqrt(f * h)
    s, y = np.ravel(np.log(-u * v)), np.ravel(np.log(-v / u))
    pairs = [(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]
    every = fld._spline.ev_pairs(s, y, pairs)
    for i, pair in enumerate(pairs):
        alone = fld._spline.ev_pairs(s, y, [pair])[0]
        assert alone.tobytes() == every[i].tobytes(), pair
    ev = fld.evaluator()
    want = ev.derivs2(u, v)
    got = ev.derivs_wave(u, v)
    assert len(got) == 4
    for a, b in zip(got, [want[i] for i in (0, 1, 2, 4)], strict=True):
        assert a.shape == b.shape == u.shape and a.tobytes() == b.tobytes()
    # and at a single point
    got = ev.derivs_wave(float(u[1, 2]), float(v[1, 2]))
    want = ev.derivs2(float(u[1, 2]), float(v[1, 2]))
    assert [a.tobytes() for a in got] == [want[i].tobytes() for i in (0, 1, 2, 4)]


@pytest.mark.parametrize("ell", [0, 1])
def test_wave_op_at_grid_points_is_box(ell):
    g = mkgrid(40)
    src = from_expr("sin(u)*cos(v/3) + u*v**2")
    analytic = ScalarField.from_analytic(g, src, ell)
    sampled = ScalarField(grid=g, values=analytic.values.copy(), ell=ell)
    for fld, derivs in ((analytic, src.derivs2(g.U, g.V)), (sampled, sampled.fd_derivs2())):
        phi, phi_u, phi_v, _, phi_uv, _ = derivs
        got = wave_op(g.n, fld.lam, g.V - g.U, phi, phi_u, phi_v, phi_uv)
        assert got.tobytes() == box(fld).values.tobytes()


def test_derivs_auto_prefers_closed_form():
    g = mkgrid(24)
    fld = ScalarField.from_analytic(g, from_expr("u**2 * v"))
    phi, pu, pv = fld.derivs1()
    assert np.allclose(pu, 2 * g.U * g.V, atol=1e-13)
    assert np.allclose(pv, g.U**2, atol=1e-13)


def test_from_analytic_accepts_only_an_analytic_field():
    g = mkgrid(16)
    a = ScalarField.from_analytic(g, from_expr("u + v"))
    b = ScalarField.from_function(g, lambda u, v: u + v)
    assert np.allclose(a.values, b.values)
    assert a.closed_form is not None and a.grid is g
    with pytest.raises(InvalidInput, match="cannot sample"):
        ScalarField.from_analytic(g, "u + v")
    with pytest.raises(InvalidInput, match="cannot sample"):  # a grid -> field factory
        ScalarField.from_analytic(g, lambda grid: ScalarField.from_function(
            grid, lambda u, v: u + v))


def test_from_analytic_raises_on_a_scalar_field():
    # a sampled field is no source: it is neither passed through, re-gridded
    # nor resampled, whatever grid it is asked onto
    g = mkgrid(16)
    fld = ScalarField.from_analytic(g, from_expr("u + v"))
    for grid in (g, replace(g), replace(g, order=6), replace(g, n_s=31, n_y=31)):
        with pytest.raises(InvalidInput, match="cannot sample"):
            ScalarField.from_analytic(grid, fld)


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------

def test_conjugate_power_weight_is_f_power():
    # e^{-F} of the pure power weight F = -log f is f = -u v itself
    g = mkgrid(32)
    rep = PowerLog(1.0)
    one = from_expr("1 + 0*u")
    psi = ScalarField.from_analytic(g, conjugate_analytic(one, rep, sign=-1))
    assert np.allclose(psi.values, np.exp(-rep.F(g.F)), atol=1e-14)
    back = conjugate_analytic(psi.closed_form, rep, sign=+1)
    assert np.allclose(back.value(g.U, g.V), 1.0, atol=1e-13)
    want = (g.F, -g.V, -g.U, 0.0, -1.0, 0.0)
    for got, ref in zip(psi.derivs2(), want, strict=True):
        assert np.allclose(got, ref, atol=1e-12)


def test_conjugated_wave_expansion_closes():
    # direct e^{-F} box(e^F psi) equals the expanded operator
    g = mkgrid(64)
    rep = PowerLog(0.7)
    psi = ScalarField.from_analytic(g, from_expr("sin(u) * exp(-v/5)"))
    res = conjugated_wave_residual(psi, rep)
    assert np.max(np.abs(res)) < 1e-11


# ---------------------------------------------------------------------------
# evaluator
# ---------------------------------------------------------------------------

def test_spline_evaluator_matches_inside_and_raises_outside():
    g = mkgrid(96)
    fld = ScalarField.from_function(g, lambda u, v: np.sin(u) * np.cos(v / 2))
    ev = fld.evaluator()
    u0, v0 = -0.7, 1.3
    assert abs(ev.value(u0, v0) - math.sin(u0) * math.cos(v0 / 2)) < 1e-8
    with pytest.raises(RegionOutOfGrid):
        ev.value(-20.0, 1.0)


def test_closed_form_evaluator_passthrough():
    g = mkgrid(16)
    fld = ScalarField.from_analytic(g, from_expr("u * v"))
    ev = fld.evaluator()
    assert ev is fld.closed_form
    assert ev.value(-3.0, 7.0) == pytest.approx(-21.0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_field_to_csv_round_trip(tmp_path):
    g = mkgrid(8)
    fld = ScalarField.from_analytic(g, from_expr("u + 2*v"))
    path = tmp_path / "field.csv"
    field_to_csv(fld, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["u", "v", "f", "h", "value"]
    assert len(rows) == 1 + 8 * 8
    u, v, f, h, val = (float(x) for x in rows[1])
    assert math.isclose(val, u + 2 * v, rel_tol=1e-15)
    assert math.isclose(f, -u * v, rel_tol=1e-15)


def test_field_to_csv_matches_a_csv_writer_loop(tmp_path):
    g = GridSpec.from_region(REGION, 12, 9, 3)
    fld = ScalarField.from_analytic(g, from_expr("sin(u)*exp(v) - 0*u"))
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["u", "v", "f", "h", "value"])
        for i in range(g.n_s):
            for j in range(g.n_y):
                w.writerow([repr(float(x[i, j])) for x in (g.U, g.V, g.F, g.H, fld.values)])
    field_to_csv(fld, tmp_path / "field.csv")
    assert (tmp_path / "field.csv").read_bytes() == ref.read_bytes()


def test_field_to_csv_keeps_the_text_of_repeated_bit_patterns(tmp_path):
    # every column repeats bit patterns (u and v along diagonals of this
    # square grid, f and h along grid lines, the values by construction), so
    # each takes the once-per-pattern route; zeros, NaNs, infinities and
    # subnormals must still read as csv.writer writes them
    g = GridSpec.from_region(REGION, 16, 16, 3)
    fld = ScalarField(grid=g, values=np.zeros((16, 16)))
    fld.values[...] = special_values(g)
    for a in (g.U, g.V, g.F, g.H, fld.values):
        assert 2 * np.unique(a.view(np.int64)).size <= a.size
    ref = tmp_path / "ref.csv"
    csv_writer_file(ref, ["u", "v", "f", "h", "value"], (g.U, g.V, g.F, g.H, fld.values))
    field_to_csv(fld, tmp_path / "field.csv")
    assert (tmp_path / "field.csv").read_bytes() == ref.read_bytes()
    values = {line.rsplit(b",", 1)[1] for line in ref.read_bytes().splitlines()[1:]}
    assert values == {b"0.0", b"-0.0", b"nan", b"inf", b"-inf", b"5e-324", b"-5e-324",
                      b"2.5e-310", b"1.5"}


@pytest.mark.parametrize("expr", ["u**(", "u +* v", "1/0*u", "0/0 + v",
                                  "u*w", "u > 0", "I*u", "f(u)", "Abs(u + v)**3"])
def test_from_expr_rejects_unparsable_or_undefined_expressions(expr):
    # a closed form is real-valued in u and v alone: another symbol, a
    # relation, I, an undefined function or a slot numpy cannot evaluate
    # (the second derivative of Abs holds DiracDelta) would fail later
    with pytest.raises(InvalidInput):
        from_expr(expr)


def test_missing_derivative_guard():
    # a closed form is one function of all six slots: a value alone is none
    with pytest.raises(TypeError):
        AnalyticField(value=lambda u, v: u + v, label="bare")
    with pytest.raises(TypeError):
        AnalyticField(label="bare")


# ---------------------------------------------------------------------------
# derivative arrays on the grid: evaluated on each call and kept by no one
# ---------------------------------------------------------------------------

FIELD_VARS = {"grid", "values", "closed_form", "name", "ell"}


def _bitwise_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _fresh_on_each_call(fld, name, mode, want):
    """Two calls of `fld.<name>(mode)`: distinct read-only arrays, each with
    the bits of `want`, and nothing left on the field."""
    first, second = getattr(fld, name)(mode), getattr(fld, name)(mode)
    _bitwise_equal(first, want)
    _bitwise_equal(second, want)
    assert not {id(a) for a in first} & {id(a) for a in second}
    for arr in (*first, *second):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
    assert set(vars(fld)) == FIELD_VARS


@pytest.mark.parametrize("first", ["derivs1", "derivs2"])
def test_closed_form_route_is_bitwise_direct_evaluation(first):
    g = mkgrid(24)
    af = static_multipole(1, 3)
    want1 = af.derivs1(g.U, g.V)
    want2 = af.derivs2(g.U, g.V)
    fld = ScalarField.from_analytic(g, af, 1)
    for name in (first, "derivs1" if first == "derivs2" else "derivs2") * 2:
        _bitwise_equal(getattr(fld, name)(), want1 if name == "derivs1" else want2)


def test_closed_form_route_evaluates_once_and_is_read_only(monkeypatch):
    # each call goes through the closed form once, and keeps nothing
    g = mkgrid(16)
    fld = ScalarField.from_analytic(g, from_expr("u**2 * v"))
    cf = fld.closed_form
    calls = []
    for name in ("derivs1", "derivs_wave", "derivs2"):
        want = getattr(AnalyticField, name)(cf, g.U, g.V)
        real = getattr(AnalyticField, name)
        monkeypatch.setattr(AnalyticField, name, lambda self, u, v, _n=name, _r=real:
                            calls.append(_n) or _r(self, u, v))
        _fresh_on_each_call(fld, name, "auto", want)
        assert calls == [name, name]
        calls.clear()


def test_the_derivatives_of_u_stay_read_only():
    # the value slot of "u" is the grid's U itself, and a field sampled from
    # u holds U as its values: every route hands out read-only views of it
    g = mkgrid(16)
    before = g.U.tobytes()
    for fld in (ScalarField.from_analytic(g, from_expr("u")),
                ScalarField.from_function(g, lambda u, v: u)):
        for mode in ("auto", "fd"):
            for name in ("derivs1", "derivs_wave", "derivs2"):
                arrays = getattr(fld, name)(mode)
                assert arrays[0].tobytes() == g.U.tobytes()
                for arr in arrays:
                    assert not arr.flags.writeable
                    with pytest.raises(ValueError):
                        arr[0, 0] = 1.0
    assert not g.U.flags.writeable and g.U.tobytes() == before


@pytest.mark.parametrize("mode, order, name", [("analytic", 2, "derivs2"),
                                               ("fd", "wave", "derivs_wave"),
                                               ("fd", 1, "derivs1")])
def test_unkept_derivatives_are_the_routes_bits_and_stay_off_the_field(mode, order, name):
    # every call evaluates afresh, to the bits of the route's source, and
    # leaves nothing on the field
    g = mkgrid(16)
    fld = ScalarField.from_analytic(g, static_multipole(1, 3), 1)
    if mode == "fd":
        want = {1: fld.fd_derivs1, "wave": fld.fd_derivs_wave, 2: fld.fd_derivs2}[order]()
    else:
        want = fld.closed_form.derivs2(g.U, g.V)
    _fresh_on_each_call(fld, name, mode, want)


def test_analytic_derivatives_without_a_closed_form_raise():
    g = mkgrid(32)
    bare = ScalarField.from_function(g, lambda u, v: np.sin(u) * np.cos(v / 3))
    for call in (lambda: bare.derivs1("analytic"), lambda: bare.derivs2("analytic"),
                 lambda: box(bare, "analytic")):
        with pytest.raises(MissingDerivative):
            call()


def test_fd_mode_on_a_closed_form_field_gives_the_fd_arrays():
    g = mkgrid(32)
    fld = ScalarField.from_analytic(g, from_expr("sin(u)*cos(v/3)"))
    _bitwise_equal(fld.derivs1("fd"), fld.fd_derivs1())
    _bitwise_equal(fld.derivs2("fd"), fld.fd_derivs2())
    phi, phi_u, phi_v, _, phi_uv, _ = fld.fd_derivs2()
    want = wave_op(g.n, fld.lam, g.R, phi, phi_u, phi_v, phi_uv)
    assert box(fld, "fd").values.tobytes() == want.tobytes()
    assert box(fld, "fd").values.tobytes() != box(fld).values.tobytes()
    assert fld.route() == fld.route("analytic") == "analytic"
    assert fld.route("fd") == "fd"


@pytest.mark.parametrize("mode", ["bogus", True, False, None, "closed_form"])
def test_unknown_derivative_modes_are_rejected(mode):
    g = mkgrid(16)
    for fld in (ScalarField.from_analytic(g, from_expr("u*v**2")),
                ScalarField.from_function(g, lambda u, v: u * v**2)):
        for call in (fld.derivs1, fld.derivs2, lambda m: box(fld, m), lambda m: fld.route(m)):
            with pytest.raises(InvalidInput, match="derivative mode"):
                call(mode)


def test_field_without_closed_form_takes_the_fd_route():
    g = mkgrid(32)
    fld = ScalarField.from_function(g, lambda u, v: u * v**2)
    _bitwise_equal(fld.derivs1(), fld.fd_derivs1())
    _bitwise_equal(fld.derivs2(), fld.fd_derivs2())
    assert fld.route() == "fd"
    assert not any(a.flags.writeable for a in fld.derivs1())


def test_fd_route_evaluates_once_and_is_read_only(monkeypatch):
    # each call goes through its FD source once, and keeps nothing
    g = mkgrid(16)
    fld = ScalarField.from_function(g, lambda u, v: u**2 * v)
    calls = []
    for name in ("derivs1", "derivs_wave", "derivs2"):
        source = f"fd_{name}"
        want = getattr(fld, source)()
        real = getattr(ScalarField, source)
        monkeypatch.setattr(ScalarField, source,
                            lambda self, _n=source, _r=real: calls.append(_n) or _r(self))
        _fresh_on_each_call(fld, name, "fd", want)
        assert calls == [source, source]
        calls.clear()
    # phi is a read-only view of the values: the field's own stay writeable
    assert fld.values.flags.writeable


def test_a_field_with_kept_derivatives_cannot_be_reassigned():
    # a field is frozen (its spline is kept once built), so derivative arrays
    # a caller keeps stay those of the field: new values make a new field
    import dataclasses

    g = mkgrid(16)
    fld = ScalarField.from_function(g, lambda u, v: u * v)
    kept = fld.derivs2()
    with pytest.raises(dataclasses.FrozenInstanceError):
        fld.values = 2.0 * fld.values
    _bitwise_equal(fld.derivs2(), kept)


def test_closed_form_and_fd_routes_are_kept_apart():
    # the routes of one field give each its own source's arrays, in any order
    g = mkgrid(24)
    fld = ScalarField.from_analytic(g, from_expr("sin(u)*cos(v/3)"))
    analytic = fld.derivs2()
    fd = fld.derivs2("fd")
    _bitwise_equal(analytic, fld.closed_form.derivs2(g.U, g.V))
    _bitwise_equal(fd, fld.fd_derivs2())
    _bitwise_equal(fld.derivs2("analytic"), analytic)
    _bitwise_equal(fld.derivs1("fd"), fld.fd_derivs1())


def test_closed_form_route_under_concurrent_first_use():
    # threads calling at once each evaluate, and each must get arrays equal
    # to a direct evaluation
    import sys
    import threading

    g = mkgrid(64)
    af = from_expr("sin(u)*cos(v/3)")
    # the FD route of a field without a closed form, too
    vals = af.value(g.U, g.V)
    cases = ((lambda: ScalarField.from_analytic(g, af), af.derivs2(g.U, g.V)),
             (lambda: ScalarField(grid=g, values=vals), ScalarField(g, vals).fd_derivs2()))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for make, want in cases:
            for _ in range(5):
                fld = make()
                got = []
                workers = [threading.Thread(target=lambda k=k: got.append(
                    fld.derivs1() if k % 2 else fld.derivs2())) for k in range(8)]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join(timeout=60)
                assert not any(w.is_alive() for w in workers) and len(got) == 8
                for out in got:
                    _bitwise_equal(out, want[:len(out)])
    finally:
        sys.setswitchinterval(interval)
