"""The interpolating tensor-product spline against scipy's
RectBivariateSpline, which fits the same spline with FITPACK."""

import numpy as np
import pytest
from scipy.interpolate import RectBivariateSpline

import conelab.fields
from conelab.errors import InvalidInput
from conelab.fields import (EV_BLOCK, GridSpec, ScalarField, SplineEval, TensorSpline,
                           _bspline_basis, _knots)
from conelab.geometry import AdmissibleRegion
from conelab.solver import solve, spherical_wave_data

from _oracles import traced_peak

PAIRS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def oracle(x, y, z):
    return RectBivariateSpline(x, y, z, kx=min(5, len(x) - 1), ky=min(5, len(y) - 1))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_knots_are_fitpacks_bitwise(k):
    rng = np.random.default_rng(k)
    for n in (k + 1, k + 2, 12, 13):
        x = np.sort(rng.uniform(-1.0, 3.0, n))
        y = np.linspace(0.0, 1.0, 9)
        tx, _ = RectBivariateSpline(x, y, rng.normal(size=(n, 9)), kx=k, ky=3).get_knots()
        assert _knots(x, k).tobytes() == tx.tobytes()
    # the degree a spline picks on an axis of n = k + 1 sites
    x = np.linspace(0.5, 2.0, k + 1)
    sp = TensorSpline(x, y, rng.normal(size=(k + 1, 9)))
    assert sp.kx == k and sp.ky == 5
    want_x, want_y = oracle(x, y, np.zeros((k + 1, 9))).get_knots()
    assert sp.tx.tobytes() == want_x.tobytes() and sp.ty.tobytes() == want_y.tobytes()


def assert_matches_oracle(x, y, z, X, Y, tols):
    """|ours - FITPACK| at (X, Y): values within tols[0] * max|z|, and
    derivatives of order 1 and 2 within tols[1] and tols[2] of the largest
    derivative of that kind."""
    ours, ref = TensorSpline(x, y, z), oracle(x, y, z)
    for dx, dy in PAIRS:
        got, want = ours.ev(X, Y, dx, dy), ref.ev(X, Y, dx=dx, dy=dy)
        scale = np.max(np.abs(z if dx + dy == 0 else want))
        assert np.max(np.abs(got - want)) <= tols[dx + dy] * scale, (dx, dy)


def test_evolve_window_matches_fitpack():
    # the finest evolution of the benchmark's evolve workload, on the block
    # its resampled grids span
    res = solve(spherical_wave_data(width=1.0, power=6), T=1.0, R=6.0, dr=0.001, n=3)
    grid = GridSpec.from_region(AdmissibleRegion(0.25, 1.0, 0.6, 5.0 / 3.0), 96, 96, 3)
    i0, i1, j0, j1 = res._window(grid.T, grid.R)
    assert (i1 - i0, j1 - j0) == (659, 1196)
    # measured: 4.2e-18, 4.4e-14 and 4.7e-12
    assert_matches_oracle(res.times[i0:i1], res.r[j0:j1], res.slices[i0:i1, j0:j1],
                          np.ravel(grid.T), np.ravel(grid.R), (1e-17, 1e-13, 1e-11))


def test_field_spline_matches_fitpack():
    g = GridSpec.from_region(AdmissibleRegion(0.1, 10.0, 0.1, 10.0), 48, 48, 3)
    fld = ScalarField.from_function(g, lambda u, v: np.sin(u) * np.cos(v / 3))
    rng = np.random.default_rng(0)
    S = rng.uniform(g.s[0], g.s[-1], 2000)
    Y = rng.uniform(g.y[0], g.y[-1], 2000)
    # measured: 1.0e-15, 1.2e-14 and 9.3e-14
    assert_matches_oracle(g.s, g.y, fld.values, S, Y, (4e-15, 4e-14, 4e-13))
    # at the sites, closer to the data than FITPACK's fit (1.1e-15)
    gap = fld._spline.ev(np.repeat(g.s, g.n_y), np.tile(g.y, g.n_s)) - np.ravel(fld.values)
    assert np.max(np.abs(gap)) <= 5e-16


def one_pair(sp, x, y, dx, dy):
    """One (dx, dy) derivative of `sp` at (x, y), evaluated alone: the
    clamp, interval search, bases and gathers made for that pair only."""
    tx, ty, kx, ky = sp.tx, sp.ty, sp.kx, sp.ky
    x = np.clip(x, tx[kx], tx[-kx - 1])
    y = np.clip(y, ty[ky], ty[-ky - 1])
    lx, bx = _bspline_basis(tx, kx, x, (dx,))
    ly, by = _bspline_basis(ty, ky, y, (dy,))
    ny = sp.c.shape[1]
    cols = (ly - ky) + np.arange(ky + 1)[:, None]
    out = np.zeros(len(x))
    for a in range(kx + 1):
        out += bx[dx][a] * (sp.c.ravel()[(lx - kx + a) * ny + cols] * by[dy]).sum(axis=0)
    return out


def test_pairs_share_their_bases_bitwise():
    # 25600 points, some outside the box, on a 96 x 96 spline: one call for
    # all six pairs gives the bits of six single-pair evaluations
    rng = np.random.default_rng(3)
    x, y = np.linspace(0.0, 3.0, 96), np.linspace(-1.0, 2.0, 96)
    sp = TensorSpline(x, y, rng.normal(size=(96, 96)))
    X, Y = rng.uniform(-0.1, 3.1, 25600), rng.uniform(-1.1, 2.1, 25600)
    got = sp.ev_pairs(X, Y, PAIRS)
    assert len(got) == len(PAIRS)
    for out, (dx, dy) in zip(got, PAIRS):
        want = one_pair(sp, X, Y, dx, dy)
        assert out.tobytes() == want.tobytes() == sp.ev(X, Y, dx, dy).tobytes(), (dx, dy)


def test_points_outside_the_box_are_clamped_like_fitpack():
    rng = np.random.default_rng(1)
    x, y = np.sort(rng.uniform(0.0, 2.0, 20)), np.sort(rng.uniform(-1.0, 1.0, 15))
    z = rng.normal(size=(20, 15))
    ours, ref = TensorSpline(x, y, z), oracle(x, y, z)
    X = np.array([x[0] - 1e-9, x[-1] + 1e-9, x[0] - 1e-9, 0.7])
    Y = np.array([y[0] - 1e-9, y[-1] + 1e-9, 0.3, y[-1] + 1e-9])
    edge_x = np.array([x[0], x[-1], x[0], 0.7])
    edge_y = np.array([y[0], y[-1], 0.3, y[-1]])
    for dx, dy in PAIRS:
        got = ours.ev(X, Y, dx, dy)
        assert got.tobytes() == ours.ev(edge_x, edge_y, dx, dy).tobytes()
        want = ref.ev(X, Y, dx=dx, dy=dy)
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want)), (dx, dy)


@pytest.mark.parametrize("block", [EV_BLOCK, 7])
def test_blocked_evaluation_is_bitwise_the_unblocked_sum(monkeypatch, block):
    # point counts on each side of one and two block boundaries, some points
    # outside the box; block 7 puts the same boundaries at a few points
    monkeypatch.setattr(conelab.fields, "EV_BLOCK", block)
    rng = np.random.default_rng(4)
    x, y = np.linspace(0.0, 3.0, 40), np.linspace(-1.0, 2.0, 30)
    sp = TensorSpline(x, y, rng.normal(size=(40, 30)))
    for m in (0, 1, block - 1, block, block + 1, 2 * block + 3):
        X, Y = rng.uniform(-0.1, 3.1, m), rng.uniform(-1.1, 2.1, m)
        got = sp.ev_pairs(X, Y, PAIRS)
        for out, (dx, dy) in zip(got, PAIRS):
            assert out.tobytes() == one_pair(sp, X, Y, dx, dy).tobytes(), (m, dx, dy)


def test_fit_leaves_the_samples_untouched():
    rng = np.random.default_rng(5)
    x, y = np.linspace(0.0, 1.0, 12), np.linspace(0.0, 2.0, 17)
    z = rng.normal(size=(12, 17))
    before = z.tobytes()
    sp = TensorSpline(x, y, z)
    assert z.tobytes() == before
    frozen = z.copy()
    frozen.flags.writeable = False
    assert TensorSpline(x, y, frozen).c.tobytes() == sp.c.tobytes()
    # an F-ordered z gives the same bits, into C-ordered coefficients
    fz = np.asfortranarray(z)
    assert TensorSpline(x, y, fz).c.tobytes() == sp.c.tobytes()
    assert sp.c.flags.c_contiguous


def test_spline_use_leaves_a_fields_values_untouched():
    g = GridSpec.from_region(AdmissibleRegion(0.1, 10.0, 0.1, 10.0), 24, 24, 3)
    fld = ScalarField.from_function(g, lambda u, v: np.sin(u) * np.cos(v / 3))
    before = fld.values.tobytes()
    fld._spline.ev(np.repeat(g.s, g.n_y), np.tile(g.y, g.n_s))
    SplineEval(fld).derivs2(g.U[2:-2, 2:-2], g.V[2:-2, 2:-2])
    assert fld.values.tobytes() == before


@pytest.mark.parametrize("case", ["duplicate", "decreasing", "nan", "shape"])
def test_degenerate_fit_input_raises_invalid_input(case):
    x, y = np.linspace(0.0, 1.0, 8), np.linspace(0.0, 1.0, 9)
    z = np.ones((8, 9))
    if case == "duplicate":
        x[3] = x[4]
    elif case == "decreasing":
        y = y[::-1]
    elif case == "nan":
        y[5] = np.nan
    else:
        z = np.ones((9, 8))
    with pytest.raises(InvalidInput):
        TensorSpline(x, y, z)


def test_unequal_point_counts_raise_invalid_input():
    sp = TensorSpline(np.linspace(0.0, 1.0, 8), np.linspace(0.0, 1.0, 9), np.ones((8, 9)))
    with pytest.raises(InvalidInput):
        sp.ev_pairs(np.full(EV_BLOCK, 0.5), np.full(EV_BLOCK + 1, 0.5), PAIRS)


def test_full_strip_fit_never_allocates_n_squared():
    # the radial axis of a full strip at dr = 0.001: 6000 sites, where one
    # dense collocation matrix alone would take 6000**2 * 8 bytes = 288 MB
    rng = np.random.default_rng(2)
    x = np.linspace(0.0, 1.0, 16)
    y = (np.arange(6000) + 0.5) * 0.001
    z = rng.normal(size=(16, 6000))
    _, peak = traced_peak(lambda: TensorSpline(x, y, z))
    # measured 3.38: the one copy of z and the 6000-site basis
    assert peak <= 3.5 * z.nbytes
    # where the samples outweigh the basis, the fit holds one copy of them
    # (measured 1.15; three copies, 2.07, without the in-place solve)
    x, y = np.linspace(0.0, 1.0, 256), np.linspace(0.0, 1.0, 1024)
    z = rng.normal(size=(256, 1024))
    _, peak = traced_peak(lambda: TensorSpline(x, y, z))
    assert peak <= 1.25 * z.nbytes


def test_bulk_mesh_evaluation_holds_block_sized_temporaries():
    # a 48^2 field's spline at a 128^2 mesh, as the nonlinear chain reads it:
    # measured 8.0 times the four outputs' bytes (18.5 without blocks)
    g = GridSpec.from_region(AdmissibleRegion(0.25, 1.0, 0.6, 5.0 / 3.0), 48, 48, 3)
    fld = ScalarField.from_function(g, lambda u, v: np.sin(u) * np.cos(v / 3))
    fld._spline  # fitted before the trace
    S, Y = np.meshgrid(np.linspace(g.s[0], g.s[-1], 128), np.linspace(g.y[0], g.y[-1], 128),
                       indexing="ij")
    U, V = -np.exp((S - Y) / 2), np.exp((S + Y) / 2)
    outs, peak = traced_peak(lambda: SplineEval(fld).derivs_wave(U, V))
    assert len(outs) == 4 and outs[0].shape == (128, 128)
    assert peak <= 9 * sum(o.nbytes for o in outs)
