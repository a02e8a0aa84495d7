"""The interpolating tensor-product spline against scipy's
RectBivariateSpline, which fits the same spline with FITPACK."""

import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import RectBivariateSpline

from conelab.fields import GridSpec, ScalarField, TensorSpline, _bspline_basis, _knots
from conelab.geometry import AdmissibleRegion
from conelab.solver import solve, spherical_wave_data

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
    gap = fld._spline.ev(np.ravel(g.S), np.ravel(g.Y)) - np.ravel(fld.values)
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


def test_full_strip_fit_never_allocates_n_squared():
    # the radial axis of a full strip at dr = 0.001: 6000 sites, where one
    # dense collocation matrix alone would take 6000**2 * 8 bytes = 288 MB
    rng = np.random.default_rng(2)
    x = np.linspace(0.0, 1.0, 16)
    y = (np.arange(6000) + 0.5) * 0.001
    z = rng.normal(size=(16, 6000))
    tracemalloc.start()
    try:
        TensorSpline(x, y, z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * z.nbytes  # 6 MB
