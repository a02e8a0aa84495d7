"""Coordinate maps where the package computes them, the inverted chart, and
the exterior-region bookkeeping.

The maps (t, r) <-> (u, v) <-> (f, h) have no functions of their own: grids
place their nodes by them, `solve` (sampling a nonlinear potential) and the
inverted quadrature chart apply them, and the spline evaluator inverts them.
The metric contractions of df and dh are checked through closed-form
derivatives.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelab.currents import PowerU
from conelab.errors import InvalidCutoffs, InvalidInput, RegionOutOfGrid
from conelab.fields import GridSpec, ScalarField, from_expr, wave_op
from conelab.geometry import AdmissibleRegion
from conelab.quadrature import inverted_hyperboloid_integral
from conelab.solver import CauchyData, solve
from conelab.weights import Potential

pos = st.floats(min_value=1e-3, max_value=1e3,
                allow_nan=False, allow_infinity=False)


def corner(f, h):
    """The grid whose first node sits at (f, h)."""
    return GridSpec(AdmissibleRegion(f, 2 * f, h, 2 * h), 8, 8, n=3)


def null_probe(T, dr):
    """Evolve data supported in r < 1 under a potential that records the
    (u, v) of each call and returns zeros: (result, live cells of the data,
    calls in order, each a (u, v) pair of arrays)."""
    seen = []

    def record(u, v):
        seen.append((np.array(u), np.array(v)))
        return np.zeros_like(u)

    U = PowerU(1, 1.0, Potential(value=record, scaling_log_derivative=None))
    data = CauchyData(profile=lambda r: np.clip(1.0 - r**2, 0.0, None) ** 4,
                      velocity=np.zeros_like)
    # R exceeds the support, 1, plus T plus the solver's outer pad, 1
    res = solve(data, T=T, R=10.0, dr=dr, n=3, U=U)
    return res, int(np.count_nonzero(data.profile(res.r))), seen


def test_null_from_rect_frozen():
    # the first sample is at t = 0 on the data's cells and one more
    res, live, seen = null_probe(T=1.0, dr=0.05)
    u, v = seen[0]
    r = res.r[:live + 1]
    assert live + 1 < len(res.r)
    assert np.array_equal(u, -r / 2) and np.array_equal(v, r / 2)
    g = corner(4.0, 4.0)                     # (u, v) = (-1, 4)
    assert math.isclose(g.T[0, 0], 3.0, rel_tol=1e-15)
    assert math.isclose(g.R[0, 0], 5.0, rel_tol=1e-15)


def test_hyperbolic_frozen():
    for (f, h), (u, v) in (((4.0, 1.0), (-2.0, 2.0)), ((1.0, 4.0), (-0.5, 2.0))):
        g = corner(f, h)
        assert abs(g.U[0, 0] - u) < 1e-15 and abs(g.V[0, 0] - v) < 1e-15
        assert abs(g.F[0, 0] - f) < 1e-15 and abs(g.H[0, 0] - h) < 1e-15


@given(T=st.floats(0.1, 2.0), dr=st.floats(0.02, 0.1))
@settings(max_examples=20, deadline=None)
def test_rect_null_roundtrip(T, dr):
    # each leg samples t = k dt, k = 0, 1, ..., nsteps - 1 (backward: -k), on
    # the band's radii, which gain one cell per step
    res, live, seen = null_probe(T, dr)
    nsteps = res.meta["nsteps"]
    assert len(seen) == 2 * nsteps
    for i, (u, v) in enumerate(seen):
        k = i if i < nsteps else nsteps - i
        r = res.r[:min(len(res.r), live + 1 + abs(k))]
        t = k * res.dt
        assert u.shape == r.shape
        assert np.all(np.abs((u + v) - t) <= 1e-12 * max(1.0, abs(t)))
        assert np.all(np.abs((v - u) - r) <= 1e-12 * np.maximum(1.0, r))


@given(f=pos, h=pos)
def test_fh_roundtrip(f, h):
    g = corner(f, h)
    u, v = g.U[0, 0], g.V[0, 0]
    assert u < 0 < v
    assert abs(-u * v - f) <= 1e-10 * f
    assert abs(-v / u - h) <= 1e-10 * h


@given(f=pos, h=pos)
@settings(max_examples=50)
def test_inversion_swaps_f_keeps_h(f, h):
    # the inverted chart integrates over fbar = 1/f and maps its points back
    # to f with their h unchanged, so the hyperbolic window transfers verbatim
    seen = []

    def record(u, v):
        seen.append((u, v))
        return np.zeros_like(u)

    inverted_hyperboloid_integral(record, f, (h, 2 * h), n=3, nodes=6)
    u, v = seen[0]
    assert np.all(np.abs(-u * v - f) <= 1e-9 * f)
    hs = -v / u
    assert np.all((hs >= h * (1 - 1e-9)) & (hs <= 2 * h * (1 + 1e-9)))


def test_in_exterior():
    # point evaluation is defined on u < 0 < v only; the cone does not count
    g = GridSpec(AdmissibleRegion(0.5, 4.0, 0.5, 4.0), 16, 16, n=3)
    ev = ScalarField.from_function(g, lambda u, v: u * v).evaluator()
    assert np.isfinite(ev.value(-1.0, 2.0))
    for u, v in ((1.0, 2.0), (-1.0, -0.5), (0.0, 1.0)):
        with pytest.raises(RegionOutOfGrid):
            ev.value(u, v)


F_FORM = from_expr("-u*v")
H_FORM = from_expr("-v/u")


def metric(a, b, u, v):
    """g(grad a, grad b) = -(a_u b_v + a_v b_u)/2 for the metric -4 du dv + r^2 dS^2."""
    _, a_u, a_v = a.derivs1(u, v)
    _, b_u, b_v = b.derivs1(u, v)
    return float(-(a_u * b_v + a_v * b_u) / 2.0)


def test_metric_data_frozen():
    u, v = -2.0, 2.0                                    # f = 4, h = 1
    assert abs(metric(F_FORM, F_FORM, u, v) - 4.0) < 1e-14
    assert abs(metric(F_FORM, H_FORM, u, v)) < 1e-14
    assert abs(metric(H_FORM, H_FORM, u, v) + 0.25) < 1e-14   # -f/u^4 = -4/16
    phi, phi_u, phi_v, _, phi_uv, _ = F_FORM.derivs2(u, v)
    assert abs(wave_op(3, 0.0, v - u, phi, phi_u, phi_v, phi_uv) - 2.0) < 1e-14  # (n+1)/2


@given(f=pos, h=pos)
@settings(max_examples=50)
def test_metric_identities(f, h):
    u, v = -math.sqrt(f / h), math.sqrt(f * h)
    assert abs(metric(F_FORM, F_FORM, u, v) - f) <= 1e-10 * f
    assert abs(metric(F_FORM, H_FORM, u, v)) <= 1e-12 * max(1.0, f / h)
    assert metric(H_FORM, H_FORM, u, v) < 0  # timelike level sets of h


def test_region_validation():
    r = AdmissibleRegion(rho=0.1, omega=10.0, sigma=0.1, tau=10.0)
    assert r.rho < r.omega and r.sigma < r.tau
    with pytest.raises(InvalidCutoffs):
        AdmissibleRegion(rho=1.0, omega=0.5, sigma=0.1, tau=10.0)
    with pytest.raises(InvalidCutoffs):
        AdmissibleRegion(rho=0.1, omega=10.0, sigma=-1.0, tau=10.0)


def test_point_from_fh_rejects_nonpositive():
    # f and h are positive on the exterior: a region cut elsewhere is refused
    with pytest.raises(InvalidCutoffs):
        AdmissibleRegion(rho=-1.0, omega=2.0, sigma=0.1, tau=10.0)
    with pytest.raises(InvalidCutoffs):
        AdmissibleRegion(rho=0.1, omega=2.0, sigma=0.0, tau=10.0)
    with pytest.raises(InvalidInput):
        AdmissibleRegion(rho=math.nan, omega=2.0, sigma=0.1, tau=10.0)


def test_hyperbolic_rejects_exterior_violation():
    # a point inside the future cone has no (f, h): every point route refuses it
    g = GridSpec(AdmissibleRegion(0.5, 4.0, 0.5, 4.0), 16, 16, n=3)
    ev = ScalarField.from_function(g, lambda u, v: u * v).evaluator()
    u, v = np.array([-1.0, 1.0]), np.array([2.0, 2.0])
    for route in (ev.value, ev.derivs1, ev.derivs2):
        with pytest.raises(RegionOutOfGrid):
            route(u, v)
