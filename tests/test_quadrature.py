"""Level-set and bulk quadrature against independent routes and closed forms."""

import math

import numpy as np
import pytest

from conelab.currents import PowerU, current_general
from conelab.errors import InvalidInput, MissingDerivative
from conelab.fields import GridSpec, ScalarField, exact_spherical_wave, from_expr, wave_op
from conelab.geometry import AdmissibleRegion
from conelab.quadrature import (
    BULK_POINTS,
    boundary_sum,
    bulk_integral,
    cone_integral,
    face_flux,
    gl_nodes,
    hyperboloid_integral,
    hyperboloid_t_window,
    inverted_hyperboloid_integral,
)
from conelab.weights import Potential, PowerLog

from _oracles import (
    bulk_integral_whole,
    bulk_simpson,
    divergence_residual,
    fixed_f_surface_integral,
    fixed_h_surface_integral,
    traced_peak,
)

REGION = AdmissibleRegion(0.1, 10.0, 0.1, 10.0)


def smooth(u, v):
    f = -u * v
    h = -v / u
    return np.exp(-np.log(h) ** 2 / 2.0) / (1.0 + f * f)


# ---------------------------------------------------------------------------
# surface measures vs embedded-arc-length oracles
# ---------------------------------------------------------------------------

def test_hyperboloid_measure_against_embedding():
    for omega in (0.3, 1.0, 4.0):
        got = hyperboloid_integral(smooth, omega, (0.2, 5.0), n=3, nodes=160)
        ref = fixed_f_surface_integral(smooth, omega, (0.2, 5.0), n=3)
        assert abs(got - ref) < 1e-8 * max(1.0, abs(ref))


def test_cone_measure_against_embedding():
    for tau in (0.5, 2.0, 7.0):
        got = cone_integral(smooth, tau, (0.2, 5.0), n=3, nodes=160)
        ref = fixed_h_surface_integral(smooth, tau, (0.2, 5.0), n=3)
        assert abs(got - ref) < 1e-8 * max(1.0, abs(ref))


def test_bulk_measure_against_simpson():
    def bump(u, v):
        s = np.log(-u * v)
        y = np.log(-v / u)
        return np.exp(-(s**2 + y**2))

    got = bulk_integral(bump, REGION, n=3, nodes=384)
    ref = bulk_simpson(bump, REGION, n=3)
    assert abs(got - ref) < 1e-6 * abs(ref)


def test_bulk_closed_form_unit_integrand():
    # int r^2 f ds dy factorizes over a product window
    reg = AdmissibleRegion(1.0, math.e, 1.0, math.e)
    got = bulk_integral(lambda u, v: np.ones_like(u), reg, n=3, nodes=64)
    expect = ((math.e**2 - 1.0) / 2.0) * (math.e + 2.0 - 1.0 / math.e)
    assert abs(got - expect) < 1e-12 * expect


def test_bulk_tuple_integrand_is_one_mesh_of_single_integrals():
    meshes = []

    def both(u, v):
        meshes.append(u.shape)
        return smooth(u, v), u * v, np.ones_like(u)

    got = bulk_integral(both, REGION, n=3, nodes=48)
    want = tuple(bulk_integral(fn, REGION, n=3, nodes=48)
                 for fn in (smooth, lambda u, v: u * v, lambda u, v: np.ones_like(u)))
    assert meshes == [(48, 48)]
    assert all(type(x) is float for x in got)
    assert [x.hex() for x in got] == [x.hex() for x in want]


# ---------------------------------------------------------------------------
# the bulk rule's row blocks
# ---------------------------------------------------------------------------

# 8 and 37 nodes fit one block; 160 and 640 (25 and 6 rows a block) end on a
# partial one
BLOCK_NODES = [8, 37, 160, 640]
WAVE = exact_spherical_wave(width=1.0, power=8)


def wave_pair(u, v):
    """A chain's two-output integrand on a closed form: phi^2 and f (box phi)^2."""
    ph, pu, pv, puv = WAVE.derivs_wave(u, v)
    return ph ** 2, -u * v * wave_op(3, 0.0, v - u, ph, pu, pv, puv) ** 2


@pytest.mark.parametrize("nodes", BLOCK_NODES)
def test_blocked_bulk_rule_is_bitwise_the_whole_mesh_rule(nodes):
    got = bulk_integral(smooth, REGION, n=3, nodes=nodes)
    assert type(got) is float
    assert got.hex() == bulk_integral_whole(smooth, REGION, n=3, nodes=nodes).hex()
    got = bulk_integral(wave_pair, REGION, n=4, nodes=nodes)
    want = bulk_integral_whole(wave_pair, REGION, n=4, nodes=nodes)
    assert all(type(x) is float for x in got) and got[0] > 0
    assert [x.hex() for x in got] == [x.hex() for x in want]


@pytest.mark.parametrize("nodes", BLOCK_NODES)
def test_blocked_bulk_rule_calls_its_integrand_on_each_node_once(nodes):
    def recorder(calls):
        def fn(u, v):
            calls.append((u.copy(), v.copy()))
            return smooth(u, v)
        return fn

    blocks, whole = [], []
    bulk_integral(recorder(blocks), REGION, n=3, nodes=nodes)
    bulk_integral_whole(recorder(whole), REGION, n=3, nodes=nodes)
    assert all(u.size <= BULK_POINTS for u, _ in blocks)
    assert len(blocks) == -(-nodes // (BULK_POINTS // nodes))
    # the blocks, stacked in call order, are the whole mesh bit for bit
    (u, v), = whole
    assert np.concatenate([b for b, _ in blocks]).tobytes() == u.tobytes()
    assert np.concatenate([b for _, b in blocks]).tobytes() == v.tobytes()


# tracemalloc peak of one `wave_pair` bulk integral at 640 nodes, in arrays
# of 640^2: 22.3 for `bulk_integral_whole`, 2.26 for the row blocks (the
# two output meshes and one block's temporaries); pinned with 0.74 arrays
# of margin.
BULK_PEAK_ARRAYS = 3.0


def test_one_bulk_integral_peaks_at_most_its_pin():
    for rule in (bulk_integral, bulk_integral_whole):
        _, peak = traced_peak(lambda: rule(wave_pair, REGION, n=3, nodes=640))
        arrays = peak / (8 * 640 ** 2)
        # the whole-mesh rule must fail the pin, or the pin shows nothing
        assert (arrays <= BULK_PEAK_ARRAYS) == (rule is bulk_integral), (rule, arrays)


# ---------------------------------------------------------------------------
# window plumbing
# ---------------------------------------------------------------------------

def test_window_helpers_match_implicit_windows():
    omega, sigma, tau = 2.0, 0.3, 6.0
    tw = hyperboloid_t_window(omega, sigma, tau)
    a = hyperboloid_integral(smooth, omega, (sigma, tau), n=3)
    b = hyperboloid_integral(smooth, omega, t_window=tw, n=3)
    assert math.isclose(a, b, rel_tol=1e-15)


def test_empty_windows_integrate_to_zero():
    assert hyperboloid_integral(smooth, 1.0, (2.0, 2.0), n=3) == 0.0
    assert cone_integral(smooth, 1.0, (3.0, 3.0), n=3) == 0.0
    assert hyperboloid_integral(smooth, 1.0, t_window=(1.0, -1.0), n=3) == 0.0


@pytest.mark.parametrize("rule, fixed", [(hyperboloid_integral, "t_window"),
                                         (inverted_hyperboloid_integral, "tbar_window")])
@pytest.mark.parametrize("cuts", ["neither", "both"])
def test_an_f_level_rule_takes_exactly_one_cut(rule, fixed, cuts):
    # neither read as a bare TypeError; both ignored the hyperbolic window
    kw = {} if cuts == "neither" else {fixed: (-1.0, 1.0)}
    window = None if cuts == "neither" else (0.5, 2.0)
    with pytest.raises(InvalidInput, match="cut"):
        rule(smooth, 1.0, window, n=3, **kw)


@pytest.mark.parametrize("m", [2, 5, 48, 128, 160])
@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (0.0, 1.0), (-2.3, 0.7),
                                    (math.log(0.1), math.log(10.0)), (3.0, 3.0)])
def test_gl_nodes_bitwise_equal_to_leggauss_mapping(m, lo, hi):
    x, w = np.polynomial.legendre.leggauss(m)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    want_t, want_w = mid + half * x, half * w
    for _ in range(2):  # the first call may fill the node cache, the second reads it
        t, wt = gl_nodes(lo, hi, m)
        assert t.tobytes() == want_t.tobytes()
        assert wt.tobytes() == want_w.tobytes()


@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (0.0, 2.0)])
def test_gl_nodes_returns_fresh_writable_arrays(lo, hi):
    t, w = gl_nodes(lo, hi, 16)
    want_t, want_w = t.copy(), w.copy()
    t[:] = np.nan
    w *= 2.0
    t2, w2 = gl_nodes(lo, hi, 16)
    assert t2.tobytes() == want_t.tobytes()
    assert w2.tobytes() == want_w.tobytes()


def test_quadrature_input_guards():
    with pytest.raises(InvalidInput):
        gl_nodes(0.0, 1.0, 1)
    for m in (2.5, math.nan, None, True):  # a node count is an int, never a bare TypeError
        with pytest.raises(InvalidInput):
            gl_nodes(0.0, 1.0, m)
    assert len(gl_nodes(0.0, 1.0, np.int64(4))[0]) == 4
    with pytest.raises(InvalidInput):
        gl_nodes(0.0, math.inf, 8)
    with pytest.raises(InvalidInput):
        gl_nodes(math.nan, 1.0, 8)
    with pytest.raises(InvalidInput):
        gl_nodes(None, 1.0, 8)
    with pytest.raises(InvalidInput):
        gl_nodes(1.0, 0.0, 8)
    with pytest.raises(InvalidInput):
        hyperboloid_integral(smooth, -1.0, (0.5, 2.0), n=3)
    with pytest.raises(InvalidInput):
        cone_integral(smooth, 0.0, (0.5, 2.0), n=3)
    with pytest.raises(InvalidInput):
        hyperboloid_integral(smooth, 1.0, (-0.5, 2.0), n=3)
    with pytest.raises(InvalidInput):
        cone_integral(smooth, 1.0, (3.0, 2.0), n=3)


def _unit(u, v):
    return u * 0 + 1


def _faces(cf, ch):
    """A current's `flux(u, v, face)` from its contractions on face f and face h."""
    return lambda u, v, face: cf(u, v) if face == "f" else ch(u, v)


RULES = {
    "hyperboloid_integral": lambda n: hyperboloid_integral(_unit, 1.0, (0.5, 2.0), n=n),
    "inverted_hyperboloid_integral":
        lambda n: inverted_hyperboloid_integral(_unit, 1.0, (0.5, 2.0), n=n),
    "cone_integral": lambda n: cone_integral(_unit, 1.0, (0.5, 2.0), n=n),
    "bulk_integral": lambda n: bulk_integral(_unit, REGION, n=n, nodes=8),
    "boundary_sum": lambda n: boundary_sum(_faces(_unit, _unit), REGION, n=n, nodes=8),
    "face_flux": lambda n: face_flux(_faces(_unit, _unit), "h", 1.0, REGION, n=n, nodes=8),
}


@pytest.mark.parametrize("rule", sorted(RULES))
def test_a_rule_raises_on_a_dimension_that_is_no_integer_from_2(rule):
    # NaN read as an integral (NaN) and None as a bare TypeError
    for n in (math.nan, None, 2.5, 1, True, "3"):
        with pytest.raises(InvalidInput):
            RULES[rule](n)
    for n in (2, np.int64(3)):
        RULES[rule](n)


# ---------------------------------------------------------------------------
# inversion duality
# ---------------------------------------------------------------------------

def test_inverted_route_matches_direct():
    # (u, v) -> (-1/v, -1/u) sends f -> 1/f and fixes h: the same surface
    # integral can be computed on either chart
    for omega in (0.25, 1.0, 9.0):
        direct = hyperboloid_integral(smooth, omega, (0.2, 5.0), n=3, nodes=160)
        inverted = inverted_hyperboloid_integral(smooth, omega, (0.2, 5.0),
                                                 n=3, nodes=160)
        assert abs(direct - inverted) <= 1e-10 * max(1.0, abs(direct))
        assert abs(direct) > 1e-6  # non-degenerate check


def test_inverted_route_guards():
    with pytest.raises(InvalidInput):
        inverted_hyperboloid_integral(smooth, -2.0, (0.5, 2.0), n=3)


# ---------------------------------------------------------------------------
# boundary sums: closed-form currents
# ---------------------------------------------------------------------------

def test_flux_total_radial_current_closed_form():
    # P = f grad f: P.grad f = f^2, u^2 P.grad h = 0; in n = 3 the signed
    # flux total has the closed form (w^3 - r^3)[(tau-sigma) + 2 log(tau/sigma)
    # + 1/sigma - 1/tau], equal to the bulk integral of div P = 3 f
    rho, omega, sigma, tau = 0.2, 3.0, 0.4, 5.0
    reg = AdmissibleRegion(rho, omega, sigma, tau)

    def cf(u, v):
        return (-u * v) ** 2

    def ch(u, v):
        return np.zeros_like(u)

    bnd = boundary_sum(_faces(cf, ch), reg, n=3, nodes=96)
    expect = (omega**3 - rho**3) * ((tau - sigma) + 2.0 * math.log(tau / sigma)
                                    + 1.0 / sigma - 1.0 / tau)
    assert abs(bnd.total - expect) < 1e-11 * abs(expect)
    assert bnd.h_tau == 0.0 and bnd.h_sigma == 0.0

    bulk = bulk_integral(lambda u, v: 3.0 * (-u * v), reg, n=3, nodes=96)
    assert abs(bulk - expect) < 1e-11 * abs(expect)


def test_flux_total_cone_current_closed_form():
    # P = grad h: P.grad f = 0, u^2 P.grad h = u^2 |grad h|^2 = -h;
    # the signed flux total equals the bulk integral of box h
    rho, omega, sigma, tau = 0.2, 3.0, 0.4, 5.0
    reg = AdmissibleRegion(rho, omega, sigma, tau)

    def cf(u, v):
        return np.zeros_like(u)

    def ch(u, v):
        return v / u

    bnd = boundary_sum(_faces(cf, ch), reg, n=3, nodes=96)
    expect = (omega - rho) * (sigma**2 + 2 * sigma - tau**2 - 2 * tau)
    assert abs(bnd.total - expect) < 1e-11 * abs(expect)
    assert bnd.f_omega == 0.0 and bnd.f_rho == 0.0


def test_boundary_additivity_across_seam():
    # splitting the region at f = 1 must telescope: the shared face enters
    # the two halves with opposite orientations
    full = AdmissibleRegion(0.1, 10.0, 0.4, 5.0)
    lo = AdmissibleRegion(0.1, 1.0, 0.4, 5.0)
    hi = AdmissibleRegion(1.0, 10.0, 0.4, 5.0)

    def cf(u, v):
        f = -u * v
        return np.sin(f) / (1.0 + f)

    def ch(u, v):
        return np.cos(-v / u)

    flux = _faces(cf, ch)
    b_full = boundary_sum(flux, full, n=3, nodes=128)
    b_lo = boundary_sum(flux, lo, n=3, nodes=128)
    b_hi = boundary_sum(flux, hi, n=3, nodes=128)
    assert abs(b_lo.f_omega - b_hi.f_rho) < 1e-12 * max(1.0, abs(b_lo.f_omega))
    scale = sum(abs(x) for x in (b_full.f_omega, b_full.f_rho,
                                 b_full.h_tau, b_full.h_sigma))
    assert abs((b_lo.total + b_hi.total) - b_full.total) < 1e-11 * scale
    assert set(b_full.as_dict()) == {"f_omega", "f_rho", "h_tau", "h_sigma", "total"}


# ---------------------------------------------------------------------------
# face fluxes
# ---------------------------------------------------------------------------

def _contraction(u, v):
    f = -u * v
    return np.sin(f) * np.exp(-v / u / 4.0) + 0.5 * u


@pytest.mark.parametrize("face", ["f", "h"])
def test_face_flux_is_the_level_integral_of_the_contraction_over_sqrt_f(face):
    reg = AdmissibleRegion(0.2, 3.0, 0.4, 5.0)

    def unit(u, v):
        return _contraction(u, v) / np.sqrt(-u * v)

    for level in (0.3, 1.0, 7.0):
        got = face_flux(_faces(_contraction, _contraction), face, level, reg, n=3, nodes=40)
        if face == "f":
            want = hyperboloid_integral(unit, level, (reg.sigma, reg.tau), n=3, nodes=40)
        else:
            want = cone_integral(unit, level, (reg.rho, reg.omega), n=3, nodes=40)
        assert got == want and got != 0.0


def test_boundary_sum_is_its_four_face_fluxes():
    reg = AdmissibleRegion(0.2, 3.0, 0.4, 5.0)

    def ch(u, v):
        return np.cos(-v / u) * u

    flux = _faces(_contraction, ch)
    bnd = boundary_sum(flux, reg, n=4, nodes=48)
    want = {"f_omega": face_flux(flux, "f", reg.omega, reg, n=4, nodes=48),
            "f_rho": face_flux(flux, "f", reg.rho, reg, n=4, nodes=48),
            "h_tau": face_flux(flux, "h", reg.tau, reg, n=4, nodes=48),
            "h_sigma": face_flux(flux, "h", reg.sigma, reg, n=4, nodes=48)}
    got = bnd.as_dict()
    assert all(got[k] == want[k] for k in want)
    assert got["total"] == want["f_omega"] - want["f_rho"] + want["h_tau"] - want["h_sigma"]


@pytest.mark.parametrize("face", ["g", "F", None, ""])
def test_face_flux_rejects_an_unknown_face(face):
    with pytest.raises(InvalidInput, match="face"):
        face_flux(_faces(_contraction, _contraction), face, 1.0, REGION, n=3, nodes=8)


# ---------------------------------------------------------------------------
# divergence residual on assembled currents
# ---------------------------------------------------------------------------

def test_divergence_residual_analytic_route():
    g = GridSpec.from_region(REGION, 96, 96, 3)
    fld = ScalarField.from_analytic(g, from_expr("sin(u) * exp(-v/4)"))
    cur = current_general(fld, PowerLog(0.8))
    rel, route = divergence_residual(cur, nodes=160)
    assert route == "analytic"
    assert rel < 1e-9


def test_divergence_residual_fd_route():
    g = GridSpec.from_region(REGION, 192, 192, 3)
    fld = ScalarField.from_analytic(g, from_expr("sin(u) * exp(-v/4)"))
    cur = current_general(fld, PowerLog(0.8))
    rel, route = divergence_residual(cur, nodes=160, route="fd")
    assert route == "fd"
    assert rel < 1e-3
    with pytest.raises(InvalidInput):
        divergence_residual(cur, route="simpson")


def test_divergence_residual_subregion_and_mismatch():
    g = GridSpec.from_region(REGION, 96, 96, 3)
    fld = ScalarField.from_analytic(g, from_expr("(-u*v)**(4/5)"))
    cur = current_general(fld, PowerLog(0.8))
    sub = AdmissibleRegion(0.2, 5.0, 0.2, 5.0)
    rel, _ = divergence_residual(cur, region=sub, nodes=160)
    assert rel < 1e-9
    with pytest.raises(InvalidInput):
        divergence_residual(cur, region=AdmissibleRegion(0.01, 10.0, 0.1, 10.0))


def test_divergence_residual_auto_falls_back_to_fd():
    # a saturating potential has no closed-form log-gradient, so the
    # analytic route is unavailable and auto must pick fd
    g = GridSpec.from_region(REGION, 128, 128, 3)
    fld = ScalarField.from_analytic(g, from_expr("(-u*v)**(3/5)"))
    sat = Potential.saturating(1.0, 3.0, 1.0)
    cur = current_general(fld, PowerLog(0.4), PowerU(1, 1.0, sat))
    _, route = divergence_residual(cur, nodes=96)
    assert route == "fd"
    with pytest.raises(MissingDerivative):
        divergence_residual(cur, route="analytic")
