"""Independent routes the tests check the package against.

Quadrature oracles deliberately avoid the package's own Gauss-Legendre
integrators: surfaces are integrated by embedding them into (t, r),
finite-differencing the embedding for the induced line element, and applying
Simpson / trapezoid rules on dense parameter grids.  Agreement with the
package routes is then evidence about the measures themselves, not about a
shared quadrature implementation.

The coarea oracle runs the other way, on the package's own rules: the bulk
integral of div P against the oriented total of the current's face fluxes.

Algebraic oracles write out by hand what the package assembles: the
conjugated field e^{sign F} phi with its derivative slots, the expansion of
the conjugated wave operator, the expanded boundary contractions of the
current (with the sign variant of its zero-order term that the assembled
current must not match), and the current's bracket in one piece.

The CSV oracle writes a grid's columns node by node through `csv.writer`,
with special values laid out so that every column repeats bit patterns.

`bulk_integral_whole` is the bulk rule with one integrand call on the whole
node mesh; the package's row-blocked rule must return its bits.  Likewise
`whole_grid_fd` runs the FD stencils once over a whole grid and composes
them by the chain rule on node arrays formed here; the package's FD
derivatives on a run of rows must be its rows, bit for bit.

`traced_peak` is the memory probe of the tests that bound a peak.

`box` is the wave operator on a field's grid, by the field's derivative
route.  The decay pretenders are closed forms no admissible potential
carries, and `pretender_joint` builds each one's joint function once per
pytest run; `pointwise_potential_bound` is the largest B the split estimate
absorbs pointwise, from the package's own weight functions.

`grid_components` samples a current's components on its field's grid, and
`block_arrays` gives the identity's arrays on each row block of a run of
`identity_checks`, and `assert_same_block_bits` compares two such lists.
"""

import csv
import functools
import itertools
import math
import tracemalloc

import numpy as np
from scipy.integrate import simpson

from conelab.currents import ZeroU, divergence_fd
from conelab.errors import InvalidInput, MissingDerivative, check_dimension
from conelab import stencils, verifier
from conelab.fields import AnalyticField, NodeRows, ScalarField, wave_op
from conelab.quadrature import boundary_sum, bulk_integral, gl_nodes
from conelab.weights import SplitWeight, SplitWeightParams, decay_envelope


def box(fld, mode="auto"):
    """Wave operator (`wave_op`) on the mode profile, by the derivative route
    `fld.route(mode)`."""
    g = fld.grid
    vals = wave_op(g.n, fld.lam, g.R, *fld.derivs("wave", mode=mode))
    return ScalarField(grid=g, values=vals, name=f"box {fld.name}", ell=fld.ell)


# Fields saturating the beta = 1 radiating-decay envelope: the weight is
# exactly (1 + r + f) = (1 - u)(1 + v) in n = 3, so their weighted suprema
# are bounded, yet the potentials they induce decay too slowly toward null
# infinity for any admissible B.
PRETENDER_EXPRS = ("((1-u)*(1+v))**(-3/2)",
                   "((1-u)*(1+v))**(-3/2) * (2 + sin(log(-u*v)))/3",
                   "((1-u)*(1+v))**(-8/5)")


@functools.cache
def pretender_joint(expr):
    """The joint function `from_expr` builds at run time for a decay
    pretender, which the generated table does not hold, built once per
    pytest run: criterion 09 and tests/test_forms.py read the same one."""
    from conelab._gen_forms import joint_function

    return joint_function(expr)


def pointwise_potential_bound(beta, p):
    """The largest B with B * decay_envelope <= sqrt(8 |F'| c) at every f on
    both branches of the split weight `uniqueness_pipeline` builds at (beta, p),
    c its `bulk_coefficient`, f log-spaced over 1e-8 ... 1 ... 1e8.

    With box phi = -V phi, the split chain's right side is (1/8) W |F'|^-1
    V^2 phi^2 and its left side W c phi^2: both multiply phi^2, so the chain
    absorbs V exactly when V^2 <= 8 |F'| c pointwise."""
    a = (beta + p) / 4.0
    params = SplitWeightParams(a=a, b=min(beta - p, 8.0 * p) / 16.0, p=min(p, 2 * a * 0.99))
    bounds = []
    for branch, f in (("low", np.logspace(-8.0, 0.0, 1601)), ("high", np.logspace(0.0, 8.0, 1601))):
        w = SplitWeight(params, branch)
        bounds.append(np.min(np.sqrt(8.0 * np.abs(w.dF(f)) * w.bulk_coefficient(f))
                             / decay_envelope(f, beta, p)))
    return float(min(bounds))


def fixed_f_surface_integral(fn, omega, window, n, m=200_001):
    """Integral of fn(u, v) over the hyperboloid f = omega, sigma < h < tau.

    Embeds y -> (t(y), r(y)) with u = -sqrt(omega/h), v = sqrt(omega h),
    h = e^y, measures the tangent with np.gradient, and integrates
    fn * |tangent| * r^{n-1} dy by trapezoid.
    """
    sigma, tau = window
    y = np.linspace(np.log(sigma), np.log(tau), m)
    h = np.exp(y)
    u = -np.sqrt(omega / h)
    v = np.sqrt(omega * h)
    t, r = v + u, v - u
    dt = np.gradient(t, y)
    dr = np.gradient(r, y)
    norm = np.sqrt(np.abs(-dt**2 + dr**2))
    vals = fn(u, v) * norm * r ** (n - 1)
    return float(np.trapezoid(vals, y))


def fixed_h_surface_integral(fn, tau, window, n, m=200_001):
    """Integral of fn(u, v) over the cone-parallel surface h = tau, rho < f < omega."""
    rho, omega = window
    s = np.linspace(np.log(rho), np.log(omega), m)
    f = np.exp(s)
    u = -np.sqrt(f / tau)
    v = np.sqrt(f * tau)
    t, r = v + u, v - u
    dt = np.gradient(t, s)
    dr = np.gradient(r, s)
    norm = np.sqrt(np.abs(-dt**2 + dr**2))
    vals = fn(u, v) * norm * r ** (n - 1)
    return float(np.trapezoid(vals, s))


def bulk_simpson(fn, region, n, m=1201):
    """Volume integral of fn(u, v) over the region by 2-D Simpson in (s, y).

    The volume element is r^{n-1} f ds dy (equal to 2 r^{n-1} du dv).
    """
    s = np.linspace(np.log(region.rho), np.log(region.omega), m)
    y = np.linspace(np.log(region.sigma), np.log(region.tau), m)
    S, Y = np.meshgrid(s, y, indexing="ij")
    F = np.exp(S)
    u = -np.exp((S - Y) / 2.0)
    v = np.exp((S + Y) / 2.0)
    r = v - u
    vals = fn(u, v) * r ** (n - 1) * F
    return float(simpson(simpson(vals, x=y, axis=1), x=s))


def bulk_integral_whole(fn, region, *, n, nodes):
    """`bulk_integral` evaluating fn(u, v) once, on the whole nodes x nodes
    mesh, with each output's weighted mesh contracted with the weights."""
    check_dimension(n)
    s, ws = gl_nodes(math.log(region.rho), math.log(region.omega), nodes)
    y, wy = gl_nodes(math.log(region.sigma), math.log(region.tau), nodes)
    S, Y = np.meshgrid(s, y, indexing="ij")
    F = np.exp(S)
    H = np.exp(Y)
    u = -np.sqrt(F / H)
    v = np.sqrt(F * H)
    rn = (v - u) ** (n - 1)
    out = fn(u, v)

    def integral(vals):
        return float(ws @ (np.asarray(vals, float) * rn * F) @ wy)

    return tuple(map(integral, out)) if isinstance(out, tuple) else integral(out)


def grid_components(cur):
    """(P_u, P_v) of a current on its field's grid, as `current_to_csv`
    writes them: f = -u v at every node, derivatives by the field's route."""
    g = cur.grid
    return cur.assembler.components(g.U, g.V, -g.U * g.V, *cur.field.derivs(1))


def divergence_residual(cur, region=None, *, nodes=128, route="auto"):
    """(relative residual, route) of the bulk integral of div P over `region`
    (by default the current's grid region) against the oriented total of the
    current's boundary fluxes.

    Route 'analytic' differentiates the current in closed form through its
    assembler, 'fd' by finite differences of its grid samples, and 'auto'
    takes 'analytic' unless the assembler raises MissingDerivative.
    """
    g = cur.grid
    region = region or g.region
    if not (g.region.rho <= region.rho and region.omega <= g.region.omega
            and g.region.sigma <= region.sigma and region.tau <= g.region.tau):
        raise InvalidInput("requested region is not covered by the current's grid")
    if route == "auto":
        try:
            return divergence_residual(cur, region, nodes=nodes, route="analytic")
        except MissingDerivative:
            route = "fd"
    if route == "analytic":
        def div(u, v):
            return cur.assembler.divergence(u, v, -u * v, *cur.field.evaluator().derivs2(u, v))
    elif route == "fd":
        div = ScalarField(grid=g, values=divergence_fd(NodeRows(g), *grid_components(cur)))
        div = div.evaluator().value
    else:
        raise InvalidInput(f"route must be 'auto', 'analytic' or 'fd', got {route!r}")
    bulk = bulk_integral(div, region, n=g.n, nodes=nodes)
    bnd = boundary_sum(cur.flux, region, n=g.n, nodes=nodes)
    scale = max(abs(bulk), abs(bnd.f_omega) + abs(bnd.f_rho) + abs(bnd.h_tau)
                + abs(bnd.h_sigma), 1e-300)
    return abs(bulk - bnd.total) / scale, route


def conjugate_analytic(af, rep, sign=-1):
    """Closed-form e^{sign F} * af with all derivative slots filled."""

    def slots(u, v, k):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        f = -u * v
        E = np.exp(sign * rep.F(f))
        A = sign * rep.dF(f)
        B = sign * rep.d2F(f)
        val, du, dv, duu, duv, dvv = af.derivs2(u, v)
        return (E * val,
                E * (du - v * A * val),
                E * (dv - u * A * val),
                E * (duv - u * A * du - v * A * dv + (u * v * (A * A + B) - A) * val),
                E * (duu - 2 * v * A * du + (v * v * (A * A + B)) * val),
                E * (dvv - 2 * u * A * dv + (u * u * (A * A + B)) * val))[:k]

    tag = "+" if sign > 0 else "-"
    return AnalyticField(slots, f"e^{tag}F {af.label}")


def conjugated_wave_residual(psi, rep):
    """Residual of the conjugated-operator expansion for a closed-form psi.

    Compares L psi = e^{-F} box(e^{F} psi), computed directly, against

        box psi + 2 F' S* psi + (f (F')^2 - G) psi,

    with S* psi = S psi + ((n-1)/4) psi; the two agree to rounding.
    """
    g = psi.grid
    phi = ScalarField.from_analytic(g, conjugate_analytic(psi.closed_form, rep, sign=+1))
    f = g.F_col
    dF = rep.dF(f)
    _, psi_u, psi_v = psi.derivs(1)
    sstar = 0.5 * (g.U * psi_u + g.V * psi_v) + (g.n - 1) / 4.0 * psi.values
    direct = np.exp(-rep.F(f)) * box(phi).values
    expanded = box(psi).values + 2.0 * dF * sstar + (f * dF**2 - rep.G(f)) * psi.values
    return direct - expanded


def boundary_expansion_f(fld, rep, variant="consistent"):
    """Expanded formula for P . grad f (U = 0) on the field's grid.

    variant 'consistent'      : zero-order term -(c f F' + G f / 2) phi^2,
    variant 'proof_expansion' : zero-order term -(c f F' - G f / 2) phi^2.

    Only the first matches the assembled current; the second is the sign
    variant found in expanded boundary formulas.
    """
    if variant not in ("consistent", "proof_expansion"):
        raise InvalidInput(f"unknown variant {variant!r}")
    g = fld.grid
    f = g.F_col
    dF = rep.dF(f)
    G = rep.G(f)
    W = np.exp(-2.0 * rep.F(f))
    c = (g.n - 1) / 4.0 - f * dF
    phi, phi_u, phi_v = fld.derivs(1)
    up = g.U * phi_u
    vp = g.V * phi_v
    ang = fld.lam * phi**2 / g.R**2
    sgn = 1.0 if variant == "consistent" else -1.0
    return W * (0.25 * (up**2 + vp**2)
                - 0.5 * f * ang
                + 0.5 * c * phi * (up + vp)
                - (c * f * dF + sgn * 0.5 * G * f) * phi**2)


def boundary_expansion_h(fld, rep):
    """Expanded formula for u^2 P . grad h (U = 0): no angular, no zero-order term."""
    g = fld.grid
    f = g.F_col
    dF = rep.dF(f)
    W = np.exp(-2.0 * rep.F(f))
    c = (g.n - 1) / 4.0 - f * dF
    phi, phi_u, phi_v = fld.derivs(1)
    up = g.U * phi_u
    vp = g.V * phi_v
    return W * (0.25 * (up**2 - vp**2) + 0.5 * c * phi * (up - vp))


# ---------------------------------------------------------------------------
# the current's bracket, written out in one piece
# ---------------------------------------------------------------------------
# CurrentAssembler splits the bracket into a field half, shared by every
# weight and U on the same points, and the weight's terms added after it.
# These are its formulas before the split, which the split must reproduce
# bit for bit.

def _bracket(asm, u, v, f, phi, phi_u, phi_v):
    """W = e^{-2F} and the bracket (A_u, A_v) = P / W of the assembler `asm`,
    with the terms the divergence differentiates: (r, F', G, c, z,
    S phi, (grad phi)^2, U(phi))."""
    r = v - u
    dF = asm.rep.dF(f)
    W = np.exp(-2.0 * asm.rep.F(f))
    G = asm.rep.G(f)
    c = (asm.n - 1) / 4.0 - f * dF
    z = (f * dF - (asm.n - 1) / 4.0) * dF - 0.5 * G
    Sphi = 0.5 * (u * phi_u + v * phi_v)
    Mg = -phi_u * phi_v + asm.lam * phi**2 / r**2
    Uval = asm.U.value(u, v, phi)
    A_u = Sphi * phi_u + (v / 2.0) * Mg - v * Uval + c * phi * phi_u - v * z * phi**2
    A_v = Sphi * phi_v + (u / 2.0) * Mg - u * Uval + c * phi * phi_v - u * z * phi**2
    return W, A_u, A_v, (r, dF, G, c, z, Sphi, Mg, Uval)


def bracket_components(asm, u, v, f, phi, phi_u, phi_v):
    """`CurrentAssembler.components` with the bracket in one piece."""
    W, A_u, A_v, _ = _bracket(asm, np.asarray(u, float), np.asarray(v, float),
                              f, phi, phi_u, phi_v)
    return W * A_u, W * A_v


def bracket_divergence(asm, u, v, f, phi, phi_u, phi_v, phi_uu, phi_uv, phi_vv):
    """`CurrentAssembler.divergence` with the bracket in one piece:

    div P = -(1/2)(d_u P_v + d_v P_u) - ((n-1)/(2r))(P_u - P_v).
    """
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    lam = asm.lam
    W, A_u, A_v, (r, dF, G, c, z, Sphi, Mg, Uval) = _bracket(
        asm, u, v, f, phi, phi_u, phi_v)
    d2F = asm.rep.d2F(f)
    dG = asm.rep.dG(f)
    # z = f (F')^2 - ((n-1)/4) F' - G/2
    z_f = dF**2 + 2.0 * f * dF * d2F - ((asm.n - 1) / 4.0) * d2F - 0.5 * dG

    udot = asm.U.udot(u, v, phi)
    P_u = W * A_u
    P_v = W * A_v

    dSphi_u = 0.5 * (phi_u + u * phi_uu + v * phi_uv)
    dSphi_v = 0.5 * (u * phi_uv + phi_v + v * phi_vv)
    dMg_u = -(phi_uu * phi_v + phi_u * phi_uv) + lam * (2.0 * phi**2 / r**3
                                                        + 2.0 * phi * phi_u / r**2)
    dMg_v = -(phi_uv * phi_v + phi_u * phi_vv) + lam * (-2.0 * phi**2 / r**3
                                                        + 2.0 * phi * phi_v / r**2)

    dU_u = asm.U.du_ext(u, v, phi) + udot * phi_u
    dU_v = asm.U.dv_ext(u, v, phi) + udot * phi_v

    dA_v_du = (dSphi_u * phi_v + Sphi * phi_uv
               + 0.5 * Mg + (u / 2.0) * dMg_u
               - Uval - u * dU_u
               - v * G * phi * phi_v + c * (phi_u * phi_v + phi * phi_uv)
               - z * phi**2 + u * v * z_f * phi**2 - 2.0 * u * z * phi * phi_u)
    dA_u_dv = (dSphi_v * phi_u + Sphi * phi_uv
               + 0.5 * Mg + (v / 2.0) * dMg_v
               - Uval - v * dU_v
               - u * G * phi * phi_u + c * (phi_u * phi_v + phi * phi_uv)
               - z * phi**2 + u * v * z_f * phi**2 - 2.0 * v * z * phi * phi_v)

    dP_v_du = 2.0 * v * dF * P_v + W * dA_v_du
    dP_u_dv = 2.0 * u * dF * P_u + W * dA_u_dv

    return -0.5 * (dP_v_du + dP_u_dv) - ((asm.n - 1) / (2.0 * r)) * (P_u - P_v)


# 0.0 and -0.0, NaNs with three bit patterns, both infinities and subnormals:
# equal or unordered values whose bits, and for the zeros whose text, differ
SPECIALS = np.concatenate((
    [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.5e-310, 1.5],
    np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64),
))


def special_values(grid, shift=0):
    """SPECIALS cycled over the grid's nodes, each repeated at many nodes."""
    return np.resize(np.roll(SPECIALS, shift), (grid.n_s, grid.n_y))


def csv_writer_file(path, header, columns):
    """The reference CSV: one `csv.writer` row per node in C order, each
    number as `repr(float(x))`."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i in range(columns[0].shape[0]):
            for j in range(columns[0].shape[1]):
                w.writerow([repr(float(x[i, j])) for x in columns])


def leapfrog_full_width(data, T, R, dr, n, U=ZeroU()):
    """The leapfrog of `solver.solve` updated, energy-summed and stored on
    every cell of the grid at every step: (times, slices, energy_drift).
    It makes the same floating-point operations in the same order, so the
    solver, which works only on the cells the data can reach, must match it
    bit for bit."""
    from conelab.solver import _CFL_LIMIT, _stored_steps

    nr = int(round(R / dr))
    r = (np.arange(nr) + 0.5) * dr
    lam = float(data.ell * (data.ell + n - 2))
    phi0 = np.asarray(data.profile(r), float)
    phi1 = np.asarray(data.velocity(r), float)
    nsteps = int(np.ceil(T / (_CFL_LIMIT * dr)))
    dt = T / nsteps
    stored = _stored_steps(nsteps)
    parity = (-1.0) ** data.ell
    r2, rn1 = r**2, r ** (n - 1)
    mass = rn1 * dr

    def rhs(phi):
        up = np.append(phi[1:], 0.0)
        dn = np.concatenate(([parity * phi[0]], phi[:-1]))
        out = (up - 2.0 * phi + dn) / dr**2 + (n - 1) / r * (up - dn) / (2.0 * dr)
        return out - lam * phi / r2

    def nonlin(phi, t):
        if U.is_zero:
            return 0.0
        V = np.asarray(U.V.value((t - r) / 2.0, (t + r) / 2.0), float)
        return U.sign * V * np.abs(phi) ** (U.p - 1.0) * phi

    def energy(a, b):
        vel = (b - a) / dt
        mid = 0.5 * (a + b)
        dmid = np.empty_like(mid)
        dmid[1:-1] = (mid[2:] - mid[:-2]) / (2.0 * dr)
        dmid[0] = (mid[1] - mid[0]) / dr
        dmid[-1] = (mid[-1] - mid[-2]) / dr
        e = (0.5 * vel**2 + lam * 0.5 * mid**2 / r2) * mass
        return float(np.add.reduce(e)) + float(np.add.reduce(0.5 * dmid**2 * rn1 * dr))

    def run(direction):
        prev = phi0.copy()
        cur = prev + dt * (direction * phi1) + 0.5 * dt**2 * (rhs(prev) + nonlin(prev, 0.0))
        rows, energies = [], []
        with np.errstate(over="ignore", invalid="ignore"):
            for m in range(1, nsteps + 1):
                if m > 1:
                    acc = rhs(cur) + nonlin(cur, direction * (m - 1) * dt)
                    prev, cur = cur, 2.0 * cur - prev + dt**2 * acc
                if m in stored:
                    rows.append(cur)
                    if U.is_zero:
                        energies.append(energy(prev, cur))
        return rows, energies

    fwd, fwd_e = run(+1)
    bwd, bwd_e = run(-1)
    pos = stored[1:] * dt
    times = np.concatenate((-pos[::-1], [0.0], pos))
    slices = np.array(bwd[::-1] + [phi0] + fwd)
    e = np.asarray(fwd_e + bwd_e)
    drift = float((e.max() - e.min()) / e.mean()) if e.size and e.mean() > 0 else float("nan")
    return times, slices, drift


def traced_peak(call):
    """call() and the tracemalloc peak of the call in bytes, counted from
    what was traced when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return out, peak


def block_arrays(fld, mode, pairs):
    """Per pair of `pairs`, the list of `verifier._identity_arrays` (LHS,
    RHS, the scale's maxima and the margin's terms) on each row block of
    `identity_checks(fld, mode, pairs, ...)`, in block order."""
    out = [[] for _ in pairs]
    calls = itertools.count()

    def check(fld, rep, U, stages):
        # each block runs the pairs in their order
        out[next(calls) % len(pairs)].append(
            verifier._identity_arrays(fld, rep, U, stages))
        return verifier.identity_residual(fld, rep, U, stages=stages)

    verifier.identity_checks(fld, mode, pairs, check)
    return out


def assert_same_block_bits(got, want):
    """Two lists of one pair's block arrays (`block_arrays`) are the same bits."""
    assert len(got) == len(want)
    for (lhs, rhs, maxima, terms), (lhs0, rhs0, maxima0, terms0) in zip(got, want):
        assert lhs.tobytes() == lhs0.tobytes()
        assert rhs.tobytes() == rhs0.tobytes()
        assert maxima == maxima0
        assert terms.keys() == terms0.keys()
        for key in terms0:
            assert terms[key].tobytes() == terms0[key].tobytes(), key


def whole_grid_fd(fld, order):
    """The FD derivatives of `order` (1, "wave" or 2, in the order of
    `ScalarField.fd_derivs`), each stencil run once on the field's whole
    grid, and the node arrays u and v formed from the grid's s and y."""
    g = fld.grid
    d1 = functools.partial(stencils.d1, order=g.order)
    d2 = functools.partial(stencils.d2, order=g.order)
    u = -np.exp((g.s[:, None] - g.y[None, :]) / 2.0)
    v = np.exp((g.s[:, None] + g.y[None, :]) / 2.0)
    phi = fld.values
    ps, py = d1(phi, g.ds, axis=0), d1(phi, g.dy, axis=1)
    first = (phi, (ps - py) / u, (ps + py) / v)
    if order == 1:
        return first
    pss, pyy = d2(phi, g.ds, axis=0), d2(phi, g.dy, axis=1)
    if order == "wave":
        return (*first, (pss - pyy) / (u * v))
    psy = d1(ps, g.dy, axis=1)
    return (*first, (pss - 2 * psy + pyy - (ps - py)) / u**2, (pss - pyy) / (u * v),
            (pss + 2 * psy + pyy - (ps + py)) / v**2)
