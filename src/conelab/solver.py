"""Radial time-domain evolution of wave fields, plus reference solutions.

A single angular mode phi_hat(t, r) obeys

    d_t^2 phi = d_r^2 phi + ((n-1)/r) d_r phi - lam phi / r^2
                + sign * V(t, r) |phi|^{p-1} phi,        lam = ell (ell + n - 2),

discretized leapfrog on a staggered radial grid r_j = (j + 1/2) dr with mirror
parity phi(-r) = (-1)^ell phi(r) at the origin and a homogeneous outer value
that causality keeps irrelevant (enforced by a domain-size check).  Runs go
both forward and backward in time (the backward leg evolves with negated
initial velocity and the potential sampled at negative times), so the result
spans a symmetric time strip around the data surface.  The three-point
stencil moves data by at most one cell per step and dU/dphi is 0 at phi = 0,
so data that vanish past cell b0 evolve to exactly zero past b0 + m at step
m: each step is computed only on that band, and the result stores each kept
step only on the cells the band reaches by then (its `slices` pads them with
zeros).

Also here: the Cauchy data of `fields.exact_spherical_wave`, the convergence
and finite-speed reference, and the construction of a compactly supported
bounded potential admitting a nontrivial static solution with two-sided power
decay (the obstruction example for the estimates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from .currents import PowerU, ZeroU, _check_mode
from .errors import (
    DomainTooSmall,
    InvalidInput,
    RegionOutOfGrid,
    UnstableStep,
    check_dimension,
    is_finite,
    is_int,
)
from .fields import GridSpec, ScalarField, TensorSpline, _width, wave_op

__all__ = [
    "CauchyData",
    "EvolutionResult",
    "solve",
    "spherical_wave_data",
    "CounterexampleBundle",
    "counterexample_build",
]

MAX_STORED_SLICES = 1024
_CFL_LIMIT = 0.9

# Samples kept on each side of the block a resampled grid spans.  An
# interpolating quintic spline's dependence on one sample decays by a factor
# |lambda| = 0.4306 per knot, lambda the dominant root of the quintic
# Euler-Frobenius polynomial.  A sample PAD knots outside the block moves the
# spline on the grid by 0.4306**64 ~ 4e-24 of its size, below double
# rounding, so the fit on the padded block gives the full-strip values.
PAD = 64
# Radii kept between the domain of influence, R_support + T, and the outer edge.
OUTER_PAD = 1.0


@dataclass(frozen=True)
class CauchyData:
    """Initial profile and velocity for one angular mode at t = 0."""

    profile: Callable  # phi(0, r)
    velocity: Callable  # d_t phi(0, r)
    ell: int = 0
    label: str = "data"

    def __post_init__(self):
        if not is_int(self.ell) or self.ell < 0:
            raise InvalidInput(f"ell must be a nonnegative integer, got {self.ell}")


@dataclass
class EvolutionResult:
    """Sampled evolution phi(t_i, r_j) over a symmetric time strip.

    Each time slice keeps only the cells the leapfrog's domain of influence
    reaches by its time: row i of phi is band[starts[i]:starts[i + 1]], on
    the leading radii r[:starts[i + 1] - starts[i]], and phi is exactly
    +0.0 on every later cell."""

    times: np.ndarray
    r: np.ndarray
    band: np.ndarray  # the rows' stored cells back to back, flat
    starts: np.ndarray  # (len(times) + 1,) row offsets into band
    n: int
    ell: int
    dr: float
    dt: float
    energy_drift: float
    meta: dict = dc_field(default_factory=dict)

    @property
    def slices(self) -> np.ndarray:
        """phi on the whole (times, r) grid, (len(times), len(r)): `band`
        padded with zeros.  A new array on each read, so writing to it
        changes nothing."""
        return self._padded(0, len(self.times), 0, len(self.r))

    def _padded(self, i0, i1, j0, j1) -> np.ndarray:
        """A new array of slices[i0:i1, j0:j1]: zeros, and each row's
        stored cells where they overlap the columns."""
        out = np.zeros((i1 - i0, j1 - j0))
        starts = self.starts[i0:i1 + 1].tolist()
        for row, a, b in zip(out, starts, starts[1:]):
            part = self.band[min(a + j0, b):min(a + j1, b)]
            row[:len(part)] = part
        return out

    def spline(self, window: tuple) -> TensorSpline:
        """A new quintic spline over (times, r) fitted on the samples
        slices[i0:i1, j0:j1] of the index bounds window = (i0, i1, j0, j1),
        each row's stored cells followed by zeros.  `field_on` builds one per
        window."""
        i0, i1, j0, j1 = window
        return TensorSpline(self.times[i0:i1], self.r[j0:j1], self._padded(*window))

    def _window(self, T: np.ndarray, R: np.ndarray) -> tuple:
        """Index bounds (i0, i1, j0, j1) of the samples bracketing the times
        T and radii R, widened by PAD on each side and clipped to the strip."""
        def bounds(x, lo, hi):
            a = np.searchsorted(x, lo, side="right") - 1 - PAD
            b = np.searchsorted(x, hi, side="left") + 1 + PAD
            return max(int(a), 0), min(int(b), len(x))

        return (*bounds(self.times, np.min(T), np.max(T)),
                *bounds(self.r, np.min(R), np.max(R)))

    def field_on(self, grid: GridSpec) -> ScalarField:
        """Resample onto an exterior-region grid (raises if not covered).

        The spline is fitted only on the samples the grid spans plus PAD on
        each side, once per such window and result, so grids that span the
        same block share one fit.  The field is of the evolution's mode."""
        if grid.n != self.n:
            raise InvalidInput("grid dimension does not match the evolution")
        T, R = grid.T, grid.R
        if (np.max(np.abs(T)) > self.times[-1] + 1e-12
                or np.max(R) > self.r[-1] + 1e-12
                or np.min(R) < self.r[0] - 1e-12):
            raise RegionOutOfGrid("grid extends beyond the sampled evolution")
        window = self._window(T, R)
        cache = self.__dict__.setdefault("_interpolants", {})
        sp = cache.get(window)
        if sp is None:
            sp = cache[window] = self.spline(window)
        vals = sp.ev(np.ravel(T), np.ravel(R)).reshape(T.shape)
        return ScalarField(grid, vals, name=self.meta.get("label", "evolved"), ell=self.ell)


def _wave_rhs(r, r2, dr, lam, n, ell):
    """The spatial operator as a function rhs(phi, out) that writes into out,
    with mirror parity at the origin and a zero ghost past the last cell of
    phi, which may be any leading part r[:w] of the grid; its coefficients
    and neighbour and scratch buffers are built once per evolution."""
    up = np.empty_like(r)
    dn = np.empty_like(r)
    tmp = np.empty_like(r)
    parity = (-1.0) ** ell
    dr2 = dr**2
    two_dr = 2.0 * dr
    drift = (n - 1) / r

    def rhs(phi, out):
        # (up - 2 phi + dn) / dr2 + drift (up - dn) / two_dr - lam phi / r2,
        # operation by operation in the order of that expression
        w = len(phi)
        u, d, t = up[:w], dn[:w], tmp[:w]
        u[:-1] = phi[1:]
        u[-1] = 0.0
        d[1:] = phi[:-1]
        d[0] = parity * phi[0]
        np.multiply(2.0, phi, out=out)
        np.subtract(u, out, out=out)
        np.add(out, d, out=out)
        np.divide(out, dr2, out=out)
        np.subtract(u, d, out=t)
        np.multiply(drift[:w], t, out=t)
        np.divide(t, two_dr, out=t)
        np.add(out, t, out=out)
        np.multiply(lam, phi, out=t)
        np.divide(t, r2[:w], out=t)
        return np.subtract(out, t, out=out)

    return rhs


def _stored_steps(nsteps: int) -> np.ndarray:
    """Up to MAX_STORED_SLICES // 2 distinct steps evenly spread from 0 to
    nsteps: each entry of the rounded linspace, non-decreasing from 0, that
    differs from the one before it (np.unique would import numpy.ma)."""
    idx = np.round(np.linspace(0, nsteps, min(MAX_STORED_SLICES // 2, nsteps + 1)))
    return idx[np.diff(idx, prepend=-1) > 0].astype(int)


def solve(data: CauchyData, *, T: float, R: float, dr: float, n: int,
          U: PowerU | ZeroU = ZeroU(),
          support_radius: Optional[float] = None) -> EvolutionResult:
    """Evolve Cauchy data over t in [-T, T].

    The outer radius must exceed the data's support radius plus T plus
    OUTER_PAD, so the zero outer value is never reached by the domain of
    influence.
    """
    if not all(is_finite(x) and x > 0 for x in (T, R, dr)):
        raise InvalidInput(f"T, R, dr must be finite and positive, got {T}, {R}, {dr}")
    check_dimension(n)
    _check_mode(U, data.ell)

    nr = int(round(R / dr))
    r = (np.arange(nr) + 0.5) * dr
    lam = float(data.ell * (data.ell + n - 2))
    phi0 = np.asarray(data.profile(r), float)
    phi1 = np.asarray(data.velocity(r), float)
    if phi0.shape != r.shape or phi1.shape != r.shape:
        raise InvalidInput("data callables must return one value per radius")

    if support_radius is None:
        amp = np.abs(phi0) + np.abs(phi1)
        nz = np.nonzero(amp > 1e-14 * max(np.max(amp), 1e-300))[0]
        support_radius = float(r[nz[-1]]) if nz.size else 0.0
    if R < support_radius + T + OUTER_PAD:
        raise DomainTooSmall(
            f"outer radius {R} < support {support_radius} + T {T} + pad {OUTER_PAD}")

    nsteps = int(math.ceil(T / (_CFL_LIMIT * dr)))
    dt = T / nsteps  # land exactly on t = +-T, at most _CFL_LIMIT * dr

    # b0 is one past the last cell where phi0 has nonzero bits (-0.0 counts)
    # or phi1 != 0.  The stencil reaches one cell per step and dU/dphi is 0 at
    # phi = 0, so at step m every cell from b0 + m on is exactly +0.0: the step,
    # its blow-up check and the energy's elementwise work run on that band only.
    live = np.flatnonzero((phi0 != 0) | np.signbit(phi0) | (phi1 != 0))
    b0 = int(live[-1]) + 1 if live.size else 0

    store_idx = _stored_steps(nsteps)
    stored = store_idx.tolist()  # from 0, the data, to nsteps, the last step
    n_store = len(stored)
    # rows n_store - 1 + k and n_store - 1 - k hold the forward and backward
    # step stored[k] on its band, the cells [:min(nr, b0 + stored[k])]; each
    # run writes its stored steps straight into them
    widths = np.minimum(nr, b0 + np.concatenate((store_idx[::-1], store_idx[1:])))
    starts = np.concatenate(([0], np.cumsum(widths)))
    band = np.empty(starts[-1])
    band[starts[n_store - 1]:starts[n_store]] = phi0[:b0]
    pos = store_idx[1:] * dt
    times = np.concatenate((-pos[::-1], [0.0], pos))

    scale0 = max(float(np.max(np.abs(phi0))), float(np.max(np.abs(phi1))), 1e-300)

    def nonlin(phi, t):
        if U.is_zero:
            return 0.0
        rw = r[:len(phi)]
        return U.udot((t - rw) / 2.0, (t + rw) / 2.0, phi)

    r2 = r**2
    rhs = _wave_rhs(r, r2, dr, lam, n, data.ell)
    dt2 = dt**2
    two_dr = 2.0 * dr
    rn1 = r ** (n - 1)
    mass = rn1 * dr
    acc, tmp, mid, dmid = (np.empty_like(r) for _ in range(4))

    def half_step_energy(phi_a, phi_b, w):
        """Leapfrog energy at the half step between consecutive slices:
        sum((0.5 vel^2 + lam 0.5 mid^2 / r2) mass) + sum(0.5 dmid^2 rn1 dr),
        with vel = (phi_b - phi_a) / dt, mid = 0.5 (phi_a + phi_b) and dmid
        the centred difference of mid (one-sided at the ends, as np.gradient).
        The terms are computed on the cells [:w], two past the band of
        phi_b (dmid reaches one cell past mid, and its centred difference
        reads one more), or on all nr; each sum still runs over the whole
        zero-filled buffer, since pairwise summation groups terms by array
        length."""
        a, b = phi_a[:w], phi_b[:w]
        vel, md, dm = tmp[:w], mid[:w], dmid[:w]
        np.subtract(b, a, out=vel)
        np.divide(vel, dt, out=vel)
        np.add(a, b, out=md)
        np.multiply(0.5, md, out=md)
        np.subtract(md[2:], md[:-2], out=dm[1:-1])
        np.divide(dm[1:-1], two_dr, out=dm[1:-1])
        dm[0] = (md[1] - md[0]) / dr
        if w == nr:
            dm[-1] = (md[-1] - md[-2]) / dr
        np.square(vel, out=vel)
        np.multiply(0.5, vel, out=vel)
        np.square(md, out=md)
        np.multiply(lam * 0.5, md, out=md)
        np.divide(md, r2[:w], out=md)
        np.add(vel, md, out=vel)
        np.multiply(vel, mass[:w], out=vel)
        np.square(dm, out=dm)
        np.multiply(0.5, dm, out=dm)
        np.multiply(dm, rn1[:w], out=dm)
        np.multiply(dm, dr, out=dm)
        return float(np.add.reduce(tmp)) + float(np.add.reduce(dmid))

    def run(direction: int):
        """direction +1: forward; -1: backward (velocity negated, t -> -t).
        Writes step stored[k] into row n_store - 1 + direction k for k >= 1."""
        # the energy sums read tmp and dmid whole: clear what the last run
        # left past the band
        tmp.fill(0.0)
        dmid.fill(0.0)
        phi_prev = phi0.copy()
        phi_cur = np.zeros_like(r)
        w = min(nr, b0 + 1)
        acc0 = rhs(phi_prev[:w], acc[:w]) + nonlin(phi_prev[:w], 0.0)
        phi_cur[:w] = phi_prev[:w] + dt * (direction * phi1[:w]) + 0.5 * dt2 * acc0
        energies = []
        k = 1
        with np.errstate(over="ignore", invalid="ignore"):
            for m in range(1, nsteps + 1):
                w = min(nr, b0 + m)
                if m > 1:
                    t_here = direction * (m - 1) * dt
                    # 2 phi_cur - phi_prev + dt2 (rhs + nonlin), into phi_prev's
                    # buffer; adding nonlin's 0.0 keeps the sign of zero as is
                    cur, prev, a = phi_cur[:w], phi_prev[:w], acc[:w]
                    rhs(cur, a)
                    np.add(a, nonlin(cur, t_here), out=a)
                    np.multiply(2.0, cur, out=tmp[:w])
                    np.subtract(tmp[:w], prev, out=prev)
                    np.multiply(dt2, a, out=a)
                    np.add(prev, a, out=prev)
                    phi_cur, phi_prev = phi_prev, phi_cur
                if m == stored[k]:
                    mx = float(np.max(np.abs(phi_cur[:w], out=tmp[:w])))
                    if not np.isfinite(mx) or mx > 1e12 * scale0:
                        raise UnstableStep(f"field blew up at step {m} (max {mx:.3e})")
                    i = n_store - 1 + direction * k
                    band[starts[i]:starts[i + 1]] = phi_cur[:w]
                    k += 1
                    if U.is_zero:
                        energies.append(half_step_energy(phi_prev, phi_cur, min(nr, w + 2)))
        return energies

    fwd_e = run(+1)
    bwd_e = run(-1)

    energies = np.asarray(fwd_e + bwd_e)
    if energies.size and np.mean(energies) > 0:
        drift = float((np.max(energies) - np.min(energies)) / np.mean(energies))
    else:
        drift = math.nan

    return EvolutionResult(times=times, r=r, band=band, starts=starts, n=n, ell=data.ell,
                           dr=dr, dt=dt, energy_drift=drift,
                           meta={"label": data.label, "support_radius": support_radius,
                                 "nsteps": nsteps, "cfl": _CFL_LIMIT,
                                 "nonlinearity": getattr(U, "label", None)})


def spherical_wave_data(width: float = 1.0, power: int = 6) -> CauchyData:
    """Cauchy data whose evolution is `exact_spherical_wave` (n = 3)."""
    w = _width(width)
    if not math.isfinite(w * w):
        raise InvalidInput(f"width must have a finite square, got {w!r}")

    def profile(r):
        return np.zeros_like(np.asarray(r, float))

    def velocity(r):
        r = np.asarray(r, float)
        inside = r**2 < w**2
        # g'(x) = -2 power x / w^2 (1 - x^2/w^2)^{power-1}
        gp = np.where(inside,
                      -2.0 * power * r / w**2 * np.clip(1 - r**2 / w**2, 0, None) ** (power - 1),
                      0.0)
        return -2.0 * gp / r

    return CauchyData(profile=profile, velocity=velocity, ell=0, label="spherical-wave")


# ---------------------------------------------------------------------------
# obstruction example: bounded compactly supported potential with a
# two-sided-power static solution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CounterexampleBundle:
    q_plus: float
    q_minus: float
    ell: int
    a: float
    n: int
    beta: Callable
    dbeta: Callable
    d2beta: Callable
    potential: Callable  # U(r), supported in [1, 2]
    support: tuple

    def residual(self, r) -> np.ndarray:
        """Static-equation residual beta'' + (n-1)/r beta' - a beta / r^2 + U beta:
        `wave_op` at lam = a on beta(v - u), whose (phi_u, phi_v, phi_uv) are
        (-beta', beta', -beta'')."""
        r = np.asarray(r, float)
        beta, dbeta = self.beta(r), self.dbeta(r)
        return wave_op(self.n, self.a, r, beta, -dbeta, dbeta, -self.d2beta(r)) \
            + self.potential(r) * beta


def counterexample_build(n: int = 3, a: float = 6.0) -> CounterexampleBundle:
    """Glue the growing and decaying power solutions of the a/r^2 mode equation.

    q(q + n - 2) = a has roots q_+ > 0 > q_-; beta follows r^{q_+} for r <= 1
    and r^{q_-} for r >= 2, bridged on [1, 2] by a quintic Hermite interpolant
    of log beta matching value and two derivatives at both ends.  The bounded
    potential U = -(w'' + w'^2) - (n-1) w'/r + a/r^2 (w = log beta) vanishes
    identically outside [1, 2] and makes beta an exact static solution.
    """
    if not is_int(n) or n < 3:
        raise InvalidInput(f"need an integer n >= 3 for a decaying branch, got {n}")
    if not (is_finite(a) and a > 0):
        raise InvalidInput(f"need a finite a > 0, got {a}")
    disc = (n - 2) ** 2 + 4.0 * a
    if not math.isfinite(disc):
        raise InvalidInput(f"need a whose (n - 2)^2 + 4 a is a finite float, got a = {a}")
    q_plus = (-(n - 2) + math.sqrt(disc)) / 2.0
    q_minus = (-(n - 2) - math.sqrt(disc)) / 2.0
    ell = int(round(q_plus))
    if abs(ell * (ell + n - 2) - a) > 1e-12:
        ell = -1  # no integer mode carries this a; the bundle is still valid

    # quintic Hermite bridge for w = log beta on [1, 2], in the Bernstein
    # basis of r - 1: the value and two derivatives of log r^{q_+} at 1 fix
    # the three coefficients at that end, those of log r^{q_-} at 2 the others
    w1, dw1, d2w1 = 0.0, q_plus, -q_plus
    w2, dw2, d2w2 = q_minus * math.log(2.0), q_minus / 2.0, -q_minus / 4.0
    w = [w1, w1 + dw1 / 5.0, w1 + 2.0 * dw1 / 5.0 + d2w1 / 20.0,
         w2 - 2.0 * dw2 / 5.0 + d2w2 / 20.0, w2 - dw2 / 5.0, w2]
    dw = [5.0 * (y - x) for x, y in zip(w, w[1:])]
    d2w = [4.0 * (y - x) for x, y in zip(dw, dw[1:])]

    def bridge(coef, r):
        """The polynomial with Bernstein coefficients `coef` at r, clipped to
        [1, 2], by de Casteljau's algorithm."""
        s = np.clip(r, 1.0, 2.0) - 1.0
        b = coef
        while len(b) > 1:
            b = [(1.0 - s) * x + s * y for x, y in zip(b, b[1:])]
        return b[0]

    def glued(inner, outer, mid):
        """beta's rule: inner(r) for r <= 1, outer(r) for r >= 2, mid(r) between."""
        def at(r):
            r = np.asarray(r, float)
            return np.where(r <= 1.0, inner(r), np.where(r >= 2.0, outer(r), mid(r)))
        return at

    beta = glued(lambda r: r**q_plus, lambda r: r**q_minus, lambda r: np.exp(bridge(w, r)))
    dbeta = glued(lambda r: q_plus * r ** (q_plus - 1), lambda r: q_minus * r ** (q_minus - 1),
                  lambda r: np.exp(bridge(w, r)) * bridge(dw, r))
    d2beta = glued(lambda r: q_plus * (q_plus - 1) * r ** (q_plus - 2),
                   lambda r: q_minus * (q_minus - 1) * r ** (q_minus - 2),
                   lambda r: np.exp(bridge(w, r)) * (bridge(d2w, r) + bridge(dw, r) ** 2))

    def potential(r):
        r = np.asarray(r, float)
        wp = bridge(dw, r)
        wpp = bridge(d2w, r)
        inside = (r > 1.0) & (r < 2.0)
        return np.where(inside, -(wpp + wp**2) - (n - 1) * wp / r + a / r**2, 0.0)

    return CounterexampleBundle(q_plus=q_plus, q_minus=q_minus, ell=ell, a=a, n=n,
                                beta=beta, dbeta=dbeta, d2beta=d2beta,
                                potential=potential, support=(1.0, 2.0))
