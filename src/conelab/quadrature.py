"""Gauss-Legendre quadrature over level sets of f and h and over bulk regions.

Surface measures (sphere-averaged; a single normalized mode contributes
factor 1 to quadratic integrands, a mode-independent integrand carries the
full sphere area):

    level set f = omega (parametrized by t, r = sqrt(t^2 + 4 omega)):
        integral = 2 sqrt(omega) * int Psi r^{n-2} dt,
        t from sqrt(omega)(sqrt(sigma) - 1/sqrt(sigma))
          to sqrt(omega)(sqrt(tau)  - 1/sqrt(tau));

    level set h = tau (parametrized by r, t = r (tau-1)/(tau+1)):
        integral = 2 * int sqrt(f) Psi r^{n-2} dr,
        r from sqrt(rho)(sqrt(tau) + 1/sqrt(tau))
          to sqrt(omega)(sqrt(tau) + 1/sqrt(tau));

    bulk: integral = int int Psi r^{n-1} f ds dy  (s = log f, y = log h).

The inverted-chart route maps (u, v) -> (-1/v, -1/u), under which f -> 1/f
and h -> h, and evaluates the same f-level integral near the inverted light
cone:  int_{f=omega} Psi = 2 omega^{n-1/2} int Psi(point map) rbar^{n-2} dtbar
on the chart level fbar = 1/omega.

`face_flux` integrates the flux of a current through the unit normal of one
face, its contraction `flux(u, v, face)` (P.grad f on face f, u^2 P.grad h
on face h) over f^{1/2}; `boundary_sum` assembles the four oriented face
fluxes, whose total equals the bulk integral of div P over the region
(outward orientation, inner terms subtracted).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInput, check_dimension, is_finite, is_int
from .geometry import AdmissibleRegion

__all__ = [
    "gl_nodes",
    "hyperboloid_t_window",
    "hyperboloid_integral",
    "inverted_hyperboloid_integral",
    "cone_integral",
    "bulk_integral",
    "BoundarySum",
    "face_flux",
    "boundary_sum",
]

DEFAULT_NODES = 128
BULK_POINTS = 4096  # nodes per `bulk_integral` integrand call: one `fields.EV_BLOCK`


@functools.lru_cache(maxsize=None)
def _gl_reference(m: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], solved once per m."""
    x, w = np.polynomial.legendre.leggauss(m)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gl_nodes(lo: float, hi: float, m: int):
    """Gauss-Legendre nodes and weights mapped to [lo, hi]."""
    if not is_int(m) or m < 2:
        raise InvalidInput(f"need an integer >= 2 quadrature nodes, got {m}")
    if not (is_finite(lo) and is_finite(hi)):
        raise InvalidInput("quadrature window must be finite")
    if hi < lo:
        raise InvalidInput(f"empty quadrature window [{lo}, {hi}]")
    x, w = _gl_reference(m)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid + half * x, half * w


def hyperboloid_t_window(omega: float, sigma: float, tau: float):
    """t-range cut out of the level set f = omega by sigma <= h <= tau."""
    ro = math.sqrt(omega)
    return (ro * (math.sqrt(sigma) - 1.0 / math.sqrt(sigma)),
            ro * (math.sqrt(tau) - 1.0 / math.sqrt(tau)))


def _f_level_nodes(level: float, window, explicit, nodes: int):
    """Gauss-Legendre nodes on the level set f = level: the weights, r, u and
    v, or None when the cut is empty.  The cut is `explicit`, a fixed (lo, hi)
    time window, or else the t-range the hyperbolic window (sigma, tau) cuts
    out of the level set.  Exactly one of the two must be given."""
    if (window is None) == (explicit is None):
        raise InvalidInput("give the cut either as a window (sigma, tau) or as a "
                           "fixed time window, not both or neither")
    if explicit is not None:
        lo, hi = explicit
    else:
        sigma, tau = window
        if not (0 < sigma <= tau):
            raise InvalidInput(f"need 0 < sigma <= tau, got ({sigma}, {tau})")
        lo, hi = hyperboloid_t_window(level, sigma, tau)
    lo, hi = float(lo), float(hi)
    if hi <= lo:
        return None
    t, w = gl_nodes(lo, hi, nodes)
    r = np.sqrt(t * t + 4.0 * level)
    return w, r, 0.5 * (t - r), 0.5 * (t + r)


def hyperboloid_integral(fn: Callable, omega: float, window=None, *, n: int,
                         nodes: int = DEFAULT_NODES, t_window=None) -> float:
    """Integral of fn(u, v) over the f = omega level set.

    The cut is given either as a hyperbolic window (sigma, tau) or directly
    as `t_window` (used when a fixed time window must be held while omega or
    the cuts move).
    """
    check_dimension(n)
    if omega <= 0:
        raise InvalidInput(f"need omega > 0, got {omega}")
    pts = _f_level_nodes(omega, window, t_window, nodes)
    if pts is None:
        return 0.0
    w, r, u, v = pts
    vals = np.asarray(fn(u, v), float)
    return 2.0 * math.sqrt(omega) * float(np.sum(w * vals * r ** (n - 2)))


def inverted_hyperboloid_integral(fn: Callable, omega: float, window=None, *, n: int,
                                  nodes: int = DEFAULT_NODES, tbar_window=None) -> float:
    """Same f = omega integral computed on the inverted chart fbar = 1/omega.

    The point map u = -1/vbar, v = -1/ubar preserves h, so the hyperbolic
    window transfers verbatim; a fixed `tbar_window` plays the role of a
    fixed time cut near the inverted cone tip as omega grows.
    """
    check_dimension(n)
    if omega <= 0:
        raise InvalidInput(f"need omega > 0, got {omega}")
    pts = _f_level_nodes(1.0 / omega, window, tbar_window, nodes)
    if pts is None:
        return 0.0
    w, rb, ub, vb = pts
    vals = np.asarray(fn(-1.0 / vb, -1.0 / ub), float)
    return 2.0 * omega ** (n - 0.5) * float(np.sum(w * vals * rb ** (n - 2)))


def cone_integral(fn: Callable, tau: float, window, *, n: int,
                  nodes: int = DEFAULT_NODES) -> float:
    """Integral of fn(u, v) over the h = tau level set, cut by window = (rho, omega) of f."""
    check_dimension(n)
    if tau <= 0:
        raise InvalidInput(f"need tau > 0, got {tau}")
    rho, omega = window
    if not (0 < rho <= omega):
        raise InvalidInput(f"need 0 < rho <= omega, got ({rho}, {omega})")
    # the r-range that rho <= f <= omega cuts out of h = tau
    c = math.sqrt(tau) + 1.0 / math.sqrt(tau)
    rlo, rhi = math.sqrt(rho) * c, math.sqrt(omega) * c
    if rhi <= rlo:
        return 0.0
    r, w = gl_nodes(rlo, rhi, nodes)
    t = r * (tau - 1.0) / (tau + 1.0)
    u = 0.5 * (t - r)
    v = 0.5 * (t + r)
    f = -u * v
    vals = np.asarray(fn(u, v), float)
    return 2.0 * float(np.sum(w * np.sqrt(f) * vals * r ** (n - 2)))


def bulk_integral(fn: Callable, region: AdmissibleRegion, *, n: int,
                  nodes: int = DEFAULT_NODES):
    """Integral of fn(u, v) over the region with the spacetime volume measure.

    An integrand returning a tuple of k arrays gets a tuple of k integrals,
    all taken on one node mesh.  `fn` must be pointwise, with no max or
    normalisation over the mesh: it sees row blocks of at most BULK_POINTS
    nodes (or one row), whose weighted values fill one mesh per output.
    """
    check_dimension(n)
    s, ws = gl_nodes(math.log(region.rho), math.log(region.omega), nodes)
    y, wy = gl_nodes(math.log(region.sigma), math.log(region.tau), nodes)
    rows = max(1, BULK_POINTS // nodes)
    for lo in range(0, nodes, rows):
        S, Y = np.meshgrid(s[lo:lo + rows], y, indexing="ij")
        F = np.exp(S)
        H = np.exp(Y)
        u = -np.sqrt(F / H)
        v = np.sqrt(F * H)
        rn = (v - u) ** (n - 1)
        out = fn(u, v)
        outs = out if isinstance(out, tuple) else (out,)
        if lo == 0:
            meshes = [np.empty((nodes, nodes)) for _ in outs]
        for mesh, vals in zip(meshes, outs):
            mesh[lo:lo + rows] = np.asarray(vals, float) * rn * F
    ints = tuple(float(ws @ mesh @ wy) for mesh in meshes)
    return ints if isinstance(out, tuple) else ints[0]


@dataclass(frozen=True)
class BoundarySum:
    """Oriented flux terms over the four faces of an admissible region."""

    f_omega: float
    f_rho: float
    h_tau: float
    h_sigma: float

    @property
    def total(self) -> float:
        return self.f_omega - self.f_rho + self.h_tau - self.h_sigma

    def as_dict(self) -> dict:
        return {"f_omega": self.f_omega, "f_rho": self.f_rho,
                "h_tau": self.h_tau, "h_sigma": self.h_sigma,
                "total": self.total}


def face_flux(flux: Callable, face: str, level: float, region: AdmissibleRegion,
              *, n: int, nodes: int) -> float:
    """Flux of a current through the unit normal of the face f = level, cut
    by the region's (sigma, tau) (face 'f'), or of the face h = level, cut by
    its (rho, omega) (face 'h').  `flux(u, v, face)` is the current's
    contraction on that face (`CurrentField.flux`); the unit normal divides
    it by f^{1/2} = sqrt(-u v)."""
    def fn(u, v):
        return np.asarray(flux(u, v, face), float) / np.sqrt(-u * v)

    if face == "f":
        return hyperboloid_integral(fn, level, (region.sigma, region.tau), n=n, nodes=nodes)
    if face == "h":
        return cone_integral(fn, level, (region.rho, region.omega), n=n, nodes=nodes)
    raise InvalidInput(f"face must be 'f' or 'h', got {face!r}")


def boundary_sum(flux: Callable, region: AdmissibleRegion, *, n: int,
                 nodes: int = DEFAULT_NODES) -> BoundarySum:
    """Unit-normal flux integrals (`face_flux`) of a current over the
    region's four faces, from its contractions `flux(u, v, face)`.  The
    signed total (outer minus inner on each foliation) equals the bulk
    integral of div P for any differentiable current.
    """
    at = functools.partial(face_flux, flux, region=region, n=n, nodes=nodes)
    return BoundarySum(f_omega=at("f", region.omega), f_rho=at("f", region.rho),
                       h_tau=at("h", region.tau), h_sigma=at("h", region.sigma))
