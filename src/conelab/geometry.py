"""Null coordinates, the hyperbolic/cone coordinate pair, and the exterior region.

Conventions: u = (t - r)/2, v = (t + r)/2, metric -4 du dv + r^2 dS^2 on the
exterior region D = {u < 0 < v}.  The square hyperbolic distance is f = -u v
and the cone parameter is h = -v/u; both are positive on D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidCutoffs, InvalidInput, OutsideExteriorRegion

__all__ = [
    "SpacetimePoint",
    "AdmissibleRegion",
    "Dimension",
    "null_from_rect",
    "rect_from_null",
    "in_exterior",
    "hyperbolic",
    "point_from_fh",
    "metric_data",
    "invert",
    "sphere_area",
]


def _check_finite(*vals):
    for x in vals:
        if not np.all(np.isfinite(x)):
            raise InvalidInput(f"non-finite coordinate value: {x!r}")


@dataclass(frozen=True)
class Dimension:
    """Spatial dimension n >= 2 of the underlying wave equation."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise InvalidInput(f"spatial dimension must be an integer >= 2, got {self.n}")


@dataclass(frozen=True)
class SpacetimePoint:
    """A point of the exterior region in null coordinates."""

    u: float
    v: float

    def __post_init__(self):
        _check_finite(self.u, self.v)
        if not in_exterior(self.u, self.v):
            raise OutsideExteriorRegion(f"(u, v) = ({self.u}, {self.v}) not in u < 0 < v")

    @property
    def t(self) -> float:
        return self.u + self.v

    @property
    def r(self) -> float:
        return self.v - self.u

    @property
    def f(self) -> float:
        return -self.u * self.v

    @property
    def h(self) -> float:
        return -self.v / self.u


@dataclass(frozen=True)
class AdmissibleRegion:
    """Coordinate box D^{sigma,tau}_{rho,omega} = {rho < f < omega, sigma < h < tau}."""

    rho: float
    omega: float
    sigma: float
    tau: float

    def __post_init__(self):
        _check_finite(self.rho, self.omega, self.sigma, self.tau)
        if not (0 < self.rho < self.omega and 0 < self.sigma < self.tau):
            raise InvalidCutoffs(
                f"need 0 < rho < omega and 0 < sigma < tau, got "
                f"rho={self.rho}, omega={self.omega}, sigma={self.sigma}, tau={self.tau}"
            )


def null_from_rect(t, r):
    """(t, r) -> (u, v) with u = (t-r)/2, v = (t+r)/2."""
    _check_finite(t, r)
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    return (t - r) / 2.0, (t + r) / 2.0


def rect_from_null(u, v):
    """(u, v) -> (t, r)."""
    _check_finite(u, v)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return u + v, v - u


def in_exterior(u, v):
    """Strict membership u < 0 < v."""
    return np.all(np.asarray(u) < 0) and np.all(np.asarray(v) > 0)


def hyperbolic(u, v):
    """(u, v) -> (f, h) = (-uv, -v/u).  Requires the point(s) in the exterior region."""
    _check_finite(u, v)
    if not in_exterior(u, v):
        raise OutsideExteriorRegion(f"(u, v) = ({u!r}, {v!r}) not in u < 0 < v")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return -u * v, -v / u


def point_from_fh(f, h):
    """(f, h) -> (u, v) = (-sqrt(f/h), sqrt(f h)); inverse of `hyperbolic`."""
    _check_finite(f, h)
    f = np.asarray(f, dtype=float)
    h = np.asarray(h, dtype=float)
    if np.any(f <= 0) or np.any(h <= 0):
        raise InvalidInput("f and h must be positive")
    return -np.sqrt(f / h), np.sqrt(f * h)


def metric_data(u, v, n: int):
    """Closed-form metric contractions of df and dh at (u, v), plus box f.

    Returns a dict with g(grad f, grad f) = f, g(grad f, grad h) = 0,
    g(grad h, grad h) = -f/u^4, box f = (n+1)/2, and the (u, v) volume
    density 2 r^{n-1}.
    """
    Dimension(n)
    f, h = hyperbolic(u, v)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    r = v - u
    return {
        "grad_f_sq": f,
        "grad_f_dot_grad_h": np.zeros_like(f),
        "grad_h_sq": -f / u**4,
        "box_f": np.full_like(f, (n + 1) / 2.0),
        "volume_density": 2.0 * r ** (n - 1),
    }


def invert(u, v):
    """Conformal inversion (u, v) -> (-1/v, -1/u): swaps f -> 1/f, fixes h."""
    _check_finite(u, v)
    if not in_exterior(u, v):
        raise OutsideExteriorRegion("inversion defined on the exterior region only")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return -1.0 / v, -1.0 / u


def sphere_area(n: int) -> float:
    """Area of the unit (n-1)-sphere."""
    Dimension(n)
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
