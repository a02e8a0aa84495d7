"""Radial weights F(f), their derived coefficients, and admissible potentials.

A reparametrization is a function F of the hyperbolic distance f used to
conjugate the wave operator.  The derived coefficients are

    G = -(f F')'        and        H = (f G)' / 2,

which enter the estimates through the bulk coefficient f |F'| G - H,
and the split pair used by the low/high estimates is one formula,

    F_s = -(a - s b) log f - (b/p) f^{s p},

with s = +1 for F_- (f <= 1) and s = -1 for F_+ (f >= 1),

with a > 0, 0 < p < 2a and 0 <= b < min(2a - p, 4p)/4.  Both branches share
F, F' and G at f = 1, which is what makes the matched estimate glue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    DomainError,
    InvalidInput,
    InvalidPotential,
    InvalidWeightParams,
    is_finite,
)

__all__ = [
    "SplitWeightParams",
    "Reparametrization",
    "PowerLog",
    "SplitWeight",
    "Potential",
    "gamma_v",
    "decay_envelope",
]


@dataclass(frozen=True)
class SplitWeightParams:
    """Admissible triple (a, b, p) for the split weights."""

    a: float
    b: float
    p: float

    def __post_init__(self):
        for name, val in (("a", self.a), ("b", self.b), ("p", self.p)):
            if not is_finite(val):
                raise InvalidWeightParams(f"{name} must be finite, got {val}")
        if not self.a > 0:
            raise InvalidWeightParams(f"need a > 0, got a={self.a}")
        if not 0 < self.p < 2 * self.a:
            raise InvalidWeightParams(f"need 0 < p < 2a, got p={self.p}, a={self.a}")
        cap = 0.25 * min(2 * self.a - self.p, 4 * self.p)
        if not 0 <= self.b < cap:
            raise InvalidWeightParams(
                f"need 0 <= b < min(2a - p, 4p)/4 = {cap}, got b={self.b}"
            )


def _asf(f):
    f = np.asarray(f, dtype=float)
    if np.any(~np.isfinite(f)):
        raise InvalidInput("f must be finite")
    if np.any(f <= 0):
        raise DomainError("weights are defined for f > 0 only")
    return f


class Reparametrization:
    """Base of the weights, which define F, dF, d2F, G = -(f F')' and dG;
    H follows from G and dG."""

    name = "base"

    @staticmethod
    def W(F):
        """The weight e^{-2F}, from the values of F."""
        return np.exp(-2.0 * F)

    def H(self, f):
        # H = (f G)'/2 = (G + f G')/2
        f = _asf(f)
        return 0.5 * (self.G(f) + f * self.dG(f))

    def bulk_coefficient(self, f):
        """f |F'| G - H, the coefficient of psi^2 that the estimates bound
        below (by b^2 p f^{+-p-1} for the split weights)."""
        return f * np.abs(self.dF(f)) * self.G(f) - self.H(f)


@dataclass(frozen=True)
class PowerLog(Reparametrization):
    """F = -a log f, the pure power weight e^{-2F} = f^{2a}."""

    a: float
    name = "power_log"

    def __post_init__(self):
        if not (is_finite(self.a) and self.a > 0):
            raise InvalidWeightParams(f"need a > 0, got {self.a}")

    def F(self, f):
        return -self.a * np.log(_asf(f))

    def dF(self, f):
        return -self.a / _asf(f)

    def d2F(self, f):
        return self.a / _asf(f) ** 2

    def G(self, f):
        return np.zeros_like(_asf(f))

    def dG(self, f):
        return np.zeros_like(_asf(f))


@dataclass(frozen=True)
class SplitWeight(Reparametrization):
    """Split weight of one branch, with s = +1 for 'low' (f <= 1) and -1 for
    'high' (f >= 1):  F = -(a - s b) log f - (b/p) f^{s p}."""

    params: SplitWeightParams
    branch: str

    def __post_init__(self):
        if self.branch not in ("low", "high"):
            raise InvalidInput(f"branch must be 'low' or 'high', got {self.branch!r}")

    @property
    def name(self):
        return f"split_{self.branch}"

    @property
    def s(self):
        return 1 if self.branch == "low" else -1

    def _args(self, f):
        return _asf(f), self.params.a, self.params.b, self.params.p, self.s

    def F(self, f):
        f, a, b, p, s = self._args(f)
        return -(a - s * b) * np.log(f) - (b / p) * f ** (s * p)

    def dF(self, f):
        f, a, b, p, s = self._args(f)
        return -(a - s * b) / f - s * b * f ** (s * p - 1)

    def d2F(self, f):
        f, a, b, p, s = self._args(f)
        return (a - s * b) / f**2 - b * (p - s) * f ** (s * p - 2)

    def G(self, f):
        f, a, b, p, s = self._args(f)
        return b * p * f ** (s * p - 1)

    def dG(self, f):
        f, a, b, p, s = self._args(f)
        return s * b * p * (p - s) * f ** (s * p - 2)

    def H(self, f):
        f, a, b, p, s = self._args(f)
        return s * 0.5 * b * p**2 * f ** (s * p - 1)


@dataclass(frozen=True)
class Potential:
    """Potential V(u, v) with its scaling log-derivative (u d_u + v d_v) log V.

    `du_log`/`dv_log` are the separate partials of log V; they are optional
    and unlock analytic current divergences for nonlinear terms.  The
    time-domain solver samples V only through `PowerU.udot`.
    """

    value: Callable
    scaling_log_derivative: Callable
    du_log: Optional[Callable] = None
    dv_log: Optional[Callable] = None
    label: str = "potential"

    @staticmethod
    def constant(c: float) -> "Potential":
        if not is_finite(c):
            raise InvalidPotential(f"constant potential must be finite, got {c}")
        return Potential(
            value=lambda u, v: np.full_like(np.asarray(u, float), c),
            scaling_log_derivative=lambda u, v: np.zeros_like(np.asarray(u, float)),
            du_log=lambda u, v: np.zeros_like(np.asarray(u, float)),
            dv_log=lambda u, v: np.zeros_like(np.asarray(u, float)),
            label=f"const({c})",
        )

    @staticmethod
    def power_of_f(c: float, amplitude: float = 1.0) -> "Potential":
        """V = amplitude * max(f, 0)^c.  (u d_u + v d_v) log f = 2, so the
        scaling log-derivative is 2c wherever f > 0."""
        if not (is_finite(amplitude) and is_finite(c)) or amplitude == 0:
            raise InvalidPotential("power_of_f needs finite c and nonzero amplitude")

        def _f(u, v):
            return np.maximum(-np.asarray(u, float) * np.asarray(v, float), 0.0)

        return Potential(
            value=lambda u, v: amplitude * _f(u, v) ** c,
            scaling_log_derivative=lambda u, v: np.where(_f(u, v) > 0.0, 2.0 * c, 0.0),
            du_log=lambda u, v: np.where(_f(u, v) > 0.0, c / np.asarray(u, float), 0.0),
            dv_log=lambda u, v: np.where(_f(u, v) > 0.0, c / np.asarray(v, float), 0.0),
            label=f"{amplitude}*f^{c}",
        )

    @staticmethod
    def saturating(B: float, beta: float, p: float, floor: float = 0.0) -> "Potential":
        """V = `decay_envelope` with amplitude B: extremal for the
        admissible-decay bound.  `floor` caps f away from the cone so the
        time-domain solver can cross f = 0."""
        if not (is_finite(B) and B > 0):
            raise InvalidPotential(f"amplitude bound B must be positive, got {B}")
        if not (is_finite(p) and is_finite(beta) and 0 < p < beta):
            raise InvalidPotential(f"need 0 < p < beta, got p={p}, beta={beta}")
        if not (is_finite(floor) and floor >= 0):
            raise InvalidPotential(f"floor must be finite and >= 0, got {floor}")

        def _f(u, v):
            return np.maximum(-np.asarray(u, float) * np.asarray(v, float), floor)

        def _slog(u, v):
            f = _f(u, v)
            # log V = log const + (-1 +- p/2) log f; scaling derivative of log f is 2
            expo = np.where(f <= 1.0, -1 + p / 2.0, -1 - p / 2.0)
            return np.where(f > floor, 2.0 * expo, 0.0)

        return Potential(
            value=lambda u, v: decay_envelope(_f(u, v), beta, p, B),
            scaling_log_derivative=_slog,
            label=f"saturating(B={B},beta={beta},p={p})",
        )


def decay_envelope(f, beta: float, p: float, B: float = 1.0):
    """Admissible-potential decay envelope B p min(beta-p, p) min(f^{-1+p/2}, f^{-1-p/2})."""
    if not (0 < p < beta):
        raise InvalidInput(f"need 0 < p < beta, got p={p}, beta={beta}")
    return B * p * min(beta - p, p) * np.minimum(f ** (-1 + p / 2.0), f ** (-1 - p / 2.0))


def gamma_v(V: Potential, a: float, p: float, u, v, n: int):
    """Gamma_V = (1/2)(u d_u + v d_v) log V - ((n-1+4a)/4)(p - 1 - 4/(n-1+4a))."""
    if not (is_finite(a) and a > 0):
        raise InvalidInput(f"need a > 0, got {a}")
    if not (is_finite(p) and p > 0):
        raise InvalidInput(f"need p > 0, got {p}")
    m = n - 1 + 4.0 * a
    shift = (m / 4.0) * (p - 1.0 - 4.0 / m)
    return 0.5 * V.scaling_log_derivative(u, v) - shift
