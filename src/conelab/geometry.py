"""The admissible regions of the exterior.

Conventions: u = (t - r)/2, v = (t + r)/2, metric -4 du dv + r^2 dS^2 on the
exterior region D = {u < 0 < v}.  The square hyperbolic distance is f = -u v
and the cone parameter is h = -v/u; both are positive on D.  The modules that
need these maps compute them inline, on grids and at quadrature nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidCutoffs, InvalidInput, is_finite

__all__ = ["AdmissibleRegion"]


@dataclass(frozen=True)
class AdmissibleRegion:
    """Coordinate box D^{sigma,tau}_{rho,omega} = {rho < f < omega, sigma < h < tau}."""

    rho: float
    omega: float
    sigma: float
    tau: float

    def __post_init__(self):
        for x in (self.rho, self.omega, self.sigma, self.tau):
            if not is_finite(x):
                raise InvalidInput(f"non-finite coordinate value: {x!r}")
        if not (0 < self.rho < self.omega and 0 < self.sigma < self.tau):
            raise InvalidCutoffs(
                f"need 0 < rho < omega and 0 < sigma < tau, got "
                f"rho={self.rho}, omega={self.omega}, sigma={self.sigma}, tau={self.tau}"
            )
