"""Exception types shared across the laboratory, the tests of a scalar
parameter that the guards raising them apply first, and the guard of the
spatial dimension, which grids, the solver and the quadrature rules share."""

import math

import numpy as np


def is_finite(x) -> bool:
    """Whether `x` is a finite real int or float, numpy scalars included, and
    not a bool.  A guard tests this before it compares a parameter, so that a
    value of another type (None, a string, a sympy number) raises the guard's
    named error rather than a bare TypeError."""
    if isinstance(x, bool) or not isinstance(x, (int, float, np.integer, np.floating)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False


def is_int(x) -> bool:
    """Whether `x` is an int, numpy integers included, and not a bool: the
    test of a size or an index before it is compared."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


class ConelabError(Exception):
    """Base class for all laboratory errors."""


class InvalidInput(ConelabError):
    """Malformed argument (non-finite number, bad dimension, bad config value)."""


def check_dimension(n) -> None:
    """Raise InvalidInput unless the spatial dimension n is an integer >= 2:
    NaN would read as a value, and None or a string as a bare TypeError."""
    if not is_int(n) or n < 2:
        raise InvalidInput(f"spatial dimension must be an integer >= 2, got {n}")


class InvalidCutoffs(ConelabError):
    """Region cutoffs do not satisfy 0 < rho < omega and 0 < sigma < tau."""


class GridTooCoarse(ConelabError):
    """Grid has too few nodes for the requested stencil order."""


class InvalidWeightParams(ConelabError):
    """Split-weight triple (a, b, p) violates the admissibility window."""


class DomainError(ConelabError):
    """Weight evaluated outside its domain (f <= 0)."""


class MissingDerivative(ConelabError):
    """Requested derivative data not available on a custom weight or field."""


class RangeMismatch(ConelabError):
    """Split branch used on a grid whose f-range belongs to the other branch."""


class InvalidPotential(ConelabError):
    """Potential fails a structural requirement (sign, finiteness)."""


class NotInwardDirected(ConelabError):
    """F' >= 0 somewhere on the grid: weight gradient is not inward."""


class ModeNotSupported(ConelabError):
    """Nonlinear operation requested with p != 1 on a mode ell > 0."""


class RegionOutOfGrid(ConelabError):
    """Requested region is not covered by the field's grid."""


class InsufficientSequence(ConelabError):
    """A sequence too short or ill-formed to fit: fewer than TAIL points in
    a limit sequence, fewer than two or repeated grid levels in an identity
    convergence fit, a value <= 0 in any log-log slope fit (`log_slope`), or
    a pipeline field with no closed form to follow past its region."""


class UnstableStep(ConelabError):
    """A stored leapfrog step is non-finite or exceeds 1e12 times the scale
    of the Cauchy data."""


class DomainTooSmall(ConelabError):
    """Solver outer radius R below the data's support + T + `OUTER_PAD`, so
    the evolved field would reach the domain's edge."""


__all__ = [name for name, obj in list(globals().items())
           if isinstance(obj, type) and issubclass(obj, ConelabError)]
