"""Grids on the exterior region, scalar fields, and the reduced wave operator.

Fields store the radial profile of a single angular mode: the physical field
is phi_hat(u, v) * Y_ell(angles) with Y_ell an L^2-normalized spherical
harmonic, eigenvalue lambda_ell = ell (ell + n - 2).  Grids are logarithmic in
the hyperbolic pair: s = log f, y = log h, which makes the scaling operator
S = grad f . grad exactly d/ds and keeps stencils uniform.

Chain rule used throughout (u < 0 < v):

    u d_u = d_s - d_y,      v d_v = d_s + d_y,
    d_u d_v = (d_ss - d_yy) / (u v).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import stencils
from .errors import (
    InvalidInput,
    MissingDerivative,
    ModeNotSupported,
    RegionOutOfGrid,
    WeightOverflow,
)
from .geometry import AdmissibleRegion, Dimension
from .weights import Potential, Reparametrization

__all__ = [
    "GridSpec",
    "AnalyticField",
    "ScalarField",
    "from_expr",
    "diff_u",
    "diff_v",
    "box",
    "wave_op",
    "scaling",
    "scaling_star",
    "conjugate",
    "conjugate_analytic",
    "conjugated_wave_residual",
    "decay_functionals",
    "DecayReport",
    "field_to_csv",
    "materialize",
]

_OVERFLOW_LIMIT = 700.0  # |F| beyond this overflows exp in float64


@dataclass(eq=False)
class GridSpec:
    """Uniform grid in (s, y) = (log f, log h) covering an admissible region."""

    region: AdmissibleRegion
    n_s: int
    n_y: int
    n: int
    ell: int = 0
    order: int = 4

    def __post_init__(self):
        Dimension(self.n)
        if self.n_s < 8 or self.n_y < 8:
            raise InvalidInput(f"grid needs >= 8 nodes per axis, got {self.n_s}x{self.n_y}")
        if not isinstance(self.ell, int) or self.ell < 0:
            raise InvalidInput(f"mode index ell must be an integer >= 0, got {self.ell}")
        if self.order not in stencils.SUPPORTED_ORDERS:
            raise InvalidInput(f"unsupported stencil order {self.order}")

    @classmethod
    def from_region(cls, region: AdmissibleRegion, n_s: int, n_y: int, n: int,
                    ell: int = 0, order: int = 4) -> "GridSpec":
        return cls(region=region, n_s=n_s, n_y=n_y, n=n, ell=ell, order=order)

    # -- node coordinates ------------------------------------------------
    @cached_property
    def s(self) -> np.ndarray:
        return np.linspace(math.log(self.region.rho), math.log(self.region.omega), self.n_s)

    @cached_property
    def y(self) -> np.ndarray:
        return np.linspace(math.log(self.region.sigma), math.log(self.region.tau), self.n_y)

    @property
    def ds(self) -> float:
        return float(self.s[1] - self.s[0])

    @property
    def dy(self) -> float:
        return float(self.y[1] - self.y[0])

    @cached_property
    def S(self) -> np.ndarray:
        return np.broadcast_to(self.s[:, None], (self.n_s, self.n_y)).copy()

    @cached_property
    def Y(self) -> np.ndarray:
        return np.broadcast_to(self.y[None, :], (self.n_s, self.n_y)).copy()

    @cached_property
    def F(self) -> np.ndarray:
        return np.exp(self.S)

    @property
    def F_col(self) -> np.ndarray:
        """The (n_s, 1) column of `F`.  f is constant along each row, so a
        weight profile evaluated here broadcasts to the same bits as on `F`
        at n_s points instead of n_s * n_y."""
        return self.F[:, :1]

    @cached_property
    def H(self) -> np.ndarray:
        return np.exp(self.Y)

    @cached_property
    def U(self) -> np.ndarray:
        return -np.exp((self.S - self.Y) / 2.0)

    @cached_property
    def V(self) -> np.ndarray:
        return np.exp((self.S + self.Y) / 2.0)

    @cached_property
    def R(self) -> np.ndarray:
        return self.V - self.U

    @cached_property
    def T(self) -> np.ndarray:
        return self.V + self.U

    @property
    def lam(self) -> float:
        return float(self.ell * (self.ell + self.n - 2))

    def refine(self) -> "GridSpec":
        """Halve the spacing, keeping endpoints (n -> 2(n-1) + 1)."""
        return replace(self, n_s=(self.n_s - 1) * 2 + 1, n_y=(self.n_y - 1) * 2 + 1)

    def interior(self, depth: int = 1):
        """Slice pair selecting nodes unaffected by edge stencils (depth = stacked applications)."""
        m = stencils.interior_margin(self.order, depth)
        if 2 * m >= min(self.n_s, self.n_y):
            raise InvalidInput("grid too small for the requested interior margin")
        return (slice(m, self.n_s - m), slice(m, self.n_y - m))

    def covers(self, region: AdmissibleRegion, tol: float = 1e-12) -> bool:
        return (
            self.region.rho <= region.rho * (1 + tol)
            and self.region.omega >= region.omega * (1 - tol)
            and self.region.sigma <= region.sigma * (1 + tol)
            and self.region.tau >= region.tau * (1 - tol)
        )


@dataclass(frozen=True)
class AnalyticField:
    """Closed-form profile with derivatives in (u, v); higher slots optional."""

    value: Callable
    du: Optional[Callable] = None
    dv: Optional[Callable] = None
    duu: Optional[Callable] = None
    duv: Optional[Callable] = None
    dvv: Optional[Callable] = None
    label: str = "analytic"

    @property
    def has_first(self) -> bool:
        return self.du is not None and self.dv is not None

    @property
    def has_second(self) -> bool:
        return self.has_first and all(g is not None for g in (self.duu, self.duv, self.dvv))

    def derivs1(self, u, v):
        if not self.has_first:
            raise MissingDerivative(f"{self.label}: first derivatives not available")
        return (np.asarray(self.value(u, v), float),
                np.asarray(self.du(u, v), float),
                np.asarray(self.dv(u, v), float))

    def derivs2(self, u, v):
        if not self.has_second:
            raise MissingDerivative(f"{self.label}: second derivatives not available")
        return (np.asarray(self.value(u, v), float),
                np.asarray(self.du(u, v), float),
                np.asarray(self.dv(u, v), float),
                np.asarray(self.duu(u, v), float),
                np.asarray(self.duv(u, v), float),
                np.asarray(self.dvv(u, v), float))


def _chain_rule(u, v, ps, py, pss=None, psy=None, pyy=None) -> tuple:
    """(phi_u, phi_v) from the (s, y) derivatives at the points (u, v), and with
    the second ones (pss, psy, pyy) also (phi_uu, phi_uv, phi_vv)."""
    phi_u = (ps - py) / u
    phi_v = (ps + py) / v
    if pss is None:
        return phi_u, phi_v
    phi_uu = (pss - 2 * psy + pyy - (ps - py)) / u**2
    phi_uv = (pss - pyy) / (u * v)
    phi_vv = (pss + 2 * psy + pyy - (ps + py)) / v**2
    return phi_u, phi_v, phi_uu, phi_uv, phi_vv


def _read_only(a: np.ndarray, *inputs: np.ndarray) -> np.ndarray:
    """Read-only view of `a`, copied first if it shares memory with an input."""
    if any(np.may_share_memory(a, x) for x in inputs):
        a = a.copy()
    view = a.view()
    view.flags.writeable = False
    return view


def _broadcasting(fn):
    def wrapped(u, v):
        out = fn(u, v)
        arr = np.asarray(out, dtype=float)
        shape = np.broadcast(np.asarray(u), np.asarray(v)).shape
        if arr.shape != shape:
            arr = np.broadcast_to(arr, shape).copy()
        return arr
    return wrapped


_SLOTS = ("value", "du", "dv", "duu", "duv", "dvv")


def _symbolic_slots(expr, variables: str = "uv"):
    """The (u, v) symbols and the `_SLOTS` of a sympy expression (or string)
    in (u, v) or (t, r), differentiated symbolically, in that order."""
    import sympy as sp
    from tokenize import TokenError

    U_, V_ = sp.symbols("u v", real=True)
    try:
        if variables == "uv":
            e = sp.sympify(expr, locals={"u": U_, "v": V_})
        elif variables == "tr":
            T_, R_ = sp.symbols("t r", real=True)
            e = sp.sympify(expr, locals={"t": T_, "r": R_}).subs({T_: U_ + V_, R_: V_ - U_})
        else:
            raise InvalidInput("variables must be 'uv' or 'tr'")
    except (sp.SympifyError, SyntaxError, TokenError, TypeError) as exc:
        raise InvalidInput(f"cannot parse expression {expr!r}") from exc
    if e.has(sp.zoo, sp.nan):
        raise InvalidInput(f"expression {expr!r} is undefined")

    return (U_, V_), (e, sp.diff(e, U_), sp.diff(e, V_), sp.diff(e, U_, 2),
                      sp.diff(sp.diff(e, U_), V_), sp.diff(e, V_, 2))


def from_expr(expr, variables: str = "uv", label: Optional[str] = None) -> AnalyticField:
    """Build an AnalyticField from a sympy expression (or string) in (u, v) or (t, r).

    All six derivative slots are generated symbolically and lambdified with
    numpy, so operators on the resulting field are exact up to rounding.  A
    (u, v) string the package builds itself takes the slots `lambdify` wrote
    for it from the committed `_forms` table, without importing sympy.
    """
    from ._forms import FORMS

    fns = FORMS.get(expr) if variables == "uv" and isinstance(expr, str) else None
    if fns is None:
        import sympy as sp

        args, slots = _symbolic_slots(expr, variables)
        fns = [sp.lambdify(args, e, [np]) for e in slots]
    return AnalyticField(label=label or str(expr),
                         **{k: _broadcasting(fn) for k, fn in zip(_SLOTS, fns)})


@dataclass(frozen=True)
class ScalarField:
    """Mode profile sampled on a grid, optionally backed by a closed form.

    Frozen, because its derivative arrays are kept once read: a changed
    field is a new field."""

    grid: GridSpec
    values: np.ndarray
    closed_form: Optional[AnalyticField] = None
    name: str = "field"

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.shape != (self.grid.n_s, self.grid.n_y):
            raise InvalidInput(
                f"values shape {self.values.shape} != grid {(self.grid.n_s, self.grid.n_y)}"
            )
        if not np.all(np.isfinite(self.values)):
            raise InvalidInput("field values must be finite")

    @classmethod
    def from_function(cls, grid: GridSpec, fn: Callable, name: str = "field") -> "ScalarField":
        return cls(grid=grid, values=np.asarray(fn(grid.U, grid.V), dtype=float), name=name)

    @classmethod
    def from_analytic(cls, grid: GridSpec, af: AnalyticField, name: Optional[str] = None) -> "ScalarField":
        vals = np.asarray(af.value(grid.U, grid.V), dtype=float)
        return cls(grid=grid, values=vals, closed_form=af, name=name or af.label)

    @classmethod
    def zeros(cls, grid: GridSpec, name: str = "zero") -> "ScalarField":
        return cls(grid=grid, values=np.zeros((grid.n_s, grid.n_y)), name=name)

    # -- finite differences on the (s, y) grid ---------------------------
    def d_s(self):
        return stencils.d1(self.values, self.grid.ds, axis=0, order=self.grid.order)

    def d_y(self):
        return stencils.d1(self.values, self.grid.dy, axis=1, order=self.grid.order)

    def d_ss(self):
        return stencils.d2(self.values, self.grid.ds, axis=0, order=self.grid.order)

    def d_yy(self):
        return stencils.d2(self.values, self.grid.dy, axis=1, order=self.grid.order)

    def fd_derivs1(self):
        g = self.grid
        return (self.values, *_chain_rule(g.U, g.V, self.d_s(), self.d_y()))

    def fd_derivs2(self):
        g = self.grid
        ps, py = self.d_s(), self.d_y()
        pss, pyy = self.d_ss(), self.d_yy()
        psy = stencils.d1(ps, g.dy, axis=1, order=g.order)
        return (self.values, *_chain_rule(g.U, g.V, ps, py, pss, psy, pyy))

    def uses_closed_form(self, analytic: Optional[bool] = None, order: int = 2) -> bool:
        """Whether derivatives up to `order` (1 or 2) come from the closed form.

        `analytic` None takes the closed form when it has those slots, False
        never does, and True demands it: MissingDerivative without one.
        """
        cf = self.closed_form
        have = cf is not None and (cf.has_second if order == 2 else cf.has_first)
        if analytic and not have:
            raise MissingDerivative(f"{self.name}: no closed-form derivatives of order {order}")
        return have if analytic is None else analytic

    def derivs1(self, analytic: Optional[bool] = None):
        """(phi, phi_u, phi_v) on the grid; closed form per `uses_closed_form`, else FD."""
        if self.uses_closed_form(analytic, order=1):
            cf, g = self.closed_form, self.grid
            return self._derivs_on_grid("closed_form", 1, lambda: cf.derivs1(g.U, g.V))
        return self._derivs_on_grid("fd", 1, self.fd_derivs1)

    def derivs2(self, analytic: Optional[bool] = None):
        if self.uses_closed_form(analytic, order=2):
            cf, g = self.closed_form, self.grid
            return self._derivs_on_grid("closed_form", 2, lambda: cf.derivs2(g.U, g.V))
        return self._derivs_on_grid("fd", 2, self.fd_derivs2)

    def _derivs_on_grid(self, route: str, order: int, evaluate: Callable) -> tuple:
        """Derivative arrays up to `order` by `route` on this field's grid,
        evaluated once per field and route; order 1 is served from the order-2
        arrays once those exist.

        The arrays are read-only, and one that shares memory with the grid's
        coordinates (the value of `from_expr("u")` is `grid.U` itself) is
        copied first, so the memo never freezes or aliases them.  There is no
        lock: threads racing on first use may each evaluate, to equal arrays.
        """
        memo = self.__dict__.setdefault("_derivs", {})
        both = memo.get((route, 2))
        if both is not None:
            return both if order == 2 else both[:3]
        cached = memo.get((route, order))
        if cached is None:
            g = self.grid
            cached = tuple(_read_only(a, g.U, g.V) for a in evaluate())
            memo[route, order] = cached
            if order == 2:
                memo.pop((route, 1), None)  # now served from `cached`
        return cached

    @cached_property
    def _spline(self):
        from scipy.interpolate import RectBivariateSpline

        k = min(5, self.grid.n_s - 1, self.grid.n_y - 1)
        return RectBivariateSpline(self.grid.s, self.grid.y, self.values, kx=k, ky=k)

    def evaluator(self) -> "AnalyticField | SplineEval":
        """Point evaluator with derivatives: closed form if present, else spline."""
        if self.closed_form is not None and self.closed_form.has_second:
            return self.closed_form
        return SplineEval(self)


@dataclass
class SplineEval:
    """Quintic-spline point evaluator over a field's (s, y) grid."""

    field_: ScalarField

    def _sy(self, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        s = np.log(-u * v)
        y = np.log(-v / u)
        g = self.field_.grid
        eps = 1e-9
        if (np.any(s < g.s[0] - eps) or np.any(s > g.s[-1] + eps)
                or np.any(y < g.y[0] - eps) or np.any(y > g.y[-1] + eps)):
            raise RegionOutOfGrid("evaluation point outside the field's grid")
        return s, y

    def _ev(self, s, y, dx, dy):
        s = np.asarray(s, dtype=float)
        out = self.field_._spline.ev(np.ravel(s), np.ravel(y), dx=dx, dy=dy)
        return out.reshape(s.shape)

    def value(self, u, v):
        s, y = self._sy(u, v)
        return self._ev(s, y, 0, 0)

    def derivs1(self, u, v):
        s, y = self._sy(u, v)
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        phi = self._ev(s, y, 0, 0)
        return (phi, *_chain_rule(u, v, self._ev(s, y, 1, 0), self._ev(s, y, 0, 1)))

    def derivs2(self, u, v):
        s, y = self._sy(u, v)
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        phi = self._ev(s, y, 0, 0)
        ps = self._ev(s, y, 1, 0)
        py = self._ev(s, y, 0, 1)
        pss = self._ev(s, y, 2, 0)
        pyy = self._ev(s, y, 0, 2)
        psy = self._ev(s, y, 1, 1)
        return (phi, *_chain_rule(u, v, ps, py, pss, psy, pyy))


def materialize(source, grid: GridSpec) -> ScalarField:
    """Sample an AnalyticField, or resample a ScalarField, on `grid`.

    A ScalarField already on an equal grid is returned as it is; any other
    source raises InvalidInput.
    """
    if isinstance(source, AnalyticField):
        return ScalarField.from_analytic(grid, source)
    if isinstance(source, ScalarField):
        same = source.grid is grid or (
            source.grid.region == grid.region
            and (source.grid.n_s, source.grid.n_y) == (grid.n_s, grid.n_y)
            and (source.grid.n, source.grid.ell) == (grid.n, grid.ell)
        )
        if same:
            return source
        ev = source.evaluator()
        vals = ev.value(grid.U, grid.V)
        return ScalarField(grid=grid, values=vals, name=source.name)
    raise InvalidInput(f"cannot materialize field source of type {type(source)!r}")


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def diff_u(fld: ScalarField, analytic: Optional[bool] = None) -> ScalarField:
    """Partial derivative in u; propagates closed-form slots when present."""
    _, phi_u, _ = fld.derivs1(analytic=analytic)
    cf = None
    if fld.closed_form is not None and fld.closed_form.has_second:
        src = fld.closed_form
        cf = AnalyticField(value=src.du, du=src.duu, dv=src.duv, label=f"d_u {src.label}")
    return ScalarField(grid=fld.grid, values=phi_u, closed_form=cf, name=f"d_u {fld.name}")


def diff_v(fld: ScalarField, analytic: Optional[bool] = None) -> ScalarField:
    _, _, phi_v = fld.derivs1(analytic=analytic)
    cf = None
    if fld.closed_form is not None and fld.closed_form.has_second:
        src = fld.closed_form
        cf = AnalyticField(value=src.dv, du=src.duv, dv=src.dvv, label=f"d_v {src.label}")
    return ScalarField(grid=fld.grid, values=phi_v, closed_form=cf, name=f"d_v {fld.name}")


def wave_op(n: int, lam: float, r, phi, phi_u, phi_v, phi_uv):
    """Reduced wave operator from derivative arrays at points with radius r:

        -d_u d_v phi + ((n-1)/(2r)) (d_v phi - d_u phi) - lambda_ell r^{-2} phi,

    with r = v - u (`grid.R` on a grid).
    """
    out = -phi_uv + (n - 1) / (2.0 * r) * (phi_v - phi_u)
    if lam != 0.0:
        out = out - lam * phi / r**2
    return out


def box(fld: ScalarField, analytic: Optional[bool] = None) -> ScalarField:
    """Wave operator (`wave_op`) on the mode profile."""
    g = fld.grid
    phi, phi_u, phi_v, _, phi_uv, _ = fld.derivs2(analytic=analytic)
    vals = wave_op(g.n, g.lam, g.R, phi, phi_u, phi_v, phi_uv)
    return ScalarField(grid=g, values=vals, name=f"box {fld.name}")


def scaling(fld: ScalarField, analytic: Optional[bool] = None) -> ScalarField:
    """S phi = grad f . grad phi = (u d_u + v d_v) phi / 2 = d phi / d s."""
    if fld.uses_closed_form(analytic, order=1):
        _, phi_u, phi_v = fld.closed_form.derivs1(fld.grid.U, fld.grid.V)
        vals = 0.5 * (fld.grid.U * phi_u + fld.grid.V * phi_v)
    else:
        vals = fld.d_s()
    return ScalarField(grid=fld.grid, values=vals, name=f"S {fld.name}")


def scaling_star(fld: ScalarField, analytic: Optional[bool] = None) -> ScalarField:
    """S* phi = S phi + ((n-1)/4) phi."""
    s = scaling(fld, analytic=analytic)
    return ScalarField(grid=fld.grid, values=s.values + ((fld.grid.n - 1) / 4.0) * fld.values,
                       name=f"S* {fld.name}")


def conjugate(fld: ScalarField, rep: Reparametrization, sign: int = -1) -> ScalarField:
    """Multiply by e^{sign * F(f)} (default: psi = e^{-F} phi)."""
    if sign not in (-1, 1):
        raise InvalidInput("sign must be +1 or -1")
    Fv = rep.F(fld.grid.F_col)
    if np.max(np.abs(Fv)) > _OVERFLOW_LIMIT:
        raise WeightOverflow("F exceeds the exp overflow threshold on this grid")
    vals = np.exp(sign * Fv) * fld.values
    cf = None
    if fld.closed_form is not None and fld.closed_form.has_second:
        cf = conjugate_analytic(fld.closed_form, rep, sign)
    return ScalarField(grid=fld.grid, values=vals, closed_form=cf,
                       name=f"e^{'+' if sign > 0 else '-'}F {fld.name}")


def conjugate_analytic(af: AnalyticField, rep: Reparametrization, sign: int = -1) -> AnalyticField:
    """Closed-form e^{sign F} * af with all derivative slots filled."""
    if not af.has_second:
        raise MissingDerivative("conjugation needs second derivatives of the closed form")

    def _common(u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        f = -u * v
        E = np.exp(sign * rep.F(f))
        A = sign * rep.dF(f)
        B = sign * rep.d2F(f)
        return u, v, E, A, B

    def value(u, v):
        u, v, E, A, B = _common(u, v)
        return E * af.value(u, v)

    def du(u, v):
        u, v, E, A, B = _common(u, v)
        return E * (af.du(u, v) - v * A * af.value(u, v))

    def dv(u, v):
        u, v, E, A, B = _common(u, v)
        return E * (af.dv(u, v) - u * A * af.value(u, v))

    def duu(u, v):
        u, v, E, A, B = _common(u, v)
        return E * (af.duu(u, v) - 2 * v * A * af.du(u, v)
                    + (v * v * (A * A + B)) * af.value(u, v))

    def duv(u, v):
        u, v, E, A, B = _common(u, v)
        return E * (af.duv(u, v) - u * A * af.du(u, v) - v * A * af.dv(u, v)
                    + (u * v * (A * A + B) - A) * af.value(u, v))

    def dvv(u, v):
        u, v, E, A, B = _common(u, v)
        return E * (af.dvv(u, v) - 2 * u * A * af.dv(u, v)
                    + (u * u * (A * A + B)) * af.value(u, v))

    tag = "+" if sign > 0 else "-"
    return AnalyticField(value=value, du=du, dv=dv, duu=duu, duv=duv, dvv=dvv,
                         label=f"e^{tag}F {af.label}")


def conjugated_wave_residual(psi: ScalarField, rep: Reparametrization, U=None,
                             analytic: Optional[bool] = None) -> ScalarField:
    """Residual of the conjugated-operator expansion.

    Compares L psi = e^{-F} box_U(e^{F} psi) computed directly against

        box psi + 2 F' S* psi + (f (F')^2 - G) psi + e^{-F} Udot(phi),

    which should agree to discretization error.  U may be None (linear case).
    """
    g = psi.grid
    phi = conjugate(psi, rep, sign=+1)
    boxphi = box(phi, analytic=analytic).values
    f = g.F_col
    Fv = rep.F(f)
    dF = rep.dF(f)
    G = rep.G(f)
    emF = np.exp(-Fv)
    if U is not None:
        udot = U.udot(g.U, g.V, phi.values)
    else:
        udot = 0.0
    direct = emF * (boxphi + udot)
    expanded = (box(psi, analytic=analytic).values
                + 2.0 * dF * scaling_star(psi, analytic=analytic).values
                + (f * dF**2 - G) * psi.values
                + emF * udot)
    return ScalarField(grid=g, values=direct - expanded, name=f"conj-residual {psi.name}")


# ---------------------------------------------------------------------------
# decay functionals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayReport:
    beta: float
    sup_field: float
    sup_derivative: float
    sup_angular: Optional[float]
    sup_focusing: Optional[float]
    trends: dict
    classifications: dict
    levels: list


def _sups_on(fld: ScalarField, beta: float, V: Optional[Potential], p: Optional[float]):
    g = fld.grid
    w = (1.0 + g.R + g.F) ** ((g.n - 1 + beta) / 2.0)
    phi, phi_u, phi_v = fld.derivs1()
    sup_field = float(np.max(w * np.abs(phi)))
    sup_deriv = float(np.max(w * (np.abs(g.U * phi_u) + np.abs(g.V * phi_v))))
    sup_ang = None
    if g.lam > 0:
        mask = g.F < 1.0
        if np.any(mask):
            wang = (1.0 + g.R) ** ((g.n - 1 + beta) / 2.0) * np.sqrt(g.F)
            grad_ang = math.sqrt(g.lam) * np.abs(phi) / g.R
            sup_ang = float(np.max((wang * grad_ang)[mask]))
        else:
            sup_ang = 0.0
    sup_foc = None
    if V is not None and p is not None:
        mask = g.F > 1.0
        if np.any(mask):
            wf = (1.0 + g.R + g.F) ** ((g.n - 1 + beta) / (p + 1.0))
            Vv = np.abs(np.asarray(V.value(g.U, g.V), dtype=float))
            val = wf * (g.F * Vv) ** (1.0 / (p + 1.0)) * np.abs(phi)
            sup_foc = float(np.max(val[mask]))
        else:
            sup_foc = 0.0
    return {"field": sup_field, "derivative": sup_deriv, "angular": sup_ang,
            "focusing": sup_foc}


def decay_functionals(fld: ScalarField, beta: float, V: Optional[Potential] = None,
                      p: Optional[float] = None, levels: int = 5) -> DecayReport:
    """Weighted suprema of the profile and their growth trend under expanding
    truncation.

    The weight is (1 + r + f)^{(n-1+beta)/2} (equal to the product null weight
    ((1+|u|)(1+|v|))^{(n-1+beta)/2} on the exterior region).  The trend is the
    log-log slope of each supremum as the grid truncation expands by a
    factor 2 per level (closed-form fields) or nests inward (sampled fields);
    a slope at most 0.05 is classified "consistent", larger growth
    "violated".
    """
    if not np.isfinite(beta) or beta < 0:
        raise InvalidInput(f"beta must be >= 0, got {beta}")
    g = fld.grid
    base = _sups_on(fld, beta, V, p)

    seq: dict = {k: [] for k in base}
    lv = []
    expandable = fld.closed_form is not None and fld.closed_form.has_first
    for k in range(levels):
        scale = 2.0**k
        if expandable:
            reg = AdmissibleRegion(g.region.rho / scale, g.region.omega * scale,
                                   g.region.sigma / scale, g.region.tau * scale)
            sub = GridSpec.from_region(reg, g.n_s, g.n_y, g.n, ell=g.ell, order=g.order)
            f2 = ScalarField.from_analytic(sub, fld.closed_form)
        else:
            reg = AdmissibleRegion(g.region.rho * scale, g.region.omega / scale,
                                   g.region.sigma * scale, g.region.tau / scale)
            if reg.rho >= reg.omega or reg.sigma >= reg.tau:
                break
            sub = GridSpec.from_region(reg, g.n_s, g.n_y, g.n, ell=g.ell, order=g.order)
            ev = fld.evaluator()
            f2 = ScalarField(grid=sub, values=ev.value(sub.U, sub.V), name=fld.name)
        sups = _sups_on(f2, beta, V, p)
        for key in seq:
            seq[key].append(sups[key])
        lv.append(scale)

    trends = {}
    classes = {}
    sgn = 1.0 if expandable else -1.0  # nested subgrids shrink: invert the axis
    for key, vals in seq.items():
        usable = [(l, x) for l, x in zip(lv, vals) if x is not None and x > 0]
        if len(usable) < 3:
            trends[key] = None
            classes[key] = "consistent"
            continue
        L = np.log([l for l, _ in usable])
        X = np.log([x for _, x in usable])
        slope = float(np.polyfit(sgn * L, X, 1)[0])
        trends[key] = slope
        classes[key] = "consistent" if slope <= 0.05 else "violated"

    return DecayReport(
        beta=beta,
        sup_field=base["field"],
        sup_derivative=base["derivative"],
        sup_angular=base["angular"],
        sup_focusing=base["focusing"],
        trends=trends,
        classifications=classes,
        levels=lv,
    )


def _columns_to_csv(path, header, columns) -> None:
    """Write equally shaped arrays as CSV columns, one row per node in C
    order, each number as its `repr` (what `csv.writer` writes for them)."""
    cols = [map(repr, np.ravel(c).tolist()) for c in columns]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(row) + "\r\n" for row in zip(*cols))


def field_to_csv(fld: ScalarField, path) -> None:
    """Write the field as rows u, v, f, h, value."""
    g = fld.grid
    _columns_to_csv(path, ("u", "v", "f", "h", "value"), (g.U, g.V, g.F, g.H, fld.values))
