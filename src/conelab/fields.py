"""Grids on the exterior region, scalar fields, the reduced wave operator and
the reference closed forms: the spherical wave and the static multipoles.

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
from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import stencils
from .errors import (InvalidInput, MissingDerivative, RegionOutOfGrid, check_dimension,
                     is_finite, is_int)
from .geometry import AdmissibleRegion

__all__ = [
    "GridSpec",
    "NodeRows",
    "AnalyticField",
    "ScalarField",
    "TensorSpline",
    "from_expr",
    "exact_spherical_wave",
    "static_multipole",
    "wave_op",
    "field_to_csv",
]


def _node_array(build):
    """A node array, built on first read and kept: read-only, since every
    field on the nodes reads the same object."""
    return cached_property(lambda nodes: _read_only(build(nodes)))


# most nodes in a row run (`GridSpec.row_runs`): the identity checks and
# `ScalarField.values` take a grid one run at a time, so that their arrays
# hold a run's nodes, not the grid's.  Smaller runs hold less but run more
# short array operations: against 32768, a default verify-identity held
# 4.9 MB less at 16384 for 0.035 s more CPU time in process, and 6.9 MB
# less at 8192 for 0.08 s more (BENCH_52.json)
BLOCK_POINTS = 16384


@dataclass(eq=False)
class GridSpec:
    """Uniform grid in (s, y) = (log f, log h) covering an admissible region.

    A grid is its nodes, fixed by the region, the sizes and n; `order` picks
    the stencils.  The fields of every mode read one grid (only a field's
    `lam` depends on its mode) and share its arrays `s`, `y`, `F`, `H`, `T`
    and `uv_text`, and those of `nodes`, its rows all in one run: `U`, `V`,
    `R`, `F_col` and `radial_coef`.  Each is read-only and built on first
    read."""

    region: AdmissibleRegion
    n_s: int
    n_y: int
    n: int
    order: int = 4

    def __post_init__(self):
        check_dimension(self.n)
        if not (is_int(self.n_s) and is_int(self.n_y)) or self.n_s < 8 or self.n_y < 8:
            raise InvalidInput(f"grid needs >= 8 nodes per axis, got {self.n_s}x{self.n_y}")
        if self.order not in stencils.SUPPORTED_ORDERS:
            raise InvalidInput(f"unsupported stencil order {self.order}")

    @classmethod
    def from_region(cls, region: AdmissibleRegion, n_s: int, n_y: int, n: int,
                    order: int = 4) -> "GridSpec":
        return cls(region=region, n_s=n_s, n_y=n_y, n=n, order=order)

    # -- node coordinates ---------------------------------------------------
    @_node_array
    def s(self) -> np.ndarray:
        return np.linspace(math.log(self.region.rho), math.log(self.region.omega), self.n_s)

    @_node_array
    def y(self) -> np.ndarray:
        return np.linspace(math.log(self.region.sigma), math.log(self.region.tau), self.n_y)

    @cached_property
    def nodes(self) -> "NodeRows":
        return NodeRows(self)

    U, V, R, F_col, radial_coef = (property(lambda grid, name=name: getattr(grid.nodes, name))
                                   for name in ("U", "V", "R", "F_col", "radial_coef"))

    @_node_array
    def F(self) -> np.ndarray:
        return np.broadcast_to(self.F_col, (self.n_s, self.n_y)).copy()

    @_node_array
    def H(self) -> np.ndarray:
        return np.exp(np.broadcast_to(self.y[None, :], (self.n_s, self.n_y)))

    @_node_array
    def T(self) -> np.ndarray:
        return self.V + self.U

    # each node's "u,v" CSV text in C order, the numbers as their `repr`: one
    # row of bytes per node whose nonzero bytes are the text, formatted once
    # per grid for both the field and the current file
    @_node_array
    def uv_text(self) -> np.ndarray:
        from ._floatrepr import repr_bytes  # loads with the first CSV, not with conelab

        return _csv_rows(repr_bytes(self.U), repr_bytes(self.V))

    @property
    def ds(self) -> float:
        return float(self.s[1] - self.s[0])

    @property
    def dy(self) -> float:
        return float(self.y[1] - self.y[0])

    def interior(self, depth: int = 1):
        """Slice pair selecting nodes unaffected by edge stencils (depth = stacked applications)."""
        m = stencils.interior_margin(self.order, depth)
        if 2 * m >= min(self.n_s, self.n_y):
            raise InvalidInput("grid too small for the requested interior margin")
        return (slice(m, self.n_s - m), slice(m, self.n_y - m))

    def row_runs(self):
        """The grid's rows as k consecutive runs (slices of s indices) of as
        even a length as k allows: the fewest that hold at most BLOCK_POINTS
        nodes each, but none shorter than `order + 1` rows, so that a
        stencil takes every run."""
        rows = max(BLOCK_POINTS // self.n_y, 1)
        k = max(1, min(-(-self.n_s // rows), self.n_s // (self.order + 1)))
        return [slice(self.n_s * i // k, self.n_s * (i + 1) // k) for i in range(k)]


class NodeRows:
    """The nodes of a run of a grid's rows (`rows`, a slice of s indices; all
    of them by default), with the grid's n, spacings and stencil order, and
    their arrays `U`, `V`, `R`, `F_col` and `radial_coef`, formed on first
    read from those rows of `s` and the grid's `y`: a node's entries are the
    same bits in every run that holds it.  `F_col` is f = e^s as a column,
    on which a weight profile is evaluated once per row and broadcast, and
    `radial_coef` is (n-1)/(2r), the factor of the first-order terms of the
    reduced wave operator and of P_u - P_v in a current's divergence."""

    def __init__(self, grid: GridSpec, rows: slice = slice(None)):
        self.rows = slice(*rows.indices(grid.n_s)[:2])
        self.s, self.y = grid.s[self.rows], grid.y
        self.n, self.order, self.ds, self.dy = grid.n, grid.order, grid.ds, grid.dy

    @_node_array
    def F_col(self) -> np.ndarray:
        return np.exp(self.s)[:, None]

    @_node_array
    def U(self) -> np.ndarray:
        return -np.exp((self.s[:, None] - self.y[None, :]) / 2.0)

    @_node_array
    def V(self) -> np.ndarray:
        return np.exp((self.s[:, None] + self.y[None, :]) / 2.0)

    @_node_array
    def R(self) -> np.ndarray:
        return self.V - self.U

    @_node_array
    def radial_coef(self) -> np.ndarray:
        return (self.n - 1) / (2.0 * self.R)


@dataclass(frozen=True)
class AnalyticField:
    """Closed-form profile with its first and second derivatives in (u, v).

    `slots(u, v, k)` returns the first k (1, 3, 4 or 6) of the slots in the
    order `_SLOTS`: value, du, dv, duv, duu, dvv.  Each method returns one
    float array per slot, of the points' broadcast shape, none of them the
    same object as another."""

    slots: Callable
    label: str = "analytic"

    def _arrays(self, u, v, k: int) -> tuple:
        shape = np.broadcast(np.asarray(u), np.asarray(v)).shape
        arrays = []
        for out in self.slots(u, v, k):
            arr = np.asarray(out, dtype=float)
            if arr.shape != shape or any(arr is a for a in arrays):
                arr = np.broadcast_to(arr, shape).copy()
            arrays.append(arr)
        return tuple(arrays)

    def value(self, u, v):
        return self._arrays(u, v, 1)[0]

    def derivs1(self, u, v):
        """(phi, phi_u, phi_v)."""
        return self._arrays(u, v, 3)

    def derivs_wave(self, u, v):
        """(phi, phi_u, phi_v, phi_uv): what the wave operator reads."""
        return self._arrays(u, v, 4)

    def derivs2(self, u, v):
        """`derivs1` and (phi_uu, phi_uv, phi_vv)."""
        phi, phi_u, phi_v, phi_uv, phi_uu, phi_vv = self._arrays(u, v, 6)
        return phi, phi_u, phi_v, phi_uu, phi_uv, phi_vv


def _chain_rule(u, v, ps, py, pss=None, psy=None, pyy=None) -> tuple:
    """(phi_u, phi_v) from the (s, y) derivatives at the points (u, v), and with
    the second ones (pss, psy, pyy) also (phi_uu, phi_uv, phi_vv)."""
    phi_u = (ps - py) / u
    phi_v = (ps + py) / v
    if pss is None:
        return phi_u, phi_v
    phi_uu = (pss - 2 * psy + pyy - (ps - py)) / u**2
    phi_uv = _mixed(u, v, pss, pyy)
    phi_vv = (pss + 2 * psy + pyy - (ps + py)) / v**2
    return phi_u, phi_v, phi_uu, phi_uv, phi_vv


def _mixed(u, v, pss, pyy):
    """phi_uv from the second (s, y) derivatives at the points (u, v)."""
    return (pss - pyy) / (u * v)


def _read_only(a: np.ndarray) -> np.ndarray:
    """`a`, made read-only."""
    a.flags.writeable = False
    return a


_SLOTS = ("value", "du", "dv", "duv", "duu", "dvv")


def _symbolic_slots(expr):
    """The (u, v) symbols and the `_SLOTS` of a sympy expression (or string)
    in (u, v), differentiated symbolically, in that order.  The expression
    must be real-valued in u and v alone: another symbol, an undefined
    function, a relation or a logical value, or I raises InvalidInput."""
    import sympy as sp
    from sympy.core.function import AppliedUndef
    from tokenize import TokenError

    U_, V_ = sp.symbols("u v", real=True)
    try:
        e = sp.sympify(expr, locals={"u": U_, "v": V_})
    except (sp.SympifyError, SyntaxError, TokenError, TypeError) as exc:
        raise InvalidInput(f"cannot parse expression {expr!r}") from exc
    if not isinstance(e, sp.Expr):
        raise InvalidInput(f"expression {expr!r} is not a number-valued expression")
    if e.has(sp.zoo, sp.nan):
        raise InvalidInput(f"expression {expr!r} is undefined")
    others = e.free_symbols - {U_, V_}
    if others:
        raise InvalidInput(f"expression {expr!r} has symbols other than u and v: "
                           f"{', '.join(sorted(map(str, others)))}")
    if e.atoms(AppliedUndef, sp.Derivative):
        raise InvalidInput(f"expression {expr!r} has an undefined function or derivative")
    if e.has(sp.I):
        raise InvalidInput(f"expression {expr!r} is not real (it contains I)")

    du, dv = sp.diff(e, U_), sp.diff(e, V_)
    return (U_, V_), (e, du, dv, sp.diff(du, V_), sp.diff(e, U_, 2), sp.diff(e, V_, 2))


def from_expr(expr, label: Optional[str] = None) -> AnalyticField:
    """Build an AnalyticField from a sympy expression (or string) in (u, v).

    All six derivative slots are generated symbolically, lambdified with
    numpy and joined into one function that computes each shared
    subexpression once (`_gen_forms.joint_source`), so operators on the
    resulting field are exact up to rounding.  A string the package builds
    itself takes that function from the committed `_forms` table, without
    importing sympy.
    """
    from ._forms import FORMS

    fn = FORMS.get(expr) if isinstance(expr, str) else None
    if fn is None:
        from ._gen_forms import joint_function

        fn = joint_function(expr)
    return AnalyticField(fn, label or str(expr))


def exact_spherical_wave(width: float = 1.0, power: int = 6) -> AnalyticField:
    """Outgoing-plus-ingoing spherical wave (n = 3, ell = 0).

    phi = [g(2u) - g(2v)] / r with the even compactly supported profile
    g(x) = (1 - (x/width)^2)^power on |x| < width.  Exact solution of the
    free wave equation; its Cauchy data at t = 0 are (0, -2 g'(r)/r).
    """
    return from_expr(_spherical_wave_expr(width, power), label="spherical-wave")


def _width(width) -> float:
    """`width` as a float; InvalidInput unless it is finite and positive."""
    if not (is_finite(width) and width > 0):
        raise InvalidInput(f"width must be a finite number > 0, got {width!r}")
    return float(width)


def _spherical_wave_expr(width: float, power: int) -> str:
    w = _width(width)
    g = f"Piecewise(((1 - (X/{w})**2)**{power}, X**2 < {w}**2), (0, True))"
    return f"({g.replace('X', '(2*u)')} - {g.replace('X', '(2*v)')}) / (v - u)"


def static_multipole(ell: int, n: int) -> AnalyticField:
    """Static decaying multipole profile r^{-(n-2+ell)} (free-wave solution)."""
    if ell < 1 or n < 3:
        raise InvalidInput("decaying static multipole needs ell >= 1 and n >= 3")
    return from_expr(_multipole_expr(n - 2 + ell), label=f"multipole(ell={ell})")


def _multipole_expr(k: int) -> str:
    return f"(v - u)**(-{k})"


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Profile of the angular mode `ell` (eigenvalue `lam`) sampled on a grid,
    which fields of every mode share, optionally backed by a closed form.

    Frozen, because its samples and its spline (`_spline`) are kept once
    formed: a changed field is a new field.  Its derivative arrays are
    evaluated on each call and kept by no one."""

    grid: GridSpec
    values: InitVar[Optional[np.ndarray]]  # None: the closed form's, on first read
    closed_form: Optional[AnalyticField] = None
    name: str = "field"
    ell: int = 0

    def __post_init__(self, values):
        if values is not None or self.closed_form is None:
            object.__setattr__(self, "values", self._checked(values))
        if not is_int(self.ell) or self.ell < 0:
            raise InvalidInput(f"mode index ell must be an integer >= 0, got {self.ell}")

    @cached_property
    def values(self) -> np.ndarray:
        """The closed form's samples on the grid, formed on first read one row
        run (`GridSpec.row_runs`) at a time; given samples are stored over it."""
        vals = np.empty((self.grid.n_s, self.grid.n_y))
        for nodes in (NodeRows(self.grid, rows) for rows in self.grid.row_runs()):
            vals[nodes.rows] = self.closed_form.value(nodes.U, nodes.V)
        return self._checked(vals)

    def _checked(self, values) -> np.ndarray:
        """`values` as floats; InvalidInput unless of the grid's shape and finite."""
        values, shape = np.asarray(values, dtype=float), (self.grid.n_s, self.grid.n_y)
        if values.shape != shape:
            raise InvalidInput(f"field values must have the grid's shape {shape}, "
                               f"got shape {values.shape}")
        bad = values.size - np.count_nonzero(np.isfinite(values))
        if bad:
            raise InvalidInput(f"field values must be finite, got {bad} of {values.size} "
                               f"samples not finite")
        return values

    @property
    def lam(self) -> float:  # lambda_ell = ell (ell + n - 2)
        return float(self.ell * (self.ell + self.grid.n - 2))

    @classmethod
    def from_function(cls, grid: GridSpec, fn: Callable, name: str = "field",
                      ell: int = 0) -> "ScalarField":
        return cls(grid, np.asarray(fn(grid.U, grid.V), dtype=float), name=name, ell=ell)

    @classmethod
    def from_analytic(cls, grid: GridSpec, af: AnalyticField, ell: int = 0) -> "ScalarField":
        """The closed form `af` on the grid, sampled on first read (`values`)."""
        if not isinstance(af, AnalyticField):
            raise InvalidInput(f"cannot sample a field source of type {type(af)!r}")
        return cls(grid, None, af, af.label, ell)

    @classmethod
    def zeros(cls, grid: GridSpec) -> "ScalarField":
        return cls(grid=grid, values=np.zeros((grid.n_s, grid.n_y)), name="zero")

    # -- finite differences on the (s, y) grid ---------------------------
    def fd_derivs(self, order, nodes: Optional[NodeRows] = None) -> tuple:
        """The FD derivatives of `order` at `nodes`, a run of the grid's rows
        (all of them by default): (phi, phi_u, phi_v), then phi_uv for
        "wave" (without the mixed (s, y) stencil), or (phi_uu, phi_uv,
        phi_vv) for 2.  The s stencils run on the run's rows of the values
        and order // 2 more on each side, clipped at the grid's edges, so
        each row gets the bits it has on the whole grid."""
        g = self.grid
        nodes = nodes or g.nodes
        rows, hw = nodes.rows, g.order // 2
        lo, hi = max(rows.start - hw, 0), min(rows.stop + hw, g.n_s)
        own = slice(rows.start - lo, rows.stop - lo)
        padded, phi = self.values[lo:hi], self.values[rows]
        ps = stencils.d1(padded, g.ds, axis=0, order=g.order)[own]
        py = stencils.d1(phi, g.dy, axis=1, order=g.order)
        if order == 1:
            return (phi, *_chain_rule(nodes.U, nodes.V, ps, py))
        pss = stencils.d2(padded, g.ds, axis=0, order=g.order)[own]
        pyy = stencils.d2(phi, g.dy, axis=1, order=g.order)
        if order == "wave":
            return (phi, *_chain_rule(nodes.U, nodes.V, ps, py),
                    _mixed(nodes.U, nodes.V, pss, pyy))
        psy = stencils.d1(ps, g.dy, axis=1, order=g.order)
        return (phi, *_chain_rule(nodes.U, nodes.V, ps, py, pss, psy, pyy))

    # no route of the package calls these two: the benchmark's tracer wraps them
    def fd_derivs1(self):
        return self.fd_derivs(1)

    def fd_derivs2(self):
        return self.fd_derivs(2)

    def route(self, mode: str = "auto") -> str:
        """The derivative route `mode` selects on this field, "analytic" (the
        closed form) or "fd": "auto" takes the closed form when there is one,
        and "analytic" without one raises MissingDerivative."""
        if mode not in ("auto", "analytic", "fd"):
            raise InvalidInput(f"unknown derivative mode {mode!r}")
        if mode == "auto":
            return "fd" if self.closed_form is None else "analytic"
        if mode == "analytic" and self.closed_form is None:
            raise MissingDerivative(f"{self.name}: no closed-form derivatives")
        return mode

    def derivs(self, order, nodes: Optional[NodeRows] = None, mode: str = "auto") -> tuple:
        """The derivatives of `order` (1, "wave" or 2, as in `fd_derivs`) at
        `nodes` (all rows by default) by the route `route(mode)`, evaluated
        now, each a read-only view: phi on the FD route views the values."""
        nodes = nodes or self.grid.nodes
        if self.route(mode) == "fd":
            arrays = self.fd_derivs(order, nodes)
        else:
            cf = self.closed_form
            evaluate = {1: cf.derivs1, "wave": cf.derivs_wave, 2: cf.derivs2}[order]
            arrays = evaluate(nodes.U, nodes.V)
        return tuple(_read_only(a.view()) for a in arrays)

    @cached_property
    def _spline(self) -> TensorSpline:
        return TensorSpline(self.grid.s, self.grid.y, self.values)

    def evaluator(self) -> "AnalyticField | SplineEval":
        """Point evaluator with derivatives: closed form if present, else spline."""
        if self.closed_form is not None:
            return self.closed_form
        return SplineEval(self)


# ---------------------------------------------------------------------------
# interpolating tensor-product splines
# ---------------------------------------------------------------------------

EV_BLOCK = 4096  # points per block of `TensorSpline.ev_pairs`: bounds its temporaries


def _sites(x) -> np.ndarray:
    """x as a float array of at least one finite, strictly increasing site;
    anything else raises InvalidInput."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or len(x) == 0 or not np.all(np.isfinite(x)) or not np.all(np.diff(x) > 0):
        raise InvalidInput("spline sites must be a nonempty 1-D array of finite, "
                           "strictly increasing numbers")
    return x


def _knots(x: np.ndarray, k: int) -> np.ndarray:
    """FITPACK's knots for the degree-k spline interpolating at the sites x
    (regrid at s = 0): the ends repeated k + 1 times, and inside the data
    sites for odd k, the midpoints of neighbouring sites for even k."""
    h = (k + 1) // 2
    n = len(x)
    inner = x[h:n - h] if k % 2 else (x[h + 1:n - h] + x[h:n - h - 1]) * 0.5
    return np.concatenate([np.full(k + 1, x[0]), inner, np.full(k + 1, x[-1])])


def _bspline_basis(t: np.ndarray, k: int, x: np.ndarray, nus) -> tuple:
    """Interval l of each point x (t[l] <= x < t[l+1], the last interval
    closed) and, for each order nu of `nus`, in row a of a (k + 1, len(x))
    array, the nu-th derivative there of B_{l-k+a}, a = 0 .. k: the
    B-splines that do not vanish.  The arrays are returned keyed by nu.

    de Boor's recursion builds the degree k - nu values; each of the last nu
    steps raises the degree by differentiating instead.  Every denominator
    is positive: t[l] < t[l+1] on each interval, and the ends are clamped.
    """
    l = np.clip(np.searchsorted(t, x, side="right") - 1, k, len(t) - k - 2)
    tw = t[l + np.arange(1 - k, k + 1)[:, None]]  # row q: t[l + 1 - k + q]
    out = {}
    for nu in nus:
        h = out[nu] = np.zeros((k + 1, len(x)))
        h[0] = 1.0
        for j in range(1, k + 1):
            right, left = tw[k:k + j], tw[k - j:k]  # t[l+1 .. l+j], t[l+1-j .. l]
            term = h[:j] / (right - left)
            if j > k - nu:
                term *= j
                h[j] = term[j - 1]
                h[1:j] = term[:j - 1] - term[1:j]
                h[0] = -term[0]
            else:
                up = (x - left) * term
                h[:j] = (right - x) * term
                h[j] = up[j - 1]
                h[1:j] += up[:j - 1]
    return l, out


def _interpolate_axis(t: np.ndarray, k: int, x: np.ndarray, c: np.ndarray) -> None:
    """Overwrite c, the samples z[i] at x[i] along axis 0, with the
    coefficients c[j] of the splines sum_j c[j] B_j through them, for every
    column of c at once.  c may be a strided view (the transpose of a
    C-ordered array), so the fit along a second axis needs no copy.

    Row i of the collocation matrix is nonzero only in the columns
    l_i - k .. l_i, so it is held as those k + 1 entries, and the LU
    factors without pivoting (the matrix is totally positive) stay inside
    them: no n x n array is built.  Each row update is a scaled subtraction
    of whole rows of c, so a column's result does not depend on the others.
    """
    l, basis = _bspline_basis(t, k, x, (0,))
    ab = basis[0].T
    first = (l - k).tolist()
    last = l.tolist()
    n = len(x)
    for j in range(n):
        dj = j - first[j]
        tail = ab[j, dj + 1:]
        i = j + 1
        while i < n and first[i] <= j:
            oi = j - first[i]
            ab[i, oi] /= ab[j, dj]
            ab[i, oi + 1:oi + 1 + len(tail)] -= ab[i, oi] * tail
            i += 1
    for i in range(n):
        for a in range(i - first[i]):
            c[i] -= ab[i, a] * c[first[i] + a]
    for j in range(n - 1, -1, -1):
        dj = j - first[j]
        for a in range(1, last[j] - j + 1):
            c[j] -= ab[j, dj + a] * c[j + a]
        c[j] /= ab[j, dj]


class TensorSpline:
    """Tensor-product spline interpolating z[i, j] at (x[i], y[j]), of degree
    min(5, n - 1) along an axis of n sites.

    It is the spline FITPACK's regrid fits at s = 0 (scipy's
    RectBivariateSpline): the same knots and degree, coefficients equal up
    to rounding.  `ev` clamps points to the data box as FITPACK's fpbisp does.
    """

    def __init__(self, x, y, z):
        x = _sites(x)
        y = _sites(y)
        if np.shape(z) != (len(x), len(y)):
            raise InvalidInput(f"spline samples must have shape {(len(x), len(y))}, "
                               f"got {np.shape(z)}")
        self.kx, self.ky = min(5, len(x) - 1), min(5, len(y) - 1)
        self.tx, self.ty = _knots(x, self.kx), _knots(y, self.ky)
        # the one copy of z: fitted along x, then along y through its transpose
        self.c = np.array(z, dtype=float, order="C")
        _interpolate_axis(self.tx, self.kx, x, self.c)
        _interpolate_axis(self.ty, self.ky, y, self.c.T)

    def ev(self, x, y, dx: int = 0, dy: int = 0) -> np.ndarray:
        """Values (dx = dy = 0) or partial derivatives d^dx/dx d^dy/dy, of
        order at most 2 per axis, at the points (x[m], y[m])."""
        return self.ev_pairs(x, y, ((dx, dy),))[0]

    def ev_pairs(self, x, y, pairs) -> list:
        """`ev` for each (dx, dy) of `pairs` at the same points.

        The points are taken EV_BLOCK at a time, each block written into
        the preallocated outputs, so the temporaries stay the size of a
        block whatever the number of points.  In a block the clamp, the
        interval search, each axis's basis for each order and each
        coefficient gather are done once for all the pairs; every output
        element is the sum it would be without blocks, in the same order."""
        tx, ty, kx, ky = self.tx, self.ty, self.kx, self.ky
        x = np.asarray(x, dtype=float).ravel()
        y = np.asarray(y, dtype=float).ravel()
        if len(x) != len(y):
            raise InvalidInput(f"{len(x)} x coordinates but {len(y)} y coordinates")
        dxs, dys = {dx for dx, _ in pairs}, {dy for _, dy in pairs}
        ny = self.c.shape[1]
        flat = self.c.ravel()
        outs = [np.zeros(len(x)) for _ in pairs]
        for lo in range(0, len(x), EV_BLOCK):
            block = slice(lo, lo + EV_BLOCK)
            lx, bx = _bspline_basis(tx, kx, np.clip(x[block], tx[kx], tx[-kx - 1]), dxs)
            ly, by = _bspline_basis(ty, ky, np.clip(y[block], ty[ky], ty[-ky - 1]), dys)
            cols = (ly - ky) + np.arange(ky + 1)[:, None]
            for a in range(kx + 1):
                gathered = flat[(lx - kx + a) * ny + cols]
                inner = {dy: (gathered * b).sum(axis=0) for dy, b in by.items()}
                for out, (dx, dy) in zip(outs, pairs):
                    out[block] += bx[dx][a] * inner[dy]
        return outs


@dataclass
class SplineEval:
    """Quintic-spline point evaluator over a field's (s, y) grid."""

    field_: ScalarField

    def _sy(self, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if not (np.all(u < 0) and np.all(v > 0)):  # NaN fails too
            raise RegionOutOfGrid("evaluation point outside the exterior region u < 0 < v")
        s = np.log(-u * v)
        y = np.log(-v / u)
        g = self.field_.grid
        eps = 1e-9
        if (np.any(s < g.s[0] - eps) or np.any(s > g.s[-1] + eps)
                or np.any(y < g.y[0] - eps) or np.any(y > g.y[-1] + eps)):
            raise RegionOutOfGrid("evaluation point outside the field's grid")
        return s, y

    def _ev(self, u, v, pairs):
        """The spline's `pairs` of (s, y) derivatives at the points (u, v)."""
        s, y = self._sy(u, v)
        outs = self.field_._spline.ev_pairs(np.ravel(s), np.ravel(y), pairs)
        return [out.reshape(s.shape) for out in outs]

    def value(self, u, v):
        return self._ev(u, v, ((0, 0),))[0]

    def derivs1(self, u, v):
        phi, ps, py = self._ev(u, v, ((0, 0), (1, 0), (0, 1)))
        return (phi, *_chain_rule(np.asarray(u, dtype=float), np.asarray(v, dtype=float),
                                  ps, py))

    def derivs_wave(self, u, v):
        """(phi, phi_u, phi_v, phi_uv), without the mixed (s, y) derivative."""
        phi, ps, py, pss, pyy = self._ev(u, v, ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2)))
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return (phi, *_chain_rule(u, v, ps, py), _mixed(u, v, pss, pyy))

    def derivs2(self, u, v):
        phi, ps, py, pss, pyy, psy = self._ev(
            u, v, ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1)))
        return (phi, *_chain_rule(np.asarray(u, dtype=float), np.asarray(v, dtype=float),
                                  ps, py, pss, psy, pyy))


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def wave_op(n: int, lam: float, r, phi, phi_u, phi_v, phi_uv):
    """Reduced wave operator from derivative arrays at points with radius r:

        -d_u d_v phi + ((n-1)/(2r)) (d_v phi - d_u phi) - lambda_ell r^{-2} phi,

    with r = v - u (`grid.R` on a grid).
    """
    out = -phi_uv + (n - 1) / (2.0 * r) * (phi_v - phi_u)
    if lam != 0.0:
        out = out - lam * phi / r**2
    return out


CSV_ROWS = 16384  # rows per written block: bounds the writer's buffers


def _csv_rows(*texts, end: bytes = b"") -> np.ndarray:
    """Text matrices (`repr_bytes` rows) side by side, joined by commas, each
    row followed by `end`."""
    n = len(texts[0])
    sep = np.full((n, 1), ord(","), dtype=np.uint8)
    tail = np.broadcast_to(np.frombuffer(end, dtype=np.uint8), (n, len(end)))
    parts = [p for text in texts for p in (sep, text)][1:]
    return np.concatenate([*parts, tail], axis=1)


def _columns_to_csv(path, grid: GridSpec, header, columns) -> None:
    """Write the grid's u, v and arrays shaped like the grid as CSV columns,
    one row per node in C order, each number as its `repr` (what `csv.writer`
    writes for them), in blocks of `CSV_ROWS` rows with the zero bytes
    dropped."""
    from ._floatrepr import repr_bytes

    uv = grid.uv_text
    flat = [np.ravel(c) for c in columns]
    with open(path, "wb") as fh:
        fh.write(",".join(("u", "v", *header)).encode() + b"\r\n")
        for i in range(0, len(uv), CSV_ROWS):
            rows = slice(i, i + CSV_ROWS)
            block = _csv_rows(uv[rows], *(repr_bytes(c[rows]) for c in flat), end=b"\r\n")
            fh.write(block[block != 0])


def field_to_csv(fld: ScalarField, path) -> None:
    """Write the field as rows u, v, f, h, value."""
    g = fld.grid
    _columns_to_csv(path, g, ("f", "h", "value"), (g.F, g.H, fld.values))
