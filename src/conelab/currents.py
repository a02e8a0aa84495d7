"""Weighted multiplier currents, their contractions and bulk terms.

The current attached to a weight F and nonlinearity U is, in covariant
components (sphere-averaged for a single mode, hats dropped),

    P_b = e^{-2F} [ S phi d_b phi - (1/2) d_b f (grad phi)^2 ]
        + e^{-2F} d_b f U(phi)
        + e^{-2F} ((n-1)/4 - f F') phi d_b phi
        + e^{-2F} [ (f F' - (n-1)/4) F' - G/2 ] d_b f phi^2,

with S phi = grad f . grad phi and (grad phi)^2 the full metric square
including the angular term lambda phi^2 / r^2.  Its divergence can be
computed two independent ways: analytically (direct differentiation of the
components, implemented here) or by finite differences of the sampled
components; the divergence identity in the verifier compares either route
against the algebraic right-hand side.

The zero-order coefficient carries a sign subtlety: contracted with grad f it
contributes -(c f F' + G f / 2) phi^2 e^{-2F} (c = (n-1)/4 - f F').  A
variant with the opposite sign on the G f/2 term circulates in expanded
boundary formulas.  Everything here is plain arithmetic on what the weight
and U return, so it runs on sympy objects as well as on arrays:
tests/test_certificate.py feeds symbols through it and proves the identity
exactly for every F, U, n and mode, and its G-sign mutant, which flips that
term, does not reduce to 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import stencils
from .errors import (
    InvalidInput,
    MissingDerivative,
    ModeNotSupported,
    NotInwardDirected,
    RangeMismatch,
    is_finite,
)
from .fields import GridSpec, NodeRows, ScalarField, _columns_to_csv
from .weights import Potential, Reparametrization, SplitWeight, SplitWeightParams

__all__ = [
    "ZeroU",
    "PowerU",
    "CurrentField",
    "CurrentAssembler",
    "UTerms",
    "WeightTerms",
    "current_general",
    "current_split",
    "bulk_term",
    "bulk_b",
    "divergence_fd",
    "field_half",
    "current_to_csv",
]


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

class ZeroU:
    """U = 0: the linear equation.  A nonlinearity U(Q, phi) of box_U has
    `value`, `udot`, `scaling_q` (grad f . grad_Q U at fixed phi) and
    `du_ext`/`dv_ext` (the explicit Q-partials d_u U, d_v U at fixed phi)."""

    is_zero = True

    def value(self, u, v, phi):
        return 0.0  # broadcasts against every array it meets

    udot = value
    scaling_q = value
    du_ext = value
    dv_ext = value


@dataclass(frozen=True)
class PowerU:
    """U = sign/(p+1) V |phi|^{p+1} (sign +1 focusing, -1 defocusing)."""

    is_zero = False
    sign: int
    p: float
    V: Potential

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise InvalidInput("sign must be +1 or -1")
        if not (is_finite(self.p) and self.p > 0):
            raise InvalidInput(f"need p > 0, got {self.p}")

    @property
    def label(self):
        return f"power(sign={self.sign:+d}, p={self.p}, V={self.V.label})"

    def value(self, u, v, phi):
        return (self.sign / (self.p + 1.0)) * self.V.value(u, v) * np.abs(phi) ** (self.p + 1.0)

    def udot(self, u, v, phi):
        """dU/dphi = sign V |phi|^{p-1} phi; 0 at phi = 0 for p < 1 too,
        where |0|^{p-1} is inf."""
        mag = np.abs(phi)
        if self.p < 1.0:
            mag = np.where(mag == 0.0, 1.0, mag)
        return self.sign * self.V.value(u, v) * mag ** (self.p - 1.0) * phi

    def scaling_q(self, u, v, phi):
        return (self.sign / (self.p + 1.0)) * np.abs(phi) ** (self.p + 1.0) * 0.5 \
            * self.V.value(u, v) * self.V.scaling_log_derivative(u, v)

    def du_ext(self, u, v, phi):
        if self.V.du_log is None:
            raise MissingDerivative(f"{self.V.label}: d_u log V not available")
        return (self.sign / (self.p + 1.0)) * np.abs(phi) ** (self.p + 1.0) \
            * self.V.value(u, v) * self.V.du_log(u, v)

    def dv_ext(self, u, v, phi):
        if self.V.dv_log is None:
            raise MissingDerivative(f"{self.V.label}: d_v log V not available")
        return (self.sign / (self.p + 1.0)) * np.abs(phi) ** (self.p + 1.0) \
            * self.V.value(u, v) * self.V.dv_log(u, v)


def _check_mode(U: PowerU | ZeroU, ell: int):
    if not isinstance(U, (ZeroU, PowerU)):
        raise InvalidInput(f"U must be ZeroU() or a PowerU, got {type(U).__name__}")
    if not U.is_zero and U.p != 1.0 and ell != 0:
        raise ModeNotSupported(
            f"power nonlinearity with p={U.p} needs the spherically symmetric mode"
        )


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

@dataclass
class CurrentAssembler:
    """Evaluates current components and their analytic divergence pointwise.

    Each evaluation joins three stages, by what the terms read: the field
    half (`field_half`: the field alone), `UTerms` (the field and U) and
    `WeightTerms` (the field and the weight).  A caller that evaluates
    several weights or nonlinearities on the same points passes the stages
    it keeps as `terms`; the sums run in one order either way, so a kept
    stage gives the same bits as a fresh one."""

    rep: Reparametrization
    U: PowerU | ZeroU
    n: int
    lam: float

    def terms(self, u, v, f, phi, phi_u, phi_v, half):
        """The (UTerms, WeightTerms) pair of this current on the given arrays."""
        return (UTerms(self.U, u, v, phi, phi_u, phi_v, half),
                WeightTerms(self.rep, self.n, f, u, v, phi, phi_u, phi_v, half))

    @staticmethod
    def _join(ut, wt):
        """P = e^{-2F} (A_u, A_v): each bracket opened with U, then the
        weight's products added left to right."""
        cpp_u, vzp2, cpp_v, uzp2 = wt.bracket
        A_u, A_v = ut.A
        return wt.W * (A_u + cpp_u - vzp2), wt.W * (A_v + cpp_v - uzp2)

    def components(self, u, v, f, phi, phi_u, phi_v, *, terms=None):
        """(P_u, P_v) at the points (u, v).  The caller gives f = -u v: a
        grid's column `F_col`, on which the weight's profiles are evaluated
        once per row and broadcast, or `-u * v` at points.  `terms` is the
        `terms` of these arrays, from a caller that keeps them for several
        currents of one field."""
        if terms is None:
            terms = self.terms(u, v, f, phi, phi_u, phi_v,
                               field_half(u, v, self.lam, phi, phi_u, phi_v))
        return self._join(*terms)

    def divergence(self, u, v, f, phi, phi_u, phi_v, phi_uu, phi_uv, phi_vv, *, terms=None):
        """Covariant divergence of the current by direct differentiation.

        div P = -(1/2)(d_u P_v + d_v P_u) - ((n-1)/(2r))(P_u - P_v)
        in the sphere-averaged reduction.  Needs second derivatives of phi and,
        for a potential-bearing U, the partials of log V.  `f` and `terms`
        are as in `components`, the half in `terms` with the second
        derivatives, which are then read from there alone.
        """
        if terms is None:
            half = field_half(u, v, self.lam, phi, phi_u, phi_v, phi_uu, phi_uv, phi_vv)
            terms = self.terms(u, v, f, phi, phi_u, phi_v, half)
        ut, wt = terms
        P_u, P_v = self._join(ut, wt)
        dF, G, c, z, W = wt.dF, wt.G, wt.c, wt.z, wt.W
        p2, cross = wt.half[0], wt.half[5]
        d2F = self.rep.d2F(f)
        # z = f (F')^2 - ((n-1)/4) F' - G/2
        z_f = dF**2 + 2.0 * f * dF * d2F - ((self.n - 1) / 4.0) * d2F - 0.5 * self.rep.dG(f)
        open_vu, open_uv = ut.dA
        # d_u A_v and d_v A_u: the U openings, then the weight's products
        # left to right, each formed inside its sum, and the sum before the
        # F' P term (a + b is b + a to the bit) so that few are held
        dP_v_du = W * (open_vu - v * G * phi * phi_v + c * cross - z * p2
                       + u * v * z_f * p2 - 2.0 * u * z * phi * phi_u) + 2.0 * v * dF * P_v
        dP_u_dv = W * (open_uv - u * G * phi * phi_u + c * cross - z * p2
                       + u * v * z_f * p2 - 2.0 * v * z * phi * phi_v) + 2.0 * u * dF * P_u
        # -(1/2)(dP_v_du + dP_u_dv) - ((n-1)/(2r))(P_u - P_v), operation by
        # operation, in place on arrays (numbers and symbols are rebound)
        dP_v_du += dP_u_dv
        del dP_u_dv
        dP_v_du *= -0.5
        dP_v_du -= ((self.n - 1) / (2.0 * (v - u))) * (P_u - P_v)
        return dP_v_du


class UTerms:
    """The terms of the current and of the bulk term that read U and the
    field but no weight, at the points (u, v).  Given the field half (see
    `field_half`), the bracket's openings are formed at once and the half
    is not kept: `A`, and with second derivatives in the half also `dA`.
    `value`, `udot` and `scaling_q` are computed on first read and kept
    while this object lives."""

    def __init__(self, U, u, v, phi, phi_u=None, phi_v=None, half=None):
        self.U, self.u, self.v, self.phi = U, u, v, phi
        if half is None:
            return
        # the brackets (A_u, A_v) opened: the half's sums minus v U and u U
        self.A = half[1] - v * self.value, half[2] - u * self.value
        if len(half) > 3:
            # (d_u A_v, d_v A_u) opened: the half's sums minus U and u d_u U,
            # v d_v U (total derivatives along the field)
            dU_u = U.du_ext(u, v, phi) + self.udot * phi_u
            dU_v = U.dv_ext(u, v, phi) + self.udot * phi_v
            self.dA = half[3] - self.value - u * dU_u, half[4] - self.value - v * dU_v

    @cached_property
    def value(self):
        return self.U.value(self.u, self.v, self.phi)

    @cached_property
    def udot(self):
        return self.U.udot(self.u, self.v, self.phi)

    @cached_property
    def scaling_q(self):
        return self.U.scaling_q(self.u, self.v, self.phi)


class WeightTerms:
    """The weight's profiles on f (a grid's column `F_col`, or -u v at
    points): F, F', G, W = e^{-2F}, c = (n-1)/4 - f F' and
    z = (f F' - (n-1)/4) F' - G/2.  Given the field half, also the bracket's
    products that read the weight and the field but no U, which it adds
    after the U opening: `bracket` = (c phi phi_u, v z phi^2, c phi phi_v,
    u z phi^2)."""

    def __init__(self, rep, n, f, u, v, phi, phi_u=None, phi_v=None, half=None):
        self.half = half
        self.F, self.dF, self.G = rep.F(f), rep.dF(f), rep.G(f)
        self.W = rep.W(self.F)
        self.c = (n - 1) / 4.0 - f * self.dF
        self.z = (f * self.dF - (n - 1) / 4.0) * self.dF - 0.5 * self.G
        if half is not None:
            c, z, p2 = self.c, self.z, half[0]
            self.bracket = c * phi * phi_u, v * z * p2, c * phi * phi_v, u * z * p2


def field_half(u, v, lam, phi, phi_u, phi_v, phi_uu=None, phi_uv=None, phi_vv=None):
    """The field half of the current at the points (u, v), the bracket's terms
    that read neither the weight nor U: phi^2 and the opening sums of A_u and
    A_v, and given the second derivatives those of d_u A_v and d_v A_u and the
    factor phi_u phi_v + phi phi_uv that c multiplies.  The bracket adds the
    weight's terms after these, left to right, so one half serves every
    weight and U on the same points bit for bit."""
    r = v - u
    p2 = phi**2
    Sphi = 0.5 * (u * phi_u + v * phi_v)
    Mg = -phi_u * phi_v + lam * p2 / r**2
    half = (p2, Sphi * phi_u + (v / 2.0) * Mg, Sphi * phi_v + (u / 2.0) * Mg)
    if phi_uu is None:
        return half
    dSphi_u = 0.5 * (phi_u + u * phi_uu + v * phi_uv)
    dSphi_v = 0.5 * (u * phi_uv + phi_v + v * phi_vv)
    dMg_u = -(phi_uu * phi_v + phi_u * phi_uv) + lam * (2.0 * p2 / r**3
                                                        + 2.0 * phi * phi_u / r**2)
    dMg_v = -(phi_uv * phi_v + phi_u * phi_vv) + lam * (-2.0 * p2 / r**3
                                                        + 2.0 * phi * phi_v / r**2)
    return half + (dSphi_u * phi_v + Sphi * phi_uv + 0.5 * Mg + (u / 2.0) * dMg_u,
                   dSphi_v * phi_u + Sphi * phi_uv + 0.5 * Mg + (v / 2.0) * dMg_v,
                   phi_u * phi_v + phi * phi_uv)


@dataclass(frozen=True)
class CurrentField:
    """The current of a field: its assembler applied to the field's derivatives.

    `components_at` evaluates (P_u, P_v) anywhere through the field's point
    evaluator; the divergence is `assembler.divergence`, on derivatives the
    caller supplies."""

    field: ScalarField
    assembler: CurrentAssembler

    @property
    def grid(self) -> GridSpec:
        return self.field.grid

    def components_at(self, u, v):
        return self.assembler.components(u, v, -u * v, *self.field.evaluator().derivs1(u, v))

    def flux(self, u, v, face: str):
        """The contraction of the current's components at (u, v) that face
        `face` carries: P . grad f = (u P_u + v P_v)/2 on 'f' (hyperboloid
        flux density), u^2 P . grad h = (u P_u - v P_v)/2 on 'h' (cone)."""
        if face not in ("f", "h"):
            raise InvalidInput(f"face must be 'f' or 'h', got {face!r}")
        P_u, P_v = self.components_at(u, v)
        if face == "f":
            return 0.5 * (u * P_u + v * P_v)
        return 0.5 * (u * P_u - v * P_v)


def current_general(fld: ScalarField, rep: Reparametrization,
                    U: PowerU | ZeroU = ZeroU()) -> CurrentField:
    """Current for an arbitrary inward weight and nonlinearity."""
    g = fld.grid
    _check_mode(U, fld.ell)
    if np.any(rep.dF(g.F_col) >= 0):
        raise NotInwardDirected(f"{rep.name}: F' >= 0 somewhere on the grid")
    return CurrentField(field=fld, assembler=CurrentAssembler(rep=rep, U=U, n=g.n, lam=fld.lam))


def current_split(fld: ScalarField, params: SplitWeightParams, branch: str) -> CurrentField:
    """Split-estimate current P^- (branch 'low', f <= 1) or P^+ ('high', f >= 1)."""
    reg = fld.grid.region
    tol = 1e-12
    if branch == "low" and reg.omega > 1.0 + tol:
        raise RangeMismatch(f"low branch needs f <= 1, grid reaches f = {reg.omega}")
    if branch == "high" and reg.rho < 1.0 - tol:
        raise RangeMismatch(f"high branch needs f >= 1, grid reaches f = {reg.rho}")
    return current_general(fld, SplitWeight(params, branch))


def bulk_term(rep: Reparametrization, U: PowerU | ZeroU, n: int, f, u, v, phi, *, terms=None):
    """Bulk source term B_U^F of the divergence identity at the points (u, v):

        B = e^{-2F} [ ((n-1)/4 - f F') Udot(phi) phi
                      - grad f . grad_Q U - 2 ((n+1)/4 - f F') U(phi) ].

    f is passed explicitly (the grid's f column `F_col` on a grid, -u v at
    quadrature nodes).  `terms` is the (UTerms, WeightTerms) pair of these
    arrays, from a caller that keeps them (see `CurrentAssembler.terms`).
    For the power weight and a power nonlinearity this is
    -sign/(p+1) f^{2a} V Gamma_V |phi|^{p+1}: tests/test_certificate.py
    reduces this code's arithmetic to that closed form exactly, once, in
    place of a comparison at every call.
    """
    ut, wt = terms or (UTerms(U, u, v, phi), WeightTerms(rep, n, f, u, v, phi))
    return wt.W * (wt.c * ut.udot * phi
                   - ut.scaling_q
                   - 2.0 * ((n + 1) / 4.0 - f * wt.dF) * ut.value)


def bulk_b(fld: ScalarField, rep: Reparametrization,
           U: PowerU | ZeroU = ZeroU()) -> ScalarField:
    """`bulk_term` on the field's grid."""
    g = fld.grid
    _check_mode(U, fld.ell)
    vals = bulk_term(rep, U, g.n, g.F_col, g.U, g.V, fld.values)
    return ScalarField(grid=g, values=vals, name=f"B[{fld.name}]")


def divergence_fd(nodes: NodeRows, P_u: np.ndarray, P_v: np.ndarray) -> np.ndarray:
    """Divergence by finite differences of components sampled on a run of a
    grid's rows, `nodes` (all of them: `NodeRows(grid)`).

    Only the cross derivatives d_u P_v and d_v P_u enter: by the chain rule
    (fields' module docstring) d_u = (d_s - d_y)/u and d_v = (d_s + d_y)/v.
    A row at least `order // 2` rows inside the run, or on the grid's edge,
    gets the bits it has on the whole grid."""
    if not (np.all(np.isfinite(P_u)) and np.all(np.isfinite(P_v))):
        raise InvalidInput("current components must be finite")
    d1 = partial(stencils.d1, order=nodes.order)
    dPu_v = (d1(P_u, nodes.ds, axis=0) + d1(P_u, nodes.dy, axis=1)) / nodes.V
    dPv_u = (d1(P_v, nodes.ds, axis=0) - d1(P_v, nodes.dy, axis=1)) / nodes.U
    return -0.5 * (dPv_u + dPu_v) - nodes.radial_coef * (P_u - P_v)


def current_to_csv(cur: CurrentField, path) -> None:
    """Write the current as rows u, v, P_u, P_v on its field's grid."""
    g = cur.grid
    # f = -u v at every node, as at the point evaluator's, so that the
    # samples are its values bit for bit
    P = cur.assembler.components(g.U, g.V, -g.U * g.V, *cur.field.derivs1())
    _columns_to_csv(path, g, ("P_u", "P_v"), P)
