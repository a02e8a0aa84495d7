"""Verification routines: identity closure, estimate chains, limit slopes,
and the uniqueness pipeline, whose step 2 is the one measure of a potential's B.

`identity_convergence`, `carleman_split_check`, `split_cancellation`,
`boundary_limit_experiment` and `uniqueness_pipeline` (with its flux series)
return the `CheckRecord` the report holds; the others return a dataclass of
the computed numbers and a pass flag (with Gamma_V's sign for the nl chain).
`identity_checks` runs several (weight, U) checks of the identity on one
field and route, and builds each term they share once.  The limit
experiment and the pipeline follow surface integrals along foliation limits
with one sequence of surfaces (`_surfaces`) and fit its last TAIL points;
every rate is one log-log fit (`log_slope`).  Nothing here prints or writes
files.  The ground truth is the divergence identity

    L psi . S* psi = 2 F' |S* psi|^2 + (f F' G + H) psi^2 + B + div P,

with L psi = e^{-F}(box phi + Udot(phi)), psi = e^{-F} phi, checked with
derivatives obtained either analytically (closed forms or splines) or by
finite differences whose order of accuracy is fitted across grid levels.
Integrated consequences (the split and nonlinear estimates) are checked as
exact inequality chains with calibrated constants, never by re-deriving the
intermediate algebra of the current.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from typing import Optional, Sequence

import numpy as np

from . import quadrature as qd
from .currents import (
    PowerU,
    UTerms,
    WeightTerms,
    ZeroU,
    _check_mode,
    bulk_term,
    current_general,
    current_split,
    divergence_fd,
    field_half,
)
from .errors import (
    InsufficientSequence,
    InvalidInput,
    InvalidPotential,
    RangeMismatch,
)
from .fields import (
    GridSpec,
    NodeRows,
    ScalarField,
    exact_spherical_wave,
    from_expr,
    static_multipole,
    wave_op,
)
from .weights import (
    PowerLog,
    Reparametrization,
    SplitWeight,
    SplitWeightParams,
    decay_envelope,
    gamma_v,
)

__all__ = [
    "CheckRecord",
    "IdentityReport",
    "identity_checks",
    "identity_residual",
    "identity_convergence",
    "PointwiseReport",
    "pointwise_inequality",
    "carleman_split_check",
    "split_cancellation",
    "NlChainReport",
    "carleman_nl_check",
    "boundary_limit_experiment",
    "battery_fields",
    "battery_weights",
    "uniqueness_pipeline",
]

E2_OVER_4 = math.e**2 / 4.0
# Fixed constants of the checks.  Every fixed nonzero tolerance a record
# reports is read from here when the record is built.
ORDER_FLOOR = 1e-12      # identity-order: a relative residual below this is rounding
POINTWISE_SLACK = 2.0    # pointwise margin may dip this many identity residuals below 0
SPLIT_REL_TOL = 1e-7     # split chain: tolerated relative deficit of its margin
LEVEL_RATIO = 2.0        # limit and pipeline surfaces grow or shrink by this per level
SLOPE_REL_TOL = 0.10     # limit slopes: tolerated relative error against the target
ANALYTIC_TOL = 1e-9      # identity-analytic: largest relative residual of the closed forms
SEAM_TOL = 1e-10         # split seam: largest relative mismatch of the two branch fluxes
STABILITY_TOL = 0.10     # battery constants: largest relative move of C and K per refinement
RESIDUAL_TOL = 1e-10     # counterexample: largest static-equation residual
TAIL_SLOPE_TOL = 0.01    # counterexample: tolerated relative error of the tail slope
DRIFT_TOL = 0.01         # solve: largest relative drift of the leapfrog energy
FLAT_TOL = 0.05          # pipeline: a log-log slope within this of 0 is "bounded"
ZERO_FLOOR = 1e-13       # pipeline: a flux sequence below this is "zero"
SURFACES = 6             # pipeline: surfaces per tracked flux term
TAIL = 4                 # limit and pipeline slopes: points fitted at the end of a sequence


@dataclass(frozen=True)
class CheckRecord:
    """One named pass/fail check with its value and tolerance."""

    name: str
    passed: bool
    value: float
    tolerance: float
    details: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        # every comparison with NaN is false, so a check written as "fail
        # when value exceeds tolerance" would pass it, and an infinite
        # tolerance admits every value; this one guard fails both
        if not (math.isfinite(self.value) and math.isfinite(self.tolerance)):
            object.__setattr__(self, "passed", False)


# ---------------------------------------------------------------------------
# identity closure
# ---------------------------------------------------------------------------

def identity_checks(fld: ScalarField, derivative_mode: str, pairs: Sequence, check) -> list:
    """One report per (weight, U) pair of `pairs`, in turn, on the route
    `fld.route(derivative_mode)`: `check(fld, rep, U, stages)` run on each
    row block of the grid (`_row_blocks`), its `IdentityReport` or
    `PointwiseReport` joined with those of the blocks before (`_joined`).

    The blocks are the outer loop and the pairs the inner one.  A block
    holds one of the grid's row runs (`GridSpec.row_runs`, at most
    BLOCK_POINTS nodes) and, on the FD route, a halo of `order // 2` rows on
    each side, clipped at the grid's edges, so that the divergence stencils
    reach its own rows as they do on the whole grid.  Every array of a
    check is the size of a block: its node arrays are its own
    (`NodeRows`), and the field's values are the only array of the grid's
    size that it reads.  In a block, the identity's terms that the pairs
    share are built once, one stage per dependency level; `stages` is the
    pair's (block, field, field x U, field x weight) stages, which
    `identity_residual` and `pointwise_inequality` take:

    - field: (phi, phi_u, phi_v), which live through the loop over the
      pairs, and box phi and the field half of the current (`field_half`).
      On the FD route they are `fd_derivs("wave", nodes)`, whose s stencils
      read a further `order // 2` rows of values on each side; on the
      analytic one the closed form's `derivs2` at the block's nodes.  The
      second derivatives go once box phi and the half are built;
    - field x U, one per distinct U object, all built first: `UTerms` and
      box phi + Udot.  Box phi and the half's openings go after them;
    - field x weight, one per run of consecutive pairs that share a weight
      object, each dropped before the next is built: see `_weight_stage`.

    No stage is kept on the field, and a block's nodes and stages go before
    the next block's are built."""
    mode = fld.route(derivative_mode)
    reports = [None] * len(pairs)
    for block in _row_blocks(fld.grid, mode):
        nodes = block.nodes
        if mode == "fd":
            derivs = fld.fd_derivs("wave", nodes)
        else:
            derivs = fld.closed_form.derivs2(nodes.U, nodes.V)
        first = phi, phi_u, phi_v = derivs[:3]
        phi_uv, second = (derivs[3], ()) if mode == "fd" else (derivs[4], derivs[3:])
        half = field_half(nodes.U, nodes.V, fld.lam, phi, phi_u, phi_v, *second)
        boxphi = wave_op(nodes.n, fld.lam, nodes.R, phi, phi_u, phi_v, phi_uv)
        del derivs, phi_uv, second
        u_stages = {}  # by id: `pairs` holds each U while this lives
        for _, U in pairs:
            if id(U) not in u_stages:
                _check_mode(U, fld.ell)
                u_stages[id(U)] = UTerms(U, nodes.U, nodes.V, phi, phi_u, phi_v, half)
        u_stages = {key: (ut, boxphi + ut.udot) for key, ut in u_stages.items()}
        del boxphi
        # the weight stages read the half's phi^2 and the factor c multiplies
        half = (half[0], None, None, None, None, *half[5:])
        w_rep, w_stage = None, None
        for i, (rep, U) in enumerate(pairs):
            if rep is not w_rep:
                w_stage = None  # the last weight's stage goes before the next is built
                w_rep, w_stage = rep, _weight_stage(block, rep, phi, phi_u, phi_v, half)
            reports[i] = _joined(reports[i],
                                 check(fld, rep, U, (block, first, u_stages[id(U)], w_stage)))
        # the next block's nodes and stages are built without these
        del block, nodes, first, phi, phi_u, phi_v, half, u_stages, w_stage
    return reports


@dataclass(frozen=True)
class _Block:
    nodes: NodeRows  # the block's rows, its halo included
    own: slice       # its own rows, among them
    checked: tuple   # the slice pair of its own nodes where residual and margin are read


def _row_blocks(g: GridSpec, mode: str):
    """The row blocks of `identity_checks` on the grid, in order, each made
    when the loop reaches it: one per row run (`GridSpec.row_runs`).  On the
    FD route each block's nodes extend `order // 2` rows past its own on
    each side, clipped at the grid's edges, and its residual and margin are
    read on its own nodes inside `grid.interior(2)`."""
    halo = g.order // 2 if mode == "fd" else 0
    keep_rows, keep_cols = g.interior(2) if mode == "fd" else (slice(0, g.n_s), slice(None))
    for own in g.row_runs():
        lo, hi = own.start, own.stop
        start = max(lo - halo, 0)
        checked = slice(max(lo, keep_rows.start) - lo, min(hi, keep_rows.stop) - lo)
        yield _Block(NodeRows(g, slice(start, min(hi + halo, g.n_s))),
                     slice(lo - start, hi - start), (checked, keep_cols))


def _weight_stage(block: _Block, rep: Reparametrization, phi, phi_u, phi_v, half):
    """The field x weight stage on the block's nodes: the `WeightTerms` (the
    bracket's products among them), e^{-F}, S* psi (psi = e^{-F} phi), the
    bulk coefficient f|F'|G - H, 2 F' |S* psi|^2 - (f|F'|G - H) psi^2 and
    the largest |2 F' |S* psi|^2| on its own rows."""
    nodes = block.nodes
    wt = WeightTerms(rep, nodes.n, nodes.F_col, nodes.U, nodes.V, phi, phi_u, phi_v, half)
    dF = wt.dF
    E = np.exp(-wt.F)
    psi = E * phi
    psi_u = E * (phi_u + nodes.V * dF * phi)
    psi_v = E * (phi_v + nodes.U * dF * phi)
    sstar = 0.5 * (nodes.U * psi_u + nodes.V * psi_v) + (nodes.n - 1) / 4.0 * psi
    square = 2.0 * dF * sstar**2
    # F' < 0 (current_general checks it), so f F' G + H is minus the bulk
    # coefficient, and negating it is exact
    bulk = rep.bulk_coefficient(nodes.F_col)
    return (wt, E, sstar, bulk, square - bulk * psi**2,
            float(np.max(np.abs(square[block.own]))))


def _identity_arrays(fld: ScalarField, rep: Reparametrization, U, mode: str, stages):
    """On the own rows of the block of `stages` (see identity_checks): the
    LHS and RHS arrays of the divergence identity, the largest |LHS|,
    |2 F' |S* psi|^2| and |div P| that the residual's scale is taken from,
    and the terms the pointwise margin reads: F' and the bulk coefficient
    f |F'| G - H (on the f column, where the weight profiles, those of the
    current's weight half included, are evaluated and broadcast), e^{-F},
    phi, L = e^{-F}(box phi + Udot), B and div P.  Only the sums that mix U
    and weight terms are formed here."""
    block, (phi, phi_u, phi_v), (ut, boxU), (wt, E, sstar, bulk, square_bulk, square_max) = stages
    nodes, own = block.nodes, block.own
    f = nodes.F_col

    # the divergence first: its temporaries peak above all the rest
    asm = current_general(fld, rep, U).assembler
    shared = (ut, wt)
    if mode == "fd":
        div = divergence_fd(nodes, *asm.components(nodes.U, nodes.V, f, phi, phi_u, phi_v,
                                                   terms=shared))
    else:
        # the half in `shared` carries what the divergence reads of the
        # second derivatives
        div = asm.divergence(nodes.U, nodes.V, f, phi, phi_u, phi_v, None, None, None,
                             terms=shared)
    div = div[own]
    Bv = bulk_term(rep, U, nodes.n, f, nodes.U, nodes.V, phi, terms=shared)[own]
    rhs = square_bulk[own] + Bv + div
    L = E[own] * boxU[own]
    lhs = L * sstar[own]
    maxima = (float(np.max(np.abs(lhs))), square_max, float(np.max(np.abs(div))))
    terms = {"dF": wt.dF[own], "bulk": bulk[own], "E": E[own], "phi": phi[own], "L": L,
             "B": Bv, "div": div}
    return lhs, rhs, maxima, terms


@dataclass(frozen=True)
class IdentityReport:
    residual: float
    rel_residual: float
    mode: str
    # the largest |LHS|, |2 F' |S* psi|^2| and |div P| on the nodes checked:
    # the residual's scale is the largest of them and 1e-300
    maxima: tuple = dc_field(repr=False)
    # one block's term arrays (see _identity_arrays), which
    # pointwise_inequality builds its margin from; a joined report has none
    terms: Optional[dict] = dc_field(default=None, compare=False, repr=False)


def _identity_report(residual: float, maxima: tuple, mode: str, terms=None) -> IdentityReport:
    return IdentityReport(residual=residual, rel_residual=residual / max(*maxima, 1e-300),
                          mode=mode, maxima=maxima, terms=terms)


def _joined(acc, rep):
    """The block report `rep` joined with `acc`, the join of the blocks
    before it (None at the first): the residual and each of the scale's
    maxima by the larger, the margin by the smaller, each a NaN where either
    is, as one max or min over their nodes would be; no arrays are kept."""
    acc = rep if acc is None else acc
    if isinstance(rep, PointwiseReport):
        return _pointwise_report(float(np.minimum(acc.margin_min, rep.margin_min)),
                                 _joined(acc.identity, rep.identity))
    return _identity_report(float(np.maximum(acc.residual, rep.residual)),
                            tuple(map(float, np.maximum(acc.maxima, rep.maxima))), rep.mode)


def identity_residual(fld: ScalarField, rep: Reparametrization,
                      U: PowerU | ZeroU = ZeroU(), *,
                      derivative_mode: str = "auto", stages=None) -> IdentityReport:
    """Max-norm residual of the divergence identity on the interior nodes.

    `fld.route(derivative_mode)` picks the route: 'analytic' uses closed-form
    derivatives everywhere (machine-level); 'fd' uses centered stencils for
    both the field and the current divergence, so the residual shrinks at
    the stencil order under refinement.  `stages` is one block's stages of
    this check, from `identity_checks` on the same field and route, and the
    report is then that block's.
    """
    mode = fld.route(derivative_mode)
    if stages is None:
        return identity_checks(fld, mode, [(rep, U)], lambda fld, rep, U, stages:
                               identity_residual(fld, rep, U, derivative_mode=mode,
                                                 stages=stages))[0]
    lhs, rhs, maxima, terms = _identity_arrays(fld, rep, U, mode, stages)
    # lhs is this call's own, so the difference and its size overwrite it
    res = float(np.max(np.abs(np.subtract(lhs, rhs, out=lhs), out=lhs)[stages[0].checked]))
    return _identity_report(res, maxima, mode, terms)


def identity_convergence(fields: Sequence[ScalarField], rels: Sequence[float]) -> CheckRecord:
    """Fit the FD-mode residual order across one sampled field per grid level,
    from `rels`, the identity's relative FD residual on each field in turn
    (`identity_residual(..., derivative_mode="fd").rel_residual`).

    A field's level is its grid's `n_s`; the levels must be distinct (in any
    order), the grids must share region, `n` and stencil order, the fields
    their mode `ell`, and there is one residual per field.
    Passes when the fitted order lies in [1.5, 4.5] or every residual sits
    below ORDER_FLOOR (fields annihilated by the identity to machine
    precision have no order to fit; the value is then the largest residual).
    """
    levels = [fld.grid.n_s for fld in fields]
    if len(levels) < 2:
        raise InsufficientSequence("need at least two grid levels")
    if len(set(levels)) != len(levels):
        raise InsufficientSequence(f"grid levels must be distinct, got {levels}")
    shared = {(fld.grid.region, fld.grid.n, fld.ell, fld.grid.order) for fld in fields}
    if len(shared) != 1:
        raise InvalidInput("identity levels must share region, n, ell and stencil order")
    rels = list(rels)
    if len(rels) != len(levels):
        raise InvalidInput(f"need one residual per level, got {len(rels)} for {len(levels)}")
    rels_arr = np.asarray(rels)
    hs = np.array([1.0 / (m - 1) for m in levels])
    if np.all(rels_arr < ORDER_FLOOR):
        return CheckRecord(name="identity-order", passed=True,
                           value=float(np.max(rels_arr)), tolerance=ORDER_FLOOR,
                           details={"residuals": rels, "levels": list(levels),
                                    "at_floor": True})
    fit = log_slope(hs, np.maximum(rels_arr, 1e-300))
    passed = 1.5 <= fit <= 4.5
    return CheckRecord(name="identity-order", passed=passed, value=fit,
                       tolerance=0.0,
                       details={"residuals": rels, "levels": list(levels),
                                "at_floor": False})


# ---------------------------------------------------------------------------
# pointwise inequality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointwiseReport:
    margin_min: float
    passed: bool
    mode: str
    identity: IdentityReport  # the identity evaluation the margin was built from


def _pointwise_report(mmin: float, idrep: IdentityReport) -> PointwiseReport:
    """The margin's report: it passes when its minimum dips below 0 by at
    most POINTWISE_SLACK identity residuals, and neither is a NaN or
    infinite."""
    tol = POINTWISE_SLACK * idrep.residual
    passed = math.isfinite(mmin) and math.isfinite(tol) and mmin >= -tol
    return PointwiseReport(margin_min=mmin, passed=passed, mode=idrep.mode,
                           identity=replace(idrep, terms=None))


def pointwise_inequality(fld: ScalarField, rep: Reparametrization,
                         U: PowerU | ZeroU = ZeroU(), *,
                         derivative_mode: str = "auto", stages=None) -> PointwiseReport:
    """Completed-square consequence of the identity:

        (f |F'| G - H) psi^2 <= (1/8)|F'|^{-1} |L psi|^2 + B + div P,

    checked nodewise on the arrays of one identity evaluation.  The margin may
    dip below zero only by the identity discretization error; POINTWISE_SLACK
    times that residual is tolerated.  A non-finite margin or tolerance fails.
    `stages` is as in `identity_residual`.
    """
    mode = fld.route(derivative_mode)
    if stages is None:
        return identity_checks(fld, mode, [(rep, U)], lambda fld, rep, U, stages:
                               pointwise_inequality(fld, rep, U, derivative_mode=mode,
                                                    stages=stages))[0]
    idrep = identity_residual(fld, rep, U, derivative_mode=mode, stages=stages)
    t = idrep.terms
    # L and psi are this call's own, so their squares overwrite them
    margin = np.square(t["L"], out=t["L"])
    margin *= 0.125 / np.abs(t["dF"])
    margin += t["B"]
    margin += t["div"]
    psi = t["E"] * t["phi"]
    bulk_psi2 = np.square(psi, out=psi)
    bulk_psi2 *= t["bulk"]
    margin -= bulk_psi2
    return _pointwise_report(float(np.min(margin[stages[0].checked])), idrep)


# ---------------------------------------------------------------------------
# estimate chains
# ---------------------------------------------------------------------------

def _chain(cur, integrand, nodes: int):
    """Chain lhs <= rhs + boundary flux of a current over its field's region.

    `integrand(u, v)` gives lhs, rhs and any further bulk integrands, all
    integrated on one node mesh.  Returns the integrals, the current's
    BoundarySum, the margin rhs + boundary - lhs and its scale max(|lhs|, |rhs|).
    """
    reg, n = cur.grid.region, cur.grid.n
    ints = qd.bulk_integral(integrand, reg, n=n, nodes=nodes)
    bnd = qd.boundary_sum(cur.flux, reg, n=n, nodes=nodes)
    lhs, rhs = ints[0], ints[1]
    return ints, bnd, rhs + bnd.total - lhs, max(abs(lhs), abs(rhs), 1e-300)


def carleman_split_check(fld: ScalarField, params: SplitWeightParams, branch: str,
                         *, nodes: int = qd.DEFAULT_NODES) -> CheckRecord:
    """Exact integral chain behind the split estimate on one branch:

        A := int e^{-2F}(f|F'|G - H) phi^2
          <= (1/8) int e^{-2F} |F'|^{-1} |box phi|^2 + boundary flux total.

    Also calibrates C = A / (b^2 p int f^{2(a-+b)} f^{+-p-1} phi^2) >= 1 and
    K = (a/8) rhs_bulk / int f^{2(a-+b)} f |box phi|^2 <= e^2/4; rhs_bulk
    carries the chain's 1/8, so K = (a/64) int e^{-2F}|F'|^{-1}|box phi|^2 /
    int f^{2(a-+b)} f |box phi|^2 (which K the estimate needs: ROADMAP item
    24).  Each is None where its reference integral vanishes, and C at b = 0,
    where the bound b^2 p f^{+-p-1} it calibrates is 0.  The record's value
    is the margin; its details hold both bulk sides, the boundary terms, C and K.
    """
    g = fld.grid
    cur = current_split(fld, params, branch)
    rep = cur.assembler.rep
    ev = fld.evaluator()
    a, b, p, s = params.a, params.b, params.p, rep.s

    def integrand(u, v):
        f = -u * v
        ph, pu, pv, puv = ev.derivs_wave(u, v)
        boxphi = wave_op(g.n, fld.lam, v - u, ph, pu, pv, puv)
        W = rep.W(rep.F(f))
        ref = f ** (2 * (a - s * b))
        return (W * rep.bulk_coefficient(f) * ph ** 2,
                0.125 * W / np.abs(rep.dF(f)) * boxphi ** 2,
                ref * f ** (s * p - 1) * ph ** 2,
                ref * f * boxphi ** 2)

    (A, rhs_bulk, iw, ibox), bnd, margin, scale = _chain(cur, integrand, nodes)
    tiny = 1e-14
    c_cal = A / (b**2 * p * iw) if b > 0 and iw > tiny * max(abs(A), 1.0) else None
    k_cal = (a / 8.0) * (rhs_bulk / ibox) if ibox > tiny * max(rhs_bulk, 1.0) else None
    passed = margin >= -SPLIT_REL_TOL * scale
    if c_cal is not None:
        passed = passed and c_cal >= 1.0 - 1e-9
    if k_cal is not None:
        passed = passed and k_cal <= E2_OVER_4 + 1e-9
    return CheckRecord(name=f"split-chain[{branch}]", passed=passed, value=margin,
                       tolerance=0.0,
                       details={"lhs_bulk": A, "rhs_bulk": rhs_bulk,
                                "boundary": bnd.as_dict(), "c_cal": c_cal, "k_cal": k_cal})


def split_cancellation(fld_low: ScalarField, fld_high: ScalarField,
                       params: SplitWeightParams, *,
                       nodes: int = qd.DEFAULT_NODES) -> CheckRecord:
    """Flux cancellation at the seam f = 1 when the two branches are glued.

    The low branch contributes +int_{F_1} f^{-1/2} P^- . grad f (its outer
    face), the high branch -int_{F_1} f^{-1/2} P^+ . grad f (its inner face);
    the weights agree at f = 1 so the sum must vanish identically.
    """
    g_lo, g_hi = fld_low.grid, fld_high.grid
    if abs(g_lo.region.omega - 1.0) > 1e-12 or abs(g_hi.region.rho - 1.0) > 1e-12:
        raise RangeMismatch("branch regions must meet at f = 1")
    if (g_lo.region.sigma != g_hi.region.sigma
            or g_lo.region.tau != g_hi.region.tau):
        raise RangeMismatch("branch regions must share the cone cutoffs")

    def flux(fld, branch):
        return qd.face_flux(current_split(fld, params, branch).flux, "f", 1.0,
                            fld.grid.region, n=fld.grid.n, nodes=nodes)

    lo = flux(fld_low, "low")
    hi = flux(fld_high, "high")
    scale = max(abs(lo), abs(hi), 1e-300)
    rel = abs(lo - hi) / scale
    return CheckRecord(name="split-seam-cancellation", passed=rel <= SEAM_TOL,
                       value=rel, tolerance=SEAM_TOL,
                       details={"low_flux": lo, "high_flux": hi})


@dataclass(frozen=True)
class NlChainReport:
    lhs_bulk: float
    rhs_bulk: float
    boundary: qd.BoundarySum
    margin: float
    gamma_min: float
    gamma_max: float
    passed: bool


def carleman_nl_check(fld: ScalarField, a: float, U: PowerU, *,
                      nodes: int = qd.DEFAULT_NODES, rel_tol: float = 1e-7) -> NlChainReport:
    """Integral chain behind the nonlinear estimate with weight f^{2a}:

        sign/(p+1) int f^{2a} V Gamma_V |phi|^{p+1}
          <= 1/(8a) int f^{2a} f |box phi + Udot|^2 + boundary flux total.

    The left side is the bulk integral of -B, evaluated at the quadrature
    nodes by `bulk_term`, whose arithmetic tests/test_certificate.py reduces
    to the closed form -sign/(p+1) f^{2a} V Gamma_V |phi|^{p+1} exactly; a
    NaN at a node makes the margin NaN and fails the chain.  Gamma_V's range
    at the chain's quadrature nodes is reported: the monotonicity reading of
    the estimate needs it > 0 when focusing and < 0 when defocusing, and
    `passed` requires that (a NaN Gamma_V fails both comparisons).
    """
    if a <= 0:
        raise InvalidInput(f"need a > 0, got {a}")
    g = fld.grid
    rep = PowerLog(a)
    ev = fld.evaluator()
    cur = current_general(fld, rep, U)
    ranges = []  # Gamma_V's least and largest value on each block of nodes

    def integrand(u, v):
        f = -u * v
        gam = gamma_v(U.V, a, U.p, u, v, g.n)
        ranges.extend((np.min(gam), np.max(gam)))
        ph, pu, pv, puv = ev.derivs_wave(u, v)
        B = bulk_term(rep, U, g.n, f, u, v, ph)
        L = wave_op(g.n, fld.lam, v - u, ph, pu, pv, puv) + U.udot(u, v, ph)
        return -B, (1.0 / (8.0 * a)) * f ** (2 * a) * f * L**2

    (lhs, rhs), bnd, margin, scale = _chain(cur, integrand, nodes)
    gmin, gmax = float(np.min(ranges)), float(np.max(ranges))  # a NaN stays, unlike min()
    sign_ok = gmin > 0 if U.sign > 0 else gmax < 0
    return NlChainReport(lhs_bulk=lhs, rhs_bulk=rhs, boundary=bnd, margin=margin,
                         gamma_min=gmin, gamma_max=gmax,
                         passed=margin >= -rel_tol * scale and sign_ok)


# ---------------------------------------------------------------------------
# foliation limits and the boundary limit experiments
# ---------------------------------------------------------------------------

def _surfaces(start: float, outward: bool, count: int) -> list:
    """Levels of a foliation limit: `start` moved by LEVEL_RATIO per level,
    outward (growing) or inward (shrinking)."""
    return [start * LEVEL_RATIO ** (k if outward else -k) for k in range(count)]


def log_slope(levels, values) -> float:
    """Least-squares slope of log(values) against log(levels), over every
    point given.  Raises InsufficientSequence on a value <= 0."""
    if np.any(np.asarray(values) <= 0):
        raise InsufficientSequence("nonpositive values in slope fit")
    return float(np.polyfit(np.log(levels), np.log(values), 1)[0])


def boundary_limit_experiment(kind: str, *, n: int, delta: float,
                              alpha: float = 0.25, beta: float = 0.0,
                              count: int = 6, nodes: int = qd.DEFAULT_NODES) -> CheckRecord:
    """Measure the decay rate of boundary integrals along a foliation limit.

    kind 'cone_tau'        : int_{H^tau} |Psi|           ~ tau^{-delta/2}
    kind 'cone_sigma'      : int_{H^sigma} |Psi|         ~ sigma^{+delta/2}
    kind 'hyperboloid_rho' : int_{F_rho} f^{-1/2+alpha}  ~ rho^{alpha}
    kind 'hyperboloid_omega': int_{F_omega} f^{-1/2+beta} ~ omega^{beta-delta}

    with Psi = (1+r)^{-(n-1+delta)} on the cone and inner-hyperboloid limits
    and Psi = (1+r+f)^{-(n-1+delta)} on the outer one.  The rho and omega
    limits hold a fixed time window (the omega one on the inverted chart) --
    with cutoff-tied windows the measured rate would be off by one power.
    Each level moves the surface by LEVEL_RATIO.  The slope is `log_slope`
    through the last TAIL points; it passes within
    SLOPE_REL_TOL of the target, relative.  Returns the `limit-slope[kind]`
    record, whose value is the slope.
    """
    if count < TAIL:
        raise InsufficientSequence(f"need at least {TAIL} sequence points, got {count}")
    if delta <= 0:
        raise InvalidInput(f"need delta > 0, got {delta}")

    def psi_r(u, v):
        r = v - u
        return (1.0 + r) ** (-(n - 1 + delta))

    def psi_rf(u, v):
        r = v - u
        f = -u * v
        return (1.0 + r + f) ** (-(n - 1 + delta))

    f_window, t_window = (0.1, 10.0), (-2.0, 2.0)

    def cone(h):
        return qd.cone_integral(psi_r, h, f_window, n=n, nodes=nodes)

    # kind: (first surface, outward, target slope, integral over a surface)
    table = {
        "cone_tau": (256.0, True, -delta / 2.0, cone),
        "cone_sigma": (1.0 / 256.0, False, delta / 2.0, cone),
        "hyperboloid_rho": (0.02, False, alpha,
                            lambda rho: qd.hyperboloid_integral(
                                lambda u, v: (-u * v) ** (-0.5 + alpha) * psi_r(u, v),
                                rho, n=n, nodes=nodes, t_window=t_window)),
        "hyperboloid_omega": (64.0, True, beta - delta,
                              lambda omega: qd.inverted_hyperboloid_integral(
                                  lambda u, v: (-u * v) ** (-0.5 + beta) * psi_rf(u, v),
                                  omega, n=n, nodes=nodes, tbar_window=t_window)),
    }
    if kind not in table:
        raise InvalidInput(f"unknown experiment kind {kind!r}")
    start, outward, target, integral = table[kind]
    levels = _surfaces(start, outward, count)
    values = [integral(x) for x in levels]
    # decreasing levels (sigma, rho) still fit against log(level)
    slope = log_slope(levels[-TAIL:], values[-TAIL:])
    denom = max(abs(target), 0.05)
    rel = abs(slope - target) / denom
    return CheckRecord(name=f"limit-slope[{kind}]", passed=rel <= SLOPE_REL_TOL,
                       value=slope, tolerance=SLOPE_REL_TOL,
                       details={"target": target, "rel_err": rel,
                                "levels": levels, "values": values})


# ---------------------------------------------------------------------------
# battery inputs
# ---------------------------------------------------------------------------

def battery_fields() -> list:
    """(name, source, ell) triples for the identity battery."""
    return [
        *((name, from_expr(expr, label=name), 0) for name, expr in _BATTERY_EXPRS.items()),
        ("spherical-wave", exact_spherical_wave(width=1.0, power=8), 0),
        ("multipole", static_multipole(1, 3), 1),
    ]


_BATTERY_EXPRS = {
    "unit": "1 + 0*u",
    "oscillatory": "sin(u)*cos(v/3)",
    "separable-power": "(-u*v)**(4/5) * (-v/u)**(3/10)",
}


def battery_weights() -> list:
    """(name, reparametrization) pairs for the identity battery."""
    params = SplitWeightParams(a=1.0, b=0.1, p=0.5)
    return [
        ("power-log", PowerLog(1.0)),
        ("split-low", SplitWeight(params, "low")),
        ("split-high", SplitWeight(params, "high")),
    ]


# ---------------------------------------------------------------------------
# uniqueness pipeline
# ---------------------------------------------------------------------------

def _classify_sequence(name: str, levels, values, grows_with_level: bool):
    """Slope-classify |values| along levels (oriented so growth means trouble)."""
    vals = np.abs(np.asarray(values, float))
    if not np.all(np.isfinite(vals)):
        raise InvalidInput(f"flux term {name} is not finite along its limit")
    if float(np.max(vals)) < ZERO_FLOOR:
        return None, "zero"
    slope = log_slope(levels[-TAIL:], np.maximum(vals[-TAIL:], 1e-300))
    oriented = slope if grows_with_level else -slope
    if oriented > FLAT_TOL:
        return slope, "growing"
    if oriented < -FLAT_TOL:
        return slope, "vanishing"
    return slope, "bounded"


def uniqueness_pipeline(fld: ScalarField, *, beta: float, p: float,
                        potential=None, nodes: int = qd.DEFAULT_NODES) -> tuple:
    """Decision procedure for exterior uniqueness at decay rate beta.

    Weight parameters follow the linear recipe a = (beta + p)/4,
    b = min(beta - p, 8p)/16.  `potential` is None or a callable
    (u, v) -> V.  Order of business:

      1. zero bulk: a numerically zero field is reported as such;
      2. potential admissibility: the claimed potential must fit under
         B_adm * envelope with B_adm = sqrt(C a / (2 K p)) at the chain
         constants C = 1 and K = e^2/4 -- the absorption budget of the estimate;
      3. boundary-term tracking: each flux term of the split currents is
         followed along its foliation limit, SURFACES surfaces moving away
         from the region; the first non-vanishing one is named;
      4. all terms vanishing: the estimates force phi = 0 on the exterior.

    The surfaces of step 3 leave the field's region, so tracking needs the
    field in closed form; a field known only on its grid raises
    InsufficientSequence there.

    Returns the `pipeline-verdict` record (value: the B the potential
    requires; tolerance: B_adm; details: the verdict, a, b and each tracked
    term's name, slope and classification) and the tracked terms' series,
    {"term-<name>": [(level, value), ...]}.
    """
    if not (0 < p < beta):
        raise InvalidInput(f"need 0 < p < beta, got p={p}, beta={beta}")
    g = fld.grid
    a = (beta + p) / 4.0
    b = min(beta - p, 8.0 * p) / 16.0
    params = SplitWeightParams(a=a, b=b, p=min(p, 2 * a * 0.99))
    b_adm = math.sqrt(a / (2.0 * E2_OVER_4 * p))  # C = 1

    terms, series = [], {}

    def report(verdict, b_req):
        return CheckRecord(name="pipeline-verdict", passed=True, value=b_req, tolerance=b_adm,
                           details={"verdict": verdict, "a": a, "b": b, "terms": terms}), series

    if float(np.max(np.abs(fld.values))) < 1e-14:
        return report("zero bulk: field vanishes on the region", 0.0)

    # --- potential admissibility ------------------------------------------
    b_req = 0.0
    if potential is not None:
        if not callable(potential):
            raise InvalidInput("potential must be None or a callable (u, v) -> V")
        vvals = np.asarray(potential(g.U, g.V), float)
        b_req = float(np.max(np.abs(vvals) / decay_envelope(g.F, beta, p)))
        if not math.isfinite(b_req):
            raise InvalidPotential(f"potential bound is not finite (B = {b_req})")
    if b_req > b_adm:
        return report(f"potential-bound violation: requires B = {b_req:.3g} "
                      f"> admissible {b_adm:.3g}", b_req)

    # --- term tracking ------------------------------------------------------
    if fld.closed_form is None:
        raise InsufficientSequence(
            "tracking the flux terms past the region needs a field in closed form; "
            "this one is known only on its grid")
    reg = g.region
    curs = {branch: current_general(fld, SplitWeight(params, branch))
            for branch in ("low", "high")}
    # name: (first surface, outward, current's branch, face); an inner face
    # (the limit moves inward) enters the boundary sum with a minus sign
    rows = (("I1", reg.omega, True, "high", "f"),
            ("I2", reg.rho, False, "low", "f"),
            ("J1", reg.tau, True, "low", "h"),
            ("J2", reg.tau, True, "high", "h"),
            ("J3", reg.sigma, False, "low", "h"),
            ("J4", reg.sigma, False, "high", "h"))
    for name, start, outward, branch, face in rows:
        levels = _surfaces(start, outward, SURFACES)
        vals = [qd.face_flux(curs[branch].flux, face, L, reg, n=g.n, nodes=nodes)
                for L in levels]
        if not outward:
            vals = [-x for x in vals]
        slope, cls = _classify_sequence(name, levels, vals, outward)
        terms.append({"name": name, "slope": slope, "classification": cls})
        series[f"term-{name}"] = list(zip(levels, vals))

    for t in terms:
        if t["classification"] in ("growing", "bounded"):
            return report(f"obstructed by {t['name']}: flux term is "
                          f"{t['classification']} along its limit", b_req)
    return report("boundary terms vanish: estimates force the zero solution", b_req)
