"""A symbolic certificate of the divergence identity's arithmetic.

`currents` is plain arithmetic on what the weight and U return, so sympy
objects run through it as well as arrays.  Here symbols go through the
package's own `field_half`, `UTerms`, `WeightTerms`,
`CurrentAssembler._join`/`divergence`, `bulk_term`, `wave_op` and `gamma_v`,
unmodified: an undefined field phi(u, v), an undefined weight F(f), a
nonlinearity U = V(u, v) Phi(phi), and symbolic n and lambda.  Three exact
reductions to 0 then hold for every field, weight, potential, dimension and
mode at once:

1. the analytic divergence is the divergence of the components;
2. L psi . S* psi = 2 F' |S* psi|^2 - (f |F'| G - H) psi^2 + B + div P;
3. for F = -a log f and a power U, B = -sign/(p+1) f^{2a} V Gamma_V |phi|^{p+1}.

Each reduction turns the package's float literals into rationals and every
derivative of phi, F, V and Phi into an independent symbol (`_jet`), so 0 is
an identity of rational functions in those symbols and e^{-F}, shown by
`cancel`.  Each named mutant of the arithmetic must give a nonzero value at
one exact rational point.

The hand-written derivatives of the weights and of `PowerU` are checked
against their own F and U, and the split chain's bulk coefficient against its
closed form and its lower bound b^2 p f^{sp-1}.
"""

import mpmath
import numpy as np
import pytest
import sympy as sp
from sympy.core.function import AppliedUndef

from conelab import currents
from conelab.currents import CurrentAssembler, PowerU
from conelab.fields import wave_op
from conelab.weights import Potential, PowerLog, SplitWeight, SplitWeightParams, gamma_v

x = sp.Symbol("x", positive=True)  # the weight's argument f
n, lam = sp.symbols("n lambda", real=True)


class SymWeight:
    """A weight F(x) as a sympy expression, with the derivatives the
    package's weights hand-write taken by sympy: G = -(f F')', H = (f G)'/2."""

    def __init__(self, F):
        self.Fx = F
        self.Gx = -(x * F.diff(x)).diff(x)

    def F(self, f):
        return self.Fx.subs(x, f)

    def dF(self, f):
        return self.Fx.diff(x).subs(x, f)

    def d2F(self, f):
        return self.Fx.diff(x, 2).subs(x, f)

    def G(self, f):
        return self.Gx.subs(x, f)

    def dG(self, f):
        return self.Gx.diff(x).subs(x, f)

    def H(self, f):
        return ((x * self.Gx).diff(x) / 2).subs(x, f)

    @staticmethod
    def W(F):
        return sp.exp(-2 * F)


class SymU:
    """U = V(u, v) Phi(phi) with the interface of `PowerU`: udot = dU/dphi,
    scaling_q = (1/2)(u d_u + v d_v) U and du_ext, dv_ext = d_u U, d_v U at
    fixed phi."""

    is_zero = False

    def __init__(self, u, v):
        self.V = sp.Function("V")(u, v)
        self.u, self.v = u, v

    def value(self, u, v, phi):
        return self.V * sp.Function("Phi")(phi)

    def udot(self, u, v, phi):
        return self.V * sp.Function("Phi")(x).diff(x).subs(x, phi)

    def scaling_q(self, u, v, phi):
        return (u * self.V.diff(self.u) + v * self.V.diff(self.v)) / 2 \
            * sp.Function("Phi")(phi)

    def du_ext(self, u, v, phi):
        return self.V.diff(self.u) * sp.Function("Phi")(phi)

    def dv_ext(self, u, v, phi):
        return self.V.diff(self.v) * sp.Function("Phi")(phi)


def _expr(val):
    """A sympy expression from the package's output (for p < 1 a 0-d object
    array, from `PowerU.udot`'s np.where), each float in it the rational its
    decimal digits give, as nsimplify(rational=True) makes it."""
    expr = sp.sympify(np.asarray(val, dtype=object).item())
    return expr.xreplace({fl: sp.nsimplify(fl, rational=True) for fl in expr.atoms(sp.Float)})


def _jet(val):
    """The package's output `val` with every derivative of phi, F, V and Phi
    replaced by a symbol: an undifferentiated one by its function's name
    (phi, F, V, Phi), the others by j0, j1, ... in sympy's default order."""
    expr = _expr(val)
    atoms = sorted(expr.atoms(sp.Derivative, sp.Subs, AppliedUndef), key=sp.default_sort_key)
    return expr.xreplace({a: sp.Symbol(a.func.__name__ if isinstance(a, AppliedUndef)
                                       else f"j{k}") for k, a in enumerate(atoms)})


def _reduce(val):
    return sp.cancel(sp.expand(_jet(val)))


def _at_point(val, **point):
    """The exact value of `val` at one rational point: each symbol named in
    `point` as given there, the k-th other (in sympy's default order)
    (k + 2)/(2 k + 3).  F = 0 makes every e^{-F} rational."""
    e = _jet(val)
    syms = sorted(e.free_symbols, key=sp.default_sort_key)
    value = e.xreplace({s: sp.Rational(point.get(s.name, sp.Rational(k + 2, 2 * k + 3)))
                        for k, s in enumerate(syms)})
    assert value.is_Rational
    return value


GENERAL_POINT = {"u": "-3/2", "v": "2/5", "n": "7/3", "lambda": "5/2", "F": "0"}


def identity_terms():
    """The two general reductions' expressions, built by the package's
    arithmetic as `currents` holds it at call time (so a monkeypatched
    mutant is what runs): (div P - the divergence of the components,
    L psi . S* psi - the identity's right side)."""
    u, v = sp.symbols("u v", real=True)
    phi = sp.Function("phi")(u, v)
    f = -u * v
    rep, U = SymWeight(sp.Function("F")(x)), SymU(u, v)
    asm = CurrentAssembler(rep=rep, U=U, n=n, lam=lam)
    d1 = phi, phi.diff(u), phi.diff(v)
    d2 = phi.diff(u, 2), phi.diff(u, v), phi.diff(v, 2)
    half = currents.field_half(u, v, lam, *d1, *d2)
    terms = asm.terms(u, v, f, *d1, half)
    P_u, P_v = asm.components(u, v, f, *d1, terms=terms)
    div = asm.divergence(u, v, f, *d1, *d2, terms=terms)
    div_of_components = -(P_v.diff(u) + P_u.diff(v)) / 2 \
        - (n - 1) / (2 * (v - u)) * (P_u - P_v)

    E = sp.exp(-rep.F(f))
    psi = E * phi
    sstar = (u * psi.diff(u) + v * psi.diff(v)) / 2 + (n - 1) / 4 * psi
    L = E * (wave_op(n, lam, v - u, *d1, d2[1]) + U.udot(u, v, phi))
    B = currents.bulk_term(rep, U, n, f, u, v, phi, terms=terms)
    dF = rep.dF(f)  # F' < 0, so |F'| = -F'
    rhs = 2 * dF * sstar**2 - (f * -dF * rep.G(f) - rep.H(f)) * psi**2 + B + div
    return div - div_of_components, L * sstar - rhs


def gamma_v_term(U_class, sign, p, a, phi_sign):
    """bulk_term - the Gamma_V closed form for F = -a log f and U_class(sign,
    p, V) with V(u, v) undefined and positive, at u < 0 < v and phi of the
    given sign."""
    u, v = sp.Symbol("u", negative=True), sp.Symbol("v", positive=True)
    phi = sp.Symbol("phi", **{phi_sign: True})
    Vq = sp.Function("V")(u, v)
    pot = Potential(value=lambda u, v: Vq,
                    scaling_log_derivative=lambda u, v: (u * Vq.diff(u) + v * Vq.diff(v)) / Vq)
    f = -u * v
    U = U_class(sign, p, pot)
    B = currents.bulk_term(SymWeight(-a * sp.log(x)), U, n, f, u, v, phi)
    closed = -(sign / (p + 1.0)) * f ** (2 * a) * Vq * gamma_v(pot, a, p, u, v, n) \
        * abs(phi) ** (p + 1.0)
    return _expr(B) - _expr(closed)


# ---------------------------------------------------------------------------
# the three reductions
# ---------------------------------------------------------------------------

def test_divergence_and_identity_reduce_to_zero():
    div_gap, identity_gap = identity_terms()
    assert _reduce(div_gap) == 0
    assert _reduce(identity_gap) == 0


@pytest.mark.parametrize("phi_sign", ["positive", "negative"])
@pytest.mark.parametrize("sign", [1, -1])
def test_bulk_term_reduces_to_the_gamma_v_closed_form(sign, phi_sign):
    for p in (0.5, 1.0, 1.5, 2.0, 3.0):
        for a in (0.1, 0.7):
            assert _reduce(gamma_v_term(PowerU, sign, p, a, phi_sign)) == 0, (p, a)


# ---------------------------------------------------------------------------
# named mutants: each leaves a nonzero value at one rational point
# ---------------------------------------------------------------------------

def _weight_terms(c=None, z=None):
    """`WeightTerms` with c or z replaced by c(wt, n, f) or z(wt, n, f), and
    the bracket's products formed from them as the original forms them."""

    class Mutant(currents.WeightTerms):
        def __init__(self, rep, n, f, u, v, phi, phi_u=None, phi_v=None, half=None):
            super().__init__(rep, n, f, u, v, phi, phi_u, phi_v, half)
            self.c = c(self, n, f) if c else self.c
            self.z = z(self, n, f) if z else self.z
            if half is not None:
                cc, zz, p2 = self.c, self.z, half[0]
                self.bracket = cc * phi * phi_u, v * zz * p2, cc * phi * phi_v, u * zz * p2

    return Mutant


_FIELD_HALF = currents.field_half
MUTANTS = {
    # the opposite sign on the G/2 term of z
    "z-G-sign": ("WeightTerms", _weight_terms(
        z=lambda wt, n, f: (f * wt.dF - (n - 1) / 4.0) * wt.dF + 0.5 * wt.G)),
    # B dropped from the identity
    "B-dropped": ("bulk_term", lambda *args, **kw: 0),
    # the lambda term of field_half dropped
    "field-half-lambda": ("field_half", lambda u, v, lam, *d: _FIELD_HALF(u, v, 0, *d)),
    # (n+1)/4 in place of (n-1)/4 in c
    "c-n-plus-1": ("WeightTerms", _weight_terms(
        c=lambda wt, n, f: (n + 1) / 4.0 - f * wt.dF)),
}


@pytest.mark.parametrize("name", list(MUTANTS))
def test_identity_rejects_the_mutant(monkeypatch, name):
    attr, mutant = MUTANTS[name]
    monkeypatch.setattr(currents, attr, mutant)
    _, identity_gap = identity_terms()
    assert _at_point(identity_gap, **GENERAL_POINT) != 0


def test_divergence_rejects_the_g_sign_mutant(monkeypatch):
    # the sign subtlety of the module docstring: the flipped G/2 term breaks
    # the current's own divergence, not only the identity
    monkeypatch.setattr(currents, "WeightTerms", MUTANTS["z-G-sign"][1])
    div_gap, _ = identity_terms()
    assert _at_point(div_gap, **GENERAL_POINT) != 0


class Drifted(PowerU):
    def scaling_q(self, u, v, phi):
        return 1.01 * super().scaling_q(u, v, phi)


@pytest.mark.parametrize("phi_sign, phi", [("positive", "2"), ("negative", "-2")])
def test_gamma_v_closed_form_rejects_a_drifted_scaling_q(phi_sign, phi):
    # at f = -u v = 1 every power of f is 1, so the point's value is rational
    gap = gamma_v_term(Drifted, 1, 2.0, 0.1, phi_sign)
    assert _at_point(gap, u="-1", v="1", n="3", phi=phi) != 0


# ---------------------------------------------------------------------------
# hand-written derivatives against their own sources
# ---------------------------------------------------------------------------

SPLIT = SplitWeightParams(a=1.3, b=0.2, p=0.7)
WEIGHTS = {
    "power_log": (PowerLog(0.7), (0.05, 0.4, 1.0, 3.0, 20.0)),
    "split_low": (SplitWeight(SPLIT, "low"), (0.05, 0.3, 0.7, 1.0)),
    "split_high": (SplitWeight(SPLIT, "high"), (1.0, 1.6, 4.0, 20.0)),
}
DIFF_TOL = 1e-7  # central differences of float64 functions at step 1e-5 relative


def _d(fn, at):
    """d fn / dt at `at`: mpmath's central difference of the float function."""
    return float(mpmath.diff(lambda t: float(fn(float(t))), at, h=1e-5 * abs(at)))


def _close(got, want):
    return abs(float(got) - want) <= DIFF_TOL * max(1.0, abs(want))


@pytest.mark.parametrize("name", list(WEIGHTS))
def test_weight_profiles_are_the_derivatives_of_their_f(name):
    rep, fs = WEIGHTS[name]
    checks = {  # each hand-written profile and what it must equal
        "dF": (rep.dF, lambda f: _d(rep.F, f)),
        "d2F": (rep.d2F, lambda f: _d(rep.dF, f)),
        "G": (rep.G, lambda f: -_d(lambda t: t * rep.dF(t), f)),
        "dG": (rep.dG, lambda f: _d(rep.G, f)),
        "H": (rep.H, lambda f: 0.5 * _d(lambda t: t * rep.G(t), f)),
    }
    for f in fs:
        for profile, (got, want) in checks.items():
            assert _close(got(f), want(f)), (profile, f)


POTENTIALS = {"constant": Potential.constant(1.3), "power": Potential.power_of_f(0.25, 1.7)}


@pytest.mark.parametrize("kind", list(POTENTIALS))
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0])
def test_power_u_derivatives_are_those_of_its_value(kind, sign, p):
    V = POTENTIALS[kind]
    U = PowerU(sign, p, V)
    u, v = -0.8, 1.3
    for phi in (0.6, -0.45):
        # force = dU/dphi, and du_ext, dv_ext = d_u U, d_v U at fixed phi
        assert _close(U.udot(u, v, phi), _d(lambda t: U.value(u, v, t), phi))
        assert _close(U.du_ext(u, v, phi), _d(lambda t: U.value(t, v, phi), u))
        assert _close(U.dv_ext(u, v, phi), _d(lambda t: U.value(u, t, phi), v))
        # scaling_q = (1/2)(u d_u + v d_v) V . sign |phi|^{p+1}/(p+1)
        scaling_V = 0.5 * (u * _d(lambda t: V.value(t, v), u)
                           + v * _d(lambda t: V.value(u, t), v))
        want = scaling_V * sign * abs(phi) ** (p + 1) / (p + 1)
        assert _close(U.scaling_q(u, v, phi), want)


# ---------------------------------------------------------------------------
# the split chain's bulk coefficient and its lower bound
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("branch, s", [("low", 1), ("high", -1)])
def test_split_bulk_coefficient_is_bounded_below(branch, s):
    """f |F'| G - H = b p f^{sp-1} [(a - sb) + sb f^{sp} - sp/2] on both
    branches, and under SplitWeightParams' conditions (a > 0, 0 < p < 2a,
    0 <= b < (2a - p)/4) on the branch's range (f <= 1 low, f >= 1 high)
    F' < 0 and the bracket is >= b, so the coefficient is >= b^2 p f^{sp-1}:
    what `c_cal >= 1` measures."""
    a, b, p, f = sp.symbols("a b p f", positive=True)
    F = -(a - s * b) * sp.log(x) - (b / p) * x ** (s * p)
    rep = SymWeight(F)
    bracket = (a - s * b) + s * b * f ** (s * p) - s * p / 2
    coef = f * -rep.dF(f) * rep.G(f) - rep.H(f)  # with |F'| = -F'
    assert sp.simplify(coef - b * p * f ** (s * p - 1) * bracket) == 0

    # t = f^{sp} lies in (0, 1] on the branch; b < (2a - p)/4 is
    # a = 2b + p/2 + eps with eps > 0; on the high branch t = 1 - tau
    t, eps, tau = sp.Symbol("t", positive=True), sp.Symbol("eps", positive=True), \
        sp.Symbol("tau", nonnegative=True)
    b0 = sp.Symbol("b", nonnegative=True)
    slack = {a: 2 * b0 + p / 2 + eps, b: b0}
    t_of = t if s == 1 else 1 - tau
    minus_fdF = sp.expand(sp.expand(f * -rep.dF(f)).subs(f ** (s * p), t_of).subs(slack))
    over_b = sp.expand((bracket - b).subs(f ** (s * p), t_of).subs(slack))
    assert f not in minus_fdF.free_symbols | over_b.free_symbols
    assert minus_fdF.is_positive   # F' < 0
    assert over_b.is_positive      # bracket > b

    # the symbolic F is the package's, and so is the coefficient it gives
    pkg = SplitWeight(SPLIT, branch)
    vals = {a: SPLIT.a, b: SPLIT.b, p: SPLIT.p}
    for fv in WEIGHTS[f"split_{branch}"][1]:
        assert abs(float(F.subs(vals).subs(x, fv)) - float(pkg.F(fv))) <= 1e-13
        want = float((b * p * f ** (s * p - 1) * bracket).subs(vals).subs(f, fv))
        assert abs(float(pkg.bulk_coefficient(fv)) - want) <= 1e-13 * max(1.0, abs(want))
