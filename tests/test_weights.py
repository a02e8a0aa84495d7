"""Reparametrizations: closed forms, envelopes, the bulk coefficient, potentials."""

import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conelab.currents import PowerU
from conelab.errors import (
    DomainError,
    InvalidInput,
    InvalidPotential,
    InvalidWeightParams,
)
from conelab.geometry import AdmissibleRegion
from conelab.weights import (
    Potential,
    PowerLog,
    SplitWeight,
    SplitWeightParams,
    decay_envelope,
    gamma_v,
)

PARAMS = SplitWeightParams(a=1.0, b=0.1, p=0.5)


def test_split_params_validity():
    SplitWeightParams(a=1.0, b=0.1, p=0.5)
    SplitWeightParams(a=1.0, b=0.0, p=0.5)  # b = 0 is the degenerate edge
    with pytest.raises(InvalidWeightParams):
        SplitWeightParams(a=1.0, b=0.5, p=0.5)   # b >= (2a - p)/4
    with pytest.raises(InvalidWeightParams):
        SplitWeightParams(a=1.0, b=0.1, p=2.5)   # p >= 2a
    with pytest.raises(InvalidWeightParams):
        SplitWeightParams(a=-1.0, b=0.1, p=0.5)


def test_frozen_values_at_f_one():
    lo = SplitWeight(PARAMS, "low")
    hi = SplitWeight(PARAMS, "high")
    assert abs(lo.F(1.0) + 0.2) < 1e-15          # -(b/p) = -0.2
    assert abs(hi.F(1.0) + 0.2) < 1e-15
    assert abs(lo.dF(1.0) + 1.0) < 1e-15         # -(a-b) - b = -a
    assert abs(hi.dF(1.0) + 1.0) < 1e-15
    G_lo, H_lo = lo.G(1.0), lo.H(1.0)
    assert abs(G_lo - 0.05) < 1e-15              # b p
    assert abs(H_lo - 0.0125) < 1e-15            # + b p^2 / 2
    G_hi, H_hi = hi.G(1.0), hi.H(1.0)
    assert abs(G_hi - 0.05) < 1e-15
    assert abs(H_hi + 0.0125) < 1e-15            # sign flips on the high branch


def test_frozen_derivative_and_g():
    lo = SplitWeight(PARAMS, "low")
    assert abs(lo.dF(0.01) + 91.0) < 1e-10       # -0.9/f - b f^{p-1}
    G = lo.G(0.25)
    assert abs(G - 0.1) < 1e-15                  # b p f^{p-1} = 0.05*2


def test_bulk_coefficient_frozen():
    lo = SplitWeight(PARAMS, "low").bulk_coefficient(np.array([1.0]))
    hi = SplitWeight(PARAMS, "high").bulk_coefficient(np.array([1.0]))
    assert abs(lo[0] - 0.0375) < 1e-15           # f|F'|G - H = 0.05 - 0.0125
    assert abs(hi[0] - 0.0625) < 1e-15           # 0.05 + 0.0125
    bound = PARAMS.b**2 * PARAMS.p               # b^2 p f^{+-p-1} at f = 1
    assert lo[0] >= bound and hi[0] >= bound
    # b = 0 leaves G = H = 0, so the coefficient vanishes identically
    flat = SplitWeightParams(a=1.0, b=0.0, p=0.5)
    for branch, f in (("low", 0.5), ("high", 2.0)):
        assert SplitWeight(flat, branch).bulk_coefficient(f) == 0.0


fgrid = st.floats(min_value=1e-3, max_value=1.0)
fgrid_hi = st.floats(min_value=1.0, max_value=1e3)
triples = st.tuples(
    st.floats(min_value=0.2, max_value=4.0),
    st.floats(min_value=0.0, max_value=0.2),
    st.floats(min_value=0.05, max_value=0.35),
).filter(lambda t: t[1] < 0.25 * min(2 * t[0] - t[2], 4 * t[2]))


@given(t=triples, branch=st.sampled_from(["low", "high"]),
       a=st.floats(min_value=0.05, max_value=4.0), m=st.sampled_from([8, 17, 64, 129]),
       rho=st.floats(min_value=1e-3, max_value=1.0), span=st.floats(min_value=1.5, max_value=1e3))
@settings(max_examples=30, deadline=None)
def test_profiles_on_the_grid_column_broadcast_to_the_full_grid(t, branch, a, m, rho, span):
    # f is constant along each grid row, so the column of F holds every value
    # of f on the grid: each profile there, broadcast, is the full-grid one
    from conelab.fields import GridSpec
    from conelab.geometry import AdmissibleRegion

    g = GridSpec(AdmissibleRegion(rho, rho * span, 0.1, 10.0), m, m + 3, n=3)
    for rep in (SplitWeight(SplitWeightParams(*t), branch), PowerLog(a)):
        for prof in (rep.F, rep.dF, rep.d2F, rep.G, rep.dG, rep.H):
            col = prof(g.F_col)
            assert col.shape == (m, 1)
            assert np.broadcast_to(col, g.F.shape).tobytes() == prof(g.F).tobytes()


@given(t=triples, f=fgrid)
@settings(max_examples=60)
def test_low_branch_inequalities(t, f):
    a, b, p = t
    params = SplitWeightParams(a=a, b=b, p=p)
    rep = SplitWeight(params, "low")
    F, dF = rep.F(f), rep.dF(f)
    # inward gradient and the power-law envelope f^{a-b} < e^{-F} <= e f^{a-b}
    assert dF < 0
    ratio = math.exp(-F) / f ** (a - b)
    assert 1.0 - 1e-12 <= ratio <= math.e + 1e-12
    # bulk coefficient dominates b^2 p f^{p-1}
    assert rep.bulk_coefficient(f) >= b * b * p * f ** (p - 1) - 1e-15


@given(t=triples, f=fgrid_hi)
@settings(max_examples=60)
def test_high_branch_inequalities(t, f):
    a, b, p = t
    params = SplitWeightParams(a=a, b=b, p=p)
    rep = SplitWeight(params, "high")
    F, dF = rep.F(f), rep.dF(f)
    assert dF < 0
    ratio = math.exp(-F) / f ** (a + b)
    assert 1.0 - 1e-12 <= ratio <= math.e + 1e-12
    assert rep.bulk_coefficient(f) >= b * b * p * f ** (-p - 1) - 1e-15


@given(f=st.floats(min_value=1e-2, max_value=1e2))
@settings(max_examples=40)
def test_g_consistency_power_log(f):
    # G = -(F' + f F'') vanishes for the pure power weight, H likewise
    rep = PowerLog(1.5)
    G, H = rep.G(f), rep.H(f)
    assert abs(G) < 1e-12 and abs(H) < 1e-12


@given(f=st.floats(min_value=1e-2, max_value=1.0))
@settings(max_examples=40)
def test_g_closed_form_matches_definition_low(f):
    rep = SplitWeight(PARAMS, "low")
    dF, d2F = rep.dF(f), rep.d2F(f)
    G = rep.G(f)
    assert abs(G - (-(dF + f * d2F))) <= 1e-12 * max(1.0, abs(G))


def test_weight_domain_error():
    with pytest.raises(DomainError):
        SplitWeight(PARAMS, "low").F(-1.0)
    with pytest.raises(DomainError):
        PowerLog(1.0).F(0.0)


def test_split_weight_dispatches_on_the_branch():
    lo, hi = SplitWeight(PARAMS, "low"), SplitWeight(PARAMS, "high")
    assert (lo.s, lo.name) == (1, "split_low")
    assert (hi.s, hi.name) == (-1, "split_high")
    with pytest.raises(InvalidInput, match="branch must be 'low' or 'high'"):
        SplitWeight(PARAMS, "middle")


# the two branches written out separately, as F_- and F_+ with their
# derivatives and G = -(f F')', H = (f G)'/2
_PER_BRANCH = {
    "low": {
        "F": lambda a, b, p, f: -(a - b) * np.log(f) - (b / p) * f**p,
        "dF": lambda a, b, p, f: -(a - b) / f - b * f ** (p - 1),
        "d2F": lambda a, b, p, f: (a - b) / f**2 - b * (p - 1) * f ** (p - 2),
        "G": lambda a, b, p, f: b * p * f ** (p - 1),
        "dG": lambda a, b, p, f: b * p * (p - 1) * f ** (p - 2),
        "H": lambda a, b, p, f: 0.5 * b * p**2 * f ** (p - 1),
    },
    "high": {
        "F": lambda a, b, p, f: -(a + b) * np.log(f) - (b / p) * f ** (-p),
        "dF": lambda a, b, p, f: -(a + b) / f + b * f ** (-p - 1),
        "d2F": lambda a, b, p, f: (a + b) / f**2 - b * (p + 1) * f ** (-p - 2),
        "G": lambda a, b, p, f: b * p * f ** (-p - 1),
        "dG": lambda a, b, p, f: -b * p * (p + 1) * f ** (-p - 2),
        "H": lambda a, b, p, f: -0.5 * b * p**2 * f ** (-p - 1),
    },
}


@pytest.mark.parametrize("branch", ["low", "high"])
@pytest.mark.parametrize("method", ["F", "dF", "d2F", "G", "dG", "H"])
def test_split_weight_is_bitwise_the_per_branch_formula(branch, method):
    f = np.geomspace(1e-3, 1e3, 301)
    for params in (PARAMS, SplitWeightParams(a=2.3, b=0.17, p=0.9),
                   SplitWeightParams(a=0.7, b=0.0, p=0.35)):
        got = getattr(SplitWeight(params, branch), method)(f)
        want = _PER_BRANCH[branch][method](params.a, params.b, params.p, f)
        assert got.tobytes() == want.tobytes()


def test_potential_constructors_and_classification():
    V = Potential.constant(2.0)
    assert float(np.asarray(V.value(-1.0, 1.0))) == 2.0
    W = Potential.power_of_f(0.25)
    u, v = -0.5, 2.0
    f = -u * v
    assert abs(float(W.value(u, v)) - f**0.25) < 1e-14
    assert abs(float(W.scaling_log_derivative(u, v)) - 0.5) < 1e-14  # 2c

    fs = np.geomspace(0.1, 10.0, 25)
    hs = np.geomspace(0.1, 10.0, 25)
    F, Hh = np.meshgrid(fs, hs, indexing="ij")
    uu, vv = -np.sqrt(F / Hh), np.sqrt(F * Hh)

    sat = Potential.saturating(1.0, 3.0, 1.0)
    # saturates its own decay bound
    assert sat.value(uu, vv).tobytes() == decay_envelope(-uu * vv, 3.0, 1.0, 1.0).tobytes()


def test_gamma_v_frozen_values():
    # V = 1: Gamma = 1 at p = 1 for every a, n
    one = Potential.constant(1.0)
    u = np.array([-0.5])
    v = np.array([2.0])
    assert abs(gamma_v(one, 0.7, 1.0, u, v, 3)[0] - 1.0) < 1e-14
    # n = 3, V = 1: Gamma(p=2) = 1/2 - a, -Gamma(p=3) = 2a
    assert abs(gamma_v(one, 0.1, 2.0, u, v, 3)[0] - 0.4) < 1e-14
    assert abs(gamma_v(one, 0.1, 3.0, u, v, 3)[0] + 0.2) < 1e-14
    # n = 3, V = f^{1/4} (scaling log-derivative 1/2): Gamma(p=2) = 3/4 - a > 0,
    # the focusing sign
    quarter = Potential.power_of_f(0.25)
    for a in (0.1, 0.3, 0.7):
        assert abs(gamma_v(quarter, a, 2.0, u, v, 3)[0] - (0.75 - a)) < 1e-14


def test_invalid_potential():
    with pytest.raises(InvalidPotential):
        Potential.saturating(-1.0, 3.0, 1.0)
    with pytest.raises(InvalidPotential):
        Potential.saturating(1.0, 1.0, 2.0)  # needs 0 < p < beta


def test_saturating_floor_must_be_finite_and_nonnegative():
    for floor in (-0.1, math.nan, math.inf):
        with pytest.raises(InvalidPotential):
            Potential.saturating(1.0, 3.0, 1.0, floor=floor)
    pot = Potential.saturating(1.0, 3.0, 1.0, floor=0.1)
    assert np.isfinite(pot.value(np.array([0.0]), np.array([1.0]))).all()


# Each scalar parameter guard, with the error it raises and a valid numpy
# scalar: a value that is not a real int or float must raise the error too,
# never np.isfinite's bare TypeError.
ONE = Potential.constant(1.0)
GUARDS = {
    "PowerU.p": (InvalidInput, lambda x: PowerU(1, x, ONE), np.float32(1.5)),
    "PowerLog.a": (InvalidWeightParams, lambda x: PowerLog(x), np.float32(1.5)),
    "SplitWeightParams.a": (InvalidWeightParams, lambda x: SplitWeightParams(x, 0.1, 0.5),
                            np.float32(1.5)),
    "SplitWeightParams.b": (InvalidWeightParams, lambda x: SplitWeightParams(1.0, x, 0.5),
                            np.int64(0)),
    "SplitWeightParams.p": (InvalidWeightParams, lambda x: SplitWeightParams(1.0, 0.1, x),
                            np.float32(1.5)),
    "gamma_v.a": (InvalidInput, lambda x: gamma_v(ONE, x, 1.0, -1.0, 2.0, 3), np.float32(1.5)),
    "gamma_v.p": (InvalidInput, lambda x: gamma_v(ONE, 0.1, x, -1.0, 2.0, 3), np.float32(1.5)),
    "constant.c": (InvalidPotential, lambda x: Potential.constant(x), np.float32(1.5)),
    "power_of_f.c": (InvalidPotential, lambda x: Potential.power_of_f(x), np.float32(1.5)),
    "power_of_f.amplitude": (InvalidPotential, lambda x: Potential.power_of_f(0.25, x),
                             np.float32(1.5)),
    "saturating.B": (InvalidPotential, lambda x: Potential.saturating(x, 3.0, 1.0),
                     np.float32(1.5)),
    "saturating.beta": (InvalidPotential, lambda x: Potential.saturating(1.0, x, 1.0),
                        np.float32(1.5)),
    "saturating.p": (InvalidPotential, lambda x: Potential.saturating(1.0, 3.0, x),
                     np.float32(1.5)),
    "saturating.floor": (InvalidPotential, lambda x: Potential.saturating(1.0, 3.0, 1.0, x),
                         np.int64(0)),
    "AdmissibleRegion": (InvalidInput, lambda x: AdmissibleRegion(x, 10.0, 0.1, 10.0),
                         np.float32(1.5)),
}


@pytest.mark.parametrize("value", [None, "0.5", sympy.Rational(3, 2)],
                         ids=["none", "string", "sympy"])
@pytest.mark.parametrize("guard", list(GUARDS))
def test_a_non_number_parameter_raises_the_guards_named_error(guard, value):
    error, build, valid = GUARDS[guard]
    with pytest.raises(error):
        build(value)
    build(valid)
