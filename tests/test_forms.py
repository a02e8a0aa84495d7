"""The committed closed forms of the fixed fields (`conelab._forms`) and the
joint slot functions `from_expr` builds: each slot bitwise what sympy's
`lambdify` of that slot alone gives."""

import ast
import inspect
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

from conelab import _forms
from conelab._gen_forms import (
    SLOT_COUNTS,
    _shareable,
    fixed_expressions,
    joint_function,
    joint_source,
    render,
    slot_sources,
)
from conelab.fields import (
    GridSpec,
    _spherical_wave_expr,
    _symbolic_slots,
    from_expr,
    static_multipole,
)
from conelab.geometry import AdmissibleRegion

from _oracles import PRETENDER_EXPRS, pretender_joint, traced_peak

REGIONS = [AdmissibleRegion(0.1, 10.0, 0.1, 10.0), AdmissibleRegion(0.01, 0.3, 0.5, 2.0)]

PRETENDERS = [(f"pretender-{i}", e) for i, e in enumerate(PRETENDER_EXPRS, 1)]

# closed forms outside the table: a power of r, a Piecewise with a branch on
# u and a transcendental one on v, and a sum that `lambdify` writes as a
# generator expression, whose terms must stay inside it.  Then Piecewise
# edge cases: no `True` fallback (NaN where no condition holds), integer
# branches, overlapping conditions (the first true one wins), and a
# condition and a branch that read one shared local
OUTSIDE = ["(v - u)**(-3)", "Piecewise((u**3*v + exp(u), u**2 < 0.3), (sin(v)*u, True)) / (v - u)",
           "Sum(u**k * v, (k, 0, 3))", "Piecewise((u, u**2 < 0.3))/(v - u)",
           "Piecewise((1, u**2 < 0.3), (0, True))*v",
           "Piecewise((u, u < -1), (v, u < 0), (u*v, True))",
           "Piecewise((u*v, u*v < -0.5), (0, True))"]
OUTSIDE_IDS = ["multipole-3", "piecewise", "sum", "piecewise-no-fallback", "piecewise-integer",
               "piecewise-overlapping", "piecewise-shared-local"]


def test_committed_forms_are_what_the_generator_writes():
    assert Path(_forms.__file__).read_text() == render()


def test_table_holds_each_fixed_expression_once():
    exprs = [e for _, e in fixed_expressions()]
    assert len(set(exprs)) == len(exprs)
    assert set(_forms.FORMS) == set(exprs)
    assert not (set(OUTSIDE) | set(PRETENDER_EXPRS)) & set(_forms.FORMS)


def per_slot_oracle(expr):
    """One `lambdify` function per slot, in `_SLOTS` order: the route the
    joint function replaces, each slot evaluated on its own."""
    args, slots = _symbolic_slots(expr)
    return [sp.lambdify(args, e, [np]) for e in slots]


def _points(region):
    """A grid, a block shaped like a quadrature node mesh, and a scalar."""
    g = GridSpec.from_region(region, 64, 48, 3)
    rng = np.random.default_rng(7)
    f = np.exp(rng.uniform(np.log(region.rho), np.log(region.omega), (40, 40)))
    h = np.exp(rng.uniform(np.log(region.sigma), np.log(region.tau), (40, 40)))
    u, v = -np.sqrt(f / h), np.sqrt(f * h)
    return [(g.U, g.V), (u, v), (float(u[3, 5]), float(v[3, 5]))]


def _bytes(out, u, v):
    shape = np.broadcast(np.asarray(u), np.asarray(v)).shape
    return np.broadcast_to(np.asarray(out, dtype=float), shape).tobytes()


def _assert_joint_is_the_oracle(joint, expr):
    oracle = per_slot_oracle(expr)
    af = from_expr(expr)
    for region in REGIONS:
        for u, v in _points(region):
            want = [_bytes(fn(u, v), u, v) for fn in oracle]
            for k in SLOT_COUNTS:
                got = joint(u, v, k)
                assert len(got) == k
                assert [_bytes(x, u, v) for x in got] == want[:k], (k, region)
            # the field's methods put the slots in their places
            phi, pu, pv, puv, puu, pvv = want
            for method, slots in (("value", [phi]), ("derivs1", [phi, pu, pv]),
                                  ("derivs_wave", [phi, pu, pv, puv]),
                                  ("derivs2", [phi, pu, pv, puu, puv, pvv])):
                arrays = getattr(af, method)(u, v)
                arrays = [arrays] if method == "value" else arrays
                assert [a.tobytes() for a in arrays] == slots, method


@pytest.mark.parametrize("expr", [e for _, e in fixed_expressions() + PRETENDERS],
                         ids=[tag for tag, _ in fixed_expressions() + PRETENDERS])
def test_table_slots_are_bitwise_the_sympy_route(expr):
    # the sympy route: `lambdify` of each slot on its own.  The decay
    # pretenders, which only tests build, are not in the table: their joint
    # function is the one `from_expr` builds at run time
    joint = _forms.FORMS[expr] if expr in _forms.FORMS else pretender_joint(expr)
    _assert_joint_is_the_oracle(joint, expr)


@pytest.mark.parametrize("expr", OUTSIDE, ids=OUTSIDE_IDS)
def test_joint_functions_outside_the_table_are_bitwise_the_per_slot_lambdify(expr):
    # `from_expr` builds the same function, which the field methods check
    _assert_joint_is_the_oracle(joint_function(expr), expr)


def test_each_branch_runs_only_on_the_points_that_select_it():
    # the log branch is undefined where its condition fails: `numpy.select`
    # evaluated it on every point, and raised here
    joint = joint_function("Piecewise((log(1 - 4*u**2), 4*u**2 < 1), (0, True))")
    g = GridSpec.from_region(REGIONS[0], 256, 256, 3)
    with np.errstate(all="raise"):
        for k in SLOT_COUNTS:
            joint(g.U, g.V, k)
    tree = ast.parse(Path(_forms.__file__).read_text())
    assert "select" not in {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # the spherical wave's profile powers, of a base that is negative off
    # the support, all sit inside a branch
    source = ast.parse(inspect.getsource(_forms.spherical_wave))
    branches = {id(n) for f in ast.walk(source) if isinstance(f, ast.Lambda) for n in ast.walk(f)}
    powers = [n for n in ast.walk(source) if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)
              and n.right.value >= 6]
    assert powers and all(id(n) in branches for n in powers)


def test_expressions_outside_the_table_take_the_sympy_route():
    g = GridSpec.from_region(REGIONS[0], 16, 16, 3)
    phi, phi_u, phi_v, phi_uu, phi_uv, phi_vv = static_multipole(2, 3).derivs2(g.U, g.V)
    assert np.allclose(phi, g.R**-3, rtol=1e-14, atol=0)
    assert np.allclose(phi_u, 3 * g.R**-4, rtol=1e-14, atol=0)
    assert np.allclose(phi_uv, -12 * g.R**-5, rtol=1e-14, atol=0)

    af = from_expr("u**2 * v", label="expr")
    assert af.label == "expr"
    assert np.allclose(af.derivs2(g.U, g.V)[4], 2 * g.U, rtol=1e-14, atol=0)


@pytest.mark.parametrize("expr", [e for _, e in fixed_expressions() + PRETENDERS],
                         ids=[tag for tag, _ in fixed_expressions() + PRETENDERS])
def test_each_shared_subexpression_is_computed_once(expr):
    # the per-slot sources repeat each `select`, power and product they
    # share; the joint function spells each of them once, committed or built
    # at run time
    source = (inspect.getsource(_forms.FORMS[expr]) if expr in _forms.FORMS
              else joint_source("joint", slot_sources(expr)[0]))
    tree = ast.parse(source)
    spelled = [ast.dump(n) for n in ast.walk(tree) if _shareable(n)]
    assert len(spelled) == len(set(spelled))


def test_equal_slots_are_distinct_arrays():
    # the multipole's duu and dvv are one local in its joint function
    g = GridSpec.from_region(REGIONS[0], 16, 16, 3)
    arrays = from_expr("(v - u)**(-2)").derivs2(g.U, g.V)
    assert arrays[3].tobytes() == arrays[5].tobytes()
    assert len({id(a) for a in arrays}) == 6


def _peak(call):
    """Bytes `call` allocates at its peak, and bytes it leaves allocated."""
    call()
    (out, left), peak = traced_peak(lambda: (call(), tracemalloc.get_traced_memory()[0]))
    del out
    return peak, left


def test_temporaries_are_freed_after_their_last_read():
    expr = _spherical_wave_expr(1.0, 8)
    g = GridSpec.from_region(REGIONS[0], 256, 256, 3)
    joint = _forms.FORMS[expr]
    source = inspect.getsource(joint)
    kept = "\n".join(line for line in source.splitlines() if not line.lstrip().startswith("del "))
    namespace = dict(vars(_forms))
    exec(kept, namespace)
    array = g.U.nbytes
    for k in SLOT_COUNTS[1:]:
        peak, left = _peak(lambda: joint(g.U, g.V, k))
        peak_kept, _ = _peak(lambda: namespace[joint.__name__](g.U, g.V, k))
        assert left < (k + 1) * array           # only the k outputs outlive the call
        assert peak < peak_kept - array / 2, k  # measured: 1, 3 and 9 arrays lower
