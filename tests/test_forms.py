"""The committed closed forms of the fixed fields (`conelab._forms`)."""

from pathlib import Path

import numpy as np
import pytest

from conelab import _forms
from conelab._gen_forms import fixed_expressions, render
from conelab.fields import _SLOTS, GridSpec, from_expr
from conelab.geometry import AdmissibleRegion
from conelab.solver import static_multipole

REGIONS = [AdmissibleRegion(0.1, 10.0, 0.1, 10.0), AdmissibleRegion(0.01, 0.3, 0.5, 2.0)]


def test_committed_forms_are_what_the_generator_writes():
    assert Path(_forms.__file__).read_text() == render()


def test_table_holds_each_fixed_expression_once():
    exprs = [e for _, e in fixed_expressions()]
    assert len(set(exprs)) == len(exprs)
    assert set(_forms.FORMS) == set(exprs)


def _points(region):
    """A grid, a block shaped like a quadrature node mesh, and a scalar."""
    g = GridSpec.from_region(region, 64, 48, 3)
    rng = np.random.default_rng(7)
    f = np.exp(rng.uniform(np.log(region.rho), np.log(region.omega), (40, 40)))
    h = np.exp(rng.uniform(np.log(region.sigma), np.log(region.tau), (40, 40)))
    u, v = -np.sqrt(f / h), np.sqrt(f * h)
    return [(g.U, g.V), (u, v), (float(u[3, 5]), float(v[3, 5]))]


@pytest.mark.parametrize("expr", [e for _, e in fixed_expressions()],
                         ids=[tag for tag, _ in fixed_expressions()])
def test_table_slots_are_bitwise_the_sympy_route(monkeypatch, expr):
    table = from_expr(expr)
    monkeypatch.setattr(_forms, "FORMS", {})
    sympy_route = from_expr(expr)
    for region in REGIONS:
        for u, v in _points(region):
            for slot in _SLOTS:
                got = getattr(table, slot)(u, v)
                want = getattr(sympy_route, slot)(u, v)
                assert got.shape == want.shape == np.broadcast(u, v).shape
                assert got.tobytes() == want.tobytes(), (slot, region)


def test_expressions_outside_the_table_take_the_sympy_route():
    assert "(v - u)**(-3)" not in _forms.FORMS
    g = GridSpec.from_region(REGIONS[0], 16, 16, 3, ell=2)
    phi, phi_u, phi_v, phi_uu, phi_uv, phi_vv = static_multipole(2, 3).derivs2(g.U, g.V)
    assert np.allclose(phi, g.R**-3, rtol=1e-14, atol=0)
    assert np.allclose(phi_u, 3 * g.R**-4, rtol=1e-14, atol=0)
    assert np.allclose(phi_uv, -12 * g.R**-5, rtol=1e-14, atol=0)

    af = from_expr("u**2 * v", label="expr")
    assert af.label == "expr"
    assert np.allclose(af.duv(g.U, g.V), 2 * g.U, rtol=1e-14, atol=0)
