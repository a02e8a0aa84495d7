"""Centered finite-difference stencils: accuracy orders and edge behavior."""

import numpy as np
import pytest

from conelab.errors import GridTooCoarse, InvalidInput
from conelab.stencils import d1, d2, interior_margin


@pytest.mark.parametrize("order", [2, 4, 6, 8])
def test_d1_converges_at_order(order):
    errs = []
    ms = [33, 65, 129]
    for m in ms:
        x = np.linspace(0.0, 2.0, m)
        f = np.sin(3.0 * x)
        df = d1(f, x[1] - x[0], order=order, axis=0)
        hw = order // 2
        err = np.max(np.abs(df - 3.0 * np.cos(3.0 * x))[hw:-hw])
        errs.append(max(err, 1e-13))
    fit = np.polyfit(np.log([1.0 / (m - 1) for m in ms]), np.log(errs), 1)[0]
    assert fit > order - 0.6 or errs[-1] < 1e-11


@pytest.mark.parametrize("order", [2, 4, 6])
def test_d2_converges_at_order(order):
    errs = []
    ms = [33, 65, 129]
    for m in ms:
        x = np.linspace(0.0, 2.0, m)
        f = np.exp(x)
        dff = d2(f, x[1] - x[0], order=order, axis=0)
        hw = order // 2
        err = np.max(np.abs(dff - f)[hw:-hw])
        errs.append(max(err, 1e-13))
    fit = np.polyfit(np.log([1.0 / (m - 1) for m in ms]), np.log(errs), 1)[0]
    assert fit > order - 0.6 or errs[-1] < 1e-10


def test_polynomial_exactness():
    # order-4 stencil differentiates quartics exactly in the interior
    x = np.linspace(-1.0, 1.0, 41)
    f = x**4 - 2 * x**2 + x
    df = d1(f, x[1] - x[0], order=4, axis=0)
    expect = 4 * x**3 - 4 * x + 1
    assert np.max(np.abs(df - expect)[2:-2]) < 1e-12


def test_axis_handling():
    x = np.linspace(0.0, 1.0, 51)
    X, Y = np.meshgrid(x, x, indexing="ij")
    f = X**2 * Y
    dx = x[1] - x[0]
    fx = d1(f, dx, order=4, axis=0)
    fy = d1(f, dx, order=4, axis=1)
    assert np.max(np.abs(fx - 2 * X * Y)[2:-2, 2:-2]) < 1e-11
    assert np.max(np.abs(fy - X**2)[2:-2, 2:-2]) < 1e-11


def test_interior_margin():
    assert interior_margin(4, 1) == 2
    assert interior_margin(4, 2) == 4
    assert interior_margin(8, 1) == 4


def test_too_few_nodes():
    with pytest.raises(GridTooCoarse):
        d1(np.ones(3), 0.1, order=4, axis=0)


def test_bad_order():
    with pytest.raises(InvalidInput):
        d1(np.ones(32), 0.1, order=3, axis=0)


def _out_of_place(values, spacing, axis, order, table, left, right, power):
    """The stencil loop as first written: a fresh accumulator from zeros and
    a new array for every centred tap."""
    hw = order // 2
    w = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    out = np.empty_like(w)
    n = w.shape[0]
    acc = np.zeros_like(w[hw : n - hw])
    for k, c in enumerate(table[hw]):
        if c != 0.0:
            acc = acc + c * w[k : n - 2 * hw + k]
    out[hw : n - hw] = acc
    for j in range(1, hw):
        sub = table[j]
        out[j] = sum(c * w[j - len(sub) // 2 + k] for k, c in enumerate(sub) if c != 0.0)
        out[n - 1 - j] = sum(
            c * w[n - 1 - j - len(sub) // 2 + k] for k, c in enumerate(sub) if c != 0.0
        )
    out[0] = sum(c * w[k] for k, c in enumerate(left))
    out[-1] = sum(c * w[n - len(right) + k] for k, c in enumerate(right))
    out /= spacing**power
    return np.moveaxis(out, 0, axis)


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("order", [2, 4, 6, 8])
def test_in_place_stencils_are_bitwise_the_out_of_place_loop(order, axis):
    from conelab import stencils

    rng = np.random.default_rng(order * 10 + axis)
    smooth = rng.standard_normal((37, 29)) * np.exp(rng.uniform(-20, 20, (37, 29)))
    # signed zeros and the smallest subnormals: taps that round to -0.0 must
    # still sum from +0.0 as before
    tiny = rng.choice([-5e-324, -0.0, 0.0, 5e-324], size=(37, 29))
    side1 = np.array([-1.5, 2.0, -0.5])
    side2 = np.array([2.0, -5.0, 4.0, -1.0])
    for vals in (smooth, tiny):
        want1 = _out_of_place(vals, 0.037, axis, order, stencils._D1, side1, -side1[::-1], 1)
        want2 = _out_of_place(vals, 0.037, axis, order, stencils._D2, side2, side2[::-1], 2)
        assert d1(vals, 0.037, axis=axis, order=order).tobytes() == want1.tobytes()
        assert d2(vals, 0.037, axis=axis, order=order).tobytes() == want2.tobytes()
