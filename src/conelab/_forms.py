"""Generated by `python -m conelab._gen_forms` with sympy 1.14.0; do not edit.

FORMS maps each expression string to its function `fn(u, v, k)`, which returns
the first k (1, 3, 4 or 6) of the slots value, du, dv, duv, duu, dvv.
"""

import numpy as np
from numpy import cos, less, nan, sin


def _select(conds, branches, default):
    """`numpy.select(conds, [fn(*args) for fn, *args in branches], default)`
    calling each `fn` only where its condition is the first that holds, on
    its `args` gathered there (0-d ones as they are); the result is float64.
    A constant last branch, as `(0, True)`, fills the output, not `default`."""
    shape = np.broadcast_shapes(*map(np.shape, conds),
                                *(np.shape(a) for _, *args in branches for a in args))
    if conds[-1] is True and len(branches[-1]) == 1:
        conds, branches, default = conds[:-1], branches[:-1], branches[-1][0]()
    out, free = np.full(shape, default, dtype=float), np.ones(shape, dtype=bool)
    for cond, (fn, *args) in zip(conds, branches):
        taken = free.copy() if cond is True else free & cond  # `& True` is ~20x slower
        if taken.any():
            free ^= taken
            out[taken] = fn(*(np.broadcast_to(a, shape)[taken] if np.ndim(a) else a
                              for a in args))
    return out


def unit(u, v, k):
    value = 1
    if k == 1:
        return (value,)
    du = 0
    dv = 0
    if k == 3:
        return (value, du, dv)
    duv = 0
    if k == 4:
        return (value, du, dv, duv)
    duu = 0
    dvv = 0
    return (value, du, dv, duv, duu, dvv)


def oscillatory(u, v, k):
    x0 = sin(u)
    x1 = 1 / 3 * v
    x2 = cos(x1)
    value = x0 * x2
    if k == 1:
        return (value,)
    x3 = cos(u)
    du = x3 * x2
    x4 = sin(x1)
    del x1
    dv = -1 / 3 * x0 * x4
    if k == 3:
        return (value, du, dv)
    duv = -1 / 3 * x4 * x3
    del x3, x4
    if k == 4:
        return (value, du, dv, duv)
    duu = -x0 * x2
    dvv = -1 / 9 * x0 * x2
    del x0, x2
    return (value, du, dv, duv, duu, dvv)


def separable_power(u, v, k):
    x0 = (-v / u) ** (3 / 10)
    x1 = (-u * v) ** (4 / 5)
    value = x0 * x1
    if k == 1:
        return (value,)
    du = 1 / 2 * x0 * x1 / u
    dv = 11 / 10 * x0 * x1 / v
    if k == 3:
        return (value, du, dv)
    duv = 11 / 20 * x0 * x1 / (u * v)
    if k == 4:
        return (value, du, dv, duv)
    duu = -1 / 4 * x0 * x1 / u ** 2
    dvv = 11 / 100 * x0 * x1 / v ** 2
    del x0, x1
    return (value, du, dv, duv, duu, dvv)


def spherical_wave(u, v, k):
    x0 = u ** 2
    x1 = less(x0, 0.25)
    x2 = 4.0 * x0
    x3 = 1 - x2
    x4 = v ** 2
    x5 = less(x4, 0.25)
    x6 = 4.0 * x4
    x7 = 1 - x6
    x8 = _select([x1, True], [(lambda x3: x3 ** 8, x3), (lambda: 0,)], default=nan) - _select([x5, True], [(lambda x7: x7 ** 8, x7), (lambda: 0,)], default=nan)
    x9 = -u + v
    value = x8 / x9
    if k == 1:
        return (value,)
    x10 = _select([x1, True], [(lambda u, x3: -64.0 * u * x3 ** 7, u, x3), (lambda: 0,)], default=nan)
    del x3
    x11 = x9 ** 2
    x12 = x8 / x11
    du = x10 / x9 + x12
    x13 = _select([x5, True], [(lambda v, x7: -64.0 * v * x7 ** 7, v, x7), (lambda: 0,)], default=nan)
    del x7
    dv = -x13 / x9 - x12
    del x12
    if k == 3:
        return (value, du, dv)
    duv = -x10 / x11 - x13 / x11 - 2 * x8 / x9 ** 3
    del x8, x9, x10, x11, x13
    if k == 4:
        return (value, du, dv, duv)
    x14 = x2 - 1
    del x2
    x15 = u - v
    x16 = x6 - 1
    del x6
    x17 = 2 * (_select([x1, True], [(lambda x14: x14 ** 8, x14), (lambda: 0,)], default=nan) - _select([x5, True], [(lambda x16: x16 ** 8, x16), (lambda: 0,)], default=nan)) / x15 ** 2
    duu = (-_select([x1, True], [(lambda x14, x0: x14 ** 6 * (3840.0 * x0 - 64.0), x14, x0), (lambda: 0,)], default=nan) + 2 * _select([x1, True], [(lambda u, x14: 64.0 * u * x14 ** 7, u, x14), (lambda: 0,)], default=nan) / x15 - x17) / x15
    del x0, x1, x14
    dvv = (_select([x5, True], [(lambda x16, x4: x16 ** 6 * (3840.0 * x4 - 64.0), x16, x4), (lambda: 0,)], default=nan) + 2 * _select([x5, True], [(lambda v, x16: 64.0 * v * x16 ** 7, v, x16), (lambda: 0,)], default=nan) / x15 - x17) / x15
    del x4, x5, x15, x16, x17
    return (value, du, dv, duv, duu, dvv)


def multipole_2(u, v, k):
    x0 = -u + v
    value = x0 ** (-2.0)
    if k == 1:
        return (value,)
    x1 = x0 ** 3
    du = 2 / x1
    dv = -2 / x1
    del x1
    if k == 3:
        return (value, du, dv)
    duv = -6 / x0 ** 4
    del x0
    if k == 4:
        return (value, du, dv, duv)
    x2 = 6 / (u - v) ** 4
    duu = x2
    dvv = x2
    del x2
    return (value, du, dv, duv, duu, dvv)


FORMS = {
    '1 + 0*u': unit,
    'sin(u)*cos(v/3)': oscillatory,
    '(-u*v)**(4/5) * (-v/u)**(3/10)': separable_power,
    '(Piecewise(((1 - ((2*u)/1.0)**2)**8, (2*u)**2 < 1.0**2), (0, True)) - Piecewise(((1 - ((2*v)/1.0)**2)**8, (2*v)**2 < 1.0**2), (0, True))) / (v - u)': spherical_wave,
    '(v - u)**(-2)': multipole_2,
}
