"""Finite-difference stencils on uniform 1D axes of a 2D array.

Centered stencils of the requested order in the interior; near an edge the
order degrades gracefully through smaller centered stencils down to one-sided
second order at the outermost node.
"""

from __future__ import annotations

import numpy as np

from .errors import GridTooCoarse, InvalidInput

# centered first-derivative weights, half-width -> weights (length 2*hw + 1)
_D1 = {
    1: np.array([-0.5, 0.0, 0.5]),
    2: np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0,
    3: np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0,
    4: np.array([3.0, -32.0, 168.0, -672.0, 0.0, 672.0, -168.0, 32.0, -3.0]) / 840.0,
}

# centered second-derivative weights
_D2 = {
    1: np.array([1.0, -2.0, 1.0]),
    2: np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0,
    3: np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0,
    4: np.array([-9.0, 128.0, -1008.0, 8064.0, -14350.0, 8064.0, -1008.0, 128.0, -9.0]) / 5040.0,
}

SUPPORTED_ORDERS = (2, 4, 6, 8)


def _check(values: np.ndarray, order: int, axis: int) -> int:
    if order not in SUPPORTED_ORDERS:
        raise InvalidInput(f"stencil order must be one of {SUPPORTED_ORDERS}, got {order}")
    npts = values.shape[axis]
    if npts < order + 1:
        raise GridTooCoarse(f"axis has {npts} nodes; order-{order} stencil needs {order + 1}")
    return order // 2


def _apply(values, spacing, axis, order, table, onesided_left, onesided_right, power):
    hw = _check(np.asarray(values), order, axis)
    w = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    out = np.empty_like(w)
    n = w.shape[0]

    # centred taps summed in place, 0.0 + c0 w0 + c1 w1 + ... in tap order
    mid = out[hw : n - hw]
    mid[...] = 0.0
    tap = np.empty_like(mid)
    for k, c in enumerate(table[hw]):
        if c != 0.0:
            mid += np.multiply(w[k : n - 2 * hw + k], c, out=tap)

    # shrink the centered stencil toward the edges, one-sided at the ends
    for j in range(1, hw):
        sub = table[j]
        out[j] = sum(c * w[j - len(sub) // 2 + k] for k, c in enumerate(sub) if c != 0.0)
        out[n - 1 - j] = sum(
            c * w[n - 1 - j - len(sub) // 2 + k] for k, c in enumerate(sub) if c != 0.0
        )
    out[0] = sum(c * w[k] for k, c in enumerate(onesided_left))
    out[-1] = sum(c * w[n - len(onesided_right) + k] for k, c in enumerate(onesided_right))

    out /= spacing**power
    return np.moveaxis(out, 0, axis)


def d1(values, spacing: float, axis: int, order: int = 4):
    """First derivative along `axis` on a uniformly spaced grid."""
    left = np.array([-1.5, 2.0, -0.5])
    return _apply(values, spacing, axis, order, _D1, left, -left[::-1], 1)


def d2(values, spacing: float, axis: int, order: int = 4):
    """Second derivative along `axis` on a uniformly spaced grid."""
    side = np.array([2.0, -5.0, 4.0, -1.0])
    return _apply(values, spacing, axis, order, _D2, side, side[::-1], 2)


def interior_margin(order: int, depth: int = 1) -> int:
    """Nodes to trim from each edge for `depth` stacked stencil applications."""
    return (order // 2) * depth
