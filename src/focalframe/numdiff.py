"""Finite-difference weights and grid differentiation.

Weights come from Fornberg's recursion, which handles arbitrary node
placement and every derivative order up to the window size in one pass.
That lets the same code serve interior central stencils, one-sided
boundary stencils and off-node interpolation of sampled curves. The
recursion runs over a leading stack axis, so a whole grid's stencils
come from one call (Fornberg 1988, *Math. Comp.* 51).
"""

from __future__ import annotations

import numpy as np


def fd_weights(nodes, x0, max_order: int) -> np.ndarray:
    """Differentiation weights for a stack of stencils.

    Given ``(N, n)`` nodes and ``(N,)`` centers, returns ``w`` of shape
    ``(N, max_order + 1, n)`` such that ``w[r, k] @ f(nodes[r])``
    approximates the k-th derivative of ``f`` at ``x0[r]`` (k = 0
    reproduces interpolation). A single stencil is a one-row stack.
    """
    x = np.asarray(nodes, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if x.ndim != 2 or x0.shape != x.shape[:1]:
        raise ValueError(f"expected (N, n) nodes and (N,) centers, got {x.shape}, {x0.shape}")
    n = x.shape[1]
    if n <= max_order:
        raise ValueError(f"need more than {max_order} nodes, got {n}")
    # C[:, j, k] is the weight of node j for order k. The classical recursion
    # loops over earlier nodes j and orders k one scalar at a time; here each
    # step i updates all j and k as slices. Every entry reads only entries
    # the scalar loop would not yet have overwritten, and the products run in
    # the same order, so each element sees the same operations.
    dx = x - x0[:, None]
    C = np.zeros((x.shape[0], n, max_order + 1))
    C[:, 0, 0] = 1.0
    c1 = np.ones((x.shape[0], 1))
    for i in range(1, n):
        mn = min(i, max_order)
        k = np.arange(1, mn + 1, dtype=float)
        c3 = x[:, i:i + 1] - x[:, :i]
        c2 = np.multiply.accumulate(c3, axis=1)[:, -1:]
        c4, c5 = dx[:, i:i + 1, None], dx[:, i - 1:i]
        C[:, i, 1:mn + 1] = c1 * (k * C[:, i - 1, :mn] - c5 * C[:, i - 1, 1:mn + 1]) / c2
        C[:, i, :1] = -c1 * c5 * C[:, i - 1, :1] / c2
        c3 = c3[:, :, None]
        C[:, :i, 1:mn + 1] = (c4 * C[:, :i, 1:mn + 1] - k * C[:, :i, :mn]) / c3
        C[:, :i, :1] = c4 * C[:, :i, :1] / c3
        c1 = c2
    return C.transpose(0, 2, 1).copy()


def window_starts(n: int, centers, size: int) -> np.ndarray:
    """First index of each ``size``-wide window out of ``n``, centered, clamped."""
    if size > n:
        raise ValueError(f"window {size} exceeds grid size {n}")
    return np.clip(np.asarray(centers, dtype=int) - size // 2, 0, n - size)


def grid_derivative(values, ts, window: int = 5) -> np.ndarray:
    """First derivative of gridded data, of order ``window - 1`` in the spacing.

    ``values`` may be (N,) or (N, d); differentiation runs along axis 0.
    Interior points get centered ``window``-point stencils (for an odd
    ``window``); the ``window // 2`` points at each end get the one-sided
    ``window``-point stencils that fall out of the same weight recursion.
    Nodes need not be uniform, but must be strictly monotone (increasing
    or decreasing); all stencils come from one stacked weight call.
    """
    y = np.asarray(values, dtype=float)
    t = np.asarray(ts, dtype=float)
    n = t.size
    if y.shape[0] != n:
        raise ValueError("values and ts disagree in length")
    if n < window:
        raise ValueError(f"need at least {window} grid points, got {n}")
    # every step has the sign of the whole run; a repeat, a step back or a NaN does not
    bad = np.flatnonzero(~(np.diff(t) * np.sign(t[-1] - t[0]) > 0)) + 1
    if bad.size:
        raise ValueError(f"grid must be strictly monotone; t={float(t[bad[0]])!r} breaks it")
    idx = window_starts(n, np.arange(n), window)[:, None] + np.arange(window)
    w = fd_weights(t[idx], t, 1)[:, 1]
    return np.einsum("nw,nw...->n...", w, y[idx])
