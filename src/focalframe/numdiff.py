"""Finite-difference weights and grid differentiation.

Weights come from Fornberg's recursion, which handles arbitrary node
placement and every derivative order up to the window size in one pass.
That lets the same code serve interior central stencils, one-sided
boundary stencils and off-node interpolation of sampled curves. The
recursion runs over a stack of stencils, so a whole grid's stencils
come from one call (Fornberg 1988, *Math. Comp.* 51). Inside it the
stack's rows lie on the contiguous axis, so each step updates whole runs
of rows; the result is transposed to rows first once, at the end.
A grid's first-derivative weights are computed once per grid
(:func:`grid_stencils`) and applied to any number of columns on it.
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
    # C[j, k, r] is the weight of node j for order k in stencil r: the rows
    # of a stack lie on the contiguous axis, so every slice below is a run of
    # whole rows. The classical recursion loops over earlier nodes j and
    # orders k one scalar at a time; here each step i updates all j and k as
    # slices. Every entry reads only entries the scalar loop would not yet
    # have overwritten, and the products run in the same order, so each
    # element sees the same operations.
    xt = x.T
    dx = xt - x0
    C = np.zeros((n, max_order + 1, x.shape[0]))
    C[0, 0] = 1.0
    c1 = np.ones(x.shape[0])
    for i in range(1, n):
        mn = min(i, max_order)
        k = np.arange(1, mn + 1, dtype=float)[:, None]
        c3 = xt[i] - xt[:i]
        c2 = np.multiply.accumulate(c3, axis=0)[-1]
        c4, c5 = dx[i], dx[i - 1]
        C[i, 1:mn + 1] = c1 * (k * C[i - 1, :mn] - c5 * C[i - 1, 1:mn + 1]) / c2
        C[i, 0] = -c1 * c5 * C[i - 1, 0] / c2
        c3 = c3[:, None]
        C[:i, 1:mn + 1] = (c4 * C[:i, 1:mn + 1] - k * C[:i, :mn]) / c3
        C[:i, 0] = c4 * C[:i, 0] / c3[:, 0]
        c1 = c2
    return C.transpose(2, 1, 0).copy()


def window_starts(n: int, centers, size: int) -> np.ndarray:
    """First index of each ``size``-wide window out of ``n``, centered, clamped."""
    if size > n:
        raise ValueError(f"window {size} exceeds grid size {n}")
    return np.clip(np.asarray(centers, dtype=int) - size // 2, 0, n - size)


def grid_stencils(ts, window: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """The first-derivative stencils of :func:`grid_derivative` over a grid.

    Returns ``(idx, w)``, both (N, window): row i of the derivative is
    ``w[i] @ values[idx[i]]``. Interior points get centered ``window``-point
    stencils (for an odd ``window``); the ``window // 2`` points at each
    end get the one-sided ``window``-point stencils that fall out of the
    same weight recursion. Nodes need not be uniform, but must be strictly
    monotone (increasing or decreasing); all stencils come from one stacked
    weight call, so a caller that differentiates several columns on one
    grid builds the table once.
    """
    t = np.asarray(ts, dtype=float)
    n = t.size
    if n < window:
        raise ValueError(f"need at least {window} grid points, got {n}")
    # every step has the sign of the whole run; a repeat, a step back or a NaN does not
    bad = np.flatnonzero(~(np.diff(t) * np.sign(t[-1] - t[0]) > 0)) + 1
    if bad.size:
        raise ValueError(f"grid must be strictly monotone; t={float(t[bad[0]])!r} breaks it")
    idx = window_starts(n, np.arange(n), window)[:, None] + np.arange(window)
    return idx, fd_weights(t[idx], t, 1)[:, 1]


def grid_derivative(values, ts, window: int = 5) -> np.ndarray:
    """First derivative of gridded data, of order ``window - 1`` in the spacing.

    ``values`` may be (N,) or (N, d); differentiation runs along axis 0
    with the stencils of :func:`grid_stencils`.
    """
    y = np.asarray(values, dtype=float)
    if y.shape[0] != np.size(ts):
        raise ValueError("values and ts disagree in length")
    idx, w = grid_stencils(ts, window)
    return np.einsum("nw,nw...->n...", w, y[idx])
