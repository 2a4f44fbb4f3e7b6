"""Truncated power-series arithmetic on plain coefficient arrays.

A series is a float array ``a`` meaning ``f(x0 + h) = sum a[j] h**j``.
Used to rebuild derivative oracles after arclength reparametrization,
which would otherwise need nested chain rules to high order.

Both series functions act on a stack of N series, shape (N, n), looping
over the truncation order (below ~10) with array work over N, so an
arclength grid is substituted in one pass (Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., ch. 13).
"""

from __future__ import annotations

import math

import numpy as np


def series_sqrt(a: np.ndarray, n: int) -> np.ndarray:
    """Square roots of a stack of series, shape (N, m) -> (N, n), in the
    floating type of ``a``; needs a[:, 0] > 0."""
    if np.count_nonzero(a[:, 0] > 0.0) < len(a):
        raise ValueError("series_sqrt needs a positive leading coefficient")
    s = np.zeros((len(a), n), dtype=np.result_type(a, 1.0))
    s[:, 0] = np.sqrt(a[:, 0])
    twice = 2.0 * s[:, 0]
    for j in range(1, n):
        acc = a[:, j] if j < a.shape[1] else 0.0
        if j > 1:  # the sum is empty at j = 1
            acc = acc - (s[:, 1:j] * s[:, j - 1:0:-1]).sum(axis=1)
        s[:, j] = acc / twice
    return s


def series_reverse_powers(d: np.ndarray, n: int) -> np.ndarray:
    """Powers of the compositional inverse of each series in a stack.

    Row r of ``d`` holds the coefficients of x^1, x^2, ... of a series
    S(x) = d[r, 0] x + d[r, 1] x^2 + ... with d[r, 0] != 0 and no constant
    term; ``d`` has shape (N, n - 1). Returns P of shape (N, n, n) with
    ``P[:, k, j] = [x^j] T(x)^k``, where T is the inverse series
    (S(T(x)) = x), so ``P[:, 1]`` is T itself and a series f composes as
    ``f(T) = einsum("nk,nkj->nj", f, P)``, in the floating type of ``d``.
    The table fills one column j at a time: the powers k >= 2 need only the
    coefficients of T below j, and the coefficient of x^j in S(T) then
    fixes T's j-th (Brent & Kung, J. ACM 25, 1978). That is O(n^2) array
    operations.
    """
    if np.count_nonzero(d[:, 0]) < len(d):
        raise ValueError("series_reverse_powers needs a nonzero linear coefficient")
    P = np.zeros((len(d), n, n), dtype=np.result_type(d, 1.0))
    P[:, 0, 0] = 1.0
    inv = 1.0 / d[:, 0]
    if n > 1:
        P[:, 1, 1] = inv
    for j in range(2, n):
        # P[k, j] = sum_{i=1}^{j-1} T[i] P[k-1, j-i] for k = 2..j
        P[:, 2:j + 1, j] = (P[:, 1:j, j - 1:0:-1] * P[:, None, 1, 1:j]).sum(axis=2)
        P[:, 1, j] = -(d[:, 1:j] * P[:, 2:j + 1, j]).sum(axis=1) * inv
    return P


def factorials(n: int) -> np.ndarray:
    return np.array([math.factorial(j) for j in range(n)], dtype=float)
