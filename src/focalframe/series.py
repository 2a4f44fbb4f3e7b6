"""Truncated power-series arithmetic on plain coefficient arrays.

A series is a float array ``a`` meaning ``f(x0 + h) = sum a[j] h**j``.
Used to take derivatives in arclength from derivatives in a curve's own
parameter: d/ds = v^-1 d/dt, with v the series of the speed, is one
square root and one division per order, and needs no series reversion.

Both series functions act on a stack of N series, shape (N, n), looping
over the truncation order (below ~10) with array work over N, so an
arclength grid is differentiated in one pass (Griewank & Walther,
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
        s[:, j] = (acc - (s[:, 1:j] * s[:, j - 1:0:-1]).sum(axis=1)) / twice
    return s


def series_divide(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Quotients of two stacks of series, ``a`` of shape (N, n, ...) over
    ``b`` of shape (N, m >= n), in the floating type of both; needs
    b[:, 0] != 0. Trailing axes of ``a`` share their row's divisor."""
    q = np.empty(a.shape, dtype=np.result_type(a, b, 1.0))
    lead = b[:, 0].reshape((-1,) + (1,) * (a.ndim - 2))
    for j in range(a.shape[1]):
        q[:, j] = (a[:, j] - np.einsum("nj...,nj->n...", q[:, :j], b[:, j:0:-1])) / lead
    return q


def factorials(n: int) -> np.ndarray:
    return np.array([math.factorial(j) for j in range(n)], dtype=float)
