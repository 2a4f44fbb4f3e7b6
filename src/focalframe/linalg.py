"""Small dense linear algebra used throughout the package.

Ambient dimensions are tiny (at most eight in practice). Orthogonalization
is modified Gram-Schmidt, kept here because it returns the unnormalized
norms the curvature quotients are built from and flags rank loss by
index. :func:`gram_schmidt_rows` is the one kernel: it takes a stack of
flags (one per grid row or evaluation point, or a one-row stack for a
single flag) and reports rank loss per row. It serves every grid pass
and the synthesized curves' evaluator.
It works on a component-major copy, one ``(dim, rows)`` block per vector,
so each projection is a few whole-block ufunc calls into reused buffers.
LAPACK's batched ``qr`` measured slower at grid shapes even than a
row-major MGS, which this layout runs in about half the time, and ``qr``
gives no rank verdict; ``scripts/time_kernels.py`` prints the kernel's
timings.
The solve is LAPACK's, behind a conditioning check, and
:func:`solve_linear` is stacked the same way, with a per-row verdict, so a
singular or non-finite system fails its own row and not the stack; one
system is the one-row case. The check is the singular-value test, but a
batched ``inv`` certifies most rows without it: sigma_min(A) >= 1 /
||A^-1||_F, so a row with ||A||_F ||A^-1||_F below 1e10 passes the test
with three decades to spare, and only the other rows go to a batched
``svd``. The osculating-center oracle solves the center table of a whole
grid pass in one such call. All functions are pure, never mutate their
inputs, and are safe to call from multiple threads.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularSystem

# Rank tolerance for Gram-Schmidt, relative to the first vector's norm raised
# to the step index: derivative magnitudes grow geometrically with order, so
# an absolute cutoff misfires.
RANK_RTOL = 1e-8

# The smallest normal float64: a squared Frobenius norm below it has lost digits.
_TINY = np.finfo(float).tiny


def as_vector(x, dim: int) -> np.ndarray:
    """Validate and return a 1-d float array of ``dim`` finite entries."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if v.size != dim:
        raise ValueError(f"expected length {dim}, got {v.size}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    return v


def gram_schmidt_rows(stack) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Modified Gram-Schmidt on every row of a ``(N, k, dim)`` stack of
    flags, without normalizing.

    Each vector is reduced against its row's already-orthogonalized ones in
    order (the modified variant keeps orthogonality through the 4th and 5th
    vector where the classical one degrades; Bjorck, BIT 7, 1967). Returns
    ``(orthogonal, norms, failed)``, C-contiguous, of shapes ``(N, k,
    dim)``, ``(N, k)`` and ``(N,)``; ``orthogonal[r]`` spans row r's input
    flag prefix by prefix and the norms are returned apart so curvature
    quotients come straight from them. ``failed[r]`` is the 1-based index
    of row r's first vector whose reduced norm is zero or at most
    ``RANK_RTOL * norms[r, 0]**index``, 0 where the row is fine; entries of
    a failed row from that index on are not meaningful. On a large flag
    that tolerance can overflow to +inf, which flags its row, as exact
    arithmetic would: the vector's norm cannot exceed it. Raises ValueError
    on a wrong shape, more vectors than dimensions or non-finite input.

    The work runs on a component-major copy ``W[i, d, r]``: vector i of
    every row is one contiguous ``(dim, N)`` block, so a projection is four
    ufunc calls over whole blocks into reused buffers (product, sum over
    components, scale, subtract) instead of strided per-row reductions.
    That halves the kernel's time at grid shapes. One row gains about a
    quarter, but still pays the Python double loop over vector pairs.
    """
    V = np.asarray(stack, dtype=float)
    if V.ndim != 3:
        raise ValueError(f"expected a (rows, vectors, dim) stack, got shape {V.shape}")
    n_rows, k, dim = V.shape
    if k > dim:
        raise ValueError(f"{k} vectors cannot be independent in dimension {dim}")
    if not np.all(np.isfinite(V)):
        raise ValueError("input vectors have non-finite entries")

    # copy() always copies: a one-row stack's transpose is already contiguous
    W = V.transpose(1, 2, 0).copy()
    sq = np.empty((k, n_rows))
    norms = np.empty((k, n_rows))
    failed = np.zeros(n_rows, dtype=int)
    tmp = np.empty((dim, n_rows))
    coef = np.empty(n_rows)
    # A failed row may divide by a zero norm further on; its values are never
    # read. A tolerance that overflows is +inf and flags its row.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(k):
            v = W[i]
            for j in range(i):
                np.multiply(v, W[j], out=tmp)
                np.add.reduce(tmp, axis=0, out=coef)
                coef /= sq[j]
                np.multiply(coef, W[j], out=tmp)
                v -= tmp
            np.multiply(v, v, out=tmp)
            np.add.reduce(tmp, axis=0, out=sq[i])
            n = np.sqrt(sq[i], out=norms[i])
            tol = RANK_RTOL * norms[0] ** (i + 1) if i > 0 else 0.0
            failed[(failed == 0) & ((n <= tol) | (n == 0.0))] = i + 1
    return np.ascontiguousarray(W.transpose(2, 0, 1)), np.ascontiguousarray(norms.T), failed


def solve_linear(A, b):
    """Solve the square system ``A x = b`` with LAPACK, or a stack of them.

    ``A`` of shape (n, n) and ``b`` of shape (n,) give ``x`` of shape
    (n,). Raises SingularSystem when the smallest singular value of ``A``
    is at or below ``1e-13 * ||A||_F``, or when ``x`` is not finite;
    raises ValueError on an empty or non-square matrix, a mismatched
    right-hand side or non-finite entries.

    A stack, ``A`` of shape (N, n, n) and ``b`` of shape (N, n), is
    checked by one batched ``inv``: a row with ``||A||_F^2 ||A^-1||_F^2 <
    1e20`` has its smallest singular value above ``1e-10 * ||A||_F``,
    three decades over the floor, and needs no more. Every other row takes
    the test itself, in one batched ``svd(compute_uv=False)``: an
    ill-conditioned row, one whose ``||A||_F`` overflows or underflows or
    whose inverse is not finite, and all rows when LAPACK finds one of
    them exactly singular. So the verdicts are the test's. One batched
    ``solve`` of the regular rows follows, and the call returns
    ``(x, errors)``: ``x`` of shape (N, n), NaN on a failed row, and
    ``errors``, a dict from the index of each failed row to the exception
    (not raised) that a 2-D call on that row raises. Non-finite rows are
    kept out of the LAPACK calls and singular ones out of the solve, so
    one bad system cannot fail the rest; shape errors are raised. A 2-D
    call is the one-row case of the stack, so its solution has the bits
    of its row in any stack.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    stacked = A.ndim == 3
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2] or not A.shape[-1]:
        what = "a stack of nonempty square matrices" if stacked else "a nonempty square matrix"
        raise ValueError(f"expected {what}, got shape {A.shape}")
    if b.shape != A.shape[:-1]:
        size = A.shape[:-1] if stacked else A.shape[0]
        raise ValueError(f"right-hand side shape {b.shape} does not match system size {size}")
    if stacked:
        return _solve_rows(A, b)
    x, errors = _solve_rows(A[None], b[None])
    if errors:
        raise errors[0]
    return x[0]


def _solve_rows(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, dict[int, Exception]]:
    """The stacked kernel of :func:`solve_linear` on checked shapes."""
    n = len(b)
    errors: dict[int, Exception] = {}
    rows = np.arange(n)
    # ||A||_F^2 (einsum flags no overflow) is finite unless an entry is not,
    # or it overflows, which the entrywise check tells apart
    sq = np.einsum("rij,rij->r", A, A)
    if not (np.isfinite(sq).all() and np.isfinite(b).all()):
        bad = ~(np.isfinite(A).all(axis=(1, 2)) & np.isfinite(b).all(axis=1))
        for r in np.flatnonzero(bad).tolist():
            errors[r] = ValueError("system has non-finite entries")
        rows = rows[~bad]
        A, b, sq = A[rows], b[rows], sq[rows]
    regular = _certified_regular(A, sq)
    doubt = np.flatnonzero(~regular)
    if doubt.size:
        # an overflowing ||A||_F gives an infinite floor: the row is singular
        floor = 1e-13 * np.sqrt(sq[doubt])
        smallest = np.linalg.svd(A[doubt], compute_uv=False)[:, -1]
        passed = smallest > floor
        regular[doubt] = passed
        for r in np.flatnonzero(~passed).tolist():
            errors[int(rows[doubt[r]])] = SingularSystem(
                f"smallest singular value {smallest[r]:.3e} at or below {floor[r]:.3e}")
        rows, A, b = rows[regular], A[regular], b[regular]
    x = np.linalg.solve(A, b[:, :, None])[:, :, 0]
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        for r in rows[~finite].tolist():
            errors[r] = SingularSystem("solution is not finite")
        rows, x = rows[finite], x[finite]
    if not errors:
        return x, errors
    out = np.full((n, x.shape[1]), np.nan)
    out[rows] = x
    return out, errors


def _certified_regular(A: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """Rows of the finite stack ``A`` (``sq`` its squared Frobenius norms)
    that pass the singular-value test by a certificate: sigma_min(A) >=
    1 / ||A^-1||_F, so ``||A||_F^2 ||X||_F^2 < 1e20`` for the LU inverse X
    puts sigma_min above 1e-10 ||A||_F, three decades over the floor. At
    that conditioning X errs by about 1e-4 relative at most for n <= 9
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch.
    14). An overflowing or underflowed ||A||_F, a non-finite X, and every
    row of a stack that LAPACK finds exactly singular are not certified."""
    try:
        X = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        return np.zeros(len(A), dtype=bool)
    isq = np.einsum("rij,rij->r", X, X)
    # an overflowing ||A||_F may meet an underflowed ||X||_F: inf * 0 is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        return (sq >= _TINY) & np.isfinite(sq) & (sq * isq < 1e20)
