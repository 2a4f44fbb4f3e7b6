"""Small dense linear algebra used throughout the package.

Ambient dimensions are tiny (at most eight in practice). Orthogonalization
is modified Gram-Schmidt, kept here because it returns the unnormalized
norms the curvature quotients are built from and flags rank loss by
index. :func:`gram_schmidt_rows` is the one kernel: it takes a stack of
flags (one per grid row or evaluation point, or a one-row stack for a
single flag) and reports rank loss per row. It serves every grid pass,
the synthesized curves' evaluator and the integrator's initial frame.
The solve is LAPACK's, behind a conditioning check. All functions are pure,
never mutate their inputs, and are safe to call from multiple threads.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularSystem

# Rank tolerance for Gram-Schmidt, relative to the first vector's norm raised
# to the step index: derivative magnitudes grow geometrically with order, so
# an absolute cutoff misfires.
RANK_RTOL = 1e-8


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Validate and return a 1-d float array (finite entries, optional length)."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if dim is not None and v.size != dim:
        raise ValueError(f"expected length {dim}, got {v.size}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    return v


def gram_schmidt_rows(stack) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Modified Gram-Schmidt on every row of a ``(N, k, dim)`` stack of
    flags, without normalizing.

    Each vector is reduced against its row's already-orthogonalized ones in
    order (the modified variant keeps orthogonality through the 4th and 5th
    vector where the classical one degrades). Returns ``(orthogonal, norms,
    failed)`` of shapes ``(N, k, dim)``, ``(N, k)`` and ``(N,)``;
    ``orthogonal[r]`` spans row r's input flag prefix by prefix and the
    norms are returned apart so curvature quotients come straight from
    them. ``failed[r]`` is the 1-based index of row r's first vector whose
    reduced norm is zero or at most ``RANK_RTOL * norms[r, 0]**index``, 0
    where the row is fine; entries of a failed row from that index on are
    not meaningful. Raises ValueError on a wrong shape, more vectors than
    dimensions or non-finite input.
    """
    V = np.array(stack, dtype=float)
    if V.ndim != 3:
        raise ValueError(f"expected a (rows, vectors, dim) stack, got shape {V.shape}")
    _, k, dim = V.shape
    if k > dim:
        raise ValueError(f"{k} vectors cannot be independent in dimension {dim}")
    if not np.all(np.isfinite(V)):
        raise ValueError("input vectors have non-finite entries")

    norms = np.empty(V.shape[:2])
    failed = np.zeros(V.shape[0], dtype=int)
    # A failed row may divide by a zero norm further on; its values are never read.
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(k):
            for j in range(i):
                coef = np.einsum("nd,nd->n", V[:, i], V[:, j]) / (norms[:, j] * norms[:, j])
                V[:, i] -= coef[:, None] * V[:, j]
            n = np.linalg.norm(V[:, i], axis=1)
            tol = RANK_RTOL * norms[:, 0] ** (i + 1) if i > 0 else 0.0
            failed[(failed == 0) & ((n <= tol) | (n == 0.0))] = i + 1
            norms[:, i] = n
    return V, norms, failed


def solve_linear(A, b) -> np.ndarray:
    """Solve the square system ``A x = b`` with LAPACK.

    Raises SingularSystem when the smallest singular value of ``A`` is at
    or below ``1e-13 * ||A||_F``; raises ValueError on an empty or
    non-square matrix, a mismatched right-hand side or non-finite entries.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not A.size:
        raise ValueError(f"expected a nonempty square matrix, got shape {A.shape}")
    n = A.shape[0]
    if b.shape != (n,):
        raise ValueError(f"right-hand side shape {b.shape} does not match system size {n}")
    # ||A||_F as np.linalg.norm computes it; it and b . b are finite unless an
    # entry is not, or they overflow, which the entrywise check tells apart
    flat = A.ravel(order="K")
    frobenius = math.sqrt(flat.dot(flat))
    if not (math.isfinite(frobenius) and math.isfinite(b @ b)):
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("system has non-finite entries")

    floor = 1e-13 * frobenius
    smallest = float(np.linalg.svd(A, compute_uv=False)[-1])
    if smallest <= floor:
        raise SingularSystem(f"smallest singular value {smallest:.3e} at or below {floor:.3e}")
    return np.linalg.solve(A, b)
