"""Small dense linear algebra used throughout the package.

Ambient dimensions are tiny (at most eight in practice). Orthogonalization
is modified Gram-Schmidt, kept here because it returns the unnormalized
norms the curvature quotients are built from and flags rank loss by
index. It comes in two shapes: :func:`gram_schmidt_rows` for a stack of
flags (one per grid row or evaluation point), which reports rank loss per
row and serves every grid pass and the synthesized curves' evaluator, and
:func:`gram_schmidt` for one flag, which raises on rank loss; its one
caller is the synthesis integrator's per-step re-orthonormalization. The
solve is LAPACK's, behind a conditioning check. All functions are pure,
never mutate their inputs, and are safe to call from multiple threads.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateFlag, SingularSystem

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


def gram_schmidt(vectors) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonalize a sequence of vectors without normalizing them.

    Uses the modified (sequential re-projection) variant: each vector is
    reduced against the already-orthogonalized ones in order, which keeps
    orthogonality through the 4th and 5th vector where the classical variant
    degrades in double precision.

    Returns ``(orthogonal, norms)`` where ``orthogonal[i]`` spans the same
    flag as the input prefix and ``norms[i] = ||orthogonal[i]||``. The norms
    are returned separately so curvature quotients can be formed from them
    directly.

    Raises DegenerateFlag (with the failing 1-based index) when a reduced
    vector falls below ``RANK_RTOL * ||v_1||**index``.
    """
    V = np.array(vectors, dtype=float)
    if V.ndim != 2:
        raise ValueError(f"expected a sequence of vectors, got shape {V.shape}")
    k, dim = V.shape
    if k > dim:
        raise ValueError(f"{k} vectors cannot be independent in dimension {dim}")
    if not np.all(np.isfinite(V)):
        raise ValueError("input vectors have non-finite entries")

    norms = np.empty(k)
    for i in range(k):
        for j in range(i):
            V[i] -= (V[i] @ V[j]) / (norms[j] * norms[j]) * V[j]
        n = float(np.linalg.norm(V[i]))
        tol = RANK_RTOL * norms[0] ** (i + 1) if i > 0 else 0.0
        if n <= tol or n == 0.0:
            raise DegenerateFlag(i + 1, n, tol)
        norms[i] = n
    return V, norms


def gram_schmidt_rows(stack) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`gram_schmidt` on every row of a ``(N, k, dim)`` stack at once.

    Returns ``(orthogonal, norms, failed)`` of shapes ``(N, k, dim)``,
    ``(N, k)`` and ``(N,)``. ``failed[r]`` is the 1-based index of row r's
    first vector at or below the rank tolerance (the rule of
    :func:`gram_schmidt`), 0 where the row is fine. Entries of a failed row
    from its failing index on are not meaningful. Raises ValueError on a
    wrong shape or non-finite input.
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
    or below ``1e-13 * ||A||_F``; raises ValueError on a non-square matrix,
    a mismatched right-hand side or non-finite entries.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    if b.shape != (n,):
        raise ValueError(f"right-hand side shape {b.shape} does not match system size {n}")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise ValueError("system has non-finite entries")

    floor = 1e-13 * float(np.linalg.norm(A))
    smallest = float(np.linalg.svd(A, compute_uv=False)[-1])
    if smallest <= floor:
        raise SingularSystem(f"smallest singular value {smallest:.3e} at or below {floor:.3e}")
    return np.linalg.solve(A, b)
