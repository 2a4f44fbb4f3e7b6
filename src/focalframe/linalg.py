"""Small dense linear algebra used throughout the package.

Ambient dimensions are tiny (at most eight in practice). Orthogonalization
is modified Gram-Schmidt, kept here because it returns the unnormalized
norms the curvature quotients are built from and flags rank loss by
index; the solve is LAPACK's, behind a conditioning check. All functions
are pure, never mutate their inputs, and are safe to call from multiple
threads.
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


def gram_schmidt(vectors, rank_rtol: float = RANK_RTOL) -> tuple[np.ndarray, np.ndarray]:
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
    vector falls below ``rank_rtol * ||v_1||**index``.
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
        tol = rank_rtol * norms[0] ** (i + 1) if i > 0 else 0.0
        if n <= tol or n == 0.0:
            raise DegenerateFlag(i + 1, n, tol)
        norms[i] = n
    return V, norms


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
