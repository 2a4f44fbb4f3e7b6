"""Per-row reference kernels that the stacked library kernels are tested against."""

import numpy as np

from focalframe.errors import DegenerateFlag
from focalframe.linalg import RANK_RTOL


def gram_schmidt(vectors) -> tuple[np.ndarray, np.ndarray]:
    """Modified Gram-Schmidt on one flag, one vector at a time.

    Returns ``(orthogonal, norms)`` without normalizing; raises
    DegenerateFlag (with the failing 1-based index) when a reduced vector
    is zero or falls to ``RANK_RTOL * ||v_1||**index``.
    """
    V = np.array(vectors, dtype=float)
    k = V.shape[0]
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
