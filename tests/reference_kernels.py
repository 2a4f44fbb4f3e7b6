"""Per-row reference kernels that the stacked library kernels are tested
against, former kernels that their rewrites must match, exact references,
a curve that counts its evaluator calls, a counter of SVD calls, a
runner of racing threads and the example specs of
``scripts/write_example_specs.py``."""

import importlib.util
import math
import sys
import threading
from pathlib import Path

import numpy as np

from focalframe import arclength
from focalframe.curves import make_curve
from focalframe.errors import ConvergenceFailure, ReducedOrder, SingularSystem
from focalframe.linalg import RANK_RTOL


def counting_curve(base):
    """``base`` behind an evaluator that logs ``(rows, order)`` per call."""
    calls = []

    def evaluator(t, order):
        calls.append((t.size, order))
        return base.evaluator(t, order)

    curve = make_curve(base.dimension, base.domain, base.kind, base.max_order, evaluator,
                       base.label, check_regularity=False)
    return curve, calls


def run_in_threads(work, count=4):
    """Run ``work(i)`` for i < ``count`` in threads that switch every
    microsecond, so that they interleave as finely as the interpreter lets
    them; fails unless all of them finish within a minute."""
    threads = [threading.Thread(target=work, args=(i,)) for i in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)


def counting_svd(monkeypatch):
    """Shapes of the stacks passed to ``np.linalg.svd`` from here on."""
    shapes = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return shapes


def fornberg_scalar(x, x0, max_order):
    """Fornberg's recursion on one stencil, one scalar at a time: weights of
    shape (max_order + 1, len(x)), row k for the k-th derivative at x0."""
    n = len(x)
    C = np.zeros((n, max_order + 1))
    C[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0] - x0
    for i in range(1, n):
        mn = min(i, max_order)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    C[i, k] = c1 * (k * C[i - 1, k - 1] - c5 * C[i - 1, k]) / c2
                C[i, 0] = -c1 * c5 * C[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                C[j, k] = (c4 * C[j, k] - k * C[j, k - 1]) / c3
            C[j, 0] = c4 * C[j, 0] / c3
        c1 = c2
    return C.T


def gram_schmidt(vectors) -> tuple[np.ndarray, np.ndarray]:
    """Modified Gram-Schmidt on one flag, one vector at a time.

    Returns ``(orthogonal, norms)`` without normalizing; raises
    ReducedOrder (with the failing 1-based index) when a reduced vector
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
            raise ReducedOrder(i + 1)
        norms[i] = n
    return V, norms


def mgs_rows(stack) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row-major stacked modified Gram-Schmidt that
    :func:`focalframe.linalg.gram_schmidt_rows` replaced: one ``einsum``
    per (i, j) pair over the ``(N, k, dim)`` stack. Returns ``(orthogonal,
    norms, failed)`` as the library kernel does."""
    V = np.array(stack, dtype=float)
    _, k, dim = V.shape
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


def shifted_sine_evaluator(coords, max_order, dtype=float):
    """The analytic evaluator of :func:`focalframe.curves.curve_from_coordinates`
    in its former form: one ``sin(w t + phi + j pi/2)`` per term and order.

    With ``dtype=float`` it does that evaluator's arithmetic step for step.
    With ``np.longdouble`` every step, pi included, runs in extended
    precision, as a reference for the float64 evaluators."""
    dim = len(coords)
    pi = math.pi if dtype is float else np.longdouble("3.14159265358979323846264338327950288")
    terms = [(j, *term) for j, c in enumerate(coords) for term in c.terms]
    owner = np.eye(dim, dtype=dtype)[[j for j, *_ in terms]]
    amp, freq, phase = np.array([term for _, *term in terms], dtype=dtype).reshape(-1, 3).T
    const, slope = np.array([(c.const, c.slope) for c in coords], dtype=dtype).T
    scale = np.array([amp * freq**j for j in range(max_order + 1)])
    quarter = np.array([[j * 0.5 * pi] for j in range(max_order + 1)], dtype=dtype)

    def evaluator(t, order):
        t = np.asarray(t, dtype=dtype)
        k = max(order, 1) + 1
        vals = (np.multiply.outer(t, freq) + phase)[:, None, :] + quarter[:k]
        np.sin(vals, out=vals)
        vals *= scale[:k]
        out = (vals.reshape(t.size * k, freq.size) @ owner).reshape(t.size, k, dim)[:, :order + 1]
        out[:, 0] += const + np.multiply.outer(t, slope)
        if order:
            out[:, 1] += slope
        return out

    return evaluator


def center_rhs(derivs) -> np.ndarray:
    """Right-hand side of the osculating-center system from rows 0..dim of
    one derivative stack, one dot product per term:
    b_j = <gamma^(j), gamma> + 1/2 sum_{i=1}^{j-1} C(j, i) <gamma^(i), gamma^(j-i)>."""
    dim = derivs.shape[1]
    b = np.empty(dim)
    for j in range(1, dim + 1):
        acc = float(derivs[j] @ derivs[0])
        for i in range(1, j):
            acc += 0.5 * math.comb(j, i) * float(derivs[i] @ derivs[j - i])
        b[j - 1] = acc
    return b


def svd_solve_rows(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, dict[int, Exception]]:
    """The stacked solve with the SVD test on every row: ``(x, errors)`` as
    from a stacked :func:`focalframe.solve_linear` on checked shapes, from
    one batched ``svd`` of all finite rows."""
    n = len(b)
    errors: dict[int, Exception] = {}
    rows = None
    # ||A||_F^2 (einsum flags no overflow) is finite unless an entry is not,
    # or it overflows, which the entrywise check tells apart
    sq = np.einsum("rij,rij->r", A, A)
    if not (np.isfinite(sq).all() and np.isfinite(b).all()):
        bad = ~(np.isfinite(A).all(axis=(1, 2)) & np.isfinite(b).all(axis=1))
        for r in np.flatnonzero(bad).tolist():
            errors[r] = ValueError("system has non-finite entries")
        rows = np.flatnonzero(~bad)
        A, b, sq = A[rows], b[rows], sq[rows]
    # an overflowing ||A||_F gives an infinite floor: the row is singular
    floor = 1e-13 * np.sqrt(sq)
    smallest = np.linalg.svd(A, compute_uv=False)[:, -1]
    regular = smallest > floor
    if not regular.all():
        if rows is None:
            rows = np.arange(n)
        for r in np.flatnonzero(~regular).tolist():
            errors[int(rows[r])] = SingularSystem(
                f"smallest singular value {smallest[r]:.3e} at or below {floor[r]:.3e}")
        rows, A, b = rows[regular], A[regular], b[regular]
    x = np.linalg.solve(A, b[:, :, None])[:, :, 0]
    if rows is None:
        return x, errors
    out = np.full((n, x.shape[1]), np.nan)
    out[rows] = x
    return out, errors


def pow_newton_invert(amap, s) -> np.ndarray:
    """The bracketed Newton inversion of an arclength map in its former
    form: each step raises every point's span variable to the float powers
    0, ..., 20 with ``**``, one libm ``pow`` per point and power, and
    multiplies that table by the span's power coefficients. Start, bracket,
    bisection fallback, stop rule and step budget are those of
    :meth:`focalframe.arclength._ArclengthMap.invert`."""
    powers = np.arange(21.0)[None, :]
    s = np.minimum(np.maximum(s, 0.0), amap.total)
    i = np.searchsorted(amap.cum[1:-1], s)
    s_lo, width, start, half = amap.span[i].T
    poly = amap.poly[i]
    target = s - s_lo
    x = np.minimum(np.maximum(-1.0 + 2.0 * target / width, -1.0), 1.0)
    lo, hi = -1.0, 1.0
    active = np.arange(s.size)
    t = np.empty_like(s)
    for _ in range(arclength._NEWTON_STEPS):
        err, slope = (x[:, None, None] ** powers @ poly)[:, 0].T
        err = err - target
        above = err > 0.0
        hi = np.where(above, x, hi)
        lo = np.where(above, lo, x)
        x_new = x - err / np.where(slope > 0.0, slope, np.nan)
        x_new = np.where((lo <= x_new) & (x_new <= hi), x_new, 0.5 * (lo + hi))
        t_new = start + half * (1.0 + x_new)
        done = (err == 0.0) | (half * np.abs(x_new - x)
                               <= 1e-15 * np.maximum(1.0, np.abs(t_new)))
        t[active[done]] = t_new[done]
        if done.all():
            return t
        keep = ~done
        active, x, lo, hi = active[keep], x_new[keep], lo[keep], hi[keep]
        target, poly, start, half = target[keep], poly[keep], start[keep], half[keep]
    raise ConvergenceFailure(f"reference inversion at s={float(s[active[0]])!r} did not converge")


def wcurve_focal_coefficients(kappa) -> np.ndarray:
    """Focal curvatures c_1..c_m of a curve with constant curvatures, from
    its (N, m) curvature rows: the focal recursion with every derivative
    zero, c_1 = 1/kappa_1 and c_{i+1} = kappa_i c_{i-1} / kappa_{i+1}
    (c_0 = 0). Exact for a W-curve in any dimension, with no grid
    derivative; the focal point is the curve point plus c_i times the i-th
    normal."""
    kappa = np.asarray(kappa, dtype=float)
    n, m = kappa.shape
    c = np.zeros((n, m + 1))
    c[:, 1] = 1.0 / kappa[:, 0]
    for i in range(1, m):
        c[:, i + 1] = kappa[:, i - 1] * c[:, i - 1] / kappa[:, i]
    return c[:, 1:]


def _example_specs():
    path = Path(__file__).resolve().parents[1] / "scripts" / "write_example_specs.py"
    spec = importlib.util.spec_from_file_location("write_example_specs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPECS


EXAMPLE_SPECS = _example_specs()
