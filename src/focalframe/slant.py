"""Constant-angle axis estimation and slant-helix verification.

A curve is k-slant when its k-th frame vector rides a cone: the dot
product with some fixed unit direction is constant and not zero. The
axis estimate is the unit direction minimizing the sample variance of
that dot product, i.e. the smallest eigenvector of the frame-sample
covariance; the verdict compares the worst-case deviation from the mean
cosine against a tolerance and rejects axes that are perpendicular to
the cone (a constant right angle is excluded by definition).

The focal verification builds the focal curve and checks that the slant
index migrates to its mirrored position, including that both curves
share one axis. Several indices share one Frenet pass per curve and one
focal curve. Each k's fit reads only its own frame vector and the
covariance accumulation order is fixed, so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import Curve
from .frenet import _as_int, _check_tol, _report_dict, frenet_grid
from .focal import END_TRIM, _sampled_focal_curve, focal_curvatures
from .linalg import as_vector
from .numdiff import grid_derivative

PERPENDICULAR_GUARD = 1e-3
AXIS_ANGLE_TOL = 1e-3
ANALYTIC_TOL = 1e-6
SAMPLED_TOL = 1e-4
_NULLSPACE_TIE = 1e-10


def default_slant_tol(curve: Curve) -> float:
    """Deviation tolerance matched to the derivative-noise floor of the oracle."""
    return ANALYTIC_TOL if curve.kind == "analytic" else SAMPLED_TOL


@dataclass(frozen=True)
class AxisFit:
    """Constant-angle axis estimate over unit-vector samples.

    ``degenerate`` flags a covariance with a multi-dimensional near-null
    space; the axis is then the projection of the sample mean onto that
    space (every direction in it minimizes the variance equally, so the
    mean breaks the tie), falling back to the first eigenvector returned by
    LAPACK (``np.linalg.eigh``) when the mean carries no information either.
    The sign follows :func:`estimate_axis`: mean cosine nonnegative, or the
    largest-magnitude component positive when ``|cos_theta| <=
    PERPENDICULAR_GUARD``, so ``cos_theta`` can be negative (down to
    ``-PERPENDICULAR_GUARD``) only in that band.
    """

    axis: np.ndarray
    cos_theta: float
    deviation: float
    degenerate: bool


def estimate_axis(samples) -> AxisFit:
    """Fit the direction whose angle to the samples varies least.

    Samples must be unit vectors of one dimension, already sign-aligned
    along the grid. The axis sign makes the mean cosine nonnegative, except
    when the mean cosine is within ``PERPENDICULAR_GUARD`` of zero: then
    the axis's largest-magnitude component (the first one on ties) is made
    positive instead. In that band the sign comes from the axis, not from
    the data, so a perpendicular fit (whose mean cosine sign is roundoff)
    gets a reproducible axis, and the returned mean cosine can be as low as
    ``-PERPENDICULAR_GUARD``. Verdicts do not depend on the sign: the
    perpendicular exclusion and the axis comparison both use magnitudes.
    """
    X = np.asarray(samples, dtype=float)
    if X.ndim != 2 or X.shape[0] < 8:
        raise ValueError("need at least 8 unit-vector samples")
    norms = np.linalg.norm(X, axis=1)
    if not np.all(np.abs(norms - 1.0) <= 1e-6):
        raise ValueError("samples must be unit vectors")

    D = X - X.mean(axis=0)
    vals, vecs = np.linalg.eigh(D.T @ D / X.shape[0])
    degenerate = bool(vals.size > 1 and vals[1] - vals[0] <= _NULLSPACE_TIE)
    if degenerate:
        null = vecs[:, vals <= vals[0] + _NULLSPACE_TIE]
        proj = null @ (null.T @ X.mean(axis=0))
        norm = float(np.linalg.norm(proj))
        axis = proj / norm if norm > 1e-8 else vecs[:, 0]
    else:
        axis = vecs[:, 0]
    axis = axis / np.linalg.norm(axis)

    dots = X @ axis
    mean = dots.mean()
    if abs(mean) <= PERPENDICULAR_GUARD:
        flip = axis[np.argmax(np.abs(axis))] < 0.0
    else:
        flip = mean < 0.0
    if flip:
        axis = -axis
        dots = -dots
    mean = float(dots.mean())
    deviation = float(np.max(np.abs(dots - mean)))
    return AxisFit(axis, mean, deviation, degenerate)


@dataclass(frozen=True)
class SlantReport:
    """Verdict for one slant index k."""

    k: int
    axis: np.ndarray
    cos_theta: float
    deviation: float
    is_slant: bool
    excluded_perpendicular: bool
    tolerance: float
    degenerate_axis: bool = False

    def to_dict(self) -> dict:
        return _report_dict(self)


def slant_reports(curve: Curve, ks, grid=None, tol: float | None = None) -> list[SlantReport]:
    """Slant verdicts for each index in ``ks`` from one Frenet pass over the grid.

    Each k must be an integer (Python or numpy) in [1, m + 1], and ``tol``
    positive and finite when given.
    """
    if grid is None:
        grid = curve.grid(256)
    if tol is None:
        tol = default_slant_tol(curve)
    _check_tol(tol)
    m, ks = curve.dimension - 1, list(ks)
    bad = [k for k in ks if not 1 <= _as_int(k, "k") <= m + 1]
    if bad:
        raise ValueError(f"k must lie in [1, {m + 1}], got {bad[0]}")
    frames = frenet_grid(curve, grid, order=m + 1)
    reports = []
    for k in ks:
        # contiguous samples, so the fit's BLAS calls see one memory layout
        fit = estimate_axis(np.ascontiguousarray(frames.frame[:, k - 1]))
        excluded = abs(fit.cos_theta) <= PERPENDICULAR_GUARD
        reports.append(SlantReport(int(k), fit.axis, fit.cos_theta, fit.deviation,
                                   bool(fit.deviation < tol and not excluded), bool(excluded),
                                   float(tol), fit.degenerate))
    return reports


def is_k_slant(curve: Curve, k: int, grid=None, tol: float | None = None) -> SlantReport:
    """Detect whether the k-th frame vector keeps a constant, non-right angle."""
    return slant_reports(curve, [k], grid, tol)[0]


@dataclass(frozen=True)
class ResidualTable:
    """Residuals of the fixed-direction coefficient system on a grid.

    Row i holds P_i(s). For an arclength-parametrized curve and any truly
    fixed direction these vanish identically; evaluated in another
    parametrization they vanish only when the coefficients are themselves
    constant and algebraically balanced, which is exactly the slant-axis
    situation, so the table doubles as an axis diagnostic.
    """

    s: np.ndarray
    residuals: np.ndarray  # (m+1, N)

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.residuals)))


def coefficient_residuals(curve: Curve, U, grid) -> ResidualTable:
    """Evaluate the coefficient-system residuals for direction ``U``.

    The direction is expanded over the moving frame; the residuals combine
    each coefficient's grid derivative with the curvature coupling of its
    neighbors. Differentiation is along the curve's own parameter, so feed
    a unit-speed curve when the exact identities are wanted. A zero
    direction raises ValueError.
    """
    ss = np.asarray(grid, dtype=float)
    m = curve.dimension - 1
    axis = as_vector(U, curve.dimension)
    norm = np.linalg.norm(axis)
    if norm == 0.0:
        raise ValueError("direction must be nonzero")
    axis = axis / norm
    data = frenet_grid(curve, ss, order=m + 1)
    a = data.frame @ axis     # (N, m+1)
    kappa = data.curvatures   # (N, m)
    # 7-point stencils: 6th order inside, and the one-sided end rows, where
    # the residual peaks, stay far below the 1e-6 acceptance figure.
    da = grid_derivative(a, ss, window=7)

    P = np.empty((m + 1, ss.size))
    P[0] = da[:, 0] - kappa[:, 0] * a[:, 1]
    for i in range(2, m + 1):
        P[i - 1] = da[:, i - 1] + kappa[:, i - 2] * a[:, i - 2] - kappa[:, i - 1] * a[:, i]
    P[m] = da[:, m] + kappa[:, m - 1] * a[:, m - 1]
    return ResidualTable(ss, P)


def theorem_target_index(k: int, m: int) -> int:
    """Slant index of the focal curve given slant index k of the base curve.

    The tangent cone moves to the last frame vector, the last frame vector
    moves to the tangent, and every interior index k reflects to m - k + 2:
    all three are the one reflection k -> m - k + 2, an involution on
    1..m+1. The interior reflection is often stated only for the open range
    2 < k < m, but it holds on the closed range 2 <= k <= m, which is what
    is implemented; reports carry a note when k lands on the boundary.
    Raises ValueError unless k is a Python or numpy integer in [1, m + 1].
    """
    if not 1 <= _as_int(k, "k") <= m + 1:
        raise ValueError(f"k must lie in [1, {m + 1}], got {k}")
    return m - k + 2


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of one focal slant verification.

    ``focal`` is None when the base curve already failed its slant test:
    the statement's premise does not hold, so there is nothing to mirror.
    """

    m: int
    k: int
    k_prime: int
    base: SlantReport
    focal: SlantReport | None
    axis_angle: float
    passed: bool
    note: str = ""

    def to_dict(self) -> dict:
        return _report_dict(self)


def verify_focal_slants(curve: Curve, ks, grid=None,
                        tol: float | None = None) -> list[TheoremReport]:
    """For each k in ``ks``, check that a k-slant curve has an (m-k+2)-slant focal curve.

    The base verdicts run on one Frenet pass over the curve as given. When
    any is slant, the focal curve is built once, from the focal table of
    the curve as given on the same grid, which reads that same pass, and
    its verdicts run on an interior sub-grid (``END_TRIM`` points trimmed
    per end) that keeps one-sided stencil noise out of the cone
    statistics. Axis agreement is the angle between the two axes modulo
    sign. ``tol``, when given, is the tolerance of both the base and the
    focal verdicts and must be positive and finite; when None, each side
    takes its kind's default from :func:`default_slant_tol`, so the
    sampled focal curve reads ``SAMPLED_TOL``. Above E5 a slant base verdict raises
    :class:`OrderUnsupported`: the sampled focal curve has no derivatives
    past order 5, and its verdicts need order m + 1.
    """
    if grid is None:
        grid = curve.grid(256)
    grid = np.asarray(grid, dtype=float)
    m, ks = curve.dimension - 1, list(ks)
    k_primes = [theorem_target_index(k, m) for k in ks]
    bases = slant_reports(curve, ks, grid, tol)
    mirrored = [kp for kp, base in zip(k_primes, bases) if base.is_slant]
    if mirrored:
        mirror = _sampled_focal_curve(curve, focal_curvatures(curve, grid))
        inner = mirror.grid(grid.size)[END_TRIM:-END_TRIM]
        focal_reports = iter(slant_reports(mirror, mirrored, inner, tol))

    reports = []
    for k, k_prime, base in zip(ks, k_primes, bases):
        if not base.is_slant:
            reports.append(TheoremReport(m, int(k), int(k_prime), base, None, float("nan"),
                                         False, note="base curve is not k-slant; premise fails"))
            continue
        focal_report = next(focal_reports)
        cosang = abs(float(base.axis @ focal_report.axis))
        axis_angle = float(np.arccos(min(1.0, cosang)))
        passed = bool(focal_report.is_slant and axis_angle < AXIS_ANGLE_TOL)
        note = ""
        if 2 <= k <= m and (k == 2 or k == m):
            note = ("interior index reflection applied at a boundary index (k=2 or "
                    "k=m): the closed range is implemented, the open range is the "
                    "commonly stated one")
        reports.append(TheoremReport(m, int(k), int(k_prime), base, focal_report,
                                     axis_angle, passed, note))
    return reports


def verify_focal_slant(curve: Curve, k: int, grid=None,
                       tol: float | None = None) -> TheoremReport:
    """The one-index case of :func:`verify_focal_slants`."""
    return verify_focal_slants(curve, [k], grid, tol)[0]
