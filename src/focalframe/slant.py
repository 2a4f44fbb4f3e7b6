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
share one axis. Detections for different k are independent and the
covariance accumulation order is fixed, so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import Curve, as_unit_speed
from .frenet import frenet_grid
from .focal import focal_curve
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
    if np.max(np.abs(norms - 1.0)) > 1e-6:
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
        return {
            "k": self.k,
            "axis": list(self.axis),
            "cos_theta": self.cos_theta,
            "deviation": self.deviation,
            "is_slant": self.is_slant,
            "excluded_perpendicular": self.excluded_perpendicular,
            "tolerance": self.tolerance,
            "degenerate_axis": self.degenerate_axis,
        }


def frame_vector_samples(curve: Curve, k: int, grid) -> np.ndarray:
    """Sign-aligned samples of the k-th frame vector (k=1 is the tangent)."""
    m = curve.dimension - 1
    if not 1 <= k <= m + 1:
        raise ValueError(f"k must lie in [1, {m + 1}], got {k}")
    data = frenet_grid(curve, grid, order=m + 1)
    return np.array([fd.frame[k - 1] for fd in data])


def is_k_slant(curve: Curve, k: int, grid=None, tol: float | None = None) -> SlantReport:
    """Detect whether the k-th frame vector keeps a constant, non-right angle."""
    if grid is None:
        grid = curve.grid(256)
    if tol is None:
        tol = default_slant_tol(curve)
    fit = estimate_axis(frame_vector_samples(curve, k, grid))
    excluded = abs(fit.cos_theta) <= PERPENDICULAR_GUARD
    return SlantReport(
        k=int(k),
        axis=fit.axis,
        cos_theta=fit.cos_theta,
        deviation=fit.deviation,
        is_slant=bool(fit.deviation < tol and not excluded),
        excluded_perpendicular=bool(excluded),
        tolerance=float(tol),
        degenerate_axis=fit.degenerate,
    )


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
    a unit-speed curve when the exact identities are wanted.
    """
    ss = np.asarray(grid, dtype=float)
    m = curve.dimension - 1
    axis = as_vector(U, curve.dimension)
    axis = axis / np.linalg.norm(axis)
    data = frenet_grid(curve, ss, order=m + 1)
    a = np.array([fd.frame @ axis for fd in data])        # (N, m+1)
    kappa = np.array([fd.curvatures for fd in data])      # (N, m)
    da = grid_derivative(a, ss)

    P = np.empty((m + 1, ss.size))
    P[0] = da[:, 0] - kappa[:, 0] * a[:, 1]
    for i in range(2, m + 1):
        P[i - 1] = da[:, i - 1] + kappa[:, i - 2] * a[:, i - 2] - kappa[:, i - 1] * a[:, i]
    P[m] = da[:, m] + kappa[:, m - 1] * a[:, m - 1]
    return ResidualTable(ss, P)


def theorem_target_index(k: int, m: int) -> int:
    """Slant index of the focal curve given slant index k of the base curve.

    The tangent cone moves to the last frame vector, the last frame vector
    moves to the tangent, and every interior index k reflects to m - k + 2.
    The interior map is an involution on 2..m. The reflection is often
    stated only for the open range 2 < k < m, but it holds on the closed
    range 2 <= k <= m, which is what is implemented; reports carry a note
    when k lands on the boundary.
    """
    if not 1 <= k <= m + 1:
        raise ValueError(f"k must lie in [1, {m + 1}], got {k}")
    if k == 1:
        return m + 1
    if k == m + 1:
        return 1
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
        return {
            "m": self.m,
            "k": self.k,
            "k_prime": self.k_prime,
            "base": self.base.to_dict(),
            "focal": self.focal.to_dict() if self.focal is not None else None,
            "axis_angle": self.axis_angle,
            "passed": self.passed,
            "note": self.note,
        }


def verify_focal_slant(
    curve: Curve,
    k: int,
    grid=None,
    tol: float | None = None,
    focal_tol: float | None = None,
) -> TheoremReport:
    """Check that a k-slant curve has an (m-k+2)-slant focal curve, same axis.

    The base verdict runs on the curve as given. The focal construction
    needs an arclength parametrization, so the curve is reparametrized
    when its speed is not 1, and the focal verdict runs on an interior
    sub-grid (three points trimmed per end) to keep one-sided stencil
    noise out of the cone statistics. Axis agreement is the angle between
    the two estimated axes modulo sign.
    """
    if grid is None:
        grid = curve.grid(256)
    grid = np.asarray(grid, dtype=float)
    m = curve.dimension - 1
    k_prime = theorem_target_index(k, m)
    base = is_k_slant(curve, k, grid, tol)
    if not base.is_slant:
        return TheoremReport(m, int(k), int(k_prime), base, None, float("nan"), False,
                             note="base curve is not k-slant; premise fails")

    unit = as_unit_speed(curve)
    ugrid = grid if unit is curve else unit.grid(grid.size)
    mirror = focal_curve(unit, ugrid)
    inner = np.asarray(mirror.grid(grid.size))
    trim = 3
    inner = inner[trim:-trim]
    focal_report = is_k_slant(mirror, k_prime, inner,
                              SAMPLED_TOL if focal_tol is None else focal_tol)

    cosang = abs(float(base.axis @ focal_report.axis))
    axis_angle = float(np.arccos(min(1.0, cosang)))
    passed = bool(base.is_slant and focal_report.is_slant and axis_angle < AXIS_ANGLE_TOL)
    note = ""
    if 2 <= k <= m and (k == 2 or k == m):
        note = ("interior index reflection applied at a boundary index (k=2 or "
                "k=m): the closed range is implemented, the open range is the "
                "commonly stated one")
    return TheoremReport(m, int(k), int(k_prime), base, focal_report, axis_angle, passed, note)
