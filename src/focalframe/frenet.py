"""Frenet apparatus: moving frames, curvature profiles, classification.

The frame at a point comes from orthogonalizing the derivative stack
without normalization; the curvature functions are quotients of the
resulting norms, so they are positive by construction and invariant
under reparametrization. A grid is processed in one pass: one array call
to the derivative oracle, one stacked Gram-Schmidt over all rows, and
array arithmetic for frames, curvatures and the sign alignment, which
keeps downstream axis estimation free of spurious frame flips. A single
point is the one-row case of the same pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import Curve, eval_derivatives
from .errors import DivisionGuard, ReducedOrder
from .linalg import gram_schmidt_rows

DEFAULT_CLASSIFY_TOL = 1e-6


@dataclass(frozen=True)
class FrenetData:
    """Frame, curvatures and speed of a curve at one parameter value.

    ``frame`` rows are the unit tangent followed by the unit normals;
    ``curvatures`` has one entry fewer than the frame has rows.
    """

    s: float
    speed: float
    frame: np.ndarray
    curvatures: np.ndarray
    osculating_order: int


def _osculating_order(curve: Curve, order: int | None) -> int:
    d = curve.dimension if order is None else int(order)
    if not 2 <= d <= curve.dimension:
        raise ValueError(f"order must lie in [2, {curve.dimension}], got {d}")
    return d


def _alignment_signs(frames: np.ndarray) -> np.ndarray:
    """Signs that make each frame vector agree with its aligned predecessor.

    A vector is flipped when its dot with the predecessor, as already
    aligned, is negative. Flipping a row negates its dot with the next
    row, so the sign of a row is the running product of the signs of the
    raw dots since the last exact zero dot, where it restarts at +1.
    """
    dots = np.einsum("rid,rid->ri", frames[1:], frames[:-1])
    step = np.where(dots < 0.0, -1.0, 1.0)
    run = np.cumprod(np.concatenate([np.ones((1, dots.shape[1])), step]), axis=0)
    rows = np.arange(frames.shape[0])[:, None]
    zero = np.concatenate([np.zeros((1, dots.shape[1]), bool), dots == 0.0])
    restart = np.maximum.accumulate(np.where(zero, rows, 0), axis=0)
    return run * np.take_along_axis(run, restart, axis=0)


def frenet_grid(
    curve: Curve,
    grid,
    order: int | None = None,
    align: bool = True,
) -> list[FrenetData]:
    """Frenet data over a parameter grid, sign-aligned by default.

    Osculating order ``order`` defaults to the ambient dimension (a generic
    curve). Raises ReducedOrder with the failing derivative index and
    parameter of the first grid row whose derivatives stop being linearly
    independent.
    """
    d = _osculating_order(curve, order)
    ss = np.asarray(grid, dtype=float)
    if ss.size == 0:
        return []
    orth, norms, failed = gram_schmidt_rows(eval_derivatives(curve, ss, d)[:, 1:])
    bad = np.flatnonzero(failed)
    if bad.size:
        raise ReducedOrder(int(failed[bad[0]]), float(ss[bad[0]]))
    frames = orth / norms[:, :, None]
    if align:
        frames *= _alignment_signs(frames)[:, :, None]
    curvatures = norms[:, 1:] / (norms[:, :-1] * norms[:, :1])
    frames.setflags(write=False)
    curvatures.setflags(write=False)
    return [FrenetData(s, v, F, K, d)
            for s, v, F, K in zip(ss.tolist(), norms[:, 0].tolist(), frames, curvatures)]


def frenet_apparatus(curve: Curve, s: float, order: int | None = None) -> FrenetData:
    """Frenet data of ``curve`` at ``s``: the one-row case of :func:`frenet_grid`."""
    return frenet_grid(curve, [s], order)[0]


@dataclass(frozen=True)
class CurvatureTable:
    """Curvatures and speed per grid row; degenerate rows flagged, not dropped."""

    s: np.ndarray
    curvatures: np.ndarray  # (N, d-1), NaN on flagged rows
    speed: np.ndarray  # NaN where the first derivative itself vanishes
    reduced_order: np.ndarray  # 0 where fine, else the failing derivative index

    @property
    def ok(self) -> np.ndarray:
        return self.reduced_order == 0


def curvature_table(curve: Curve, grid, order: int | None = None) -> CurvatureTable:
    """Curvatures and speed over a grid from one pass, degenerate rows flagged."""
    d = _osculating_order(curve, order)
    ss = np.asarray(grid, dtype=float)
    _, norms, reduced = gram_schmidt_rows(eval_derivatives(curve, ss, d)[:, 1:])
    ok = reduced == 0
    kappas = np.full((ss.size, d - 1), np.nan)
    kappas[ok] = norms[ok, 1:] / (norms[ok, :-1] * norms[ok, :1])
    speed = np.where(ok | (reduced > 1), norms[:, 0], np.nan)
    return CurvatureTable(ss, kappas, speed, reduced)


@dataclass(frozen=True)
class Classification:
    is_w_curve: bool
    is_ccr: bool
    ratios: np.ndarray  # mean kappa_{i+1}/kappa_i over the grid
    spreads: np.ndarray  # relative (max-min) spread per curvature


def classify(curve: Curve, grid=None, tol: float = DEFAULT_CLASSIFY_TOL) -> Classification:
    """Constant-curvature and constant-ratio verdicts on a grid.

    A curve passes the constant-curvature test when every curvature's
    relative spread stays below ``tol``; it passes the constant-ratio test
    when every consecutive curvature ratio does.
    """
    if grid is None:
        grid = curve.grid(64)
    grid = np.asarray(grid, dtype=float)
    if grid.size < 8:
        raise ValueError("classification grid needs at least 8 points")
    table = curvature_table(curve, grid)
    bad = np.flatnonzero(~table.ok)
    if bad.size:
        raise ReducedOrder(int(table.reduced_order[bad[0]]), float(grid[bad[0]]))

    K = table.curvatures
    means = K.mean(axis=0)
    if np.any(np.abs(means) < 1e-12):
        raise DivisionGuard("a curvature mean is below 1e-12; ratios are meaningless")
    spreads = (K.max(axis=0) - K.min(axis=0)) / means
    is_w = bool(np.all(spreads < tol))

    if K.shape[1] >= 2:
        R = K[:, 1:] / K[:, :-1]
        r_means = R.mean(axis=0)
        r_spread = (R.max(axis=0) - R.min(axis=0)) / np.abs(r_means)
        is_ccr = bool(np.all(r_spread < tol))
        ratios = r_means
    else:
        is_ccr = is_w
        ratios = np.empty(0)
    return Classification(is_w, is_ccr, ratios, spreads)
