"""Frenet apparatus: moving frames, curvature profiles, classification.

The frame at a point comes from orthogonalizing the derivative stack
without normalization; the curvature functions are quotients of the
resulting norms, so they are positive by construction and invariant
under reparametrization. A grid is processed in one pass: one array call
to the derivative oracle, one stacked Gram-Schmidt over all rows, and
array arithmetic for frames, curvatures and the sign alignment, which
keeps downstream axis estimation free of spurious frame flips. Row 0 of
the stack is kept as the positions. A single point is the one-row case
of the same array-backed :class:`FrenetData`. A curve keeps its last
pass, so public calls on the same grid and order share one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .curves import Curve, eval_derivatives
from .errors import DivisionGuard, ReducedOrder
from .linalg import gram_schmidt_rows

DEFAULT_CLASSIFY_TOL = 1e-6


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _row(value, index):
    out = value[index]
    return out.item() if isinstance(out, np.generic) else out


class RowTable:
    """Sequence access for a dataclass whose fields share a leading row axis.

    An integer index gives one row, with Python scalars for numbers; a
    slice or an index array gives the table of those rows.
    """

    def __len__(self) -> int:
        return len(self.s)

    def __getitem__(self, index):
        cls = type(self)
        return cls(*[_row(getattr(self, name), index) for name in _field_names(cls)])

    def __iter__(self):
        # Column by column: a 1-d field's rows are its ``tolist()``, which
        # gives the Python scalars of ``_row``; other arrays and nested
        # tables give their rows by their own iteration.
        cls = type(self)
        columns = []
        for name in _field_names(cls):
            value = getattr(self, name)
            columns.append(value.tolist() if isinstance(value, np.ndarray) and value.ndim == 1
                           else list(value))
        return map(cls, *columns)


def _report_dict(value):
    """JSON-ready form of a report: a dataclass becomes a dict of its fields,
    arrays and numpy scalars become lists and Python numbers, the rest stays."""
    if is_dataclass(value):
        return {f.name: _report_dict(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return value


@dataclass(frozen=True)
class FrenetData(RowTable):
    """Positions, frames, curvatures and speed of a curve over N grid rows.

    ``s`` and ``speed`` are (N,); ``point`` is (N, dim); ``frame``
    (N, d, dim) holds the unit tangent and then the unit normals;
    ``curvatures`` is (N, d-1).
    """

    s: np.ndarray
    point: np.ndarray
    speed: np.ndarray
    frame: np.ndarray
    curvatures: np.ndarray

    @property
    def osculating_order(self) -> int:
        return self.frame.shape[-2]


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


@dataclass(frozen=True)
class CurvatureTable:
    """Positions, curvatures and speed per grid row; degenerate rows flagged, not dropped."""

    s: np.ndarray
    point: np.ndarray  # (N, dim), on every row
    curvatures: np.ndarray  # (N, d-1), NaN on flagged rows
    speed: np.ndarray  # NaN where the first derivative itself vanishes
    reduced_order: np.ndarray  # 0 where fine, else the failing derivative index

    @property
    def ok(self) -> np.ndarray:
        return self.reduced_order == 0


@dataclass(eq=False)
class _FrenetPass:
    """One grid pass: the curvature table, the unnormalized orthogonal flags
    and their norms, and the Frenet data once :func:`frenet_grid` builds it."""

    table: CurvatureTable
    orth: np.ndarray
    norms: np.ndarray
    frenet: FrenetData | None = None


def _frenet_pass(curve: Curve, grid, order: int | None) -> _FrenetPass:
    """One oracle call and one stacked Gram-Schmidt over a grid.

    The curve keeps its last pass: a call with the same order and a grid of
    the same float64 bytes (so ``-0.0`` and ``0.0`` differ) returns it
    instead of evaluating again. Every array of a pass is read-only,
    because every later caller shares it.
    """
    d = curve.dimension if order is None else int(order)
    if not 2 <= d <= curve.dimension:
        raise ValueError(f"order must lie in [2, {curve.dimension}], got {d}")
    ss = np.array(grid, dtype=float)
    key = (d, ss.shape, ss.tobytes())
    memo = curve._frenet_memo
    last = memo[0]
    if last is not None and last[0] == key:
        return last[1]
    derivs = eval_derivatives(curve, ss, d)
    orth, norms, reduced = gram_schmidt_rows(derivs[:, 1:])
    ok = reduced == 0
    curvatures = np.full((ss.size, d - 1), np.nan)
    curvatures[ok] = norms[ok, 1:] / (norms[ok, :-1] * norms[ok, :1])
    speed = np.where(ok | (reduced > 1), norms[:, 0], np.nan)
    table = CurvatureTable(ss, derivs[:, 0].copy(), curvatures, speed, reduced)
    for a in (ss, table.point, curvatures, speed, reduced, orth, norms):
        a.setflags(write=False)
    result = _FrenetPass(table, orth, norms)
    # One store of a whole entry: threads that miss together compute equal
    # passes, and a reader never sees a key paired with another grid's pass.
    memo[0] = (key, result)
    return result


def _require_full_order(table: CurvatureTable) -> None:
    bad = np.flatnonzero(table.reduced_order)
    if bad.size:
        raise ReducedOrder(int(table.reduced_order[bad[0]]), float(table.s[bad[0]]))


def frenet_grid(curve: Curve, grid, order: int | None = None) -> FrenetData:
    """Sign-aligned Frenet data over a parameter grid.

    Osculating order ``order`` defaults to the ambient dimension (a generic
    curve). Raises ReducedOrder with the failing derivative index and
    parameter of the first grid row whose derivatives stop being linearly
    independent. The result is kept with the curve's last grid pass, so a
    repeated call returns the same read-only arrays.
    """
    grid_pass = _frenet_pass(curve, grid, order)
    if grid_pass.frenet is None:
        table = grid_pass.table
        _require_full_order(table)
        frames = grid_pass.orth / grid_pass.norms[:, :, None]
        frames *= _alignment_signs(frames)[:, :, None]
        frames.setflags(write=False)
        grid_pass.frenet = FrenetData(table.s, table.point, table.speed, frames,
                                      table.curvatures)
    return grid_pass.frenet


def frenet_apparatus(curve: Curve, s: float, order: int | None = None) -> FrenetData:
    """Frenet data of ``curve`` at ``s``: the one-row case of :func:`frenet_grid`."""
    return frenet_grid(curve, [s], order)[0]


def curvature_table(curve: Curve, grid, order: int | None = None) -> CurvatureTable:
    """Positions, curvatures and speed over a grid from one pass, degenerate rows flagged.

    The arrays are read-only: the table is shared with the curve's last grid pass.
    """
    return _frenet_pass(curve, grid, order).table


@dataclass(frozen=True)
class Classification:
    is_w_curve: bool
    is_ccr: bool
    ratios: np.ndarray  # mean kappa_{i+1}/kappa_i over the grid
    spreads: np.ndarray  # relative (max-min) spread per curvature


def classify(curve: Curve, grid=None, tol: float = DEFAULT_CLASSIFY_TOL) -> Classification:
    """:func:`classify_curvatures` on a grid; raises ReducedOrder on a degenerate row."""
    if grid is None:
        grid = curve.grid(64)
    grid = np.asarray(grid, dtype=float)
    if grid.size < 8:
        raise ValueError("classification grid needs at least 8 points")
    table = curvature_table(curve, grid)
    _require_full_order(table)
    return classify_curvatures(table.curvatures, tol)


def classify_curvatures(curvatures, tol: float = DEFAULT_CLASSIFY_TOL) -> Classification:
    """Constant-curvature and constant-ratio verdicts on (N, d-1) curvature rows.

    The rows pass the constant-curvature test when every curvature's
    relative spread stays below ``tol``; they pass the constant-ratio test
    when every consecutive curvature ratio does.
    """
    K = np.asarray(curvatures, dtype=float)
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
