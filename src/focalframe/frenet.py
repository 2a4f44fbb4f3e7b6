"""Frenet apparatus: moving frames, curvature profiles, classification.

The frame at a point comes from orthogonalizing the derivative stack
without normalization; the curvature functions are quotients of the
resulting norms, so they are positive by construction and invariant
under reparametrization. A grid is processed in one pass: one array call
to the derivative oracle, one stacked Gram-Schmidt over all rows, and
array arithmetic for frames, curvatures and the sign alignment, which
keeps downstream axis estimation free of spurious frame flips. The pass
gives one read-only :class:`FrenetData` table: row 0 of the stack as the
positions, and rows of reduced order flagged, with NaN frames and
curvatures. :func:`curvature_table` returns it as it is and
:func:`frenet_grid` raises on its first flagged row; a single point is
the one-row case. A curve keeps its last pass, derivative stack
included, so public calls on the same grid and order share one table,
the osculating-center oracle can solve every row of a full-order pass at
once, and the pass keeps the focal table and the center table computed
from it, so a repeated read of either is a lookup. A new pass drops
both.
"""

from __future__ import annotations

import functools
import math
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
        # gives the Python scalars of ``_row``; another array's rows are its
        # iteration. No field is itself a table.
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
    ``curvatures`` is (N, d-1). ``reduced_order`` is 0 on a row of full
    osculating order, else the index of its first derivative that is
    dependent on the lower ones. Such a flagged row keeps its point, has
    NaN frame vectors and curvatures, and a NaN speed where the first
    derivative itself vanishes; the frames are then sign-aligned within
    each run of unflagged rows, whose first row keeps its own sign.
    """

    s: np.ndarray
    point: np.ndarray
    speed: np.ndarray
    frame: np.ndarray
    curvatures: np.ndarray
    reduced_order: np.ndarray

    @property
    def osculating_order(self) -> int:
        return self.frame.shape[-2]

    @property
    def ok(self):
        return self.reduced_order == 0


def _alignment_signs(frames: np.ndarray) -> np.ndarray:
    """Signs that make each frame vector agree with its aligned predecessor.

    A vector is flipped when its dot with the predecessor, as already
    aligned, is negative. Flipping a row negates its dot with the next
    row, so the sign of a row is the running product of the signs of the
    raw dots since the last dot that is exactly zero or undefined (NaN, as
    next to a flagged row's NaN frame), where it restarts at +1.
    """
    dots = np.einsum("rid,rid->ri", frames[1:], frames[:-1])
    step = np.where(dots < 0.0, -1.0, 1.0)
    run = np.cumprod(np.concatenate([np.ones((1, dots.shape[1])), step]), axis=0)
    resets = (dots == 0.0) | np.isnan(dots)
    rows = np.arange(frames.shape[0])[:, None]
    zero = np.concatenate([np.zeros((1, dots.shape[1]), bool), resets])
    restart = np.maximum.accumulate(np.where(zero, rows, 0), axis=0)
    return run * np.take_along_axis(run, restart, axis=0)


def _as_int(value, name: str) -> int:
    """``value`` as an int; ValueError unless it is a Python or numpy
    integer, and on a bool, which is an int to Python but no count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


class _KeptPass:
    """A curve's last grid pass: its key ``(order, grid shape, grid bytes)``,
    its table and the read-only derivative stack it evaluated.

    Two slots are None until a reader of the pass fills them, each in one
    assignment of a complete value. ``focal`` is the read-only
    :class:`focal.FocalData` that :func:`focal.focal_curvatures` computes
    from ``table``. ``centers`` is the center table that
    :func:`focal.osculating_center_oracle` builds from ``derivs`` alone: a
    dict from the float64 bits, as 8 bytes, of each grid parameter whose
    system solves to that row's read-only center.
    """

    __slots__ = ("key", "table", "derivs", "focal", "centers")

    def __init__(self, key: tuple, table: FrenetData, derivs: np.ndarray):
        self.key, self.table, self.derivs = key, table, derivs
        self.focal = self.centers = None


def _frenet_pass(curve: Curve, grid, order: int | None) -> FrenetData:
    """One oracle call and one stacked Gram-Schmidt over a grid.

    The curve keeps its last pass, with the derivative stack it evaluated:
    a call with the same order and a grid of the same float64 bytes (so
    ``-0.0`` and ``0.0`` differ) returns it instead of evaluating again, and
    the osculating-center oracle builds its center table from its stack.
    Every array of a pass is read-only, because every later caller shares
    it. A new pass starts with no focal table and no center table.
    """
    d = curve.dimension if order is None else _as_int(order, "order")
    if not 2 <= d <= curve.dimension:
        raise ValueError(f"order must lie in [2, {curve.dimension}], got {d}")
    ss = np.array(grid, dtype=float)
    key = _pass_key(d, ss)
    last = curve._frenet_memo[0]
    if last is not None and last.key == key:
        return last.table
    derivs = eval_derivatives(curve, ss, d)
    orth, norms, reduced = gram_schmidt_rows(derivs[:, 1:])
    # A flagged row may divide by a zero norm; its values are replaced by NaN.
    with np.errstate(divide="ignore", invalid="ignore"):
        curvatures = norms[:, 1:] / (norms[:, :-1] * norms[:, :1])
        frames = orth / norms[:, :, None]
    flagged = reduced != 0
    if flagged.any():
        curvatures[flagged] = np.nan
        frames[flagged] = np.nan
    frames *= _alignment_signs(frames)[:, :, None]
    speed = np.where(reduced == 1, np.nan, norms[:, 0])
    for a in (ss, derivs, speed, frames, curvatures, reduced):
        a.setflags(write=False)
    table = FrenetData(ss, derivs[:, 0], speed, frames, curvatures, reduced)
    # One store of a whole entry: threads that miss together compute equal
    # passes, and a reader never sees a key paired with another grid's pass.
    curve._frenet_memo[0] = _KeptPass(key, table, derivs)
    return table


def _pass_key(order: int, ss: np.ndarray) -> tuple:
    """The key of a pass at ``order`` over the float64 grid ``ss``."""
    return (order, ss.shape, ss.tobytes())


def frenet_grid(curve: Curve, grid, order: int | None = None) -> FrenetData:
    """Sign-aligned Frenet data over a parameter grid, every row of full order.

    Osculating order ``order``, a Python or numpy integer, defaults to the
    ambient dimension (a generic curve). Raises ReducedOrder with the
    failing derivative index and parameter of the first grid row whose
    derivatives stop being linearly independent. Otherwise returns the
    table of :func:`curvature_table`.
    """
    table = _frenet_pass(curve, grid, order)
    bad = np.flatnonzero(table.reduced_order)
    if bad.size:
        raise ReducedOrder(int(table.reduced_order[bad[0]]), float(table.s[bad[0]]))
    return table


def frenet_apparatus(curve: Curve, s: float, order: int | None = None) -> FrenetData:
    """Frenet data of ``curve`` at ``s``: the one-row case of :func:`frenet_grid`."""
    return frenet_grid(curve, [s], order)[0]


def curvature_table(curve: Curve, grid, order: int | None = None) -> FrenetData:
    """Frenet data over a grid from one pass, rows of reduced order flagged, not dropped.

    The arrays are read-only: the table is the curve's last grid pass,
    shared with every later call on the same grid and order.
    """
    return _frenet_pass(curve, grid, order)


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
    return classify_curvatures(frenet_grid(curve, grid).curvatures, tol)


def _check_tol(tol: float) -> None:
    """Raise ValueError unless 0 < ``tol`` < inf (so NaN fails too)."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


def classify_curvatures(curvatures, tol: float = DEFAULT_CLASSIFY_TOL) -> Classification:
    """Constant-curvature and constant-ratio verdicts on (N, d-1) curvature rows.

    The rows pass the constant-curvature test when every curvature's
    relative spread stays below ``tol``, which must be positive and finite;
    they pass the constant-ratio test when every consecutive curvature
    ratio does. Raises ValueError unless there is at least one row and one
    curvature, and on a NaN or infinite curvature, which would give a
    verdict on no data; pass only the rows a table marks ``ok``.
    """
    _check_tol(tol)
    K = np.asarray(curvatures, dtype=float)
    if K.ndim != 2 or not K.size:
        raise ValueError(f"expected a nonempty (N, d-1) array of curvatures, got shape {K.shape}")
    if not np.all(np.isfinite(K)):
        raise ValueError("curvatures have non-finite entries")
    means = K.mean(axis=0)
    if np.any(np.abs(means) < 1e-12):
        raise DivisionGuard("a curvature mean is below 1e-12; ratios are meaningless")
    spreads = (K.max(axis=0) - K.min(axis=0)) / np.abs(means)
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
