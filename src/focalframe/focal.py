"""Focal curves: centers of osculating hyperspheres and their geometry.

Two independent routes to the same point are kept deliberately separate.
The production route runs the scalar recursion for the focal curvatures
(c1 = 1/kappa1, then each next coefficient from the grid derivative of
the previous one), assembles the focal point in the moving frame, and
tracks the speed, sign and radius data alongside. The oracle route poses
the osculating-center conditions on the squared-distance family directly:
its first m+1 parameter derivatives vanish at the center, which is a
plain linear system in the center coordinates. Tests and the acceptance
gate hold the two routes against each other; neither may be rewired to
call the other. The oracle solves the center systems of a whole stack
at once, and a single point is the one-row stack: the first call at a
row of a focal table solves every row of the Frenet pass that the curve
keeps, from that pass's derivative stack alone (nothing of its frames or
curvatures, nor of the recursion), and keeps the solved rows' centers
with the pass in one dict, where a later call at one of them is one
lookup. Each center has the bits of a fresh one-point call.
The focal curve and the frame-relation check both read the one
:class:`FocalData` table that a grid's recursion produces.

Every route works in the curve's own parameter t, whatever its speed. The
centers depend on the trace alone, and the recursion differentiates along
arclength by d/ds = |gamma'|^-1 d/dt (Uribe-Vargas, Bull. Braz. Math. Soc.
36, 2005), dividing each grid derivative by the speed of the curve's
Frenet pass, so no arclength curve is built.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .curves import Curve, eval_derivatives, sampled_curve
from .errors import RegularityFailure
from .frenet import RowTable, _alignment_signs, _KeptPass, _report_dict, frenet_grid
from .linalg import solve_linear
from .numdiff import grid_stencils

VERTEX_TOL = 1e-10
MIN_GRID = 64
# Rows of a sampled focal curve left out at each end of a comparison: its
# one-sided difference stencils there are its least accurate data.
END_TRIM = 3
# The float64 bits of a real scalar, as 8 bytes: the key of a center-table row.
_FLOAT64 = struct.Struct("d").pack


@dataclass(frozen=True)
class FocalData(RowTable):
    """Focal quantities of a generic curve over grid rows.

    ``s`` holds the rows' values of the curve's own parameter.
    ``focal_curvatures`` are the frame coefficients of the focal point;
    ``A`` is the focal curve's speed per unit arclength of the base curve,
    ``epsilon`` the sign of its signed version (0 exactly at a vertex),
    ``deltas`` the per-normal signs that govern how the focal frame maps
    back onto the base frame, ``R_m`` the osculating hypersphere radius.
    Each field has a leading row axis; one row drops it. The base curve's
    frames and curvatures are not among the fields: they are
    ``frenet_grid(curve, table.s)``, a lookup while the curve keeps the
    pass the table read (else computed again, bit for bit).
    """

    s: np.ndarray
    focal_curvatures: np.ndarray
    focal_point: np.ndarray
    A: np.ndarray
    epsilon: np.ndarray
    deltas: np.ndarray
    R_m: np.ndarray

    @property
    def is_vertex(self):
        return self.A < VERTEX_TOL


def focal_curvatures(curve: Curve, grid) -> FocalData:
    """Focal curvatures, focal points and sign data over a uniform grid.

    The curve may have any regular parametrization: each level's grid
    derivative is divided by the pass's speed, which turns d/dt into d/ds.
    The recursion needs the whole grid at once because each coefficient
    differentiates the previous one along it; every level applies the one
    stencil table of the grid (:func:`grid_stencils`), so the
    weights are computed once in any dimension. Vertex rows (focal speed
    below 1e-10) are flagged via ``is_vertex``, not dropped. A curve that
    is not generic on the grid raises :class:`ReducedOrder` from its
    Frenet pass. The arrays are read-only, like those of the pass.
    """
    frames = frenet_grid(curve, grid, order=curve.dimension)
    if len(frames) < MIN_GRID:
        raise ValueError(f"focal analysis needs at least {MIN_GRID} grid points, "
                         f"got {len(frames)}")

    ss, kappa, speed = frames.s, frames.curvatures, frames.speed  # kappa: (N, m)
    m = kappa.shape[1]
    c = np.zeros((ss.size, m + 1))  # column 0 holds the implicit c_0 = 0
    c[:, 1] = 1.0 / kappa[:, 0]
    idx, w = grid_stencils(ss)
    for i in range(1, m):
        dci = np.einsum("nw,nw->n", w, c[idx, i]) / speed
        c[:, i + 1] = (dci + kappa[:, i - 1] * c[:, i - 1]) / kappa[:, i]
    dcm = np.einsum("nw,nw->n", w, c[idx, m]) / speed
    signed_speed = dcm + kappa[:, m - 1] * c[:, m - 1]

    coeffs = c[:, 1:]
    points = frames.point + np.einsum("nk,nkd->nd", coeffs, frames.frame[:, 1:])
    eps = np.where(np.abs(signed_speed) < VERTEX_TOL, 0, np.where(signed_speed > 0, 1, -1))
    alphas = np.arange(1, m + 1)
    # kappa_m is a norm quotient, positive on a generic row, so it adds no sign
    deltas = np.where(alphas % 2 == 0, eps[:, None], -eps[:, None])
    table = FocalData(s=ss, focal_curvatures=coeffs, focal_point=points,
                      A=np.abs(signed_speed), epsilon=eps, deltas=deltas,
                      R_m=np.linalg.norm(coeffs, axis=1))
    for a in (coeffs, points, table.A, eps, deltas, table.R_m):
        a.setflags(write=False)
    return table


def osculating_center_oracle(curve: Curve, s) -> np.ndarray:
    """Osculating hypersphere centers by brute force, no frames involved.

    Half the squared distance from a fixed point to the moving curve point
    has m+1 parameter derivatives that all vanish exactly at the center;
    each is affine in the center once the curve derivatives are known, so
    the center solves a dense (m+1)-square linear system. Serves as the
    independent oracle for the recursion route.

    A scalar ``s`` gives the center, shape (m+1,), and raises the
    SingularSystem (or ValueError) of that one system. An (N,) array gives
    shape (N, m+1) from one oracle call and one stacked solve, and raises
    naming the parameter of its first failed row. A scalar is the one-row
    case of the array call, so every center has the bits of its row in any
    stack.

    The center table: the first scalar call at a row of the curve's kept
    Frenet pass of order m+1, such as a row of :func:`focal_curvatures`,
    solves every row of that pass in one stacked call, from the pass's
    derivative stack alone (nothing of its frames or curvatures, nor of the
    recursion), and keeps with the pass one dict from each solved row's
    parameter, by its float64 bits, to the row's read-only center. Later
    calls at its rows take the bits of ``s`` once, whatever its scalar type
    (Python or numpy float or integer, 0-d array), and return a copy of the
    center: one lookup. A row matches when the parameter's float64 bits
    equal it: ``-0.0`` does not match ``0.0``, a parameter one ulp off does
    not, and NaN never does. A scalar call that misses the table, a failed
    row's included, is the one-row array call, so it solves and raises as
    a fresh call does; an array call reads no table. The table costs as much
    as a few percent of its rows' worth of fresh one-point calls (more in
    higher dimensions), so it pays once a caller asks for more than that
    share of a pass's rows.
    """
    dim = curve.dimension
    try:
        key = _FLOAT64(s)
    except struct.error:  # not a real number: an array, or left to np.asarray below
        key = None
    if key is not None:
        kept = curve._frenet_memo[0]
        if kept is not None and kept.key[0] == dim:
            centers = kept.centers
            if centers is None:
                centers = _center_table(kept, key)
            center = centers.get(key)
            if center is not None:
                return center.copy()
    ts = np.asarray(s, dtype=float)
    scalar = ts.ndim == 0
    if scalar:
        ts = ts.reshape(1)
    derivs = eval_derivatives(curve, ts, dim)
    centers, errors = solve_linear(derivs[:, 1:], _center_rhs(derivs))
    if errors:
        row = min(errors)
        err = errors[row]
        if scalar:
            raise err
        raise type(err)(f"at s={float(ts[row])!r}: {err}")
    return centers[0] if scalar else centers


def _center_table(kept: _KeptPass, key: bytes) -> dict:
    """The center table of ``kept``, built and kept if the float64 bits
    ``key`` name one of its rows; else an empty dict, and nothing is kept."""
    if not np.any(kept.table.s.view(np.uint64) == np.frombuffer(key, np.uint64)):
        return {}
    grid = kept.table.s.tobytes()
    keys = [grid[i:i + 8] for i in range(0, len(grid), 8)]
    # solved from the derivative stack alone and kept with the pass in one
    # store; rows with equal bits have equal centers, so any of them may win
    centers, errors = solve_linear(kept.derivs[:, 1:], _center_rhs(kept.derivs))
    centers.setflags(write=False)
    kept.centers = table = {key: centers[r] for r, key in enumerate(keys) if r not in errors}
    return table


def _center_rhs(derivs: np.ndarray) -> np.ndarray:
    """Right-hand sides of the center systems from a stack of derivative
    rows 0..dim, shape (N, dim + 1, dim): b_j = 1/2 sum_{i=0..j} C(j, i)
    <gamma^(i), gamma^(j-i)>, j = 1..dim, one contraction of each row's Gram
    matrix. The contraction is a stacked matvec, whose row r has the bits
    of row r contracted alone; a flattened matrix product does not."""
    gram = derivs @ derivs.transpose(0, 2, 1)
    flat = gram.reshape(derivs.shape[0], derivs.shape[1] ** 2, 1)
    return (_binomial_table(derivs.shape[2]) @ flat)[:, :, 0]


@functools.lru_cache(maxsize=None)
def _binomial_table(dim: int) -> np.ndarray:
    """The weights of :func:`_center_rhs` over the flattened Gram matrix G:
    row j - 1 holds C(j, i) / 2 at G[i, j - i], i = 0..j."""
    table = np.zeros((dim, dim + 1, dim + 1))
    for j in range(1, dim + 1):
        for i in range(j + 1):
            table[j - 1, i, j - i] = 0.5 * math.comb(j, i)
    return table.reshape(dim, -1)


def _sampled_focal_curve(curve: Curve, table: FocalData) -> Curve:
    keep = ~table.is_vertex
    n_keep = int(np.count_nonzero(keep))
    if not n_keep:
        raise RegularityFailure("every grid row is a vertex: the focal set degenerates to a point")
    if n_keep < 8:
        raise RegularityFailure(f"only {n_keep} of {len(table)} grid rows are away from vertices")
    return sampled_curve(table.s[keep], table.focal_point[keep],
                         label=f"focal({curve.label or curve.kind})")


def focal_curve(curve: Curve, grid) -> Curve:
    """The focal curve as a sampled curve through the focal points.

    Vertex rows are excluded from the sampling (the focal curve is singular
    there); if too few rows survive, or the surviving points fail the
    regularity probe (a circle's focal set is a single point), the
    construction raises.
    """
    return _sampled_focal_curve(curve, focal_curvatures(curve, grid))


@dataclass(frozen=True)
class FocalRelationsReport:
    """Cross-checks between a curve's focal data and the focal curve's own frame.

    ``curvature_residual``: worst absolute gap between the focal curve's
    measured curvatures and the reversed base curvatures divided by the
    focal speed. ``chain_spread``: worst relative disagreement among the m
    rescaled curvature quotients, which should all equal one common value.
    Alignments are minima over interior grid points of absolute frame dot
    products; signs are the consistent observed signs, compared against the
    fixed even/odd patterns (which presume a positive focal speed sign).
    """

    m: int
    curvature_residual: float
    chain_spread: float
    tangent_alignment: float
    normal_alignments: np.ndarray
    last_alignment: float
    observed_signs: np.ndarray
    pattern: str
    epsilon: int
    n_interior: int

    def to_dict(self) -> dict:
        return _report_dict(self)


def focal_relations_check(curve: Curve, grid, *, table=None) -> FocalRelationsReport:
    """Measure how the focal curve's frame and curvatures track the base curve's.

    ``table`` is ``focal_curvatures(curve, grid)`` when the caller has it.
    The base frames and curvatures come from the curve's Frenet pass on the
    grid, which is a lookup when the table was computed from the pass the
    curve keeps. Vertex rows are dropped, and so are ``END_TRIM`` rows at
    each end of the rest, where the sampled focal curve is least accurate.
    Above E5 it raises :class:`OrderUnsupported`: the focal curve's frame
    needs derivative order m + 1, and the sampled focal curve stops at 5.
    """
    ss = np.asarray(grid, dtype=float)
    m = curve.dimension - 1
    if table is None:
        table = focal_curvatures(curve, ss)
    elif not np.array_equal(table.s, ss):
        raise ValueError("table was computed on a different grid")
    focal = _sampled_focal_curve(curve, table)
    kept = table[~table.is_vertex]
    ss = kept.s
    # The base pass's frames were aligned along the full grid; aligning the
    # kept rows again among themselves gives the frames of a grid without the
    # vertex rows, which is the grid the focal curve is sampled on.
    frames = frenet_grid(curve, table.s, order=m + 1)[~table.is_vertex]
    base = frames.frame * _alignment_signs(frames.frame)[:, :, None]
    mirror = frenet_grid(focal, ss, order=m + 1)

    inner = slice(END_TRIM, ss.size - END_TRIM) if ss.size > 2 * END_TRIM + 4 else slice(None)
    A = kept.A[inner, None]
    k_base = frames.curvatures[inner, ::-1]
    k_foc = mirror.curvatures[inner]
    kres = float(np.max(np.abs(k_foc - k_base / A)))
    quotients = k_foc * A / k_base
    chain = float(np.max(quotients.max(axis=1) - quotients.min(axis=1)))
    # focal frame vector a against base frame vector m - a
    dots = (mirror.frame[inner, :, None, :] @ base[inner, ::-1, :, None])[..., 0, 0]

    align = np.abs(dots).min(axis=0)
    signs = np.sign(dots.mean(axis=0)).astype(int)
    # sign vectors (T, N_1..N_{m-1}, N_m) of the fixed even and odd frame maps
    flips = [(-1) ** a for a in range(1, m)]
    patterns = {(1, *flips, 1): "even", (1, *flips, -1): "odd"}
    pattern = patterns.get(tuple(signs.tolist()), "mixed")
    eps = int(np.sign(kept.epsilon[inner].sum()))

    return FocalRelationsReport(
        m=m,
        curvature_residual=kres,
        chain_spread=chain,
        tangent_alignment=float(align[0]),
        normal_alignments=align[1:m].copy(),
        last_alignment=float(align[m]),
        observed_signs=signs,
        pattern=pattern,
        epsilon=eps,
        n_interior=int(dots.shape[0]),
    )
