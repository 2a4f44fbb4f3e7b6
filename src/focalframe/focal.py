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
call the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import Curve, eval_derivatives, sampled_curve
from .errors import FocalNotRegular, NotGeneric, NotUnitSpeed, ReducedOrder, RegularityFailure
from .frenet import FrenetData, frenet_grid
from .linalg import solve_linear
from .numdiff import grid_derivative

VERTEX_TOL = 1e-10
_UNIT_SPEED_TOL = 1e-6
MIN_GRID = 64


@dataclass(frozen=True)
class FocalData:
    """Focal quantities of a unit-speed generic curve at one parameter.

    ``focal_curvatures`` are the frame coefficients of the focal point;
    ``A`` is the focal curve's speed, ``epsilon`` the sign of its signed
    version (0 exactly at a vertex), ``deltas`` the per-normal signs that
    govern how the focal frame maps back onto the base frame, and ``R_m``
    the osculating hypersphere radius.
    """

    s: float
    focal_curvatures: np.ndarray
    focal_point: np.ndarray
    A: float
    epsilon: int
    deltas: np.ndarray
    R_m: float

    @property
    def is_vertex(self) -> bool:
        return self.A < VERTEX_TOL


def _require_unit_speed(data: list[FrenetData]) -> None:
    worst = max(abs(fd.speed - 1.0) for fd in data)
    if worst > _UNIT_SPEED_TOL:
        raise NotUnitSpeed(
            f"speed deviates from 1 by {worst:.3e}; reparametrize to arclength first"
        )


def focal_curvatures(curve: Curve, grid) -> list[FocalData]:
    """Focal curvatures, focal points and sign data over a uniform grid.

    The recursion needs the whole grid at once because each coefficient
    differentiates the previous one along it. Vertex rows (focal speed
    below 1e-10) are flagged via ``is_vertex``, not dropped.
    """
    ss = np.asarray(grid, dtype=float)
    if ss.size < MIN_GRID:
        raise ValueError(f"focal analysis needs at least {MIN_GRID} grid points, got {ss.size}")
    m = curve.dimension - 1
    try:
        frames = frenet_grid(curve, ss, order=m + 1)
    except ReducedOrder as exc:
        raise NotGeneric(f"curve is not generic on the grid: {exc}") from exc
    _require_unit_speed(frames)

    kappa = np.array([fd.curvatures for fd in frames])  # (N, m)
    normals = np.array([fd.frame[1:] for fd in frames])  # (N, m, dim)
    c = np.zeros((ss.size, m + 1))  # column 0 holds the implicit c_0 = 0
    c[:, 1] = 1.0 / kappa[:, 0]
    for i in range(1, m):
        dci = grid_derivative(c[:, i], ss)
        c[:, i + 1] = (dci + kappa[:, i - 1] * c[:, i - 1]) / kappa[:, i]
    dcm = grid_derivative(c[:, m], ss)
    signed_speed = dcm + kappa[:, m - 1] * c[:, m - 1] if m >= 2 else dcm

    coeffs = c[:, 1:]
    points = eval_derivatives(curve, ss, 0)[:, 0] + np.einsum("nk,nkd->nd", coeffs, normals)
    eps = np.where(np.abs(signed_speed) < VERTEX_TOL, 0, np.where(signed_speed > 0, 1, -1))
    alphas = np.arange(1, m + 1)
    deltas = (np.where(alphas % 2 == 0, eps[:, None], -eps[:, None])
              * np.sign(kappa[:, m - 1:]).astype(int))
    radii = np.linalg.norm(coeffs, axis=1)
    return [
        FocalData(s=fd.s, focal_curvatures=coeffs[j].copy(), focal_point=points[j],
                  A=abs(float(signed_speed[j])), epsilon=int(eps[j]), deltas=deltas[j],
                  R_m=float(radii[j]))
        for j, fd in enumerate(frames)
    ]


def osculating_center_oracle(curve: Curve, s: float) -> np.ndarray:
    """Osculating hypersphere center by brute force, no frames involved.

    Half the squared distance from a fixed point to the moving curve point
    has m+1 parameter derivatives that all vanish exactly at the center;
    each is affine in the center once the curve derivatives are known, so
    the center solves a dense (m+1)-square linear system. Serves as the
    independent oracle for the recursion route.
    """
    dim = curve.dimension
    derivs = eval_derivatives(curve, s, dim)
    gamma = derivs[0]
    A = derivs[1:]
    b = np.empty(dim)
    for j in range(1, dim + 1):
        acc = float(A[j - 1] @ gamma)
        for i in range(1, j):
            acc += 0.5 * math.comb(j, i) * float(derivs[i] @ derivs[j - i])
        b[j - 1] = acc
    return solve_linear(A, b)


def focal_curve(curve: Curve, grid) -> Curve:
    """The focal curve as a sampled curve through the focal points.

    Vertex rows are excluded from the sampling (the focal curve is singular
    there); if too few rows survive, or the surviving points fail the
    regularity probe (a circle's focal set is a single point), the
    construction raises.
    """
    table = focal_curvatures(curve, grid)
    keep = [fd for fd in table if not fd.is_vertex]
    if not keep:
        raise RegularityFailure(
            "every grid row is a vertex: the focal set degenerates to a point"
        )
    if len(keep) < 8:
        raise FocalNotRegular(
            f"only {len(keep)} of {len(table)} grid rows are away from vertices"
        )
    ts = np.array([fd.s for fd in keep])
    pts = np.array([fd.focal_point for fd in keep])
    return sampled_curve(ts, pts, max_order=min(curve.dimension, 5),
                         label=f"focal({curve.label or curve.kind})")


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
        return {
            "m": self.m,
            "curvature_residual": self.curvature_residual,
            "chain_spread": self.chain_spread,
            "tangent_alignment": self.tangent_alignment,
            "normal_alignments": list(self.normal_alignments),
            "last_alignment": self.last_alignment,
            "observed_signs": [int(x) for x in self.observed_signs],
            "pattern": self.pattern,
            "epsilon": self.epsilon,
            "n_interior": self.n_interior,
        }


def _expected_signs(m: int) -> tuple[np.ndarray, np.ndarray]:
    # Sign vectors (T, N_1..N_{m-1}, N_m) of the fixed even/odd frame maps.
    base = [1] + [(-1) ** a for a in range(1, m)]
    even = np.array(base + [1])
    odd = np.array(base + [-1])
    return even, odd


def focal_relations_check(curve: Curve, grid, trim: int = 3) -> FocalRelationsReport:
    """Measure how the focal curve's frame and curvatures track the base curve's.

    ``trim`` boundary points are excluded at each end: the focal curve is
    sampled, and its one-sided difference stencils near the ends are the
    least accurate data in the whole comparison.
    """
    ss = np.asarray(grid, dtype=float)
    m = curve.dimension - 1
    table = focal_curvatures(curve, ss)
    focal = focal_curve(curve, ss)
    kept = np.array([not fd.is_vertex for fd in table])
    ss = ss[kept]
    table = [fd for fd in table if not fd.is_vertex]
    base = frenet_grid(curve, ss, order=m + 1)
    mirror = frenet_grid(focal, ss, order=m + 1)

    if trim and ss.size > 2 * trim + 4:
        inner = slice(trim, ss.size - trim)
    else:
        inner = slice(None)
    idx = range(*inner.indices(ss.size))
    n_interior = len(list(idx))

    kres = 0.0
    chain = 0.0
    dots = np.empty((n_interior, m + 1))
    for row, i in enumerate(idx):
        A = table[i].A
        k_base = base[i].curvatures
        k_foc = mirror[i].curvatures
        expected = k_base[::-1] / A
        kres = max(kres, float(np.max(np.abs(k_foc - expected))))
        quotients = k_foc * A / k_base[::-1]
        chain = max(chain, float(np.max(quotients) - np.min(quotients)))
        F, G = base[i].frame, mirror[i].frame
        dots[row, 0] = float(G[0] @ F[m])           # focal tangent vs last normal
        for a in range(1, m):
            dots[row, a] = float(G[a] @ F[m - a])   # focal normal a vs normal m-a
        dots[row, m] = float(G[m] @ F[0])           # focal last normal vs tangent

    align = np.abs(dots).min(axis=0)
    signs = np.sign(dots.mean(axis=0)).astype(int)
    even, odd = _expected_signs(m)
    if np.array_equal(signs, even):
        pattern = "even"
    elif np.array_equal(signs, odd):
        pattern = "odd"
    else:
        pattern = "mixed"
    eps_vals = [table[i].epsilon for i in idx]
    eps = int(np.sign(sum(eps_vals)))

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
        n_interior=n_interior,
    )
