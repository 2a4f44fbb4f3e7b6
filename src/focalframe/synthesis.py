"""Curvature profiles and curve synthesis.

A synthesized curve comes out of integrating the frame equations for a
prescribed curvature profile by a sixth-order Magnus step with three
Gauss points, whose skew exponentials are real Taylor polynomials with
scaling and squaring and whose frames are running products of them; it
is read between nodes by quintic Hermite interpolation, and its high
derivatives are reconstructed from the frame and the profile, not
differenced. Curvature profiles broadcast over arclength arrays. The
other curve kinds live in :mod:`focalframe.curves` and
:mod:`focalframe.arclength`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curves import _PROBE_POINTS, Curve, make_curve
from .errors import BadParameters, InvalidProfile, ReducedOrder
from .linalg import gram_schmidt_rows
from .numdiff import fd_weights
from .series import factorials

_DEFAULT_ODE_STEPS = 1024
_MAX_ODE_STEPS = 1 << 20
_MAGNUS_CHUNK = 512
_EXPM_THETA = 0.25
_EXPM_TOL = 1e-17
_GAUSS_OFFSETS = 0.5 + np.array([-1.0, 0.0, 1.0]) * math.sqrt(15.0) / 10.0


class ProfileFunction:
    """Function of arclength with derivatives, ``f(s, order)``, broadcast over
    ``s``: it returns a float array of ``s``'s shape (0-d for a scalar)."""

    def __call__(self, s, order: int = 0) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def derivatives(self, s, n: int) -> np.ndarray:
        """Orders 0..n-1 at ``s``, shape ``s.shape + (n,)``: one call per order
        here, one shared pass where a subclass has one."""
        return np.stack([self(s, j) for j in range(n)], axis=-1)


@dataclass(frozen=True)
class ConstantProfile(ProfileFunction):
    value: float

    def __call__(self, s, order: int = 0) -> np.ndarray:
        return np.full(np.shape(s), self.value if order == 0 else 0.0)


@dataclass(frozen=True)
class LinearProfile(ProfileFunction):
    intercept: float
    slope: float

    def __call__(self, s, order: int = 0) -> np.ndarray:
        if order == 0:
            return self.intercept + self.slope * np.asarray(s, dtype=float)
        return np.full(np.shape(s), self.slope if order == 1 else 0.0)


@dataclass(frozen=True)
class SinusoidProfile(ProfileFunction):
    offset: float
    amplitude: float
    frequency: float
    phase: float = 0.0

    def __call__(self, s, order: int = 0) -> np.ndarray:
        val = self.amplitude * self.frequency**order * np.sin(
            self.frequency * np.asarray(s, dtype=float) + self.phase + order * 0.5 * math.pi
        )
        return val + self.offset if order == 0 else val


class SplineProfile(ProfileFunction):
    """Clamped cubic interpolant of sampled curvature values.

    End slopes are estimated from one-sided 4th-order stencils so clamping
    does not flatten the ends artificially; nodes too close together for a
    stencil to differentiate 1 and s to 1e-10 relative are refused. The
    knot slopes solve the tridiagonal system of
    ``scipy.interpolate.CubicSpline`` with clamped ends, in one O(N)
    elimination sweep, and each span holds its cubic's coefficients.
    Evaluation is one ``searchsorted`` (points past either end use the end
    span) and Horner's rule over arrays for orders 0-3, shared by every
    order that :meth:`derivatives` asks for. Derivative orders above 3 are
    reported as zero, which bounds how far synthesized curves built from
    sampled profiles can push their reconstructed derivative order.
    """

    def __init__(self, s_nodes, values):
        s = np.asarray(s_nodes, dtype=float)
        y = np.asarray(values, dtype=float)
        if s.ndim != 1 or y.shape != s.shape:
            raise InvalidProfile(f"spline nodes and values must be matching 1-d rows, "
                                 f"got shapes {s.shape} and {y.shape}")
        if s.size < 5:
            raise InvalidProfile("need at least 5 sample rows for a spline profile")
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(y))):
            raise InvalidProfile("spline nodes and values must be finite")
        dx = np.diff(s)
        if np.any(dx <= 0.0):
            raise InvalidProfile("spline nodes must be strictly increasing")
        try:
            coef = _clamped_spline_coefficients(s, y, dx)
        except FloatingPointError:
            coef = None
        if coef is None or not np.all(np.isfinite(coef)):
            raise InvalidProfile(f"spline coefficients overflow with nodes {float(dx.min()):.3g} "
                                 f"apart and values up to {float(np.max(np.abs(y))):.3g}")
        self._nodes = s
        self._inner = s[1:-1]
        self._coef = coef.T.copy()  # rows c3, c2, c1, c0, one column per span

    def __call__(self, s, order: int = 0) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        return self._orders(s, order + 1)[order] if order <= 3 else np.zeros(s.shape)

    def derivatives(self, s, n: int) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        rows = self._orders(s, n)
        return np.stack(rows + [np.zeros(s.shape)] * (n - len(rows)), axis=-1)

    def _orders(self, s: np.ndarray, n: int) -> list[np.ndarray]:
        """Orders 0..min(n, 4) - 1 at ``s`` from one ``searchsorted``."""
        i = np.searchsorted(self._inner, s, side="right")
        d = s - self._nodes[i]
        c3, c2, c1, c0 = self._coef[:, i]
        rows = [((c3 * d + c2) * d + c1) * d + c0]
        if n > 1:
            rows.append((3.0 * c3 * d + 2.0 * c2) * d + c1)
        if n > 2:
            rows.append(6.0 * c3 * d + 2.0 * c2)
        if n > 3:
            rows.append(6.0 * c3)
        return rows


@np.errstate(over="raise", divide="raise", invalid="raise")
def _clamped_spline_coefficients(s: np.ndarray, y: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Per-span cubic coefficients (c3, c2, c1, c0) of SplineProfile's clamped spline."""
    ends = np.stack([s[:5], s[-5:]])
    w = fd_weights(ends, s[[0, -1]], 1)[:, 1]
    # The end stencils on 1 and s (derivatives 0 and 1), against their terms' magnitudes
    terms = np.stack([w, w * ends])
    err = np.abs(terms.sum(axis=2) - [[0.0], [1.0]]) / np.abs(terms).sum(axis=2)
    if not np.all(err <= 1e-10):
        raise InvalidProfile(f"spline end-slope stencil loses precision with nodes "
                             f"{float(dx.min()):.3g} apart (relative error {float(err.max()):.2e} "
                             f"on 1 and s)")
    slope = np.diff(y) / dx
    # The knot slopes m solve the tridiagonal system of CubicSpline, row i
    # being lower[i] m[i-1] + diag[i] m[i] + upper[i] m[i+1] = rhs[i]. An
    # interior row reads dx[i] m[i-1] + 2 (dx[i-1] + dx[i]) m[i] + dx[i-1] m[i+1]
    # = 3 (dx[i] slope[i-1] + dx[i-1] slope[i]); the end rows clamp m[0] and
    # m[-1] to the stencil slopes. The system is diagonally dominant, so one
    # Thomas sweep without pivoting solves it, leaving m in rhs.
    lower = [0.0] + dx[1:].tolist() + [0.0]
    diag = [1.0] + (2.0 * (dx[:-1] + dx[1:])).tolist() + [1.0]
    upper = [0.0] + dx[:-1].tolist() + [0.0]
    inner = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    rhs = [float(w[0] @ y[:5])] + inner.tolist() + [float(w[1] @ y[-5:])]
    for i in range(1, s.size):
        f = lower[i] / diag[i - 1]
        diag[i] -= f * upper[i - 1]
        rhs[i] -= f * rhs[i - 1]
    rhs[-1] /= diag[-1]
    for i in range(s.size - 2, -1, -1):
        rhs[i] = (rhs[i] - upper[i] * rhs[i + 1]) / diag[i]
    m = np.array(rhs)
    t = (m[:-1] + m[1:] - 2.0 * slope) / dx
    return np.column_stack([t / dx, (slope - m[:-1]) / dx - t, m[:-1], y[:-1]])


@dataclass(frozen=True)
class CurvatureProfile:
    """m curvature functions of arclength over a common domain.

    Each function must follow the :class:`ProfileFunction` array contract.
    All but the last must be strictly positive on the domain, checked on a
    probe grid at construction.
    """

    functions: tuple[ProfileFunction, ...]
    domain: tuple[float, float]

    def __post_init__(self):
        if not self.functions:
            raise InvalidProfile("profile needs at least one curvature function")
        lo, hi = self.domain
        if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
            raise InvalidProfile(f"bad domain [{lo!r}, {hi!r}]")
        probe = np.linspace(lo, hi, _PROBE_POINTS)
        vals = self.values(probe)
        if vals.shape != (probe.size, self.count):
            raise InvalidProfile(f"curvatures at {probe.size} arclengths have shape {vals.shape}")
        inner = vals[:, :-1]
        positive = np.all((inner > 0.0) & np.isfinite(inner), axis=0)
        if not positive.all():
            raise InvalidProfile(f"curvature {int(np.argmin(positive)) + 1} "
                                 "must stay positive on the domain")
        if not np.all(np.isfinite(vals[:, -1])):
            raise InvalidProfile("last curvature is non-finite on the domain")

    @property
    def count(self) -> int:
        return len(self.functions)

    def values(self, s) -> np.ndarray:
        """The curvatures at ``s``, shape ``s.shape + (count,)``."""
        return np.stack([f(s) for f in self.functions], axis=-1)

    def taylor(self, s, n: int) -> np.ndarray:
        """Taylor coefficients of each curvature at s, shape ``s.shape + (count, n)``,
        from one :meth:`ProfileFunction.derivatives` call per function."""
        derivs = np.stack([f.derivatives(s, n) for f in self.functions], axis=-2)
        return derivs / factorials(n)

    @classmethod
    def constants(cls, values: Sequence[float], domain: tuple[float, float]) -> "CurvatureProfile":
        return cls(tuple(ConstantProfile(float(v)) for v in values), (float(domain[0]), float(domain[1])))

    @classmethod
    def from_samples(cls, s_nodes, table) -> "CurvatureProfile":
        s = np.asarray(s_nodes, dtype=float)
        T = np.asarray(table, dtype=float)
        if T.ndim != 2 or T.shape[0] != s.size:
            raise InvalidProfile("table must be (N, m) matching the s nodes")
        funcs = tuple(SplineProfile(s, T[:, i]) for i in range(T.shape[1]))
        return cls(funcs, (float(s[0]), float(s[-1])))


def _body_frame_derivatives(
    frame: np.ndarray,
    kappa_series: np.ndarray,
    order: int,
) -> np.ndarray:
    """Derivatives (orders 1..order) of a unit-speed curve from its frames.

    ``frame`` is a stack of N orthonormal frames (N, m + 1, dim) and
    ``kappa_series`` the curvatures' Taylor coefficients there, (N, m, n)
    with n >= order; the result has shape (N, order, dim). Expands each
    derivative in the moving frame; the coefficient series obey a ladder
    recursion coupling neighbors through the curvature series.
    """
    n = order
    # times[..., j, i] = kappa[..., j - i]: multiplies a series by kappa, truncated to n terms
    lag = np.subtract.outer(np.arange(n), np.arange(n))
    times = np.where(lag >= 0, kappa_series[..., np.maximum(lag, 0)], 0.0)
    coeff = np.zeros((*frame.shape[:2], n))
    coeff[:, 0, 0] = 1.0  # first derivative is the unit tangent
    rows = [frame[:, 0]]
    for _ in range(order - 1):
        nxt = np.zeros_like(coeff)
        nxt[..., :-1] = coeff[..., 1:] * np.arange(1, n)
        nxt[:, 1:] += np.einsum("nlji,nli->nlj", times, coeff[:, :-1])
        nxt[:, :-1] -= np.einsum("nlji,nli->nlj", times, coeff[:, 1:])
        coeff = nxt
        rows.append(np.einsum("nl,nld->nd", coeff[..., 0], frame))
    return np.stack(rows, axis=1)


def _hermite(y: np.ndarray, dy: np.ndarray, ddy: np.ndarray, i: np.ndarray, u: np.ndarray,
             h: float) -> np.ndarray:
    """Quintic Hermite interpolant of node tables of values ``y``, first
    derivatives ``dy`` and second derivatives ``ddy``, on the steps ``i`` of
    width h at the fractions ``u`` (broadcast against a table row). The
    basis is written in powers of u and v = 1 - u, so a node's row comes
    back exactly at u = 0 and u = 1."""
    v = 1.0 - u
    return (v**3 * ((1.0 + 3.0 * u + 6.0 * u * u) * y[i] + u * h * (1.0 + 3.0 * u) * dy[i]
                    + 0.5 * (u * h) ** 2 * ddy[i])
            + u**3 * ((1.0 + 3.0 * v + 6.0 * v * v) * y[i + 1]
                      - v * h * (1.0 + 3.0 * v) * dy[i + 1] + 0.5 * (v * h) ** 2 * ddy[i + 1]))


@dataclass(frozen=True, eq=False)
class _SynthesizedOracle:
    """Evaluator of a synthesized curve over its integration tables: the
    position, frame and the frame's first two derivatives at each node (the
    position's are the tangent and kappa_1 N_1, the frame's first rows)."""

    profile: CurvatureProfile
    nodes: np.ndarray
    h: float
    gammas: np.ndarray
    frames: np.ndarray
    frame_dots: np.ndarray
    frame_ddots: np.ndarray

    def __call__(self, s: np.ndarray, order: int) -> np.ndarray:
        i = np.clip(np.searchsorted(self.nodes, s) - 1, 0, self.nodes.size - 2)
        u = ((s - self.nodes[i]) / self.h)[:, None]
        pos = _hermite(self.gammas, self.frames[:, 0], self.frame_dots[:, 0], i, u, self.h)
        if order == 0:
            return pos[:, None]
        F = _hermite(self.frames, self.frame_dots, self.frame_ddots, i, u[:, :, None], self.h)
        orth, norms, failed = gram_schmidt_rows(F)
        if failed.any():
            r = int(np.argmax(failed > 0))
            raise ReducedOrder(int(failed[r]), float(s[r]))
        kappa_series = self.profile.taylor(s, order)
        rows = _body_frame_derivatives(orth / norms[:, :, None], kappa_series, order)
        return np.concatenate([pos[:, None], rows], axis=1)


def _skew(sup: np.ndarray) -> np.ndarray:
    """The tridiagonal skew matrices with super-diagonals ``sup``, shape
    (..., m) to (..., m + 1, m + 1): the frame equations' F' = M F."""
    m = sup.shape[-1]
    r = np.arange(m)
    M = np.zeros((*sup.shape[:-1], m + 1, m + 1))
    M[..., r, r + 1] = sup
    M[..., r + 1, r] = -sup
    return M


def _bracket(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """[X, Y] for stacks of skew X and Y: (XY)^T = YX, so one product."""
    P = X @ Y
    return P - P.swapaxes(-1, -2)


def _magnus_exponentials(gauss: np.ndarray, h: float) -> np.ndarray:
    """exp(Omega) for each step of a stack, from the curvatures at its three
    Gauss points, ``gauss`` of shape (3, N, m); result (N, m + 1, m + 1).

    Omega is the sixth-order Magnus step of Blanes, Casas and Ros (BIT 40,
    2000). With A1, A2, A3 the frame matrices at the Gauss points,
    a1 = h A2, a2 = sqrt(15) h/3 (A3 - A1), a3 = 10 h/3 (A3 - 2 A2 + A1),
    c1 = [a1, a2] and c2 = -[a1, 2 a3 + c1]/60, it is
    Omega = a1 + a3/12 + [-20 a1 - a3 + c1, a2 + c2]/240, three stacked
    products of the small dense matrices. The stack is exponentiated in
    real arithmetic by scaling and squaring: scaled by 2^-j so that its
    largest 1-norm is below ``_EXPM_THETA``, then a Taylor polynomial of
    the least degree q whose truncation term theta^(q+1)/(q+1)! is below
    ``_EXPM_TOL``, by Horner's rule, then squared j times. At the default
    step j = 0 and q is about 7. A zero row gives the identity exactly.
    The result is orthogonal to roundoff, not by construction.
    """
    k1, k2, k3 = gauss
    a1, a2, a3 = _skew(np.stack([h * k2, (math.sqrt(15.0) * h / 3.0) * (k3 - k1),
                                 (10.0 * h / 3.0) * (k3 - 2.0 * k2 + k1)]))
    c1 = _bracket(a1, a2)
    c2 = _bracket(a1, 2.0 * a3 + c1) / -60.0
    omega = a1 + a3 / 12.0 + _bracket(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0
    norm = float(np.abs(omega).sum(axis=1).max())
    j = max(0, math.frexp(norm / _EXPM_THETA)[1])
    theta = math.ldexp(norm, -j)
    q, term = 1, theta * theta / 2.0
    while term >= _EXPM_TOL:
        q += 1
        term *= theta / (q + 1)
    X = omega * math.ldexp(1.0, -j)
    eye = np.eye(omega.shape[-1])
    E = X / q
    E += eye
    for k in range(q - 1, 0, -1):
        E = X @ E
        E /= k
        E += eye
    for _ in range(j):
        E = E @ E
    return E


def synthesize_from_curvatures(
    profile: CurvatureProfile,
    dim: int,
    step: float | None = None,
) -> Curve:
    """Integrate the frame equations for a prescribed curvature profile.

    The curve starts at the origin with the identity frame: at the start
    of the profile's domain its tangent and normals are the standard basis
    vectors in order. Any other start is a rigid motion of this curve.
    The sixth-order Magnus step with three Gauss points (see
    :func:`_magnus_exponentials`) at a fixed step h: ``step`` is an upper
    bound, and the domain is cut into the fewest equal steps, at least 8,
    that it allows, by default ``_DEFAULT_ODE_STEPS`` (1024) of them. Each
    step multiplies the frame by the exponential of a skew matrix. One
    profile call takes the curvatures at every Gauss point and one
    :meth:`CurvatureProfile.taylor` call their values and first two
    derivatives at every node; a non-finite value at any of them raises
    InvalidProfile naming the first such s. ``_MAGNUS_CHUNK`` steps at a
    time, the exponentials come from one real scaling-and-squaring Taylor
    polynomial, a doubling prefix product turns them into the running
    products, and one more product applies the frame carried in from the
    previous chunk. Frames are never re-orthonormalized: they stay
    orthonormal to roundoff, within 1.1e-14 over the default steps in
    E3-E8 by measurement. Positions follow from the tangents by the
    corrected trapezoid rule plus its next Euler-Maclaurin term,
    h^4/720 (T'''(s1) - T'''(s0)) on a step [s0, s1], with T''' in closed
    form from the frame and the curvatures' first two derivatives. Both
    are of sixth order on a smooth profile; a spline profile's third
    derivative jumps at its knots, and a step across a knot errs by
    O(h^4) times the jump. The result is unit speed to roundoff. Its
    evaluator interpolates the position and frame tables by quintic
    Hermite, from gamma'' = kappa_1 N_1 and F'' = (M' + M^2) F at the
    nodes, and rebuilds derivatives above the first from the frame and
    the profile's own derivatives, so the returned curve supports
    max_order m + 2. A step that needs more than ``_MAX_ODE_STEPS``
    (2^20) steps raises BadParameters before anything is allocated.
    """
    m = profile.count
    if dim != m + 1:
        raise BadParameters(f"profile with {m} curvatures lives in dimension {m + 1}, not {dim}")
    lo, hi = profile.domain
    length = hi - lo
    if step is None:
        step = length / _DEFAULT_ODE_STEPS
    if not step > 0:
        raise BadParameters("step must be positive")
    if not length / step <= _MAX_ODE_STEPS:
        raise BadParameters(f"step {step!r} needs {length / step:.3g} integrator steps over "
                            f"length {length!r}; at most {_MAX_ODE_STEPS} are allowed")
    n_steps = max(int(math.ceil(length / step)), 8)
    h = length / n_steps

    nodes = lo + h * np.arange(n_steps + 1)
    # The curvatures with their first two derivatives at the nodes, and the
    # curvatures at each step's three Gauss points.
    s_gauss = nodes[:-1] + h * _GAUSS_OFFSETS[:, None]
    jets = profile.taylor(nodes, 3)
    gauss = profile.values(s_gauss)
    finite = np.concatenate([np.isfinite(jets).all(axis=(1, 2)),
                             np.isfinite(gauss).all(axis=2).ravel()])
    if not finite.all():
        s_all = np.concatenate([nodes, s_gauss.ravel()])
        raise InvalidProfile(f"curvature or one of its first two derivatives is non-finite "
                             f"at s={float(s_all[~finite].min())!r}")
    at_node, d_node = jets[:, :, 0], jets[:, :, 1]
    # Validate positivity at every integration node, not just the probe grid.
    bad = np.flatnonzero(np.any(at_node[:, :-1] <= 0.0, axis=1))
    if bad.size:
        raise InvalidProfile(f"curvature became non-positive at s={float(nodes[bad[0]])!r}")
    if m >= 2 and np.max(np.abs(at_node[:, -1])) < 1e-14:
        raise InvalidProfile(
            "last curvature vanishes identically: the curve has lower osculating "
            "order; drop it and synthesize one dimension down"
        )

    frames = np.empty((n_steps + 1, dim, dim))
    frames[0] = np.eye(dim)
    for c in range(0, n_steps, _MAGNUS_CHUNK):
        E = _magnus_exponentials(gauss[:, c:c + _MAGNUS_CHUNK], h)
        # Doubling prefix product: afterwards E[i] = E_i ... E_1 E_0.
        k = 1
        while k < len(E):
            E[k:] = E[k:] @ E[:-k]
            k *= 2
        frames[c + 1:c + 1 + len(E)] = E @ frames[c]

    # F' = M F and F'' = (M' + M^2) F = M' F + M F', M tridiagonal skew.
    M = _skew(at_node)
    frame_dots = M @ frames
    frame_ddots = _skew(d_node) @ frames + M @ frame_dots

    # The corrected trapezoid rule on the tangent T plus the next
    # Euler-Maclaurin term, h^4/720 (T''' at the step's end - at its start).
    # T' = kappa_1 N_1 is the first row of F', and in the frame T''' is
    # -3 k1 k1' T + (k1'' - k1^3 - k1 k2^2) N1 + (2 k1' k2 + k1 k2') N2 + k1 k2 k3 N3.
    k1, k2, k3 = np.pad(at_node, ((0, 0), (0, 2)))[:, :3].T
    d1, d2 = np.pad(d_node, ((0, 0), (0, 1)))[:, :2].T
    dd1 = 2.0 * jets[:, 0, 2]
    coef = np.column_stack([-3.0 * k1 * d1, dd1 - k1**3 - k1 * k2 * k2,
                            2.0 * d1 * k2 + k1 * d2, k1 * k2 * k3])
    T, dT = frames[:, 0], frame_dots[:, 0]
    d3T = np.einsum("nr,nrd->nd", coef[:, :dim], frames[:, :4])
    steps = (0.5 * h * (T[:-1] + T[1:]) + (h * h / 12.0) * (dT[:-1] - dT[1:])
             + (h**4 / 720.0) * (d3T[1:] - d3T[:-1]))
    gammas = np.concatenate([np.zeros((1, dim)), np.cumsum(steps, axis=0)])
    oracle = _SynthesizedOracle(profile, nodes, h, gammas, frames, frame_dots, frame_ddots)
    # unit speed by construction, from curvatures already checked finite
    return make_curve(dim, (lo, hi), "synthesized", m + 2, oracle, label=f"synthesized(m={m})",
                      check_regularity=False)
