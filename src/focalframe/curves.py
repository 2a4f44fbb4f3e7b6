"""Curve representations with derivative oracles.

A curve is an immutable value: a dimension, a parameter interval and an
evaluator that returns the stack of derivatives up to a requested order.
Three kinds exist. Analytic curves carry closed-form oracles to every
supported order. Sampled curves differentiate fixed sample rows with
finite-difference stencils and are trustworthy up to derivative order 5.
Synthesized curves come out of integrating the frame equations for a
prescribed curvature profile; their high derivatives are reconstructed
from the frame and the profile, not differenced.

Curves must be C^{m+2}-smooth on their domain for the downstream focal
and slant analyses to reach their stated tolerances; all builtin
generators are real-analytic.

Everything here is pure and thread-safe: curves never mutate after
construction and evaluators share no state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss, legint, legvander
from scipy.interpolate import CubicSpline

from .errors import (
    BadParameters,
    ConvergenceFailure,
    InvalidProfile,
    NonOrthonormalFrame,
    OrderUnsupported,
    OutOfDomain,
    RegularityFailure,
)
from .linalg import gram_schmidt, gram_schmidt_rows
from .numdiff import fd_weights, window_starts
from .series import (
    factorials,
    series_compose,
    series_diff,
    series_mul,
    series_reverse,
    series_sqrt,
)

_DOMAIN_SLACK = 1e-9
_PROBE_POINTS = 64
_DEFAULT_ODE_STEPS = 4096
_MAX_ODE_STEPS = 1 << 20
_TWO_PI = 2.0 * math.pi
_CHECKPOINTS = 512
_NEWTON_STEPS = 60
_UNIT_SPEED_PROBES = 17
_UNIT_SPEED_TOL = 1e-8


@dataclass(frozen=True)
class Curve:
    """Evaluable map from a real interval into E^{m+1}.

    ``evaluator(t, order)`` returns an array of shape (order + 1, dimension)
    whose rows are the position and derivatives up to ``order``; given a
    1-d numpy array of N parameters it returns shape (N, order + 1,
    dimension). Use the module-level :func:`eval_derivatives` for the
    domain-, order- and shape-checked entry point, which takes either form.
    Analytic and sampled curves evaluate an array in one pass; arclength and
    synthesized curves map their scalar path over it.
    """

    dimension: int
    domain: tuple[float, float]
    kind: str
    max_order: int
    evaluator: Callable[[float, int], np.ndarray] = field(repr=False)
    label: str = ""

    def point(self, t: float) -> np.ndarray:
        return eval_derivatives(self, t, 0)[0]

    def derivative(self, t: float, order: int = 1) -> np.ndarray:
        return eval_derivatives(self, t, order)[order]

    @property
    def length_of_domain(self) -> float:
        return self.domain[1] - self.domain[0]

    def grid(self, n: int) -> np.ndarray:
        """Uniform parameter grid over the full domain, endpoints included."""
        return np.linspace(self.domain[0], self.domain[1], n)


def _is_array(t) -> bool:
    # Cheaper than np.ndim on a float, which is the common scalar case.
    return isinstance(t, np.ndarray) and t.ndim > 0


def _check_domain(curve: Curve, t):
    """Clamp ``t`` (a scalar or a 1-d array) into the domain, allowing for slack.

    Raises OutOfDomain naming the first value beyond the slack (NaN included).
    """
    lo, hi = curve.domain
    slack = _DOMAIN_SLACK * max(1.0, abs(lo), abs(hi))
    if not _is_array(t):
        if not (lo - slack <= t <= hi + slack):
            raise OutOfDomain(f"t={t!r} outside [{lo!r}, {hi!r}]")
        return min(max(t, lo), hi)
    if t.ndim != 1:
        raise ValueError(f"expected a scalar or a 1-d array of parameters, got shape {t.shape}")
    bad = np.flatnonzero(~((lo - slack <= t) & (t <= hi + slack)))
    if bad.size:
        raise OutOfDomain(f"t={float(t[bad[0]])!r} outside [{lo!r}, {hi!r}]")
    return np.clip(t, lo, hi)


def eval_derivatives(curve: Curve, t, order: int) -> np.ndarray:
    """Position and derivatives of ``curve`` at ``t``, rows 0..order.

    A scalar ``t`` gives shape (order + 1, dimension); a 1-d array of N
    parameters gives (N, order + 1, dimension) from one evaluator call.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > curve.max_order:
        raise OrderUnsupported(
            f"order {order} exceeds max_order {curve.max_order} of this {curve.kind} curve"
        )
    t = _check_domain(curve, t)
    shape = (order + 1, curve.dimension)
    if _is_array(t):
        shape = (t.size, *shape)
    out = np.asarray(curve.evaluator(t, order), dtype=float)
    if out.shape != shape:
        raise RuntimeError(f"evaluator returned shape {out.shape}, expected {shape}")
    return out


def _probe_regularity(curve: Curve) -> None:
    ts = np.linspace(curve.domain[0], curve.domain[1], _PROBE_POINTS)
    speeds = np.linalg.norm(np.asarray(curve.evaluator(ts, 1), dtype=float)[:, 1], axis=-1)
    if not np.all(np.isfinite(speeds)):
        raise RegularityFailure("derivative oracle returned non-finite values on probe grid")
    floor = 1e-12 * max(1.0, float(speeds.max()))
    if speeds.min() <= floor:
        bad = ts[int(np.argmin(speeds))]
        raise RegularityFailure(f"speed {speeds.min():.3e} near zero at t={bad!r}")


def make_curve(
    dimension: int,
    domain: tuple[float, float],
    kind: str,
    max_order: int,
    evaluator: Callable[[float, int], np.ndarray],
    label: str = "",
    check_regularity: bool = True,
) -> Curve:
    """Validated Curve constructor used by every factory in this module.

    ``evaluator`` must follow the :class:`Curve` contract, array calls included.
    """
    if dimension < 2:
        raise BadParameters(f"ambient dimension must be at least 2, got {dimension}")
    lo, hi = float(domain[0]), float(domain[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        raise BadParameters(f"bad domain [{lo!r}, {hi!r}]")
    if max_order < 1:
        raise BadParameters("max_order must be at least 1")
    curve = Curve(int(dimension), (lo, hi), kind, int(max_order), evaluator, label)
    if check_regularity:
        _probe_regularity(curve)
    return curve


def _pointwise(scalar_evaluator: Callable[[float, int], np.ndarray], dimension: int):
    """Evaluator meeting the array contract by mapping a scalar one over the points."""

    def evaluator(t, order: int) -> np.ndarray:
        if not _is_array(t):
            return scalar_evaluator(t, order)
        out = np.empty((t.size, order + 1, dimension))
        for i, x in enumerate(t.tolist()):
            out[i] = scalar_evaluator(x, order)
        return out

    return evaluator


# ---------------------------------------------------------------------------
# analytic curves built from sums of sinusoids plus a linear part
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrigCoordinate:
    """One coordinate of the form const + slope*t + sum A sin(w t + phi).

    Differentiates exactly to any order: each sinusoid picks up a factor w
    and a quarter-turn phase shift per derivative.
    """

    const: float = 0.0
    slope: float = 0.0
    terms: tuple[tuple[float, float, float], ...] = ()

    def eval(self, t: float, order: int) -> float:
        acc = 0.0
        if order == 0:
            acc = self.const + self.slope * t
        elif order == 1:
            acc = self.slope
        half_pi = 0.5 * math.pi
        for amp, freq, phase in self.terms:
            acc += amp * freq**order * math.sin(freq * t + phase + order * half_pi)
        return acc


def curve_from_coordinates(
    coords: Sequence[TrigCoordinate],
    domain: tuple[float, float],
    label: str = "",
    max_order: int | None = None,
) -> Curve:
    dim = len(coords)
    if max_order is None:
        max_order = dim + 1
    # Array calls evaluate all terms at once; the 0/1 matrix ``owner`` sums
    # them into their coordinates.
    terms = [(j, *term) for j, c in enumerate(coords) for term in c.terms]
    owner = np.eye(dim)[[j for j, *_ in terms]]
    amp, freq, phase = np.array([term for _, *term in terms], dtype=float).reshape(-1, 3).T
    const, slope = np.array([(c.const, c.slope) for c in coords], dtype=float).T
    if not np.all(np.isfinite(np.concatenate([amp, freq, phase, const, slope]))):
        raise BadParameters(f"{label or 'curve'}: parameters must be finite")

    def evaluator(t, order: int) -> np.ndarray:
        if not _is_array(t):
            return np.array([[c.eval(t, j) for c in coords] for j in range(order + 1)])
        arg = np.multiply.outer(t, freq) + phase
        out = np.stack([(amp * freq**j * np.sin(arg + j * 0.5 * math.pi)) @ owner
                        for j in range(order + 1)], axis=1)
        out[:, 0] += const + np.multiply.outer(t, slope)
        if order:
            out[:, 1] += slope
        return out

    return make_curve(dim, domain, "analytic", max_order, evaluator, label)


def _ellipse_block(a: float, b: float, w: float = 1.0) -> tuple[TrigCoordinate, TrigCoordinate]:
    """The coordinate pair (a cos wt, b sin wt)."""
    return (TrigCoordinate(terms=((a, w, 0.5 * math.pi),)), TrigCoordinate(terms=((b, w, 0.0),)))


def make_circle(r: float, domain: tuple[float, float] = (0.0, _TWO_PI)) -> Curve:
    """Plane circle of radius r, curvature 1/r."""
    if r <= 0:
        raise BadParameters(f"radius must be positive, got {r}")
    return curve_from_coordinates(_ellipse_block(r, r), domain, label=f"circle(r={r})")


def make_ellipse(a: float, b: float, domain: tuple[float, float] = (0.0, _TWO_PI)) -> Curve:
    """Plane ellipse (a cos t, b sin t); its focal curve is the classical evolute."""
    if a <= 0 or b <= 0 or a == b:
        raise BadParameters("ellipse needs distinct positive semi-axes")
    return curve_from_coordinates(_ellipse_block(a, b), domain, label=f"ellipse(a={a},b={b})")


def make_helix(a: float, b: float, domain: tuple[float, float] = (0.0, _TWO_PI)) -> Curve:
    """Circular helix (a cos t, a sin t, b t): curvatures a/(a^2+b^2), b/(a^2+b^2)."""
    if a <= 0:
        raise BadParameters(f"helix radius must be positive, got {a}")
    if b == 0:
        raise BadParameters("helix pitch must be nonzero (use make_circle for b=0)")
    coords = (*_ellipse_block(a, a), TrigCoordinate(slope=b))
    return curve_from_coordinates(coords, domain, label=f"helix(a={a},b={b})")


def make_wcurve(
    radii: Sequence[float],
    frequencies: Sequence[float],
    pitch: float = 0.0,
    dim: int | None = None,
    domain: tuple[float, float] = (0.0, _TWO_PI),
) -> Curve:
    """Curve with constant curvatures: a sum of circles plus an optional axis.

    In dimension 2p the coordinates are p blocks (r_j cos w_j t, r_j sin w_j t);
    an odd ambient dimension appends the linear coordinate pitch * t. Distinct
    positive frequencies with positive radii make the curve generic.
    """
    radii = [float(r) for r in radii]
    freqs = [float(w) for w in frequencies]
    p = len(radii)
    if p == 0 or len(freqs) != p:
        raise BadParameters("radii and frequencies must be non-empty and equally long")
    if any(r <= 0 for r in radii):
        raise BadParameters("radii must be positive")
    if any(w <= 0 for w in freqs) or len(set(freqs)) != p:
        raise BadParameters("frequencies must be positive and pairwise distinct")
    if dim is None:
        dim = 2 * p + (1 if pitch != 0.0 else 0)
    if dim == 2 * p:
        if pitch != 0.0:
            raise BadParameters(f"pitch requires an odd ambient dimension, got dim={dim}")
    elif dim == 2 * p + 1:
        if pitch == 0.0:
            raise BadParameters("odd ambient dimension needs a nonzero pitch")
    else:
        raise BadParameters(f"dim={dim} incompatible with {p} circle blocks")

    coords = [c for r, w in zip(radii, freqs) for c in _ellipse_block(r, r, w)]
    if dim % 2 == 1:
        coords.append(TrigCoordinate(slope=pitch))
    label = f"wcurve(radii={radii},freqs={freqs},pitch={pitch})"
    return curve_from_coordinates(tuple(coords), domain, label=label)


def make_salkowski(n: float, domain: tuple[float, float] | None = None) -> Curve:
    """Space curve with constant first curvature whose principal normal keeps
    a constant angle with the z-axis (angle cosine = n).

    The coordinates are trigonometric polynomials in frequencies 1, 1 +/- 2n
    and 2n; they integrate the unit tangent whose vertical component is
    sqrt(1-n^2) sin(nt), which forces the normal's vertical component to the
    constant n. The parameter must avoid t = 0 (the second curvature
    vanishes there) and |t| = pi/(2n) (the speed vanishes there); the
    default domain is [0.1, 0.8] * pi/(2|n|).

    The constructor validates itself numerically: it fails loudly if the
    measured normal-axis cosine is not constant to 1e-6, or if the first
    curvature strays from 1.
    """
    n = float(n)
    if n == 0.0 or abs(n) >= 1.0:
        raise BadParameters(f"parameter must satisfy 0 < |n| < 1, got {n}")
    if abs(abs(n) - 0.5) < 1e-9:
        raise BadParameters("|n| = 1/2 is a resonant value with no closed form of this shape")
    sin_theta = math.sqrt(1.0 - n * n)
    c_mid = sin_theta * (1.0 - n) / (4.0 * (1.0 + 2.0 * n))
    c_low = sin_theta * (1.0 + n) / (4.0 * (1.0 - 2.0 * n))
    half_pi = 0.5 * math.pi
    coords = (
        TrigCoordinate(terms=(
            (0.5 * sin_theta, 1.0, 0.0),
            (c_mid, 1.0 + 2.0 * n, 0.0),
            (c_low, 1.0 - 2.0 * n, 0.0),
        )),
        TrigCoordinate(terms=(
            (-0.5 * sin_theta, 1.0, half_pi),
            (-c_mid, 1.0 + 2.0 * n, half_pi),
            (-c_low, 1.0 - 2.0 * n, half_pi),
        )),
        TrigCoordinate(terms=((-(1.0 - n * n) / (4.0 * n), 2.0 * n, half_pi),)),
    )
    if domain is None:
        t_max = half_pi / abs(n)
        domain = (0.1 * t_max, 0.8 * t_max)
    curve = curve_from_coordinates(coords, domain, label=f"salkowski(n={n})")
    _validate_salkowski(curve, n)
    return curve


def _validate_salkowski(curve: Curve, n: float) -> None:
    # Constant-angle gate: reject the construction rather than ship a curve
    # whose normal does not actually ride the cone.
    ts = curve.grid(33)
    orth, norms, failed = gram_schmidt_rows(curve.evaluator(ts, 2)[:, 1:])
    if failed.any():
        bad = int(np.argmax(failed > 0))
        raise BadParameters(f"Frenet flag degenerates at t={float(ts[bad])!r}; "
                            "construction rejected")
    cosines = np.abs(orth[:, 1, 2] / norms[:, 1])
    kappa1 = norms[:, 1] / (norms[:, 0] * norms[:, 0])
    drift = float(np.max(np.abs(cosines - abs(n))))
    if drift > 1e-6:
        raise BadParameters(
            f"normal-axis cosine drifts from |n|={abs(n)} (max err {drift:.2e}); "
            "construction rejected"
        )
    if np.max(np.abs(kappa1 - 1.0)) > 1e-6:
        raise BadParameters("first curvature is not the expected constant 1")


def random_trig_curve(
    dim: int,
    seed: int,
    n_terms: int = 3,
    domain: tuple[float, float] = (0.0, _TWO_PI),
) -> Curve:
    """Reproducible generic test curve: random sinusoid mix per coordinate.

    Used for negative controls; nothing about it is helical.
    """
    rng = np.random.default_rng(seed)
    coords = []
    for _ in range(dim):
        freqs = rng.permutation(np.arange(1, n_terms + 3))[:n_terms]
        terms = tuple(
            (float(rng.uniform(0.3, 1.0)), float(f), float(rng.uniform(0.0, _TWO_PI)))
            for f in freqs
        )
        coords.append(TrigCoordinate(terms=terms))
    return curve_from_coordinates(tuple(coords), domain, label=f"random(seed={seed})")


# ---------------------------------------------------------------------------
# arclength
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = leggauss(20)
# Values at the nodes -> Legendre coefficients of their degree-19 interpolant:
# c_k = (k + 1/2) sum_j w_j P_k(x_j) f_j, which the 20-node rule makes exact.
_GL_TO_LEGENDRE = _GL_WEIGHTS[:, None] * legvander(_GL_NODES, 19) * (np.arange(20) + 0.5)


def arc_length(curve: Curve, t0: float, t1: float) -> float:
    """Length of the arc between parameters t0 <= t1, from the table that
    :func:`reparam_to_arclength` builds, with spans no wider than its own."""
    t0 = _check_domain(curve, t0)
    t1 = _check_domain(curve, t1)
    if t1 < t0:
        raise ValueError("t1 must not precede t0")
    spans = max(1, math.ceil(_CHECKPOINTS * (t1 - t0) / curve.length_of_domain))
    return _ArclengthMap(curve, np.linspace(t0, t1, spans + 1)).total


class _ArclengthMap:
    """Arclength as one polynomial per span, inverted without oracle calls.

    The speeds at the 20 Gauss-Legendre nodes of every span between
    consecutive ``edges`` come from one oracle call. On each span, mapped to
    x in [-1, 1], ds/dx is their interpolant and s(x) - s(-1) its
    antiderivative, both kept as Legendre coefficients.
    """

    def __init__(self, curve: Curve, edges: np.ndarray):
        self.ts = edges
        self.half = 0.5 * np.diff(edges)
        nodes = (edges[:-1] + self.half)[:, None] + self.half[:, None] * _GL_NODES
        derivs = np.asarray(curve.evaluator(nodes.ravel(), 1), dtype=float)
        speeds = np.linalg.norm(derivs[:, 1], axis=-1).reshape(nodes.shape)
        bad = np.flatnonzero(~(np.isfinite(speeds) & (speeds > 0.0)))
        if bad.size:
            raise RegularityFailure(f"speed {speeds.flat[bad[0]]:.3e} at "
                                    f"t={nodes.flat[bad[0]]!r} in the arclength table")
        self.rate = speeds @ _GL_TO_LEGENDRE * self.half[:, None]
        self.arc = legint(self.rate, lbnd=-1.0, axis=1)
        self.cum = np.concatenate([[0.0], np.cumsum(self.half * (speeds @ _GL_WEIGHTS))])
        self.total = float(self.cum[-1])

    def invert(self, s: float) -> float:
        """Parameter at arclength s: bracketed Newton on one span's polynomial."""
        s = min(max(s, 0.0), self.total)
        i = int(np.clip(np.searchsorted(self.cum, s) - 1, 0, self.half.size - 1))
        target = float(s - self.cum[i])
        arc, rate = self.arc[i].tolist(), self.rate[i].tolist()
        start, half = float(self.ts[i]), float(self.half[i])
        lo, hi = -1.0, 1.0
        x = min(max(-1.0 + 2.0 * target / max(self.cum[i + 1] - self.cum[i], 1e-300), lo), hi)
        for _ in range(_NEWTON_STEPS):
            p = [1.0, x]  # P_0(x) .. P_20(x) by the three-term recurrence
            for k in range(1, len(arc) - 1):
                p.append(((2 * k + 1) * x * p[k] - k * p[k - 1]) / (k + 1))
            err = sum(map(float.__mul__, p, arc)) - target
            if err > 0.0:
                hi = x
            else:
                lo = x
            slope = sum(map(float.__mul__, p, rate))
            x_new = x - err / slope if slope > 0.0 else math.nan  # nan: bisect
            if not (lo <= x_new <= hi):
                x_new = 0.5 * (lo + hi)
            t = start + half * (1.0 + x_new)
            if err == 0.0 or half * abs(x_new - x) <= 1e-15 * max(1.0, abs(t)):
                return t
            x = x_new
        raise ConvergenceFailure(
            f"arclength inversion at s={s!r} did not converge in {_NEWTON_STEPS} Newton steps"
        )


def _derivs_through_substitution(base: np.ndarray, order: int, fact: np.ndarray) -> np.ndarray:
    """Derivatives w.r.t. arclength from derivatives w.r.t. the old parameter.

    Works in Taylor-coefficient space: build the series of the old parameter
    as a function of arclength by inverting the local length series, then
    compose coordinate-wise.
    """
    dim = base.shape[1]
    n = order + 1
    gcoef = base / fact[:n, None]
    dcoef = gcoef[1:] * np.arange(1, n)[:, None]  # series of the velocity
    w = np.zeros(order)
    for j in range(order):
        for i in range(j + 1):
            w[j] += float(dcoef[i] @ dcoef[j - i])
    v = series_sqrt(w, order)
    scoef = np.zeros(n)
    scoef[1:] = v / np.arange(1, n)
    tcoef = series_reverse(scoef, n)
    out = np.empty((n, dim))
    for c in range(dim):
        out[:, c] = series_compose(gcoef[:, c], tcoef, n)
    return out * fact[:n, None]


def reparam_to_arclength(curve: Curve, checkpoints: int = _CHECKPOINTS) -> Curve:
    """Same trace, parametrized by arclength starting at 0.

    The length table takes one array call to the base oracle (20
    Gauss-Legendre nodes on each of ``checkpoints`` spans) and raises
    :class:`RegularityFailure` at a non-finite or non-positive node speed.
    Each evaluation inverts it by bracketed Newton on one span's polynomial
    (:class:`ConvergenceFailure` if the step budget runs out), then makes one
    scalar base call and rebuilds the derivative oracle by power-series
    substitution, so the unit-speed identity holds to roundoff rather than
    to the accuracy of the inversion.
    """
    amap = _ArclengthMap(curve, curve.grid(checkpoints + 1))
    fact = factorials(curve.max_order + 1)

    def evaluator(s: float, order: int) -> np.ndarray:
        t = amap.invert(s)
        base = np.asarray(curve.evaluator(t, max(order, 1)), dtype=float)
        if order == 0:
            return base[:1]
        return _derivs_through_substitution(base[: order + 1], order, fact)

    return make_curve(
        curve.dimension,
        (0.0, amap.total),
        curve.kind,
        curve.max_order,
        _pointwise(evaluator, curve.dimension),
        label=f"arclength({curve.label or curve.kind})",
        check_regularity=False,
    )


def as_unit_speed(curve: Curve) -> Curve:
    """``curve`` itself when it already has unit speed, else its arclength version.

    The speed is probed in one array call at ``_UNIT_SPEED_PROBES`` evenly
    spaced parameters, endpoints included; the curve counts as unit speed
    when every probe is within ``_UNIT_SPEED_TOL`` of 1.
    """
    derivs = np.asarray(curve.evaluator(curve.grid(_UNIT_SPEED_PROBES), 1), dtype=float)
    worst = float(np.max(np.abs(np.linalg.norm(derivs[:, 1], axis=-1) - 1.0)))
    return curve if worst <= _UNIT_SPEED_TOL else reparam_to_arclength(curve)


# ---------------------------------------------------------------------------
# sampled curves
# ---------------------------------------------------------------------------

def sampled_curve(
    ts: Sequence[float],
    points,
    max_order: int = 5,
    label: str = "sampled",
) -> Curve:
    """Curve through sample rows, differentiated by local stencils.

    Derivative order j uses a window of j + 6 nearest nodes, giving at least
    6th-order accuracy for orders 1-2 and 4th-order beyond; orders above 5
    are refused because difference noise outgrows them. An array of
    parameters gets every window from one ``searchsorted`` and every
    stencil from one stacked :func:`fd_weights` call.
    """
    t = np.asarray(ts, dtype=float)
    P = np.asarray(points, dtype=float)
    if t.ndim != 1 or P.ndim != 2 or P.shape[0] != t.size:
        raise BadParameters("need matching (N,) parameters and (N, dim) points")
    if t.size < 8:
        raise BadParameters(f"need at least 8 samples, got {t.size}")
    if np.any(np.diff(t) <= 0):
        raise BadParameters("sample parameters must be strictly increasing")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(P))):
        raise BadParameters("samples contain non-finite values")
    max_order = int(min(max_order, 5, t.size - 6))

    def evaluator(x, order: int) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        size = min(order + 6, t.size)
        centers = np.clip(np.searchsorted(t, xs), 0, t.size - 1)
        idx = window_starts(t.size, centers, size)[:, None] + np.arange(size)
        out = fd_weights(t[idx], xs, order) @ P[idx]
        return out if _is_array(x) else out[0]

    return make_curve(P.shape[1], (float(t[0]), float(t[-1])), "sampled",
                      max_order, evaluator, label)


# ---------------------------------------------------------------------------
# curvature profiles and curve synthesis
# ---------------------------------------------------------------------------

class ProfileFunction:
    """Scalar function of arclength with derivatives: f(s, order)."""

    def __call__(self, s: float, order: int = 0) -> float:  # pragma: no cover
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantProfile(ProfileFunction):
    value: float

    def __call__(self, s: float, order: int = 0) -> float:
        return self.value if order == 0 else 0.0


@dataclass(frozen=True)
class LinearProfile(ProfileFunction):
    intercept: float
    slope: float

    def __call__(self, s: float, order: int = 0) -> float:
        if order == 0:
            return self.intercept + self.slope * s
        return self.slope if order == 1 else 0.0


@dataclass(frozen=True)
class SinusoidProfile(ProfileFunction):
    offset: float
    amplitude: float
    frequency: float
    phase: float = 0.0

    def __call__(self, s: float, order: int = 0) -> float:
        val = self.amplitude * self.frequency**order * math.sin(
            self.frequency * s + self.phase + order * 0.5 * math.pi
        )
        return val + self.offset if order == 0 else val


class SplineProfile(ProfileFunction):
    """Clamped cubic interpolant of sampled curvature values.

    End slopes are estimated from one-sided 4th-order stencils so clamping
    does not flatten the ends artificially. Derivative orders above 3 are
    reported as zero, which bounds how far synthesized curves built from
    sampled profiles can push their reconstructed derivative order.
    """

    def __init__(self, s_nodes, values):
        s = np.asarray(s_nodes, dtype=float)
        y = np.asarray(values, dtype=float)
        if s.size < 5:
            raise InvalidProfile("need at least 5 sample rows for a spline profile")
        w = fd_weights(np.stack([s[:5], s[-5:]]), s[[0, -1]], 1)[:, 1]
        left, right = w[0] @ y[:5], w[1] @ y[-5:]
        self._spline = CubicSpline(s, y, bc_type=((1, float(left)), (1, float(right))))

    def __call__(self, s: float, order: int = 0) -> float:
        if order > 3:
            return 0.0
        return float(self._spline(s, nu=order))


@dataclass(frozen=True)
class CurvatureProfile:
    """m curvature functions of arclength over a common domain.

    All but the last must be strictly positive there, checked on a probe
    grid at construction.
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
        for i, f in enumerate(self.functions[:-1], start=1):
            vals = np.array([f(s) for s in probe])
            if np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
                raise InvalidProfile(f"curvature {i} must stay positive on the domain")
        last = np.array([self.functions[-1](s) for s in probe])
        if not np.all(np.isfinite(last)):
            raise InvalidProfile("last curvature is non-finite on the domain")

    @property
    def count(self) -> int:
        return len(self.functions)

    def values(self, s: float) -> np.ndarray:
        return np.array([f(s) for f in self.functions])

    def taylor(self, s: float, n: int) -> np.ndarray:
        """Taylor coefficients of each curvature at s, shape (count, n)."""
        fact = factorials(n)
        return np.array([[f(s, j) / fact[j] for j in range(n)] for f in self.functions])

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


def _frenet_matrix(kappas: np.ndarray) -> np.ndarray:
    """Antisymmetric tridiagonal coefficient matrix of the frame equations."""
    m = kappas.size
    M = np.zeros((m + 1, m + 1))
    for i, k in enumerate(kappas):
        M[i, i + 1] = k
        M[i + 1, i] = -k
    return M


def _orthonormalize_rows(F: np.ndarray) -> np.ndarray:
    orth, norms = gram_schmidt(F)
    return orth / norms[:, None]


def _body_frame_derivatives(
    frame: np.ndarray,
    kappa_series: np.ndarray,
    order: int,
) -> np.ndarray:
    """Derivatives (orders 1..order) of a unit-speed curve from its frame.

    Expands each derivative in the moving frame; the coefficient series obey
    a ladder recursion coupling neighbors through the curvature series.
    """
    mp1 = frame.shape[0]
    n = order
    coeff = np.zeros((mp1, n))
    coeff[0, 0] = 1.0  # first derivative is the unit tangent
    rows = [frame[0].copy()]
    for _ in range(order - 1):
        nxt = np.zeros_like(coeff)
        for l in range(mp1):
            nxt[l, :-1] = series_diff(coeff[l])[: n - 1]
            if l >= 1:
                nxt[l] += series_mul(kappa_series[l - 1], coeff[l - 1], n)
            if l <= mp1 - 2:
                nxt[l] -= series_mul(kappa_series[l], coeff[l + 1], n)
        coeff = nxt
        rows.append(coeff[:, 0] @ frame)
    return np.array(rows)


def synthesize_from_curvatures(
    profile: CurvatureProfile,
    dim: int,
    initial_point=None,
    initial_frame=None,
    step: float | None = None,
) -> Curve:
    """Integrate the frame equations for a prescribed curvature profile.

    Classical 4th-order Runge-Kutta at a fixed step (domain/4096 by default)
    on the joint state (position, frame), with the frame re-orthonormalized
    after every step. The result is unit speed by construction. Derivatives
    above the first are reconstructed from the interpolated frame and the
    profile's own derivatives, so the returned curve supports max_order
    m + 2. A step that needs more than ``_MAX_ODE_STEPS`` (2^20) steps
    raises BadParameters before anything is allocated.
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

    point = np.zeros(dim) if initial_point is None else np.asarray(initial_point, dtype=float)
    frame = np.eye(dim) if initial_frame is None else np.asarray(initial_frame, dtype=float)
    if point.shape != (dim,):
        raise BadParameters(f"initial point must have length {dim}")
    if frame.shape != (dim, dim):
        raise BadParameters(f"initial frame must be {dim} vectors of length {dim}")
    if np.max(np.abs(frame @ frame.T - np.eye(dim))) > 1e-8:
        raise NonOrthonormalFrame("initial frame is not orthonormal to 1e-8")

    nodes = lo + h * np.arange(n_steps + 1)
    # Validate positivity at every integration node, not just the probe grid.
    last_max = 0.0
    for s in nodes:
        vals = profile.values(s)
        if np.any(vals[:-1] <= 0.0):
            raise InvalidProfile(f"curvature became non-positive at s={s!r}")
        last_max = max(last_max, abs(float(vals[-1])))
    if m >= 2 and last_max < 1e-14:
        raise InvalidProfile(
            "last curvature vanishes identically: the curve has lower osculating "
            "order; drop it and synthesize one dimension down"
        )

    def rhs(s: float, gamma: np.ndarray, F: np.ndarray):
        M = _frenet_matrix(profile.values(s))
        return F[0], M @ F

    gammas = np.empty((n_steps + 1, dim))
    frames = np.empty((n_steps + 1, dim, dim))
    gammas[0], frames[0] = point, _orthonormalize_rows(frame)
    g, F = gammas[0].copy(), frames[0].copy()
    for i in range(n_steps):
        s = nodes[i]
        k1g, k1f = rhs(s, g, F)
        k2g, k2f = rhs(s + 0.5 * h, g + 0.5 * h * k1g, F + 0.5 * h * k1f)
        k3g, k3f = rhs(s + 0.5 * h, g + 0.5 * h * k2g, F + 0.5 * h * k2f)
        k4g, k4f = rhs(s + h, g + h * k3g, F + h * k3f)
        g = g + (h / 6.0) * (k1g + 2.0 * k2g + 2.0 * k3g + k4g)
        F = F + (h / 6.0) * (k1f + 2.0 * k2f + 2.0 * k3f + k4f)
        drift = float(np.max(np.abs(F @ F.T - np.eye(dim))))
        if drift > 1e-10:
            raise NonOrthonormalFrame(f"frame drift {drift:.2e} in one step at s={s!r}")
        F = _orthonormalize_rows(F)
        gammas[i + 1], frames[i + 1] = g, F

    frame_dots = np.array([_frenet_matrix(profile.values(s)) @ Fi
                           for s, Fi in zip(nodes, frames)])
    tangents = frames[:, 0, :]
    max_order = m + 2

    def _hermite(y0, d0, y1, d1, u, hh):
        # cubic Hermite basis on [0, 1] scaled to step hh
        u2, u3 = u * u, u * u * u
        return ((2 * u3 - 3 * u2 + 1) * y0 + (u3 - 2 * u2 + u) * hh * d0
                + (-2 * u3 + 3 * u2) * y1 + (u3 - u2) * hh * d1)

    def evaluator(s: float, order: int) -> np.ndarray:
        i = int(np.clip(np.searchsorted(nodes, s) - 1, 0, n_steps - 1))
        u = (s - nodes[i]) / h
        pos = _hermite(gammas[i], tangents[i], gammas[i + 1], tangents[i + 1], u, h)
        if order == 0:
            return pos[None, :]
        F = _hermite(frames[i], frame_dots[i], frames[i + 1], frame_dots[i + 1], u, h)
        F = _orthonormalize_rows(F)
        kser = profile.taylor(s, max(order, 2))
        rows = _body_frame_derivatives(F, kser, order)
        return np.vstack([pos[None, :], rows])

    return make_curve(dim, (lo, hi), "synthesized", max_order, _pointwise(evaluator, dim),
                      label=f"synthesized(m={m})")
