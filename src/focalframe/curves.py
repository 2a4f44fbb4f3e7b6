"""Curve representations with derivative oracles.

A curve is an immutable value: a dimension, a parameter interval and an
evaluator that returns the stack of derivatives up to a requested order.
Four kinds exist. Analytic curves carry closed-form oracles to every
supported order. Arclength curves rebuild a base curve's oracle after
reparametrization. Sampled curves differentiate fixed sample rows with
finite-difference stencils and are trustworthy up to derivative order 5.
Synthesized curves come out of integrating the frame equations for a
prescribed curvature profile by a 4th-order Magnus step, whose skew
exponentials are real Taylor polynomials with scaling and squaring and
whose frames are running products of them; their high derivatives are
reconstructed from the frame and the profile, not differenced.

Evaluators take arrays of N parameters only, and curvature profiles
broadcast over arclength arrays. :func:`eval_derivatives` is the one
entry point that also takes a scalar, as the one-row case.

Curves must be C^{m+2}-smooth on their domain for the downstream focal
and slant analyses to reach their stated tolerances; all builtin
generators are real-analytic.

Everything here is pure and thread-safe: evaluators share no state, and
curves never change after construction except for two private slots: in
one the Frenet layer keeps the curve's last grid pass, in the other
:func:`reparam_to_arclength` keeps the curve's arclength version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss, legint, legvander

from .errors import (
    BadParameters,
    ConvergenceFailure,
    DegenerateFlag,
    InvalidProfile,
    NonOrthonormalFrame,
    OrderUnsupported,
    OutOfDomain,
    RegularityFailure,
)
from .linalg import RANK_RTOL, gram_schmidt_rows
from .numdiff import fd_weights, window_starts
from .series import factorials, series_reverse_powers, series_sqrt

_DOMAIN_SLACK = 1e-9
_PROBE_POINTS = 64
_DEFAULT_ODE_STEPS = 4096
_MAX_ODE_STEPS = 1 << 20
_MAGNUS_CHUNK = 512
_EXPM_THETA = 0.25
_EXPM_TOL = 1e-17
_GAUSS_OFFSETS = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0
_TWO_PI = 2.0 * math.pi
# Spans of a length table over the whole domain: it starts from
# _START_SPANS equal ones and evaluates at most _MAX_SPANS, split ones
# included, the 512 spans of 20 nodes of the fixed table that the tail rule
# replaced. An arc over a fraction of the domain gets that fraction of both.
_START_SPANS = 32
_MAX_SPANS = 512
# A span splits while the larger of its last two Legendre coefficients of the
# speed exceeds this fraction of its largest one. Roundoff alone leaves them
# near (19 + 1/2) eps = 4.3e-15, measured at 3.9e-15 to 5.5e-15 on every
# analytic family at 4-64 spans; a smooth curve's tail sinks to that floor,
# while a speed that switches stencils inside a span never does.
_TAIL_RTOL = 1e-13
_NEWTON_STEPS = 60
_UNIT_SPEED_PROBES = 17
_UNIT_SPEED_TOL = 1e-8


@dataclass(frozen=True)
class Curve:
    """Evaluable map from a real interval into E^{m+1}.

    ``evaluator(t, order)`` takes a 1-d float array of N parameters inside
    the domain and returns shape (N, order + 1, dimension): for each
    parameter, the position and the derivatives up to ``order``. Every
    kind evaluates the N points in one pass. Use the module-level
    :func:`eval_derivatives` for the domain-, order- and shape-checked
    entry point; it also takes a scalar, as the one-row case.

    The evaluator returns a fresh array on every call, which callers may
    keep or mark read-only. Two private one-item lists keep what was
    computed from the curve: ``_frenet_memo`` is where
    :mod:`focalframe.frenet` keeps the curve's last grid pass, and
    ``_arclength_memo`` is where :func:`reparam_to_arclength` keeps the
    curve's arclength version. They take no part in construction,
    equality, hashing or ``repr``, so ``dataclasses.replace`` gives a curve
    with empty slots.
    """

    dimension: int
    domain: tuple[float, float]
    kind: str
    max_order: int
    evaluator: Callable[[np.ndarray, int], np.ndarray] = field(repr=False)
    label: str = ""
    _frenet_memo: list = field(default_factory=lambda: [None], init=False, repr=False,
                               compare=False)
    _arclength_memo: list = field(default_factory=lambda: [None], init=False, repr=False,
                                  compare=False)

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


def _check_domain(curve: Curve, t: np.ndarray) -> np.ndarray:
    """Clamp the 1-d parameter array ``t`` into the domain, allowing for slack.

    Raises OutOfDomain naming the first value beyond the slack (NaN included).
    """
    lo, hi = curve.domain
    slack = _DOMAIN_SLACK * max(1.0, abs(lo), abs(hi))
    if t.ndim != 1:
        raise ValueError(f"expected a scalar or a 1-d array of parameters, got shape {t.shape}")
    inside = (lo - slack <= t) & (t <= hi + slack)
    if np.count_nonzero(inside) < t.size:
        raise OutOfDomain(f"t={float(t[np.argmin(inside)])!r} outside [{lo!r}, {hi!r}]")
    return np.minimum(np.maximum(t, lo), hi)


def eval_derivatives(curve: Curve, t, order: int) -> np.ndarray:
    """Position and derivatives of ``curve`` at ``t``, rows 0..order.

    A 1-d array of N parameters gives shape (N, order + 1, dimension) from
    one evaluator call; a scalar ``t`` is its one-row case and gives
    (order + 1, dimension), with the bits of that row of an array call.
    Every call checks the order and the domain and calls the evaluator;
    nothing is kept.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > curve.max_order:
        raise OrderUnsupported(
            f"order {order} exceeds max_order {curve.max_order} of this {curve.kind} curve"
        )
    ts = np.asarray(t, dtype=float)
    scalar = ts.ndim == 0
    ts = _check_domain(curve, ts.reshape(1) if scalar else ts)
    shape = (ts.size, order + 1, curve.dimension)
    out = np.asarray(curve.evaluator(ts, order), dtype=float)
    if out.shape != shape:
        raise RuntimeError(f"evaluator returned shape {out.shape}, expected {shape}")
    return out[0] if scalar else out


def _probe_regularity(curve: Curve) -> None:
    ts = np.linspace(curve.domain[0], curve.domain[1], _PROBE_POINTS)
    speeds = np.linalg.norm(np.asarray(curve.evaluator(ts, 1), dtype=float)[:, 1], axis=-1)
    if not np.all(np.isfinite(speeds)):
        raise RegularityFailure("derivative oracle returned non-finite values on probe grid")
    scale = max(1.0, float(speeds.max()))
    if speeds.min() <= 1e-12 * scale:
        bad = float(ts[int(np.argmin(speeds))])
        raise RegularityFailure(f"speed {speeds.min():.3e} at t={bad!r} is not above "
                                f"1e-12 * max(1, largest probe speed {speeds.max():.1e})")


def make_curve(
    dimension: int,
    domain: tuple[float, float],
    kind: str,
    max_order: int,
    evaluator: Callable[[np.ndarray, int], np.ndarray],
    label: str = "",
    check_regularity: bool = True,
) -> Curve:
    """Validated Curve constructor used by every factory in this module.

    ``evaluator`` must follow the :class:`Curve` contract: a 1-d array of N
    parameters in, shape (N, order + 1, dimension) out.
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


def curve_from_coordinates(
    coords: Sequence[TrigCoordinate],
    domain: tuple[float, float],
    label: str = "",
    max_order: int | None = None,
) -> Curve:
    dim = len(coords)
    if max_order is None:
        max_order = dim + 1
    # Every term and every derivative order in one sin call; one product
    # with the 0/1 matrix ``owner`` sums the terms into their coordinates.
    terms = [(j, *term) for j, c in enumerate(coords) for term in c.terms]
    owner = np.eye(dim)[[j for j, *_ in terms]]
    amp, freq, phase = np.array([term for _, *term in terms], dtype=float).reshape(-1, 3).T
    const, slope = np.array([(c.const, c.slope) for c in coords], dtype=float).T
    if not np.all(np.isfinite(np.concatenate([amp, freq, phase, const, slope]))):
        raise BadParameters(f"{label or 'curve'}: parameters must be finite")
    scale = np.array([amp * freq**j for j in range(max_order + 1)])
    quarter = np.array([[j * 0.5 * math.pi] for j in range(max_order + 1)])

    def evaluator(t: np.ndarray, order: int) -> np.ndarray:
        # At least two rows per point: numpy takes a one-row product through
        # another BLAS routine, whose sums can differ in the last bit.
        k = max(order, 1) + 1
        vals = (np.multiply.outer(t, freq) + phase)[:, None, :] + quarter[:k]
        np.sin(vals, out=vals)
        vals *= scale[:k]
        out = (vals.reshape(t.size * k, freq.size) @ owner).reshape(t.size, k, dim)[:, :order + 1]
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


def _legendre_to_power(degree: int) -> np.ndarray:
    """Row k holds the power coefficients of the Legendre polynomial P_k.

    Bonnet's recurrence (k + 1) P_{k+1} = (2k + 1) x P_k - k P_{k-1} gives
    every coefficient exactly in floating point up to degree 20.
    """
    table = np.eye(degree + 1)
    for k in range(1, degree):
        table[k + 1, 1:] = (2 * k + 1) * table[k, :-1]
        table[k + 1] = (table[k + 1] - k * table[k - 1]) / (k + 1)
    return table


# Newton evaluates each span in power form. The tail rule leaves a span's
# Legendre coefficients decayed to roundoff (a sampled curve's 512 equal
# spans nearly so), and then the power form matches the Legendre form to
# 8.9e-16 of the span's length, and ds/dx to 1.1e-15 of its largest value,
# measured on the analytic test families, the steep curve, an ellipse with
# semi-axes 0.2 and 2 and helices of 200, 256 and 1000 samples: nothing the
# Newton stop rule can see.
_LEGENDRE_TO_POWER = _legendre_to_power(20)
_POWERS = np.arange(21.0)[None, :]


def arc_length(curve: Curve, t0: float, t1: float) -> float:
    """Length of the arc between parameters t0 <= t1, from the length table
    that :func:`reparam_to_arclength` builds, built over [t0, t1] with the
    arc's share of its spans."""
    t0, t1 = _check_domain(curve, np.array([t0, t1], dtype=float)).tolist()
    if t1 < t0:
        raise ValueError("t1 must not precede t0")
    return _length_table(curve, t0, t1).total


def _node_speeds(curve: Curve, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Speeds at the 20 Gauss-Legendre nodes of each span [lo, hi], shape
    (spans, 20), from one oracle call; RegularityFailure at a non-finite or
    non-positive one."""
    half = 0.5 * (hi - lo)
    nodes = (lo + half)[:, None] + half[:, None] * _GL_NODES
    derivs = np.asarray(curve.evaluator(nodes.ravel(), 1), dtype=float)
    speeds = np.linalg.norm(derivs[:, 1], axis=-1).reshape(nodes.shape)
    bad = np.flatnonzero(~(np.isfinite(speeds) & (speeds > 0.0)))
    if bad.size:
        raise RegularityFailure(f"speed {speeds.flat[bad[0]]:.3e} at "
                                f"t={nodes.flat[bad[0]]!r} in the arclength table")
    return speeds


def _length_table(curve: Curve, t0: float, t1: float) -> _ArclengthMap:
    """The length table over [t0, t1], a fraction f of the domain: at most
    ceil(f ``_MAX_SPANS``) evaluated spans, the fixed table's count, from
    ceil(f ``_START_SPANS``) equal ones. A sampled curve starts from all of
    them: its stencils switch at the sample nodes, so the speed jumps there
    and the Legendre tail of a span across a node stays at the jump, however
    narrow the span; splits would only spend the budget on a coarser table."""
    width = curve.length_of_domain
    fraction = (t1 - t0) / width if width > 0.0 else 1.0
    cap = max(1, math.ceil(_MAX_SPANS * fraction))
    start = cap if curve.kind == "sampled" else max(1, math.ceil(_START_SPANS * fraction))
    return _ArclengthMap(curve, np.linspace(t0, t1, start + 1), cap)


class _ArclengthMap:
    """Arclength as one polynomial per span, inverted without oracle calls.

    The table starts from the spans between consecutive ``edges`` and sizes
    itself by the Legendre coefficients of the speed on each span (the
    chopping rule of Aurentz and Trefethen, ACM TOMS 43, 2017): a span
    whose tail, the larger of its last two coefficients, exceeds
    ``_TAIL_RTOL`` times its largest coefficient splits in two, and only
    the halves are evaluated, one oracle call per round, the worst tails
    first, until every tail is at roundoff or ``max_spans`` spans have
    been evaluated. The rule is unit-free: scaling space or the parameter
    scales every coefficient of a span alike, so the split spans stay the
    same. ``edges`` keeps the final span edges.

    On each span, mapped to x in [-1, 1], ds/dx is the interpolant of the
    speeds at its 20 Gauss-Legendre nodes and s(x) - s(-1) its
    antiderivative, both built as Legendre coefficients and kept as power
    coefficients in x, so that a Newton step over any number of points is
    a fixed handful of array operations.
    """

    def __init__(self, curve: Curve, edges: np.ndarray, max_spans: int = _MAX_SPANS):
        lo, hi = edges[:-1], edges[1:]
        speeds = _node_speeds(curve, lo, hi)
        coef = speeds @ _GL_TO_LEGENDRE
        budget = max_spans - lo.size
        while budget >= 2:
            tail = np.abs(coef[:, -2:]).max(axis=1) / np.abs(coef).max(axis=1)
            split = np.flatnonzero(tail > _TAIL_RTOL)
            if not split.size:
                break
            split = np.sort(split[np.argsort(-tail[split], kind="stable")[:budget // 2]])
            mid = 0.5 * (lo[split] + hi[split])
            new_lo, new_hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
            new_speeds = _node_speeds(curve, new_lo, new_hi)
            keep = np.ones(lo.size, dtype=bool)
            keep[split] = False
            lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
            speeds = np.concatenate([speeds[keep], new_speeds])
            coef = np.concatenate([coef[keep], new_speeds @ _GL_TO_LEGENDRE])
            budget -= new_lo.size
            order = np.argsort(lo, kind="stable")
            lo, hi, speeds, coef = lo[order], hi[order], speeds[order], coef[order]
        self.edges = np.append(lo, hi[-1])
        half = 0.5 * (hi - lo)
        rate = coef * half[:, None]
        self.cum = np.concatenate([[0.0], np.cumsum(half * (speeds @ _GL_WEIGHTS))])
        self.total = float(self.cum[-1])
        # Per span: power coefficients of s(x) - s(-1) and of ds/dx (degree 19,
        # padded to 20) as the two columns of a (21, 2) block, and the span's
        # first arclength, its length (at least 1e-300, a divisor of the start
        # guess), first parameter and half width.
        self.poly = np.stack([legint(rate, lbnd=-1.0, axis=1) @ _LEGENDRE_TO_POWER,
                              rate @ _LEGENDRE_TO_POWER[:20]], axis=2)
        self.span = np.column_stack([self.cum[:-1], np.maximum(np.diff(self.cum), 1e-300),
                                     lo, half])

    def invert(self, s: np.ndarray) -> np.ndarray:
        """Parameters at the arclengths ``s`` (a 1-d array).

        Bracketed Newton on each point's span polynomial, all points at once:
        a point leaves the active set once its step is below 1e-15 relative
        in t. The start is the linear guess, the arclength's share of the
        span. From it a constant-speed span converges in one step; the
        ellipse arc and the elliptical helix take three and Salkowski
        curves four, the last confirming. Raises ConvergenceFailure naming
        the first s still active after ``_NEWTON_STEPS`` steps.
        """
        s = np.minimum(np.maximum(s, 0.0), self.total)
        i = np.searchsorted(self.cum[1:-1], s)
        s_lo, width, start, half = self.span[i].T
        poly = self.poly[i]
        target = s - s_lo
        x = np.minimum(np.maximum(-1.0 + 2.0 * target / width, -1.0), 1.0)
        lo, hi = -1.0, 1.0  # arrays after the first step
        active = np.arange(s.size)
        t = np.empty_like(s)
        for _ in range(_NEWTON_STEPS):
            err, slope = (x[:, None, None] ** _POWERS @ poly)[:, 0].T
            err = err - target
            above = err > 0.0
            hi = np.where(above, x, hi)
            lo = np.where(above, lo, x)
            x_new = x - err / np.where(slope > 0.0, slope, np.nan)  # nan: bisect
            x_new = np.where((lo <= x_new) & (x_new <= hi), x_new, 0.5 * (lo + hi))
            t_new = start + half * (1.0 + x_new)
            done = (err == 0.0) | (half * np.abs(x_new - x)
                                   <= 1e-15 * np.maximum(1.0, np.abs(t_new)))
            finished = np.count_nonzero(done)
            if finished == done.size:
                t[active] = t_new
                return t
            x = x_new
            if finished:
                t[active[done]] = t_new[done]
                keep = ~done
                active, x, lo, hi = active[keep], x[keep], lo[keep], hi[keep]
                target, poly, start, half = target[keep], poly[keep], start[keep], half[keep]
        raise ConvergenceFailure(f"arclength inversion at s={float(s[active[0]])!r} did not "
                                 f"converge in {_NEWTON_STEPS} Newton steps")


def _derivs_through_substitution(base: np.ndarray, order: int) -> np.ndarray:
    """Derivatives w.r.t. arclength from derivatives w.r.t. the old parameter.

    ``base`` is a stack of shape (N, order + 1, dim). Works in
    Taylor-coefficient space: the length series is the integral of the
    square root of |velocity|^2, its powers-table inverse gives the old
    parameter as a series in arclength, and one contraction composes every
    coordinate with it.

    The work is done in ``np.longdouble`` and rounded to float64 at the
    end. Where the base curve is slow the Taylor terms cancel heavily: at
    order 4 on Salkowski n = 0.7 near the end of its domain (speed 0.24)
    terms of about 250 sum to 0.71, and in float64 the result was up to
    7.4e-14 of its order's scale from the exact value for the same inputs.
    The 64-bit significand of x86-64's long double brings every order
    within 1.2e-16 of that scale, at about 1.5 times the cost over a few
    hundred rows and none for one; where long double is float64 the
    float64 figures hold.
    """
    fact = factorials(order + 1)[:, None]
    ks = np.arange(1.0, order + 1)
    gcoef = base.astype(np.longdouble) / fact
    dcoef = gcoef[:, 1:] * ks[:, None]  # series of the velocity
    # |velocity|^2: the Cauchy product sums dcoef[i] . dcoef[k] over i + k = j,
    # the flat entries (i, k) of the Gram table taken by anti-diagonal
    gram = (dcoef @ dcoef.transpose(0, 2, 1)).reshape(len(base), order * order)
    perm = [i * order + (j - i) for j in range(order) for i in range(j + 1)]
    w = np.add.reduceat(gram[:, perm], [j * (j + 1) // 2 for j in range(order)], axis=1)
    P = series_reverse_powers(series_sqrt(w, order) / ks, order + 1)
    # f(T) = sum_k f_k T^k, added from the highest power down as Horner's rule
    # does; the order matters at roundoff where the terms cancel heavily
    return (np.einsum("nkc,nkj->njc", gcoef[:, ::-1], P[:, ::-1]) * fact).astype(float)


def reparam_to_arclength(curve: Curve) -> Curve:
    """Same trace, parametrized by arclength starting at 0.

    The length table (:class:`_ArclengthMap`) evaluates the speed at 20
    Gauss-Legendre nodes on each of ``_START_SPANS`` equal spans in one
    array call to the base oracle, then splits only the spans whose
    Legendre tail of the speed is above roundoff and evaluates only their
    halves, within ``_MAX_SPANS`` evaluated spans (the analytic families
    never split). A sampled curve's table is ``_MAX_SPANS`` equal spans
    from the start (see :func:`_length_table`). It raises
    :class:`RegularityFailure` at a non-finite or non-positive node speed.
    An evaluation of N arclengths inverts the table for all of them in one
    bracketed Newton solve started from the linear guess on each span
    (one step on constant-speed spans, three or four on the varying
    analytic families; :class:`ConvergenceFailure` if the step budget runs
    out), makes one base oracle call at the N parameters and rebuilds the
    derivative oracle by one stacked power-series substitution
    (:func:`_derivs_through_substitution`), so the unit-speed identity holds
    to roundoff rather than to the accuracy of the inversion.

    The curve keeps its arclength version: a repeat call returns the same
    curve, with the grid pass that curve keeps, and builds no second table.
    The version's evaluator holds the base evaluator and the table, not the
    base curve, so keeping it makes no reference cycle.
    """
    kept = curve._arclength_memo[0]
    if kept is not None:
        return kept
    amap = _length_table(curve, *curve.domain)
    base_evaluator = curve.evaluator

    def evaluator(s: np.ndarray, order: int) -> np.ndarray:
        base = np.asarray(base_evaluator(amap.invert(s), max(order, 1)), dtype=float)
        if order == 0:
            return base[:, :1]
        return _derivs_through_substitution(base[:, :order + 1], order)

    unit = make_curve(
        curve.dimension,
        (0.0, amap.total),
        curve.kind,
        curve.max_order,
        evaluator,
        label=f"arclength({curve.label or curve.kind})",
        check_regularity=False,
    )
    # One store of a complete curve: threads that miss together build equal
    # versions, and a reader sees either none or a whole one.
    curve._arclength_memo[0] = unit
    return unit


def as_unit_speed(curve: Curve) -> Curve:
    """``curve`` itself when it already has unit speed, else its arclength
    version, the one :func:`reparam_to_arclength` keeps.

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
    are refused because difference noise outgrows them. An evaluation gets
    every window from one ``searchsorted`` and every stencil from one
    stacked :func:`fd_weights` call.
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

    def evaluator(x: np.ndarray, order: int) -> np.ndarray:
        size = min(order + 6, t.size)
        centers = np.clip(np.searchsorted(t, x), 0, t.size - 1)
        idx = window_starts(t.size, centers, size)[:, None] + np.arange(size)
        return fd_weights(t[idx], x, order) @ P[idx]

    return make_curve(P.shape[1], (float(t[0]), float(t[-1])), "sampled",
                      max_order, evaluator, label)


# ---------------------------------------------------------------------------
# curvature profiles and curve synthesis
# ---------------------------------------------------------------------------

class ProfileFunction:
    """Function of arclength with derivatives, ``f(s, order)``, broadcast over
    ``s``: it returns a float array of ``s``'s shape (0-d for a scalar)."""

    def __call__(self, s, order: int = 0) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError


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
    span) and Horner's rule over arrays for orders 0-3. Derivative orders
    above 3 are reported as zero, which bounds how far synthesized curves
    built from sampled profiles can push their reconstructed derivative
    order.
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
        if order > 3:
            return np.zeros(s.shape)
        i = np.searchsorted(self._inner, s, side="right")
        d = s - self._nodes[i]
        c3, c2, c1, c0 = self._coef[:, i]
        if order == 0:
            return ((c3 * d + c2) * d + c1) * d + c0
        if order == 1:
            return (3.0 * c3 * d + 2.0 * c2) * d + c1
        if order == 2:
            return 6.0 * c3 * d + 2.0 * c2
        return 6.0 * c3


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
        """Taylor coefficients of each curvature at s, shape ``s.shape + (count, n)``."""
        derivs = np.stack([np.stack([f(s, j) for j in range(n)], axis=-1)
                           for f in self.functions], axis=-2)
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


def _hermite(y0, d0, y1, d1, u, h):
    """Cubic Hermite interpolant on [0, 1] scaled to step h, at fractions u."""
    u2, u3 = u * u, u * u * u
    return ((2 * u3 - 3 * u2 + 1) * y0 + (u3 - 2 * u2 + u) * h * d0
            + (-2 * u3 + 3 * u2) * y1 + (u3 - u2) * h * d1)


@dataclass(frozen=True, eq=False)
class _SynthesizedOracle:
    """Evaluator of a synthesized curve over its integration tables: the
    position, frame and frame derivative at each node."""

    profile: CurvatureProfile
    nodes: np.ndarray
    h: float
    gammas: np.ndarray
    frames: np.ndarray
    frame_dots: np.ndarray

    def __call__(self, s: np.ndarray, order: int) -> np.ndarray:
        i = np.clip(np.searchsorted(self.nodes, s) - 1, 0, self.nodes.size - 2)
        u = ((s - self.nodes[i]) / self.h)[:, None]
        pos = _hermite(self.gammas[i], self.frames[i, 0], self.gammas[i + 1],
                       self.frames[i + 1, 0], u, self.h)
        if order == 0:
            return pos[:, None]
        F = _hermite(self.frames[i], self.frame_dots[i], self.frames[i + 1],
                     self.frame_dots[i + 1], u[:, :, None], self.h)
        orth, norms, failed = gram_schmidt_rows(F)
        if failed.any():
            r = int(np.argmax(failed > 0))
            j = int(failed[r])
            raise DegenerateFlag(j, norms[r, j - 1], RANK_RTOL * norms[r, 0] ** j)
        kappa_series = self.profile.taylor(s, order)
        rows = _body_frame_derivatives(orth / norms[:, :, None], kappa_series, order)
        return np.concatenate([pos[:, None], rows], axis=1)


def _magnus_exponentials(a: np.ndarray, b: np.ndarray, h: float) -> np.ndarray:
    """exp(Omega) for each row of the curvatures ``a``, ``b`` at a step's two
    Gauss points, shape (N, m + 1, m + 1).

    Omega = h/2 (A1 + A2) + sqrt(3) h^2/12 [A2, A1], for the tridiagonal
    skew A1, A2 with super-diagonals a, b: the commutator lives on the
    second super-diagonal alone, as b_i a_{i+1} - a_i b_{i+1}. The stack is
    exponentiated in real arithmetic by scaling and squaring: scaled by
    2^-j so that its largest 1-norm is below ``_EXPM_THETA``, then a
    Taylor polynomial of the least degree q whose truncation term
    theta^(q+1)/(q+1)! is below ``_EXPM_TOL``, by Horner's rule, then
    squared j times. At the default step j = 0 and q is about 5. A zero
    row gives the identity exactly. The result is orthogonal to roundoff,
    not by construction.
    """
    n, m = a.shape
    r = np.arange(m)
    omega = np.zeros((n, m + 1, m + 1))
    omega[:, r, r + 1] = 0.5 * h * (a + b)
    omega[:, r[:-1], r[:-1] + 2] = (math.sqrt(3.0) * h * h / 12.0) * (
        b[:, :-1] * a[:, 1:] - a[:, :-1] * b[:, 1:])
    omega -= omega.transpose(0, 2, 1)
    norm = float(np.abs(omega).sum(axis=1).max())
    j = max(0, math.frexp(norm / _EXPM_THETA)[1])
    theta = math.ldexp(norm, -j)
    q, term = 1, theta * theta / 2.0
    while term >= _EXPM_TOL:
        q += 1
        term *= theta / (q + 1)
    X = omega * math.ldexp(1.0, -j)
    eye = np.eye(m + 1)
    E = eye + X / q
    for k in range(q - 1, 0, -1):
        E = eye + (X @ E) / k
    for _ in range(j):
        E = E @ E
    return E


def synthesize_from_curvatures(
    profile: CurvatureProfile,
    dim: int,
    initial_point=None,
    initial_frame=None,
    step: float | None = None,
) -> Curve:
    """Integrate the frame equations for a prescribed curvature profile.

    The 4th-order Magnus step with two Gauss points at a fixed step
    (domain/4096 by default): each step multiplies the frame by the
    exponential of a skew matrix. One profile call covers the nodes and
    every Gauss point, and a non-finite curvature at any of them raises
    InvalidProfile naming the first such s. ``_MAGNUS_CHUNK`` steps at a
    time, the exponentials come from one real scaling-and-squaring Taylor
    polynomial, a doubling prefix product turns them into the running
    products, and one more product applies the frame carried in from the
    previous chunk. Frames are never re-orthonormalized: they stay
    orthonormal to roundoff, about 2e-14 over 4096 steps by measurement.
    Positions follow from the tangents by the corrected trapezoid rule,
    also of 4th order. The result is unit speed to the same roundoff. Its
    evaluator interpolates the tables over arrays and rebuilds derivatives
    above the first from the frame and the profile's own derivatives, so
    the returned curve supports max_order m + 2. A step that needs more
    than ``_MAX_ODE_STEPS`` (2^20) steps raises BadParameters before
    anything is allocated.
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
    if not np.isfinite(point).all():
        raise BadParameters("initial point must be finite")
    if frame.shape != (dim, dim):
        raise BadParameters(f"initial frame must be {dim} vectors of length {dim}")
    # Finite first, so an inf frame raises here without a warning from the product.
    if not (np.isfinite(frame).all() and np.max(np.abs(frame @ frame.T - np.eye(dim))) <= 1e-8):
        raise NonOrthonormalFrame("initial frame is not orthonormal to 1e-8")

    nodes = lo + h * np.arange(n_steps + 1)
    # The curvatures at the nodes, then at each step's two Gauss points.
    gauss = nodes[:-1] + h * _GAUSS_OFFSETS[:, None]
    s_all = np.concatenate([nodes, *gauss])
    kappas = profile.values(s_all)
    finite = np.isfinite(kappas).all(axis=1)
    if not finite.all():
        raise InvalidProfile(f"curvature is non-finite at s={float(s_all[~finite].min())!r}")
    at_node, a, b = np.split(kappas, [n_steps + 1, 2 * n_steps + 1])
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
    orth, norms, _ = gram_schmidt_rows(frame[None])
    frames[0] = orth[0] / norms[0, :, None]
    for c in range(0, n_steps, _MAGNUS_CHUNK):
        E = _magnus_exponentials(a[c:c + _MAGNUS_CHUNK], b[c:c + _MAGNUS_CHUNK], h)
        # Doubling prefix product: afterwards E[i] = E_i ... E_1 E_0.
        k = 1
        while k < len(E):
            E[k:] = E[k:] @ E[:-k]
            k *= 2
        frames[c + 1:c + 1 + len(E)] = E @ frames[c]

    # Corrected trapezoid rule on the tangent T, with T' = kappa_1 N_1.
    T = frames[:, 0]
    dT = at_node[:, :1] * frames[:, 1]
    steps = 0.5 * h * (T[:-1] + T[1:]) + (h * h / 12.0) * (dT[:-1] - dT[1:])
    gammas = point + np.concatenate([np.zeros((1, dim)), np.cumsum(steps, axis=0)])

    # F' = M F with M tridiagonal: row r is kappa_r F[r+1] - kappa_{r-1} F[r-1].
    frame_dots = np.zeros_like(frames)
    frame_dots[:, :-1] = at_node[:, :, None] * frames[:, 1:]
    frame_dots[:, 1:] -= at_node[:, :, None] * frames[:, :-1]
    oracle = _SynthesizedOracle(profile, nodes, h, gammas, frames, frame_dots)
    return make_curve(dim, (lo, hi), "synthesized", m + 2, oracle, label=f"synthesized(m={m})")
