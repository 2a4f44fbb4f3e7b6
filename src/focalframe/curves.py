"""Curve representations with derivative oracles.

A curve is an immutable value: a dimension, a parameter interval and an
evaluator that returns the stack of derivatives up to a requested order.
Four kinds exist, each built in the module of its kind. Analytic curves,
built here, carry closed-form oracles to every supported order. Sampled
curves, built here, differentiate fixed sample rows with finite-difference
stencils and are trustworthy up to derivative order 5. Arclength curves
(:mod:`focalframe.arclength`) rebuild a base curve's oracle after
reparametrization. Synthesized curves (:mod:`focalframe.synthesis`) come
out of integrating the frame equations for a prescribed curvature profile.

Evaluators take arrays of N parameters only, and curvature profiles
broadcast over arclength arrays. :func:`eval_derivatives` is the one
entry point that also takes a scalar, as the one-row case.

Curves must be C^{m+2}-smooth on their domain for the downstream focal
and slant analyses to reach their stated tolerances; all builtin
generators are real-analytic.

Everything here is pure and thread-safe: evaluators share no state, and
curves never change after construction except for two private slots: in
one the Frenet layer keeps the curve's last grid pass, in the other
:func:`~focalframe.arclength.reparam_to_arclength` keeps the curve's
arclength version.

The public names of :mod:`focalframe.arclength` and
:mod:`focalframe.synthesis` also resolve from this module, through a module
``__getattr__`` that imports their module on first use; importing this
module loads neither.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import BadParameters, OrderUnsupported, OutOfDomain, RegularityFailure
from .linalg import gram_schmidt_rows
from .numdiff import fd_weights, window_starts

_DOMAIN_SLACK = 1e-9
_PROBE_POINTS = 64
_TWO_PI = 2.0 * math.pi


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
    ``_arclength_memo`` is where
    :func:`~focalframe.arclength.reparam_to_arclength` keeps the
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
            f"order {order} exceeds max_order {curve.max_order} of {curve.kind} curve "
            f"{curve.label or '(unlabeled)'}"
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
    """Validated Curve constructor used by every curve factory.

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
) -> Curve:
    """Analytic curve whose coordinates are ``coords``, with derivatives to
    order dim + 1, the order the focal analyses read."""
    dim = len(coords)
    max_order = dim + 1
    # Derivative j of A sin(w t + phi) is A w^j sin(w t + phi + j pi/2), which
    # is (-1)^(j//2) A w^j times sin(theta) for even j or sin(theta + pi/2)
    # for odd j: two sin calls per term serve every order, and one product
    # with the 0/1 matrix ``owner`` sums the terms into their coordinates.
    # The second is sin(theta + pi/2), not cos(theta), so orders 0 and 1
    # equal sin(theta + j pi/2) bit for bit; cos(-pi/2) reads 6.1e-17, not
    # the 0 that an exact cusp needs.
    terms = [(j, *term) for j, c in enumerate(coords) for term in c.terms]
    owner = np.eye(dim)[[j for j, *_ in terms]]
    amp, freq, phase = np.array([term for _, *term in terms], dtype=float).reshape(-1, 3).T
    const, slope = np.array([(c.const, c.slope) for c in coords], dtype=float).T
    if not np.all(np.isfinite(np.concatenate([amp, freq, phase, const, slope]))):
        raise BadParameters(f"{label or 'curve'}: parameters must be finite")
    # signed[p, q] is the factor of order 2p + q, whose sine has parity q
    n_pairs = max_order // 2 + 1
    signed = np.array([(-1) ** (j // 2) * amp * freq**j for j in range(2 * n_pairs)])
    signed = signed.reshape(n_pairs, 2, freq.size)
    quarter = np.array([[0.0], [0.5 * math.pi]])

    def evaluator(t: np.ndarray, order: int) -> np.ndarray:
        # At least two rows per point: numpy takes a one-row product through
        # another BLAS routine, whose sums can differ in the last bit.
        k = max(order, 1) + 1
        h = (k + 1) // 2
        sines = (np.multiply.outer(t, freq) + phase)[:, None, :] + quarter
        np.sin(sines, out=sines)
        vals = (sines[:, None] * signed[:h]).reshape(t.size, 2 * h, freq.size)[:, :k]
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
    domain: tuple[float, float] = (0.0, _TWO_PI),
) -> Curve:
    """Reproducible generic test curve: per coordinate, three sinusoids of
    distinct frequencies drawn from 1-5, with random amplitudes and phases.

    Used for negative controls; nothing about it is helical.
    """
    rng = np.random.default_rng(seed)
    coords = []
    for _ in range(dim):
        freqs = rng.permutation(np.arange(1, 6))[:3]
        terms = tuple(
            (float(rng.uniform(0.3, 1.0)), float(f), float(rng.uniform(0.0, _TWO_PI)))
            for f in freqs
        )
        coords.append(TrigCoordinate(terms=terms))
    return curve_from_coordinates(tuple(coords), domain, label=f"random(seed={seed})")


# ---------------------------------------------------------------------------
# sampled curves
# ---------------------------------------------------------------------------

def sampled_curve(ts: Sequence[float], points, label: str = "sampled") -> Curve:
    """Curve through sample rows, differentiated by local stencils.

    An evaluation of order o takes every derivative of a point from one
    window of the o + 6 nearest nodes, so derivative j converges at order
    o + 6 - j, at least 6: the value of a low derivative depends on the
    order requested. Orders above 5, and above N - 6 for N samples, are
    refused: difference noise outgrows the first, and the second would
    need a window wider than the samples. An evaluation gets every window
    from one ``searchsorted`` and every stencil from one stacked
    :func:`fd_weights` call.
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
    max_order = min(5, t.size - 6)

    def evaluator(x: np.ndarray, order: int) -> np.ndarray:
        size = min(order + 6, t.size)
        centers = np.clip(np.searchsorted(t, x), 0, t.size - 1)
        idx = window_starts(t.size, centers, size)[:, None] + np.arange(size)
        return fd_weights(t[idx], x, order) @ P[idx]

    return make_curve(P.shape[1], (float(t[0]), float(t[-1])), "sampled",
                      max_order, evaluator, label)


# The public names of the arclength and synthesis modules, which resolve here too.
_FORWARDED = {
    **dict.fromkeys(("arc_length", "reparam_to_arclength", "as_unit_speed"), "arclength"),
    **dict.fromkeys(("ProfileFunction", "ConstantProfile", "LinearProfile", "SinusoidProfile",
                     "SplineProfile", "CurvatureProfile", "synthesize_from_curvatures"),
                    "synthesis"),
}


def __getattr__(name: str):
    home = _FORWARDED.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__package__}.{home}"), name)
