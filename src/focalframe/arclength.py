"""Arclength: length tables, their inversion and arclength curves.

An arclength curve rebuilds a base curve's derivative oracle after
reparametrization. The length table holds arclength as one polynomial per
span, sized by the Legendre coefficients of the speed; one bracketed Newton
solve inverts it for every point of an evaluation, and the chain rule on
stacked power series turns the base curve's derivatives into derivatives
with respect to arclength. This is the one module that imports
``numpy.polynomial``, for its Gauss-Legendre tables. The other curve kinds
live in :mod:`focalframe.curves` and :mod:`focalframe.synthesis`.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss, legint, legvander

from .curves import Curve, _check_domain, make_curve
from .errors import ConvergenceFailure, RegularityFailure
from .series import factorials, series_divide, series_sqrt

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


# Newton evaluates each span in power form: a step multiplies a table of
# the powers 1, x, ..., x^20, built by running products, by the span's power
# coefficients. The tail rule leaves a span's Legendre coefficients decayed
# to roundoff (a sampled curve's 512 equal spans nearly so), and then the
# power form matches the Legendre form to 8.9e-16 of the span's length, and
# ds/dx to 1.1e-15 of its largest value, measured on the analytic test
# families, the steep curve, an ellipse with semi-axes 0.2 and 2 and helices
# of 200, 256 and 1000 samples: nothing the Newton stop rule can see.
_LEGENDRE_TO_POWER = _legendre_to_power(20)


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
        # Row n holds 1, x_n, ..., x_n^20; only the first x.size rows are live.
        table = np.empty((s.size, 1, 21))
        table[:, 0, 0] = 1.0
        for _ in range(_NEWTON_STEPS):
            powers = table[:x.size]
            np.multiply.accumulate(np.broadcast_to(x[:, None], (x.size, 20)), axis=1,
                                   out=powers[:, 0, 1:])
            err, slope = (powers @ poly)[:, 0].T
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
    Taylor-coefficient space by the chain rule d/ds = v^-1 d/dt: the speed
    series v is the square root of |velocity|^2, and each order divides the
    previous one's series by v, reads its constant term and differentiates
    the series once more.

    The work is done in ``np.longdouble`` and rounded to float64 at the
    end. Where the base curve is slow the conversion loses digits: at
    order 4 on Salkowski n = 0.7 near the end of its domain (speed 0.22)
    the float64 result was up to 1.0e-13 of its order's scale from the
    exact value for the same inputs.
    The 64-bit significand of x86-64's long double brings every order
    within 2.0e-16 of that scale, at about 1.5 times the cost over a few
    hundred rows and none for one; where long double is float64 the
    float64 figures hold.
    """
    gcoef = base / factorials(order + 1).astype(np.longdouble)[:, None]
    f = gcoef[:, 1:] * np.arange(1.0, order + 1)[:, None]  # series of the velocity
    # |velocity|^2, the Cauchy product of the series with itself
    w = np.stack([np.einsum("njc,njc->n", f[:, :j + 1], f[:, j::-1]) for j in range(order)], 1)
    v = series_sqrt(w, order)
    out = [gcoef[:, 0]]
    for k in range(order, 0, -1):
        f = series_divide(f, v)
        out.append(f[:, 0])
        f = f[:, 1:] * np.arange(1.0, k)[:, None]
    return np.stack(out, axis=1).astype(float)


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
    derivative oracle by the chain rule on stacked power series
    (:func:`_derivs_through_substitution`), so the unit-speed identity holds
    to roundoff rather than to the accuracy of the inversion.

    Each call builds a new version with its own table; the focal analyses
    need none, as they run in any regular parametrization. The version's
    evaluator holds the base evaluator and the table, not the base curve.
    """
    amap = _length_table(curve, *curve.domain)
    base_evaluator = curve.evaluator

    def evaluator(s: np.ndarray, order: int) -> np.ndarray:
        base = np.asarray(base_evaluator(amap.invert(s), max(order, 1)), dtype=float)
        if order == 0:
            return base[:, :1]
        return _derivs_through_substitution(base[:, :order + 1], order)

    return make_curve(
        curve.dimension,
        (0.0, amap.total),
        curve.kind,
        curve.max_order,
        evaluator,
        label=f"arclength({curve.label or curve.kind})",
        check_regularity=False,
    )

