"""A curve's answers under rigid motions, units and changes of parameter.

Each transformed curve wraps the evaluator of the original in make_curve:
x -> scale * Q x + shift in space, and t = a u + b in the parameter
(orientation reversal is a = -1, b = lo + hi). Every check names its
relation and its tolerance. Rows correspond one to one, in reverse order
under reversal. The relations hold to roundoff, because the transformed
evaluator returns the original's numbers transformed; what they test is
that no step of the analysis reads units, position or parametrization.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

import focalframe as ff
from focalframe import arclength, curves
from focalframe.curves import ConstantProfile, SinusoidProfile, make_curve
from focalframe.errors import ReducedOrder

ROWS = 128


@dataclass(frozen=True)
class Motion:
    Q: np.ndarray | None = None  # orthogonal, rotation or reflection
    shift: np.ndarray | None = None
    scale: float = 1.0
    a: float = 1.0
    b: float = 0.0
    reverse: bool = False


def transformed(curve, motion: Motion):
    lo, hi = curve.domain
    a, b = (-1.0, lo + hi) if motion.reverse else (motion.a, motion.b)
    ulo, uhi = sorted(((lo - b) / a, (hi - b) / a))

    def evaluator(u, order):
        d = curve.evaluator(np.clip(a * u + b, lo, hi), order)
        d = d * (motion.scale * a ** np.arange(order + 1))[:, None]
        if motion.Q is not None:
            d = d @ motion.Q.T
        if motion.shift is not None:
            d[:, 0] += motion.shift
        return d

    return make_curve(curve.dimension, (ulo, uhi), curve.kind, curve.max_order, evaluator,
                      label=f"moved({curve.label})")


def _sampled():
    helix = ff.make_helix(2.0, 1.0)
    ts = helix.grid(256)
    return ff.sampled_curve(ts, helix.evaluator(ts, 0)[:, 0])


def _synthesized():
    profile = ff.CurvatureProfile(
        (SinusoidProfile(1.0, 0.2, 1.5), ConstantProfile(0.4)), (0.0, 4.0))
    return ff.synthesize_from_curvatures(profile, 3, step=4.0 / 256)


CURVES = {
    "helix": lambda: ff.make_helix(2.0, 1.0),
    "salkowski": lambda: ff.make_salkowski(0.3),
    "wcurve5": lambda: ff.make_wcurve([1.0, 1.0], [1.0, 2.0], pitch=1.0, dim=5),
    "sampled": _sampled,
    "synthesized": _synthesized,
}


def _orthogonal(dim, det):
    Q, _ = np.linalg.qr(np.random.default_rng(dim).normal(size=(dim, dim)))
    if np.sign(np.linalg.det(Q)) != det:
        Q[:, 0] = -Q[:, 0]
    return Q


def _motion(name, dim):
    return {
        "rotation": lambda: Motion(Q=_orthogonal(dim, 1)),
        "reflection": lambda: Motion(Q=_orthogonal(dim, -1)),
        "translation": lambda: Motion(shift=np.random.default_rng(7).normal(size=dim) * 3.0),
        "scale-2.5": lambda: Motion(scale=2.5),
        "affine-parameter": lambda: Motion(a=0.7, b=0.4),
        "reversal": lambda: Motion(reverse=True),
    }[name]()


MOTIONS = ["rotation", "reflection", "translation", "scale-2.5", "affine-parameter", "reversal"]


def _pair(curve_name, motion_name):
    curve = CURVES[curve_name]()
    motion = _motion(motion_name, curve.dimension)
    return curve, motion, transformed(curve, motion)


def _rows(motion, values):
    """The original's rows in the order of the transformed curve's rows."""
    return values[::-1] if motion.reverse else values


def _vectors(motion, v):
    """Directions (..., dim) as the transformed curve sees them."""
    return v if motion.Q is None else v @ motion.Q.T


def _points(motion, p):
    p = motion.scale * _vectors(motion, p)
    return p if motion.shift is None else p + motion.shift


def _same_up_to_column_signs(got, want):
    """Largest gap between ``got`` and ``want`` (rows, vectors, dim) after one
    sign per vector index, the sign frame alignment may choose."""
    signs = np.sign(np.einsum("rid,rid->i", got, want))
    return float(np.max(np.abs(got - signs[:, None] * want)))


# Tolerances per curve, relative to the largest entry compared: frames,
# curvatures, focal points. Frames and curvatures hold to roundoff, except
# on the sampled curve: after a change of parameter its end row lies off
# the end sample node by roundoff and takes the next stencil window, so
# there they agree to the stencils' truncation. Focal points go through the
# arclength table and the grid-derivative recursion, which amplifies
# roundoff by h^-(m-1) (ROADMAP item 7), most in E5 and on the stencils.
_TOL = {
    "helix": (1e-13, 1e-13, 1e-12),
    "salkowski": (1e-13, 1e-13, 1e-11),
    "synthesized": (1e-13, 1e-13, 1e-11),
    "wcurve5": (1e-13, 1e-13, 1e-9),
    "sampled": (1e-10, 1e-8, 1e-8),
}


@pytest.mark.parametrize("motion_name", MOTIONS)
@pytest.mark.parametrize("curve_name", sorted(CURVES))
def test_frames_and_curvatures(curve_name, motion_name):
    # frames: V' = Q V at corresponding rows, up to one sign per vector
    # index; curvatures: kappa' = kappa / scale; points: scale Q p + shift
    # to 1e-13
    curve, motion, moved = _pair(curve_name, motion_name)
    frame_tol, kappa_tol, _ = _TOL[curve_name]
    order = min(curve.dimension, curve.max_order)
    want = ff.frenet_grid(curve, curve.grid(ROWS), order)
    got = ff.frenet_grid(moved, moved.grid(ROWS), order)
    frames = _rows(motion, _vectors(motion, want.frame))
    assert _same_up_to_column_signs(got.frame, frames) <= frame_tol
    kappa = _rows(motion, want.curvatures) / motion.scale
    assert np.max(np.abs(got.curvatures - kappa)) <= kappa_tol * np.max(np.abs(kappa))
    points = _rows(motion, _points(motion, want.point))
    assert np.max(np.abs(got.point - points)) <= 1e-13 * np.max(np.abs(points))


@pytest.mark.parametrize("motion_name", MOTIONS)
@pytest.mark.parametrize("curve_name", sorted(CURVES))
def test_slant_verdicts_and_axes(curve_name, motion_name):
    # the same verdict for every k; a slant axis maps to Q axis up to sign,
    # to 1e-12
    curve, motion, moved = _pair(curve_name, motion_name)
    ks = range(1, curve.dimension + 1)
    want = ff.slant_reports(curve, ks, curve.grid(ROWS))
    got = ff.slant_reports(moved, ks, moved.grid(ROWS))
    assert [r.is_slant for r in got] == [r.is_slant for r in want]
    for g, w in zip(got, want):
        if w.is_slant:
            axis = _vectors(motion, w.axis)
            assert min(np.max(np.abs(g.axis - axis)), np.max(np.abs(g.axis + axis))) <= 1e-12


@pytest.mark.parametrize("motion_name", MOTIONS)
@pytest.mark.parametrize("curve_name", sorted(CURVES))
def test_focal_points(curve_name, motion_name):
    # C' = scale Q C + shift at corresponding rows of the arclength versions
    curve, motion, moved = _pair(curve_name, motion_name)
    want, got = [ff.focal_curvatures(u, u.grid(ROWS)).focal_point
                 for u in map(curves.as_unit_speed, (curve, moved))]
    expected = _rows(motion, _points(motion, want))
    assert np.max(np.abs(got - expected)) <= _TOL[curve_name][2] * np.max(np.abs(expected))


@pytest.mark.xfail(strict=True, raises=ReducedOrder,
                   reason="ROADMAP item 14: the rank rule is not unit-free")
@pytest.mark.parametrize("curve_name,scale", [("wcurve5", 100.0), ("helix", 1e9)])
def test_large_curves_keep_their_verdicts(curve_name, scale):
    # kappa' = kappa / scale and the same slant verdicts; today the rank
    # rule flags derivative 5 of the x100 E5 W-curve and derivative 2 of
    # the x1e9 helix as dependent
    curve = CURVES[curve_name]()
    moved = transformed(curve, Motion(scale=scale))
    ks = range(1, curve.dimension + 1)
    want = ff.slant_reports(curve, ks, curve.grid(ROWS))
    got = ff.slant_reports(moved, ks, moved.grid(ROWS))
    assert [r.is_slant for r in got] == [r.is_slant for r in want]


# ------------------------------------------------------------- the length table

_TABLE_CURVES = {
    "helix": lambda: ff.make_helix(2.0, 1.0),
    "salkowski": lambda: ff.make_salkowski(0.3),
    # splits the spans at its sharp turns
    "eccentric-ellipse": lambda: ff.make_ellipse(0.2, 2.0),
}


@pytest.mark.parametrize("scale", [2.5, 1e-3, 1e4])
@pytest.mark.parametrize("curve_name", sorted(_TABLE_CURVES))
def test_scaled_curve_gets_the_same_length_table(curve_name, scale):
    # the same span edges, bit for bit, and scale times the length to 1e-14
    curve = _TABLE_CURVES[curve_name]()
    want = arclength._length_table(curve, *curve.domain)
    got = arclength._length_table(transformed(curve, Motion(scale=scale)), *curve.domain)
    np.testing.assert_array_equal(got.edges, want.edges)
    assert got.total == pytest.approx(scale * want.total, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("a,b", [(0.7, 0.4), (3.0, -5.0), (-1.0, 0.0)])
@pytest.mark.parametrize("curve_name", sorted(_TABLE_CURVES))
def test_affine_parameter_change_maps_the_length_table(curve_name, a, b):
    # edges t = a u + b of the original's, to 1e-13 of the domain width
    # (reversed for a < 0), and the same length to 1e-14
    curve = _TABLE_CURVES[curve_name]()
    moved = transformed(curve, Motion(a=a, b=b))
    want = arclength._length_table(curve, *curve.domain)
    got = arclength._length_table(moved, *moved.domain)
    mapped = a * got.edges + b
    np.testing.assert_allclose(mapped if a > 0 else mapped[::-1], want.edges,
                               rtol=0.0, atol=1e-13 * curve.length_of_domain)
    assert got.total == pytest.approx(want.total, rel=1e-14, abs=0.0)
    assert math.isclose(moved.length_of_domain * abs(a), curve.length_of_domain, rel_tol=1e-14)
