import math

import numpy as np
import pytest

import focalframe as ff
from focalframe.curves import (
    CurvatureProfile,
    ProfileFunction,
    TrigCoordinate,
    curve_from_coordinates,
)
from focalframe.errors import FocalNotRegular, NotGeneric, NotUnitSpeed, RegularityFailure
from focalframe.numdiff import grid_derivative

SQRT5 = math.sqrt(5.0)


@pytest.fixture(scope="module")
def unit_circle2():
    return ff.reparam_to_arclength(ff.make_circle(2.0))


@pytest.fixture(scope="module")
def helix_focal_table(unit_helix):
    return ff.focal_curvatures(unit_helix, unit_helix.grid(256))


def test_circle_focal_point_is_center(unit_circle2):
    table = ff.focal_curvatures(unit_circle2, unit_circle2.grid(64))
    for fd in table:
        assert fd.focal_curvatures[0] == pytest.approx(2.0, abs=1e-10)
        np.testing.assert_allclose(fd.focal_point, [0.0, 0.0], atol=1e-9)
        assert fd.is_vertex  # the focal set of a circle is one point


def test_helix_focal_constants(helix_focal_table):
    for fd in helix_focal_table[3:-3]:
        assert fd.focal_curvatures[0] == pytest.approx(2.5, abs=1e-9)
        assert fd.focal_curvatures[1] == pytest.approx(0.0, abs=1e-9)
        assert fd.A == pytest.approx(0.5, abs=1e-9)
        assert fd.epsilon == 1
        assert fd.R_m == pytest.approx(2.5, abs=1e-9)
        assert not fd.is_vertex


def test_helix_focal_points_on_coaxial_helix(helix_focal_table):
    # closed form: gamma + 2.5 n1 = (-0.5 cos(s/sqrt5), -0.5 sin(s/sqrt5), s/sqrt5)
    for fd in helix_focal_table[3:-3]:
        s = fd.s
        expected = np.array(
            [-0.5 * math.cos(s / SQRT5), -0.5 * math.sin(s / SQRT5), s / SQRT5]
        )
        np.testing.assert_allclose(fd.focal_point, expected, atol=1e-8)


def test_focal_requires_unit_speed(helix):
    with pytest.raises(NotUnitSpeed):
        ff.focal_curvatures(helix, helix.grid(64))


def test_focal_requires_generic_curve():
    line_like = ff.make_circle(1.0)  # E^2 circle is generic; a planar curve in E^3 is not
    planar = ff.curve_from_coordinates(
        (
            ff.curves.TrigCoordinate(terms=((1.0, 1.0, math.pi / 2),)),
            ff.curves.TrigCoordinate(terms=((1.0, 1.0, 0.0),)),
            ff.curves.TrigCoordinate(),
        ),
        (0.0, 2 * math.pi),
    )
    assert line_like.dimension == 2
    with pytest.raises(NotGeneric):
        ff.focal_curvatures(planar, planar.grid(64))


# ---------------------------------------------------------------------- oracle

def test_oracle_circle_center():
    c = ff.reparam_to_arclength(ff.make_circle(2.0))
    np.testing.assert_allclose(ff.osculating_center_oracle(c, 1.0), [0.0, 0.0], atol=1e-10)


def test_oracle_matches_recursion_at_zero(unit_helix):
    fd = ff.frenet_apparatus(unit_helix, 0.0)
    expected = unit_helix.point(0.0) + 2.5 * fd.frame[1]
    np.testing.assert_allclose(ff.osculating_center_oracle(unit_helix, 0.0), expected, atol=1e-9)


@pytest.mark.parametrize("builder,n", [
    (lambda: ff.make_circle(2.0), 64),
    (lambda: ff.make_helix(2.0, 1.0), 64),
    (lambda: ff.make_ellipse(2.0, 1.2, domain=(0.25, 1.35)), 64),
    (lambda: ff.make_salkowski(0.3), 64),
    (lambda: ff.make_wcurve([1.0, 0.6], [1.0, 2.0], dim=4), 96),
    (lambda: ff.make_wcurve([1.0, 1.0], [1.0, 2.0], pitch=1.0, dim=5), 96),
], ids=["circle", "helix", "ellipse", "salkowski", "wcurve4", "wcurve5"])
def test_oracle_equivalence(builder, n):
    unit = ff.reparam_to_arclength(builder())
    table = ff.focal_curvatures(unit, unit.grid(n))
    worst = max(
        np.linalg.norm(fd.focal_point - ff.osculating_center_oracle(unit, fd.s))
        for fd in table[3:-3]
    )
    assert worst < 1e-6


def test_recursion_converges_at_fourth_order():
    # elliptical helix (cos t, 0.93 sin t, t) at arclength; worst focal-point
    # gap to the oracle over every row, boundary rows included
    curve = curve_from_coordinates((
        TrigCoordinate(terms=((1.0, 1.0, 0.5 * math.pi),)),
        TrigCoordinate(terms=((0.93, 1.0, 0.0),)),
        TrigCoordinate(slope=1.0),
    ), (0.0, 2 * math.pi), label="elliptical helix")
    unit = ff.reparam_to_arclength(curve)
    gaps = []
    for n in (64, 128, 256, 512):
        table = ff.focal_curvatures(unit, unit.grid(n))
        gaps.append(max(np.linalg.norm(fd.focal_point - ff.osculating_center_oracle(unit, fd.s))
                        for fd in table))
    orders = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))
    assert np.all((3.5 < orders) & (orders < 5.0)), (gaps, orders)


def test_spherical_wcurve_focal_degenerates_to_center(wcurve4):
    # a sum of two circles in E^4 lies on a sphere about the origin, so every
    # osculating hypersphere is that sphere and every grid row is a vertex
    unit = ff.reparam_to_arclength(wcurve4)
    table = ff.focal_curvatures(unit, unit.grid(96))
    assert all(fd.is_vertex for fd in table)
    for fd in table[3:-3]:
        np.testing.assert_allclose(fd.focal_point, np.zeros(4), atol=1e-9)
    with pytest.raises(RegularityFailure):
        ff.focal_curve(unit, unit.grid(96))


# ------------------------------------------------------------------ focal curve

def test_focal_curve_of_circle_rejected(unit_circle2):
    with pytest.raises(RegularityFailure):
        ff.focal_curve(unit_circle2, unit_circle2.grid(64))


def test_focal_curve_of_helix_is_regular_sampled(unit_helix):
    mirror = ff.focal_curve(unit_helix, unit_helix.grid(128))
    assert mirror.kind == "sampled"
    # radius of the focal helix
    for s in np.linspace(*mirror.domain, 9):
        assert np.linalg.norm(mirror.point(float(s))[:2]) == pytest.approx(0.5, abs=1e-7)


def test_focal_curve_of_salkowski_regular(unit_salkowski):
    table = ff.focal_curvatures(unit_salkowski, unit_salkowski.grid(128))
    assert all(not fd.is_vertex for fd in table)
    assert all(fd.R_m == pytest.approx(1.0, abs=1e-7) for fd in table[3:-3])
    mirror = ff.focal_curve(unit_salkowski, unit_salkowski.grid(128))
    assert mirror.dimension == 3


class _RampProfile(ProfileFunction):
    """1 on [0, knee], then 1 + (s-knee)^3: C^2 at the knee."""

    def __init__(self, knee):
        self.knee = knee

    def __call__(self, s, order=0):
        x = s - self.knee
        if x <= 0.0:
            return 1.0 if order == 0 else 0.0
        return {0: 1.0 + x**3, 1: 3 * x**2, 2: 6 * x, 3: 6.0}.get(order, 0.0)


def test_vertex_rows_flagged_and_excluded_not_fatal():
    # plane curve that is exactly circular on the first half of its domain:
    # there the focal point freezes and every row is a vertex; the varying
    # half still yields a regular focal curve
    profile = CurvatureProfile((_RampProfile(2.0),), (0.0, 4.0))
    curve = ff.synthesize_from_curvatures(profile, 2)
    grid = curve.grid(128)
    table = ff.focal_curvatures(curve, grid)
    flags = np.array([fd.is_vertex for fd in table])
    assert flags[: 40].all()          # flat arc: c1 constant, A exactly 0
    assert not flags[80:].any()       # cubic ramp: A > 0
    mirror = ff.focal_curve(curve, grid)
    # the flat arc is gone up to the stencil width around the knee
    assert 1.8 < mirror.domain[0] < 2.1


def test_focal_not_regular_when_too_few_rows_survive(monkeypatch):
    unit = ff.reparam_to_arclength(ff.make_helix(2.0, 1.0))
    grid = unit.grid(64)
    table = ff.focal_curvatures(unit, grid)
    starved = [
        fd if i < 4 else type(fd)(
            fd.s, fd.focal_curvatures, fd.focal_point, 0.0, 0, fd.deltas, fd.R_m
        )
        for i, fd in enumerate(table)
    ]
    monkeypatch.setattr(ff.focal, "focal_curvatures", lambda *a, **k: starved)
    with pytest.raises(FocalNotRegular):
        ff.focal.focal_curve(unit, grid)


# ------------------------------------------------------------- frame relations

def test_helix_focal_relations(unit_helix):
    rep = ff.focal_relations_check(unit_helix, unit_helix.grid(256))
    assert rep.curvature_residual < 1e-5
    assert rep.chain_spread < 1e-4  # all rescaled curvature quotients agree
    assert rep.tangent_alignment > 1 - 1e-6
    assert rep.normal_alignments[0] > 1 - 1e-6
    assert rep.last_alignment > 1 - 1e-6
    assert rep.pattern == "even"
    assert rep.epsilon == 1


def test_helix_focal_curvature_values(unit_helix):
    # two independent computations of the focal helix curvatures: 0.4 and 0.8
    mirror = ff.focal_curve(unit_helix, unit_helix.grid(256))
    mid = 0.5 * (mirror.domain[0] + mirror.domain[1])
    fd = ff.frenet_apparatus(mirror, mid, 3)
    np.testing.assert_allclose(fd.curvatures, [0.4, 0.8], atol=1e-5)


def test_ellipse_evolute_relations(ellipse_arc):
    unit = ff.reparam_to_arclength(ellipse_arc)
    grid = unit.grid(128)
    rep = ff.focal_relations_check(unit, grid)
    assert rep.m == 1
    assert rep.curvature_residual < 1e-5
    assert rep.chain_spread < 1e-4
    assert rep.tangent_alignment > 1 - 1e-8
    assert rep.last_alignment > 1 - 1e-8
    assert rep.pattern == "odd"


def test_ellipse_focal_points_match_classic_evolute(ellipse_arc):
    a, b = 2.0, 1.2
    unit = ff.reparam_to_arclength(ellipse_arc)
    table = ff.focal_curvatures(unit, unit.grid(96))
    for fd in table[3:-3]:
        pt = unit.point(fd.s)
        t = math.atan2(pt[1] / b, pt[0] / a)
        evolute = np.array(
            [(a * a - b * b) / a * math.cos(t) ** 3, (b * b - a * a) / b * math.sin(t) ** 3]
        )
        np.testing.assert_allclose(fd.focal_point, evolute, atol=1e-8)


# ----------------------------------------------------- scalar recursion residual

def test_radius_consistency(unit_helix, helix_focal_table):
    for fd in helix_focal_table:
        gamma = unit_helix.point(fd.s)
        dist_sq = float(np.sum((fd.focal_point - gamma) ** 2))
        assert abs(fd.R_m**2 - dist_sq) / fd.R_m**2 < 1e-8


def test_last_scalar_equation_residual(ellipse_arc):
    # independent derivative of the squared radius against the recursion output
    unit = ff.reparam_to_arclength(ellipse_arc)
    grid = unit.grid(256)
    table = ff.focal_curvatures(unit, grid)
    c1 = np.array([fd.focal_curvatures[0] for fd in table])
    R2 = np.array([fd.R_m**2 for fd in table])
    resid = np.abs(grid_derivative(c1, grid) - grid_derivative(R2, grid) / (2 * c1))
    assert np.max(resid[3:-3]) < 1e-5


def test_deltas_follow_sign_rule(helix_focal_table):
    for fd in helix_focal_table[3:-3]:
        assert fd.epsilon == 1
        np.testing.assert_array_equal(fd.deltas, [-1, 1])
