import dataclasses
import math
import re

import numpy as np
import pytest

import focalframe as ff
from focalframe import focal, numdiff
from focalframe.curves import (
    CurvatureProfile,
    ProfileFunction,
    TrigCoordinate,
    curve_from_coordinates,
)
from focalframe.errors import ReducedOrder, RegularityFailure, SingularSystem
from focalframe.focal import FocalRelationsReport, _binomial_table, _center_rhs
from focalframe.frenet import _alignment_signs
from focalframe.linalg import solve_linear
from focalframe.numdiff import grid_derivative
from reference_kernels import (
    center_rhs,
    counting_curve,
    counting_svd,
    wcurve_focal_coefficients,
)

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
    with pytest.raises(ReducedOrder):
        ff.focal_curvatures(planar, planar.grid(64))


# ---------------------------------------------------------------------- oracle

def test_oracle_circle_center():
    c = ff.reparam_to_arclength(ff.make_circle(2.0))
    np.testing.assert_allclose(ff.osculating_center_oracle(c, 1.0), [0.0, 0.0], atol=1e-10)


def test_oracle_matches_recursion_at_zero(unit_helix):
    fd = ff.frenet_apparatus(unit_helix, 0.0)
    expected = unit_helix.point(0.0) + 2.5 * fd.frame[1]
    np.testing.assert_allclose(ff.osculating_center_oracle(unit_helix, 0.0), expected, atol=1e-9)


@pytest.mark.parametrize("dim", range(2, 9))
def test_center_rhs_matches_per_term_loop(dim):
    # random derivative stacks with rows of mixed magnitude; the bound is
    # relative to the sum of the absolute terms of each entry
    for seed in range(50):
        rng = np.random.default_rng(1000 * dim + seed)
        derivs = rng.normal(size=(dim + 1, dim)) * np.exp(rng.uniform(-3.0, 3.0, (dim + 1, 1)))
        scale = _binomial_table(dim) @ (np.abs(derivs) @ np.abs(derivs).T).ravel()
        assert np.all(np.abs(_center_rhs(derivs[None])[0] - center_rhs(derivs)) <= 1e-15 * scale)


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
    inner = table[3:-3]
    gaps = np.linalg.norm(inner.focal_point - ff.osculating_center_oracle(unit, inner.s), axis=1)
    assert gaps.max() < 1e-6


def test_focal_table_rows_make_one_stacked_solve(monkeypatch, unit_helix):
    solves = []

    def counting_solve(A, b):
        solves.append(np.shape(A))
        return solve_linear(A, b)

    monkeypatch.setattr(focal, "solve_linear", counting_solve)
    unit, calls = counting_curve(unit_helix)
    grid = unit.grid(96)
    table = ff.focal_curvatures(unit, grid)
    for fd in table[3:-3]:
        ff.osculating_center_oracle(unit, fd.s)
    assert calls == [(96, 3)] and solves == [(96, 3, 3)]
    # a pass on another grid drops the table: an old row is solved afresh
    ff.curvature_table(unit, unit.grid(97))
    ff.osculating_center_oracle(unit, float(grid[5]))
    assert calls[1:] == [(97, 3), (1, 3)] and solves[1:] == [(1, 3, 3)]
    # the first grid again is a new pass with a new table
    ff.focal_curvatures(unit, grid)
    ff.osculating_center_oracle(unit, float(grid[5]))
    ff.osculating_center_oracle(unit, float(grid[6]))
    assert calls[3:] == [(96, 3)] and solves[2:] == [(96, 3, 3)]
    # so is a pass at another order, and it has no table
    ff.curvature_table(unit, grid, order=2)
    ff.osculating_center_oracle(unit, float(grid[5]))
    assert calls[4:] == [(96, 2), (1, 3)] and solves[3:] == [(1, 3, 3)]


@pytest.mark.parametrize("dim", range(3, 9))
def test_wcurve_center_tables_need_no_svd(monkeypatch, dim):
    # unit-speed W-curves on 256 rows, as in the `unit-frames` benchmark workload:
    # the LU inverse certifies every center system, so no row takes the SVD
    blocks = dim // 2
    radii = [0.8**j for j in range(blocks)]
    pitch = 0.7 if dim % 2 else 0.0
    scale = math.sqrt(sum((r * (j + 1.0)) ** 2 for j, r in enumerate(radii)) + pitch**2)
    curve = ff.make_wcurve(radii, [(j + 1.0) / scale for j in range(blocks)], pitch / scale,
                           dim=dim, domain=(0.0, 2.0 * math.pi * scale))
    svd_calls = counting_svd(monkeypatch)
    table = ff.focal_curvatures(curve, curve.grid(256))
    inner = table[3:-3]
    rows = np.array([ff.osculating_center_oracle(curve, s) for s in inner.s])
    stacked = ff.osculating_center_oracle(curve, inner.s)
    assert svd_calls == []
    np.testing.assert_array_equal(rows, stacked)
    assert np.linalg.norm(inner.focal_point - rows, axis=1).max() < 1e-5


def _exact_wcurve_centers(dim):
    """A W-curve in E^dim on 256 rows (radii 1/(j+1), frequencies 1 + j/2,
    pitch 0.7 in odd dimensions, domain (0, 3)), its grid, and its focal
    points from the derivative-free recursion on its Frenet pass."""
    blocks = dim // 2
    curve = ff.make_wcurve(
        [1.0 / (j + 1) for j in range(blocks)], [1.0 + 0.5 * j for j in range(blocks)],
        pitch=0.7 if dim % 2 else 0.0, domain=(0.0, 3.0))
    grid = curve.grid(256)
    frames = ff.frenet_grid(curve, grid, order=dim)
    coeffs = wcurve_focal_coefficients(frames.curvatures)
    return curve, grid, frames.point + np.einsum("nk,nkd->nd", coeffs, frames.frame[:, 1:])


def _center_gap(got, want):
    """Largest distance between matching rows 8 to -8, relative to max(1, |center|)."""
    got, want = got[8:-8], want[8:-8]
    scale = np.maximum(1.0, np.linalg.norm(want, axis=1))
    return float(np.max(np.linalg.norm(got - want, axis=1) / scale))


@pytest.mark.parametrize("dim", range(3, 13))
def test_oracle_matches_exact_wcurve_centers(dim):
    # measured gap 1.9e-15 at E3, 7.5e-13 at E8 and 1.5e-10 at E12
    curve, grid, exact = _exact_wcurve_centers(dim)
    assert _center_gap(ff.osculating_center_oracle(curve, grid), exact) <= 1e-9


# E5 (measured gap 9.1e-10) is left out: it passes within 10% of the bound.
@pytest.mark.parametrize("dim", [3, 4] + [pytest.param(dim, marks=pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the finite-difference focal recursion loses one to two digits per dimension "
           "(ROADMAP item 7)")) for dim in range(6, 13)])
def test_focal_recursion_matches_exact_wcurve_centers(dim):
    # measured gap 1.1e-13 at E3 and 5.5e-12 at E4; 4.8e-8 at E6, 3.1e-6 at E7,
    # 1.5e-4 at E8, and 5.2e-3 at E9 to 6.3e2 at E12
    curve, grid, exact = _exact_wcurve_centers(dim)
    assert _center_gap(ff.focal_curvatures(curve, grid).focal_point, exact) <= 1e-9


def _focal_by_levels(frames):
    """The focal coefficients and signed focal speed of a Frenet table, one
    ``grid_derivative`` call per level, each divided by the speed: the
    recursion before its levels shared one stencil table."""
    ss, kappa, speed = frames.s, frames.curvatures, frames.speed
    m = kappa.shape[1]
    c = np.zeros((ss.size, m + 1))
    c[:, 1] = 1.0 / kappa[:, 0]
    for i in range(1, m):
        dci = grid_derivative(c[:, i], ss) / speed
        c[:, i + 1] = (dci + kappa[:, i - 1] * c[:, i - 1]) / kappa[:, i]
    dcm = grid_derivative(c[:, m], ss) / speed
    return c[:, 1:], dcm + kappa[:, m - 1] * c[:, m - 1] if m >= 2 else dcm


@pytest.mark.parametrize("dim", range(2, 9))
def test_focal_table_builds_one_stencil_table(monkeypatch, dim):
    # on the curve as given, which is not unit speed
    curve = ff.make_ellipse(2.0, 1.2) if dim == 2 else ff.random_trig_curve(dim, 0)
    weight_calls = []
    fd_weights = numdiff.fd_weights

    def counting_weights(*args):
        weight_calls.append(np.shape(args[0]))
        return fd_weights(*args)

    monkeypatch.setattr(numdiff, "fd_weights", counting_weights)
    table = ff.focal_curvatures(curve, curve.grid(96))
    assert weight_calls == [(96, 5)]
    monkeypatch.undo()
    coeffs, signed_speed = _focal_by_levels(ff.frenet_grid(curve, table.s))
    np.testing.assert_array_equal(table.focal_curvatures, coeffs)
    np.testing.assert_array_equal(table.A, np.abs(signed_speed))


def test_verify_builds_one_stencil_table_on_its_grid(monkeypatch, salkowski):
    # the focal table of the verification reads the base verdicts' grid and
    # pass, and the relations check reads that pass again
    curve, calls = counting_curve(salkowski)
    grids = []
    grid_stencils = focal.grid_stencils

    def counting_stencils(ss):
        grids.append(ss)
        return grid_stencils(ss)

    monkeypatch.setattr(focal, "grid_stencils", counting_stencils)
    grid = curve.grid(96)
    assert ff.verify_focal_slant(curve, 2, grid).passed
    assert len(grids) == 1
    np.testing.assert_array_equal(grids[0], grid)
    assert calls == [(96, 3)]
    calls.clear()
    ff.focal_relations_check(curve, grid, table=ff.focal_curvatures(curve, grid))
    assert calls == []


FOCAL_FIELDS = ("s", "focal_curvatures", "focal_point", "A", "epsilon", "deltas", "R_m")


def _assert_tables_equal(got, want):
    for name in FOCAL_FIELDS:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("between", ["grid", "order"])
def test_a_pass_in_between_rebuilds_the_focal_table(unit_salkowski, between):
    unit = dataclasses.replace(unit_salkowski)
    grid = unit.grid(96)
    table = ff.focal_curvatures(unit, grid)
    # focal columns only, read-only like the arrays of the pass they read
    assert FOCAL_FIELDS == tuple(f.name for f in dataclasses.fields(table))
    for name in FOCAL_FIELDS:
        with pytest.raises(ValueError, match="read-only"):
            getattr(table, name)[0] = 0
    if between == "grid":
        ff.curvature_table(unit, unit.grid(97))
    else:
        ff.curvature_table(unit, grid, order=2)
    again = ff.focal_curvatures(unit, grid)
    assert again is not table
    _assert_tables_equal(again, table)


def _inflection():
    # (t, sin t): its second derivative at t = 0 is sin(pi), of roundoff
    # size, so the center system there is singular
    return curve_from_coordinates(
        (TrigCoordinate(slope=1.0), TrigCoordinate(terms=((1.0, 1.0, 0.0),))), (-1.0, 1.0))


def test_array_oracle_equals_stacked_one_point_calls():
    curve = _inflection()
    grid = np.linspace(-1.0, 1.0, 9)
    assert grid[4] == 0.0
    fresh = dataclasses.replace(curve)
    with pytest.raises(SingularSystem, match=r"smallest singular value") as one:
        ff.osculating_center_oracle(fresh, 0.0)
    message = re.escape(str(one.value))
    with pytest.raises(SingularSystem, match=rf"at s=0\.0: {message}$"):
        ff.osculating_center_oracle(curve, grid)
    regular = np.delete(grid, 4)
    want = np.array([ff.osculating_center_oracle(fresh, float(t)) for t in regular])
    np.testing.assert_array_equal(ff.osculating_center_oracle(curve, regular), want)
    # the center table of a pass through the singular row: the other rows
    # have the bits of fresh calls, and the singular row, which the table
    # leaves out, raises as one does
    ff.curvature_table(curve, grid)
    with pytest.raises(SingularSystem, match=rf"at s=0\.0: {message}$"):
        ff.osculating_center_oracle(curve, grid)
    for _ in range(2):
        with pytest.raises(SingularSystem, match=f"^{message}$"):
            ff.osculating_center_oracle(curve, 0.0)
        centers = curve._frenet_memo[0].centers
        assert len(centers) == 8 and focal._FLOAT64(0.0) not in centers
    got = np.array([ff.osculating_center_oracle(curve, float(t)) for t in regular])
    np.testing.assert_array_equal(got, want)


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
        centers = ff.osculating_center_oracle(unit, table.s)
        gaps.append(np.linalg.norm(table.focal_point - centers, axis=1).max())
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
        x = np.asarray(s, dtype=float) - self.knee
        ramp = {0: 1.0 + x**3, 1: 3 * x**2, 2: 6 * x, 3: np.full(x.shape, 6.0)}
        return np.where(x <= 0.0, 1.0 if order == 0 else 0.0, ramp.get(order, 0.0))


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
    starved_rows = np.arange(len(table)) >= 4
    starved = dataclasses.replace(table, A=np.where(starved_rows, 0.0, table.A),
                                  epsilon=np.where(starved_rows, 0, table.epsilon))
    with pytest.raises(RegularityFailure, match="only 4 of 64 grid rows"):
        ff.focal_relations_check(unit, grid, table=starved)
    monkeypatch.setattr(ff.focal, "focal_curvatures", lambda *a, **k: starved)
    with pytest.raises(RegularityFailure, match="only 4 of 64 grid rows"):
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


# ------------------------------------------- array relations against the row loop

def focal_relations_loop(curve, grid, table, trim=3):
    """Reference frame-relation check: one row at a time, with the base
    frames recomputed on the grid without its vertex rows."""
    ss = np.asarray(grid, dtype=float)
    m = curve.dimension - 1
    kept = np.array([not fd.is_vertex for fd in table])
    ss = ss[kept]
    table = [fd for fd in table if not fd.is_vertex]
    focal = ff.sampled_curve(ss, np.array([fd.focal_point for fd in table]))
    base = list(ff.frenet_grid(curve, ss, order=m + 1))
    mirror = list(ff.frenet_grid(focal, ss, order=m + 1))
    inner = slice(trim, ss.size - trim) if ss.size > 2 * trim + 4 else slice(None)
    idx = range(*inner.indices(ss.size))
    kres = chain = 0.0
    dots = np.empty((len(idx), m + 1))
    for row, i in enumerate(idx):
        A = table[i].A
        k_base = base[i].curvatures
        k_foc = mirror[i].curvatures
        kres = max(kres, float(np.max(np.abs(k_foc - k_base[::-1] / A))))
        quotients = k_foc * A / k_base[::-1]
        chain = max(chain, float(np.max(quotients) - np.min(quotients)))
        F, G = base[i].frame, mirror[i].frame
        dots[row, 0] = float(G[0] @ F[m])
        for a in range(1, m):
            dots[row, a] = float(G[a] @ F[m - a])
        dots[row, m] = float(G[m] @ F[0])
    align = np.abs(dots).min(axis=0)
    signs = np.sign(dots.mean(axis=0)).astype(int)
    flips = [(-1) ** a for a in range(1, m)]
    even, odd = np.array([1, *flips, 1]), np.array([1, *flips, -1])
    pattern = ("even" if np.array_equal(signs, even)
               else "odd" if np.array_equal(signs, odd) else "mixed")
    eps = int(np.sign(sum(table[i].epsilon for i in idx)))
    return FocalRelationsReport(m, kres, chain, float(align[0]), align[1:m].copy(),
                                float(align[m]), signs, pattern, eps, len(idx))


def synthesized_e4():
    profile = CurvatureProfile(
        (ff.curves.LinearProfile(1.0, 0.2), ff.curves.ConstantProfile(0.8),
         ff.curves.ConstantProfile(0.5)),
        (0.0, 2.0),
    )
    return ff.synthesize_from_curvatures(profile, 4)


def ramp_curve():
    return ff.synthesize_from_curvatures(CurvatureProfile((_RampProfile(2.0),), (0.0, 4.0)), 2)


def unit_wcurve5():
    r = math.sqrt(6.0)  # speed of the E5 W-curve, scaled out of its frequencies
    return ff.make_wcurve([1.0, 1.0], [1.0 / r, 2.0 / r], pitch=1.0 / r, dim=5,
                          domain=(0.0, 2 * math.pi * r))


@pytest.mark.parametrize("name,n", [("helix", 256), ("ellipse", 128), ("synthesized_e4", 256),
                                    ("ramp", 128), ("wcurve5_gap", 128)])
def test_relations_match_row_loop_exactly(name, n, unit_helix, ellipse_arc):
    curve = {"helix": lambda: unit_helix,
             "ellipse": lambda: ff.reparam_to_arclength(ellipse_arc),
             "synthesized_e4": synthesized_e4, "ramp": ramp_curve,
             "wcurve5_gap": unit_wcurve5}[name]()
    grid = curve.grid(n)
    table = ff.focal_curvatures(curve, grid)
    reports = [ff.focal_relations_check(curve, grid, table=table)]
    if name == "wcurve5_gap":
        # vertex rows mid-grid: the base frames of the kept rows need aligning again
        gap = (np.arange(n) >= 40) & (np.arange(n) < 60)
        table = dataclasses.replace(table, A=np.where(gap, 0.0, table.A),
                                    epsilon=np.where(gap, 0, table.epsilon))
        reports = [ff.focal_relations_check(curve, grid, table=table)]
    else:
        reports.append(ff.focal_relations_check(curve, grid))
    want = focal_relations_loop(curve, grid, table)
    for got in reports:
        for field in dataclasses.fields(FocalRelationsReport):
            np.testing.assert_array_equal(getattr(got, field.name), getattr(want, field.name),
                                          err_msg=field.name)
    if name in ("ramp", "wcurve5_gap"):
        assert table.is_vertex.any() and want.n_interior < n - 2 * 3


def test_repeated_grid_parameters_are_an_input_error(unit_salkowski):
    grid = np.repeat(unit_salkowski.grid(40), 2)
    with pytest.raises(ValueError, match="strictly monotone; t=0.0 breaks it"):
        ff.focal_curvatures(unit_salkowski, grid)
    with pytest.raises(ValueError, match="strictly monotone; t=0.0 breaks it"):
        ff.focal_relations_check(unit_salkowski, grid)


def test_relations_reject_a_table_from_another_grid(unit_helix):
    table = ff.focal_curvatures(unit_helix, unit_helix.grid(128))
    with pytest.raises(ValueError):
        ff.focal_relations_check(unit_helix, unit_helix.grid(129), table=table)


@pytest.mark.parametrize("name", ["wcurve4", "ramp"])
def test_realigned_slice_equals_frames_of_the_kept_rows(name, wcurve4):
    # The relations check takes its base frames from the focal table: the
    # kept rows of the full-grid frames, aligned again among themselves.
    # That must be exactly the frames of the grid without the dropped rows.
    if name == "wcurve4":
        curve = ff.reparam_to_arclength(wcurve4)
        grid = curve.grid(96)
        keep = np.ones(grid.size, bool)
        keep[30:50] = False  # a 20-row gap
    else:
        curve = ramp_curve()
        grid = curve.grid(128)
        keep = ~ff.focal_curvatures(curve, grid).is_vertex
    full = ff.frenet_grid(curve, grid)[keep]
    want = ff.frenet_grid(curve, grid[keep])
    realigned = full.frame * _alignment_signs(full.frame)[:, :, None]
    np.testing.assert_array_equal(realigned, want.frame)
    np.testing.assert_array_equal(full.curvatures, want.curvatures)
    if name == "wcurve4":
        assert np.count_nonzero(full.frame != want.frame) > 0  # a plain slice is not enough


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


def test_focal_table_rows_hold_their_columns_rows(unit_helix, helix_focal_table):
    assert helix_focal_table.is_vertex.shape == (256,)
    row = helix_focal_table[7]
    assert isinstance(row, ff.FocalData) and row.is_vertex is False
    assert type(row.A) is float and type(row.epsilon) is int
    assert sum(fd.is_vertex for fd in helix_focal_table) == 0
    # an integer row of the focal table or of its base pass holds its
    # columns' rows: Python numbers from the 1-d columns, arrays from the others
    numbers = {"s": float, "speed": float, "reduced_order": int, "A": float, "epsilon": int,
               "R_m": float}
    for i in (0, 7, -1):
        for table in (helix_focal_table, ff.frenet_grid(unit_helix, helix_focal_table.s)):
            row = table[i]
            assert type(row) is type(table)
            for f in dataclasses.fields(table):
                column, value = getattr(table, f.name), getattr(row, f.name)
                if f.name in numbers:
                    assert type(value) is numbers[f.name] and value == column[i]
                else:
                    assert type(value) is np.ndarray
                    np.testing.assert_array_equal(value, column[i])


def _assert_same_row(got, want):
    assert type(got) is type(want)
    for f in dataclasses.fields(want):
        value, expected = getattr(got, f.name), getattr(want, f.name)
        assert type(value) is type(expected), f.name
        if isinstance(expected, np.ndarray):
            assert value.dtype == expected.dtype
            np.testing.assert_array_equal(value, expected)
        else:
            assert value == expected


def test_iteration_gives_the_indexed_rows(unit_helix, helix_focal_table):
    # rows come column by column; each equals the integer-indexed row in
    # values and in types
    frames = ff.frenet_grid(unit_helix, helix_focal_table.s)
    for table in (helix_focal_table, frames, helix_focal_table[5:40:3]):
        rows = list(table)
        assert len(rows) == len(table)
        for i, row in enumerate(rows):
            _assert_same_row(row, table[i])


def test_deltas_follow_sign_rule(helix_focal_table):
    for fd in helix_focal_table[3:-3]:
        assert fd.epsilon == 1
        np.testing.assert_array_equal(fd.deltas, [-1, 1])
