import dataclasses
import decimal
import functools
import gc
import math
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import legint

import focalframe as ff
from focalframe import arclength, curves, synthesis
from focalframe.curves import (
    ConstantProfile,
    LinearProfile,
    ProfileFunction,
    SinusoidProfile,
    SplineProfile,
    TrigCoordinate,
    curve_from_coordinates,
    make_curve,
)
from focalframe.errors import (
    BadParameters,
    ConvergenceFailure,
    InvalidProfile,
    OrderUnsupported,
    OutOfDomain,
    RegularityFailure,
)
from focalframe.numdiff import fd_weights
from focalframe.specfile import build_curve, parse_curve_spec
from reference_kernels import (
    counting_curve,
    pow_newton_invert,
    run_in_threads,
    shifted_sine_evaluator,
)
from test_cli import EXAMPLE_SPECS

SQRT5 = math.sqrt(5.0)


def make_line(direction, dim):
    coords = tuple(TrigCoordinate(slope=float(d)) for d in direction[:dim])
    return curve_from_coordinates(coords, (0.0, 5.0), label="line")


# ------------------------------------------------------------ derivative oracle

def test_unit_circle_derivatives():
    c = ff.make_circle(1.0)
    d = ff.eval_derivatives(c, 0.0, 2)
    np.testing.assert_allclose(d, [[1, 0], [0, 1], [-1, 0]], atol=1e-15)


def test_line_derivatives():
    line = make_line((1.0, 2.0, 3.0), 3)
    d = ff.eval_derivatives(line, 1.7, 2)
    np.testing.assert_allclose(d[1], [1, 2, 3], atol=1e-15)
    np.testing.assert_allclose(d[2], [0, 0, 0], atol=1e-15)


def test_helix_derivatives_match_hand_differentiation(helix):
    a, b, t = 2.0, 1.0, 0.6
    d = ff.eval_derivatives(helix, t, 3)
    exact = np.array([
        [a * math.cos(t), a * math.sin(t), b * t],
        [-a * math.sin(t), a * math.cos(t), b],
        [-a * math.cos(t), -a * math.sin(t), 0.0],
        [a * math.sin(t), -a * math.cos(t), 0.0],
    ])
    np.testing.assert_allclose(d, exact, atol=1e-14)


def test_out_of_domain_and_order_errors(helix):
    with pytest.raises(OutOfDomain):
        ff.eval_derivatives(helix, 100.0, 1)
    with pytest.raises(OrderUnsupported):
        ff.eval_derivatives(helix, 1.0, helix.max_order + 1)


def test_array_call_checks_like_scalar_call(helix):
    ts = np.array([1.0, 100.0, -50.0])
    with pytest.raises(OutOfDomain, match="t=100.0 outside"):
        ff.eval_derivatives(helix, ts, 1)
    with pytest.raises(OutOfDomain):
        ff.eval_derivatives(helix, np.array([1.0, np.nan]), 1)
    with pytest.raises(OrderUnsupported):
        ff.eval_derivatives(helix, helix.grid(4), helix.max_order + 1)
    with pytest.raises(ValueError):
        ff.eval_derivatives(helix, helix.grid(4).reshape(2, 2), 1)
    # slack beyond the ends is clamped, as for a scalar
    lo, hi = helix.domain
    got = ff.eval_derivatives(helix, np.array([lo - 1e-12, hi + 1e-12]), 1)
    np.testing.assert_array_equal(got, ff.eval_derivatives(helix, np.array([lo, hi]), 1))


def test_evaluator_shape_is_checked_for_arrays():
    # an evaluator that answers with one (order + 1, dim) stack ignores the
    # array contract; a scalar call is a one-row array call, so it fails too
    def wrong_shape(t, order):
        return np.zeros((order + 1, 2))

    curve = make_curve(2, (0.0, 1.0), "analytic", 2, wrong_shape, check_regularity=False)
    for t in (0.5, np.array([0.2, 0.5])):
        with pytest.raises(RuntimeError, match="expected"):
            ff.eval_derivatives(curve, t, 1)


def _sampled_helix(helix):
    ts = helix.grid(256)
    return ff.sampled_curve(ts, np.array([helix.point(float(t)) for t in ts]))


def _synthesized():
    profile = ff.CurvatureProfile(
        (SinusoidProfile(1.0, 0.2, 1.5), ConstantProfile(0.4)), (0.0, 4.0))
    return ff.synthesize_from_curvatures(profile, 3, step=4.0 / 256)


def _kind_curve(kind, helix, salkowski, unit_salkowski):
    return {
        "analytic": lambda: salkowski,
        "sampled": lambda: _sampled_helix(helix),
        "synthesized": _synthesized,
        "arclength": lambda: unit_salkowski,
    }[kind]()


KINDS = ["analytic", "sampled", "synthesized", "arclength"]


@pytest.mark.parametrize("kind", KINDS)
def test_array_call_equals_stacked_scalar_calls(kind, helix, salkowski, unit_salkowski):
    curve = _kind_curve(kind, helix, salkowski, unit_salkowski)
    # a scalar call is the one-row case of the array call, so the two agree
    # exactly, row by row
    ts = np.linspace(curve.domain[0], curve.domain[1], 13)
    for order in range(curve.max_order + 1):
        got = ff.eval_derivatives(curve, ts, order)
        assert got.shape == (ts.size, order + 1, curve.dimension)
        for t, row in zip(ts, got):
            np.testing.assert_array_equal(ff.eval_derivatives(curve, float(t), order), row)


def test_scalar_calls_always_evaluate(helix):
    curve, calls = counting_curve(helix)
    grid = curve.grid(9)
    ff.eval_derivatives(curve, grid, 3)
    for t in grid:
        ff.eval_derivatives(curve, float(t), 3)
    assert calls == [(9, 3)] + [(1, 3)] * 9


@pytest.mark.parametrize("kind", KINDS)
def test_kept_rows_equal_fresh_scalar_calls(kind, helix, salkowski, unit_salkowski):
    curve, calls = counting_curve(_kind_curve(kind, helix, salkowski, unit_salkowski))
    # a uniform grid, then parameters off it and out of order; the centers
    # of the table built from the kept pass have the bits of fresh calls
    ts = np.concatenate([curve.grid(37), curve.domain[0] + np.array([0.3, 0.1, 0.7])])
    ff.curvature_table(curve, ts)
    centers = [ff.osculating_center_oracle(curve, float(t)) for t in ts]
    assert calls == [(ts.size, curve.dimension)]
    fresh = dataclasses.replace(curve)
    for t, center in zip(ts, centers):
        np.testing.assert_array_equal(center, ff.osculating_center_oracle(fresh, float(t)))
        assert center.shape == (curve.dimension,) and center.flags.writeable
    np.testing.assert_array_equal(ff.osculating_center_oracle(curve, ts), np.array(centers))
    assert len(calls) == 2 + ts.size


def _unit_kind_curve(kind, unit_salkowski):
    helix = ff.make_helix(0.6, 0.8)
    return {
        "analytic": lambda: helix,
        "sampled": lambda: _sampled_helix(helix),
        "synthesized": _synthesized,
        "arclength": lambda: unit_salkowski,
    }[kind]()


@pytest.mark.parametrize("kind", KINDS)
def test_oracle_rows_of_a_focal_table_skip_the_evaluator(kind, unit_salkowski):
    unit, calls = counting_curve(_unit_kind_curve(kind, unit_salkowski))
    table = ff.focal_curvatures(unit, unit.grid(96))
    assert calls == [(96, 3)]
    centers = [ff.osculating_center_oracle(unit, fd.s) for fd in table[3:-3]]
    assert calls == [(96, 3)]
    # an array call solves its own stack, with the bits of the table's rows
    np.testing.assert_array_equal(ff.osculating_center_oracle(unit, table.s)[3:-3], centers)
    np.testing.assert_array_equal(ff.osculating_center_oracle(unit, table.s[3:-3]), centers)
    fresh = dataclasses.replace(unit)
    for fd, center in zip(table[3:-3], centers):
        np.testing.assert_array_equal(center, ff.osculating_center_oracle(fresh, fd.s))
    assert len(calls) == 3 + 90
    # no rows is the empty stack
    assert ff.osculating_center_oracle(unit, np.array([])).shape == (0, 3)


def test_scalar_hits_of_every_type_read_the_table(helix):
    curve, calls = counting_curve(helix)
    grid = np.linspace(0.0, 2.0, 9)
    assert grid[4] == 1.0
    ff.curvature_table(curve, grid)
    want = ff.osculating_center_oracle(dataclasses.replace(helix), 1.0)
    # one float64 key for every scalar type, and no evaluator call
    for t in (1.0, np.float64(1.0), np.array(1.0), 1):
        got = ff.osculating_center_oracle(curve, t)
        np.testing.assert_array_equal(got, want)
        assert got.flags.writeable
    assert calls == [(9, 3)]


@pytest.mark.parametrize("miss", ["order", "negative-zero", "one-ulp", "replaced-curve"])
def test_kept_evaluation_misses(helix, miss):
    curve, calls = counting_curve(helix)
    grid = np.linspace(0.0, 2.0, 9)
    assert grid[0] == 0.0 and not np.signbit(grid[0])
    order = 2 if miss == "order" else 3
    ff.curvature_table(curve, grid, order=order)
    t, target = {
        "order": (float(grid[4]), curve),
        "negative-zero": (-0.0, curve),
        "one-ulp": (float(np.nextafter(grid[4], np.inf)), curve),
        "replaced-curve": (float(grid[4]), dataclasses.replace(curve)),
    }[miss]
    got = ff.osculating_center_oracle(target, t)
    assert calls == [(9, order), (1, 3)]
    # a miss keeps no center table
    assert curve._frenet_memo[0].centers is None
    np.testing.assert_array_equal(got, ff.osculating_center_oracle(dataclasses.replace(helix), t))


def test_writing_into_a_kept_row_leaves_the_next_hit_unchanged(helix):
    curve = dataclasses.replace(helix)
    grid = curve.grid(16)
    frames = ff.curvature_table(curve, grid)
    # the table's point is a view of the kept derivative stack, from which
    # the center table is solved: it is read-only
    with pytest.raises(ValueError, match="read-only"):
        frames.point[0, 0] = 0.0
    t = float(grid[5])
    want = ff.osculating_center_oracle(dataclasses.replace(helix), t)
    # a returned center, one row or the whole table, is the caller's own
    center = ff.osculating_center_oracle(curve, t)
    center[:] = 0.0
    np.testing.assert_array_equal(ff.osculating_center_oracle(curve, t), want)
    centers = ff.osculating_center_oracle(curve, grid)
    centers[:] = 0.0
    np.testing.assert_array_equal(ff.osculating_center_oracle(curve, t), want)
    np.testing.assert_array_equal(ff.osculating_center_oracle(curve, grid)[5], want)


def test_kept_evaluation_under_threads(helix):
    # threads that share one curve overwrite its kept pass with grids of
    # other parameters; an oracle call must still get its own row
    grids = [np.linspace(0.1 * i, 0.1 * i + 1.0, 7) for i in range(6)]
    fresh = dataclasses.replace(helix)
    want = {float(t): ff.osculating_center_oracle(fresh, float(t)) for g in grids for t in g}
    errors = []

    def work(i):
        try:
            for j in range(150):
                grid = grids[(i + j) % len(grids)]
                ff.curvature_table(helix, grid)
                for t in grid[::2]:
                    got = ff.osculating_center_oracle(helix, float(t))
                    if not np.array_equal(got, want[float(t)]):
                        errors.append(float(t))
        except Exception as exc:  # reported through ``errors``
            errors.append(exc)

    run_in_threads(work)
    assert errors == []


@pytest.mark.parametrize("t", [np.nan, 100.0, -1e-3], ids=repr)
def test_kept_evaluation_still_checks_the_domain(helix, t):
    curve, calls = counting_curve(helix)
    lo, hi = curve.domain
    # the grid runs past the ends by less than the domain slack
    ff.curvature_table(curve, np.array([lo - 1e-12, 1.0, hi + 1e-12]))
    with pytest.raises(OutOfDomain):
        ff.osculating_center_oracle(curve, t)
    # a kept parameter within the slack gives the center of the clamped one
    np.testing.assert_array_equal(ff.osculating_center_oracle(curve, lo - 1e-12),
                                  ff.osculating_center_oracle(dataclasses.replace(helix), lo))
    assert calls == [(3, 3)]


def _trig_reference(coords, t, order):
    """Rows 0..order of curve_from_coordinates at one t, one math.sin per term."""
    rows = []
    for j in range(order + 1):
        row = []
        for c in coords:
            acc = {0: c.const + c.slope * t, 1: c.slope}.get(j, 0.0)
            for amp, freq, phase in c.terms:
                acc += amp * freq**j * math.sin(freq * t + phase + j * 0.5 * math.pi)
            row.append(acc)
        rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_analytic_curve_matches_per_term_formula(dim):
    rng = np.random.default_rng(dim)
    coords = tuple(
        TrigCoordinate(const=float(rng.normal()), slope=float(rng.normal()),
                       terms=tuple((float(rng.uniform(0.2, 1.5)), float(rng.uniform(0.3, 4.0)),
                                    float(rng.uniform(0.0, 2 * math.pi)))
                                   for _ in range(int(rng.integers(0, 4)))))
        for _ in range(dim))
    curve = curve_from_coordinates(coords, (-1.0, 3.0))
    assert curve.max_order == dim + 1
    ts = np.linspace(-1.0, 3.0, 23)
    for order in range(curve.max_order + 1):
        got = ff.eval_derivatives(curve, ts, order)
        want = np.array([_trig_reference(coords, float(t), order) for t in ts])
        scale = np.maximum(1.0, np.max(np.abs(want), axis=(0, 2)))
        assert np.all(np.max(np.abs(got - want), axis=(0, 2)) <= 1e-13 * scale)


def _factory_coords(monkeypatch, make):
    """``make()``'s curve and the coordinates it passed to curve_from_coordinates."""
    seen = []
    build = curves.curve_from_coordinates

    def recording(coords, *args, **kwargs):
        seen.append(coords)
        return build(coords, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(curves, "curve_from_coordinates", recording)
        curve = make()
    (coords,) = seen
    return coords, curve


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("make", [
    lambda: curves.make_helix(2.0, 1.0),
    lambda: curves.make_salkowski(0.3),
    lambda: curves.make_wcurve([1.0, 0.7, 0.5, 0.3], [1.0, 1.5, 2.5, 4.0]),
    lambda: curves.random_trig_curve(5, seed=3),
], ids=["helix", "salkowski-0.3", "wcurve-E8", "random-E5"])
def test_two_sine_evaluator_against_shifted_sines(monkeypatch, make):
    coords, curve = _factory_coords(monkeypatch, make)
    top = curve.max_order
    t = curve.grid(97)
    # orders 0 and 1 keep the bits of one sin(theta + j pi/2) per order: the
    # exact cusp of the cycloid and the exact inflections of the sine graph
    # in test_frenet depend on them
    former = shifted_sine_evaluator(coords, top)
    for order in (0, 1, top):
        low = min(order, 1) + 1
        np.testing.assert_array_equal(_bits(curve.evaluator(t, order)[:, :low]),
                                      _bits(former(t, order)[:, :low]))
    # higher orders within roundoff of each order's scale, against the same
    # formula in long double
    got = curve.evaluator(t, top)
    want = shifted_sine_evaluator(coords, top, np.longdouble)(t, top)
    terms = [(amp, freq) for c in coords for amp, freq, _ in c.terms]
    for j in range(2, top + 1):
        scale = sum(abs(amp * freq**j) for amp, freq in terms)
        assert float(np.abs(got[:, j] - want[:, j]).max()) <= 1e-14 * scale


def test_array_call_on_linear_coordinates():
    line = make_line((1.0, 2.0), 2)
    got = line.evaluator(np.array([0.0, 1.5]), 2)
    np.testing.assert_allclose(got[1], [[1.5, 3.0], [1.0, 2.0], [0.0, 0.0]], atol=1e-15)


# ------------------------------------------------------------------- arc length

def test_circle_circumference():
    c = ff.make_circle(1.0)
    assert ff.arc_length(c, 0.0, 2 * math.pi) == pytest.approx(2 * math.pi, abs=1e-9)


def test_line_length():
    line = make_line((1.0, 0.0), 2)
    assert ff.arc_length(line, 0.0, 5.0) == pytest.approx(5.0, abs=1e-10)


def test_helix_length_is_constant_speed(helix):
    assert ff.arc_length(helix, 0.0, 2 * math.pi) == pytest.approx(2 * math.pi * SQRT5, abs=1e-8)


def test_arc_length_meets_closed_forms():
    # exact lengths: a circle, a circular helix, and an ellipse arc through
    # the incomplete elliptic integral of the second kind; the table stays at
    # its starting spans on all three, 32 per domain
    ellipeinc = pytest.importorskip("scipy.special").ellipeinc
    # (1.2 cos t, 2 sin t): speed 2 sqrt(1 - 0.64 sin^2 t)
    cases = [(ff.make_circle(1.7), 0.0, 2 * math.pi, 1.7 * 2 * math.pi),
             (ff.make_helix(2.0, 1.0), 0.0, 2 * math.pi, SQRT5 * 2 * math.pi),
             (ff.make_ellipse(1.2, 2.0), 0.25, 1.35,
              2.0 * (ellipeinc(1.35, 0.64) - ellipeinc(0.25, 0.64)))]
    for curve, t0, t1, exact in cases:
        assert ff.arc_length(curve, t0, t1) == pytest.approx(exact, rel=1e-13, abs=0.0)
        start = math.ceil(arclength._START_SPANS * (t1 - t0) / curve.length_of_domain)
        assert arclength._length_table(curve, t0, t1).edges.size == start + 1


def test_length_table_splits_only_unresolved_spans():
    # the full ellipse (0.2 cos t, 2 sin t) turns sharply at t = pi/2 and
    # 3 pi/2, where its speed dips to 0.2: on 4 equal spans its length is off
    # by 8e-12, so the tail rule splits spans until those at the turns are
    # 8 times narrower than those far from them
    ellipeinc = pytest.importorskip("scipy.special").ellipeinc
    curve = ff.make_ellipse(0.2, 2.0)
    exact = 2.0 * 4 * ellipeinc(0.5 * math.pi, 0.99)
    amap = arclength._ArclengthMap(curve, curve.grid(5))
    assert amap.total == pytest.approx(exact, rel=1e-13, abs=0.0)
    widths = np.diff(amap.edges)
    assert 4 < widths.size <= arclength._MAX_SPANS
    mids = 0.5 * (amap.edges[:-1] + amap.edges[1:])
    turn = np.abs(np.abs(mids - math.pi) - 0.5 * math.pi)  # distance to the turns
    assert turn[np.argmin(widths)] < 0.1
    assert np.all(widths[turn > 1.0] >= 8 * widths.min())


@pytest.mark.parametrize("samples", [200, 256])
def test_sampled_length_table_is_the_fixed_table(helix, samples):
    # the stencils switch at the sample nodes, so the tail of a span across
    # one never reaches roundoff; a sampled curve's table is the fixed one of
    # ceil(512 f) equal spans on an arc over a fraction f of the domain,
    # with its evaluator points and its length error on the full domain
    # (1.4e-15 and 1.0e-15 relative; a table split up to the cap read
    # 1.7e-14 and 3.8e-15)
    ts = helix.grid(samples)
    sampled = ff.sampled_curve(ts, np.array([helix.point(float(t)) for t in ts]))
    points = []

    def evaluator(t, order):
        points.append(t.size)
        return sampled.evaluator(t, order)

    curve = make_curve(3, sampled.domain, "sampled", 5, evaluator, check_regularity=False)
    for t0, t1 in [(0.0, 2 * math.pi), (1.0, 1.0 + 0.3 * 2 * math.pi), (1.0, 1.1), (0.5, 0.502)]:
        points.clear()
        amap = arclength._length_table(curve, t0, t1)
        spans = math.ceil(arclength._MAX_SPANS * (t1 - t0) / curve.length_of_domain)
        assert sum(points) == 20 * spans
        np.testing.assert_array_equal(amap.edges, np.linspace(t0, t1, spans + 1))
    exact = SQRT5 * 2 * math.pi
    assert ff.arc_length(curve, 0.0, 2 * math.pi) == pytest.approx(exact, rel=2e-15, abs=0.0)
    assert ff.reparam_to_arclength(curve).domain[1] == pytest.approx(exact, rel=2e-15, abs=0.0)


def test_length_table_of_an_arc_costs_its_share(helix):
    # an analytic arc over a fraction f of the domain starts from
    # ceil(32 f) spans, so a short arc evaluates one span of 20 points
    points = []

    def evaluator(t, order):
        points.append(t.size)
        return helix.evaluator(t, order)

    curve = make_curve(3, helix.domain, "analytic", 5, evaluator)
    points.clear()
    assert ff.arc_length(curve, 1.0, 1.1) == pytest.approx(0.1 * SQRT5, rel=1e-15, abs=0.0)
    assert points == [20]


# -------------------------------------------------------------- reparametrization

def test_reparam_of_unit_speed_curve_is_identity_on_trace():
    c = ff.make_circle(1.0)  # already unit speed
    cu = ff.reparam_to_arclength(c)
    for s in np.linspace(0.0, 2 * math.pi, 17):
        np.testing.assert_allclose(cu.point(s), c.point(s), atol=1e-9)


def test_reparam_linear_rescale():
    c = make_line((2.0, 0.0), 2)  # (2t, 0) on [0, 5]
    cu = ff.reparam_to_arclength(c)
    assert cu.domain == pytest.approx((0.0, 10.0), abs=1e-10)
    np.testing.assert_allclose(cu.point(3.0), [3.0, 0.0], atol=1e-10)


def test_reparam_helix_closed_form(unit_helix):
    assert unit_helix.domain[1] == pytest.approx(2 * math.pi * SQRT5, abs=1e-8)
    for s in (0.0, 2.0, 9.5):
        expected = np.array([2 * math.cos(s / SQRT5), 2 * math.sin(s / SQRT5), s / SQRT5])
        np.testing.assert_allclose(unit_helix.point(s), expected, atol=1e-9)


def test_arc_length_agrees_with_reparam_table(salkowski, unit_salkowski):
    lo, hi = salkowski.domain
    assert ff.arc_length(salkowski, lo, hi) == pytest.approx(unit_salkowski.domain[1], abs=1e-12)
    assert ff.arc_length(salkowski, 1.0, 1.0) == 0.0


def test_reparam_sampled_curve(helix, unit_helix):
    unit = ff.reparam_to_arclength(_sampled_helix(helix))
    assert unit.kind == "sampled"
    assert unit.domain[1] == pytest.approx(unit_helix.domain[1], abs=1e-8)
    for s in (1.0, 7.0, 12.0):
        np.testing.assert_allclose(unit.point(s), unit_helix.point(s), atol=1e-8)
        assert np.linalg.norm(unit.derivative(s)) == pytest.approx(1.0, abs=1e-12)


def test_reparam_synthesized_curve():
    syn = _synthesized()  # already unit speed, domain [0, 4]
    unit = ff.reparam_to_arclength(syn)
    assert unit.domain[1] == pytest.approx(4.0, abs=1e-8)
    for s in (0.5, 2.0, 3.5):
        np.testing.assert_allclose(unit.point(s), syn.point(s), atol=1e-8)
        np.testing.assert_allclose(unit.derivative(s, 2), syn.derivative(s, 2), atol=1e-6)


def test_curve_keeps_its_arclength_version(salkowski):
    curve, calls = counting_curve(salkowski)
    unit = ff.reparam_to_arclength(curve)
    assert calls == [(640, 1)]
    assert ff.reparam_to_arclength(curve) is unit and calls == [(640, 1)]
    # the unit-speed probe runs; the version is the kept one
    assert curves.as_unit_speed(curve) is unit and calls[1:] == [(17, 1)]
    # a replaced curve starts with an empty slot and builds its own table
    fresh = dataclasses.replace(curve)
    assert fresh._arclength_memo == [None]
    assert ff.reparam_to_arclength(fresh) is not unit and calls[2:] == [(640, 1)]
    # a unit-speed curve that keeps an arclength version is still its own
    circle = ff.make_circle(1.0)
    ff.reparam_to_arclength(circle)
    assert curves.as_unit_speed(circle) is circle


def test_verify_reads_the_pass_of_the_kept_arclength_version(salkowski):
    curve, calls = counting_curve(salkowski)
    unit = ff.reparam_to_arclength(curve)
    ff.focal_curvatures(unit, unit.grid(96))
    assert calls == [(640, 1), (96, 3)]
    assert ff.verify_focal_slant(curve, 2, curve.grid(96)).passed
    # the base curve's pass and the unit-speed probe; no second length
    # table and no second pass of the arclength version
    assert calls[2:] == [(96, 3), (17, 1)]


def test_kept_arclength_version_holds_no_reference_to_its_base():
    enabled = gc.isenabled()
    gc.disable()
    try:
        base = ff.make_helix(2.0, 1.0)
        unit = ff.reparam_to_arclength(base)
        ff.focal_curvatures(unit, unit.grid(64))
        ref = weakref.ref(base)
        del base
        assert ref() is None
        np.testing.assert_allclose(unit.point(SQRT5), [2 * math.cos(1.0), 2 * math.sin(1.0), 1.0],
                                   atol=1e-9)
    finally:
        if enabled:
            gc.enable()


def test_threads_that_build_the_arclength_version_at_once_get_equal_curves():
    unit = ff.reparam_to_arclength(ff.make_salkowski(0.3))
    s = unit.grid(33)
    want = ff.eval_derivatives(unit, s, 3)
    for _ in range(10):
        base = ff.make_salkowski(0.3)
        barrier = threading.Barrier(4, timeout=60.0)
        got = [None] * 4

        def work(i):
            barrier.wait()
            got[i] = ff.reparam_to_arclength(base)

        run_in_threads(work)
        assert base._arclength_memo[0] in got
        for unit in got:
            assert unit.domain == got[0].domain and unit.label == got[0].label
            np.testing.assert_array_equal(ff.eval_derivatives(unit, s, 3), want)


def _stalling_evaluator(t, order):
    # (t - clip(t, -1/4, 1/4), 0): at rest on the middle stretch of [-1, 1]
    t = np.asarray(t, dtype=float)
    zero = np.zeros_like(t)
    rows = [np.stack([t - np.clip(t, -0.25, 0.25), zero], axis=-1),
            np.stack([(np.abs(t) >= 0.25).astype(float), zero], axis=-1)]
    rows += [np.stack([zero, zero], axis=-1)] * (order - 1)
    return np.stack(rows[: order + 1], axis=-2)


def test_reparam_rejects_speed_vanishing_inside_domain():
    curve = make_curve(2, (-1.0, 1.0), "analytic", 3, _stalling_evaluator,
                       check_regularity=False)
    with pytest.raises(RegularityFailure):
        ff.reparam_to_arclength(curve)


def test_inversion_budget_exhaustion_raises(monkeypatch):
    # inside the steep curve's climb, on the span of the curve's own length
    # table that holds t = -2e-4, the inversion needs more Newton and
    # bisection steps than the patched budget (6 at a tenth and at half of
    # the span); a knot converges in one step
    curve = make_curve(2, (-1.0, 1.0), "analytic", 3, _steep_speed_evaluator,
                       check_regularity=False)
    unit = ff.reparam_to_arclength(curve)
    amap = _length_table(curve)
    i, cum = int(np.searchsorted(amap.edges, -2e-4)) - 1, amap.cum
    lo, width = float(cum[i]), float(cum[i + 1] - cum[i])
    knot, s_bad, s_worse = float(cum[10]), lo + 0.5 * width, lo + 0.1 * width
    monkeypatch.setattr(arclength, "_NEWTON_STEPS", 3)
    with pytest.raises(ConvergenceFailure, match=f"at s={s_bad!r} did not converge in 3 "):
        unit.point(s_bad)
    unit.point(knot)
    # the error names the first point of the array that did not converge
    with pytest.raises(ConvergenceFailure, match=f"at s={s_bad!r} did not"):
        unit.evaluator(np.array([knot, s_bad, s_worse]), 2)


# The scalar arclength route that array evaluation replaced, kept as the
# parity reference: Legendre tables, one-point Newton with the three-term
# recurrence, and fixed-point series reversion with Horner composition. The
# series work is exact to 40 digits from the float base derivatives: at
# order 4 on Salkowski n = 0.7 near the end of its domain the terms cancel
# from about 250 to 0.71, and a float64 reference was itself up to 8.4e-14
# of that order's scale from the exact value, beyond the parity bound.
_REF_CONTEXT = decimal.Context(prec=40)


def _ref_sqrt(a, n):
    s = [decimal.Decimal(0)] * n
    s[0] = a[0].sqrt()
    for j in range(1, n):
        acc = a[j] if j < len(a) else decimal.Decimal(0)
        acc -= sum((s[i] * s[j - i] for i in range(1, j)), decimal.Decimal(0))
        s[j] = acc / (2 * s[0])
    return s


def _ref_mul(a, b, n):
    return [sum((a[i] * b[k - i] for i in range(k + 1)), decimal.Decimal(0)) for k in range(n)]


def _ref_compose(f, g, n):
    out = [decimal.Decimal(0)] * n
    out[0] = f[-1]
    for c in f[-2::-1]:
        out = _ref_mul(out, g, n)
        out[0] += c
    return out


def _ref_reverse(s, n):
    ident = [decimal.Decimal(int(k == 1)) for k in range(n)]
    t = [x / s[1] for x in ident]
    for _ in range(n):
        comp = _ref_compose(s, t, n)
        t = [t[k] - (comp[k] - ident[k]) / s[1] for k in range(n)]
    return t


def _length_table(curve):
    # the table that reparam_to_arclength builds
    return arclength._length_table(curve, *curve.domain)


class _ScalarArclength:
    def __init__(self, curve, edges):
        self.curve, self.ts, self.half = curve, edges, 0.5 * np.diff(edges)
        nodes = (edges[:-1] + self.half)[:, None] + self.half[:, None] * arclength._GL_NODES
        speeds = np.linalg.norm(curve.evaluator(nodes.ravel(), 1)[:, 1], axis=-1)
        speeds = speeds.reshape(nodes.shape)
        self.rate = speeds @ arclength._GL_TO_LEGENDRE * self.half[:, None]
        self.arc = legint(self.rate, lbnd=-1.0, axis=1)
        self.cum = np.concatenate([[0.0], np.cumsum(self.half * (speeds @ arclength._GL_WEIGHTS))])
        self.total = float(self.cum[-1])

    def invert(self, s):
        s = min(max(s, 0.0), self.total)
        i = int(np.clip(np.searchsorted(self.cum, s) - 1, 0, self.half.size - 1))
        target = float(s - self.cum[i])
        arc, rate = self.arc[i].tolist(), self.rate[i].tolist()
        start, half = float(self.ts[i]), float(self.half[i])
        lo, hi = -1.0, 1.0
        x = min(max(-1.0 + 2.0 * target / max(self.cum[i + 1] - self.cum[i], 1e-300), lo), hi)
        for _ in range(60):
            p = [1.0, x]
            for k in range(1, len(arc) - 1):
                p.append(((2 * k + 1) * x * p[k] - k * p[k - 1]) / (k + 1))
            err = sum(map(float.__mul__, p, arc)) - target
            if err > 0.0:
                hi = x
            else:
                lo = x
            slope = sum(map(float.__mul__, p, rate))
            x_new = x - err / slope if slope > 0.0 else math.nan
            if not (lo <= x_new <= hi):
                x_new = 0.5 * (lo + hi)
            t = start + half * (1.0 + x_new)
            if err == 0.0 or half * abs(x_new - x) <= 1e-15 * max(1.0, abs(t)):
                return t
            x = x_new
        raise ConvergenceFailure(f"reference inversion at s={s!r} did not converge")

    def evaluate(self, s, order):
        base = ff.eval_derivatives(self.curve, self.invert(s), max(order, 1))
        if order == 0:
            return base[:1]
        n = order + 1
        with decimal.localcontext(_REF_CONTEXT):
            fact = [decimal.Decimal(math.factorial(k)) for k in range(n)]
            gcoef = [[decimal.Decimal(float(base[k, c])) / fact[k] for k in range(n)]
                     for c in range(base.shape[1])]
            dcoef = [[(k + 1) * g[k + 1] for k in range(order)] for g in gcoef]
            w = [sum((d[i] * d[j - i] for d in dcoef for i in range(j + 1)), decimal.Decimal(0))
                 for j in range(order)]
            root = _ref_sqrt(w, order)
            scoef = [decimal.Decimal(0)] + [root[k - 1] / k for k in range(1, n)]
            tcoef = _ref_reverse(scoef, n)
            out = [_ref_compose(g, tcoef, n) for g in gcoef]
            return np.array([[float(col[k] * fact[k]) for col in out] for k in range(n)])


_PARITY_CURVES = {
    "salkowski-0.3": lambda: ff.make_salkowski(0.3),
    "salkowski-0.7": lambda: ff.make_salkowski(0.7),
    "helix": lambda: ff.make_helix(2.0, 1.0),
    "ellipse-arc": lambda: ff.make_ellipse(2.0, 1.2, domain=(0.25, 1.35)),
    "wcurve5": lambda: ff.make_wcurve([1.0, 1.0], [1.0, 2.0], pitch=1.0, dim=5),
    "wcurve4": lambda: ff.make_wcurve([1.0, 0.6], [1.0, 2.0], dim=4),
}


@pytest.mark.parametrize("name", sorted(_PARITY_CURVES))
def test_array_arclength_matches_scalar_reference(name):
    curve = _PARITY_CURVES[name]()
    unit = ff.reparam_to_arclength(curve)
    amap = _length_table(curve)
    ref = _ScalarArclength(curve, amap.edges)
    assert unit.domain[1] == amap.total == ref.total
    ss = np.linspace(0.0, ref.total, 97)
    # inversions agree within the Newton stop rule, 1e-15 relative in t
    want_t = np.array([ref.invert(float(s)) for s in ss])
    assert np.all(np.abs(amap.invert(ss) - want_t) <= 1e-15 * np.maximum(1.0, np.abs(want_t)))
    for order in range(curve.max_order + 1):
        got = unit.evaluator(ss, order)
        want = np.array([ref.evaluate(float(s), order) for s in ss])
        assert got.shape == want.shape == (97, order + 1, curve.dimension)
        # the bound scales with each derivative order's own largest entry
        scale = np.max(np.abs(want), axis=(0, 2))
        assert np.all(np.max(np.abs(got - want), axis=(0, 2)) <= 5e-14 * scale)
        for i in range(0, 97, 8):
            np.testing.assert_array_equal(ff.eval_derivatives(unit, float(ss[i]), order), got[i])


def _steep_speed_evaluator(t, order):
    # (t + 0.999 e log cosh(t / e), 0): the speed climbs from 0.001 to 1.999
    # within a few e = 1e-4 of t = 0, inside one span of a table of 512 equal
    # spans; the tail rule spreads the climb over 25 spans of its own table
    t = np.asarray(t, dtype=float)
    zero = np.zeros_like(t)
    u = t / 1e-4
    rows = [np.stack([t + 0.999e-4 * (np.logaddexp(u, -u) - math.log(2.0)), zero], axis=-1),
            np.stack([1.0 + 0.999 * np.tanh(u), zero], axis=-1)]
    rows += [np.stack([zero, zero], axis=-1)] * (order - 1)
    return np.stack(rows[: order + 1], axis=-2)


def test_inversion_bisects_where_newton_leaves_the_bracket():
    # Newton alone fails to converge on the span holding the climb; the
    # bracket's bisection fallback must carry it
    curve = make_curve(2, (-1.0, 1.0), "analytic", 3, _steep_speed_evaluator,
                       check_regularity=False)
    ref = _ScalarArclength(curve, curve.grid(513))
    ss = np.linspace(0.0, ref.total, 2001)
    t = arclength._ArclengthMap(curve, curve.grid(513)).invert(ss)
    assert np.all(np.diff(t) > 0.0)
    np.testing.assert_allclose(t, [ref.invert(float(s)) for s in ss], rtol=0.0, atol=1e-15)


def _elliptical_helix():
    return curve_from_coordinates((
        TrigCoordinate(terms=((1.0, 1.0, 0.5 * math.pi),)),
        TrigCoordinate(terms=((0.93, 1.0, 0.0),)),
        TrigCoordinate(slope=1.0),
    ), (0.0, 2 * math.pi), label="elliptical helix")


def _both_tables(curve):
    # the table that reparam_to_arclength builds, and the fixed one of 512
    # equal spans that it replaced
    return _length_table(curve), arclength._ArclengthMap(curve, curve.grid(513))


@pytest.mark.parametrize("name,budget", [
    ("helix", 1), ("wcurve5", 1), ("circle", 1),
    ("ellipse-arc", 3), ("elliptical-helix", 3), ("salkowski-0.3", 4), ("salkowski-0.7", 4),
])
def test_inversion_step_counts(name, budget, monkeypatch):
    # a constant-speed span converges in its first step from the linear
    # guess; on the varying families the last step confirms
    curve = {**_PARITY_CURVES, "circle": lambda: ff.make_circle(1.7),
             "elliptical-helix": _elliptical_helix}[name]()
    monkeypatch.setattr(arclength, "_NEWTON_STEPS", budget)
    for amap in _both_tables(curve):
        t = amap.invert(np.linspace(0.0, amap.total, 1001))
        np.testing.assert_allclose(t[[0, -1]], curve.domain, rtol=0.0, atol=1e-15)
        assert np.all(np.diff(t) > 0.0)


def _seeded_inversion_curves(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.3, 3.0, 2)
    lo = rng.uniform(0.0, 2.0)
    ts = np.sort(rng.uniform(0.0, 6.0, 160))
    pts = np.stack([a * np.cos(ts), b * np.sin(ts), 0.4 * ts], axis=-1)
    return {
        "salkowski": ff.make_salkowski(rng.uniform(0.12, 0.45)),
        "helix": ff.make_helix(*rng.uniform(0.3, 3.0, 2)),
        "ellipse-arc": ff.make_ellipse(a, b + 0.1, domain=(lo, lo + rng.uniform(0.5, 3.0))),
        "sampled": ff.sampled_curve(ts, pts),
    }


@pytest.mark.parametrize("seed", range(4))
def test_inversion_matches_pow_kernel_within_two_ulp(seed):
    # running products round differently from libm pow, so a Newton step
    # may land an ulp apart
    rng = np.random.default_rng(100 + seed)
    fixed = {"ellipse-0.2/2": ff.make_ellipse(0.2, 2.0),
             "steep": make_curve(2, (-1.0, 1.0), "analytic", 3, _steep_speed_evaluator,
                                 check_regularity=False)}
    for name, curve in {**_seeded_inversion_curves(seed), **fixed}.items():
        amap = _length_table(curve)
        ss = np.concatenate([np.sort(rng.uniform(0.0, amap.total, 500)), amap.cum])
        want = pow_newton_invert(amap, ss)
        got = amap.invert(ss)
        assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want))), name


@pytest.mark.parametrize("n", [96, 256])
@pytest.mark.parametrize("name", sorted(name for name, spec in EXAMPLE_SPECS.items()
                                        if spec["type"] != "curvatures"))
def test_inversion_matches_pow_kernel_bitwise_on_example_grids(name, n):
    curve = build_curve(parse_curve_spec(EXAMPLE_SPECS[name]))
    unit = ff.reparam_to_arclength(curve)
    amap = _length_table(curve)
    ss = unit.grid(n)
    np.testing.assert_array_equal(amap.invert(ss), pow_newton_invert(amap, ss))


def test_zero_width_arclength_map_inverts():
    curve = ff.make_salkowski(0.3)
    amap = arclength._ArclengthMap(curve, np.array([1.0, 1.0]))
    assert amap.total == 0.0
    np.testing.assert_array_equal(amap.invert(np.zeros(3)), [1.0, 1.0, 1.0])


def test_reparam_speed_is_one_everywhere(unit_salkowski):
    probe = unit_salkowski.grid(1024)
    speeds = [np.linalg.norm(unit_salkowski.derivative(float(s))) for s in probe]
    assert np.max(np.abs(np.asarray(speeds) - 1.0)) < 1e-8


# ---------------------------------------------------------------------- factories

def test_circle_curvature_constant():
    c = ff.make_circle(2.0)
    for s in np.linspace(0.1, 6.0, 9):
        assert ff.frenet_apparatus(c, s, 2).curvatures[0] == pytest.approx(0.5, abs=1e-12)


def test_helix_curvature_constants(helix):
    fd = ff.frenet_apparatus(helix, 1.1, 3)
    np.testing.assert_allclose(fd.curvatures, [0.4, 0.2], atol=1e-12)


def test_wcurve_all_curvatures_constant(wcurve5):
    table = ff.curvature_table(wcurve5, wcurve5.grid(32))
    assert table.ok.all()
    spread = table.curvatures.max(axis=0) - table.curvatures.min(axis=0)
    assert np.max(spread) < 1e-10
    assert table.curvatures.shape[1] == 4


def test_salkowski_constant_curvature_varying_torsion(salkowski):
    table = ff.curvature_table(salkowski, salkowski.grid(64))
    np.testing.assert_allclose(table.curvatures[:, 0], 1.0, atol=1e-9)
    k2 = table.curvatures[:, 1]
    assert k2.max() - k2.min() > 0.5
    # arclength from the domain start follows (sqrt(1-n^2)/n) sin(n t)
    n = 0.3
    t0, t1 = salkowski.domain[0], 2.0
    expected = math.sqrt(1 - n * n) / n * (math.sin(n * t1) - math.sin(n * t0))
    assert ff.arc_length(salkowski, t0, t1) == pytest.approx(expected, abs=1e-9)


def test_factory_parameter_validation():
    with pytest.raises(BadParameters):
        ff.make_circle(-1.0)
    with pytest.raises(BadParameters):
        ff.make_helix(0.0, 1.0)
    with pytest.raises(BadParameters):
        ff.make_wcurve([1.0, 1.0], [1.0, 1.0], dim=4)  # repeated frequency
    with pytest.raises(BadParameters):
        ff.make_wcurve([1.0], [1.0], pitch=0.0, dim=3)  # odd dim needs pitch
    with pytest.raises(BadParameters):
        ff.make_salkowski(0.0)
    with pytest.raises(BadParameters):
        ff.make_salkowski(0.5)
    with pytest.raises(BadParameters):
        ff.make_ellipse(2.0, 2.0)
    with pytest.raises(BadParameters):
        ff.make_helix(float("nan"), 1.0)  # nan <= 0 is False: caught as non-finite
    with pytest.raises(BadParameters):
        ff.make_circle(float("inf"))
    with pytest.raises(BadParameters):
        ff.make_wcurve([1.0], [1.0], pitch=float("nan"), dim=3)


@given(st.floats(0.12, 0.45))
@settings(max_examples=10)
def test_salkowski_gate_accepts_admissible_parameters(n):
    curve = ff.make_salkowski(n)
    assert curve.dimension == 3


# ------------------------------------------------------------------ sampled curves

def test_sampled_matches_analytic_derivatives(helix, salkowski):
    for curve in (helix, salkowski):
        ts = curve.grid(512)
        pts = np.array([curve.point(float(t)) for t in ts])
        s = ff.sampled_curve(ts, pts)
        lo, hi = curve.domain
        for t in np.linspace(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo), 7):
            got = ff.eval_derivatives(s, float(t), 3)
            want = ff.eval_derivatives(curve, float(t), 3)
            for order in range(1, 4):
                rel = np.linalg.norm(got[order] - want[order]) / np.linalg.norm(want[order])
                assert rel < 1e-6


@pytest.mark.parametrize("order", [1, 3, 5])
def test_sampled_derivative_convergence_order_depends_on_requested_order(order):
    # one evaluation of order o differentiates from one window of o + 6
    # nodes, so derivative j converges at order o + 6 - j: halving the
    # spacing of a sampled helix (1, 0.5) from 24 to 48 samples reads
    # 5.85-7.02 at o = 1, 6.03-9.42 at o = 3 and 6.30-11.85 at o = 5
    helix = ff.make_helix(1.0, 0.5)
    probe = helix.grid(97)
    want = helix.evaluator(probe, order)

    def worst_error(samples):
        ts = helix.grid(samples)
        sampled = ff.sampled_curve(ts, helix.evaluator(ts, 0)[:, 0])
        return np.max(np.abs(sampled.evaluator(probe, order) - want), axis=(0, 2))

    rates = np.log2(worst_error(24) / worst_error(48))
    assert np.all(rates >= 5.5)
    assert np.all(rates >= order + 5.5 - np.arange(order + 1))


def test_sampled_curve_rejects_bad_input():
    with pytest.raises(BadParameters):
        ff.sampled_curve([0.0, 1.0], [[0.0, 0.0], [1.0, 0.0]])  # too few rows
    ts = np.linspace(0, 1, 16)
    with pytest.raises(BadParameters):
        ff.sampled_curve(ts[::-1], np.zeros((16, 2)))


def test_sampled_curve_zero_speed_rejected():
    ts = np.linspace(0.0, 1.0, 16)
    pts = np.zeros((16, 2))  # constant point
    with pytest.raises(RegularityFailure):
        ff.sampled_curve(ts, pts)


def _exponential_evaluator(t, order):
    """(e^{40t}, 0): its speed spans 17 orders of magnitude over [0, 1]."""
    e = np.exp(40.0 * np.asarray(t, dtype=float))
    rows = [np.stack([40.0**j * e, np.zeros_like(e)], axis=-1) for j in range(order + 1)]
    return np.stack(rows, axis=-2)


def test_regularity_failure_names_its_relative_floor():
    with pytest.raises(RegularityFailure) as exc:
        make_curve(2, (0.0, 1.0), "analytic", 2, _exponential_evaluator)
    assert str(exc.value) == ("speed 4.000e+01 at t=0.0 is not above "
                              "1e-12 * max(1, largest probe speed 9.4e+18)")


# ----------------------------------------------------------------- spline profile

def _spline_nodes(rng, n, jitter):
    """n nodes over a random length, interior ones moved by up to jitter spacings."""
    s = np.linspace(0.0, rng.uniform(0.5, 12.0), n)
    s[1:-1] += rng.uniform(-jitter, jitter, n - 2) * s[1]
    return s


def _end_slopes(s, y):
    w = fd_weights(np.stack([s[:5], s[-5:]]), s[[0, -1]], 1)[:, 1]
    return float(w[0] @ y[:5]), float(w[1] @ y[-5:])


@pytest.mark.parametrize("jitter", [0.0, 0.3], ids=["uniform", "jittered"])
def test_spline_profile_matches_scipy_cubic_spline(jitter):
    interpolate = pytest.importorskip("scipy.interpolate")
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(5, 160))
        s = _spline_nodes(rng, n, jitter)
        y = rng.uniform(0.3, 2.0, n)
        left, right = _end_slopes(s, y)
        ref_spline = interpolate.CubicSpline(s, y, bc_type=((1, left), (1, right)))
        profile = SplineProfile(s, y)
        xs = np.concatenate([s, rng.uniform(s[0] - 0.5, s[-1] + 0.5, 64)])
        for order in range(4):
            ref = ref_spline(xs, nu=order)
            got = profile(xs, order)
            assert np.max(np.abs(got - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))


def test_spline_profile_reproduces_a_cubic():
    s = _spline_nodes(np.random.default_rng(3), 23, 0.3)
    c = (0.7, -0.4, 0.15, -0.02)
    derivs = [np.polynomial.Polynomial(c).deriv(j) for j in range(4)]
    profile = SplineProfile(s, derivs[0](s))
    for x in np.linspace(s[0] - 1.0, s[-1] + 1.0, 101):
        for order in range(4):
            value = profile(x, order)
            assert np.shape(value) == ()
            assert value == pytest.approx(derivs[order](x), rel=1e-11, abs=1e-11)
        assert profile(x, 4) == 0.0


def test_spline_profile_is_c2_at_the_knots():
    rng = np.random.default_rng(5)
    s = _spline_nodes(rng, 40, 0.3)
    profile = SplineProfile(s, rng.uniform(0.3, 2.0, s.size))
    for knot in s[1:-1]:
        before = np.nextafter(knot, -np.inf)  # still in the span left of the knot
        for order in range(3):
            assert profile(before, order) == pytest.approx(profile(knot, order), abs=1e-11)
    # the third derivative is piecewise constant and does jump
    assert profile(np.nextafter(s[7], -np.inf), 3) != profile(s[7], 3)


def test_spline_profile_clamps_to_the_stencil_end_slopes():
    rng = np.random.default_rng(9)
    s = _spline_nodes(rng, 30, 0.3)
    y = rng.uniform(0.3, 2.0, s.size)
    left, right = _end_slopes(s, y)
    profile = SplineProfile(s, y)
    assert profile(s[0], 1) == left
    assert profile(s[-1], 1) == pytest.approx(right, rel=1e-12, abs=1e-12)


def test_spline_profile_extends_its_end_spans():
    rng = np.random.default_rng(13)
    s = _spline_nodes(rng, 12, 0.3)
    profile = SplineProfile(s, rng.uniform(0.3, 2.0, s.size))
    for base, x in [(s[0], s[0] - 0.7), (s[-2], s[-1] + 0.7)]:
        # a cubic equals its Taylor expansion at the start of its span
        taylor = [profile(base, j) / math.factorial(j) for j in range(4)]
        for order in range(4):
            expected = np.polynomial.Polynomial(taylor).deriv(order)(x - base)
            assert profile(x, order) == pytest.approx(expected, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("s,y", [
    (np.zeros((2, 5)), np.ones((2, 5))),
    (np.arange(6.0), np.ones(5)),
    (np.arange(4.0), np.ones(4)),
    ([0.0, 1.0, math.nan, 3.0, 4.0], np.ones(5)),
    (np.arange(5.0), [1.0, 1.0, math.inf, 1.0, 1.0]),
    ([0.0, 1.0, 2.0, 2.0, 3.0], np.ones(5)),
    ([4.0, 3.0, 2.0, 1.0, -1.0], np.ones(5)),
], ids=["2-d", "length-mismatch", "too-few", "nan-node", "inf-value", "repeated-node",
        "decreasing"])
def test_spline_profile_rejects_bad_rows(s, y):
    with pytest.raises(InvalidProfile):
        SplineProfile(s, y)


@pytest.mark.parametrize("spacing", [5e-324, 1e-300, 1e-150])
def test_spline_profile_rejects_nodes_too_close_for_its_stencil(spacing):
    # the end-slope stencil divides by products of node gaps and overflows;
    # this used to print RuntimeWarnings and return a NaN spline
    with pytest.raises(InvalidProfile, match=f"overflow with nodes {spacing:.3g} apart"):
        SplineProfile(np.arange(8) * spacing, np.ones(8))


@pytest.mark.parametrize("spacing,accepted", [(1e-80, False), (1e-78, True), (1e-60, True)])
def test_spline_profile_refuses_an_inexact_end_stencil(spacing, accepted):
    # at 1e-80 the stencil's node products are subnormal: its weights stay
    # finite but differentiate 1 and s with relative errors near 1e-6, and
    # the spline of a constant had slopes of 1.5e-7 of the natural scale 1/h
    nodes, ones = np.arange(8) * spacing, np.ones(8)
    if accepted:
        profile = SplineProfile(nodes, ones)
        xs = np.linspace(0.0, 7 * spacing, 50)
        assert np.max(np.abs(profile(xs, 0) - 1.0)) < 1e-10
        assert np.max(np.abs(profile(xs, 1))) * spacing < 1e-10
    else:
        with pytest.raises(InvalidProfile, match="end-slope stencil loses precision"):
            SplineProfile(nodes, ones)


@pytest.mark.parametrize("kind", ["constant", "linear", "sinusoid", "spline"])
def test_profile_array_call_equals_scalar_calls(kind):
    rng = np.random.default_rng(17)
    s = _spline_nodes(rng, 12, 0.3)
    spline = SplineProfile(s, rng.uniform(0.3, 2.0, s.size))
    f = {"constant": ConstantProfile(0.7), "linear": LinearProfile(0.9, -0.05),
         "sinusoid": SinusoidProfile(1.0, 0.3, 1.7, 0.4), "spline": spline}[kind]
    # points past both ends of the spline's nodes, and the nodes themselves
    xs = np.concatenate([s, np.linspace(s[0] - 1.5, s[-1] + 1.5, 30)])
    for order in range(5):
        got = f(xs, order)
        assert got.shape == xs.shape
        np.testing.assert_array_equal(got, [f(float(x), order) for x in xs])
        assert np.shape(f(float(xs[0]), order)) == ()
        np.testing.assert_array_equal(f(xs.reshape(3, -1), order), got.reshape(3, -1))
        if order > 3 and kind != "sinusoid":
            np.testing.assert_array_equal(got, np.zeros(xs.shape))


def test_spline_profile_rejects_values_that_overflow_its_sweep():
    # every numpy step stays finite; the elimination sweep over Python floats
    # overflows to inf, which only the final finiteness check sees
    s = [67.0053675483423, 67.05019191853646, 70.19048235030873, 563.2152411686978,
         563.258213314536, 563.3888851813913]
    y = [-2.074473006339373e+305, -1.8851634219697684e+305, 7.342613281604421e+303,
         -9.97230689286379e+302, 1.8571958934663858e+301, 5.768307789170172e+304]
    with pytest.raises(InvalidProfile, match="nodes 0.043 apart and values up to 2.07e"):
        SplineProfile(s, y)


# ---------------------------------------------------------------------- synthesis

def _expm(X):
    """Matrix exponential by scaling, a 20-term Taylor series and squaring."""
    j = max(0, math.ceil(math.log2(max(np.abs(X).sum(axis=0).max(), 1e-300) / 0.25)))
    Y = X / 2.0**j
    E = term = np.eye(X.shape[0])
    for k in range(1, 20):
        term = term @ Y / k
        E = E + term
    for _ in range(j):
        E = E @ E
    return E


def _synthesis_profile(kind):
    if kind == "constant-e3":
        return ff.CurvatureProfile.constants([0.4, 0.2], (0.0, 10.0))
    if kind == "sinusoid-e5":
        return ff.CurvatureProfile(
            tuple(SinusoidProfile(0.6 - 0.05 * i, 0.1, 0.5 + 0.2 * i, i) for i in range(4)),
            (0.3, 4.3))
    if kind == "spline128-e3":
        # the spline of the example spec varying_curvatures.json: 128 knots,
        # at each of which the third derivative jumps
        s = np.linspace(0.0, 10.0, 128)
        return ff.CurvatureProfile.from_samples(
            s, np.column_stack([1.0 + 0.2 * np.sin(s), 0.5 + 0.1 * np.cos(s)]))
    s = np.linspace(0.1, 4.4, 48)
    return ff.CurvatureProfile.from_samples(
        s, np.column_stack([0.5 + 0.05 * np.sin(1.5 * s + i) for i in range(3)]))


def _synthesize_steps(profile, n_steps):
    lo, hi = profile.domain
    return ff.synthesize_from_curvatures(profile, profile.count + 1, step=(hi - lo) / n_steps)


@functools.lru_cache(maxsize=None)
def _fine_synthesis(kind):
    return _synthesize_steps(_synthesis_profile(kind), 65536).evaluator


def _skew(kappas):
    M = np.diag(kappas, 1)
    return M - M.T


def _magnus_omega(A1, A2, A3, h):
    """The sixth-order Magnus exponent from the frame matrices at a step's
    three Gauss points, each commutator as two dense products."""
    def bracket(X, Y):
        return X @ Y - Y @ X

    a1 = h * A2
    a2 = math.sqrt(15.0) * h / 3.0 * (A3 - A1)
    a3 = 10.0 * h / 3.0 * (A3 - 2.0 * A2 + A1)
    c1 = bracket(a1, a2)
    c2 = -bracket(a1, 2.0 * a3 + c1) / 60.0
    return a1 + a3 / 12.0 + bracket(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0


def _reference_synthesis(profile, dim, n_steps):
    """The Magnus step as a scalar loop over dense matrices: one profile
    call per function and Gauss point, the exponential by Taylor series,
    positions by the corrected trapezoid rule and its h^4 Euler-Maclaurin
    term one step at a time, with T''' the first row of
    (M'' + 2 M' M + M M' + M^3) F for F' = M F."""
    lo, hi = profile.domain
    h = (hi - lo) / n_steps
    nodes = lo + h * np.arange(n_steps + 1)
    offsets = 0.5 + np.array([-1.0, 0.0, 1.0]) * math.sqrt(15.0) / 10.0

    def frenet_matrix(s, order=0):
        return _skew([float(f(s, order)) for f in profile.functions])

    def tangent_derivatives(s, F):
        M, dM, ddM = (frenet_matrix(s, j) for j in range(3))
        return (M @ F)[0], ((ddM + 2.0 * dM @ M + M @ dM + M @ M @ M) @ F)[0]

    g, F = np.zeros(dim), np.eye(dim)
    gammas, frames = [g], [F]
    for s, s_next in zip(nodes[:-1], nodes[1:]):
        omega = _magnus_omega(*(frenet_matrix(s + c * h) for c in offsets), h)
        F_next = _expm(omega) @ F
        dT, d3T = tangent_derivatives(s, F)
        dT_next, d3T_next = tangent_derivatives(s_next, F_next)
        g = (g + 0.5 * h * (F[0] + F_next[0]) + h * h / 12.0 * (dT - dT_next)
             + h**4 / 720.0 * (d3T_next - d3T))
        F = F_next
        gammas.append(g)
        frames.append(F)
    return np.array(gammas), np.array(frames)


def _rodrigues(W):
    """exp of a 3x3 skew matrix W in closed form."""
    w = np.array([W[2, 1], W[0, 2], W[1, 0]])
    theta = float(np.linalg.norm(w))
    if theta == 0.0:
        return np.eye(3)
    return (np.eye(3) + math.sin(theta) / theta * W
            + (1.0 - math.cos(theta)) / theta**2 * (W @ W))


@pytest.mark.parametrize("dim", [3, 4, 5, 6, 7, 8])
def test_magnus_exponentials_match_independent_references(dim):
    expm = _rodrigues if dim == 3 else pytest.importorskip("scipy.linalg").expm
    rng = np.random.default_rng(dim)
    m, h = dim - 1, 2.0
    # 17 steps scaled from zero up: the top steps' exponents have 1-norms of
    # 5-9, so the stack is scaled by 2^-5 or 2^-6 and squared as often
    scale = np.linspace(0.0, 1.0, 17)[:, None]
    gauss = scale * rng.uniform(0.5, 2.0, (3, 17, m))
    E = synthesis._magnus_exponentials(gauss, h)
    omegas = [_magnus_omega(*(_skew(k[i]) for k in gauss), h) for i in range(17)]
    norms = [np.abs(w).sum(axis=0).max() for w in omegas]
    assert norms[0] == 0.0 and 5.0 < max(norms) < 10.0
    assert np.array_equal(E[0], np.eye(dim))
    for Ei, w in zip(E, omegas):
        np.testing.assert_allclose(Ei, expm(w), rtol=0, atol=5e-14)
    defect = np.einsum("nij,nkj->nik", E, E) - np.eye(dim)
    assert np.max(np.abs(defect)) <= 2e-14


def test_synthesis_rejects_a_curvature_that_is_nan_between_nodes():
    class NanNear(ProfileFunction):
        # NaN within 2.5e-4 of s = 5.0011: no node of the default 1024-step
        # grid on [0, 10] falls there (5.0 and 5.00977 are the nearest),
        # and neither does a probe point, but the first Gauss point of the
        # step from 5.0 does (5.0011006); the middle one is at 5.00488
        def __call__(self, s, order=0):
            s = np.asarray(s, dtype=float)
            return np.where(np.abs(s - 5.0011) < 2.5e-4, np.nan, 0.5 if order == 0 else 0.0)

    profile = ff.CurvatureProfile((ConstantProfile(1.0), NanNear()), (0.0, 10.0))
    with pytest.raises(InvalidProfile, match=r"non-finite at s=5\.0011"):
        ff.synthesize_from_curvatures(profile, 3)


def test_synthesis_build_makes_no_probe_evaluation(monkeypatch):
    # unit speed by construction: the build evaluates nothing, and the speed
    # read back on the regularity probe's 64 points is 1 to roundoff
    calls = []
    call = synthesis._SynthesizedOracle.__call__

    def counting_call(self, s, order):
        calls.append((np.size(s), order))
        return call(self, s, order)

    monkeypatch.setattr(synthesis._SynthesizedOracle, "__call__", counting_call)
    curve = ff.synthesize_from_curvatures(_synthesis_profile("sinusoid-e5"), 5)
    assert calls == []
    speeds = np.linalg.norm(curve.evaluator(curve.grid(64), 1)[:, 1], axis=1)
    assert calls == [(64, 1)]
    np.testing.assert_allclose(speeds, 1.0, rtol=0, atol=1e-13)


@pytest.mark.parametrize("kind", ["constant-e3", "sinusoid-e5", "spline-e4"])
def test_synthesis_equals_scalar_reference_loop(kind):
    # 600 steps: a full chunk of exponentials and a partial one
    profile = _synthesis_profile(kind)
    curve = _synthesize_steps(profile, 600)
    gammas, frames = _reference_synthesis(profile, profile.count + 1, 600)
    # the exponentials differ in rounding only (a scaled degree-q Taylor
    # polynomial against a 20-term series, running products in another order)
    np.testing.assert_allclose(curve.evaluator.gammas, gammas, rtol=0, atol=1e-12)
    np.testing.assert_allclose(curve.evaluator.frames, frames, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ["constant-e3", "sinusoid-e5", "spline-e4"])
@pytest.mark.parametrize("n_steps, tol", [(256, 2e-9), (1024, 2e-10), (4096, 2e-10)])
def test_synthesis_matches_a_fine_step_run(kind, n_steps, tol):
    # below about 1e-10 the 65,536-step run's own rounding is what is measured
    fine = _fine_synthesis(kind)
    coarse = _synthesize_steps(_synthesis_profile(kind), n_steps).evaluator
    every = 65536 // n_steps
    assert np.max(np.abs(coarse.gammas - fine.gammas[::every])) < tol
    assert np.max(np.abs(coarse.frames - fine.frames[::every])) < tol


@pytest.mark.parametrize("kind", ["constant-e3", "sinusoid-e5", "spline-e4", "spline128-e3"])
def test_synthesis_between_nodes_matches_a_fine_run(kind):
    # The CLI samples a synthesized curve on grid(256), whose inner points
    # all fall between integration nodes. Curvatures read back from the
    # frame and the profile do not see the integration error, so this
    # reads positions and frames there, at the default step, against a
    # run of 2048 steps. Interpolating the tables by cubic instead of
    # quintic Hermite errs by 3.6e-13 to 3.7e-11 in the frames here.
    profile = _synthesis_profile(kind)
    curve = ff.synthesize_from_curvatures(profile, profile.count + 1)
    fine = _synthesize_steps(profile, 2048)
    grid = curve.grid(256)
    assert not np.isin(grid[1:-1], curve.evaluator.nodes).any()
    pos = np.max(np.abs(ff.eval_derivatives(curve, grid, 0) - ff.eval_derivatives(fine, grid, 0)))
    frames = np.max(np.abs(ff.frenet_grid(curve, grid).frame - ff.frenet_grid(fine, grid).frame))
    assert pos < 5e-13 and frames < 1e-13, (pos, frames)


@pytest.mark.parametrize("kind, lowest", [("constant-e3", 5.5), ("sinusoid-e5", 5.5),
                                          ("spline-e4", 3.5)],
                         ids=["constant-e3", "sinusoid-e5", "spline-e4"])
def test_synthesis_converges_at_sixth_order(kind, lowest):
    # 32, 64 and 128 steps keep both differences above the roundoff floor.
    # A spline's third derivative jumps at its knots, and each step across
    # a knot errs by O(h^4) times the jump, so a spline profile is only
    # promised fourth order; measured 6.5 (positions) and 5.3 (frames) here.
    runs = [_synthesize_steps(_synthesis_profile(kind), n).evaluator for n in (32, 64, 128)]
    # For a constant profile each step is the exact exponential, so the
    # frames agree to rounding and only the positions carry a step error.
    tables = ("gammas",) if kind == "constant-e3" else ("gammas", "frames")
    for name in tables:
        coarse, mid, fine = (getattr(r, name) for r in runs)
        order = math.log2(np.max(np.abs(coarse - mid[::2])) / np.max(np.abs(mid - fine[::2])))
        assert lowest < order < 7.0, (name, order)
    if kind == "constant-e3":
        assert np.max(np.abs(runs[0].frames - runs[2].frames[::4])) < 1e-12


@pytest.mark.parametrize("kappas", [[0.4, 0.2], [1.0, 0.5, -0.3], [0.7, 0.4, 0.3, 0.2]])
def test_constant_profile_frames_are_the_exact_exponential(kappas):
    dim = len(kappas) + 1
    M = np.diag(kappas, 1)
    M = M - M.T
    profile = ff.CurvatureProfile.constants(kappas, (0.0, 10.0))
    syn = ff.synthesize_from_curvatures(profile, dim).evaluator
    assert np.array_equal(syn.frames[0], np.eye(dim))
    for s, F in zip(syn.nodes[::64], syn.frames[::64]):
        np.testing.assert_allclose(F, _expm(s * M), rtol=0, atol=5e-12)


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_synthesized_frames_stay_orthonormal(dim):
    profile = ff.CurvatureProfile(
        tuple(SinusoidProfile(1.0 - 0.1 * i, 0.3, 0.8 + 0.3 * i, i) for i in range(dim - 1)),
        (0.0, 10.0))
    frames = ff.synthesize_from_curvatures(profile, dim).evaluator.frames
    defect = np.einsum("nij,nkj->nik", frames, frames) - np.eye(dim)
    assert np.max(np.abs(defect)) <= 2e-13


def test_synthesis_accepts_a_coarse_step():
    # the example spec varying_curvatures.json at 256 steps
    s = np.linspace(0.0, 10.0, 128)
    table = np.column_stack([1.0 + 0.2 * np.sin(s), 0.5 + 0.1 * np.cos(s)])
    profile = ff.CurvatureProfile.from_samples(s, table)
    syn = ff.synthesize_from_curvatures(profile, 3, step=10.0 / 256)
    grid = syn.grid(256)[4:-4]
    measured = ff.curvature_table(syn, grid)
    assert measured.ok.all()
    assert np.max(np.abs(measured.curvatures - profile.values(grid))) < 1e-5


def test_synthesized_circle_closes():
    # from the origin with tangent e0 and normal e1: the unit circle about (0, 1)
    profile = ff.CurvatureProfile.constants([1.0], (0.0, 2 * math.pi))
    circle = ff.synthesize_from_curvatures(profile, 2)
    np.testing.assert_array_equal(circle.point(0.0), [0.0, 0.0])
    np.testing.assert_allclose(circle.point(math.pi), [0.0, 2.0], atol=1e-8)
    np.testing.assert_allclose(circle.point(2 * math.pi), [0.0, 0.0], atol=1e-8)


def test_synthesized_helix_invariants_match_generator():
    profile = ff.CurvatureProfile.constants([0.4, 0.2], (0.0, 12.0))
    syn = ff.synthesize_from_curvatures(profile, 3)
    grid = syn.grid(128)[4:-4]
    table = ff.curvature_table(syn, grid)
    np.testing.assert_allclose(table.curvatures[:, 0], 0.4, atol=1e-9)
    np.testing.assert_allclose(table.curvatures[:, 1], 0.2, atol=1e-9)
    np.testing.assert_allclose(table.speed, 1.0, atol=1e-10)


def test_synthesis_rejects_nonpositive_interior_curvature():
    with pytest.raises(InvalidProfile):
        ff.CurvatureProfile.constants([1.0, 0.0, 0.5], (0.0, 1.0))


def test_synthesis_rejects_identically_zero_last_curvature():
    # choosing two curvature functions with the second identically zero means
    # the osculating order was overstated; one dimension down it is a fine
    # plane-curve profile
    profile = ff.CurvatureProfile((ConstantProfile(1.0), ConstantProfile(0.0)), (0.0, 1.0))
    with pytest.raises(InvalidProfile):
        ff.synthesize_from_curvatures(profile, 3)


def test_planar_profile_in_two_dimensions_is_accepted():
    # one curvature function means a plane curve; the same numbers would be
    # rejected as a degenerate profile one dimension up
    profile = ff.CurvatureProfile.constants([1.0], (0.0, 1.0))
    curve = ff.synthesize_from_curvatures(profile, 2)
    assert curve.dimension == 2


def test_synthesis_caps_the_step_count(monkeypatch):
    monkeypatch.setattr(synthesis, "_MAX_ODE_STEPS", 16)
    profile = ff.CurvatureProfile.constants([0.05, 0.02], (0.0, 1.6))
    assert ff.synthesize_from_curvatures(profile, 3, step=0.1).dimension == 3
    with pytest.raises(BadParameters, match="step 0.09"):
        ff.synthesize_from_curvatures(profile, 3, step=0.09)
    with pytest.raises(BadParameters):
        ff.synthesize_from_curvatures(profile, 3, step=5e-324)


@pytest.mark.parametrize("builder", [
    lambda: ff.make_circle(2.0),
    lambda: ff.make_helix(2.0, 1.0),
    lambda: ff.make_ellipse(2.0, 1.9, domain=(0.0, 2 * math.pi)),
    lambda: ff.make_salkowski(0.3),
    lambda: ff.make_wcurve([1.0, 0.6], [1.0, 2.0], dim=4),
], ids=["circle", "helix", "ellipse", "salkowski", "wcurve4"])
def test_round_trip_measured_profile_resynthesizes(builder):
    curve = builder()
    unit = ff.reparam_to_arclength(curve)
    grid = unit.grid(512)
    measured = ff.curvature_table(unit, grid)
    assert measured.ok.all()
    profile = ff.CurvatureProfile.from_samples(grid, measured.curvatures)
    syn = ff.synthesize_from_curvatures(profile, unit.dimension)
    again = ff.curvature_table(syn, grid)
    assert np.max(np.abs(again.curvatures - measured.curvatures)) < 1e-5
