import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import focalframe as ff
from focalframe import curves
from focalframe.curves import (
    ConstantProfile,
    SinusoidProfile,
    TrigCoordinate,
    curve_from_coordinates,
    make_curve,
)
from focalframe.errors import (
    BadParameters,
    ConvergenceFailure,
    InvalidProfile,
    NonOrthonormalFrame,
    OrderUnsupported,
    OutOfDomain,
    RegularityFailure,
)

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
    def scalar_only(t, order):
        return np.zeros((order + 1, 2))

    curve = make_curve(2, (0.0, 1.0), "analytic", 2, scalar_only, check_regularity=False)
    assert ff.eval_derivatives(curve, 0.5, 1).shape == (2, 2)
    with pytest.raises(RuntimeError, match="expected"):
        ff.eval_derivatives(curve, np.array([0.2, 0.5]), 1)


def _sampled_helix(helix):
    ts = helix.grid(256)
    return ff.sampled_curve(ts, np.array([helix.point(float(t)) for t in ts]))


def _synthesized():
    profile = ff.CurvatureProfile(
        (SinusoidProfile(1.0, 0.2, 1.5), ConstantProfile(0.4)), (0.0, 4.0))
    return ff.synthesize_from_curvatures(profile, 3, step=4.0 / 256)


@pytest.mark.parametrize("kind", ["analytic", "sampled", "synthesized", "arclength"])
def test_array_call_equals_stacked_scalar_calls(kind, helix, salkowski, unit_salkowski):
    curve = {
        "analytic": salkowski,
        "sampled": _sampled_helix(helix),
        "synthesized": _synthesized(),
        "arclength": unit_salkowski,
    }[kind]
    ts = np.linspace(curve.domain[0], curve.domain[1], 13)
    for order in range(curve.max_order + 1):
        got = curve.evaluator(ts, order)
        want = np.array([curve.evaluator(float(t), order) for t in ts])
        assert got.shape == (ts.size, order + 1, curve.dimension)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.max(np.abs(want)))


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
    unit = ff.reparam_to_arclength(syn, checkpoints=64)
    assert unit.domain[1] == pytest.approx(4.0, abs=1e-8)
    for s in (0.5, 2.0, 3.5):
        np.testing.assert_allclose(unit.point(s), syn.point(s), atol=1e-8)
        np.testing.assert_allclose(unit.derivative(s, 2), syn.derivative(s, 2), atol=1e-6)


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


def test_inversion_budget_exhaustion_raises(salkowski, monkeypatch):
    unit = ff.reparam_to_arclength(salkowski)
    monkeypatch.setattr(curves, "_NEWTON_STEPS", 1)
    with pytest.raises(ConvergenceFailure):
        unit.point(0.37 * unit.domain[1])


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


# ---------------------------------------------------------------------- synthesis

def test_synthesized_circle_closes():
    profile = ff.CurvatureProfile.constants([1.0], (0.0, 2 * math.pi))
    circle = ff.synthesize_from_curvatures(
        profile, 2, initial_point=(1.0, 0.0), initial_frame=[(0.0, 1.0), (-1.0, 0.0)]
    )
    np.testing.assert_allclose(circle.point(2 * math.pi), [1.0, 0.0], atol=1e-8)


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
    monkeypatch.setattr(curves, "_MAX_ODE_STEPS", 16)
    profile = ff.CurvatureProfile.constants([0.05, 0.02], (0.0, 1.6))
    assert ff.synthesize_from_curvatures(profile, 3, step=0.1).dimension == 3
    with pytest.raises(BadParameters, match="step 0.09"):
        ff.synthesize_from_curvatures(profile, 3, step=0.09)
    with pytest.raises(BadParameters):
        ff.synthesize_from_curvatures(profile, 3, step=5e-324)


def test_synthesis_rejects_bad_frame():
    profile = ff.CurvatureProfile.constants([1.0], (0.0, 1.0))
    with pytest.raises(NonOrthonormalFrame):
        ff.synthesize_from_curvatures(profile, 2, initial_frame=[(1.0, 0.0), (1.0, 1.0)])


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
