import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import focalframe as ff
from focalframe.focal import END_TRIM
from focalframe.slant import ANALYTIC_TOL, AXIS_ANGLE_TOL, SAMPLED_TOL, theorem_target_index
from focalframe.specfile import build_curve, parse_curve_spec
from reference_kernels import EXAMPLE_SPECS

E3 = np.array([0.0, 0.0, 1.0])


def axis_angle(u, v):
    return math.acos(min(1.0, abs(float(np.dot(u, v)))))


# -------------------------------------------------------------- axis estimation

def test_constant_samples_recover_their_direction():
    fit = ff.estimate_axis(np.tile(E3, (12, 1)))
    np.testing.assert_allclose(fit.axis, E3, atol=1e-12)
    assert fit.cos_theta == pytest.approx(1.0, abs=1e-12)
    assert fit.deviation == 0.0
    assert fit.degenerate  # zero covariance has no unique minimizer


def test_helix_tangents_give_exact_axis(helix):
    fit = ff.estimate_axis(ff.frenet_grid(helix, helix.grid(64)).frame[:, 0])
    assert axis_angle(fit.axis, E3) < 1e-9
    assert fit.cos_theta == pytest.approx(1 / math.sqrt(5), abs=1e-12)
    assert fit.deviation < 1e-9
    assert not fit.degenerate


def test_covariance_nullspace_gives_axis():
    # +-e1 and +-e2: covariance diag(1/2, 1/2, 0), a 1-d null space along e3
    samples = np.tile(np.vstack([np.eye(3)[:2], -np.eye(3)[:2]]), (2, 1))
    fit = ff.estimate_axis(samples)
    assert axis_angle(fit.axis, E3) < 1e-12
    assert fit.cos_theta == 0.0
    assert not fit.degenerate


def test_uninformative_mean_falls_back_to_first_eigenvector():
    # +-e1 only: zero mean and a 2-d null space, so nothing breaks the tie
    e1 = np.eye(3)[0]
    fit = ff.estimate_axis(np.tile(np.vstack([e1, -e1]), (4, 1)))
    assert fit.degenerate
    assert np.linalg.norm(fit.axis) == pytest.approx(1.0, abs=1e-15)
    assert abs(fit.axis @ e1) < 1e-15


def test_perpendicular_axis_sign_ignores_sample_order():
    # unit vectors on a great circle: the fitted axis is its pole and the
    # mean cosine is roundoff, so the sign comes from the axis itself
    pole = np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)
    v1 = np.cross(pole, E3)
    v1 /= np.linalg.norm(v1)
    v2 = np.cross(pole, v1)
    for n in range(8, 40):
        th = np.linspace(0.3, 2.9, n)
        X = np.cos(th)[:, None] * v1 + np.sin(th)[:, None] * v2
        fit, rev = ff.estimate_axis(X), ff.estimate_axis(X[::-1])
        assert abs(fit.cos_theta) < 1e-15
        np.testing.assert_allclose(fit.axis, pole, atol=1e-12)
        np.testing.assert_allclose(rev.axis, pole, atol=1e-12)


def test_random_unit_vectors_have_no_cone_structure():
    rng = np.random.default_rng(42)
    v = rng.normal(size=(100, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    fit = ff.estimate_axis(v)
    assert fit.deviation > 0.1


def test_estimate_axis_input_validation():
    with pytest.raises(ValueError):
        ff.estimate_axis(np.tile(E3, (4, 1)))  # too few
    with pytest.raises(ValueError):
        ff.estimate_axis(np.tile(2.0 * E3, (12, 1)))  # not unit
    for bad in (np.nan, np.inf):
        samples = np.tile(E3, (12, 1))
        samples[5, 0] = bad
        with pytest.raises(ValueError, match="unit vectors"):
            ff.estimate_axis(samples)


# ------------------------------------------------------------------- detection

def test_helix_slant_verdicts(helix):
    r1 = ff.is_k_slant(helix, 1)
    assert r1.is_slant and not r1.excluded_perpendicular
    assert r1.cos_theta == pytest.approx(1 / math.sqrt(5), abs=1e-9)

    r2 = ff.is_k_slant(helix, 2)
    assert r2.excluded_perpendicular and not r2.is_slant
    assert abs(r2.cos_theta) < 1e-9  # constant right angle is excluded, not slant

    r3 = ff.is_k_slant(helix, 3)
    assert r3.is_slant
    assert r3.cos_theta == pytest.approx(2 / math.sqrt(5), abs=1e-9)


def test_salkowski_is_2_slant(salkowski):
    rep = ff.is_k_slant(salkowski, 2)
    assert rep.is_slant
    assert rep.cos_theta == pytest.approx(0.3, abs=1e-9)
    assert axis_angle(rep.axis, E3) < 1e-8


def test_wcurve5_is_1_slant(wcurve5):
    rep = ff.is_k_slant(wcurve5, 1)
    assert rep.is_slant
    assert rep.cos_theta == pytest.approx(1 / math.sqrt(6), abs=1e-9)


def test_detector_soundness_known_axes(helix, wcurve5):
    # exact axes known in closed form: angular error under 1e-6, deviation
    # under 1e-7
    for curve, k, axis in [
        (helix, 1, E3),
        (helix, 3, E3),
        (wcurve5, 1, np.array([0.0, 0.0, 0.0, 0.0, 1.0])),
    ]:
        rep = ff.is_k_slant(curve, k)
        assert rep.is_slant
        assert axis_angle(rep.axis, axis) < 1e-6
        assert rep.deviation < 1e-7


def test_random_curve_fails_every_k():
    curve = ff.random_trig_curve(3, seed=42)
    for k in (1, 2, 3):
        rep = ff.is_k_slant(curve, k)
        assert not rep.is_slant
        assert rep.deviation > 1e-2


def test_k_range_validated(helix):
    with pytest.raises(ValueError):
        ff.is_k_slant(helix, 0)
    with pytest.raises(ValueError):
        ff.is_k_slant(helix, 4)


@pytest.mark.parametrize("k", [1.5, 1.0, np.float64(2.0), "1", True], ids=repr)
def test_slant_reports_reject_a_non_integer_k(helix, k):
    with pytest.raises(ValueError, match="k must be an integer"):
        ff.slant_reports(helix, [1, k])
    with pytest.raises(ValueError, match="k must be an integer"):
        ff.is_k_slant(helix, k)
    # numpy integers are integers
    assert ([r.k for r in ff.slant_reports(helix, [np.int64(1), np.int32(3)])] == [1, 3])


BAD_TOLERANCES = [0.0, -1e-6, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("tol", BAD_TOLERANCES, ids=repr)
def test_slant_reports_reject_a_bad_tolerance(helix, tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        ff.slant_reports(helix, [1, 2], tol=tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        ff.is_k_slant(helix, 1, tol=tol)


@pytest.mark.parametrize("tol", BAD_TOLERANCES, ids=lambda tol: f"{tol!r}-tol")
def test_verify_focal_slants_reject_a_bad_tolerance(helix, tol):
    with pytest.raises(ValueError, match="^tol must be positive and finite"):
        ff.verify_focal_slants(helix, [1], tol=tol)
    with pytest.raises(ValueError, match="^tol must be positive and finite"):
        ff.verify_focal_slant(helix, 1, tol=tol)


def test_one_tolerance_serves_both_verdicts(helix):
    # the helix is 1-slant, so a focal verdict runs; without a tolerance each
    # side takes its kind's default, the sampled focal curve the looser one
    report = ff.verify_focal_slant(helix, 1)
    assert (report.base.tolerance, report.focal.tolerance) == (ANALYTIC_TOL, SAMPLED_TOL)
    report = ff.verify_focal_slant(helix, 1, tol=1e-5)
    assert report.passed and report.base.tolerance == report.focal.tolerance == 1e-5


# ------------------------------------------------------- coefficient residuals

def test_residuals_vanish_for_true_axis_in_native_parametrization(helix):
    table = ff.coefficient_residuals(helix, (0.0, 0.0, 1.0), helix.grid(256))
    assert table.sup_norm < 1e-6


def test_residuals_flag_non_axis_directions(helix):
    table = ff.coefficient_residuals(helix, (1.0, 0.0, 0.0), helix.grid(256))
    assert table.sup_norm > 1e-2


def test_residuals_vanish_for_any_fixed_direction_at_unit_speed(unit_helix):
    # at arclength parametrization the identities hold for every constant
    # direction, axis or not
    grid = unit_helix.grid(256)
    for u in [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.3, -0.5, 0.8)]:
        assert ff.coefficient_residuals(unit_helix, u, grid).sup_norm < 1e-6


def test_residuals_reject_a_zero_direction(helix):
    with pytest.raises(ValueError, match="direction must be nonzero"):
        ff.coefficient_residuals(helix, (0.0, 0.0, 0.0), helix.grid(64))
    with pytest.raises(ValueError, match="direction must be nonzero"):
        ff.coefficient_residuals(helix, (-0.0, 0.0, -0.0), helix.grid(64))


def test_residual_detector_consistency(unit_salkowski):
    rep = ff.is_k_slant(unit_salkowski, 2)
    assert rep.is_slant
    table = ff.coefficient_residuals(unit_salkowski, rep.axis, unit_salkowski.grid(256))
    # one-sided stencils at the two ends carry the usual extra noise
    assert np.max(np.abs(table.residuals[:, 3:-3])) < 10 * rep.tolerance


def _unit_wcurve6():
    # An E6 W-curve draw, rescaled to unit speed, whose residual peaked at
    # 1.01e-6 on an end row when the residual used 5-point stencils.
    radii = (0.9477955249228831, 0.7241410675729896, 0.32413729889794274)
    freqs = (1.1303828001089316, 2.0300305875676754, 3.0010512343167135)
    scale = math.sqrt(sum((r * w) ** 2 for r, w in zip(radii, freqs)))
    return ff.make_wcurve(radii, [w / scale for w in freqs], 0.0, dim=6,
                          domain=(0.0, 2 * math.pi * scale))


def _tangent_axis_residual(curve, n):
    grid = curve.grid(n)
    return ff.coefficient_residuals(curve, ff.is_k_slant(curve, 1, grid).axis, grid).sup_norm


def test_residual_of_an_e6_wcurve_stays_small_at_its_ends():
    assert _tangent_axis_residual(_unit_wcurve6(), 384) < 1e-8


def test_residual_converges_at_sixth_order():
    # doubling the rows divides a 6th-order error by 64, a 4th-order one by 16
    curve = _unit_wcurve6()
    assert _tangent_axis_residual(curve, 192) > 40 * _tangent_axis_residual(curve, 384)


# ----------------------------------------------------------------- index routing

def test_index_map_cases():
    assert theorem_target_index(1, 4) == 5
    assert theorem_target_index(5, 4) == 1
    assert theorem_target_index(2, 4) == 4
    assert theorem_target_index(3, 4) == 3


@given(st.integers(2, 6))
@settings(max_examples=10)
def test_index_map_exhaustive_and_involutive(m):
    seen = set()
    for k in range(1, m + 2):
        kp = theorem_target_index(k, m)
        assert 1 <= kp <= m + 1
        seen.add(kp)
        if 2 <= k <= m:
            assert theorem_target_index(kp, m) == k
    assert seen == set(range(1, m + 2))  # a bijection on the index set
    assert theorem_target_index(theorem_target_index(1, m), m) == 1


def test_index_map_rejects_out_of_range():
    with pytest.raises(ValueError):
        theorem_target_index(0, 3)
    with pytest.raises(ValueError):
        theorem_target_index(5, 3)


# ------------------------------------------------------------- focal verification

def test_helix_focal_is_3_slant(helix):
    rep = ff.verify_focal_slant(helix, 1)
    assert rep.k_prime == 3
    assert rep.passed
    assert rep.focal.is_slant
    assert rep.focal.deviation < 1e-4
    assert rep.axis_angle < AXIS_ANGLE_TOL
    assert axis_angle(rep.focal.axis, E3) < 1e-6


def test_helix_last_index_maps_back_to_tangent(helix):
    rep = ff.verify_focal_slant(helix, 3)
    assert rep.k_prime == 1
    assert rep.passed


def test_salkowski_focal_is_2_slant(salkowski):
    rep = ff.verify_focal_slant(salkowski, 2)
    assert rep.k_prime == 2
    assert rep.passed
    assert rep.note  # boundary of the interior range is flagged in the report


@pytest.mark.parametrize("k,k_prime", [(1, 5), (3, 3), (5, 1)])
def test_wcurve5_focal_migration_every_admissible_k(wcurve5, k, k_prime):
    # the E^5 pitch curve is slant at every odd index, so it exercises the
    # tangent, interior and last-index routes of the verification in one family
    rep = ff.verify_focal_slant(wcurve5, k)
    assert rep.k_prime == k_prime
    assert rep.passed
    assert rep.focal.deviation < 1e-4
    assert rep.axis_angle < AXIS_ANGLE_TOL


def report_json(report):
    # JSON floats round-trip exactly, so equal text means equal bits (NaN included)
    return json.dumps(report.to_dict(), sort_keys=True)


@pytest.mark.parametrize("name", ["helix", "salkowski", "wcurve5", "random"])
def test_shared_passes_equal_one_index_calls(name, helix, salkowski, wcurve5):
    curve = {"helix": helix, "salkowski": salkowski, "wcurve5": wcurve5,
             "random": ff.random_trig_curve(3, seed=42)}[name]
    ks = list(range(1, curve.dimension + 1))
    grid = curve.grid(128)
    shared = ff.slant_reports(curve, ks, grid)
    assert [report_json(r) for r in shared] == [
        report_json(ff.is_k_slant(curve, k, grid)) for k in ks]
    theorems = ff.verify_focal_slants(curve, ks, grid)
    assert [report_json(r) for r in theorems] == [
        report_json(ff.verify_focal_slant(curve, k, grid)) for k in ks]
    assert [r.k for r in theorems] == ks
    assert [r.base.is_slant for r in theorems] == [r.is_slant for r in shared]


def test_shared_passes_validate_every_index(helix):
    with pytest.raises(ValueError):
        ff.slant_reports(helix, [1, 4])
    with pytest.raises(ValueError):
        ff.verify_focal_slants(helix, [0, 1])


def test_verification_fails_honestly_on_non_slant_curve():
    curve = ff.random_trig_curve(3, seed=42)
    rep = ff.verify_focal_slant(curve, 1)
    assert not rep.base.is_slant
    assert not rep.passed
    assert rep.focal is None  # premise failed, nothing was mirrored


# ---------------------------------------------- the converse and the cone's angle

# The E3-E5 example specs on which every index answers on both sides. The
# circle's focal set is a point, the E6 and E7 specs are past the focal
# check's E5 limit, and wcurve5_x100 reads as non-generic (ROADMAP item 14).
_MIRROR_SPECS = {"helix.json": {1, 3}, "constant_curvatures.json": {1, 3},
                 "salkowski.json": {2}, "wcurve5.json": {1, 3, 5},
                 "varying_curvatures.json": set()}


def _slant_sets(curve):
    """The slant indices of ``curve`` at 256 rows and those of its focal
    curve on the interior rows that the focal verification reads."""
    ks = range(1, curve.dimension + 1)
    base = {r.k for r in ff.slant_reports(curve, ks, curve.grid(256)) if r.is_slant}
    mirror = ff.focal_curve(curve, curve.grid(256))
    inner = mirror.grid(256)[END_TRIM:-END_TRIM]
    focal = {r.k for r in ff.slant_reports(mirror, ks, inner, SAMPLED_TOL) if r.is_slant}
    return base, focal


@pytest.mark.parametrize("name", sorted(_MIRROR_SPECS))
def test_focal_slant_set_mirrors_the_base_set(name):
    # the frame map sends V_k to the focal vector m-k+2 and back, so the
    # focal curve is (m-k+2)-slant exactly when the base is k-slant
    curve = build_curve(parse_curve_spec(EXAMPLE_SPECS[name]))
    m = curve.dimension - 1
    base, focal = _slant_sets(curve)
    assert base == _MIRROR_SPECS[name]
    assert focal == {m - k + 2 for k in base}


def _generic_window(dim, seed):
    """The first window [a, a + 0.4] of a random curve, a = i (2 pi - 0.4)/39
    for i in 0..39, on which every curvature exceeds 0.05 at 256 rows."""
    for i in range(40):
        a = i * (2 * math.pi - 0.4) / 39
        curve = ff.random_trig_curve(dim, seed, domain=(a, a + 0.4))
        table = ff.curvature_table(curve, curve.grid(256))
        if table.ok.all() and np.all(table.curvatures > 0.05):
            return curve
    raise AssertionError(f"no generic window for E{dim} seed {seed}")


# E3 seed 1 is left out: its window splits by tolerance, not by geometry
# (base k=3 at 9.99e-5 over the analytic 1e-6, focal k=1 at 9.64e-5 under
# the sampled 1e-4), so the sets read {} and {1} (ROADMAP item 22).
@pytest.mark.parametrize("dim,seed", [(3, s) for s in range(2, 7)] + [(4, s) for s in range(1, 7)])
def test_generic_windows_are_slant_on_neither_side(dim, seed):
    # every deviation here is at least 4.9e-4, above both tolerances
    assert _slant_sets(_generic_window(dim, seed)) == (set(), set())


@pytest.mark.parametrize("curve", [
    *(build_curve(parse_curve_spec(EXAMPLE_SPECS[name])) for name in sorted(_MIRROR_SPECS)),
    ff.make_salkowski(0.3), ff.make_salkowski(0.7),
], ids=[*sorted(_MIRROR_SPECS), "salkowski-0.3", "salkowski-0.7"])
def test_focal_cone_keeps_the_base_angle(curve):
    # the focal vector m-k+2 is +-V_k, so both cones have one axis and one
    # angle; the largest gap measured is 1.6e-10, on Salkowski n = 0.7
    reports = ff.verify_focal_slants(curve, range(1, curve.dimension + 1), curve.grid(256))
    passed = [r for r in reports if r.passed]
    assert [r.k for r in passed] == [r.k for r in reports if r.base.is_slant]
    for r in passed:
        assert abs(abs(r.focal.cos_theta) - abs(r.base.cos_theta)) < 1e-8, r.k
