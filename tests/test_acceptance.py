"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every tolerance here is fixed; nothing is calibrated at runtime.
"""

import math
import time

import numpy as np
import pytest

import focalframe as ff
from focalframe.curves import TrigCoordinate, curve_from_coordinates
from focalframe.numdiff import grid_derivative

SQRT5 = math.sqrt(5.0)


def verdict(n, ok, desc):
    print(f"\ncriterion {n:2d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {n} failed: {desc}"


@pytest.fixture(scope="module")
def elliptical_helix():
    # gentle eccentricity keeps the focal curvature derivatives tame
    return curve_from_coordinates((
        TrigCoordinate(terms=((2.0, 1.0, math.pi / 2),)),
        TrigCoordinate(terms=((1.9, 1.0, 0.0),)),
        TrigCoordinate(slope=0.5),
    ), (0.0, 2 * math.pi), label="elliptical helix")


@pytest.fixture(scope="module")
def synthesized_e4():
    # non-spherical generic curve in E^4: linearly growing first curvature
    # keeps the focal speed bounded away from zero on the whole domain
    profile = ff.CurvatureProfile(
        (ff.curves.LinearProfile(1.0, 0.2), ff.curves.ConstantProfile(0.8),
         ff.curves.ConstantProfile(0.5)),
        (0.0, 2.0),
    )
    return ff.synthesize_from_curvatures(profile, 4)


def test_criterion_1_frenet_helix_constants(helix):
    t0 = time.perf_counter()
    table = ff.curvature_table(helix, helix.grid(256))
    worst = max(
        float(np.max(np.abs(table.curvatures[:, 0] - 0.4))),
        float(np.max(np.abs(table.curvatures[:, 1] - 0.2))),
    )
    elapsed = time.perf_counter() - t0
    verdict(1, worst < 1e-8 and elapsed < 1.0,
            f"helix curvatures (0.4, 0.2) within 1e-8 at 256 points "
            f"(err {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_focal_recursion_vs_caustic_oracle():
    t0 = time.perf_counter()
    curves = [
        ("circle", ff.make_circle(2.0), 64),
        ("helix", ff.make_helix(2.0, 1.0), 64),
        ("ellipse", ff.make_ellipse(2.0, 1.2, domain=(0.25, 1.35)), 64),
        ("salkowski", ff.make_salkowski(0.3), 64),
        ("wcurve E4", ff.make_wcurve([1.0, 0.6], [1.0, 2.0], dim=4), 96),
        ("wcurve E5", ff.make_wcurve([1.0, 1.0], [1.0, 2.0], pitch=1.0, dim=5), 96),
    ]
    worst = 0.0
    for _, curve, n in curves:
        unit = ff.reparam_to_arclength(curve)
        table = ff.focal_curvatures(unit, unit.grid(n))
        inner = table[3:-3]
        gaps = np.linalg.norm(inner.focal_point - ff.osculating_center_oracle(unit, inner.s),
                              axis=1)
        worst = max(worst, float(gaps.max()))
    elapsed = time.perf_counter() - t0
    verdict(2, worst < 1e-6 and elapsed < 10.0,
            f"focal recursion vs osculating-center oracle on 6 curves "
            f"(max gap {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_3_helix_evolute(unit_helix):
    grid = unit_helix.grid(256)
    mirror = ff.focal_curve(unit_helix, grid)
    radii = [np.linalg.norm(mirror.point(float(s))[:2])
             for s in np.linspace(*mirror.domain, 33)]
    radius_err = max(abs(r - 0.5) for r in radii)
    rep = ff.focal_relations_check(unit_helix, grid)
    # K_i measured directly on the focal curve against (0.2, 0.4)/A with A=0.5
    ok = radius_err < 1e-6 and rep.curvature_residual < 1e-4
    verdict(3, ok,
            f"focal curve of the helix is the coaxial helix of radius 0.5 with "
            f"curvatures (0.4, 0.8) (radius err {radius_err:.2e}, "
            f"K residual {rep.curvature_residual:.2e})")


def test_criterion_4_frame_mapping(unit_helix, synthesized_e4):
    rep2 = ff.focal_relations_check(unit_helix, unit_helix.grid(256))
    even_ok = (rep2.tangent_alignment > 1 - 1e-5 and rep2.last_alignment > 1 - 1e-5)
    rep3 = ff.focal_relations_check(synthesized_e4, synthesized_e4.grid(256))
    odd_ok = (
        rep3.tangent_alignment > 1 - 1e-3
        and np.all(rep3.normal_alignments > 1 - 1e-3)
        and rep3.last_alignment > 1 - 1e-3
    )
    verdict(4, even_ok and odd_ok,
            f"frame mapping m=2 (alignments {rep2.tangent_alignment:.8f}, "
            f"{rep2.last_alignment:.8f}) and m=3 index map "
            f"(worst {min(rep3.tangent_alignment, rep3.last_alignment, *rep3.normal_alignments):.6f})")


def test_criterion_5_scalar_frenet_last_line(elliptical_helix):
    worst = 0.0
    # m = 1: plane ellipse arc, c_1 never zero there
    ell = ff.reparam_to_arclength(ff.make_ellipse(2.0, 1.2, domain=(0.25, 1.35)))
    grid = ell.grid(256)
    table = ff.focal_curvatures(ell, grid)
    c1 = np.array([fd.focal_curvatures[0] for fd in table])
    R2 = np.array([fd.R_m**2 for fd in table])
    resid = np.abs(grid_derivative(c1, grid) - grid_derivative(R2, grid) / (2 * c1))
    worst = max(worst, float(np.max(resid[3:-3])))

    # m = 2: elliptical helix, evaluated away from the zeros of c_2
    eh = ff.reparam_to_arclength(elliptical_helix)
    grid = eh.grid(512)
    table = ff.focal_curvatures(eh, grid)
    c1 = np.array([fd.focal_curvatures[0] for fd in table])
    c2 = np.array([fd.focal_curvatures[1] for fd in table])
    R2 = np.array([fd.R_m**2 for fd in table])
    k2 = np.array([fd.curvatures[1] for fd in ff.frenet_grid(eh, grid)])
    resid = np.abs(grid_derivative(c2, grid) - grid_derivative(R2, grid) / (2 * c2)
                   + k2 * c1)
    inner = resid[3:-3]
    mask = np.abs(c2[3:-3]) > 0.3 * np.abs(c2).max()
    worst = max(worst, float(np.max(inner[mask])))
    verdict(5, worst < 1e-5,
            f"scalar recursion last-line residual away from c_m zeros "
            f"(max {worst:.2e})")


def test_criterion_6_tangent_slant_migrates_to_last_index(helix, wcurve5):
    rep = ff.verify_focal_slant(helix, 1)
    helix_ok = (rep.passed and rep.k_prime == 3
                and rep.focal.deviation < 1e-4 and rep.axis_angle < 1e-3)
    rep5 = ff.verify_focal_slant(wcurve5, 1)
    w5_ok = rep5.passed and rep5.k_prime == 5 and rep5.focal.deviation < 1e-4
    verdict(6, helix_ok and w5_ok,
            f"helix k=1 -> focal 3-slant (dev {rep.focal.deviation:.2e}, "
            f"axis angle {rep.axis_angle:.2e}); wcurve E5 k=1 -> focal 5-slant "
            f"(dev {rep5.focal.deviation:.2e})")


def test_criterion_7_interior_slant_index_reflects(salkowski):
    rep = ff.verify_focal_slant(salkowski, 2)
    ok = (rep.passed and rep.k_prime == 2
          and rep.focal.deviation < 1e-4 and rep.axis_angle < 1e-3)
    verdict(7, ok,
            f"salkowski k=2 -> focal 2-slant (dev {rep.focal.deviation:.2e}, "
            f"axis angle {rep.axis_angle:.2e})")


def test_criterion_8_fixed_direction_system(helix):
    grid = helix.grid(256)
    pos = ff.coefficient_residuals(helix, (0.0, 0.0, 1.0), grid).sup_norm
    neg = ff.coefficient_residuals(helix, (1.0, 0.0, 0.0), grid).sup_norm
    verdict(8, pos < 1e-6 and neg > 1e-2,
            f"coefficient residuals: axis direction {pos:.2e} < 1e-6, "
            f"negative control {neg:.2e} > 1e-2")


def test_criterion_9_synthesis_round_trip():
    profile = ff.CurvatureProfile.constants([0.4, 0.2], (0.0, 12.0))
    syn = ff.synthesize_from_curvatures(profile, 3)
    grid = syn.grid(256)[4:-4]
    table = ff.curvature_table(syn, grid)
    worst = max(
        float(np.max(np.abs(table.curvatures[:, 0] - 0.4))),
        float(np.max(np.abs(table.curvatures[:, 1] - 0.2))),
    )
    cl = ff.classify(syn, grid, tol=1e-5)
    verdict(9, worst < 1e-5 and cl.is_w_curve and cl.is_ccr,
            f"synthesized (0.4, 0.2) curve measures back within 1e-5 "
            f"(err {worst:.2e}) and classifies as W and ccr")


def test_criterion_10_negative_controls(helix):
    r2 = ff.is_k_slant(helix, 2)
    rnd = ff.random_trig_curve(3, seed=42)
    rnd_reports = [ff.is_k_slant(rnd, k) for k in (1, 2, 3)]
    ok = (r2.excluded_perpendicular and not r2.is_slant
          and all(not r.is_slant and r.deviation > 1e-2 for r in rnd_reports))
    verdict(10, ok,
            f"helix k=2 excluded as perpendicular; random curve fails all k "
            f"(min deviation {min(r.deviation for r in rnd_reports):.2e})")
