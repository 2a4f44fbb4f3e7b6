import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import focalframe as ff
from focalframe.curves import TrigCoordinate, curve_from_coordinates, eval_derivatives, make_curve
from focalframe.errors import DegenerateFlag, DivisionGuard, ReducedOrder
from focalframe.frenet import _alignment_signs
from focalframe.linalg import gram_schmidt
from focalframe.numdiff import grid_derivative


def test_circle_apparatus():
    c = ff.make_circle(2.0)
    fd = ff.frenet_apparatus(c, 0.7, 2)
    assert fd.curvatures[0] == pytest.approx(0.5, abs=1e-12)
    assert fd.speed == pytest.approx(2.0, abs=1e-12)
    # normal points inward
    np.testing.assert_allclose(fd.frame[1], -c.point(0.7) / 2.0, atol=1e-12)


def test_helix_apparatus(helix):
    fd = ff.frenet_apparatus(helix, 0.0, 3)
    np.testing.assert_allclose(fd.curvatures, [0.4, 0.2], atol=1e-12)
    assert fd.speed == pytest.approx(math.sqrt(5.0), abs=1e-12)
    assert fd.osculating_order == 3


def test_straight_line_reduces_order():
    line = curve_from_coordinates(
        (TrigCoordinate(slope=1.0), TrigCoordinate(slope=2.0)), (0.0, 5.0)
    )
    with pytest.raises(ReducedOrder) as exc:
        ff.frenet_apparatus(line, 1.0, 2)
    assert exc.value.order == 2


def test_frame_orthonormality_across_builtins(helix, salkowski, wcurve5, ellipse_arc):
    for curve in (helix, salkowski, wcurve5, ellipse_arc):
        for fd in ff.frenet_grid(curve, curve.grid(512)):
            gram = fd.frame @ fd.frame.T
            assert np.max(np.abs(gram - np.eye(fd.osculating_order))) < 1e-8


def test_curvature_table_constants(helix):
    table = ff.curvature_table(helix, helix.grid(16))
    assert table.ok.all()
    np.testing.assert_allclose(table.curvatures[:, 0], 0.4, atol=1e-12)
    np.testing.assert_allclose(table.curvatures[:, 1], 0.2, atol=1e-12)


def test_curvature_table_flags_degenerate_rows():
    line = curve_from_coordinates(
        (TrigCoordinate(slope=1.0), TrigCoordinate(slope=2.0)), (0.0, 5.0)
    )
    table = ff.curvature_table(line, line.grid(16))
    assert not table.ok.any()
    assert (table.reduced_order == 2).all()
    assert np.isnan(table.curvatures).all()


def test_curvature_table_empty_grid(helix):
    table = ff.curvature_table(helix, [])
    assert table.s.size == 0


def test_classify_helix(helix):
    cl = ff.classify(helix, helix.grid(64))
    assert cl.is_w_curve and cl.is_ccr
    assert cl.ratios[0] == pytest.approx(0.5, abs=1e-9)


def test_classify_circle_single_curvature():
    cl = ff.classify(ff.make_circle(1.5))
    assert cl.is_w_curve and cl.is_ccr
    assert cl.ratios.size == 0


def test_classify_salkowski_not_w(salkowski):
    cl = ff.classify(salkowski, salkowski.grid(64))
    assert not cl.is_w_curve
    assert cl.spreads[0] < 1e-8  # first curvature is constant
    assert cl.spreads[1] > 0.1


def test_classify_division_guard():
    # plane curve whose single curvature is fine, but force a near-zero mean
    # through a curve with vanishing mean curvature: a straight-ish S-shape
    coords = (TrigCoordinate(slope=1.0), TrigCoordinate(terms=((1e-14, 1.0, 0.0),)))
    wiggle = curve_from_coordinates(coords, (0.0, 2 * math.pi))
    with pytest.raises((DivisionGuard, ReducedOrder)):
        ff.classify(wiggle, wiggle.grid(16))


@given(st.floats(0.5, 3.0), st.floats(0.5, 3.0), st.floats(0.3, 2.0))
@settings(max_examples=20)
def test_random_wcurves_classify_constant(r1, r2, pitch):
    curve = ff.make_wcurve([r1, r2], [1.0, 2.0], pitch=pitch, dim=5)
    cl = ff.classify(curve, curve.grid(32), tol=1e-6)
    assert cl.is_w_curve and cl.is_ccr


def test_frame_equations_residual_on_unit_speed_curves(unit_helix, unit_salkowski):
    # numerically differentiate each frame vector along arclength and compare
    # with the curvature-coupled combination of its neighbors
    for curve in (unit_helix, unit_salkowski):
        lo, hi = curve.domain
        grid = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 384)
        data = ff.frenet_grid(curve, grid)
        frames = np.array([fd.frame for fd in data])      # (N, d, dim)
        kappas = np.array([fd.curvatures for fd in data])  # (N, d-1)
        d = frames.shape[1]
        dframes = np.stack(
            [grid_derivative(frames[:, i, :], grid) for i in range(d)], axis=1
        )
        worst = 0.0
        for j in range(grid.size):
            M = np.zeros((d, d))
            for i, k in enumerate(kappas[j]):
                M[i, i + 1] = k
                M[i + 1, i] = -k
            worst = max(worst, float(np.max(np.abs(dframes[j] - M @ frames[j]))))
        assert worst < 1e-5


def test_curvatures_invariant_under_reparametrization(helix, unit_helix):
    for t in np.linspace(0.5, 5.5, 7):
        s = ff.arc_length(helix, helix.domain[0], float(t))
        native = ff.frenet_apparatus(helix, float(t), 3).curvatures
        unit = ff.frenet_apparatus(unit_helix, s, 3).curvatures
        np.testing.assert_allclose(native, unit, atol=1e-7)


def test_sign_alignment_is_noop_on_generic_curve(salkowski):
    raw = ff.frenet_grid(salkowski, salkowski.grid(32), align=False)
    aligned = ff.frenet_grid(salkowski, salkowski.grid(32), align=True)
    for a, b in zip(raw, aligned):
        np.testing.assert_array_equal(a.frame, b.frame)


# ----------------------------------------- batched pass against per-row loops

def align_frames_loop(frames):
    """Reference sign alignment: flip a vector whose dot with its aligned
    predecessor is negative, one row after another."""
    out = [np.array(frames[0])]
    for F in frames[1:]:
        G = np.array(F)
        prev = out[-1]
        for i in range(G.shape[0]):
            if float(G[i] @ prev[i]) < 0.0:
                G[i] = -G[i]
        out.append(G)
    return np.array(out)


def frenet_rows_loop(curve, grid, d):
    """Reference Frenet pass: the one-flag gram_schmidt on each row of the
    same derivative stack, then the alignment loop."""
    frames, kappas, speeds = [], [], []
    for derivs in eval_derivatives(curve, np.asarray(grid, dtype=float), d)[:, 1:]:
        orth, norms = gram_schmidt(derivs)
        frames.append(orth / norms[:, None])
        kappas.append(norms[1:] / (norms[:-1] * norms[0]))
        speeds.append(norms[0])
    return align_frames_loop(frames), np.array(kappas), np.array(speeds)


def cycloid():
    # (t - sin t, 1 - cos t): the velocity is exactly zero at t = 0, a cusp
    arc = curve_from_coordinates(
        (TrigCoordinate(slope=1.0, terms=((-1.0, 1.0, 0.0),)),
         TrigCoordinate(const=1.0, terms=((1.0, 1.0, -0.5 * math.pi),))),
        (0.5, 1.0))
    return make_curve(2, (0.0, 3 * math.pi), "analytic", arc.max_order, arc.evaluator,
                      check_regularity=False)


def sine_graph():
    # (t, sin t): inflections, where the second derivative is tangent, at multiples of pi
    return curve_from_coordinates(
        (TrigCoordinate(slope=1.0), TrigCoordinate(terms=((1.0, 1.0, 0.0),))),
        (0.0, 2 * math.pi))


@pytest.mark.parametrize("name", ["helix", "salkowski", "wcurve5", "random4"])
def test_frenet_grid_matches_row_loop(name, helix, salkowski, wcurve5):
    curve = {"helix": helix, "salkowski": salkowski, "wcurve5": wcurve5,
             "random4": ff.random_trig_curve(4, 3)}[name]
    grid = curve.grid(97)
    frames, kappas, speeds = frenet_rows_loop(curve, grid, curve.dimension)
    data = ff.frenet_grid(curve, grid)
    np.testing.assert_allclose(np.array([fd.frame for fd in data]), frames, rtol=0, atol=1e-13)
    np.testing.assert_allclose(np.array([fd.curvatures for fd in data]), kappas, rtol=1e-13)
    np.testing.assert_allclose([fd.speed for fd in data], speeds, rtol=1e-13)
    assert [fd.s for fd in data] == grid.tolist()


def test_frenet_apparatus_is_one_row_of_the_grid(wcurve5):
    grid = wcurve5.grid(9)
    for fd, s in zip(ff.frenet_grid(wcurve5, grid, align=False), grid):
        one = ff.frenet_apparatus(wcurve5, float(s))
        np.testing.assert_allclose(one.frame, fd.frame, rtol=0, atol=1e-13)
        np.testing.assert_allclose(one.curvatures, fd.curvatures, rtol=1e-13)
        assert one.s == fd.s and one.osculating_order == 5


def test_alignment_signs_match_the_loop_exactly():
    rng = np.random.default_rng(7)
    # Slowly turning frames with random sign flips, then rows that are
    # exactly orthogonal to their predecessor (zero dots restart the signs).
    base = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    turn = np.linalg.qr(np.eye(3) + 0.05 * rng.normal(size=(3, 3)))[0]
    frames = [base.T]
    for _ in range(30):
        frames.append(frames[-1] @ turn)
    frames = np.array(frames) * rng.choice([-1.0, 1.0], size=(31, 3, 1))
    E = np.eye(3)
    frames = np.concatenate([frames, [E, E[[1, 2, 0]], -E[[1, 2, 0]], -E[[2, 0, 1]], E, -E]],
                            axis=0)
    signs = _alignment_signs(frames)
    want = align_frames_loop(frames)
    np.testing.assert_array_equal(frames * signs[:, :, None], want)
    assert np.any(signs < 0)


def test_alignment_is_exact_on_a_curve(salkowski):
    raw = np.array([fd.frame for fd in ff.frenet_grid(salkowski, salkowski.grid(64), align=False)])
    flipped = raw * np.where(np.arange(64) % 3 == 0, -1.0, 1.0)[:, None, None]
    np.testing.assert_array_equal(flipped * _alignment_signs(flipped)[:, :, None],
                                  align_frames_loop(flipped))


@pytest.mark.parametrize("make", [cycloid, sine_graph], ids=["cusps", "inflections"])
def test_curvature_table_reduced_rows_match_loop(make):
    curve = make()
    grid = curve.grid(17)
    table = ff.curvature_table(curve, grid)
    reduced = np.zeros(grid.size, dtype=int)
    kappas = np.full((grid.size, 1), np.nan)
    speeds = np.full(grid.size, np.nan)
    for i, s in enumerate(grid):
        derivs = eval_derivatives(curve, float(s), 2)[1:]
        try:
            _, norms = gram_schmidt(derivs)
        except DegenerateFlag as exc:
            reduced[i] = exc.index
            if exc.index > 1:
                speeds[i] = np.linalg.norm(derivs[0])
            continue
        kappas[i] = norms[1:] / (norms[:-1] * norms[0])
        speeds[i] = norms[0]
    assert 0 < np.count_nonzero(reduced) < grid.size
    np.testing.assert_array_equal(table.reduced_order, reduced)
    np.testing.assert_array_equal(np.isnan(table.curvatures), np.isnan(kappas))
    np.testing.assert_array_equal(np.isnan(table.speed), np.isnan(speeds))
    np.testing.assert_allclose(table.curvatures, kappas, rtol=1e-13)
    np.testing.assert_allclose(table.speed, speeds, rtol=1e-13)


def test_reduced_order_names_first_failing_row():
    with pytest.raises(ReducedOrder) as exc:
        ff.frenet_grid(sine_graph(), [0.5, 1.0, math.pi, 4.0, 2 * math.pi])
    assert (exc.value.order, exc.value.s) == (2, math.pi)
    with pytest.raises(ReducedOrder) as exc:
        ff.frenet_grid(cycloid(), [1.0, math.pi, 0.0, 2.5 * math.pi, 0.0])
    assert (exc.value.order, exc.value.s) == (1, 0.0)


def test_frenet_grid_order_validated(helix):
    for order in (1, 4):
        with pytest.raises(ValueError):
            ff.frenet_grid(helix, helix.grid(8), order)
