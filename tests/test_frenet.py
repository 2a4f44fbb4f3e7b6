import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import focalframe as ff
from focalframe.curves import (
    ConstantProfile,
    SinusoidProfile,
    TrigCoordinate,
    curve_from_coordinates,
    eval_derivatives,
    make_curve,
)
from focalframe.errors import DivisionGuard, ReducedOrder
from focalframe.frenet import _alignment_signs
from focalframe.linalg import gram_schmidt_rows, solve_linear
from focalframe.numdiff import grid_derivative
from focalframe.slant import theorem_target_index
from reference_kernels import counting_curve, gram_schmidt


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


def test_classify_reads_a_varying_negative_curvature_as_varying():
    # the second column runs from -1 to -3 about a negative mean: its spread
    # is relative to the mean's size, so it is positive and above any tol
    cl = ff.classify_curvatures([[1.0, -1.0]] * 4 + [[1.0, -3.0]] * 4)
    np.testing.assert_array_equal(cl.spreads, [0.0, 1.0])
    assert not cl.is_w_curve
    assert ff.classify_curvatures([[1.0, -2.0]] * 8).is_w_curve


def test_classify_division_guard():
    # plane curve whose single curvature is fine, but force a near-zero mean
    # through a curve with vanishing mean curvature: a straight-ish S-shape
    coords = (TrigCoordinate(slope=1.0), TrigCoordinate(terms=((1e-14, 1.0, 0.0),)))
    wiggle = curve_from_coordinates(coords, (0.0, 2 * math.pi))
    with pytest.raises((DivisionGuard, ReducedOrder)):
        ff.classify(wiggle, wiggle.grid(16))


@pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan, math.inf, -math.inf], ids=repr)
def test_classify_rejects_a_bad_tolerance(helix, tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        ff.classify(helix, helix.grid(32), tol=tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        ff.classify_curvatures(np.ones((16, 2)), tol)


@pytest.mark.parametrize("call", [
    lambda: ff.classify_curvatures(np.ones(16)),
    lambda: ff.classify_curvatures(np.ones((0, 2))),
    lambda: ff.classify_curvatures(np.ones((16, 0))),
    # a NaN row gave a silent verdict (is_w_curve False, NaN spreads), an
    # infinite one leaked invalid-value warnings from the spreads and ratios
    lambda: ff.classify_curvatures([[1.0, 0.5]] * 7 + [[1.0, math.nan]]),
    lambda: ff.classify_curvatures([[1.0, 0.5]] * 7 + [[math.inf, 0.5]]),
    lambda: solve_linear(np.zeros((0, 0)), np.zeros(0)),
    lambda: theorem_target_index(1.5, 3),
], ids=["classify-1d", "classify-no-rows", "classify-no-curvatures", "classify-nan",
        "classify-inf", "solve-0x0", "target-index-1.5"])
def test_documented_value_errors(call):
    with pytest.raises(ValueError):
        call()


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


def raw_frames(curve, grid):
    """Unit frames of a grid pass before sign alignment."""
    orth, norms, _ = gram_schmidt_rows(eval_derivatives(curve, grid, curve.dimension)[:, 1:])
    return orth / norms[:, :, None]


def test_sign_alignment_is_noop_on_generic_curve(salkowski):
    raw = raw_frames(salkowski, salkowski.grid(32))
    np.testing.assert_array_equal(ff.frenet_grid(salkowski, salkowski.grid(32)).frame, raw)


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


def quartic():
    # (t, t^2, t^4): the third derivative (0, 0, 24 t) is dependent at t = 0 only
    def evaluator(t, order):
        out = np.zeros((t.size, order + 1, 3))
        for k in range(order + 1):
            for axis, p in enumerate((1, 2, 4)):
                if k <= p:
                    out[:, k, axis] = math.perm(p, k) * t ** (p - k)
        return out

    return make_curve(3, (-1.0, 1.0), "analytic", 6, evaluator)


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
    for fd, frame in zip(ff.frenet_grid(wcurve5, grid), raw_frames(wcurve5, grid)):
        one = ff.frenet_apparatus(wcurve5, fd.s)
        np.testing.assert_allclose(one.frame, frame, rtol=0, atol=1e-13)
        np.testing.assert_allclose(one.point, fd.point, rtol=0, atol=1e-13)
        np.testing.assert_allclose(one.curvatures, fd.curvatures, rtol=1e-13)
        assert one.s == fd.s and one.osculating_order == 5


def test_grid_table_indexes_slices_and_iterates(helix):
    table = ff.frenet_grid(helix, helix.grid(12))
    assert len(table) == 12 and table.frame.shape == (12, 3, 3)
    row = table[5]
    assert isinstance(row, ff.FrenetData) and row.frame.shape == (3, 3)
    assert type(row.s) is float and type(row.speed) is float and row.osculating_order == 3
    part = table[3:-3]
    assert isinstance(part, ff.FrenetData) and len(part) == 6
    np.testing.assert_array_equal(part.curvatures, table.curvatures[3:-3])
    assert [r.s for r in table] == helix.grid(12).tolist()
    with pytest.raises(ValueError):
        table.frame[0, 0, 0] = 1.0  # shared with every row, so read-only


def test_alignment_signs_match_the_loop_exactly():
    rng = np.random.default_rng(7)
    # Slowly turning frames with random sign flips, then rows that are
    # exactly orthogonal to their predecessor (zero dots restart the signs),
    # then a NaN row like a flagged row's (NaN dots restart them too).
    base = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    turn = np.linalg.qr(np.eye(3) + 0.05 * rng.normal(size=(3, 3)))[0]
    frames = [base.T]
    for _ in range(30):
        frames.append(frames[-1] @ turn)
    frames = np.array(frames) * rng.choice([-1.0, 1.0], size=(31, 3, 1))
    E = np.eye(3)
    frames = np.concatenate([frames, [E, E[[1, 2, 0]], -E[[1, 2, 0]], -E[[2, 0, 1]], E, -E]],
                            axis=0)
    frames = np.concatenate([frames[:20], np.full((1, 3, 3), np.nan), frames[20:]], axis=0)
    signs = _alignment_signs(frames)
    want = align_frames_loop(frames)
    np.testing.assert_array_equal(frames * signs[:, :, None], want)
    assert np.any(signs[:20] < 0) and np.all(signs[21] == 1.0)


def test_alignment_is_exact_on_a_curve(salkowski):
    raw = raw_frames(salkowski, salkowski.grid(64))
    flipped = raw * np.where(np.arange(64) % 3 == 0, -1.0, 1.0)[:, None, None]
    np.testing.assert_array_equal(flipped * _alignment_signs(flipped)[:, :, None],
                                  align_frames_loop(flipped))


@pytest.mark.parametrize("make", [cycloid, sine_graph, quartic],
                         ids=["cusps", "inflections", "one-flat-row"])
def test_curvature_table_reduced_rows_match_loop(make):
    curve = make()
    grid = curve.grid(17)
    d = curve.dimension
    table = ff.curvature_table(curve, grid)
    reduced = np.zeros(grid.size, dtype=int)
    kappas = np.full((grid.size, d - 1), np.nan)
    speeds = np.full(grid.size, np.nan)
    for i, s in enumerate(grid):
        derivs = eval_derivatives(curve, float(s), d)[1:]
        try:
            _, norms = gram_schmidt(derivs)
        except ReducedOrder as exc:
            reduced[i] = exc.order
            if exc.order > 1:
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
    # one table: flagged rows have NaN frames and curvatures, the others finite frames
    np.testing.assert_array_equal(table.ok, reduced == 0)
    assert np.isnan(table.frame[~table.ok]).all() and np.isnan(table.curvatures[~table.ok]).all()
    assert np.isfinite(table.frame[table.ok]).all()
    # alignment restarts after a flagged row: the next full-order row keeps its raw sign
    after = np.flatnonzero(~table.ok[:-1] & table.ok[1:]) + 1
    assert after.size
    np.testing.assert_array_equal(table.frame[after], raw_frames(curve, grid[after]))
    first = np.flatnonzero(reduced)[0]
    with pytest.raises(ReducedOrder) as exc:
        ff.frenet_grid(curve, grid)
    assert (exc.value.order, exc.value.s) == (reduced[first], grid[first])


def synthesized_curve():
    profile = ff.CurvatureProfile((SinusoidProfile(1.0, 0.2, 1.5), ConstantProfile(0.4)),
                                  (0.0, 4.0))
    return ff.synthesize_from_curvatures(profile, 3, step=4.0 / 256)


@pytest.mark.parametrize("kind", ["analytic", "arclength", "synthesized"])
def test_table_points_are_an_order_0_call(kind, salkowski, unit_salkowski):
    # row 0 of the table's derivative stack is the position the oracle gives alone
    curve = {"analytic": salkowski, "arclength": unit_salkowski,
             "synthesized": synthesized_curve()}[kind]
    grid = curve.grid(97)
    want = eval_derivatives(curve, grid, 0)[:, 0]
    np.testing.assert_array_equal(ff.frenet_grid(curve, grid).point, want)
    np.testing.assert_array_equal(ff.curvature_table(curve, grid).point, want)


def test_sampled_table_points_match_an_order_0_call(helix):
    # a sampled curve's stencil window widens with the order, so its row 0
    # differs from an order-0 call by roundoff, not bit for bit
    nodes = helix.grid(200)
    curve = ff.sampled_curve(nodes, eval_derivatives(helix, nodes, 0)[:, 0])
    grid = np.linspace(nodes[0], nodes[-1], 256)
    assert not np.isin(grid[1:-1], nodes).any()
    want = eval_derivatives(curve, grid, 0)[:, 0]
    np.testing.assert_allclose(ff.frenet_grid(curve, grid).point, want, rtol=0, atol=1e-10)
    np.testing.assert_allclose(ff.curvature_table(curve, grid).point, want, rtol=0, atol=1e-10)


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


@pytest.mark.parametrize("order", [2.5, np.float64(2.0), True], ids=repr)
@pytest.mark.parametrize("call", [
    lambda curve, order: ff.frenet_grid(curve, curve.grid(8), order),
    lambda curve, order: ff.curvature_table(curve, curve.grid(8), order),
    lambda curve, order: ff.frenet_apparatus(curve, 0.5, order),
], ids=["frenet_grid", "curvature_table", "frenet_apparatus"])
def test_frenet_calls_reject_a_non_integer_order(helix, call, order):
    curve = dataclasses.replace(helix)
    with pytest.raises(ValueError, match="order must be an integer"):
        call(curve, order)
    assert call(curve, np.int64(2)).frame.shape[-2] == 2


# ----------------------------------------------------------- the kept grid pass

def test_public_calls_on_one_grid_share_one_pass(wcurve5):
    curve, calls = counting_curve(wcurve5)
    grid = curve.grid(128)
    ff.curvature_table(curve, grid)
    ff.classify(curve, grid)
    reports = [ff.is_k_slant(curve, k, grid) for k in range(1, 6)]
    ff.coefficient_residuals(curve, reports[0].axis, grid)
    assert calls == [(128, 5)]


def test_kept_pass_equals_a_fresh_pass(wcurve5):
    curve, calls = counting_curve(wcurve5)
    grid = curve.grid(64)
    kept = ff.curvature_table(curve, grid)
    assert ff.frenet_grid(curve, grid) is kept
    assert ff.frenet_grid(curve, list(grid)) is kept and len(calls) == 1
    fresh_curve, _ = counting_curve(wcurve5)
    fresh = ff.frenet_grid(fresh_curve, grid)
    for f in dataclasses.fields(kept):
        np.testing.assert_array_equal(getattr(kept, f.name), getattr(fresh, f.name))


def _grid_with_one_value_changed(curve, grid):
    grid = grid.copy()
    grid[5] = np.nextafter(grid[5], np.inf)
    return curve, grid, None


def _grid_with_negative_zero(curve, grid):
    assert grid[0] == 0.0 and not np.signbit(grid[0])
    grid = grid.copy()
    grid[0] = -0.0
    return curve, grid, None


@pytest.mark.parametrize("change", [
    _grid_with_one_value_changed,
    _grid_with_negative_zero,
    lambda curve, grid: (curve, grid, 4),
    lambda curve, grid: (dataclasses.replace(curve), grid, None),
], ids=["one-value", "negative-zero", "order", "replaced-curve"])
def test_pass_is_recomputed_when_its_inputs_differ(wcurve5, change):
    curve, calls = counting_curve(wcurve5)
    grid = curve.grid(32)
    first = ff.curvature_table(curve, grid)
    other_curve, other_grid, order = change(curve, grid)
    second = ff.curvature_table(other_curve, other_grid, order)
    assert len(calls) == 2 and second is not first
    assert other_curve == curve and hash(other_curve) == hash(curve)


def test_curvature_table_arrays_are_read_only(helix):
    table = ff.curvature_table(helix, helix.grid(16))
    for f in dataclasses.fields(table):
        column = getattr(table, f.name)
        with pytest.raises(ValueError):
            column[0] = 1
