import numpy as np
import pytest

from focalframe.numdiff import fd_weights, grid_derivative, window_starts
from focalframe.series import series_divide, series_sqrt
from reference_kernels import fornberg_scalar


def one_stencil(nodes, x0, max_order):
    return fd_weights([nodes], [x0], max_order)[0]


def test_fd_weights_match_classical_central_stencil():
    w = one_stencil([-2.0, -1.0, 0.0, 1.0, 2.0], 0.0, 2)
    np.testing.assert_allclose(w[1], np.array([1, -8, 0, 8, -1]) / 12.0, atol=1e-13)
    np.testing.assert_allclose(w[2], np.array([-1, 16, -30, 16, -1]) / 12.0, atol=1e-12)


def test_fd_weights_match_classical_forward_stencil():
    w = one_stencil([0.0, 1.0, 2.0, 3.0, 4.0], 0.0, 1)
    np.testing.assert_allclose(w[1], np.array([-25, 48, -36, 16, -3]) / 12.0, atol=1e-12)


def test_fd_weights_interpolate_at_order_zero():
    nodes = np.array([0.0, 0.3, 0.9, 1.4])
    w = one_stencil(nodes, 0.55, 0)
    coeffs = np.array([2.0, -1.0, 0.5, 0.25])  # cubic through the nodes
    vals = np.polyval(coeffs, nodes)
    assert w[0] @ vals == pytest.approx(np.polyval(coeffs, 0.55), abs=1e-12)


def test_grid_derivative_is_exact_on_quartics():
    t = np.linspace(-1.0, 2.0, 40)
    y = 3 * t**4 - t**3 + 2 * t - 5
    dy = 12 * t**3 - 3 * t**2 + 2
    np.testing.assert_allclose(grid_derivative(y, t), dy, atol=1e-10)


def test_grid_derivative_vector_valued_accuracy():
    t = np.linspace(0.0, 2 * np.pi, 256)
    y = np.column_stack([np.sin(t), np.cos(2 * t)])
    dy = np.column_stack([np.cos(t), -2 * np.sin(2 * t)])
    h = t[1] - t[0]
    assert np.max(np.abs(grid_derivative(y, t) - dy)) < 40 * h**4


def test_window_starts_clamps():
    np.testing.assert_array_equal(window_starts(10, [0, 9, 5], 5), [0, 5, 3])
    assert window_starts(10, 5, 5) == 3
    with pytest.raises(ValueError):
        window_starts(4, 0, 5)


def _nonuniform_windows(rng, rows, n):
    nodes = np.sort(rng.uniform(-2.0, 2.0, (rows, n)), axis=1) * rng.uniform(0.01, 10.0, (rows, 1))
    centers = nodes[:, 0] + rng.uniform(0.0, 1.0, rows) * (nodes[:, -1] - nodes[:, 0])
    return nodes, centers


@pytest.mark.parametrize("n,max_order", [(2, 1), (5, 1), (7, 4), (11, 5)])
def test_stacked_fd_weights_bit_identical_to_rows(n, max_order):
    nodes, centers = _nonuniform_windows(np.random.default_rng(n), 9, n)
    stacked = fd_weights(nodes, centers, max_order)
    assert stacked.shape == (9, max_order + 1, n)
    for r in range(9):
        np.testing.assert_array_equal(stacked[r], one_stencil(nodes[r], centers[r], max_order))
        np.testing.assert_array_equal(stacked[r],
                                      fornberg_scalar(nodes[r], centers[r], max_order))


@pytest.mark.parametrize("rows", [1, 6])
@pytest.mark.parametrize("centers", ["on-nodes", "off-nodes"])
def test_fd_weights_bits_equal_the_scalar_loop(rows, centers):
    # every window of 2-11 nodes at every order 0-5 it supports
    rng = np.random.default_rng([rows, len(centers)])
    for n in range(2, 12):
        for max_order in range(min(n - 1, 5) + 1):
            nodes, _ = _nonuniform_windows(rng, rows, n)
            lo, hi = nodes[:, 0], nodes[:, -1]
            if centers == "on-nodes":
                x0 = nodes[np.arange(rows), rng.integers(0, n, rows)]
            else:  # inside the window and beyond its ends
                x0 = lo + rng.uniform(-0.5, 1.5, rows) * (hi - lo)
                assert not np.isin(x0, nodes).any()
            stacked = fd_weights(nodes, x0, max_order)
            for r in range(rows):
                np.testing.assert_array_equal(stacked[r],
                                              fornberg_scalar(nodes[r], x0[r], max_order))


def test_fd_weights_shape_checks():
    with pytest.raises(ValueError):
        fd_weights(np.zeros((3, 4)), np.zeros(2), 1)
    with pytest.raises(ValueError):
        fd_weights(np.arange(4.0), 0.0, 1)
    with pytest.raises(ValueError):
        fd_weights(np.arange(4.0)[None], 0.0, 1)
    with pytest.raises(ValueError):
        fd_weights(np.arange(2.0)[None], np.zeros(1), 2)


def test_grid_derivative_needs_strictly_monotone_parameters():
    t = np.linspace(0.0, 1.0, 12)
    y = np.sin(t)
    np.testing.assert_allclose(grid_derivative(y[::-1], t[::-1]), grid_derivative(y, t)[::-1],
                               rtol=1e-12)
    # a repeat at the start and in the middle, and a step back
    for bad, named in [(np.repeat(t, 2), 0.0), (np.r_[t[:5], t[4:]], t[4]),
                       (np.r_[t[:6], t[4], t[7:]], t[4])]:
        with pytest.raises(ValueError, match=f"strictly monotone; t={float(named)!r} breaks it"):
            grid_derivative(np.sin(bad), bad)


def test_grid_derivative_nonuniform_matches_row_loop():
    rng = np.random.default_rng(5)
    t = np.cumsum(rng.uniform(0.01, 0.05, 60))
    y = np.column_stack([np.sin(3 * t), np.exp(t)])
    loop, scale = np.empty_like(y), np.empty_like(y)
    for i in range(t.size):
        lo = min(max(i - 2, 0), t.size - 5)
        w = one_stencil(t[lo:lo + 5], t[i], 1)[1]
        loop[i] = w @ y[lo:lo + 5]
        scale[i] = np.abs(w) @ np.abs(y[lo:lo + 5])
    # Two 5-term dot products summed in different orders differ by at most
    # a few ulps of sum |w_j y_j|.
    bound = 10 * np.finfo(float).eps * scale
    got = grid_derivative(y, t)
    assert np.all(np.abs(got - loop) <= bound)
    assert np.all(np.abs(grid_derivative(y[:, 0], t) - loop[:, 0]) <= bound[:, 0])


# ------------------------------------------------------------------ series

def test_series_sqrt_squares_back_on_a_stack():
    a = np.array([[4.0, 1.0, -0.3, 0.2, 0.05],
                  [1.0, 0.0, 0.0, 0.0, 0.0],
                  [0.25, -2.0, 3.0, 0.0, -1.0]])
    s = series_sqrt(a, 5)
    assert s.shape == (3, 5)
    for row, want in zip(s, a):
        np.testing.assert_allclose(np.convolve(row, row)[:5], want, atol=1e-13)
    np.testing.assert_array_equal(s[0], series_sqrt(a[:1], 5)[0])
    # truncation beyond the input's length treats the missing terms as zero
    np.testing.assert_allclose(series_sqrt(np.array([[9.0, 6.0, 1.0]]), 4)[0], [3.0, 1.0, 0.0, 0.0],
                               atol=1e-15)
    with pytest.raises(ValueError):
        series_sqrt(np.array([[1.0, 0.0], [0.0, 1.0]]), 2)


def test_series_divide_multiplies_back_on_a_stack():
    rng = np.random.default_rng(7)
    b = rng.uniform(-1.0, 1.0, (4, 7))
    b[:, 0] = [1.0, -0.5, 2.0, 0.3]
    a = rng.uniform(-1.0, 1.0, (4, 6, 3))
    q = series_divide(a, b)  # the divisor's seventh term is past the truncation
    assert q.shape == a.shape
    for qr, br, ar in zip(q, b, a):
        for c in range(3):
            np.testing.assert_allclose(np.convolve(qr[:, c], br)[:6], ar[:, c], atol=1e-12)
    np.testing.assert_array_equal(q[2], series_divide(a[2:3], b[2:3])[0])
    np.testing.assert_array_equal(q[..., 1], series_divide(a[..., 1], b))
    assert series_divide(a.astype(np.longdouble), b).dtype == np.longdouble


def test_series_divide_gives_tan_from_sin_over_cos():
    n = 8
    scales = np.array([1.0, 0.5, -1.3])
    powers = scales[:, None] ** np.arange(n)
    sin = powers * [0.0, 1.0, 0.0, -1 / 6, 0.0, 1 / 120, 0.0, -1 / 5040]
    cos = powers * [1.0, 0.0, -1 / 2, 0.0, 1 / 24, 0.0, -1 / 720, 0.0]
    tan = powers * [0.0, 1.0, 0.0, 1 / 3, 0.0, 2 / 15, 0.0, 17 / 315]
    np.testing.assert_allclose(series_divide(sin, cos), tan, rtol=1e-15, atol=1e-15)
