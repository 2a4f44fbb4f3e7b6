import numpy as np
import pytest

from focalframe.numdiff import fd_weights, grid_derivative, window_starts
from focalframe.series import (
    factorials,
    series_compose,
    series_mul,
    series_reverse,
    series_sqrt,
)


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


def fornberg_scalar(x, x0, max_order):
    """Reference: Fornberg's recursion on one stencil, one scalar at a time."""
    n = len(x)
    C = np.zeros((n, max_order + 1))
    C[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0] - x0
    for i in range(1, n):
        mn = min(i, max_order)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    C[i, k] = c1 * (k * C[i - 1, k - 1] - c5 * C[i - 1, k]) / c2
                C[i, 0] = -c1 * c5 * C[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                C[j, k] = (c4 * C[j, k] - k * C[j, k - 1]) / c3
            C[j, 0] = c4 * C[j, 0] / c3
        c1 = c2
    return C.T


@pytest.mark.parametrize("n,max_order", [(2, 1), (5, 1), (7, 4), (11, 5)])
def test_stacked_fd_weights_bit_identical_to_rows(n, max_order):
    nodes, centers = _nonuniform_windows(np.random.default_rng(n), 9, n)
    stacked = fd_weights(nodes, centers, max_order)
    assert stacked.shape == (9, max_order + 1, n)
    for r in range(9):
        np.testing.assert_array_equal(stacked[r], one_stencil(nodes[r], centers[r], max_order))
        np.testing.assert_array_equal(stacked[r],
                                      fornberg_scalar(nodes[r], centers[r], max_order))


def test_fd_weights_shape_checks():
    with pytest.raises(ValueError):
        fd_weights(np.zeros((3, 4)), np.zeros(2), 1)
    with pytest.raises(ValueError):
        fd_weights(np.arange(4.0), 0.0, 1)
    with pytest.raises(ValueError):
        fd_weights(np.arange(4.0)[None], 0.0, 1)
    with pytest.raises(ValueError):
        fd_weights(np.arange(2.0)[None], np.zeros(1), 2)


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

def test_series_mul_truncates():
    a = np.array([1.0, 1.0])
    np.testing.assert_allclose(series_mul(a, a, 3), [1.0, 2.0, 1.0])
    np.testing.assert_allclose(series_mul(a, a, 2), [1.0, 2.0])


def test_series_sqrt_squares_back():
    a = np.array([4.0, 1.0, -0.3, 0.2, 0.05])
    s = series_sqrt(a, 5)
    np.testing.assert_allclose(series_mul(s, s, 5), a, atol=1e-13)


def test_series_compose_against_known_expansion():
    n = 6
    fact = factorials(n)
    exp_series = 1.0 / fact
    sin_series = np.array([0.0, 1.0, 0.0, -1 / 6, 0.0, 1 / 120])
    composed = series_compose(exp_series, sin_series, n)
    # exp(sin x) = 1 + x + x^2/2 - x^4/8 - x^5/15 + ...
    np.testing.assert_allclose(composed, [1.0, 1.0, 0.5, 0.0, -1 / 8, -1 / 15], atol=1e-12)


def test_series_reverse_inverts_sin():
    import math

    n = 8
    sin_series = np.zeros(n)
    for k in range(1, n, 2):
        sin_series[k] = (-1) ** (k // 2) / math.factorial(k)
    inv = series_reverse(sin_series, n)
    # compositional inverse of sin is arcsin: x + x^3/6 + 3x^5/40 + 15x^7/336
    expected = np.zeros(n)
    expected[1], expected[3], expected[5], expected[7] = 1.0, 1 / 6, 3 / 40, 15 / 336
    np.testing.assert_allclose(inv, expected, atol=1e-12)
    round_trip = series_compose(sin_series, inv, n)
    ident = np.zeros(n)
    ident[1] = 1.0
    np.testing.assert_allclose(round_trip, ident, atol=1e-12)
