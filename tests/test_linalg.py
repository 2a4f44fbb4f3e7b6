import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from focalframe import DegenerateFlag, SingularSystem, gram_schmidt, solve_linear
from focalframe.linalg import gram_schmidt_rows


# ---------------------------------------------------------------- gram_schmidt

def test_gram_schmidt_already_orthonormal():
    orth, norms = gram_schmidt([(1.0, 0.0), (0.0, 1.0)])
    np.testing.assert_allclose(orth, np.eye(2))
    np.testing.assert_allclose(norms, [1.0, 1.0])


def test_gram_schmidt_removes_component():
    orth, norms = gram_schmidt([(1.0, 0.0), (1.0, 1.0)])
    np.testing.assert_allclose(orth, [[1.0, 0.0], [0.0, 1.0]], atol=1e-15)
    np.testing.assert_allclose(norms, [1.0, 1.0])


def test_gram_schmidt_hand_projection():
    # axis-aligned construction solved by hand
    orth, norms = gram_schmidt([(2.0, 0.0, 0.0), (2.0, 3.0, 0.0), (1.0, 1.0, 5.0)])
    np.testing.assert_allclose(orth, [[2, 0, 0], [0, 3, 0], [0, 0, 5]], atol=1e-14)
    np.testing.assert_allclose(norms, [2.0, 3.0, 5.0])


def test_gram_schmidt_dependent_input_flagged():
    with pytest.raises(DegenerateFlag) as exc:
        gram_schmidt([(1.0, 0.0, 0.0), (2.0, 0.0, 0.0), (0.0, 1.0, 0.0)])
    assert exc.value.index == 2


def test_gram_schmidt_rejects_too_many_vectors():
    with pytest.raises(ValueError):
        gram_schmidt([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])


@st.composite
def well_conditioned_sets(draw):
    dim = draw(st.integers(2, 6))
    k = draw(st.integers(2, dim))
    V = draw(arrays(float, (k, dim), elements=st.floats(-2, 2, allow_nan=False)))
    try:
        cond = np.linalg.cond(V @ V.T)
    except np.linalg.LinAlgError:
        cond = np.inf
    if not np.isfinite(cond) or cond > 1e6:
        # mix a clean orthogonal block in to keep the set well conditioned
        V = V + 3.0 * np.eye(dim)[:k]
    return V


@given(well_conditioned_sets())
def test_gram_schmidt_orthogonality_and_span(V):
    try:
        orth, norms = gram_schmidt(V)
    except DegenerateFlag:
        return
    k = V.shape[0]
    for i in range(k):
        for j in range(i + 1, k):
            assert abs(orth[i] @ orth[j]) < 1e-10 * norms[i] * norms[j]
    # span preservation prefix by prefix: every input vector projects onto the
    # orthogonalized prefix with negligible least-squares residual
    for p in range(1, k + 1):
        basis = orth[:p] / norms[:p, None]
        for v in V[:p]:
            resid = v - basis.T @ (basis @ v)
            assert np.linalg.norm(resid) < 1e-10 * max(1.0, np.linalg.norm(v))


# ------------------------------------------------------------ gram_schmidt_rows

def test_gram_schmidt_rows_match_one_flag_calls():
    rng = np.random.default_rng(11)
    stack = rng.normal(size=(40, 4, 6)) * rng.uniform(0.1, 10.0, (40, 1, 1))
    stack[7, 2] = 2.0 * stack[7, 0] - stack[7, 1]    # rank loss at vector 3
    stack[19, 1] = 0.0                                 # rank loss at vector 2
    stack[23] = 0.0                                    # rank loss at vector 1
    stack[31, :3] = np.eye(6)[[0, 0, 0]] + np.outer([0.0, 1e-20, 2e-20], np.eye(6)[1])
    # rank loss at vector 2, then again at vector 3: the first index counts
    orth, norms, failed = gram_schmidt_rows(stack)
    assert orth.shape == stack.shape and norms.shape == (40, 4)
    for r in range(40):
        try:
            want_orth, want_norms = gram_schmidt(stack[r])
        except DegenerateFlag as exc:
            assert failed[r] == exc.index
            continue
        assert failed[r] == 0
        np.testing.assert_allclose(norms[r], want_norms, rtol=1e-13)
        np.testing.assert_allclose(orth[r], want_orth, rtol=0, atol=1e-13 * want_norms.max())
    np.testing.assert_array_equal(np.flatnonzero(failed), [7, 19, 23, 31])
    np.testing.assert_array_equal(failed[[7, 19, 23, 31]], [3, 2, 1, 2])


def test_gram_schmidt_rows_input_checks():
    with pytest.raises(ValueError):
        gram_schmidt_rows(np.ones((2, 3)))
    with pytest.raises(ValueError):
        gram_schmidt_rows(np.ones((2, 3, 2)))
    bad = np.eye(3)[None].repeat(2, axis=0)
    bad[1, 2, 0] = np.nan
    with pytest.raises(ValueError):
        gram_schmidt_rows(bad)
    empty = gram_schmidt_rows(np.empty((0, 2, 3)))
    assert [a.shape for a in empty] == [(0, 2, 3), (0, 2), (0,)]


# ----------------------------------------------------------------- linear solve

def test_solve_identity():
    np.testing.assert_allclose(solve_linear(np.eye(2), (4.0, 5.0)), [4.0, 5.0])


def test_solve_diagonal():
    np.testing.assert_allclose(solve_linear([[2.0, 0.0], [0.0, 4.0]], (2.0, 8.0)), [1.0, 2.0])


def test_solve_hand_2x2():
    np.testing.assert_allclose(solve_linear([[1.0, 1.0], [1.0, -1.0]], (3.0, 1.0)), [2.0, 1.0])


def test_solve_singular():
    with pytest.raises(SingularSystem):
        solve_linear([[1.0, 1.0], [1.0, 1.0]], (1.0, 2.0))


def test_solve_near_singular():
    # smallest singular value about 5.6e-16, far below 1e-13 * ||A||_F = 2e-13
    with pytest.raises(SingularSystem):
        solve_linear([[1.0, 1.0], [1.0, 1.0 + 1e-15]], (1.0, 2.0))


@given(st.integers(2, 7), st.integers(0, 10_000))
def test_solve_round_trip(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
    if np.linalg.cond(A) > 1e6:
        return
    b = rng.normal(size=n)
    x = solve_linear(A, b)
    err = np.linalg.norm(A @ x - b)
    bound = 1e-9 * (np.linalg.norm(A) * np.linalg.norm(x) + np.linalg.norm(b))
    assert err <= bound
    np.testing.assert_allclose(x, np.linalg.solve(A, b), atol=1e-8 * max(1.0, np.linalg.norm(x)))
