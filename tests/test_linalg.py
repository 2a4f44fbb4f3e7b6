import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from focalframe import ReducedOrder, SingularSystem, solve_linear
from focalframe.linalg import RANK_RTOL, gram_schmidt_rows
from reference_kernels import counting_svd, gram_schmidt, mgs_rows, svd_solve_rows


# ---------------------------------------------------- Gram-Schmidt on one flag

def one_flag(vectors):
    """gram_schmidt_rows on a one-row stack, unstacked."""
    orth, norms, failed = gram_schmidt_rows(np.asarray(vectors, dtype=float)[None])
    return orth[0], norms[0], int(failed[0])


def test_gram_schmidt_already_orthonormal():
    orth, norms, failed = one_flag([(1.0, 0.0), (0.0, 1.0)])
    assert failed == 0
    np.testing.assert_allclose(orth, np.eye(2))
    np.testing.assert_allclose(norms, [1.0, 1.0])


def test_gram_schmidt_removes_component():
    orth, norms, failed = one_flag([(1.0, 0.0), (1.0, 1.0)])
    assert failed == 0
    np.testing.assert_allclose(orth, [[1.0, 0.0], [0.0, 1.0]], atol=1e-15)
    np.testing.assert_allclose(norms, [1.0, 1.0])


def test_gram_schmidt_hand_projection():
    # axis-aligned construction solved by hand
    orth, norms, failed = one_flag([(2.0, 0.0, 0.0), (2.0, 3.0, 0.0), (1.0, 1.0, 5.0)])
    assert failed == 0
    np.testing.assert_allclose(orth, [[2, 0, 0], [0, 3, 0], [0, 0, 5]], atol=1e-14)
    np.testing.assert_allclose(norms, [2.0, 3.0, 5.0])


def test_gram_schmidt_dependent_input_flagged():
    _, _, failed = one_flag([(1.0, 0.0, 0.0), (2.0, 0.0, 0.0), (0.0, 1.0, 0.0)])
    assert failed == 2


def test_gram_schmidt_rejects_too_many_vectors():
    with pytest.raises(ValueError):
        one_flag([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])


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
    orth, norms, failed = one_flag(V)
    if failed:
        return
    k = V.shape[0]
    # the same bound on the cosine: at norms near 1e-159, 1e-10 * norms[i] *
    # norms[j] underflows to zero, and an exactly orthogonal pair would fail
    unit = orth / norms[:, None]
    for i in range(k):
        for j in range(i + 1, k):
            assert abs(unit[i] @ unit[j]) < 1e-10
    # span preservation prefix by prefix: every input vector projects onto the
    # orthogonalized prefix with negligible least-squares residual
    for p in range(1, k + 1):
        basis = orth[:p] / norms[:p, None]
        for v in V[:p]:
            resid = v - basis.T @ (basis @ v)
            assert np.linalg.norm(resid) < 1e-10 * max(1.0, np.linalg.norm(v))


# ------------------------------------------------------------ gram_schmidt_rows

def test_gram_schmidt_rows_match_one_flag_calls():
    # against the per-row reference loop, which raises on rank loss
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
        except ReducedOrder as exc:
            assert failed[r] == exc.order
            continue
        assert failed[r] == 0
        np.testing.assert_allclose(norms[r], want_norms, rtol=1e-13)
        np.testing.assert_allclose(orth[r], want_orth, rtol=0, atol=1e-13 * want_norms.max())
    np.testing.assert_array_equal(np.flatnonzero(failed), [7, 19, 23, 31])
    np.testing.assert_array_equal(failed[[7, 19, 23, 31]], [3, 2, 1, 2])


def parity_stack(kind, rows, dim, rng):
    """A ``(rows, dim, dim)`` stack of one kind: random, graded (vector norms
    from 1e0 to 1e6, as in a derivative stack) or with an exactly
    dependent vector, a repeat of an earlier one or zero, in every row."""
    stack = rng.normal(size=(rows, dim, dim))
    if kind == "graded":
        stack *= np.logspace(0, 6, dim)[:, None] * rng.uniform(0.5, 2.0, (rows, dim, 1))
    elif kind == "dependent":
        for r in range(rows):
            i = 1 + r % (dim - 1)
            stack[r, i] = 0.0 if r % 2 else stack[r, rng.integers(i)]
    return stack


@pytest.mark.parametrize("rows", [1, 7, 384])
@pytest.mark.parametrize("dim", range(2, 9))
@pytest.mark.parametrize("kind", ["random", "graded", "dependent"])
def test_gram_schmidt_rows_match_row_major_kernel(kind, dim, rows):
    # the component-major kernel against the row-major one it replaced: the
    # same verdicts, the same values to roundoff of each row's scale
    rng = np.random.default_rng([dim, rows, len(kind)])
    stack = parity_stack(kind, rows, dim, rng)
    before = stack.copy()
    orth, norms, failed = gram_schmidt_rows(stack)
    want_orth, want_norms, want_failed = mgs_rows(stack)
    np.testing.assert_array_equal(stack, before)
    assert orth.shape == stack.shape and norms.shape == (rows, dim) and failed.shape == (rows,)
    assert orth.flags.c_contiguous and norms.flags.c_contiguous and failed.flags.c_contiguous
    np.testing.assert_array_equal(failed, want_failed)
    if kind == "dependent":
        assert failed.all()
    scale = np.linalg.norm(stack, axis=2).max(axis=1)
    for r in range(rows):
        # entries from a failed row's first dependent vector on are not meaningful
        good = failed[r] - 1 if failed[r] else dim
        tol = 1e-12 * scale[r]
        assert np.abs(norms[r, :good] - want_norms[r, :good]).max(initial=0.0) <= tol
        assert np.abs(orth[r, :good] - want_orth[r, :good]).max(initial=0.0) <= tol


@pytest.mark.parametrize("dim", range(2, 9))
def test_gram_schmidt_rows_rank_rule_matches_row_major_kernel(dim):
    # vector i of each row is vector i - 1 plus a perturbation within a
    # factor 30 of the rank threshold RANK_RTOL * |v_1|**(i + 1): the rule
    # must flag the same rows
    rng = np.random.default_rng(dim)
    stack = rng.normal(size=(384, dim, dim))
    for r in range(384):
        i = 1 + r % (dim - 1)
        tol = RANK_RTOL * np.linalg.norm(stack[r, 0]) ** (i + 1)
        stack[r, i] = stack[r, i - 1] + tol * 10.0 ** rng.uniform(-1.5, 1.5) * rng.normal(size=dim)
    failed = gram_schmidt_rows(stack)[2]
    np.testing.assert_array_equal(failed, mgs_rows(stack)[2])
    assert 0 < np.count_nonzero(failed) < 384


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


def test_solve_messages():
    with pytest.raises(ValueError, match=r"^expected a nonempty square matrix, got shape \(2, 3\)$"):
        solve_linear(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError, match=r"^expected a nonempty square matrix, got shape \(3,\)$"):
        solve_linear(np.ones(3), np.ones(3))
    with pytest.raises(ValueError, match=r"^right-hand side shape \(3,\) does not match "
                                         r"system size 2$"):
        solve_linear(np.eye(2), np.ones(3))
    with pytest.raises(ValueError, match=r"^system has non-finite entries$"):
        solve_linear(np.eye(2), (1.0, np.inf))
    with pytest.raises(SingularSystem, match=r"^smallest singular value 3\.355e-17 at or below "
                                             r"2\.000e-13$"):
        solve_linear([[1.0, 1.0], [1.0, 1.0]], (1.0, 2.0))


def test_stacked_solve_keeps_bad_rows_apart():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(9, 4, 4)) + 3.0 * np.eye(4)
    b = rng.normal(size=(9, 4))
    A[3, 2] = 2.0 * A[3, 0]          # singular
    A[5, 1, 2] = np.nan              # non-finite matrix
    b[6, 0] = -np.inf                # non-finite right-hand side
    A[7] *= 1e300                    # finite, but ||A||_F overflows: singular
    x, errors = solve_linear(A, b)
    assert x.shape == (9, 4) and sorted(errors) == [3, 5, 6, 7]
    for r in range(9):
        if r not in errors:
            np.testing.assert_array_equal(x[r], solve_linear(A[r], b[r]))
            continue
        assert np.isnan(x[r]).all()
        err = errors[r]
        with pytest.raises(type(err), match=f"^{re.escape(str(err))}$"):
            solve_linear(A[r], b[r])
    assert [type(errors[r]) for r in (3, 5, 6, 7)] == [SingularSystem, ValueError, ValueError,
                                                       SingularSystem]


def test_stacked_solve_shapes():
    x, errors = solve_linear(np.empty((0, 3, 3)), np.empty((0, 3)))
    assert x.shape == (0, 3) and errors == {}
    x, errors = solve_linear(np.zeros((2, 2, 2)), np.ones((2, 2)))
    assert np.isnan(x).all() and sorted(errors) == [0, 1]
    with pytest.raises(ValueError, match="stack of nonempty square matrices"):
        solve_linear(np.ones((2, 3, 2)), np.ones((2, 3)))
    with pytest.raises(ValueError, match="stack of nonempty square matrices"):
        solve_linear(np.ones((2, 0, 0)), np.ones((2, 0)))
    with pytest.raises(ValueError, match=r"right-hand side shape \(3,\) does not match"):
        solve_linear(np.ones((2, 3, 3)), np.ones(3))


def test_solve_rejects_a_non_finite_solution():
    # regular by the singular-value test, but x overflows: 1e310 and 1e600
    for A, b in [(1e-310 * np.eye(3), np.ones(3)), (1e-300 * np.eye(3), 1e300 * np.ones(3))]:
        with pytest.raises(SingularSystem, match=r"^solution is not finite$"):
            solve_linear(A, b)
        x, errors = solve_linear(np.stack([np.eye(3), A, 2.0 * np.eye(3)]),
                                 np.stack([np.ones(3), b, np.ones(3)]))
        assert sorted(errors) == [1] and str(errors[1]) == "solution is not finite"
        assert isinstance(errors[1], SingularSystem)
        assert np.isnan(x[1]).all()
        np.testing.assert_array_equal(x[[0, 2]], [np.ones(3), 0.5 * np.ones(3)])


# --------------------------------- the inverse's certificate against the SVD test

def assert_as_reference(A, b):
    """A stacked solve gives the SVD-only kernel's verdicts, messages and
    solution bits; the reference's regular rows are all finite here."""
    x, errors = solve_linear(A, b)
    rx, rerrors = svd_solve_rows(A, b)
    assert np.isfinite(np.delete(rx, list(rerrors), axis=0)).all()
    assert sorted(errors) == sorted(rerrors)
    for r, err in rerrors.items():
        assert type(errors[r]) is type(err) and str(errors[r]) == str(err)
    np.testing.assert_array_equal(x.view(np.uint64), rx.view(np.uint64))
    return errors


# sigma_min over the floor 1e-13 ||A||_F: 1e3 and below take the SVD test,
# 1e4 and above are certified by the inverse
RATIOS = (1e-3, 0.5, 1.0, 2.0, 1e3, 1e4, 1e6)
SCALES = (1e-160, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e160)


def with_ratio(n, ratio, scale, rng):
    """An n-square matrix with sigma_min = ratio * 1e-13 * ||A||_F, times scale."""
    U = np.linalg.qr(rng.normal(size=(n, n)))[0]
    V = np.linalg.qr(rng.normal(size=(n, n)))[0]
    sigma = rng.uniform(0.5, 2.0, n)
    sigma[-1] = ratio * 1e-13 * np.linalg.norm(sigma[:-1])
    return scale * (U * sigma) @ V.T


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_certified_solve_equals_the_svd_test_one_row(n):
    rng = np.random.default_rng(n)
    for ratio in RATIOS:
        for scale in SCALES:
            A, b = with_ratio(n, ratio, scale, rng), rng.normal(size=n)
            errors = assert_as_reference(A[None], b[None])
            if errors:
                with pytest.raises(type(errors[0]), match=f"^{re.escape(str(errors[0]))}$"):
                    solve_linear(A, b)
            else:
                x, _ = svd_solve_rows(A[None], b[None])
                np.testing.assert_array_equal(solve_linear(A, b), x[0])


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_certified_solve_equals_the_svd_test_mixed_stack(n):
    rng = np.random.default_rng(100 + n)
    A = np.stack([with_ratio(n, ratio, scale, rng) for ratio in RATIOS for scale in SCALES])
    b = rng.normal(size=(len(A), n))
    order = rng.permutation(len(A))
    errors = assert_as_reference(A[order], b[order])
    # both routes are taken: singular rows, and regular rows on either side of 1e10
    assert 0 < len(errors) < len(A)


def test_certified_solve_equals_the_svd_test_on_bad_rows():
    # the rows of test_stacked_solve_keeps_bad_rows_apart
    rng = np.random.default_rng(7)
    A = rng.normal(size=(9, 4, 4)) + 3.0 * np.eye(4)
    b = rng.normal(size=(9, 4))
    A[3, 2] = 2.0 * A[3, 0]
    A[5, 1, 2] = np.nan
    b[6, 0] = -np.inf
    A[7] *= 1e300
    assert sorted(assert_as_reference(A, b)) == [3, 5, 6, 7]


def test_an_exactly_singular_row_sends_the_stack_to_the_svd_test(monkeypatch):
    rng = np.random.default_rng(11)
    A = rng.normal(size=(256, 5, 5)) + 3.0 * np.eye(5)
    b = rng.normal(size=(256, 5))
    shapes = counting_svd(monkeypatch)
    x, errors = solve_linear(A, b)
    assert errors == {} and shapes == []
    A[100, 2] = 0.0                  # LU meets an exact zero pivot: inv raises
    errors = assert_as_reference(A, b)
    assert sorted(errors) == [100] and shapes[0] == (256, 5, 5)
    keep = np.arange(256) != 100
    np.testing.assert_array_equal(solve_linear(A, b)[0][keep], x[keep])

