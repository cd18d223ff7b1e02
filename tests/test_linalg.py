import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from spdecov import ConfigError, Mesh1D, NumericalError, assemble_mass, symmetrize
from spdecov.advdiff import backward_euler_step
from spdecov.linalg import (
    _bidiagonal_inverse,
    _tridiagonal_cholesky,
    checked_inverse,
    sym_eig,
)

# the messages of a refused inverse and of a refused tridiagonal factor
ILL_CONDITIONED = r"condition number .* exceeds 1e\+14"
BAD_PIVOT = "Cholesky pivot .* is not positive and finite"


def test_sym_eig_diagonal_case():
    vals, vecs = sym_eig(np.diag([2.0, 1.0]))
    assert_allclose(vals, [1.0, 2.0], rtol=0, atol=1e-14)
    # axis-aligned eigenvectors up to sign
    assert_allclose(np.abs(vecs), np.eye(2)[:, ::-1], atol=1e-14)


def test_sym_eig_ascending_and_orthonormal():
    rng = np.random.default_rng(11)
    A = symmetrize(rng.standard_normal((6, 6)))
    vals, vecs = sym_eig(A)
    assert np.all(np.diff(vals) >= 0)
    assert_allclose(vecs.T @ vecs, np.eye(6), atol=1e-12)
    assert_allclose(vecs @ np.diag(vals) @ vecs.T, A, atol=1e-12)


def test_sym_eig_rejects_nonsymmetric():
    A = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ConfigError, match="matrix is not symmetric"):
        sym_eig(A)


def test_sym_eig_accepts_roundoff_asymmetry():
    A = np.array([[1.0, 0.5], [0.5 + 1e-13, 1.0]])
    sym_eig(A)  # within the 1e-9 relative gate


def test_congruence_solve_singular():
    L = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(NumericalError, match="Singular matrix"):
        checked_inverse(L)


# LU pivot 2^-51 against max|L| = 2: a plain solve returns entries of
# about 4.5e15 without complaint
NEAR_SINGULAR = np.array([[1.0, 2.0], [1.0, 2.0 + 2.0**-51]])


def test_congruence_solve_near_singular():
    with pytest.raises(NumericalError, match=ILL_CONDITIONED):
        checked_inverse(NEAR_SINGULAR)


def test_backward_euler_step_near_singular():
    # A = 0 makes M + dt A the near-singular matrix itself
    with pytest.raises(NumericalError, match=ILL_CONDITIONED):
        backward_euler_step(NEAR_SINGULAR, np.zeros((2, 2)), np.eye(2), 0.5, 0.0)


def _bidiagonal(d, e):
    return np.diag(d) + np.diag(e, -1)


# a lower bidiagonal factor: positive diagonal, a subdiagonal that may be
# zero, tiny (tails that underflow part-way down a row) or larger than
# the diagonal (rows that do not grow toward the diagonal)
_FACTOR_SUB = st.floats(-4.0, 4.0) | st.sampled_from([0.0, 1e-170, -1e-150])


@st.composite
def _spd_tridiagonals(draw):
    n = draw(st.integers(1, 40))
    d = np.array(draw(st.lists(st.floats(0.25, 4.0), min_size=n, max_size=n)))
    e = np.array(draw(st.lists(_FACTOR_SUB, min_size=n - 1, max_size=n - 1)))
    F = _bidiagonal(d, e)
    A = F @ F.T
    return np.diag(A), np.diag(A, -1)


def _mass_bands(n_rows):
    M = assemble_mass(Mesh1D(n_rows + 1, "dirichlet"))
    return np.diag(M), np.diag(M, -1)


def _check_factor_and_inverse(diag, off):
    d, e = _tridiagonal_cholesky(diag, off)
    F = _bidiagonal(d, e)
    A = np.diag(diag) + np.diag(off, -1) + np.diag(off, 1)
    assert_allclose(F @ F.T, A, rtol=0, atol=1e-13 * np.abs(A).max())
    X = _bidiagonal_inverse(d, e)
    assert np.array_equal(X, np.tril(X))
    # forward substitution's backward error is componentwise, so the
    # residual is measured against |X| |F|; the floor covers the entries
    # cut below the normal range
    residual = np.abs(X @ F - np.eye(len(d)))
    assert np.all(residual <= 1e-13 * (np.abs(X) @ np.abs(F)) + 1e-290)
    assert not np.any((X != 0) & (np.abs(X) < np.finfo(float).tiny))
    return X


@settings(max_examples=150, deadline=None, derandomize=True)
@given(bands=_spd_tridiagonals())
def test_tridiagonal_factor_and_inverse(bands):
    _check_factor_and_inverse(*bands)


@pytest.mark.parametrize("diag", [[2.0], [1.0, 4.0, 0.5]], ids=["1x1", "diagonal"])
def test_tridiagonal_factor_of_diagonal_matrices(diag):
    X = _check_factor_and_inverse(diag, np.zeros(len(diag) - 1))
    assert_allclose(X, np.diag(1.0 / np.sqrt(diag)), rtol=1e-15)


def test_bidiagonal_inverse_cuts_the_underflowing_tails():
    # the mass factor's ratios are about 0.27, so its inverse leaves the
    # normal range about 540 rows below the diagonal
    X = _check_factor_and_inverse(*_mass_bands(700))
    assert X[-1, 0] == 0.0 and X[-1, -300] != 0.0


def test_bidiagonal_inverse_cuts_a_tail_that_underflows_inside_a_row():
    # |e_0| > d_0 makes column 1 of every row 16 times smaller than
    # column 0; row 3 puts column 0 at 3.2e-307 and column 1 at 2e-308,
    # below the normal range, and e_4 > d_5 would grow that back
    d = np.array([0.25, 1.0, 1.0, 1.0, 1.0, 1.0])
    e = np.array([4.0, 1e-160, 2e-148, 0.5, 3.0])
    X = _bidiagonal_inverse(d, e)
    assert abs(X[3, 0]) >= np.finfo(float).tiny
    assert np.array_equal(X[3:, 1], np.zeros(3))
    F = _bidiagonal(d, e)
    _check_factor_and_inverse(np.diag(F @ F.T), np.diag(F @ F.T, -1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    bands=_spd_tridiagonals(),
    row=st.integers(0, 39),
    excess=st.floats(0.5, 2.0),
)
def test_tridiagonal_factor_refuses_a_nonpositive_pivot(bands, row, excess):
    diag, off = bands
    diag = diag.copy()
    row = row % len(diag)
    # the pivot of `row` is d_row^2; take that and more off its diagonal
    d, _ = _tridiagonal_cholesky(diag, off)
    diag[row] -= (1.0 + excess) * d[row] ** 2
    with pytest.raises(NumericalError, match=BAD_PIVOT):
        _tridiagonal_cholesky(diag, off)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, -np.inf, np.nan])
def test_tridiagonal_factor_refuses_a_bad_first_pivot(bad):
    with pytest.raises(NumericalError, match=BAD_PIVOT):
        _tridiagonal_cholesky([bad, 1.0], [0.5])


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_tridiagonal_factor_refuses_a_nonfinite_off_diagonal(bad):
    with pytest.raises(NumericalError, match=BAD_PIVOT):
        _tridiagonal_cholesky([1.0, 1.0, 1.0], [0.5, bad])
