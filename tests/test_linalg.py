import numpy as np
import pytest
from numpy.testing import assert_allclose

from spdecov import (
    NonSymmetricError,
    NotPSDError,
    SingularError,
    congruence_solve,
    psd_sqrt,
    sym_eig,
    symmetrize,
)


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
    with pytest.raises(NonSymmetricError):
        sym_eig(A)


def test_sym_eig_accepts_roundoff_asymmetry():
    A = np.array([[1.0, 0.5], [0.5 + 1e-13, 1.0]])
    sym_eig(A)  # within the 1e-9 relative gate


def test_psd_sqrt_identity():
    assert_allclose(psd_sqrt(np.eye(3)), np.eye(3), atol=1e-14)


def test_psd_sqrt_squares_back():
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    R = psd_sqrt(A)
    assert_allclose(R @ R, A, atol=1e-12)
    assert_allclose(R, R.T, atol=1e-14)


def test_psd_sqrt_random_psd_property():
    rng = np.random.default_rng(5)
    for _ in range(5):
        B = rng.standard_normal((7, 7))
        A = B @ B.T
        R = psd_sqrt(A)
        assert_allclose(R @ R, A, rtol=0, atol=1e-10 * max(1.0, np.abs(A).max()))


def test_psd_sqrt_clamps_tiny_negatives():
    A = np.diag([1.0, -1e-12])
    R = psd_sqrt(A)
    assert_allclose(R, np.diag([1.0, 0.0]), atol=1e-6)


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPSDError):
        psd_sqrt(np.diag([1.0, -1e-3]))


def test_congruence_solve_scalar_case():
    # L = M + dt*A = 1/3 + (1/2)*4 = 7/3; RHS = dt*Q_h = 1/6
    X = congruence_solve(np.array([[7.0 / 3.0]]), np.array([[1.0 / 6.0]]))
    assert_allclose(X[0, 0], 3.0 / 98.0, rtol=0, atol=1e-16)


def test_congruence_solve_roundtrip():
    rng = np.random.default_rng(3)
    L = rng.standard_normal((8, 8)) + 8.0 * np.eye(8)
    X = symmetrize(rng.standard_normal((8, 8)))
    RHS = L @ X @ L.T
    got = congruence_solve(L, RHS)
    assert_allclose(got, X, atol=1e-9 * np.abs(RHS).max())
    # post: residual gate
    assert np.abs(L @ got @ L.T - RHS).max() <= 1e-9 * np.abs(RHS).max()


def test_congruence_solve_output_symmetric():
    rng = np.random.default_rng(4)
    L = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
    RHS = symmetrize(rng.standard_normal((5, 5)))
    X = congruence_solve(L, RHS)
    assert_allclose(X, X.T, rtol=0, atol=0)


def test_congruence_solve_singular():
    L = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularError):
        congruence_solve(L, np.eye(2))
