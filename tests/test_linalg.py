import numpy as np
import pytest
from numpy.testing import assert_allclose

from spdecov import NonSymmetricError, SingularError, symmetrize
from spdecov.advdiff import backward_euler_step
from spdecov.linalg import checked_inverse, sym_eig


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


def test_congruence_solve_singular():
    L = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularError):
        checked_inverse(L)


# LU pivot 2^-51 against max|L| = 2: a plain solve returns entries of
# about 4.5e15 without complaint
NEAR_SINGULAR = np.array([[1.0, 2.0], [1.0, 2.0 + 2.0**-51]])


def test_congruence_solve_near_singular():
    with pytest.raises(SingularError):
        checked_inverse(NEAR_SINGULAR)


def test_backward_euler_step_near_singular():
    # A = 0 makes M + dt A the near-singular matrix itself
    with pytest.raises(SingularError):
        backward_euler_step(NEAR_SINGULAR, np.zeros((2, 2)), np.eye(2), 0.5, 0.0)
