"""Dense symmetric matrix primitives shared by all covariance recursions.

Everything here operates on plain float64 numpy arrays. Covariance
coefficient matrices at the mesh sizes of interest have at most a few
thousand rows (1025 DoF at h = 2^-10, twice that for a wave block) and
are inherently dense, so no sparse paths are provided.
"""

from typing import NamedTuple

import numpy as np

from .exceptions import (
    NonSymmetricError,
    NoConvergenceError,
    NotPSDError,
    SingularError,
)

__all__ = [
    "SymEig",
    "AffineStep",
    "SchemeOperators",
    "sym_eig",
    "psd_sqrt",
    "checked_inverse",
    "propagate",
    "symmetrize",
]

#: relative symmetry slack accepted by sym_eig
SYMMETRY_RTOL = 1e-9

#: largest condition number kappa_inf(L) that checked_inverse accepts
COND_MAX = 1e14


class SymEig(NamedTuple):
    """Eigendecomposition of a symmetric matrix.

    eigenvalues are ascending; eigenvectors are the columns of an
    orthogonal matrix V with A = V diag(eigenvalues) V^T.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def symmetrize(A):
    """Return (A + A^T)/2."""
    return 0.5 * (A + A.T)


def _as_square(A, name="matrix"):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError(f"{name} has non-finite entries")
    return A

def _check_symmetric(A, rtol=SYMMETRY_RTOL):
    scale = max(np.abs(A).max(), 1e-300)
    gap = np.abs(A - A.T).max()
    if gap > rtol * scale:
        raise NonSymmetricError(
            f"matrix is not symmetric: max|A - A^T| = {gap:.3e} "
            f"exceeds {rtol:.1e} * max|A| = {rtol * scale:.3e}"
        )


def sym_eig(A):
    """Symmetric eigendecomposition with ascending eigenvalues.

    Parameters
    ----------
    A : (n, n) array_like
        Symmetric matrix; asymmetry up to 1e-9 relative is tolerated and
        averaged away before the decomposition.

    Returns
    -------
    SymEig
        Named tuple (eigenvalues, eigenvectors).

    Raises
    ------
    NonSymmetricError
        If A is not symmetric within tolerance.
    NoConvergenceError
        If the underlying QR iteration fails.
    """
    A = _as_square(A)
    _check_symmetric(A)
    try:
        w, V = np.linalg.eigh(symmetrize(A))
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    return SymEig(w, V)


def psd_sqrt(A, tol=1e-10):
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues in [-tol * max(1, lambda_max), 0) are treated as roundoff
    and clamped to zero, so rank-deficient Gram matrices are fine.

    Parameters
    ----------
    A : (n, n) array_like
        Symmetric positive semidefinite matrix.
    tol : float, optional
        Relative clamp tolerance for negative eigenvalues.

    Returns
    -------
    (n, n) ndarray
        Symmetric PSD matrix B with B @ B ~= A.

    Raises
    ------
    NotPSDError
        If an eigenvalue falls below -tol * max(1, lambda_max).
    """
    w, V = sym_eig(A)
    floor = -tol * max(1.0, w[-1] if w.size else 1.0)
    if w.size and w[0] < floor:
        raise NotPSDError(
            f"matrix is not PSD: min eigenvalue {w[0]:.3e} < {floor:.3e}"
        )
    root = V * np.sqrt(np.clip(w, 0.0, None))
    return symmetrize(root @ V.T)


def checked_inverse(L):
    """Inverse of L, raising SingularError when L is numerically singular.

    L counts as singular when numpy's LU factorization meets a zero
    pivot or when kappa_inf(L) = ||L||_inf ||L^{-1}||_inf exceeds
    COND_MAX, past which a solve with L keeps at most about two correct
    digits.

    Raises
    ------
    SingularError
        If L is singular or its condition number exceeds 1e14.
    """
    L = _as_square(L, "L")
    try:
        L_inv = np.linalg.inv(L)
    except np.linalg.LinAlgError as exc:
        raise SingularError(str(exc)) from exc
    kappa = np.linalg.norm(L, np.inf) * np.linalg.norm(L_inv, np.inf)
    if not kappa <= COND_MAX:
        raise SingularError(
            f"condition number {kappa:.3e} exceeds {COND_MAX:.0e}"
        )
    return L_inv


class AffineStep(NamedTuple):
    """One step K <- g T K T^T + Q of a covariance recursion.

    T is the state propagator, Q the symmetric noise increment and g a
    scalar growth factor. g stays a separate scalar instead of being
    folded into T as sqrt(g), because it may be negative.
    """

    T: np.ndarray
    Q: np.ndarray
    g: float = 1.0


class SchemeOperators(NamedTuple):
    """Operators of one time step of a scheme.

    step is the covariance update; the mass matrix M, the noise Gram
    matrix Q_h and the inverse L_inv of the step's system matrix L
    (M + dt A for backward Euler, the block L for Crank-Nicolson) also
    drive the path sampler in montecarlo.
    """

    M: np.ndarray
    Q_h: np.ndarray
    L_inv: np.ndarray
    step: AffineStep


def propagate(step, n_steps, K0=None):
    """n_steps iterations of K <- g T K T^T + Q from K0 (None: zero).

    The recursion is evaluated by binary doubling at O(log n_steps)
    matrix products (Smith 1968, SIAM J. Appl. Math. 16:198): the maps
    of 2^k steps, with propagator T^(2^k) and growth g^(2^k), are built
    by squaring and applied for the set bits of n_steps; they commute,
    so bit order does not matter. K0 and every update are symmetrized,
    so for symmetric Q the result is exactly symmetric. Doubling equals
    stepping up to rounding.
    """
    T, Q, g = step
    K = np.zeros_like(Q) if K0 is None else symmetrize(
        np.asarray(K0, dtype=float)
    )
    while True:
        if n_steps & 1:
            K = g * symmetrize(T @ K @ T.T) + Q
        n_steps >>= 1
        if not n_steps:
            return K
        Q = g * symmetrize(T @ Q @ T.T) + Q
        T = T @ T
        g = g * g
