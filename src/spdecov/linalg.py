"""Dense symmetric matrix primitives shared by all covariance recursions.

Everything here operates on plain float64 numpy arrays. Covariance
coefficient matrices at the mesh sizes of interest are small (at most a
few hundred rows) and inherently dense, so no sparse paths are provided.
"""

import warnings
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .exceptions import (
    NonSymmetricError,
    NoConvergenceError,
    NotPSDError,
    SingularError,
)

__all__ = [
    "SymEig",
    "AffineStep",
    "sym_eig",
    "psd_sqrt",
    "congruence_solve",
    "propagate",
    "symmetrize",
]

#: relative symmetry slack accepted by sym_eig
SYMMETRY_RTOL = 1e-9

#: pivot floor for congruence_solve, relative to max|L|
PIVOT_RTOL = 1e-14


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


def congruence_solve(L, RHS):
    """Solve L X L^T = RHS for symmetric RHS.

    The one-step references advdiff_step and wave_cov_step use it with
    L = M + dt*A or the CN block L, factored outside any symmetry
    assumptions. X is symmetrized before return.

    Parameters
    ----------
    L : (n, n) array_like
        Invertible matrix.
    RHS : (n, n) array_like
        Symmetric right-hand side.

    Returns
    -------
    (n, n) ndarray
        Symmetrized solution X = L^{-1} RHS L^{-T}.

    Raises
    ------
    SingularError
        If an LU pivot magnitude drops below 1e-14 * max|L|.
    """
    L = _as_square(L, "L")
    RHS = _as_square(RHS, "RHS")
    if L.shape != RHS.shape:
        raise ValueError(f"shape mismatch: L {L.shape} vs RHS {RHS.shape}")
    lu_piv = lu_factor_checked(L)
    Y = scipy.linalg.lu_solve(lu_piv, RHS, check_finite=False)
    X = scipy.linalg.lu_solve(lu_piv, Y.T, check_finite=False)
    return symmetrize(X)


class AffineStep(NamedTuple):
    """One step K <- g T K T^T + Q of a covariance recursion.

    T is the state propagator, Q the symmetric noise increment and g a
    scalar growth factor. g stays a separate scalar instead of being
    folded into T as sqrt(g), because it may be negative.
    """

    T: np.ndarray
    Q: np.ndarray
    g: float = 1.0


def propagate(step, n_steps, K0=None, callback=None):
    """n_steps iterations of K <- g T K T^T + Q from K0 (None: zero).

    With a callback, called as callback(j, K_j) after every step j =
    1..n_steps, the recursion steps. Without one it is evaluated by
    binary doubling at O(log n_steps) matrix products (Smith 1968, SIAM
    J. Appl. Math. 16:198): the maps of 2^k steps, with propagator
    T^(2^k) and growth g^(2^k), are built by squaring and applied for
    the set bits of n_steps; they commute, so bit order does not
    matter. K0 and every update are symmetrized, so for symmetric Q the
    result is exactly symmetric. Doubling equals stepping up to
    rounding.
    """
    T, Q, g = step
    K = np.zeros_like(Q) if K0 is None else symmetrize(
        np.asarray(K0, dtype=float)
    )
    if callback is not None:
        for j in range(1, n_steps + 1):
            K = g * symmetrize(T @ K @ T.T) + Q
            callback(j, K)
        return K
    while True:
        if n_steps & 1:
            K = g * symmetrize(T @ K @ T.T) + Q
        n_steps >>= 1
        if not n_steps:
            return K
        Q = g * symmetrize(T @ Q @ T.T) + Q
        T = T @ T
        g = g * g


def lu_factor_checked(L):
    """LU-factor L, raising SingularError on a collapsed pivot."""
    L = _as_square(L, "L")
    # the pivot check below turns singularity into a typed error; the
    # scipy advisory warning would only duplicate it
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(L, check_finite=False)
    floor = PIVOT_RTOL * max(np.abs(L).max(), 1e-300)
    pivot = np.abs(np.diag(lu)).min()
    if pivot < floor:
        raise SingularError(f"pivot {pivot:.3e} below floor {floor:.3e}")
    return lu, piv
