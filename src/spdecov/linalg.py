"""Dense symmetric matrix primitives shared by all covariance recursions.

Everything here operates on plain float64 numpy arrays. Covariance
coefficient matrices at the mesh sizes of interest have at most a few
thousand rows (1025 DoF at h = 2^-10, twice that for a wave block) and
are inherently dense, so no sparse paths are provided.
"""

import contextvars
import ctypes
import functools
import math
import os
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from .exceptions import (
    NonSymmetricError,
    NoConvergenceError,
    SingularError,
)
from .fem import _is_int

__all__ = [
    "SymEig",
    "AffineStep",
    "SchemeOperators",
    "sym_eig",
    "checked_inverse",
    "propagate",
    "symmetrize",
]

#: relative symmetry slack accepted by sym_eig and in an initial covariance
SYMMETRY_RTOL = 1e-9

#: largest condition number kappa_inf(L) that checked_inverse accepts
COND_MAX = 1e14

#: largest matrix, in rows, of a run that _serial_blas keeps on one thread
SERIAL_BLAS_MAX_ROWS = 256

# thread-count symbols of the numpy wheel's OpenBLAS, of scipy's wheel
# and of a plain build, in the order they are looked for
_OPENBLAS_SYMBOLS = (
    "scipy_openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "openblas_{}_num_threads",
)

# set inside a _serial_blas scope: nested runs keep the outer decision
_BLAS_DECIDED = contextvars.ContextVar("_BLAS_DECIDED", default=False)


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


def _check_symmetric(A, name="matrix", error=NonSymmetricError):
    scale = max(np.abs(A).max(), 1e-300)
    gap = np.abs(A - A.T).max()
    if gap > SYMMETRY_RTOL * scale:
        raise error(
            f"{name} is not symmetric: max|A - A^T| = {gap:.3e} exceeds "
            f"{SYMMETRY_RTOL:.1e} * max|A| = {SYMMETRY_RTOL * scale:.3e}"
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
    matrix Q_h and the (n_state, n) map `load` of a noise load to its
    state increment also drive the path sampler in montecarlo. load is
    (M + dt A)^{-1} for backward Euler and the velocity columns of the
    block inverse L^{-1} for Crank-Nicolson.
    """

    M: np.ndarray
    Q_h: np.ndarray
    load: np.ndarray
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


def _check_run(config):
    """Refuse a scheme config's T, n_steps, dt > 1, or a K0 that does not fit.

    K0 must have n_state rows, finite entries, and be symmetric within
    SYMMETRY_RTOL; the recursion and the path sampler both take it as is.
    """
    T, n_steps = config.T, config.n_steps
    if not (math.isfinite(T) and T > 0):
        raise ValueError(
            f"need a finite T > 0: T must be finite and positive, got {T!r}"
        )
    if not _is_int(n_steps) or n_steps < 1:
        raise ValueError(f"need an integer n_steps >= 1, got {n_steps!r}")
    if config.dt > 1.0:
        raise ValueError("dt must not exceed 1")
    n = config.n_state
    if config.K0 is None:
        return
    if np.shape(config.K0) != (n, n):
        raise ValueError(
            f"K0 shape {np.shape(config.K0)} does not fit {n} state rows"
        )
    _check_symmetric(_as_square(config.K0, "K0"), "K0", ValueError)


@functools.lru_cache(maxsize=None)
def _openblas():
    """(get, set) thread-count functions of the loaded OpenBLAS, or None.

    The library is found among the process's mappings and opened with
    RTLD_NOLOAD, so no second copy is ever loaded. None where there is
    no /proc/self/maps or no OpenBLAS (macOS, Windows, MKL builds).
    """
    try:
        with open(
            "/proc/self/maps", encoding="utf-8", errors="surrogateescape"
        ) as fh:
            paths = {ln.split(maxsplit=5)[5].strip() for ln in fh if "openblas" in ln}
        libs = [ctypes.CDLL(p, os.RTLD_NOLOAD | os.RTLD_LAZY) for p in sorted(paths)]
    except OSError:
        return None
    for template in _OPENBLAS_SYMBOLS:
        get_name, set_name = template.format("get"), template.format("set")
        for lib in libs:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def _serial_blas(rows):
    """Run the body on one BLAS thread if its largest matrix is small.

    run_single, run_sweep and mc_validate pass their scheme's state rows
    (n_state), modal_hs_distance the larger of its DoF and mode counts.
    Up to SERIAL_BLAS_MAX_ROWS rows, a second OpenBLAS thread costs more
    to wake than it saves, and one thread makes the results independent
    of the caller's count, which is restored on exit. A scope opened
    inside another keeps the outer one's decision.
    """
    lib = _openblas()
    if lib is None or _BLAS_DECIDED.get():
        yield
        return
    get, set_ = lib
    saved = get() if rows <= SERIAL_BLAS_MAX_ROWS else None
    token = _BLAS_DECIDED.set(True)
    try:
        if saved is not None:
            set_(1)
        yield
    finally:
        _BLAS_DECIDED.reset(token)
        if saved is not None:
            set_(saved)
