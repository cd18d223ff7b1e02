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

from .exceptions import ConfigError, NumericalError
from .fem import _is_finite, _is_int

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

#: smallest normal double; _bidiagonal_inverse zeroes what falls below
_TINY = np.finfo(float).tiny

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
    """Return (A + A^T)/2, finite wherever A is.

    Only where A + A^T overflows, past about 9e307, is it taken as
    A/2 + A^T/2, whose second temporary costs a page-faulting
    allocation at a few hundred rows.
    """
    with np.errstate(over="raise"):
        try:
            return 0.5 * (A + A.T)
        except FloatingPointError:
            pass
    return 0.5 * A + 0.5 * A.T


def _as_square(A, name="matrix"):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ConfigError(f"{name} must be square, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ConfigError(f"{name} has non-finite entries")
    return A


def _check_symmetric(A, name="matrix"):
    scale = max(np.abs(A).max(), 1e-300)
    gap = np.abs(A - A.T).max()
    if gap > SYMMETRY_RTOL * scale:
        raise ConfigError(
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
    ConfigError
        If A is not symmetric within tolerance.
    NumericalError
        If the underlying QR iteration fails.
    """
    A = _as_square(A)
    _check_symmetric(A)
    try:
        w, V = np.linalg.eigh(symmetrize(A))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(str(exc)) from exc
    return SymEig(w, V)


def checked_inverse(L):
    """Inverse of L, raising NumericalError when L is numerically singular.

    L counts as singular when numpy's LU factorization meets a zero
    pivot or when kappa_inf(L) = ||L||_inf ||L^{-1}||_inf exceeds
    COND_MAX, past which a solve with L keeps at most about two correct
    digits.

    Raises
    ------
    NumericalError
        If L is singular or its condition number exceeds 1e14.
    """
    L = _as_square(L, "L")
    try:
        L_inv = np.linalg.inv(L)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(str(exc)) from exc
    _check_condition(np.linalg.norm(L, np.inf), L_inv)
    return L_inv


def _check_condition(norm, inverse):
    """Raise NumericalError if norm ||inverse||_inf exceeds COND_MAX.

    norm is ||L||_inf of the matrix L whose inverse is given.
    """
    kappa = norm * np.linalg.norm(inverse, np.inf)
    if not kappa <= COND_MAX:
        raise NumericalError(f"condition number {kappa:.3e} exceeds {COND_MAX:.0e}")


def _tridiagonal_cholesky(diag, off):
    """Bidiagonal Cholesky factor of a symmetric tridiagonal matrix.

    The matrix has diagonal diag and off-diagonal off. Returns the
    diagonal d and subdiagonal e of the lower bidiagonal L with L L^T
    the matrix, by the recurrence of the unblocked factorization:
    d_i = sqrt(p_i), e_i = off_i / d_i, p_(i+1) = diag_(i+1) - e_i^2.

    Raises
    ------
    NumericalError
        If a pivot p_i is not positive and finite: the matrix is not
        positive definite, or overflows.
    """
    diag = np.asarray(diag, dtype=float).tolist()
    off = np.asarray(off, dtype=float).tolist()
    d, e = [], []
    for i, a in enumerate(diag):
        pivot = a - e[-1] * e[-1] if i else a
        if not 0.0 < pivot < math.inf:
            raise NumericalError(
                f"Cholesky pivot {pivot!r} of row {i} is not positive and finite"
            )
        d.append(math.sqrt(pivot))
        if i < len(off):
            e.append(off[i] / d[i])
    return np.array(d), np.array(e)


def _bidiagonal_inverse(d, e):
    """L^-1 of the lower bidiagonal L with diagonal d and subdiagonal e.

    Row i of L^-1 is -e_(i-1) / d_i times row i - 1, plus 1 / d_i on the
    diagonal, so each column decays (or grows) by the ratios from its
    diagonal down. A column's tail is zeroed from the first entry below
    the smallest normal double: subnormal entries would keep no digit
    worth having and slow every product that reads them. Where d_i >=
    |e_i| for all i, as for a diagonally dominant matrix, each row grows
    toward the diagonal, so the leading column of the row is the first
    to underflow and the recurrence skips the columns that did; else the
    tails are cut once, after the recurrence.
    """
    d, e = np.asarray(d, dtype=float), np.asarray(e, dtype=float)
    n = len(d)
    X = np.zeros((n, n))
    X.flat[:: n + 1] = 1.0 / d
    # columns before lo have underflowed and stay zero
    lo = 0
    prev = X[0]
    for i, (row, ratio) in enumerate(zip(X[1:], (-e / d[1:]).tolist()), 1):
        np.multiply(prev[lo:i], ratio, row[lo:i])
        while lo < i and abs(row[lo]) < _TINY:
            row[lo] = 0.0
            lo += 1
        prev = row
    if not np.all(d[:-1] >= np.abs(e)):
        dead = np.logical_or.accumulate(np.tril(np.abs(X) < _TINY, -1), axis=0)
        X[dead] = 0.0
    return X


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

    step is the covariance update. The path sampler in montecarlo steps
    x <- path_growth T x + load b, with the T of step, the (n_state, n)
    map `load` of a noise load b to its state increment, the mass matrix
    M and the noise Gram matrix Q_h. mc_validate bounds the O(dt^2) gap
    between the two by gap_rate dt^2 n_steps tr(M K_b).
    """

    M: np.ndarray
    Q_h: np.ndarray
    load: np.ndarray
    step: AffineStep
    path_growth: float
    gap_rate: float


def propagate(step, n_steps, K0=None):
    """n_steps iterations of K <- g T K T^T + Q from K0 (None: zero).

    The recursion is evaluated by binary doubling at O(log n_steps)
    matrix products (Smith 1968, SIAM J. Appl. Math. 16:198): the maps
    of 2^k steps, with propagator T^(2^k) and growth g^(2^k), are built
    by squaring and applied for the set bits of n_steps; they commute,
    so bit order does not matter. K0 and every update are symmetrized,
    so for symmetric Q the result is exactly symmetric. Doubling equals
    stepping up to rounding. n_steps = 0 gives K0 or zero. From K0 =
    None no product touches the zero start: the first set bit takes the
    accumulated Q as K, equal to what K0 = 0 gives.
    """
    if not _is_int(n_steps) or n_steps < 0:
        raise ConfigError(f"need an integer n_steps >= 0, got {n_steps!r}")
    T, Q, g = step
    K = None if K0 is None else symmetrize(np.asarray(K0, dtype=float))
    while True:
        if n_steps & 1:
            if K is None:
                K = np.array(Q, dtype=float)
            else:
                K = g * symmetrize(T @ K @ T.T) + Q
        n_steps >>= 1
        if not n_steps:
            return np.zeros_like(Q) if K is None else K
        Q = g * symmetrize(T @ Q @ T.T) + Q
        # the next T carries a K or doubles Q again; the last bit of a
        # zero start needs neither
        if K is not None or n_steps > 1:
            T = T @ T
        g = g * g


def _check_run(config):
    """Refuse a scheme config's T, n_steps, dt > 1, or a K0 that does not fit.

    K0 must have n_state rows, finite entries, and be symmetric within
    SYMMETRY_RTOL; the recursion and the path sampler both take it as is.
    """
    T, n_steps = config.T, config.n_steps
    if not (_is_finite(T) and T > 0):
        raise ConfigError(
            f"need a finite T > 0: T must be finite and positive, got {T!r}"
        )
    if not _is_int(n_steps) or n_steps < 1:
        raise ConfigError(f"need an integer n_steps >= 1, got {n_steps!r}")
    if config.dt > 1.0:
        raise ConfigError("dt must not exceed 1")
    n = config.n_state
    if config.K0 is None:
        return
    if np.shape(config.K0) != (n, n):
        raise ConfigError(
            f"K0 shape {np.shape(config.K0)} does not fit {n} state rows"
        )
    _check_symmetric(_as_square(config.K0, "K0"), "K0")


@functools.lru_cache(maxsize=None)
def _openblas():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None.

    numpy's LAPACK extension, already loaded, is opened again with
    RTLD_NOLOAD, so no second copy of anything is loaded, and the
    symbols are looked up through it, that is in it and in the libraries
    it links. None where it links no OpenBLAS (macOS Accelerate, MKL
    builds), where there is no RTLD_NOLOAD (Windows), or where numpy
    keeps its LAPACK elsewhere.
    """
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__, os.RTLD_NOLOAD | os.RTLD_LAZY)
    except (ImportError, OSError, AttributeError):
        return None
    for template in _OPENBLAS_SYMBOLS:
        get_name, set_name = template.format("get"), template.format("set")
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

    Yields the number of worker threads the body may run independent
    BLAS calls on: the cores this process may use where the scope put
    OpenBLAS on one thread, else 1, so that the workers never contend
    with OpenBLAS's own threads.
    """
    lib = _openblas()
    if lib is None or _BLAS_DECIDED.get():
        yield 1
        return
    get, set_ = lib
    saved = get() if rows <= SERIAL_BLAS_MAX_ROWS else None
    workers = 1 if saved is None else len(os.sched_getaffinity(0))
    token = _BLAS_DECIDED.set(True)
    try:
        if saved is not None:
            set_(1)
        yield workers
    finally:
        _BLAS_DECIDED.reset(token)
        if saved is not None:
            set_(saved)
