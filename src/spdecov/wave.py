"""Fully discrete covariance recursion for the stochastic wave equation.

Crank-Nicolson in time on the first-order block system

    d[u; v] = [[0, I], [-Lambda, 0]] [u; v] dt + [0; G u] dt + [0; dW],

P1 elements in space, Dirichlet boundary. States are coefficient pairs
(u, v) stacked into length-2N vectors, covariances are 2N x 2N block
coefficient matrices. The one-step propagator is

    T_hat = L^{-1} R P,   L = [[M, -a M], [a S, M]],
                          R = [[M,  a M], [-a S, M]],   a = dt/2,

with the inhomogeneity applied first through the perturbation factor
P = [[I, 0], [dt M^{-1} G_h, I]]. Block elimination leaves only the
N x N matrix M + a^2 S = B^{-1}: with C = B S,

    L^{-1} R = [[I - 2a^2 C, 2a (I - a^2 C)], [-2a C, I - 2a^2 C]],

and the velocity columns of L^{-1} are [a B; B]. M and S are symmetric
tridiagonal, so B and M^{-1} are taken as F^{-T} F^{-1} from the
bidiagonal Cholesky factor F of M + a^2 S or of M, and C = B S by
three shifted element-wise passes: no LU factorization. The noise
increment enters un-propagated, matching the recursion K_j = S_hat
K_{j-1} S_hat^* + dt P_h B (P_h B)^*:

    K_j = T_hat K_{j-1} T_hat^T + dt blockdiag(0, M^{-1} Q_h M^{-T}).
"""

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .exceptions import ConfigError
from .fem import Mesh1D, assemble_mass, assemble_stiffness
from .kernels import Kernel, assemble_Q
from .linalg import (
    AffineStep,
    SchemeOperators,
    _as_square,
    _bidiagonal_inverse,
    _check_condition,
    _check_run,
    _check_symmetric,
    _tridiagonal_cholesky,
    propagate,
    symmetrize,
)

__all__ = [
    "WaveConfig",
    "crank_nicolson_step",
    "wave_run",
    "extract_position_cov",
    "wave_energy",
]


@dataclass(frozen=True)
class WaveConfig:
    """One wave covariance run.

    g_spec selects the linear inhomogeneity G: 'minus_q' for G = -Q
    (Gram matrix -Q_h), 'zero' for the plain wave equation, or an
    explicit N x N Gram matrix G_h[i, j] = <G phi_j, phi_i>.
    """

    mesh: Mesh1D
    kernel: Kernel
    g_spec: Union[str, np.ndarray] = "minus_q"
    T: float = 1.0
    n_steps: int = 1
    K0: Optional[np.ndarray] = field(default=None)

    def __post_init__(self):
        if self.mesh.bc != "dirichlet":
            raise ConfigError("wave runs require a dirichlet mesh")
        if not isinstance(self.kernel, Kernel):
            raise ConfigError(f"kernel must be a Kernel, got {self.kernel!r}")
        _check_run(self)
        n = self.mesh.n_dof
        if isinstance(self.g_spec, str):
            if self.g_spec not in ("minus_q", "zero"):
                raise ConfigError(f"unknown g_spec {self.g_spec!r}")
        elif np.shape(self.g_spec) != (n, n):
            raise ConfigError(
                f"g_spec shape {np.shape(self.g_spec)} does not fit {n} DoF"
            )
        elif not np.isfinite(np.asarray(self.g_spec, dtype=float)).all():
            raise ConfigError("g_spec has non-finite entries")

    @property
    def dt(self):
        return self.T / self.n_steps

    @property
    def n_state(self):
        """Rows of the state covariance: position and velocity blocks."""
        return 2 * self.mesh.n_dof

    def operators(self):
        """Assemble the run's matrices into its Crank-Nicolson operators."""
        M = assemble_mass(self.mesh)
        S = assemble_stiffness(self.mesh)
        Q_h = assemble_Q(self.mesh, self.kernel)
        if isinstance(self.g_spec, str):
            G_h = -Q_h if self.g_spec == "minus_q" else None
        else:
            G_h = np.asarray(self.g_spec, dtype=float)
        return crank_nicolson_step(M, S, Q_h, G_h, self.dt)


def extract_position_cov(K):
    """Top-left N x N block: the position-position covariance."""
    K = np.asarray(K)
    n = K.shape[0] // 2
    return K[:n, :n].copy()


def wave_energy(K, M, S):
    """Expected discrete energy trace(blockdiag(S, M) K).

    For a state with covariance K this is E[u^T S u + v^T M v]; the
    noiseless CN flow conserves it exactly in exact arithmetic.
    """
    n = M.shape[0]
    return float(np.sum(S * K[:n, :n]) + np.sum(M * K[n:, n:]))


def _bands(A, name):
    """Diagonal and off-diagonal of a symmetric tridiagonal matrix A.

    The two off-diagonals may differ by linalg.SYMMETRY_RTOL max|A|;
    their mean is returned.

    Raises
    ------
    ConfigError
        If A is not square, has non-finite entries, has an entry off
        its three diagonals, or is not symmetric.
    """
    A = _as_square(A, name)
    diag, lower, upper = A.diagonal(), A.diagonal(-1), A.diagonal(1)
    inside = sum(map(np.count_nonzero, (diag, lower, upper)))
    if np.count_nonzero(A) > inside:
        raise ConfigError(f"{name} is not tridiagonal")
    _check_symmetric(A, name)
    return diag, 0.5 * (lower + upper)


def _spd_inverse(diag, off):
    """Inverse F^{-T} F^{-1} of the SPD tridiagonal matrix F F^T."""
    F_inv = _bidiagonal_inverse(*_tridiagonal_cholesky(diag, off))
    return F_inv.T @ F_inv


def crank_nicolson_step(M, S, Q_h, G_h, dt):
    """The covariance step K <- T_hat K T_hat^T + Q of Crank-Nicolson.

    T_hat = L^{-1} R P with the blocks eliminated, Q = dt blockdiag(0,
    M^{-1} Q_h M^{-T}) and the growth factor is 1. G_h is the Gram
    matrix of the inhomogeneity, or None for G = 0 (P = I).

    M and S must be symmetric tridiagonal, as P1 mass and stiffness
    matrices are. B = (M + a^2 S)^{-1} and M^{-1} come from their
    bidiagonal Cholesky factors (linalg._tridiagonal_cholesky and
    _bidiagonal_inverse), C = B S from the three diagonals of S, and
    M^{-1} Q_h M^{-1} and M^{-1} G_h by products.

    The path step L x_j = R P x_{j-1} + [0; b_j] loads the noise on the
    velocity row: path_growth 1, load [a B; B], the velocity columns of
    L^{-1}. Its increment covariance L^{-1} blockdiag(0, dt Q_h) L^{-T}
    matches Q to O(dt^2) of the velocity block, whence gap_rate 1.

    Raises
    ------
    ConfigError
        If M or S is not a symmetric tridiagonal matrix, or their shapes
        differ.
    NumericalError
        If M or M + a^2 S is not positive definite (a Cholesky pivot is
        not positive and finite), or kappa_inf(M + a^2 S) exceeds
        linalg.COND_MAX.
    """
    m_diag, m_off = _bands(M, "M")
    s_diag, s_off = _bands(S, "S")
    if len(s_diag) != len(m_diag):
        raise ConfigError(
            f"S shape {np.shape(S)} does not match M shape {np.shape(M)}"
        )
    n = len(m_diag)
    a = 0.5 * dt
    diag, off = m_diag + a * a * s_diag, m_off + a * a * s_off
    B = _spd_inverse(diag, off)
    # ||M + a^2 S||_inf, the largest absolute row sum of three diagonals
    row_sums = np.abs(diag)
    row_sums[1:] += np.abs(off)
    row_sums[:-1] += np.abs(off)
    _check_condition(row_sums.max(initial=0.0), B)
    # C = B S, column j of which is B[:, j - 1 : j + 2] @ S[j - 1 : j + 2, j]
    C = B * s_diag
    C[:, 1:] += B[:, :-1] * s_off
    C[:, :-1] += B[:, 1:] * s_off
    # the blocks of T_hat, each set in place: the diagonals of E = I -
    # 2a^2 C and of I - a^2 C take their 1 last
    T_hat = np.empty((2 * n, 2 * n))
    E, F = T_hat[:n, :n], T_hat[:n, n:]
    np.multiply(C, -2 * a * a, out=E)
    np.multiply(C, -a * a, out=F)
    i = np.arange(n)
    E[i, i] += 1.0
    F[i, i] += 1.0
    F *= 2 * a
    np.multiply(C, -2 * a, out=T_hat[n:, :n])
    T_hat[n:, n:] = E
    M_inv = _spd_inverse(m_diag, m_off)
    if G_h is not None:
        T_hat[:, :n] += T_hat[:, n:] @ (dt * (M_inv @ G_h))
    Q = np.zeros((2 * n, 2 * n))
    Q[n:, n:] = dt * symmetrize(M_inv @ Q_h @ M_inv)
    load = np.empty((2 * n, n))
    np.multiply(B, a, out=load[:n])
    load[n:] = B
    return SchemeOperators(M, Q_h, load, AffineStep(T_hat, Q), 1.0, 1.0)


def wave_run(config):
    """Iterate the block covariance recursion to t = T.

    The recursion is evaluated by binary doubling (linalg.propagate),
    which needs O(log n_steps) products instead of n_steps steps.

    Parameters
    ----------
    config : WaveConfig

    Returns
    -------
    (2n, 2n) ndarray
        Block covariance coefficient matrix at the final time; feed it
        to extract_position_cov for the measurable part.
    """
    return propagate(config.operators().step, config.n_steps, config.K0)
