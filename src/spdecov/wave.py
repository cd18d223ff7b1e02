"""Fully discrete covariance recursion for the stochastic wave equation.

Crank-Nicolson in time on the first-order block system

    d[u; v] = [[0, I], [-Lambda, 0]] [u; v] dt + [0; G u] dt + [0; dW],

P1 elements in space, Dirichlet boundary. States are coefficient pairs
(u, v) stacked into length-2N vectors, covariances are 2N x 2N block
coefficient matrices. The one-step propagator is

    T_hat = L^{-1} R P,   L = [[M, -(dt/2) M], [(dt/2) S, M]],
                          R = [[M,  (dt/2) M], [-(dt/2) S, M]],

with the inhomogeneity applied first through the perturbation factor
P = [[I, 0], [dt M^{-1} G_h, I]]. The noise increment enters
un-propagated, matching the recursion K_j = S_hat K_{j-1} S_hat^* +
dt P_h B (P_h B)^*:

    K_j = T_hat K_{j-1} T_hat^T + dt blockdiag(0, M^{-1} Q_h M^{-T}).
"""

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

import numpy as np
import scipy.linalg

from .exceptions import ShapeMismatchError
from .fem import Mesh1D, assemble_mass, assemble_stiffness
from .kernels import Kernel, assemble_Q
from .linalg import (
    AffineStep,
    congruence_solve,
    lu_factor_checked,
    propagate,
    symmetrize,
)

__all__ = [
    "WaveConfig",
    "BlockStep",
    "CrankNicolson",
    "build_cn_blocks",
    "build_perturbation",
    "crank_nicolson_step",
    "wave_operators",
    "wave_cov_step",
    "wave_run",
    "extract_position_cov",
    "wave_energy",
]


class BlockStep(NamedTuple):
    """CN step factors: solve L x_next = R P x."""

    L: np.ndarray
    R: np.ndarray
    P: np.ndarray


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
            raise ValueError("wave runs require a dirichlet mesh")
        if self.T <= 0 or self.n_steps < 1:
            raise ValueError("need T > 0 and n_steps >= 1")
        if self.dt > 1.0:
            raise ValueError("dt must not exceed 1")
        if isinstance(self.g_spec, str):
            if self.g_spec not in ("minus_q", "zero"):
                raise ValueError(f"unknown g_spec {self.g_spec!r}")
        n2 = 2 * self.mesh.n_dof
        if self.K0 is not None and np.shape(self.K0) != (n2, n2):
            raise ValueError(
                f"K0 shape {np.shape(self.K0)} does not fit block size {n2}"
            )

    @property
    def dt(self):
        return self.T / self.n_steps


def _check_square_pair(X, Y):
    if X.shape != Y.shape or X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ShapeMismatchError(f"incompatible shapes {X.shape} and {Y.shape}")


def build_cn_blocks(M, S, dt):
    """Assemble the weak-form Crank-Nicolson block factors L and R.

    The perturbation slot of the returned BlockStep is the identity;
    install one from build_perturbation as needed.
    """
    M = np.asarray(M, dtype=float)
    S = np.asarray(S, dtype=float)
    _check_square_pair(M, S)
    n = M.shape[0]
    half = 0.5 * dt
    L = np.block([[M, -half * M], [half * S, M]])
    R = np.block([[M, half * M], [-half * S, M]])
    return BlockStep(L, R, np.eye(2 * n))


def build_perturbation(G_h, M, dt):
    """Coefficient factor of I + dt F, F feeding G u into the velocity.

    Returns the 2N x 2N matrix [[I, 0], [dt M^{-1} G_h, I]]. G_h is the
    Gram matrix <G phi_j, phi_i>; for g_spec 'minus_q' pass -Q_h.
    """
    G_h = np.asarray(G_h, dtype=float)
    M = np.asarray(M, dtype=float)
    _check_square_pair(G_h, M)
    n = M.shape[0]
    P = np.eye(2 * n)
    if dt != 0.0:
        P[n:, :n] = dt * np.linalg.solve(M, G_h)
    return P


def _noise_increment(Q_h, M, dt):
    """dt * blockdiag(0, M^{-1} Q_h M^{-T})."""
    n = M.shape[0]
    V = np.linalg.solve(M, Q_h)
    V = np.linalg.solve(M, V.T)
    out = np.zeros((2 * n, 2 * n))
    out[n:, n:] = dt * symmetrize(V)
    return out


def wave_cov_step(K_prev, step, Q_h, M, dt):
    """One CN covariance step.

    K_j = T_hat K_prev T_hat^T + dt blockdiag(0, M^{-1} Q_h M^{-T})
    with T_hat = L^{-1} R P; the result is symmetrized.
    """
    K_prev = np.asarray(K_prev, dtype=float)
    RP = step.R @ step.P
    K = congruence_solve(step.L, symmetrize(RP @ K_prev @ RP.T))
    return K + _noise_increment(Q_h, M, dt)


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


def resolve_g_gram(g_spec, Q_h):
    """Gram matrix G_h for a config's g_spec, or None when G = 0."""
    if isinstance(g_spec, str):
        if g_spec == "minus_q":
            return -Q_h
        return None
    return np.asarray(g_spec, dtype=float)


class CrankNicolson(NamedTuple):
    """Operators of one CN step.

    step is the covariance update; M, Q_h, the LU factors lu_piv of L
    and RP = R P also drive the path sampler in montecarlo.
    """

    M: np.ndarray
    Q_h: np.ndarray
    lu_piv: tuple
    RP: np.ndarray
    step: AffineStep


def crank_nicolson_step(M, S, Q_h, G_h, dt):
    """The covariance step K <- T_hat K T_hat^T + Q of Crank-Nicolson.

    T_hat = L^{-1} R P and Q = dt blockdiag(0, M^{-1} Q_h M^{-T}); the
    growth factor is 1. G_h is the Gram matrix of the inhomogeneity, or
    None for G = 0.
    """
    blocks = build_cn_blocks(M, S, dt)
    if G_h is not None:
        blocks = blocks._replace(P=build_perturbation(G_h, M, dt))
    lu_piv = lu_factor_checked(blocks.L)
    RP = blocks.R @ blocks.P
    T_hat = scipy.linalg.lu_solve(lu_piv, RP, check_finite=False)
    step = AffineStep(T_hat, _noise_increment(Q_h, M, dt))
    return CrankNicolson(M, Q_h, lu_piv, RP, step)


def wave_operators(config):
    """Assemble a config's matrices into its CrankNicolson operators."""
    mesh = config.mesh
    M = assemble_mass(mesh)
    S = assemble_stiffness(mesh)
    Q_h = assemble_Q(mesh, config.kernel)
    G_h = resolve_g_gram(config.g_spec, Q_h)
    return crank_nicolson_step(M, S, Q_h, G_h, config.dt)


def wave_run(config, callback=None):
    """Iterate the block covariance recursion to t = T.

    Parameters
    ----------
    config : WaveConfig
    callback : callable, optional
        Called as callback(j, K_j) after every step. Without one the
        recursion is evaluated by binary doubling (linalg.propagate),
        which needs O(log n_steps) products instead of n_steps steps.

    Returns
    -------
    (2n, 2n) ndarray
        Block covariance coefficient matrix at the final time; feed it
        to extract_position_cov for the measurable part.
    """
    step = wave_operators(config).step
    return propagate(step, config.n_steps, config.K0, callback)
