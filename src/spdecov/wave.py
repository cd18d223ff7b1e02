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

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .fem import Mesh1D, assemble_mass, assemble_stiffness
from .kernels import Kernel, assemble_Q
from .linalg import (
    AffineStep,
    SchemeOperators,
    checked_inverse,
    propagate,
    symmetrize,
)

__all__ = [
    "WaveConfig",
    "crank_nicolson_step",
    "wave_operators",
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
            raise ValueError("wave runs require a dirichlet mesh")
        if not (math.isfinite(self.T) and self.T > 0) or self.n_steps < 1:
            raise ValueError("need a finite T > 0 and n_steps >= 1")
        if self.dt > 1.0:
            raise ValueError("dt must not exceed 1")
        n = self.mesh.n_dof
        if isinstance(self.g_spec, str):
            if self.g_spec not in ("minus_q", "zero"):
                raise ValueError(f"unknown g_spec {self.g_spec!r}")
        elif np.shape(self.g_spec) != (n, n):
            raise ValueError(
                f"g_spec shape {np.shape(self.g_spec)} does not fit {n} DoF"
            )
        elif not np.isfinite(np.asarray(self.g_spec, dtype=float)).all():
            raise ValueError("g_spec has non-finite entries")
        n2 = 2 * n
        if self.K0 is not None and np.shape(self.K0) != (n2, n2):
            raise ValueError(
                f"K0 shape {np.shape(self.K0)} does not fit block size {n2}"
            )

    @property
    def dt(self):
        return self.T / self.n_steps


def _noise_increment(Q_h, M, dt):
    """dt * blockdiag(0, M^{-1} Q_h M^{-T})."""
    n = M.shape[0]
    V = np.linalg.solve(M, Q_h)
    V = np.linalg.solve(M, V.T)
    out = np.zeros((2 * n, 2 * n))
    out[n:, n:] = dt * symmetrize(V)
    return out


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


def crank_nicolson_step(M, S, Q_h, G_h, dt):
    """The covariance step K <- T_hat K T_hat^T + Q of Crank-Nicolson.

    T_hat = L^{-1} R P and Q = dt blockdiag(0, M^{-1} Q_h M^{-T}); the
    growth factor is 1. G_h is the Gram matrix of the inhomogeneity, or
    None for G = 0 (then P = I).
    """
    n = M.shape[0]
    half = 0.5 * dt
    L = np.block([[M, -half * M], [half * S, M]])
    R = np.block([[M, half * M], [-half * S, M]])
    P = np.eye(2 * n)
    if G_h is not None:
        P[n:, :n] = dt * np.linalg.solve(M, G_h)
    L_inv = checked_inverse(L)
    # a solve, not L_inv @ R P: the product's larger residual doubles
    # how far the finest Matern sweep errors move with the thread count
    T_hat = np.linalg.solve(L, R @ P)
    step = AffineStep(T_hat, _noise_increment(Q_h, M, dt))
    return SchemeOperators(M, Q_h, L_inv, step)


def wave_operators(config):
    """Assemble a config's matrices into its Crank-Nicolson operators."""
    mesh = config.mesh
    M = assemble_mass(mesh)
    S = assemble_stiffness(mesh)
    Q_h = assemble_Q(mesh, config.kernel)
    g_spec = config.g_spec
    if isinstance(g_spec, str):
        G_h = -Q_h if g_spec == "minus_q" else None
    else:
        G_h = np.asarray(g_spec, dtype=float)
    return crank_nicolson_step(M, S, Q_h, G_h, config.dt)


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
    step = wave_operators(config).step
    return propagate(step, config.n_steps, config.K0)
