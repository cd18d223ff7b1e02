"""Fully discrete covariance recursion for stochastic advection-diffusion.

Backward Euler in time, P1 elements in space. One step advances the
covariance coefficient matrix through

    (M + dt A) K_j (M + dt A)^T = (1 + 2 c0 dt) M K_{j-1} M + dt Q_h,

where A is the (generally nonsymmetric) form matrix of the shifted
bilinear form and Q_h the noise Gram matrix. With the assembly
convention of `fem.assemble_form` (rows test, columns trial) this is
exactly the covariance of the backward Euler path scheme for the
forward equation.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .fem import Coefficients, Mesh1D, assemble_form, assemble_mass
from .kernels import Kernel, assemble_Q
from .linalg import (
    AffineStep,
    SchemeOperators,
    checked_inverse,
    propagate,
    symmetrize,
)

__all__ = [
    "AdvDiffConfig",
    "backward_euler_step",
    "advdiff_operators",
    "advdiff_run",
]


@dataclass(frozen=True)
class AdvDiffConfig:
    """One advection-diffusion covariance run.

    dt is derived as T / n_steps, which keeps T an exact multiple of the
    step and avoids end-of-horizon rounding games. K0 is the initial
    covariance coefficient matrix (projection of the initial covariance
    onto the mesh is the caller's business); None means deterministic
    initial data.
    """

    mesh: Mesh1D
    coeffs: Coefficients
    c0: float
    kernel: Kernel
    T: float
    n_steps: int
    K0: Optional[np.ndarray] = field(default=None)

    def __post_init__(self):
        if not (math.isfinite(self.T) and self.T > 0):
            raise ValueError(f"T must be finite and positive, got {self.T!r}")
        if self.n_steps < 1:
            raise ValueError("need at least one step")
        if self.dt > 1.0:
            raise ValueError("dt must not exceed 1")
        if self.K0 is not None:
            n = self.mesh.n_dof
            if np.shape(self.K0) != (n, n):
                raise ValueError(
                    f"K0 shape {np.shape(self.K0)} does not fit {n} DoF"
                )

    @property
    def dt(self):
        return self.T / self.n_steps


def backward_euler_step(M, A, Q_h, dt, c0):
    """The covariance step K <- g T K T^T + Q of backward Euler.

    T = (M + dt A)^{-1} M, Q = dt (M + dt A)^{-1} Q_h (M + dt A)^{-T}
    and g = 1 + 2 c0 dt, so that one update solves
    (M + dt A) K (M + dt A)^T = g M K_prev M + dt Q_h.
    """
    L_inv = checked_inverse(M + dt * A)
    noise = symmetrize(L_inv @ (dt * Q_h) @ L_inv.T)
    step = AffineStep(L_inv @ M, noise, 1.0 + 2.0 * c0 * dt)
    return SchemeOperators(M, Q_h, L_inv, step)


def advdiff_operators(config):
    """Assemble a config's matrices into its backward Euler operators."""
    mesh = config.mesh
    M = assemble_mass(mesh)
    A = assemble_form(mesh, config.coeffs, config.c0)
    Q_h = assemble_Q(mesh, config.kernel)
    return backward_euler_step(M, A, Q_h, config.dt, config.c0)


def advdiff_run(config):
    """Iterate the covariance recursion to t = T.

    The recursion is evaluated by binary doubling (linalg.propagate),
    which needs O(log n_steps) products instead of n_steps steps.

    Parameters
    ----------
    config : AdvDiffConfig

    Returns
    -------
    (n, n) ndarray
        Covariance coefficient matrix at the final time.
    """
    step = advdiff_operators(config).step
    return propagate(step, config.n_steps, config.K0)
