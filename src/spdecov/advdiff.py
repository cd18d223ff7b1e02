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

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .exceptions import ConfigError
from .fem import Coefficients, Mesh1D, _is_finite, assemble_form, assemble_mass
from .kernels import Kernel, assemble_Q
from .linalg import (
    AffineStep,
    SchemeOperators,
    _check_run,
    checked_inverse,
    propagate,
    symmetrize,
)

__all__ = [
    "AdvDiffConfig",
    "backward_euler_step",
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
        if not isinstance(self.coeffs, Coefficients):
            raise ConfigError(f"coeffs must be Coefficients, got {self.coeffs!r}")
        if not isinstance(self.kernel, Kernel):
            raise ConfigError(f"kernel must be a Kernel, got {self.kernel!r}")
        if not _is_finite(self.c0):
            raise ConfigError(f"c0 must be a finite number, got {self.c0!r}")
        _check_run(self)

    @property
    def dt(self):
        return self.T / self.n_steps

    @property
    def n_state(self):
        """Rows of the state covariance: one per degree of freedom."""
        return self.mesh.n_dof

    def operators(self):
        """Assemble the run's matrices into its backward Euler operators."""
        M = assemble_mass(self.mesh)
        A = assemble_form(self.mesh, self.coeffs, self.c0)
        Q_h = assemble_Q(self.mesh, self.kernel)
        return backward_euler_step(M, A, Q_h, self.dt, self.c0)


def backward_euler_step(M, A, Q_h, dt, c0):
    """The covariance step K <- g T K T^T + Q of backward Euler.

    T = (M + dt A)^{-1} M, Q = dt (M + dt A)^{-1} Q_h (M + dt A)^{-T}
    and g = 1 + 2 c0 dt, so that one update solves
    (M + dt A) K (M + dt A)^T = g M K_prev M + dt Q_h.

    The path step (M + dt A) x_j = (1 + c0 dt) M x_{j-1} + b_j has
    path_growth 1 + c0 dt and load (M + dt A)^{-1}. Its one-step
    covariance carries (1 + c0 dt)^2 where the recursion has g: a
    c0^2 dt^2 gap per step, whence gap_rate c0^2.
    """
    L_inv = checked_inverse(M + dt * A)
    noise = symmetrize(L_inv @ (dt * Q_h) @ L_inv.T)
    step = AffineStep(L_inv @ M, noise, 1.0 + 2.0 * c0 * dt)
    return SchemeOperators(M, Q_h, L_inv, step, 1.0 + c0 * dt, c0**2)


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
    return propagate(config.operators().step, config.n_steps, config.K0)
