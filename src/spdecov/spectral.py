"""Independent references in the exact Dirichlet eigenbasis.

The negative Laplacian on (0, 1) with Dirichlet conditions has
eigenpairs e_k = sqrt(2) sin(k pi x), lambda_k = (k pi)^2. This module
offers closed-form covariances of the unperturbed heat and wave
problems, a brute-force spectral-Galerkin integrator that runs the very
same covariance recursions in the eigenbasis at a fine step, and
helpers to compare covariance functions across bases on a fixed grid.
"""

import math

import numpy as np

from .advdiff import AdvDiffConfig, backward_euler_step
from .exceptions import ConfigError
from .fem import hat_values
from .kernels import BrownianBridge, WhiteNoise
from .linalg import propagate, symmetrize
from .wave import WaveConfig, crank_nicolson_step

__all__ = [
    "eigenvalues",
    "eigenfunction_values",
    "heat_cov_closed_form",
    "wave_cov_closed_form",
    "spectral_galerkin_cov",
    "midpoint_rule",
    "nodal_cov_function",
    "modal_cov_function",
    "cov_l2_distance",
]

MAX_MODES = 256

#: composite Gauss-Legendre points per quadrature cell for projections
ORACLE_QUAD_ORDER = 8


def eigenvalues(n_modes):
    """lambda_k = (k pi)^2, k = 1..n_modes."""
    k = np.arange(1, n_modes + 1)
    return (k * np.pi) ** 2


def eigenfunction_values(n_modes, x):
    """Matrix of e_k(x) = sqrt(2) sin(k pi x), shape (len(x), n_modes)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    k = np.arange(1, n_modes + 1)
    return math.sqrt(2.0) * np.sin(np.pi * np.outer(x, k))


def heat_cov_closed_form(n_modes, T, q_diag=None):
    """Per-mode variances of the pure heat covariance at time T.

    For diagonal noise q_k the k-th variance is
    q_k (1 - exp(-2 lambda_k T)) / (2 lambda_k).
    """
    lam = eigenvalues(n_modes)
    q = np.ones(n_modes) if q_diag is None else np.asarray(q_diag, dtype=float)
    return q * (1.0 - np.exp(-2.0 * lam * T)) / (2.0 * lam)


def wave_cov_closed_form(n_modes, T, q_diag=None):
    """Per-mode position variances of the unperturbed (G = 0) wave.

    Integrating the group sin^2(s sqrt(lambda_k)) / lambda_k gives
    q_k (T/2 - sin(2 sqrt(lambda_k) T) / (4 sqrt(lambda_k))) / lambda_k.
    """
    lam = eigenvalues(n_modes)
    w = np.sqrt(lam)
    q = np.ones(n_modes) if q_diag is None else np.asarray(q_diag, dtype=float)
    return q * (0.5 * T - np.sin(2.0 * w * T) / (4.0 * w)) / lam


def _oracle_quadrature(n_modes):
    """Composite rule fine enough for products of the first n_modes."""
    cells = max(n_modes, 32)
    xg, wg = np.polynomial.legendre.leggauss(ORACLE_QUAD_ORDER)
    left = np.arange(cells) / cells
    h = 1.0 / cells
    pts = (left[:, None] + 0.5 * h * (xg[None, :] + 1.0)).ravel()
    wts = np.tile(0.5 * h * wg, cells)
    return pts, wts


def _project_form(n_modes, coeffs, c0):
    """Galerkin matrix of the bilinear form in the eigenbasis.

    Entry (i, j) tests trial e_j against test e_i, the same convention
    as fem.assemble_form; the eigenbasis is orthonormal, so the c0 mass
    term is c0 * I.
    """
    pts, wts = _oracle_quadrature(n_modes)
    k = np.arange(1, n_modes + 1)
    E = eigenfunction_values(n_modes, pts)
    D = math.sqrt(2.0) * (k * np.pi)[None, :] * np.cos(np.pi * np.outer(pts, k))

    a11 = np.asarray(coeffs.a11(pts), dtype=float)
    a1 = np.asarray(coeffs.a1(pts), dtype=float)
    a0 = np.asarray(coeffs.a0(pts), dtype=float)
    A = D.T @ (D * (wts * a11)[:, None])
    A += E.T @ (D * (wts * a1)[:, None])
    A += E.T @ (E * (wts * a0)[:, None])
    return A + c0 * np.eye(n_modes)


def _project_noise(n_modes, kernel):
    """Gram of the noise covariance in the eigenbasis."""
    if isinstance(kernel, WhiteNoise):
        return np.eye(n_modes)
    if isinstance(kernel, BrownianBridge):
        # Q = Lambda^{-1} is diagonal here, exactly
        return np.diag(1.0 / eigenvalues(n_modes))
    pts, wts = _oracle_quadrature(n_modes)
    E = eigenfunction_values(n_modes, pts) * wts[:, None]
    qv = kernel.pointwise(pts[:, None], pts[None, :])
    return symmetrize(E.T @ qv @ E)


def spectral_galerkin_cov(n_modes, config, fine_dt):
    """Brute-force oracle: the same recursions in the eigenbasis.

    Projects the configured operator onto the first n_modes Dirichlet
    eigenfunctions (mass matrix = I there) and evaluates the matching
    covariance recursion with step T / round(T / fine_dt) by
    linalg.propagate. Advdiff configs yield an (n, n) matrix, wave
    configs the full (2n, 2n) block; both are coefficient matrices
    w.r.t. the eigenbasis.

    Only Dirichlet configs with K0 = None are meaningful here; the
    Neumann problems have no closed eigenbasis and are validated by
    self-convergence and Monte Carlo instead.
    """
    if n_modes < 1 or n_modes > MAX_MODES:
        raise ConfigError(f"n_modes must lie in 1..{MAX_MODES}")
    if config.mesh.bc != "dirichlet":
        raise ConfigError("spectral oracle needs a dirichlet configuration")
    if config.K0 is not None:
        raise ConfigError("spectral oracle supports K0 = None only")
    T = config.T
    n_steps = max(1, round(T / fine_dt))
    dt = T / n_steps

    eye = np.eye(n_modes)
    if isinstance(config, AdvDiffConfig):
        A = _project_form(n_modes, config.coeffs, config.c0)
        Q = _project_noise(n_modes, config.kernel)
        ops = backward_euler_step(eye, A, Q, dt, config.c0)
        return propagate(ops.step, n_steps)

    if isinstance(config, WaveConfig):
        if isinstance(config.g_spec, np.ndarray):
            raise ConfigError(
                "explicit Gram g_spec has no eigenbasis translation"
            )
        Q = _project_noise(n_modes, config.kernel)
        G = -Q if config.g_spec == "minus_q" else None
        S = np.diag(eigenvalues(n_modes))
        ops = crank_nicolson_step(eye, S, Q, G, dt)
        return propagate(ops.step, n_steps)

    raise ConfigError(f"unsupported config type {type(config).__name__}")


def midpoint_rule(n=512):
    """Fixed midpoint grid on (0, 1): points and equal weights 1/n."""
    x = (np.arange(n) + 0.5) / n
    w = np.full(n, 1.0 / n)
    return x, w


def nodal_cov_function(K, mesh, x):
    """Covariance function values Phi K Phi^T of a FEM coefficient matrix."""
    Phi = hat_values(mesh, x)
    return Phi @ K @ Phi.T


def modal_cov_function(K, x):
    """Covariance function of an eigenbasis coefficient matrix.

    K may be a full (n, n) matrix or a 1-D array of per-mode variances
    (a diagonal coefficient matrix).
    """
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    E = eigenfunction_values(n, x)
    if K.ndim == 1:
        return (E * K[None, :]) @ E.T
    return E @ K @ E.T


def cov_l2_distance(C1, C2, w):
    """Weighted l2 distance between covariance functions on a grid.

    With w the quadrature weights of the grid this approximates the
    L2((0,1)^2) distance of the underlying functions.
    """
    D = np.asarray(C1, dtype=float) - np.asarray(C2, dtype=float)
    return float(np.sqrt(np.einsum("p,q,pq->", w, w, D * D)))
