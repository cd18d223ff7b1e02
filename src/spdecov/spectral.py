"""Independent references in the exact Dirichlet eigenbasis.

The negative Laplacian on (0, 1) with Dirichlet conditions has
eigenpairs e_k = sqrt(2) sin(k pi x), lambda_k = (k pi)^2. This module
offers closed-form covariances of the unperturbed heat and wave
problems, a brute-force spectral-Galerkin integrator that runs the very
same covariance recursions in the eigenbasis at a fine step, and the
exact Hilbert-Schmidt distance between a FEM covariance and a modal one.
"""

import math

import numpy as np

from .advdiff import AdvDiffConfig, backward_euler_step
from .exceptions import ConfigError
from .fem import _is_finite, _is_int, assemble_mass
from .kernels import BrownianBridge, WhiteNoise
from .linalg import _serial_blas, propagate, symmetrize
from .wave import WaveConfig, crank_nicolson_step

__all__ = [
    "eigenvalues",
    "eigenfunction_values",
    "heat_cov_closed_form",
    "wave_cov_closed_form",
    "spectral_galerkin_cov",
    "modal_hs_distance",
]

MAX_MODES = 256

#: composite Gauss-Legendre points per quadrature cell for projections
ORACLE_QUAD_ORDER = 8


def eigenvalues(n_modes):
    """lambda_k = (k pi)^2, k = 1..n_modes, for an integer n_modes >= 1."""
    if not _is_int(n_modes) or n_modes < 1:
        raise ConfigError(f"n_modes must be an integer >= 1, got {n_modes!r}")
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


def _sine_diagonal(n_modes, kernel):
    """Diagonal of the noise Gram in the eigenbasis, None where it is not diagonal.

    The Gram is exactly I for white noise, Lambda^{-1} for the bridge.
    """
    if isinstance(kernel, WhiteNoise):
        return np.ones(n_modes)
    if isinstance(kernel, BrownianBridge):
        return 1.0 / eigenvalues(n_modes)
    return None


def _project_noise(n_modes, kernel):
    """Gram of the noise covariance in the eigenbasis."""
    q = _sine_diagonal(n_modes, kernel)
    if q is not None:
        return np.diag(q)
    pts, wts = _oracle_quadrature(n_modes)
    E = eigenfunction_values(n_modes, pts) * wts[:, None]
    qv = kernel.pointwise(pts[:, None], pts[None, :])
    return symmetrize(E.T @ qv @ E)


def spectral_galerkin_cov(n_modes, config, fine_dt):
    """Brute-force oracle: the same recursions in the eigenbasis.

    Projects the configured operator onto the first n_modes Dirichlet
    eigenfunctions (mass matrix = I there) and evaluates the matching
    covariance recursion with step T / max(1, round(T / fine_dt)), for a
    finite fine_dt > 0, by linalg.propagate. Advdiff configs yield an
    (n, n) matrix, wave configs the full (2n, 2n) block; both are
    coefficient matrices w.r.t. the eigenbasis.

    Only Dirichlet configs with K0 = None are accepted: the oracle
    implements the Dirichlet sine basis only. The Neumann problems have
    a closed eigenbasis too, the cosines, which it does not implement;
    they are validated by self-convergence and Monte Carlo instead.
    """
    if not _is_int(n_modes) or not 1 <= n_modes <= MAX_MODES:
        raise ConfigError(
            f"n_modes must be an integer in 1..{MAX_MODES}, got {n_modes!r}"
        )
    if config.mesh.bc != "dirichlet":
        raise ConfigError("spectral oracle needs a dirichlet configuration")
    if config.K0 is not None:
        raise ConfigError("spectral oracle supports K0 = None only")
    if not (_is_finite(fine_dt) and fine_dt > 0):
        raise ConfigError(f"fine_dt must be finite and positive, got {fine_dt!r}")
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
        if not isinstance(config.g_spec, str):
            raise ConfigError(
                "explicit Gram g_spec has no eigenbasis translation"
            )
        Q = _project_noise(n_modes, config.kernel)
        G = -Q if config.g_spec == "minus_q" else None
        S = np.diag(eigenvalues(n_modes))
        ops = crank_nicolson_step(eye, S, Q, G, dt)
        return propagate(ops.step, n_steps)

    raise ConfigError(f"unsupported config type {type(config).__name__}")


def modal_hs_distance(K, mesh, V):
    """Exact Hilbert-Schmidt distance between a FEM and a modal covariance.

    The operators are sum K[i, j] phi_i x phi_j on the Dirichlet `mesh`
    and sum V[k, l] e_k x e_l over the first m eigenfunctions; V may be
    (m, m) or a 1-D array of m per-mode variances (a diagonal V). An
    interior hat meets e_k in closed form,

        <e_k, phi_i> = sqrt(2) sin(k pi x_i) 2 (1 - cos(k pi h)) / (h (k pi)^2),

    so with C that (m, n_dof) matrix and M the mass matrix the squared
    distance is tr((K M)^2) - 2 tr(K C^T V C) + ||V||_F^2. The three
    terms cancel: their rounding is about eps * ||V||_F^2, so the
    relative rounding floor of the distance d is about
    eps ||V||_F^2 / (2 d^2), near 3e-11 at d = 1.9e-3 ||V||_F. A square
    that rounds below zero reads 0.

    Raises
    ------
    ConfigError
        If the mesh is not Dirichlet, K does not fit the mesh, or V is
        neither 1-D nor square.
    """
    if mesh.bc != "dirichlet":
        raise ConfigError("the sine basis needs a dirichlet mesh")
    K = np.asarray(K, dtype=float)
    V = np.asarray(V, dtype=float)
    n = mesh.n_dof
    if K.shape != (n, n):
        raise ConfigError(f"K shape {K.shape} does not match mesh ({n} DoF)")
    if V.ndim not in (1, 2) or (V.ndim == 2 and V.shape[0] != V.shape[1]):
        raise ConfigError(f"V must be 1-D or square, got shape {V.shape}")
    m = V.shape[0]
    # the products are no larger than a small run's, whose policy they share
    with _serial_blas(max(n, m)):
        w = np.sqrt(eigenvalues(m))
        C = eigenfunction_values(m, mesh.dof_nodes).T
        C *= (2.0 * (1.0 - np.cos(w * mesh.h)) / (mesh.h * w**2))[:, None]
        KM = K @ assemble_mass(mesh)
        CVC = (C.T * V) @ C if V.ndim == 1 else C.T @ V @ C
        sq = np.sum(KM * KM.T) - 2.0 * np.sum(K * CVC.T) + np.sum(V * V)
    return math.sqrt(max(sq, 0.0))
