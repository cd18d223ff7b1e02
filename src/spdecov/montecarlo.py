"""Path sampling and statistical validation of the covariance recursions.

Paths are simulated with the same space-time discretizations as the
deterministic recursions. For advection-diffusion the backward Euler
path step is

    (M + dt A) x_j = (1 + c0 dt) M x_{j-1} + b_j,
    b_j = sqrt(dt) chol(Q_h) xi_j,

whose exact one-step covariance carries (1 + c0 dt)^2 where the
deterministic recursion has (1 + 2 c0 dt): a c0^2 dt^2 per-step gap that
mc_validate reports as a consistency margin instead of hiding. The wave
path is the CN block step with the noise load [0; b_j] on the velocity
row; its increment covariance L^{-1} blockdiag(0, dt Q_h) L^{-T} matches
the deterministic un-propagated increment to the same O(dt^2) order.

Per-path random streams come from numpy's SeedSequence spawning over a
counter-based Philox generator, so path i is reproducible regardless of
scheduling, and the empirical covariance is accumulated in path order.
"""

from dataclasses import dataclass
from typing import Union

import numpy as np
import scipy.linalg

from .advdiff import AdvDiffConfig, advdiff_operators
from .errnorms import err_hs_norm, err_trace_norm
from .exceptions import CholeskyError, TooFewSamplesError
from .linalg import propagate, psd_sqrt, sym_eig, symmetrize
from .wave import WaveConfig, extract_position_cov, wave_operators

# mc_validate builds each scheme's operators once and propagates them
# itself; these stay importable here because perfbench/spans.py traces
# them by this path
from .advdiff import advdiff_run  # noqa: F401
from .fem import assemble_form  # noqa: F401
from .kernels import assemble_Q  # noqa: F401
from .wave import wave_run  # noqa: F401

__all__ = [
    "McConfig",
    "McReport",
    "sample_path_advdiff",
    "sample_path_wave",
    "empirical_cov",
    "mc_validate",
]

#: jitter ladder for Cholesky of Q_h, relative to trace(Q)/N
CHOLESKY_JITTERS = (0.0, 1e-14, 1e-12, 1e-10)

#: frozen coefficient of the scheme-consistency margin, calibrated on
#: the one-DoF model (see tests): margin = coeff * gap_rate * dt^2 *
#: n_steps * trace(M K_det)
MC_CONSISTENCY_COEFF = 1.0


@dataclass(frozen=True)
class McConfig:
    """A Monte Carlo validation run over a deterministic scheme config."""

    scheme: Union[AdvDiffConfig, WaveConfig]
    n_samples: int
    seed: int

    def __post_init__(self):
        if self.n_samples < 2:
            raise TooFewSamplesError("n_samples must be at least 2")


@dataclass(frozen=True)
class McReport:
    """Outcome of mc_validate.

    sampling_error_hs / sampling_error_trace are jackknife standard
    errors of the corresponding distances; consistency_margin bounds the
    deterministic scheme-vs-path covariance gap (the c0^2 dt^2 effect),
    which is a property of the schemes, not of sampling.
    """

    hs_distance: float
    trace_distance: float
    sampling_error_hs: float
    sampling_error_trace: float
    consistency_margin: float
    n_samples: int
    seed: int

    @property
    def sampling_error_estimate(self):
        return self.sampling_error_hs


def _chol_with_jitter(Q):
    """Lower Cholesky factor of Q, climbing the jitter ladder."""
    n = Q.shape[0]
    scale = max(np.trace(Q) / n, 0.0)
    for jit in CHOLESKY_JITTERS:
        try:
            return np.linalg.cholesky(Q + (jit * scale) * np.eye(n))
        except np.linalg.LinAlgError:
            continue
    raise CholeskyError(
        f"Cholesky failed for all jitters up to {CHOLESKY_JITTERS[-1]:.0e} * trace/N"
    )


def _rng_for(seed):
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.Philox(seed))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _initial_draw(config, rng, n_state):
    if config.K0 is None:
        return np.zeros(n_state)
    return psd_sqrt(np.asarray(config.K0, dtype=float)) @ rng.standard_normal(
        n_state
    )


def sample_path_advdiff(config, seed):
    """Simulate one backward Euler path; returns coefficients at t = T.

    seed may be an integer or a numpy SeedSequence. A fixed seed gives a
    bit-identical path on every call.
    """
    M, Q_h, lu_piv, _ = advdiff_operators(config)
    chol = _chol_with_jitter(Q_h)
    rng = _rng_for(seed)
    dt = config.dt
    x = _initial_draw(config, rng, M.shape[0])
    drift = 1.0 + config.c0 * dt
    noise = np.sqrt(dt) * (chol @ rng.standard_normal((config.n_steps, M.shape[0])).T)
    for j in range(config.n_steps):
        x = scipy.linalg.lu_solve(lu_piv, drift * (M @ x) + noise[:, j])
    return x


def sample_path_wave(config, seed):
    """Simulate one CN wave path; returns the stacked (u, v) coefficients.

    The noise load lands on the velocity row of the linear system:
    L x_j = R P x_{j-1} + [0; b_j].
    """
    M, Q_h, lu_piv, RP, _ = wave_operators(config)
    chol = _chol_with_jitter(Q_h)
    rng = _rng_for(seed)
    n = M.shape[0]
    dt = config.dt
    x = _initial_draw(config, rng, 2 * n)
    noise = np.sqrt(dt) * (chol @ rng.standard_normal((config.n_steps, n)).T)
    rhs = np.zeros(2 * n)
    for j in range(config.n_steps):
        rhs[:n] = 0.0
        rhs[n:] = noise[:, j]
        x = scipy.linalg.lu_solve(lu_piv, RP @ x + rhs)
    return x


def empirical_cov(samples):
    """Unbiased empirical covariance, divisor n - 1.

    samples is an (n, d) array or a sequence of length-d vectors, kept
    in path order; the reduction is a deterministic ordered matrix
    product, so results do not depend on scheduling.
    """
    X = np.asarray(samples, dtype=float)
    if X.ndim != 2:
        X = np.atleast_2d(X)
    n = X.shape[0]
    if n < 2:
        raise TooFewSamplesError("need at least 2 samples")
    Xc = X - X.mean(axis=0)
    return symmetrize(Xc.T @ Xc / (n - 1))


def _batch_paths(config, ops, n_samples, seed):
    """All paths at once, one spawned stream per path.

    ops are the config's BackwardEuler or CrankNicolson operators.
    Returns an (n_samples, d) array whose row i equals the single-path
    sampler run with the i-th spawned SeedSequence.
    """
    children = np.random.SeedSequence(seed).spawn(n_samples)
    M, lu_piv = ops.M, ops.lu_piv
    n = M.shape[0]
    n_state = n if isinstance(config, AdvDiffConfig) else 2 * n
    chol = _chol_with_jitter(ops.Q_h)
    xi = np.empty((n_samples, config.n_steps, n))
    X = np.zeros((n_state, n_samples))
    for i, child in enumerate(children):
        rng = _rng_for(child)
        X[:, i] = _initial_draw(config, rng, n_state)
        xi[i] = rng.standard_normal((config.n_steps, n))
    root_dt = np.sqrt(config.dt)
    if isinstance(config, AdvDiffConfig):
        drift = 1.0 + config.c0 * config.dt
        for j in range(config.n_steps):
            B = root_dt * (chol @ xi[:, j, :].T)
            X = scipy.linalg.lu_solve(lu_piv, drift * (M @ X) + B)
        return X.T

    rhs = np.zeros((n_state, n_samples))
    for j in range(config.n_steps):
        rhs[n:, :] = root_dt * (chol @ xi[:, j, :].T)
        X = scipy.linalg.lu_solve(lu_piv, ops.RP @ X + rhs)
    return X.T


def _same_mesh_distances(dK, M, root_M):
    """(trace, HS) distance of a coefficient difference on one mesh."""
    W = symmetrize(root_M @ dK @ root_M)
    tr = float(np.abs(sym_eig(W).eigenvalues).sum())
    KM = dK @ M
    hs = float(np.sqrt(max(np.sum(KM * KM.T), 0.0)))
    return tr, hs


def mc_validate(mc):
    """Compare the empirical path covariance to the deterministic one.

    Runs mc.n_samples paths, forms the empirical covariance (position
    block only, for wave configs), and measures both norms against the
    deterministic recursion on the same mesh. Jackknife standard errors
    quantify sampling noise; consistency_margin bounds the known
    O(dt^2) scheme gap so callers can assert

        distance <= 3 * sampling error + consistency_margin.

    Returns
    -------
    McReport
    """
    config = mc.scheme
    mesh = config.mesh
    wave = isinstance(config, WaveConfig)
    ops = wave_operators(config) if wave else advdiff_operators(config)
    M = ops.M
    n = M.shape[0]
    K_full = propagate(ops.step, config.n_steps, config.K0)
    if wave:
        K_det = extract_position_cov(K_full)
        # the O(dt^2) load-vs-increment gap scales with the velocity block
        gap_rate = 1.0
        margin_scale = float(np.sum(M * K_full[n:, n:]))
    else:
        K_det = K_full
        gap_rate = config.c0**2
        margin_scale = float(np.sum(M * K_det))

    samples = _batch_paths(config, ops, mc.n_samples, mc.seed)
    if wave:
        samples = samples[:, :n]
    K_emp = empirical_cov(samples)

    trace_d = err_trace_norm(K_emp, mesh, K_det, mesh)
    hs_d = err_hs_norm(K_emp, mesh, K_det, mesh)

    # jackknife over paths with O(d^2) leave-one-out covariance updates
    root_M = psd_sqrt(M)
    n_s = mc.n_samples
    A = samples.T @ samples
    s = samples.sum(axis=0)
    tr_vals = np.empty(n_s)
    hs_vals = np.empty(n_s)
    for i in range(n_s):
        x = samples[i]
        s_i = s - x
        A_i = A - np.outer(x, x)
        C_i = (A_i - np.outer(s_i, s_i) / (n_s - 1)) / (n_s - 2)
        tr_vals[i], hs_vals[i] = _same_mesh_distances(
            symmetrize(C_i) - K_det, M, root_M
        )
    fac = (n_s - 1.0) / n_s
    se_tr = float(np.sqrt(fac * np.sum((tr_vals - tr_vals.mean()) ** 2)))
    se_hs = float(np.sqrt(fac * np.sum((hs_vals - hs_vals.mean()) ** 2)))

    margin = (
        MC_CONSISTENCY_COEFF
        * gap_rate
        * config.dt**2
        * config.n_steps
        * margin_scale
    )
    return McReport(
        hs_distance=hs_d,
        trace_distance=trace_d,
        sampling_error_hs=se_hs,
        sampling_error_trace=se_tr,
        consistency_margin=margin,
        n_samples=mc.n_samples,
        seed=mc.seed,
    )
