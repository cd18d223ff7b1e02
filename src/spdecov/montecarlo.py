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

from .advdiff import AdvDiffConfig, advdiff_operators
from .errnorms import err_hs_norm, err_trace_norm
from .exceptions import (
    CholeskyError,
    NoConvergenceError,
    NumericalError,
    TooFewSamplesError,
)
from .linalg import propagate, psd_sqrt, symmetrize
from .wave import WaveConfig, extract_position_cov, wave_operators

# mc_validate builds each scheme's operators once, propagates them itself
# and takes its jackknife eigenvalues in stacked calls; these stay
# importable here because perfbench/spans.py traces them by this path
from .advdiff import advdiff_run  # noqa: F401
from .fem import assemble_form  # noqa: F401
from .kernels import assemble_Q  # noqa: F401
from .linalg import sym_eig  # noqa: F401
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

#: bytes of one stack of d x d leave-one-out matrices in the jackknife;
#: a chunk holds up to three such stacks, so it takes max(1, this //
#: (8 d^2)) paths and its transient memory stays a few MB whatever d is
JACKKNIFE_CHUNK_BYTES = 2**20


@dataclass(frozen=True)
class McConfig:
    """A Monte Carlo validation run over a deterministic scheme config."""

    scheme: Union[AdvDiffConfig, WaveConfig]
    n_samples: int
    seed: int

    def __post_init__(self):
        if self.n_samples < 3:
            raise TooFewSamplesError(
                f"n_samples must be at least 3, got {self.n_samples}: the "
                "jackknife needs two paths left after dropping one"
            )


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


def sample_path_advdiff(config, seed):
    """Simulate one backward Euler path; returns coefficients at t = T.

    seed may be an integer or a numpy SeedSequence. A fixed seed gives a
    bit-identical path on every call.
    """
    return _batch_paths(config, advdiff_operators(config), [seed])[0]


def sample_path_wave(config, seed):
    """Simulate one CN wave path; returns the stacked (u, v) coefficients."""
    return _batch_paths(config, wave_operators(config), [seed])[0]


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


def _batch_paths(config, ops, seeds):
    """One path per seed, all advanced together.

    ops are the config's SchemeOperators, from advdiff_operators or
    wave_operators; each seed is an integer or a SeedSequence whose
    stream drives its path alone. Returns a (len(seeds), d) array whose
    row i does not depend on the other seeds. A step solves
    L x_j = g M x_{j-1} + b_j (advdiff, g = 1 + c0 dt) or
    L x_j = R P x_{j-1} + [0; b_j] (wave, the load on the velocity
    row), so x_j = g T x_{j-1} + L^{-1} b_j with the T of the
    covariance step.
    """
    n = ops.M.shape[0]
    n_state = ops.L_inv.shape[0]
    chol = _chol_with_jitter(ops.Q_h)
    K0 = config.K0
    root_K0 = None if K0 is None else psd_sqrt(np.asarray(K0, dtype=float))
    # indexed (step, path, dof), so each step's noise block is contiguous
    xi = np.empty((config.n_steps, len(seeds), n))
    X = np.zeros((n_state, len(seeds)))
    for i, seed in enumerate(seeds):
        rng = np.random.Generator(np.random.Philox(seed))
        if root_K0 is not None:
            X[:, i] = root_K0 @ rng.standard_normal(n_state)
        xi[:, i, :] = rng.standard_normal((config.n_steps, n))
    T = ops.step.T
    if isinstance(config, AdvDiffConfig):
        T = (1.0 + config.c0 * config.dt) * T
    # b_j fills the last n rows: all of them for advdiff, the velocity
    # block for wave
    load = np.sqrt(config.dt) * (ops.L_inv[:, -n:] @ chol)
    for j in range(config.n_steps):
        X = T @ X + load @ xi[j].T
    return X.T


# an overflow surfaces as the NumericalError of the finite check instead
@np.errstate(over="ignore", invalid="ignore")
def _jackknife_distances(samples, root_M, K_det):
    """Leave-one-out (trace, HS) distances of the empirical covariance.

    Entry i measures the covariance of all paths but path i against
    K_det. With Y = samples M^{1/2}, the leave-one-out covariance in the
    M^{1/2} frame is a rank-two update of Y^T Y, so a chunk of paths is
    one stack of d x d matrices W_i and one stacked eigvalsh. The HS
    distance is sqrt(sum w^2) because ||M^{1/2} D M^{1/2}||_F^2 =
    trace((D M)^2).
    """
    n_s, d = samples.shape
    Y = samples @ root_M
    r = Y.sum(axis=0)
    # W_i is exactly symmetric: B, R and both outer products are
    B = symmetrize(root_M @ (samples.T @ samples) @ root_M)
    R = symmetrize(root_M @ K_det @ root_M)
    chunk = max(1, JACKKNIFE_CHUNK_BYTES // (8 * d * d))
    tr = np.empty(n_s)
    hs = np.empty(n_s)
    for lo in range(0, n_s, chunk):
        y = Y[lo : lo + chunk]
        t = r - y
        W = B - y[:, :, None] * y[:, None, :]
        W -= t[:, :, None] * t[:, None, :] / (n_s - 1)
        W = W / (n_s - 2) - R
        if not np.isfinite(W).all():
            raise NumericalError(
                "leave-one-out covariance has non-finite entries"
            )
        try:
            w = np.linalg.eigvalsh(W)
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError(str(exc)) from exc
        tr[lo : lo + chunk] = np.abs(w).sum(axis=1)
        hs[lo : lo + chunk] = np.sqrt((w * w).sum(axis=1))
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

    seeds = np.random.SeedSequence(mc.seed).spawn(mc.n_samples)
    samples = _batch_paths(config, ops, seeds)
    if wave:
        samples = samples[:, :n]
    K_emp = empirical_cov(samples)

    trace_d = err_trace_norm(K_emp, mesh, K_det, mesh)
    hs_d = err_hs_norm(K_emp, mesh, K_det, mesh)

    tr_vals, hs_vals = _jackknife_distances(samples, psd_sqrt(M), K_det)
    n_s = mc.n_samples
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
