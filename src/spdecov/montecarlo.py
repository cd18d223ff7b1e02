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

Path i draws from the counter-based Philox stream of the i-th child of
SeedSequence(seed).spawn(n_samples), so it is reproducible regardless of
scheduling, and the empirical covariance is accumulated in path order.
A fresh Philox is fully described by its key and a zero counter, so the
children are never built: _philox_keys runs numpy's SeedSequence mixing
for all of them at once as uint32 column operations, and _batch_paths
re-keys one generator before each path.
"""

from dataclasses import dataclass
from typing import Union

import numpy as np

from .advdiff import AdvDiffConfig, advdiff_operators
from .errnorms import err_hs_norm, err_trace_norm
from .exceptions import (
    CholeskyError,
    ConfigError,
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

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


@dataclass(frozen=True)
class McConfig:
    """A Monte Carlo validation run over a deterministic scheme config."""

    scheme: Union[AdvDiffConfig, WaveConfig]
    n_samples: int
    seed: int

    def __post_init__(self):
        # a seed of None would draw OS entropy, and a negative one has no
        # finite word split; the spawn key of a path is one 32-bit word
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError(
                f"seed must be a non-negative integer, got {self.seed!r}"
            )
        if not _is_int(self.n_samples) or self.n_samples >= 2**32:
            raise ConfigError(
                f"n_samples must be an integer below 2**32, got {self.n_samples!r}"
            )
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


def _is_int(x):
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


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
    return _batch_paths(config, advdiff_operators(config), _seed_key(seed))[0]


def sample_path_wave(config, seed):
    """Simulate one CN wave path; returns the stacked (u, v) coefficients."""
    return _batch_paths(config, wave_operators(config), _seed_key(seed))[0]


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


def _seed_key(seed):
    """The Philox key of Philox(seed), as a (1, 2) uint64 array."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return seed.generate_state(2, np.uint64)[None]


def _hashmix(value, const):
    """SeedSequence's hashmix of uint32 words; returns the next constant too."""
    value = value ^ const
    const = const * _MULT_A & _MASK32
    value = value * const
    return value ^ (value >> _XSHIFT), const


def _mix(x, y):
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ (r >> _XSHIFT)


def _philox_keys(seed, n):
    """Philox keys of the n children of SeedSequence(seed), in one pass.

    Returns an (n, 2) uint64 array whose row i is
    SeedSequence(seed).spawn(n)[i].generate_state(2, np.uint64), the key
    of Philox(child). Each step of numpy's SeedSequence algorithm runs on
    a uint32 column: shape (1,) for the seed's words, which every child
    shares, and (n,) from the child's spawn key (i,) on. seed is a
    non-negative integer and n is below 2**32.
    """
    seed = int(seed)
    # little-endian 32-bit words, zero-padded to the pool because a
    # spawn key follows
    words = [
        (seed >> s) & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)
    ]
    words += [0] * (_POOL_SIZE - len(words))
    entropy = [np.array([w], dtype=np.uint32) for w in words]
    entropy.append(np.arange(n, dtype=np.uint32))

    const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)

    # generate_state(2, np.uint64): four uint32 words, low word first
    const = _INIT_B
    state = []
    for k in range(4):
        value = pool[k % _POOL_SIZE] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const
        state.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    shift = np.uint64(32)
    return np.stack(
        [state[0] | state[1] << shift, state[2] | state[3] << shift], axis=1
    )


def _batch_paths(config, ops, keys):
    """One path per Philox key, all advanced together.

    ops are the config's SchemeOperators, from advdiff_operators or
    wave_operators; keys is an (n_paths, 2) uint64 array, and path i
    draws from the stream of a fresh Philox under keys[i] (counter 0):
    first its K0 draw, then its (n_steps, d) noise block. Returns an
    (n_paths, d) array whose row i does not depend on the other keys. A
    step solves L x_j = g M x_{j-1} + b_j (advdiff, g = 1 + c0 dt) or
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
    xi = np.empty((config.n_steps, len(keys), n))
    X = np.zeros((n_state, len(keys)))
    # one generator, re-keyed to the state of a fresh Philox per path
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    zero = np.zeros(4, dtype=np.uint64)
    for i, key in enumerate(keys):
        bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": zero, "key": key},
            "buffer": zero,
            "buffer_pos": 4,  # the four-word buffer is spent
            "has_uint32": 0,
            "uinteger": 0,
        }
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

    samples = _batch_paths(config, ops, _philox_keys(mc.seed, mc.n_samples))
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
