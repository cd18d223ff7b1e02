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

_batch_paths walks the paths in chunks through one reused noise buffer
of at most CHUNK_BYTES (or 9 paths' noise, if more), and one buffer of
their noise loads, so sampling holds those two plus the (n_samples,
n_state) result, however many steps the scheme takes. Each chunk is
logged at DEBUG to the "spdecov.montecarlo" logger.

The jackknife standard errors come from one leave-one-out covariance
per path. Each is a rank-one downdate, in the centred sample, of one
matrix built once, so _jackknife_distances takes their eigenvalues a
chunk of paths at a time in stacked calls. mc_validate runs on one BLAS
thread up to linalg.SERIAL_BLAS_MAX_ROWS state rows, as run_single does.
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
from .fem import _is_int
from .linalg import _serial_blas, propagate, symmetrize
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
    "empirical_cov",
    "mc_validate",
]

#: jitter ladder for Cholesky of Q_h and K0, relative to trace/N
CHOLESKY_JITTERS = (0.0, 1e-14, 1e-12, 1e-10)

#: frozen coefficient of the scheme-consistency margin, calibrated on
#: the one-DoF model (see tests): margin = coeff * gap_rate * dt^2 *
#: n_steps * trace(M K_det)
MC_CONSISTENCY_COEFF = 1.0

#: byte budget of one chunk in the two chunked loops. A sampling chunk
#: fills a noise buffer of this size with the largest power of two of
#: paths, at least 8, that fits, and its loads n_state / n times that;
#: a jackknife chunk takes max(1, this // (8 d^2)) paths and holds one
#: stack of their d x d leave-one-out matrices. Either way the
#: transient memory stays a few MB whatever the step count, d or
#: n_samples is
CHUNK_BYTES = 2**20

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


def _paths_per_chunk(n_steps, n):
    """Largest power of two of paths, at least 8, whose noise fits in CHUNK_BYTES."""
    chunk = 8
    while 2 * chunk * 8 * n_steps * n <= CHUNK_BYTES:
        chunk *= 2
    return chunk


def _batch_paths(config, ops, keys):
    """One path per Philox key, advanced a chunk of paths at a time.

    ops are the config's SchemeOperators, from advdiff_operators or
    wave_operators; keys is an (n_paths, 2) uint64 array, and path i
    draws from the stream of a fresh Philox under keys[i] (counter 0):
    first its K0 draw, through a Cholesky factor of K0 on the noise's
    jitter ladder, then its (n_steps, d) noise block. Returns an
    (n_paths, d) array whose row i does not depend on the other keys. A
    step solves L x_j = g M x_{j-1} + b_j (advdiff, g = 1 + c0 dt) or
    L x_j = R P x_{j-1} + [0; b_j] (wave, the load on the velocity
    row), so x_j = g T x_{j-1} + ops.load b_j with the T of the
    covariance step.

    The paths go through in chunks of _paths_per_chunk paths, and a lone
    last path joins the chunk before it: alone it would go through
    BLAS's one-column kernel (gemv), which rounds differently from the
    many-column ones. So sampling holds one noise buffer of at most
    max(CHUNK_BYTES, 9 paths' noise), and a load buffer n_state / n
    times its size, besides the result, whatever n_steps is. On
    OpenBLAS every row is bit-identical to that of one batch of all
    paths, except that the last n_paths % 8 rows may differ by
    rounding: they are the short remainder of BLAS's 8-column blocks,
    which its kernel for small products rounds differently from its
    kernel for large ones.
    """
    # imported here, so that the commands which sample nothing do not
    # pay for it at start-up
    import logging

    n = ops.M.shape[0]
    n_state = ops.load.shape[0]
    n_paths = len(keys)
    chol = _chol_with_jitter(ops.Q_h)
    root_K0 = None
    if config.K0 is not None:
        K0 = symmetrize(np.asarray(config.K0))
        # no jitter relative to its trace lifts a zero K0: it is its own factor
        root_K0 = _chol_with_jitter(K0) if K0.any() else K0
    T = ops.step.T
    if isinstance(config, AdvDiffConfig):
        T = (1.0 + config.c0 * config.dt) * T
    load = np.sqrt(config.dt) * (ops.load @ chol)

    chunk = _paths_per_chunk(config.n_steps, n)
    bounds = list(range(0, n_paths, chunk)) + [n_paths]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    # indexed (path, step, dof), so each path's noise block is contiguous
    buf = np.empty((min(chunk + 1, n_paths), config.n_steps, n))
    # a chunk's noise loads, (step, state row, path), each step contiguous
    loads = np.empty(len(buf) * config.n_steps * n_state)
    out = np.empty((n_state, n_paths))
    # one generator, re-keyed to the state of a fresh Philox per path
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    zero = np.zeros(4, dtype=np.uint64)
    log = logging.getLogger(__name__)
    for lo, hi in zip(bounds, bounds[1:]):
        X = np.zeros((n_state, hi - lo))
        for i, key in enumerate(keys[lo:hi]):
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
            rng.standard_normal(out=buf[i])
        # every step's noise load in one stacked product, which makes the
        # BLAS call of the per-step product load @ xi[:, j].T for each j
        m = hi - lo
        G = loads[: config.n_steps * n_state * m].reshape(-1, n_state, m)
        np.matmul(load, buf[:m].transpose(1, 2, 0), out=G)
        for j in range(config.n_steps):
            X = T @ X + G[j]
        out[:, lo:hi] = X
        log.debug("propagated paths %d-%d of %d", lo + 1, hi, n_paths)
    # the rounding of the statistics' sums over paths depends on the
    # memory order, so this is the transposed (n_state, n_paths) state
    # that one batch of all paths returns
    return out.T


# an overflow surfaces as the NumericalError of the finite check instead
@np.errstate(over="ignore", invalid="ignore")
def _jackknife_distances(samples, L, K_det):
    """Leave-one-out (trace, HS) distances of the empirical covariance.

    Entry i measures the covariance of all paths but path i against
    K_det. With M = L L^T, Y = samples L and the centred U = Y - mean(Y),
    the leave-one-out covariance in the Cholesky frame L^T (.) L of
    errnorms, less L^T K_det L, is exactly the rank-one downdate

        W_i = D - k u_i u_i^T,  D = U^T U / (n - 2) - L^T K_det L,
        k = n / ((n - 1)(n - 2)),

    of one D for all paths, so a chunk of paths is one stack of d x d
    matrices W_i and one stacked eigvalsh. The HS distance is
    sqrt(sum w^2) = ||W_i||_F, which is sqrt(trace((E M)^2)) for the
    coefficient difference E = L^-T W_i L^-1.
    """
    n_s, d = samples.shape
    Y = samples @ L
    U = Y - Y.mean(axis=0)
    D = symmetrize(U.T @ U) / (n_s - 2) - symmetrize(L.T @ K_det @ L)
    # W_i = D - v_i v_i^T with V = sqrt(k) U is exactly symmetric, as
    # k (u_i u_i^T) is but (k u_i) u_i^T need not be
    V = np.sqrt(n_s / ((n_s - 1.0) * (n_s - 2.0))) * U
    chunk = max(1, CHUNK_BYTES // (8 * d * d))
    stack = np.empty((min(chunk, n_s), d, d))
    tr = np.empty(n_s)
    hs = np.empty(n_s)
    for lo in range(0, n_s, chunk):
        v = V[lo : lo + chunk]
        W = stack[: len(v)]
        np.multiply(v[:, :, None], v[:, None, :], out=W)
        np.subtract(D, W, out=W)
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

    The scheme's state rows set the BLAS thread policy of the whole
    validation, as in run_single.

    Returns
    -------
    McReport
    """
    with _serial_blas(mc.scheme.n_state):
        return _mc_validate(mc)


def _mc_validate(mc):
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

    tr_vals, hs_vals = _jackknife_distances(samples, np.linalg.cholesky(M), K_det)
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
