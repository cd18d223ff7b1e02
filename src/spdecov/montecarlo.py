"""Path sampling and statistical validation of the covariance recursions.

Paths are simulated with the operators of the deterministic recursion,
from the scheme config's operators(): a step is x_j = path_growth T
x_{j-1} + load b_j, b_j = sqrt(dt) chol(Q_h) xi_j. mc_validate reports
the O(dt^2) gap of that step to the recursion as a consistency margin
at the scheme's gap_rate instead of hiding it; backward_euler_step and
crank_nicolson_step derive both factors.

Path i draws from the counter-based Philox stream of the i-th child of
SeedSequence(seed).spawn(n_samples), so it is reproducible regardless of
scheduling, and the empirical covariance is accumulated in path order.
A fresh Philox is fully described by its key and a zero counter, so the
children are never built: _philox_keys takes the seed's mixed pool from
numpy, mixes in every child's spawn word at once as a uint32 column, and
_batch_paths re-keys one generator before each path.

_batch_paths walks the paths in chunks through one reused noise buffer
of at most CHUNK_BYTES (or 9 paths' noise, if more), and one buffer of
their noise loads, and keeps only the position rows of each path's end
state, so sampling holds those two plus the (n_samples, n) result,
however many steps the scheme takes. Each chunk is logged at DEBUG to
the "spdecov.montecarlo" logger. The statistics then hold at most two
(n_samples, n) arrays at once: the samples beside their centred copy
in empirical_cov, then beside their Cholesky frame, which the
jackknife centres and scales in place once the samples are freed.

The jackknife standard errors come from one leave-one-out covariance
per path. Each is a rank-one downdate, in the centred sample, of one
matrix built once, so _jackknife_distances takes their eigenvalues a
chunk of paths at a time in stacked calls. mc_validate runs on one BLAS
thread up to linalg.SERIAL_BLAS_MAX_ROWS state rows, as run_single does,
and there the jackknife deals whole chunks to one thread per core that
the process may use; each matrix is solved alone, so the report is the
same bits at any core count. Sampling and the deterministic recursion
stay on the caller's thread.
"""

import logging
import threading
from dataclasses import dataclass
from typing import Union

import numpy as np

from .advdiff import AdvDiffConfig
from .errnorms import err_hs_norm, err_trace_norm
from .exceptions import ConfigError, NumericalError
from .fem import _is_int
from .linalg import _serial_blas, propagate, symmetrize
from .wave import WaveConfig

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

#: byte budget of one chunk in the two chunked loops. A sampling chunk
#: fills a noise buffer of this size with the largest power of two of
#: paths, at least 8, that fits, and its loads n_state / n times that.
#: The jackknife splits it over its worker threads: a chunk takes
#: max(1, this // (workers 8 d^2)) paths, and each worker holds one
#: stack of its chunk's d x d leave-one-out matrices. Either way the
#: transient memory stays a few MB whatever the step count, d,
#: n_samples or the core count is
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
        if not isinstance(self.scheme, (AdvDiffConfig, WaveConfig)):
            raise ConfigError(
                "Monte Carlo validation runs an AdvDiffConfig or a WaveConfig, "
                f"got {type(self.scheme).__name__}"
            )
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
            raise ConfigError(
                f"n_samples must be at least 3, got {self.n_samples}: the "
                "jackknife needs two paths left after dropping one"
            )


@dataclass(frozen=True)
class McReport:
    """Outcome of mc_validate.

    sampling_error_hs / sampling_error_trace are jackknife standard
    errors of the corresponding distances; consistency_margin bounds the
    deterministic scheme-vs-path covariance gap (gap_rate dt^2 per step),
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
    raise NumericalError(
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
        raise ConfigError("need at least 2 samples")
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
    of Philox(child). A child's pool is the seed's, which numpy mixes,
    with its spawn key (i,) mixed in last, by numpy's hashmix on a
    uint32 column of shape (n,). seed is a non-negative integer and n
    is below 2**32.
    """
    seed = int(seed)
    pool = list(np.random.SeedSequence(seed).pool[:, None])
    # the seed's mixing made 16 hashmix calls, and 4 per word past the pool
    extra = max(0, -(-seed.bit_length() // 32) - _POOL_SIZE)
    const = _INIT_A * pow(_MULT_A, 16 + 4 * extra, 2**32) & _MASK32
    word = np.arange(n, dtype=np.uint32)
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

    ops are the config's SchemeOperators, from config.operators(); keys
    is an (n_paths, 2) uint64 array, and path i draws from the stream of
    a fresh Philox under keys[i] (counter 0): first its K0 draw, through
    a Cholesky factor of K0 on the noise's jitter ladder, then its
    (n_steps, d) noise block. A step is x_j = ops.path_growth T x_{j-1}
    + ops.load b_j, with the T of the covariance step, on the whole
    state; only the d position rows of each end state are kept, so this
    returns an (n_paths, d) array, the whole state for advdiff, whose
    row i does not depend on the other keys.

    The paths go through in chunks of _paths_per_chunk paths, and a lone
    last path joins the chunk before it: alone it would go through
    BLAS's one-column kernel (gemv), which rounds differently from the
    many-column ones. So sampling holds one noise buffer of at most
    max(CHUNK_BYTES, 9 paths' noise), and a load buffer n_state / d
    times its size, besides the (n_paths, d) result, whatever n_steps
    is. On OpenBLAS every row is bit-identical to that of one batch of
    all paths, except that the last n_paths % 8 rows may differ by
    rounding: they are the short remainder of BLAS's 8-column blocks,
    which its kernel for small products rounds differently from its
    kernel for large ones.
    """
    n = ops.M.shape[0]
    n_state = ops.load.shape[0]
    n_paths = len(keys)
    chol = _chol_with_jitter(ops.Q_h)
    root_K0 = None
    if config.K0 is not None:
        K0 = symmetrize(np.asarray(config.K0))
        # no jitter relative to its trace lifts a zero K0: it is its own factor
        root_K0 = _chol_with_jitter(K0) if K0.any() else K0
    T = ops.path_growth * ops.step.T
    load = np.sqrt(config.dt) * (ops.load @ chol)

    chunk = _paths_per_chunk(config.n_steps, n)
    bounds = list(range(0, n_paths, chunk)) + [n_paths]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    # indexed (path, step, dof), so each path's noise block is contiguous
    buf = np.empty((min(chunk + 1, n_paths), config.n_steps, n))
    rows = list(buf)
    # a chunk's noise loads, (step, state row, path), each step contiguous
    loads = np.empty(len(buf) * config.n_steps * n_state)
    out = np.empty((n, n_paths))
    # one generator, re-keyed to the state of a fresh Philox per path
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    zero = np.zeros(4, dtype=np.uint64)
    fresh = {"counter": zero, "key": zero}
    state = {
        "bit_generator": "Philox",
        "state": fresh,
        "buffer": zero,
        "buffer_pos": 4,  # the four-word buffer is spent
        "has_uint32": 0,
        "uinteger": 0,
    }
    log = logging.getLogger(__name__)
    for lo, hi in zip(bounds, bounds[1:]):
        X = np.zeros((n_state, hi - lo))
        for i, (key, row) in enumerate(zip(keys[lo:hi], rows)):
            fresh["key"] = key
            bitgen.state = state
            if root_K0 is not None:
                X[:, i] = root_K0 @ rng.standard_normal(n_state)
            rng.standard_normal(out=row)
        # every step's noise load in one stacked product, which makes the
        # BLAS call of the per-step product load @ xi[:, j].T for each j
        m = hi - lo
        G = loads[: config.n_steps * n_state * m].reshape(-1, n_state, m)
        np.matmul(load, buf[:m].transpose(1, 2, 0), out=G)
        for j in range(config.n_steps):
            X = T @ X + G[j]
        out[:, lo:hi] = X[:n]
        log.debug("propagated paths %d-%d of %d", lo + 1, hi, n_paths)
    # the rounding of the statistics' sums over paths depends on the
    # memory order, so these are the position rows of the transposed
    # (n_state, n_paths) state that one batch of all paths returns
    return out.T


# an overflow surfaces as the NumericalError of the finite check instead
@np.errstate(over="ignore", invalid="ignore")
def _jackknife_distances(Y, L, K_det, workers=1):
    """Leave-one-out (trace, HS) distances of the empirical covariance.

    Y is the (n_paths, d) sample in the Cholesky frame, samples L with
    M = L L^T, and this consumes it: Y is centred in place into U and
    then scaled in place into V below, so the jackknife holds no other
    sample-sized array. Entry i measures the covariance of all paths but
    path i against K_det. With the centred U = Y - mean(Y), the
    leave-one-out covariance in the Cholesky frame L^T (.) L of
    errnorms, less L^T K_det L, is exactly the rank-one downdate

        W_i = D - k u_i u_i^T,  D = U^T U / (n - 2) - L^T K_det L,
        k = n / ((n - 1)(n - 2)),

    of one D for all paths, so a chunk of paths is one stack of d x d
    matrices W_i and one stacked eigvalsh. The HS distance is
    sqrt(sum w^2) = ||W_i||_F, which is sqrt(trace((E M)^2)) for the
    coefficient difference E = L^-T W_i L^-1.

    The chunks are dealt round-robin to `workers` threads, the caller's
    among them, and each thread fills its own stack of CHUNK_BYTES /
    workers and writes its chunks' entries of the result. Each W_i and
    its eigenvalues are computed alone, so the result is the same bits
    at any worker count. An error in any chunk is raised here, after
    every thread has stopped.
    """
    n_s, d = Y.shape
    U = Y
    U -= U.mean(axis=0)
    D = symmetrize(U.T @ U) / (n_s - 2) - symmetrize(L.T @ K_det @ L)
    # W_i = D - v_i v_i^T with V = sqrt(k) U is exactly symmetric, as
    # k (u_i u_i^T) is but (k u_i) u_i^T need not be
    V = U
    V *= np.sqrt(n_s / ((n_s - 1.0) * (n_s - 2.0)))
    chunk = max(1, CHUNK_BYTES // (workers * 8 * d * d))
    starts = range(0, n_s, chunk)
    workers = min(workers, len(starts))
    tr = np.empty(n_s)
    hs = np.empty(n_s)

    errors = []

    def fill(share):
        stack = np.empty((min(chunk, n_s), d, d))
        try:
            for lo in share:
                v = V[lo : lo + chunk]
                W = stack[: len(v)]
                # numpy's error state is per thread, so each sets its own
                with np.errstate(over="ignore", invalid="ignore"):
                    np.multiply(v[:, :, None], v[:, None, :], out=W)
                    np.subtract(D, W, out=W)
                if not np.isfinite(W).all():
                    raise NumericalError(
                        "leave-one-out covariance has non-finite entries"
                    )
                try:
                    w = np.linalg.eigvalsh(W)
                except np.linalg.LinAlgError as exc:
                    raise NumericalError(str(exc)) from exc
                tr[lo : lo + chunk] = np.abs(w).sum(axis=1)
                hs[lo : lo + chunk] = np.sqrt((w * w).sum(axis=1))
        except Exception as exc:  # raised in the caller's thread below
            errors.append(exc)

    threads = [
        threading.Thread(target=fill, args=(starts[k::workers],))
        for k in range(1, workers)
    ]
    for thread in threads:
        thread.start()
    try:
        fill(starts[::workers])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return tr, hs


def _check_finite(name, value):
    """Raise a NumericalError naming value if any of its entries is inf or nan."""
    if not np.isfinite(value).all():
        raise NumericalError(
            f"the {name} is not finite: the covariances or their squares "
            "overflow double precision"
        )


# an overflow surfaces as the NumericalError of a finite check instead
@np.errstate(over="ignore", invalid="ignore")
def mc_validate(mc):
    """Compare the empirical path covariance to the deterministic one.

    Runs mc.n_samples paths, forms the empirical covariance (position
    block only, for wave configs), and measures both norms against the
    deterministic recursion on the same mesh. Jackknife standard errors
    quantify sampling noise; consistency_margin bounds the known
    O(dt^2) scheme gap so callers can assert

        distance <= 3 * sampling error + consistency_margin.

    The margin is gap_rate * dt^2 * n_steps * trace(M K_b), with the
    operators' gap_rate and K_b the last n x n block of the state
    covariance: K for advdiff, the velocity block for wave. The scheme's
    state rows set the BLAS thread policy, as in run_single, and with it
    the jackknife's worker threads.

    Besides sampling's buffers, it holds at most two (n_samples, n)
    arrays at once: the samples are freed once their Cholesky frame is
    formed, and the jackknife centres and scales that frame in place.

    Returns
    -------
    McReport

    Raises
    ------
    NumericalError
        If a covariance, a distance or a standard error is not finite,
        as when the covariances or their squares overflow double
        precision; the message names the quantity.
    """
    config = mc.scheme
    mesh = config.mesh
    with _serial_blas(config.n_state) as workers:
        ops = config.operators()
        M = ops.M
        n = M.shape[0]
        K_full = propagate(ops.step, config.n_steps, config.K0)
        # the position block, which for advdiff is the whole state
        K_det = K_full[:n, :n]
        samples = _batch_paths(config, ops, _philox_keys(mc.seed, mc.n_samples))
        K_emp = empirical_cov(samples)
        _check_finite("empirical covariance", K_emp)
        _check_finite("deterministic covariance", K_det)
        trace_d = err_trace_norm(K_emp, mesh, K_det, mesh)
        hs_d = err_hs_norm(K_emp, mesh, K_det, mesh)
        _check_finite("trace distance", trace_d)
        _check_finite("Hilbert-Schmidt distance", hs_d)

        L = np.linalg.cholesky(M)
        # the jackknife consumes the Cholesky frame, and the samples are
        # freed before it runs
        Y = samples @ L
        del samples
        tr_vals, hs_vals = _jackknife_distances(Y, L, K_det, workers)
        fac = (mc.n_samples - 1.0) / mc.n_samples
        se_tr = float(np.sqrt(fac * np.sum((tr_vals - tr_vals.mean()) ** 2)))
        se_hs = float(np.sqrt(fac * np.sum((hs_vals - hs_vals.mean()) ** 2)))
        _check_finite("trace standard error", se_tr)
        _check_finite("Hilbert-Schmidt standard error", se_hs)

    scale = float(np.sum(M * K_full[-n:, -n:]))
    return McReport(
        hs_distance=hs_d,
        trace_distance=trace_d,
        sampling_error_hs=se_hs,
        sampling_error_trace=se_tr,
        consistency_margin=ops.gap_rate * config.dt**2 * config.n_steps * scale,
        n_samples=mc.n_samples,
        seed=mc.seed,
    )
