import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from spdecov import (
    AdvDiffConfig,
    BrownianBridge,
    CholeskyError,
    Coefficients,
    ConfigError,
    Custom,
    McConfig,
    Mesh1D,
    NumericalError,
    TooFewSamplesError,
    WaveConfig,
    WhiteNoise,
    advdiff_run,
    assemble_mass,
    empirical_cov,
    mc_validate,
    symmetrize,
)
from spdecov.linalg import sym_eig
from spdecov import montecarlo
from spdecov.advdiff import advdiff_operators
from spdecov.montecarlo import (
    CHUNK_BYTES,
    _batch_paths,
    _chol_with_jitter,
    _jackknife_distances,
    _paths_per_chunk,
    _philox_keys,
)
from spdecov.wave import wave_operators


def test_empirical_cov_two_samples():
    assert empirical_cov([[1.0], [-1.0]])[0, 0] == 2.0


def test_empirical_cov_matches_numpy():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((20, 3))
    assert_allclose(empirical_cov(X), np.cov(X.T), atol=1e-14)


def test_too_few_samples():
    with pytest.raises(TooFewSamplesError):
        empirical_cov([[1.0]])
    with pytest.raises(TooFewSamplesError):
        McConfig(
            scheme=AdvDiffConfig(
                mesh=Mesh1D(2, "dirichlet"),
                coeffs=Coefficients.constant(a11=1.0),
                c0=0.0,
                kernel=WhiteNoise(),
                T=0.5,
                n_steps=1,
            ),
            n_samples=1,
            seed=0,
        )


def _advdiff_cfg(**kw):
    base = dict(
        mesh=Mesh1D(8, "neumann"),
        coeffs=Coefficients.constant(a11=1.0),
        c0=0.125,
        kernel=WhiteNoise(),
        T=0.5,
        n_steps=4,
    )
    base.update(kw)
    return AdvDiffConfig(**base)


def _wave_cfg(**kw):
    base = dict(
        mesh=Mesh1D(8, "dirichlet"),
        kernel=BrownianBridge(),
        T=0.5,
        n_steps=4,
        g_spec="minus_q",
    )
    base.update(kw)
    return WaveConfig(**base)


BATCH_CASES = pytest.mark.parametrize(
    "cfg, operators",
    [
        (_advdiff_cfg(), advdiff_operators),
        (_advdiff_cfg(K0=0.5 * np.eye(9)), advdiff_operators),
        (_wave_cfg(), wave_operators),
        (_wave_cfg(K0=0.5 * np.eye(14)), wave_operators),
    ],
    ids=["advdiff", "advdiff-K0", "wave", "wave-K0"],
)


@BATCH_CASES
def test_batch_of_five_equals_five_batches_of_one(cfg, operators):
    # each row consumes only its own stream. Batches of one go through
    # BLAS's one-column kernels (gemv) and round differently from the
    # many-column ones, so they agree to rounding; splitting into
    # batches of two and three keeps the many-column kernels and must
    # agree bit for bit
    ops = operators(cfg)
    keys = _philox_keys(42, 5)
    X = _batch_paths(cfg, ops, keys)
    ones = np.vstack([_batch_paths(cfg, ops, keys[i : i + 1]) for i in range(5)])
    assert_allclose(X, ones, rtol=0.0, atol=1e-13)
    split = np.vstack(
        [_batch_paths(cfg, ops, keys[:2]), _batch_paths(cfg, ops, keys[2:])]
    )
    assert np.array_equal(X, split)


def _loop_batch_paths(config, ops, seeds):
    """The sampler before re-keying: one Generator(Philox(child)) per path."""
    n = ops.M.shape[0]
    n_state = ops.load.shape[0]
    chol = _chol_with_jitter(ops.Q_h)
    K0 = config.K0
    root_K0 = None if K0 is None else _chol_with_jitter(symmetrize(K0))
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
    load = np.sqrt(config.dt) * (ops.load @ chol)
    for j in range(config.n_steps):
        X = T @ X + load @ xi[j].T
    return X.T


@BATCH_CASES
def test_rekeyed_batch_equals_spawned_generators(cfg, operators):
    # re-keying one Philox must reproduce the spawned children's draws
    # bit for bit, the K0 draw included
    ops = operators(cfg)
    X = _batch_paths(cfg, ops, _philox_keys(42, 5))
    ref = _loop_batch_paths(cfg, ops, np.random.SeedSequence(42).spawn(5))
    assert np.array_equal(X, ref)


def _one_shot_batch_paths(config, ops, keys):
    """The sampler before chunking: every path's noise in one array."""
    n = ops.M.shape[0]
    n_state = ops.load.shape[0]
    chol = _chol_with_jitter(ops.Q_h)
    root_K0 = None
    if config.K0 is not None:
        K0 = symmetrize(np.asarray(config.K0))
        root_K0 = _chol_with_jitter(K0) if K0.any() else K0
    # indexed (step, path, dof), so each step's noise block is contiguous
    xi = np.empty((config.n_steps, len(keys), n))
    X = np.zeros((n_state, len(keys)))
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    zero = np.zeros(4, dtype=np.uint64)
    for i, key in enumerate(keys):
        bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": zero, "key": key},
            "buffer": zero,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        if root_K0 is not None:
            X[:, i] = root_K0 @ rng.standard_normal(n_state)
        xi[:, i, :] = rng.standard_normal((config.n_steps, n))
    T = ops.step.T
    if isinstance(config, AdvDiffConfig):
        T = (1.0 + config.c0 * config.dt) * T
    load = np.sqrt(config.dt) * (ops.load @ chol)
    for j in range(config.n_steps):
        X = T @ X + load @ xi[j].T
    return X.T


def _spy_samples(monkeypatch):
    """Records the samples that mc_validate hands to its jackknife."""
    seen = []

    def spy(samples, L, K_det):
        seen.append(samples)
        return _jackknife_distances(samples, L, K_det)

    monkeypatch.setattr(montecarlo, "_jackknife_distances", spy)
    return seen


@pytest.mark.parametrize(
    "cfg, operators",
    [
        (_advdiff_cfg(K0=0.5 * np.eye(9)), advdiff_operators),
        (_wave_cfg(K0=0.5 * np.eye(14)), wave_operators),
    ],
    ids=["advdiff-K0", "wave-K0"],
)
@pytest.mark.parametrize("extra", [0, 1, 17])
def test_chunked_samples_equal_one_shot_batch(cfg, operators, extra, monkeypatch):
    # two whole chunks, then none, a lone path (which joins the second
    # chunk) or a short chunk of 17. Both 2 chunk + 1 and 2 chunk + 17
    # leave one column after BLAS's 8-column blocks; OpenBLAS's kernels
    # for small and large products round that column differently, and
    # the one-shot product of the 8193 wave-K0 paths is a large one, so
    # the last n_samples % 8 paths agree to rounding and the rest bit
    # for bit
    n_dof = cfg.mesh.n_dof
    n_samples = 2 * _paths_per_chunk(cfg.n_steps, n_dof) + extra
    seen = _spy_samples(monkeypatch)
    mc_validate(McConfig(scheme=cfg, n_samples=n_samples, seed=13))
    ops = operators(cfg)
    ref = _one_shot_batch_paths(cfg, ops, _philox_keys(13, n_samples))[:, :n_dof]
    head = n_samples - n_samples % 8
    assert np.array_equal(seen[0][:head], ref[:head])
    assert_allclose(seen[0][head:], ref[head:], rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("n_steps, n", [(1, 1), (4, 9), (16, 17), (256, 17), (10**6, 33)])
def test_paths_per_chunk_fill_the_budget(n_steps, n):
    chunk = _paths_per_chunk(n_steps, n)
    path_bytes = 8 * n_steps * n
    assert chunk >= 8 and chunk & (chunk - 1) == 0
    assert chunk == 8 or chunk * path_bytes <= CHUNK_BYTES < 2 * chunk * path_bytes


def test_each_chunk_is_logged_at_debug(caplog, capsys):
    cfg = _advdiff_cfg()
    chunk = _paths_per_chunk(cfg.n_steps, cfg.mesh.n_dof)
    n = 2 * chunk + 1
    with caplog.at_level(logging.DEBUG, logger="spdecov.montecarlo"):
        mc_validate(McConfig(scheme=cfg, n_samples=n, seed=1))
    records = [r for r in caplog.records if r.name == "spdecov.montecarlo"]
    assert [r.levelno for r in records] == [logging.DEBUG] * 2
    # the lone last path joins the second chunk
    assert [r.getMessage() for r in records] == [
        f"propagated paths 1-{chunk} of {n}",
        f"propagated paths {chunk + 1}-{n} of {n}",
    ]
    assert capsys.readouterr() == ("", "")


def test_sampling_memory_does_not_grow_with_the_step_count():
    # at 256 steps the noise of 2000 paths of 17 DoF is 70 MB, and the
    # one-shot sampler's peak was 67 MiB here; the chunked one holds one
    # CHUNK_BYTES noise buffer and its loads, the 0.3 MB of samples and
    # the jackknife's chunk stack (2.3 MiB measured, 3.4 MiB at 16 steps)
    cfg = _advdiff_cfg(mesh=Mesh1D(16, "neumann"), T=1.0, n_steps=256)
    mc = McConfig(scheme=cfg, n_samples=2000, seed=3)
    tracemalloc.start()
    try:
        mc_validate(mc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * CHUNK_BYTES


def _binomial_tail(n, p, k):
    """P(B > k) for B ~ Binomial(n, p)."""
    return sum(math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(k + 1, n + 1))


@pytest.mark.parametrize("cells", [4, 8])
@pytest.mark.parametrize(
    "make_cfg, bc",
    [(_advdiff_cfg, "neumann"), (_wave_cfg, "dirichlet")],
    ids=["advdiff", "wave"],
)
def test_mc_bound_holds_over_many_seeds(make_cfg, bc, cells):
    # Seeds 0..63 draw independent streams, so the number of seeds that
    # break the bound (either distance) is Binomial(64, p), with p the
    # bound's per-seed failure rate. The distance is a norm, whose upper
    # tail is heavier than a Gaussian's, so 3 SE is held to p <= 5%,
    # not to the Gaussian 0.13%. If p <= 5%, more than `allowed` broken
    # seeds happen with probability at most 1e-3, so such a count
    # refutes the bound. Over 400 seeds of 300 paths, 1.25-1.5% of the
    # advdiff seeds broke it and none of the wave seeds, whose O(dt^2)
    # margin is large at 4 steps.
    n_seeds = 64
    allowed = next(
        k for k in range(n_seeds + 1) if _binomial_tail(n_seeds, 0.05, k) <= 1e-3
    )
    cfg = make_cfg(mesh=Mesh1D(cells, bc))
    broken = 0
    for seed in range(n_seeds):
        rep = mc_validate(McConfig(scheme=cfg, n_samples=300, seed=seed))
        broken += (
            rep.hs_distance > 3.0 * rep.sampling_error_hs + rep.consistency_margin
            or rep.trace_distance
            > 3.0 * rep.sampling_error_trace + rep.consistency_margin
        )
    assert allowed == 10
    assert broken <= allowed


def _spawned_keys(seed, n):
    children = np.random.SeedSequence(seed).spawn(n)
    return np.array([c.generate_state(2, np.uint64) for c in children])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**160 - 1), n=st.integers(1, 64))
def test_philox_keys_match_spawned_children(seed, n):
    # the range crosses the four-word pool: seeds of five words and more
    # are not padded before the spawn key
    keys = _philox_keys(seed, n)
    assert keys.dtype == np.uint64 and keys.shape == (n, 2)
    assert np.array_equal(keys, _spawned_keys(seed, n))


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**128, 2**130 + 7])
def test_philox_keys_at_word_boundaries(seed):
    assert np.array_equal(_philox_keys(seed, 7), _spawned_keys(seed, 7))


@pytest.mark.parametrize(
    "seed", [-1, -(2**40), 2.5, None, True, "7", np.float64(3.0)]
)
def test_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
        McConfig(scheme=_advdiff_cfg(), n_samples=10, seed=seed)


@pytest.mark.parametrize("n_samples", [2**32, 2**40, 10.0, True, None])
def test_n_samples_must_be_an_integer_below_2_32(n_samples):
    with pytest.raises(ConfigError, match="n_samples must be an integer"):
        McConfig(scheme=_advdiff_cfg(), n_samples=n_samples, seed=0)


def test_numpy_integers_are_accepted():
    cfg = _advdiff_cfg()
    rep = mc_validate(McConfig(scheme=cfg, n_samples=np.int64(50), seed=np.uint32(5)))
    assert rep == mc_validate(McConfig(scheme=cfg, n_samples=50, seed=5))


def test_mc_needs_three_samples():
    # the jackknife's leave-one-out covariance divides by n_samples - 2
    cfg = _advdiff_cfg()
    with pytest.raises(TooFewSamplesError, match="n_samples must be at least 3"):
        McConfig(scheme=cfg, n_samples=2, seed=0)
    rep = mc_validate(McConfig(scheme=cfg, n_samples=3, seed=0))
    assert np.isfinite([rep.sampling_error_hs, rep.sampling_error_trace]).all()


def _loop_jackknife(samples, M, K_det):
    """The per-path leave-one-out loop the stacked jackknife replaced."""
    w, V = np.linalg.eigh(M)
    root_M = (V * np.sqrt(w)) @ V.T
    n_s = samples.shape[0]
    A = samples.T @ samples
    s = samples.sum(axis=0)
    tr = np.empty(n_s)
    hs = np.empty(n_s)
    for i, x in enumerate(samples):
        s_i = s - x
        C_i = (A - np.outer(x, x) - np.outer(s_i, s_i) / (n_s - 1)) / (n_s - 2)
        dK = symmetrize(C_i) - K_det
        W = symmetrize(root_M @ dK @ root_M)
        tr[i] = np.abs(sym_eig(W).eigenvalues).sum()
        KM = dK @ M
        hs[i] = np.sqrt(max(np.sum(KM * KM.T), 0.0))
    return tr, hs


def _jackknife_se(vals):
    n = len(vals)
    return np.sqrt((n - 1) / n * np.sum((vals - vals.mean()) ** 2))


@pytest.mark.parametrize(
    "cfg", [_advdiff_cfg(), _wave_cfg()], ids=["advdiff-neumann", "wave-dirichlet"]
)
def test_stacked_jackknife_matches_per_path_loop(cfg, monkeypatch):
    n_samples = 3001
    d = cfg.mesh.n_dof
    chunk = max(1, CHUNK_BYTES // (8 * d * d))
    assert n_samples > chunk and n_samples % chunk != 0

    seen = {}

    def spy(samples, L, K_det):
        seen["args"] = (samples, K_det)
        seen["out"] = _jackknife_distances(samples, L, K_det)
        return seen["out"]

    monkeypatch.setattr(montecarlo, "_jackknife_distances", spy)
    rep = mc_validate(McConfig(scheme=cfg, n_samples=n_samples, seed=31))
    tr, hs = seen["out"]
    samples, K_det = seen["args"]
    tr_ref, hs_ref = _loop_jackknife(samples, assemble_mass(cfg.mesh), K_det)
    assert_allclose(tr, tr_ref, rtol=1e-12, atol=0.0)
    assert_allclose(hs, hs_ref, rtol=1e-12, atol=0.0)
    assert rep.sampling_error_trace == pytest.approx(_jackknife_se(tr_ref), rel=1e-12)
    assert rep.sampling_error_hs == pytest.approx(_jackknife_se(hs_ref), rel=1e-12)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    n_s=st.integers(3, 40),
    d=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_one_jackknife_matches_per_path_loop(n_s, d, seed):
    # K_det is drawn apart from the samples, so no distance is near
    # zero; the shifted mean exercises the centring of the downdate
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, d))
    M = A @ A.T + d * np.eye(d)
    B = rng.standard_normal((d, d))
    K_det = B @ B.T + np.eye(d)
    samples = rng.standard_normal((n_s, d)) + rng.uniform(-1.0, 1.0, d)
    tr, hs = _jackknife_distances(samples, np.linalg.cholesky(M), K_det)
    tr_ref, hs_ref = _loop_jackknife(samples, M, K_det)
    assert_allclose(tr, tr_ref, rtol=1e-12, atol=0.0)
    assert_allclose(hs, hs_ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200], ids=["nan", "inf", "overflow"])
def test_jackknife_rejects_non_finite_stack(bad):
    samples = np.random.default_rng(0).standard_normal((10, 3))
    samples[4, 1] = bad
    with pytest.raises(NumericalError, match="non-finite"):
        _jackknife_distances(samples, np.eye(3), np.eye(3))


def _one_path(cfg, seed):
    return _batch_paths(cfg, advdiff_operators(cfg), _philox_keys(seed, 1))[0]


def test_single_path_deterministic():
    cfg = _advdiff_cfg()
    x1 = _one_path(cfg, 123)
    x2 = _one_path(cfg, 123)
    assert np.array_equal(x1, x2)
    assert not np.array_equal(x1, _one_path(cfg, 124))


def test_mc_validate_deterministic():
    mc = McConfig(scheme=_advdiff_cfg(), n_samples=50, seed=5)
    r1, r2 = mc_validate(mc), mc_validate(mc)
    assert r1 == r2


def test_scalar_one_step_consistency():
    # c0 = 0, one step: path variance is exactly dt Q / (M + dt A)^2,
    # the same 3/98 the deterministic recursion produces, so the whole
    # gap is sampling noise
    cfg = AdvDiffConfig(
        mesh=Mesh1D(2, "dirichlet"),
        coeffs=Coefficients.constant(a11=1.0),
        c0=0.0,
        kernel=WhiteNoise(),
        T=0.5,
        n_steps=1,
    )
    rep = mc_validate(McConfig(scheme=cfg, n_samples=4000, seed=11))
    assert rep.consistency_margin == 0.0
    assert rep.hs_distance <= 3.0 * rep.sampling_error_hs
    assert rep.trace_distance <= 3.0 * rep.sampling_error_trace


def test_sampling_error_shrinks_like_sqrt_n():
    # quadrupling the samples should roughly halve the distance; single
    # seeds scatter, the three-seed mean does not
    cfg = AdvDiffConfig(
        mesh=Mesh1D(6, "dirichlet"),
        coeffs=Coefficients.constant(a11=1.0),
        c0=0.0,
        kernel=WhiteNoise(),
        T=0.5,
        n_steps=4,
    )
    ratios = []
    for seed in (3, 5, 17):
        r1 = mc_validate(McConfig(scheme=cfg, n_samples=500, seed=seed))
        r4 = mc_validate(McConfig(scheme=cfg, n_samples=2000, seed=seed))
        ratios.append(r4.hs_distance / r1.hs_distance)
    mean = np.mean(ratios)
    assert 0.5 / 3.0 <= mean <= 0.5 * 4.0 / 3.0


def test_margin_formula_advdiff():
    cfg = _advdiff_cfg(c0=0.25)
    rep = mc_validate(McConfig(scheme=cfg, n_samples=10, seed=1))
    M = assemble_mass(cfg.mesh)
    K_det = advdiff_run(cfg)
    expected = 0.25**2 * cfg.dt**2 * cfg.n_steps * np.sum(M * K_det)
    assert rep.consistency_margin == pytest.approx(expected, rel=1e-12)


def test_wave_mc_consistency():
    rep = mc_validate(McConfig(scheme=_wave_cfg(), n_samples=2000, seed=19))
    assert (
        rep.hs_distance
        <= 3.0 * rep.sampling_error_hs + rep.consistency_margin
    )
    assert (
        rep.trace_distance
        <= 3.0 * rep.sampling_error_trace + rep.consistency_margin
    )


def test_jackknife_errors_positive_and_modest():
    rep = mc_validate(McConfig(scheme=_advdiff_cfg(), n_samples=200, seed=2))
    for se, d in (
        (rep.sampling_error_hs, rep.hs_distance),
        (rep.sampling_error_trace, rep.trace_distance),
    ):
        assert se > 0.0
        assert se < 10.0 * d


def test_rank_one_noise_uses_jitter_ladder():
    # q(x, y) = 1 gives a rank-one Q_h whose exact Cholesky fails; the
    # jitter ladder must still produce paths
    cfg = _advdiff_cfg(kernel=Custom(q=lambda x, y: 1.0))
    x = _one_path(cfg, 3)
    assert np.all(np.isfinite(x))


@pytest.mark.parametrize("make_cfg, n_state", [(_advdiff_cfg, 9), (_wave_cfg, 14)])
@pytest.mark.parametrize("rank", [0, 1])
def test_degenerate_k0_samples_within_the_bound(make_cfg, n_state, rank):
    # plain Cholesky fails on both: a rank-one K0 climbs the jitter
    # ladder, and a zero K0, which no jitter relative to its trace lifts,
    # is its own factor. The paths still carry K0's covariance
    v = 2.0 * np.sin(np.linspace(0.3, 2.8, n_state))
    K0 = rank * np.outer(v, v)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(K0)
    rep = mc_validate(McConfig(scheme=make_cfg(K0=K0), n_samples=2000, seed=29))
    assert rep.hs_distance <= 3.0 * rep.sampling_error_hs + rep.consistency_margin
    assert (
        rep.trace_distance
        <= 3.0 * rep.sampling_error_trace + rep.consistency_margin
    )


def test_zero_noise_raises_cholesky_error():
    cfg = _advdiff_cfg(kernel=Custom(q=lambda x, y: 0.0))
    with pytest.raises(CholeskyError):
        _one_path(cfg, 3)
