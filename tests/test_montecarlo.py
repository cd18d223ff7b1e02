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
    psd_sqrt,
    sample_path_advdiff,
    sample_path_wave,
    sym_eig,
    symmetrize,
)
from spdecov import montecarlo
from spdecov.advdiff import advdiff_operators
from spdecov.montecarlo import (
    JACKKNIFE_CHUNK_BYTES,
    _batch_paths,
    _chol_with_jitter,
    _jackknife_distances,
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
    "cfg, operators, single",
    [
        (_advdiff_cfg(), advdiff_operators, sample_path_advdiff),
        (_advdiff_cfg(K0=0.5 * np.eye(9)), advdiff_operators, sample_path_advdiff),
        (_wave_cfg(), wave_operators, sample_path_wave),
        (_wave_cfg(K0=0.5 * np.eye(14)), wave_operators, sample_path_wave),
    ],
    ids=["advdiff", "advdiff-K0", "wave", "wave-K0"],
)


@BATCH_CASES
def test_batch_of_five_equals_five_batches_of_one(cfg, operators, single):
    # each row consumes only its own stream. The single-path samplers are
    # batches of one, which go through BLAS's one-column kernels (gemv,
    # and trsv in the LU solve) and round differently from the
    # many-column ones, so they agree to rounding; splitting into
    # batches of two and three keeps the many-column kernels and must
    # agree bit for bit
    ops = operators(cfg)
    keys = _philox_keys(42, 5)
    X = _batch_paths(cfg, ops, keys)
    ones = np.array([single(cfg, s) for s in np.random.SeedSequence(42).spawn(5)])
    assert_allclose(X, ones, rtol=0.0, atol=1e-13)
    split = np.vstack(
        [_batch_paths(cfg, ops, keys[:2]), _batch_paths(cfg, ops, keys[2:])]
    )
    assert np.array_equal(X, split)


def _loop_batch_paths(config, ops, seeds):
    """The sampler before re-keying: one Generator(Philox(child)) per path."""
    n = ops.M.shape[0]
    n_state = ops.L_inv.shape[0]
    chol = _chol_with_jitter(ops.Q_h)
    K0 = config.K0
    root_K0 = None if K0 is None else psd_sqrt(np.asarray(K0, dtype=float))
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
    load = np.sqrt(config.dt) * (ops.L_inv[:, -n:] @ chol)
    for j in range(config.n_steps):
        X = T @ X + load @ xi[j].T
    return X.T


@BATCH_CASES
def test_rekeyed_batch_equals_spawned_generators(cfg, operators, single):
    # re-keying one Philox must reproduce the spawned children's draws
    # bit for bit, the K0 draw included
    ops = operators(cfg)
    X = _batch_paths(cfg, ops, _philox_keys(42, 5))
    ref = _loop_batch_paths(cfg, ops, np.random.SeedSequence(42).spawn(5))
    assert np.array_equal(X, ref)


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
    root_M = psd_sqrt(M)
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
    chunk = max(1, JACKKNIFE_CHUNK_BYTES // (8 * d * d))
    assert n_samples > chunk and n_samples % chunk != 0

    seen = {}

    def spy(samples, root_M, K_det):
        seen["args"] = (samples, K_det)
        seen["out"] = _jackknife_distances(samples, root_M, K_det)
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200], ids=["nan", "inf", "overflow"])
def test_jackknife_rejects_non_finite_stack(bad):
    samples = np.random.default_rng(0).standard_normal((10, 3))
    samples[4, 1] = bad
    with pytest.raises(NumericalError, match="non-finite"):
        _jackknife_distances(samples, np.eye(3), np.eye(3))


def test_single_path_deterministic():
    cfg = _advdiff_cfg()
    x1 = sample_path_advdiff(cfg, 123)
    x2 = sample_path_advdiff(cfg, 123)
    assert np.array_equal(x1, x2)
    assert not np.array_equal(x1, sample_path_advdiff(cfg, 124))


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
    x = sample_path_advdiff(cfg, 3)
    assert np.all(np.isfinite(x))


def test_zero_noise_raises_cholesky_error():
    cfg = _advdiff_cfg(kernel=Custom(q=lambda x, y: 0.0))
    with pytest.raises(CholeskyError):
        sample_path_advdiff(cfg, 3)
