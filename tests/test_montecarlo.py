import numpy as np
import pytest
from numpy.testing import assert_allclose

from spdecov import (
    AdvDiffConfig,
    BrownianBridge,
    CholeskyError,
    Coefficients,
    Custom,
    McConfig,
    Mesh1D,
    TooFewSamplesError,
    WaveConfig,
    WhiteNoise,
    advdiff_run,
    assemble_mass,
    empirical_cov,
    mc_validate,
    sample_path_advdiff,
    sample_path_wave,
)
from spdecov.advdiff import advdiff_operators
from spdecov.montecarlo import _batch_paths
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


def test_batch_rows_equal_single_paths_advdiff():
    # row i of the batch consumes the i-th spawned stream, so it must
    # reproduce the single-path sampler up to BLAS rounding
    cfg = _advdiff_cfg()
    X = _batch_paths(cfg, advdiff_operators(cfg), 5, seed=42)
    children = np.random.SeedSequence(42).spawn(5)
    singles = np.array([sample_path_advdiff(cfg, c) for c in children])
    assert_allclose(X, singles, atol=1e-13)


def test_batch_rows_equal_single_paths_wave():
    cfg = _wave_cfg()
    X = _batch_paths(cfg, wave_operators(cfg), 5, seed=7)
    children = np.random.SeedSequence(7).spawn(5)
    singles = np.array([sample_path_wave(cfg, c) for c in children])
    assert_allclose(X, singles, atol=1e-13)


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
