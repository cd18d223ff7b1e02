import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spdecov import (
    AdvDiffConfig,
    BrownianBridge,
    Coefficients,
    ConfigError,
    Exponential,
    Mesh1D,
    WaveConfig,
    WhiteNoise,
    advdiff_run,
    eigenvalues,
    err_hs_norm,
    extract_position_cov,
    hat_values,
    heat_cov_closed_form,
    levels_from_exponents,
    modal_hs_distance,
    spectral_galerkin_cov,
    wave_cov_closed_form,
    wave_run,
)
from spdecov.spectral import eigenfunction_values


def _composite_gauss(cells=64, order=8):
    xg, wg = np.polynomial.legendre.leggauss(order)
    h = 1.0 / cells
    left = np.arange(cells) * h
    pts = (left[:, None] + 0.5 * h * (xg[None, :] + 1.0)).ravel()
    wts = np.tile(0.5 * h * wg, cells)
    return pts, wts


def test_eigenvalues():
    assert_allclose(eigenvalues(3), [np.pi**2, 4 * np.pi**2, 9 * np.pi**2])


def test_eigenfunctions_orthonormal():
    pts, wts = _composite_gauss()
    E = eigenfunction_values(12, pts)
    G = E.T @ (E * wts[:, None])
    assert_allclose(G, np.eye(12), atol=1e-12)


def test_heat_closed_form_first_mode():
    # (1 - exp(-2 pi^2)) / (2 pi^2) = 0.05066057...
    v = heat_cov_closed_form(1, 1.0)
    assert v[0] == pytest.approx(0.0506606, abs=1e-6)
    expected = (1.0 - np.exp(-2.0 * np.pi**2)) / (2.0 * np.pi**2)
    assert v[0] == pytest.approx(expected, rel=1e-14)


def test_wave_closed_form_first_mode():
    # sin(2 pi) vanishes, leaving exactly (1/2) / pi^2
    v = wave_cov_closed_form(1, 1.0)
    assert v[0] == pytest.approx(0.5 / np.pi**2, rel=1e-14)
    assert v[0] == pytest.approx(0.0506606, abs=1e-6)


def test_closed_forms_q_diag_scaling():
    q = np.array([2.0, 3.0, 0.5])
    assert_allclose(
        heat_cov_closed_form(3, 1.0, q_diag=q), q * heat_cov_closed_form(3, 1.0)
    )
    assert_allclose(
        wave_cov_closed_form(3, 1.0, q_diag=q), q * wave_cov_closed_form(3, 1.0)
    )


def _heat_config(n_cells=4, n_steps=8):
    return AdvDiffConfig(
        mesh=Mesh1D(n_cells, "dirichlet"),
        coeffs=Coefficients.constant(a11=1.0),
        c0=0.0,
        kernel=WhiteNoise(),
        T=1.0,
        n_steps=n_steps,
    )


def test_spectral_heat_is_diagonal():
    # constant-coefficient heat decouples: modal covariance stays diagonal
    K = spectral_galerkin_cov(6, _heat_config(), fine_dt=1e-2)
    off = K - np.diag(np.diag(K))
    assert np.abs(off).max() <= 1e-10


def test_spectral_heat_be_deficit_first_order():
    # backward Euler under-shoots each modal variance by ~ dt * lambda / 2,
    # so the gap to the closed form halves when the fine step halves
    exact = heat_cov_closed_form(4, 1.0)
    lam = eigenvalues(4)
    gap = {}
    for dt in (2e-3, 1e-3):
        K = spectral_galerkin_cov(4, _heat_config(), fine_dt=dt)
        gap[dt] = np.abs(np.diag(K) - exact) / exact
        scaled = gap[dt] / (dt * lam)
        assert np.all((0.40 < scaled) & (scaled < 0.52))
    ratios = gap[2e-3] / gap[1e-3]
    assert_allclose(ratios, 2.0, atol=0.15)


def _wave_config(g_spec="zero", n_steps=8):
    return WaveConfig(
        mesh=Mesh1D(4, "dirichlet"),
        kernel=WhiteNoise(),
        T=1.0,
        n_steps=n_steps,
        g_spec=g_spec,
    )


def test_spectral_wave_matches_closed_form():
    n = 4
    K = spectral_galerkin_cov(n, _wave_config(), fine_dt=1e-3)
    exact = wave_cov_closed_form(n, 1.0)
    rel = np.abs(np.diag(K[:n, :n]) - exact) / exact
    # Crank-Nicolson at dt = 1e-3 resolves these modes to ~1e-5
    assert rel.max() <= 1e-4


def test_spectral_wave_minus_q_changes_position_block():
    n = 3
    K0 = spectral_galerkin_cov(n, _wave_config("zero"), fine_dt=1e-2)
    K1 = spectral_galerkin_cov(n, _wave_config("minus_q"), fine_dt=1e-2)
    assert np.abs(K1[:n, :n] - K0[:n, :n]).max() > 1e-4


def test_spectral_closed_form_crosscheck_l2():
    # the fine spectral run vs the closed form in the HS norm, which is
    # the Frobenius norm of the coefficients in the orthonormal
    # eigenbasis; the white-noise time error contributes ~ dt * q / 4
    # per mode, so the distance is O(dt)
    n = 8
    exact = heat_cov_closed_form(n, 1.0)
    d = {}
    for dt in (1e-3, 5e-4):
        K = spectral_galerkin_cov(n, _heat_config(), fine_dt=dt)
        d[dt] = np.linalg.norm(K - np.diag(exact))
    assert d[1e-3] <= 2e-2 * np.linalg.norm(exact)
    assert d[1e-3] / d[5e-4] == pytest.approx(2.0, abs=0.2)


def _wave_oracle_case(j=4, n_modes=64):
    """FEM wave position covariance at h = dt = 2^-j, and its closed form."""
    n_cells, n_steps = levels_from_exponents([j], "equal")[0]
    cfg = replace(_wave_config(), mesh=Mesh1D(n_cells), n_steps=n_steps)
    K = extract_position_cov(wave_run(cfg))
    return K, cfg.mesh, wave_cov_closed_form(n_modes, 1.0)


def test_modal_hs_distance_zero_operands():
    K, mesh, var = _wave_oracle_case()
    assert modal_hs_distance(0 * K, mesh, var) == pytest.approx(
        np.linalg.norm(var), rel=1e-14
    )
    assert modal_hs_distance(K, mesh, 0 * var) == pytest.approx(
        err_hs_norm(K, mesh, 0 * K, mesh), rel=1e-12
    )


def test_modal_hs_distance_diag_equals_full():
    K, mesh, var = _wave_oracle_case()
    assert modal_hs_distance(K, mesh, var) == pytest.approx(
        modal_hs_distance(K, mesh, np.diag(var)), rel=1e-12
    )


def _grid_hs_distance(K, mesh, var, m):
    """The HS distance on an m-point midpoint grid of covariance functions.

    Both functions are F G F^T on the grid, with F the hats and sines at
    the points and G = blockdiag(K, -diag(var)), so the grid's squared
    distance is trace((G H)^2) with H = F^T F / m.
    """
    x = (np.arange(m) + 0.5) / m
    F = np.hstack([hat_values(mesh, x), eigenfunction_values(len(var), x)])
    n = K.shape[0]
    G = np.zeros((n + len(var), n + len(var)))
    G[:n, :n] = K
    G[n:, n:] = -np.diag(var)
    GH = G @ (F.T @ F / m)
    return math.sqrt(np.sum(GH * GH.T))


def test_modal_hs_distance_matches_midpoint_grid():
    # the grid's integrand is smooth on every grid cell, so the midpoint
    # rule's gap falls as m^-2
    K, mesh, var = _wave_oracle_case()
    exact = modal_hs_distance(K, mesh, var)
    gaps = [
        abs(_grid_hs_distance(K, mesh, var, m) / exact - 1.0)
        for m in (2048, 4096, 8192)
    ]
    assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.05)
    assert gaps[1] / gaps[2] == pytest.approx(4.0, rel=0.05)
    assert gaps[2] <= 1e-6


def test_fem_heat_approaches_spectral_galerkin():
    # advection couples the modes, so the oracle's V is a full matrix;
    # at dt = h^2 both the space and the time error fall like h^2
    coeffs = Coefficients(
        a11=lambda x: np.full_like(x, 1.0),
        a1=lambda x: np.sin(2.0 * np.pi * x),
        a0=lambda x: np.zeros_like(x),
        lambda0=1.0,
    )
    cfg = replace(_heat_config(), coeffs=coeffs, kernel=Exponential(1.0), T=0.25)
    V = spectral_galerkin_cov(64, cfg, fine_dt=2.5e-5)
    assert np.linalg.norm(V - np.diag(np.diag(V))) > 0.05 * np.linalg.norm(V)
    dists = []
    for n_cells, n_steps in levels_from_exponents([3, 4, 5], "sqrt", cfg.T):
        level = replace(cfg, mesh=Mesh1D(n_cells), n_steps=n_steps)
        dists.append(modal_hs_distance(advdiff_run(level), level.mesh, V))
    assert dists[0] / dists[1] > 3.0 and dists[1] / dists[2] > 3.0


def test_modal_hs_distance_bad_input():
    mesh = Mesh1D(4)
    K, var = np.eye(3), np.ones(5)
    with pytest.raises(ConfigError, match="dirichlet"):
        modal_hs_distance(np.eye(5), Mesh1D(4, "neumann"), var)
    with pytest.raises(ConfigError, match="K shape"):
        modal_hs_distance(np.eye(4), mesh, var)
    for V in (np.ones((5, 4)), np.ones((2, 2, 2)), np.float64(1.0)):
        with pytest.raises(ConfigError, match="V must be"):
            modal_hs_distance(K, mesh, V)


def test_config_gates():
    with pytest.raises(ConfigError):
        spectral_galerkin_cov(0, _heat_config(), 1e-2)
    with pytest.raises(ConfigError):
        spectral_galerkin_cov(257, _heat_config(), 1e-2)
    neumann = AdvDiffConfig(
        mesh=Mesh1D(4, "neumann"),
        coeffs=Coefficients.constant(a11=1.0),
        c0=0.0,
        kernel=WhiteNoise(),
        T=1.0,
        n_steps=4,
    )
    with pytest.raises(ConfigError):
        spectral_galerkin_cov(4, neumann, 1e-2)
    with_k0 = AdvDiffConfig(
        mesh=Mesh1D(4, "dirichlet"),
        coeffs=Coefficients.constant(a11=1.0),
        c0=0.0,
        kernel=WhiteNoise(),
        T=1.0,
        n_steps=4,
        K0=np.eye(3),
    )
    with pytest.raises(ConfigError):
        spectral_galerkin_cov(4, with_k0, 1e-2)
    gram = WaveConfig(
        mesh=Mesh1D(4, "dirichlet"),
        kernel=WhiteNoise(),
        T=1.0,
        n_steps=4,
        g_spec=np.zeros((3, 3)),
    )
    with pytest.raises(ConfigError):
        spectral_galerkin_cov(4, gram, 1e-2)
    # a nested list is an explicit Gram too, not G = 0
    with pytest.raises(ConfigError):
        spectral_galerkin_cov(4, replace(gram, g_spec=np.eye(3).tolist()), 1e-2)


def test_brownian_bridge_noise_projection():
    # Q is the inverse Laplacian, diagonal 1/lambda_k in this basis; one
    # heat run with bridge noise must match the closed form with q = 1/lambda
    n = 4
    cfg = AdvDiffConfig(
        mesh=Mesh1D(4, "dirichlet"),
        coeffs=Coefficients.constant(a11=1.0),
        c0=0.0,
        kernel=BrownianBridge(),
        T=1.0,
        n_steps=4,
    )
    dt = 5e-4
    K = spectral_galerkin_cov(n, cfg, fine_dt=dt)
    lam = eigenvalues(n)
    exact = heat_cov_closed_form(n, 1.0, q_diag=1.0 / lam)
    rel = np.abs(np.diag(K) - exact) / exact
    scaled = rel / (dt * lam)
    assert np.all((0.45 < scaled) & (scaled < 0.52))


@pytest.mark.parametrize("fine_dt", [0.0, -1.0, float("nan"), float("inf")])
def test_galerkin_refuses_a_bad_fine_dt(fine_dt):
    # unchecked, 0 divides by zero, nan fails in round(), and -1 and inf
    # round to a single step
    with pytest.raises(ConfigError, match="fine_dt must be finite and positive"):
        spectral_galerkin_cov(4, _heat_config(), fine_dt)
