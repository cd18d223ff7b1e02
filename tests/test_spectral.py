from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spdecov import (
    AdvDiffConfig,
    BrownianBridge,
    Coefficients,
    ConfigError,
    Mesh1D,
    WaveConfig,
    WhiteNoise,
    cov_l2_distance,
    eigenvalues,
    heat_cov_closed_form,
    midpoint_rule,
    modal_cov_function,
    nodal_cov_function,
    spectral_galerkin_cov,
    wave_cov_closed_form,
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


def test_modal_cov_diag_equals_full():
    x = np.linspace(0.05, 0.95, 7)
    var = np.array([0.3, 0.1, 0.05])
    assert_allclose(modal_cov_function(var, x), modal_cov_function(np.diag(var), x))


def test_nodal_cov_cardinal_at_nodes():
    mesh = Mesh1D(4, "dirichlet")
    rng = np.random.default_rng(5)
    K = rng.standard_normal((3, 3))
    K = K + K.T
    assert_allclose(nodal_cov_function(K, mesh, mesh.dof_nodes), K, atol=1e-14)


def test_midpoint_rule_weights():
    x, w = midpoint_rule(8)
    assert x.shape == (8,)
    assert w.sum() == pytest.approx(1.0)
    assert x[0] == pytest.approx(1.0 / 16.0)


def test_cov_l2_distance_values():
    x, w = midpoint_rule(32)
    ones = np.ones((32, 32))
    assert cov_l2_distance(ones, ones, w) == 0.0
    assert cov_l2_distance(ones, np.zeros_like(ones), w) == pytest.approx(1.0)


def test_spectral_closed_form_crosscheck_l2():
    # modal covariance of the fine spectral run vs the closed form, as
    # covariance functions on the comparison grid; the white-noise time
    # error contributes ~ dt * q / 4 per mode, so the distance is O(dt)
    n = 8
    x, w = midpoint_rule(256)
    C2 = modal_cov_function(heat_cov_closed_form(n, 1.0), x)
    ref = cov_l2_distance(C2, np.zeros_like(C2), w)
    d = {}
    for dt in (1e-3, 5e-4):
        K = spectral_galerkin_cov(n, _heat_config(), fine_dt=dt)
        d[dt] = cov_l2_distance(modal_cov_function(K, x), C2, w)
    assert d[1e-3] <= 2e-2 * ref
    assert d[1e-3] / d[5e-4] == pytest.approx(2.0, abs=0.2)


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
