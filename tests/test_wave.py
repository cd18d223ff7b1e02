import numpy as np
import pytest
from numpy.testing import assert_allclose

from spdecov import (
    Custom,
    Matern,
    Mesh1D,
    WaveConfig,
    WhiteNoise,
    assemble_mass,
    assemble_Q,
    assemble_stiffness,
    extract_position_cov,
    wave_energy,
    wave_run,
)
from spdecov.wave import crank_nicolson_step
from stepping import iterates, stepped_run


def _zero_kernel():
    return Custom(
        q=lambda x, y: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))
    )


def _cn_one_dof(G_h, dt):
    # M = 1/3, S = 4, no noise
    return crank_nicolson_step(
        np.array([[1.0 / 3.0]]), np.array([[4.0]]), np.zeros((1, 1)), G_h, dt
    )


def test_cn_blocks_one_dof():
    # L = [[1/3, -1/6], [2, 1/3]] at dt = 1, det L = 4/9
    L_inv = _cn_one_dof(None, 1.0).L_inv
    assert_allclose(L_inv, [[0.75, 0.375], [-4.5, 0.75]], atol=1e-15)


def test_cn_propagator_one_dof():
    Tc = _cn_one_dof(None, 1.0).step.T
    assert_allclose(Tc, [[-0.5, 0.25], [-3.0, -0.5]], atol=1e-12)
    assert abs(np.linalg.det(Tc) - 1.0) <= 1e-12
    assert_allclose(np.abs(np.linalg.eigvals(Tc)), [1.0, 1.0], atol=1e-12)


def test_cn_determinant_on_assembled_meshes():
    for n_cells, dt in ((4, 0.25), (9, 0.1), (16, 1.0 / 16.0)):
        mesh = Mesh1D(n_cells, "dirichlet")
        M = assemble_mass(mesh)
        S = assemble_stiffness(mesh)
        Tc = crank_nicolson_step(M, S, np.zeros_like(M), None, dt).step.T
        sign, logdet = np.linalg.slogdet(Tc)
        assert sign == 1.0
        assert abs(logdet) <= 1e-8


def test_perturbation_one_dof():
    # G_h = -1/3 at dt = 1/2: L^{-1} R = [[1/7, 2/7], [-24/7, 1/7]] times
    # P = [[1, 0], [dt M^{-1} G_h, 1]] = [[1, 0], [-1/2, 1]]
    Tc = _cn_one_dof(np.array([[-1.0 / 3.0]]), 0.5).step.T
    assert_allclose(Tc, [[0.0, 2.0 / 7.0], [-3.5, 1.0 / 7.0]], atol=1e-15)


def test_one_step_noise_shape():
    # from zero data the first step holds pure noise: position block
    # stays zero, velocity block is dt * M^{-1} Q M^{-T} = 3
    cfg = WaveConfig(
        mesh=Mesh1D(2, "dirichlet"),
        kernel=WhiteNoise(),
        g_spec="zero",
        T=1.0,
        n_steps=1,
    )
    K = wave_run(cfg)
    assert_allclose(K, [[0.0, 0.0], [0.0, 3.0]], atol=1e-13)
    assert_allclose(extract_position_cov(K), [[0.0]], atol=0)


def test_position_block_fills_in_two_steps():
    cfg = WaveConfig(
        mesh=Mesh1D(2, "dirichlet"),
        kernel=WhiteNoise(),
        g_spec="zero",
        T=1.0,
        n_steps=2,
    )
    K = wave_run(cfg)
    assert extract_position_cov(K)[0, 0] > 0.0


def test_minus_q_equals_explicit_gram():
    mesh = Mesh1D(6, "dirichlet")
    kern = Matern(sigma=2.0, nu=0.5, rho=0.3)
    G = -assemble_Q(mesh, kern)
    K_named = wave_run(
        WaveConfig(mesh=mesh, kernel=kern, g_spec="minus_q", T=0.5, n_steps=8)
    )
    K_explicit = wave_run(
        WaveConfig(mesh=mesh, kernel=kern, g_spec=G, T=0.5, n_steps=8)
    )
    assert np.array_equal(K_named, K_explicit)


def test_energy_conserved_noiseless():
    # tr(S Kuu) + tr(M Kvv) is invariant under the unperturbed CN step
    mesh = Mesh1D(8, "dirichlet")
    n = mesh.n_dof
    rng = np.random.default_rng(14)
    B = rng.standard_normal((2 * n, 2 * n))
    K0 = B @ B.T
    cfg = WaveConfig(
        mesh=mesh,
        kernel=_zero_kernel(),
        g_spec="zero",
        T=10.0,
        n_steps=1000,
        K0=K0,
    )
    M = assemble_mass(mesh)
    S = assemble_stiffness(mesh)
    e0 = wave_energy(K0, M, S)
    energies = [wave_energy(K, M, S) for K in iterates(cfg)]
    assert len(energies) == 1000
    drift = np.abs(np.asarray(energies) - e0).max()
    assert drift <= 1e-6 * abs(e0)


def test_perturbed_run_not_conservative():
    # sanity guard: with G = -Q the damping must actually bite
    mesh = Mesh1D(4, "dirichlet")
    kern = WhiteNoise()
    n = mesh.n_dof
    K0 = np.eye(2 * n)
    M = assemble_mass(mesh)
    S = assemble_stiffness(mesh)
    cfg = WaveConfig(
        mesh=mesh, kernel=kern, g_spec="minus_q", T=1.0, n_steps=64, K0=K0
    )
    # remove the driving noise but keep the perturbation: G explicit
    cfg2 = WaveConfig(
        mesh=mesh,
        kernel=_zero_kernel(),
        g_spec=-assemble_Q(mesh, kern),
        T=1.0,
        n_steps=64,
        K0=K0,
    )
    e0 = wave_energy(K0, M, S)
    assert wave_energy(stepped_run(cfg2), M, S) != pytest.approx(e0, rel=1e-9)


def test_config_validation():
    mesh = Mesh1D(2, "dirichlet")
    with pytest.raises(ValueError):
        WaveConfig(mesh=Mesh1D(2, "neumann"), kernel=WhiteNoise(), g_spec="zero", T=1.0, n_steps=1)
    with pytest.raises(ValueError):
        WaveConfig(mesh=mesh, kernel=WhiteNoise(), g_spec="bogus", T=1.0, n_steps=1)
    with pytest.raises(ValueError):
        WaveConfig(mesh=mesh, kernel=WhiteNoise(), g_spec="zero", T=1.0, n_steps=1, K0=np.zeros((1, 1)))


def test_explicit_g_spec_shape_checked():
    mesh = Mesh1D(4, "dirichlet")
    for G in (np.zeros((4, 4)), np.zeros(3), np.zeros((3, 4))):
        with pytest.raises(ValueError, match="g_spec shape"):
            WaveConfig(mesh=mesh, kernel=WhiteNoise(), g_spec=G, T=1.0, n_steps=4)


def test_explicit_g_spec_must_be_finite():
    mesh = Mesh1D(8, "dirichlet")
    for bad in (np.full((7, 7), np.nan), np.diag([np.inf] + [0.0] * 6)):
        with pytest.raises(ValueError, match="non-finite"):
            WaveConfig(mesh=mesh, kernel=WhiteNoise(), g_spec=bad, T=1.0, n_steps=4)


def test_config_rejects_non_finite_T():
    with pytest.raises(ValueError, match="finite T"):
        WaveConfig(
            mesh=Mesh1D(2, "dirichlet"), kernel=WhiteNoise(), g_spec="zero",
            T=np.nan, n_steps=1,
        )


def test_run_symmetric_and_psd():
    mesh = Mesh1D(10, "dirichlet")
    cfg = WaveConfig(
        mesh=mesh,
        kernel=Matern(sigma=10.0, nu=0.01, rho=0.1),
        g_spec="minus_q",
        T=1.0,
        n_steps=32,
    )
    K = wave_run(cfg)
    assert np.array_equal(K, K.T)
    ev = np.linalg.eigvalsh(K)
    assert ev.min() >= -1e-10 * max(ev.max(), 1.0)


@pytest.mark.parametrize("g_spec", ["zero", "minus_q"])
@pytest.mark.parametrize("with_K0", [False, True])
def test_doubling_matches_stepping(g_spec, with_K0):
    # wave_run evaluates the recursion by doubling; stepped_run steps it
    mesh = Mesh1D(6, "dirichlet")
    n2 = 2 * mesh.n_dof
    K0 = None
    if with_K0:
        B = np.random.default_rng(7).standard_normal((n2, n2))
        K0 = B @ B.T
    for n_steps in (1, 2, 3, 5, 8, 100):
        cfg = WaveConfig(
            mesh=mesh,
            kernel=Matern(sigma=2.0, nu=0.5, rho=0.3),
            g_spec=g_spec,
            T=1.0,
            n_steps=n_steps,
            K0=K0,
        )
        K = wave_run(cfg)
        K_step = stepped_run(cfg)
        assert np.array_equal(K, K.T)
        gap = np.abs(K - K_step).max()
        assert gap <= 1e-10 * np.abs(K_step).max(), (n_steps, gap)
