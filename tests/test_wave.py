import numpy as np
import pytest
from numpy.testing import assert_allclose

from spdecov import (
    Custom,
    Exponential,
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
from spdecov.exceptions import ConfigError, NumericalError
from spdecov.linalg import symmetrize
from spdecov.spectral import _project_noise, eigenvalues
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
    # L = [[1/3, -1/6], [2, 1/3]] at dt = 1, det L = 4/9, so the
    # velocity column of L^{-1} is [0.375; 0.75]
    load = _cn_one_dof(None, 1.0).load
    assert_allclose(load, [[0.375], [0.75]], atol=1e-15)


def _block_reference(M, S, G_h, dt):
    """T_hat = L^{-1} R P and the load L^{-1}[:, n:] from the 2n x 2n blocks."""
    n = M.shape[0]
    half = 0.5 * dt
    L = np.block([[M, -half * M], [half * S, M]])
    R = np.block([[M, half * M], [-half * S, M]])
    P = np.eye(2 * n)
    if G_h is not None:
        P[n:, :n] = dt * np.linalg.solve(M, G_h)
    return np.linalg.solve(L, R @ P), np.linalg.inv(L)[:, n:]


@pytest.mark.parametrize("n_cells", [4, 16, 128])
@pytest.mark.parametrize("perturbed", [False, True], ids=["G0", "minus_q"])
def test_block_elimination_matches_block_solve(n_cells, perturbed):
    mesh = Mesh1D(n_cells, "dirichlet")
    M = assemble_mass(mesh)
    S = assemble_stiffness(mesh)
    Q_h = assemble_Q(mesh, Exponential(2.0))
    G_h = -Q_h if perturbed else None
    dt = 1.0 / n_cells
    ops = crank_nicolson_step(M, S, Q_h, G_h, dt)
    T_ref, load_ref = _block_reference(M, S, G_h, dt)
    assert ops.load.shape == (2 * mesh.n_dof, mesh.n_dof)
    assert_allclose(ops.step.T, T_ref, rtol=0, atol=1e-11 * np.abs(T_ref).max())
    assert_allclose(ops.load, load_ref, rtol=0, atol=1e-11 * np.abs(load_ref).max())


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


@pytest.mark.parametrize(
    "K0, match",
    [
        (np.eye(6) + 0.5 * np.eye(6, k=4), "K0 is not symmetric"),
        (np.diag([1.0, 1.0, np.inf, 1.0, 1.0, 1.0]), "K0 has non-finite"),
    ],
    ids=["nonsymmetric", "inf"],
)
def test_config_refuses_a_bad_initial_covariance(K0, match):
    # the sampler and the recursion share this one check of K0
    with pytest.raises(ValueError, match=match):
        WaveConfig(
            mesh=Mesh1D(4, "dirichlet"), kernel=WhiteNoise(), g_spec="zero",
            T=1.0, n_steps=4, K0=K0,
        )


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


@pytest.mark.parametrize("n_steps", [2.5, 2.0, True])
def test_config_needs_an_integer_step_count(n_steps):
    # a float count used to pass and fail later in propagate
    with pytest.raises(ValueError, match="integer n_steps"):
        WaveConfig(
            mesh=Mesh1D(2, "dirichlet"), kernel=WhiteNoise(), g_spec="zero",
            T=1.0, n_steps=n_steps,
        )


def test_config_rejects_a_non_kernel():
    # None used to pass and fail later with AttributeError in assemble_Q
    with pytest.raises(ValueError, match="kernel must be a Kernel"):
        WaveConfig(mesh=Mesh1D(2, "dirichlet"), kernel=None, T=1.0, n_steps=1)


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


def _lu_operators(M, S, Q_h, G_h, dt):
    """T_hat, Q and the load of the eliminated blocks by dense LU solves."""
    n = M.shape[0]
    a = 0.5 * dt
    B = np.linalg.inv(M + a * a * S)
    C = B @ S
    eye = np.eye(n)
    E = eye - 2 * a * a * C
    T_hat = np.block([[E, 2 * a * (eye - a * a * C)], [-2 * a * C, E]])
    if G_h is not None:
        T_hat[:, :n] += T_hat[:, n:] @ (dt * np.linalg.solve(M, G_h))
    Q = np.zeros((2 * n, 2 * n))
    Q[n:, n:] = dt * symmetrize(np.linalg.solve(M, np.linalg.solve(M, Q_h).T))
    return T_hat, Q, np.vstack([a * B, B])


def _check_against_lu(M, S, Q_h, G_h, dt, rtol):
    ops = crank_nicolson_step(M, S, Q_h, G_h, dt)
    want = _lu_operators(M, S, Q_h, G_h, dt)
    for got, want in zip((ops.step.T, ops.step.Q, ops.load), want):
        assert got.shape == want.shape
        gap = np.abs(got - want).max()
        assert gap <= rtol * np.abs(want).max(), gap


def _g_h(name, Q_h):
    if name == "matrix":
        return np.random.default_rng(len(Q_h)).standard_normal(Q_h.shape)
    return None if name == "zero" else -Q_h


# at dt = 1 kappa(M + a^2 S) reaches about 3e6 at 1023 DoF, and the LU
# reference carries rounding of that order itself
_DT_RTOL = {"h^2": 1e-13, "h": 1e-13, "1": 1e-11}


@pytest.mark.parametrize("dt", sorted(_DT_RTOL))
@pytest.mark.parametrize(
    "n_dof, g",
    # at 1023 DoF one G_h keeps the LU reference affordable
    [(n, g) for n in (1, 2, 3, 8, 63, 127) for g in ("zero", "minus_q", "matrix")]
    + [(1023, "minus_q")],
)
def test_operators_match_dense_lu(n_dof, g, dt):
    mesh = Mesh1D(n_dof + 1, "dirichlet")
    M, S = assemble_mass(mesh), assemble_stiffness(mesh)
    Q_h = assemble_Q(mesh, Exponential(2.0))
    step = {"h^2": mesh.h**2, "h": mesh.h, "1": 1.0}[dt]
    _check_against_lu(M, S, Q_h, _g_h(g, Q_h), step, _DT_RTOL[dt])


@pytest.mark.parametrize("dt", [1e-4, 1e-2, 1.0])
@pytest.mark.parametrize("g", ["zero", "minus_q"])
def test_spectral_operators_match_dense_lu(g, dt):
    # the oracle's eigenbasis operators: M = I and a diagonal S
    n = 64
    Q = _project_noise(n, Matern(sigma=2.0, nu=0.5, rho=0.3))
    _check_against_lu(np.eye(n), np.diag(eigenvalues(n)), Q, _g_h(g, Q), dt, 1e-13)


def _perturbed(A, i, j, value):
    A = A.copy()
    A[i, j] += value
    return A


@pytest.mark.parametrize("which", ["M", "S"])
@pytest.mark.parametrize(
    "change, match",
    [
        # an entry two off the diagonal, and one of the two off-diagonals
        (lambda A: _perturbed(A, 0, 2, 1e-3 * A[0, 0]), "not tridiagonal"),
        (lambda A: _perturbed(A, 1, 2, 1e-3 * A[0, 0]), "not symmetric"),
        (lambda A: A[:, :-1], "square"),
        (lambda A: _perturbed(A, 1, 1, np.nan), "non-finite"),
    ],
    ids=["band", "asymmetric", "shape", "nan"],
)
def test_cn_step_refuses_what_is_not_symmetric_tridiagonal(which, change, match):
    mesh = Mesh1D(6, "dirichlet")
    mats = {"M": assemble_mass(mesh), "S": assemble_stiffness(mesh)}
    mats[which] = change(mats[which])
    with pytest.raises(ConfigError, match=match):
        crank_nicolson_step(mats["M"], mats["S"], np.eye(5), None, 0.1)


def test_cn_step_refuses_mismatched_m_and_s():
    M, S = assemble_mass(Mesh1D(6)), assemble_stiffness(Mesh1D(5))
    with pytest.raises(ConfigError, match="does not match"):
        crank_nicolson_step(M, S, np.eye(5), None, 0.1)


def test_cn_step_refuses_an_indefinite_mass_matrix():
    M = -assemble_mass(Mesh1D(6))
    with pytest.raises(NumericalError, match="Cholesky pivot .* not positive"):
        crank_nicolson_step(M, np.zeros_like(M), np.eye(5), None, 0.1)
