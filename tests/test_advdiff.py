import numpy as np
import pytest
from numpy.testing import assert_allclose

from spdecov import (
    AdvDiffConfig,
    Coefficients,
    Custom,
    Exponential,
    Mesh1D,
    WhiteNoise,
    advdiff_run,
    assemble_form,
    assemble_mass,
    assemble_Q,
    symmetrize,
)
from spdecov.linalg import _as_square, checked_inverse
from stepping import iterates, stepped_run


def congruence_solve(L, RHS):
    """Solve L X L^T = RHS for symmetric RHS.

    The one-step reference advdiff_step uses it with L = M + dt*A,
    factored outside any symmetry assumptions. X is symmetrized before
    return.

    Parameters
    ----------
    L : (n, n) array_like
        Invertible matrix.
    RHS : (n, n) array_like
        Symmetric right-hand side.

    Returns
    -------
    (n, n) ndarray
        Symmetrized solution X = L^{-1} RHS L^{-T}.

    Raises
    ------
    NumericalError
        If L is singular or its condition number exceeds 1e14.
    """
    L = _as_square(L, "L")
    RHS = _as_square(RHS, "RHS")
    if L.shape != RHS.shape:
        raise ValueError(f"shape mismatch: L {L.shape} vs RHS {RHS.shape}")
    L_inv = checked_inverse(L)
    return symmetrize(L_inv @ RHS @ L_inv.T)


def advdiff_step(K_prev, M, A, Q_h, dt, c0):
    """One backward Euler covariance step.

    Returns the symmetrized solution of
    (M + dt A) K (M + dt A)^T = (1 + 2 c0 dt) M K_prev M + dt Q_h.
    """
    RHS = (1.0 + 2.0 * c0 * dt) * (M @ K_prev @ M) + dt * Q_h
    return congruence_solve(M + dt * A, symmetrize(RHS))


def _scalar_config(T=0.5, n_steps=1, c0=0.0):
    return AdvDiffConfig(
        mesh=Mesh1D(2, "dirichlet"),
        coeffs=Coefficients.constant(a11=1.0),
        c0=c0,
        kernel=WhiteNoise(),
        T=T,
        n_steps=n_steps,
    )


def test_scalar_step_value():
    # M = 1/3, A = 4, Q = 1/3, dt = 1/2: K_1 = (dt*Q)/(M+dt*A)^2 = 3/98
    K = advdiff_run(_scalar_config())
    assert abs(K[0, 0] - 3.0 / 98.0) <= 1e-14


def test_congruence_solve_scalar_case():
    # L = M + dt*A = 1/3 + (1/2)*4 = 7/3; RHS = dt*Q_h = 1/6
    X = congruence_solve(np.array([[7.0 / 3.0]]), np.array([[1.0 / 6.0]]))
    assert_allclose(X[0, 0], 3.0 / 98.0, rtol=0, atol=1e-16)


def test_congruence_solve_roundtrip():
    rng = np.random.default_rng(3)
    L = rng.standard_normal((8, 8)) + 8.0 * np.eye(8)
    X = symmetrize(rng.standard_normal((8, 8)))
    RHS = L @ X @ L.T
    got = congruence_solve(L, RHS)
    assert_allclose(got, X, atol=1e-9 * np.abs(RHS).max())
    # post: residual gate
    assert np.abs(L @ got @ L.T - RHS).max() <= 1e-9 * np.abs(RHS).max()


def test_congruence_solve_output_symmetric():
    rng = np.random.default_rng(4)
    L = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
    RHS = symmetrize(rng.standard_normal((5, 5)))
    X = congruence_solve(L, RHS)
    assert_allclose(X, X.T, rtol=0, atol=0)


def test_step_matches_run_loop():
    cfg = _scalar_config(T=1.0, n_steps=4)
    M = assemble_mass(cfg.mesh)
    A = assemble_form(cfg.mesh, cfg.coeffs, cfg.c0)
    Q = assemble_Q(cfg.mesh, cfg.kernel)
    K = np.zeros((1, 1))
    for _ in range(4):
        K = advdiff_step(K, M, A, Q, cfg.dt, cfg.c0)
    K_run = stepped_run(cfg)
    assert_allclose(K, K_run, rtol=0, atol=1e-16)


def test_pure_accumulation_without_form():
    # A = 0 collapses the recursion to K_j = K_{j-1} + dt M^{-1} Q M^{-T};
    # with white noise that is K(T) = T * M^{-1}
    mesh = Mesh1D(6, "neumann")
    cfg = AdvDiffConfig(
        mesh=mesh,
        coeffs=Coefficients.constant(a11=0.0),
        c0=0.0,
        kernel=WhiteNoise(),
        T=1.0,
        n_steps=8,
    )
    K = advdiff_run(cfg)
    assert_allclose(K, np.linalg.inv(assemble_mass(mesh)), rtol=1e-12)


def test_growth_factor_applied_once_per_step():
    # one step from K0 with zero noise isolates the (1+2 c0 dt) factor
    mesh = Mesh1D(2, "dirichlet")
    K0 = np.array([[1.0]])
    zero = Custom(q=lambda x, y: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y))))
    cfg = AdvDiffConfig(
        mesh=mesh,
        coeffs=Coefficients.constant(a11=1.0),
        c0=0.25,
        kernel=zero,
        T=0.5,
        n_steps=1,
        K0=K0,
    )
    K = advdiff_run(cfg)
    # the form matrix carries the +c0 M shift, so A = 4 + c0/3 here
    M, dt = 1.0 / 3.0, 0.5
    A = 4.0 + 0.25 * M
    expected = (1.0 + 2.0 * 0.25 * dt) * (M * 1.0 * M) / (M + dt * A) ** 2
    assert abs(K[0, 0] - expected) <= 1e-15


def test_initial_condition_propagates():
    mesh = Mesh1D(5, "dirichlet")
    rng = np.random.default_rng(2)
    B = rng.standard_normal((4, 4))
    K0 = B @ B.T
    zero = Custom(q=lambda x, y: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y))))
    cfg = AdvDiffConfig(
        mesh=mesh,
        coeffs=Coefficients.constant(a11=1.0),
        c0=0.0,
        kernel=zero,
        T=0.1,
        n_steps=1,
        K0=K0,
    )
    M = assemble_mass(mesh)
    A = assemble_form(mesh, cfg.coeffs)
    expected = congruence_solve(M + cfg.dt * A, M @ K0 @ M)
    assert_allclose(advdiff_run(cfg), expected, atol=1e-15)


def test_run_symmetric_and_psd():
    mesh = Mesh1D(12, "neumann")
    coeffs = Coefficients(
        a11=lambda x: np.full_like(x, 4.0),
        a1=lambda x: np.sin(2.0 * np.pi * x),
        a0=lambda x: np.zeros_like(x),
        lambda0=4.0,
    )
    cfg = AdvDiffConfig(
        mesh=mesh, coeffs=coeffs, c0=0.125, kernel=WhiteNoise(), T=1.0, n_steps=32
    )
    K = advdiff_run(cfg)
    assert np.array_equal(K, K.T)
    ev = np.linalg.eigvalsh(K)
    assert ev.min() >= -1e-12 * max(ev.max(), 1.0)


def test_trace_monotone_from_zero_data():
    # K_j - K_{j-1} stays PSD when K_0 = 0, so traces cannot decrease
    mesh = Mesh1D(8, "dirichlet")
    cfg = AdvDiffConfig(
        mesh=mesh,
        coeffs=Coefficients.constant(a11=1.0),
        c0=0.0,
        kernel=WhiteNoise(),
        T=1.0,
        n_steps=16,
    )
    traces = [np.trace(K) for K in iterates(cfg)]
    assert len(traces) == 16
    assert np.all(np.diff(traces) >= -1e-13)


def test_first_order_in_dt_against_exact_ode():
    # single DoF: the recursion limits to K' = -(2A/M) K + q/M^2, solvable
    # in closed form, and backward Euler must approach it at rate dt
    mesh = Mesh1D(2, "dirichlet")
    M, A, q = 1.0 / 3.0, 4.0, 1.0 / 3.0
    gamma = -2.0 * A / M
    K_exact = (q / M**2) * (1.0 - np.exp(gamma)) / (-gamma)

    errs = []
    for n in (64, 128, 256, 512):
        cfg = AdvDiffConfig(
            mesh=mesh,
            coeffs=Coefficients.constant(a11=1.0),
            c0=0.0,
            kernel=WhiteNoise(),
            T=1.0,
            n_steps=n,
        )
        errs.append(abs(advdiff_run(cfg)[0, 0] - K_exact))
    ratios = [errs[i] / errs[i + 1] for i in range(3)]
    assert all(1.85 < r < 2.02 for r in ratios)
    assert errs[-1] <= 1.5e-3


def test_half_step_gaps_shrink_trace_class_noise():
    mesh = Mesh1D(8, "neumann")
    coeffs = Coefficients(
        a11=lambda x: np.full_like(x, 4.0),
        a1=lambda x: np.sin(2.0 * np.pi * x),
        a0=lambda x: np.zeros_like(x),
        lambda0=4.0,
    )

    def run(n_steps):
        return advdiff_run(
            AdvDiffConfig(
                mesh=mesh,
                coeffs=coeffs,
                c0=0.125,
                kernel=Exponential(2.0),
                T=1.0,
                n_steps=n_steps,
            )
        )

    Ks = [run(n) for n in (16, 32, 64, 128)]
    gaps = [np.abs(Ks[i] - Ks[i + 1]).max() for i in range(3)]
    ratios = [gaps[i] / gaps[i + 1] for i in range(2)]
    # pre-asymptotic on this mesh (the stiffest modes still see dt*lambda > 1)
    # so the halving ratio sits below 2 but clearly above sqrt(2)
    assert all(1.5 < r < 2.1 for r in ratios)
    assert gaps[0] > gaps[1] > gaps[2]


def test_config_validation():
    mesh = Mesh1D(2, "dirichlet")
    coeffs = Coefficients.constant(a11=1.0)
    with pytest.raises(ValueError):
        AdvDiffConfig(mesh=mesh, coeffs=coeffs, c0=0.0, kernel=WhiteNoise(), T=0.0, n_steps=1)
    with pytest.raises(ValueError):
        AdvDiffConfig(mesh=mesh, coeffs=coeffs, c0=0.0, kernel=WhiteNoise(), T=1.0, n_steps=0)
    with pytest.raises(ValueError):
        AdvDiffConfig(
            mesh=mesh, coeffs=coeffs, c0=0.0, kernel=WhiteNoise(), T=1.0,
            n_steps=1, K0=np.zeros((2, 2)),
        )
    with pytest.raises(ValueError):
        # dt must not exceed 1
        AdvDiffConfig(mesh=mesh, coeffs=coeffs, c0=0.0, kernel=WhiteNoise(), T=3.0, n_steps=2)


@pytest.mark.parametrize(
    "K0, match",
    [
        ([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "K0 is not symmetric"),
        (np.diag([1.0, np.nan, 1.0]), "K0 has non-finite"),
    ],
    ids=["nonsymmetric", "nan"],
)
def test_config_refuses_a_bad_initial_covariance(K0, match):
    # the sampler and the recursion share this one check of K0
    with pytest.raises(ValueError, match=match):
        AdvDiffConfig(
            mesh=Mesh1D(4, "dirichlet"), coeffs=Coefficients.constant(a11=1.0),
            c0=0.0, kernel=WhiteNoise(), T=1.0, n_steps=4, K0=K0,
        )


@pytest.mark.parametrize("n_steps", [2.5, 2.0, True])
def test_config_needs_an_integer_step_count(n_steps):
    # a float count used to pass and fail later in propagate
    with pytest.raises(ValueError, match="integer n_steps"):
        AdvDiffConfig(
            mesh=Mesh1D(2, "dirichlet"), coeffs=Coefficients.constant(a11=1.0),
            c0=0.0, kernel=WhiteNoise(), T=1.0, n_steps=n_steps,
        )


def test_config_rejects_non_coefficients():
    # None used to pass and fail later with AttributeError in assemble_form
    with pytest.raises(ValueError, match="coeffs must be Coefficients"):
        AdvDiffConfig(
            mesh=Mesh1D(2, "dirichlet"), coeffs=None, c0=0.0, kernel=WhiteNoise(),
            T=1.0, n_steps=1,
        )


def test_config_rejects_a_non_kernel():
    # None used to pass and fail later with AttributeError in assemble_Q
    with pytest.raises(ValueError, match="kernel must be a Kernel"):
        AdvDiffConfig(
            mesh=Mesh1D(2, "dirichlet"), coeffs=Coefficients.constant(a11=1.0),
            c0=0.0, kernel=None, T=1.0, n_steps=1,
        )


def test_config_rejects_non_finite_T():
    # nan passes T <= 0 and dt > 1 alike
    mesh = Mesh1D(2, "dirichlet")
    coeffs = Coefficients.constant(a11=1.0)
    for T in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="T must be finite and positive"):
            AdvDiffConfig(
                mesh=mesh, coeffs=coeffs, c0=0.0, kernel=WhiteNoise(), T=T, n_steps=1
            )


def test_dt_property():
    cfg = _scalar_config(T=1.0, n_steps=4)
    assert cfg.dt == 0.25
