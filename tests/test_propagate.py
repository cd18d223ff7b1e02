import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spdecov import (
    AdvDiffConfig,
    Coefficients,
    Matern,
    Mesh1D,
    WaveConfig,
    advdiff_run,
    wave_run,
)
from spdecov.exceptions import ConfigError
from spdecov.linalg import AffineStep, propagate
from stepping import stepped_run

_ADVECTION = Coefficients(
    a11=lambda x: np.full_like(x, 4.0),
    a1=lambda x: np.sin(2.0 * np.pi * x),
    a0=lambda x: np.zeros_like(x),
    lambda0=4.0,
)
_KERNEL = Matern(sigma=2.0, nu=0.5, rho=0.3)


def _random_psd(seed, n):
    B = np.random.default_rng(seed).standard_normal((n, n))
    return B @ B.T


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    scheme=st.sampled_from(["advdiff", "zero", "minus_q"]),
    n_steps=st.integers(1, 300),
    with_K0=st.booleans(),
    # nonzero; below -0.5 the growth 1 + 2 c0 / n_steps is negative for
    # small n_steps
    c0=st.floats(0.05, 2.0) | st.floats(-2.0, -0.05),
    seed=st.integers(0, 2**32 - 1),
)
def test_doubling_matches_stepping(scheme, n_steps, with_K0, c0, seed):
    # a run evaluates the recursion by doubling; stepped_run steps it
    mesh = Mesh1D(6, "dirichlet")
    if scheme == "advdiff":
        K0 = _random_psd(seed, mesh.n_dof) if with_K0 else None
        cfg = AdvDiffConfig(
            mesh=mesh, coeffs=_ADVECTION, c0=c0, kernel=_KERNEL,
            T=1.0, n_steps=n_steps, K0=K0,
        )
        run = advdiff_run
    else:
        K0 = _random_psd(seed, 2 * mesh.n_dof) if with_K0 else None
        cfg = WaveConfig(
            mesh=mesh, kernel=_KERNEL, g_spec=scheme,
            T=1.0, n_steps=n_steps, K0=K0,
        )
        run = wave_run
    K = run(cfg)
    K_step = stepped_run(cfg)
    assert np.array_equal(K, K.T)
    gap = np.abs(K - K_step).max()
    assert gap <= 1e-10 * np.abs(K_step).max(), (n_steps, gap)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 8),
    q_rank=st.integers(0, 8),
    k_rank=st.integers(0, 8),
    n_steps=st.integers(1, 300),
    g=st.floats(0.01, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_propagate_keeps_psd_data_psd(n, q_rank, k_rank, n_steps, g, seed):
    # K <- g T K T^T + Q maps PSD K to PSD K for PSD Q and g > 0, and the
    # symmetrized updates make every K exactly symmetric
    rng = np.random.default_rng(seed)
    T = rng.standard_normal((n, n))
    # g T T^T at most 1, so that 300 steps stay far from overflow
    T *= rng.uniform(0.1, 1.0) / (np.sqrt(g) * np.linalg.norm(T, 2))
    B = rng.standard_normal((n, min(q_rank, n)))
    C = rng.standard_normal((n, min(k_rank, n)))
    K = propagate(AffineStep(T, B @ B.T, g), n_steps, C @ C.T)
    assert np.array_equal(K, K.T)
    w = np.linalg.eigvalsh(K)
    assert w.min() >= -1e-12 * np.abs(w).max(), (w.min(), w.max())


def test_propagate_keeps_a_huge_k0_finite():
    # symmetrizing K0 = 1e308 I as (K0 + K0^T) / 2 would overflow to inf
    # although K0 is finite, symmetric and a contraction keeps it so
    cfg = AdvDiffConfig(
        mesh=Mesh1D(8, "neumann"),
        coeffs=Coefficients.constant(a11=1.0),
        c0=0.0,
        kernel=Matern(sigma=1.0, nu=0.5, rho=0.3),
        T=0.5,
        n_steps=4,
    )
    step = cfg.operators().step
    for n_steps in (1, 4):
        K = propagate(step, n_steps, 1e308 * np.eye(9))
        assert np.isfinite(K).all()
        assert np.array_equal(K, K.T)


@pytest.mark.parametrize("n_steps", [-1, -8, 2.5, True, None])
def test_propagate_refuses_a_bad_step_count(n_steps):
    # -1 >> 1 is -1, so an unchecked negative count never ends
    step = AffineStep(0.5 * np.eye(2), np.eye(2))
    with pytest.raises(ConfigError, match="integer n_steps >= 0"):
        propagate(step, n_steps)


def test_propagate_takes_zero_steps():
    step = AffineStep(0.5 * np.eye(2), np.eye(2))
    K0 = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert np.array_equal(propagate(step, 0), np.zeros((2, 2)))
    assert np.array_equal(propagate(step, np.int64(0), K0), K0)


@pytest.mark.parametrize("n_steps", [0, 1, 2, 5, 8, 128])
@pytest.mark.parametrize("g", [1.0, -0.7])
def test_zero_start_skips_its_products_bit_for_bit(n_steps, g):
    # K0 = None takes the first set bit's Q as K and skips the squaring
    # of T that only a carried K would use; K0 = 0 multiplies through
    rng = np.random.default_rng(n_steps)
    T = 0.3 * rng.standard_normal((7, 7))
    step = AffineStep(T, _random_psd(n_steps, 7), g)
    K = propagate(step, n_steps)
    assert np.array_equal(K, propagate(step, n_steps, np.zeros((7, 7))))
    assert K is not step.Q
    assert not np.shares_memory(K, step.Q)
