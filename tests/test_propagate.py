import numpy as np
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
