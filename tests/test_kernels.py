import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_allclose

from spdecov import (
    BrownianBridge,
    Custom,
    Exponential,
    Matern,
    Mesh1D,
    NoPointwiseKernelError,
    WhiteNoise,
    assemble_Q,
    assemble_mass,
    assemble_stiffness,
    hat_values,
    kernel_eval,
)


def test_brownian_bridge_midpoint():
    assert kernel_eval(BrownianBridge(), 0.5, 0.5) == pytest.approx(0.25, abs=0)


def test_brownian_bridge_formula():
    x = np.array([0.2, 0.7, 0.0])
    y = np.array([0.5, 0.4, 1.0])
    got = kernel_eval(BrownianBridge(), x, y)
    assert_allclose(got, np.minimum(x, y) - x * y, atol=1e-16)


def test_exponential_endpoints():
    assert kernel_eval(Exponential(2.0), 0.0, 1.0) == pytest.approx(
        np.exp(-2.0), abs=1e-16
    )
    assert kernel_eval(Exponential(2.0), 0.3, 0.3) == pytest.approx(1.0, abs=0)


def test_matern_half_is_exponential():
    # nu = 1/2 closed form sigma^2 exp(-z / rho)
    m = Matern(sigma=1.5, nu=0.5, rho=0.3)
    for z in (0.1, 0.5, 1.0):
        got = kernel_eval(m, 0.0, z)
        assert got == pytest.approx(1.5**2 * np.exp(-z / 0.3), abs=1e-10)


def test_matern_diagonal_is_variance():
    m = Matern(sigma=10.0, nu=0.01, rho=0.1)
    x = np.linspace(0.0, 1.0, 7)
    assert_allclose(kernel_eval(m, x, x), np.full(7, 100.0), rtol=1e-13)


def test_matern_tiny_nu_values_finite_and_decaying():
    m = Matern(sigma=10.0, nu=0.01, rho=0.1)
    z = np.array([1e-12, 1e-6, 1e-2, 0.1, 0.5, 1.0])
    vals = kernel_eval(m, np.zeros_like(z), z)
    assert np.all(np.isfinite(vals))
    assert np.all(np.diff(vals) < 0)
    assert vals[-1] > 0


def test_white_noise_has_no_pointwise_kernel():
    with pytest.raises(NoPointwiseKernelError):
        kernel_eval(WhiteNoise(), 0.5, 0.5)


def test_kernel_eval_domain_check():
    with pytest.raises(ValueError):
        kernel_eval(Exponential(1.0), -0.1, 0.5)
    with pytest.raises(ValueError):
        kernel_eval(Exponential(1.0), 0.5, 1.1)


def test_custom_kernel_passthrough():
    k = Custom(q=lambda x, y: x * 0.0 + 2.0)
    mesh = Mesh1D(4, "dirichlet")
    Q = assemble_Q(mesh, k)
    # constant kernel 2: Q[i,j] = 2 * int(phi_i) * int(phi_j) = 2 h^2
    assert_allclose(Q, 2.0 * mesh.h**2 * np.ones((3, 3)), atol=1e-14)


def test_assemble_Q_white_is_mass_exactly():
    mesh = Mesh1D(6, "neumann")
    assert np.array_equal(assemble_Q(mesh, WhiteNoise()), assemble_mass(mesh))


def _graded(order, panels, q):
    edges = np.concatenate(([0.0], q ** np.arange(panels - 1, -1.0, -1.0)))
    xg, wg = leggauss(order)
    pts = edges[:-1, None] + 0.5 * np.diff(edges)[:, None] * (xg[None, :] + 1.0)
    wts = 0.5 * np.diff(edges)[:, None] * wg[None, :]
    return pts.ravel(), wts.ravel()


def _q_oracle(kern, mesh, order=16, panels=12, q=0.05, off_npts=64):
    """Independent Gram oracle, finer than the library everywhere.

    Plain tensor Gauss away from the diagonal, corner-graded tensor on
    adjacent cell pairs, graded Duffy triangles on the diagonal.
    """
    h = mesh.h
    g, wgr = _graded(order, panels, q)
    n = mesh.n_dof
    Q = np.zeros((n, n))
    k = kern.pointwise
    xo, wo = leggauss(off_npts)
    uo = 0.5 * (xo + 1.0)
    wuo = 0.5 * wo
    for ca in range(mesh.n_cells):
        for cb in range(mesh.n_cells):
            xl, yl = ca * h, cb * h
            if abs(ca - cb) == 1:
                u, v = (1.0 - g, g) if cb > ca else (g, 1.0 - g)
                X, Y = np.meshgrid(xl + h * u, yl + h * v, indexing="ij")
                W = np.outer(wgr, wgr) * h * h
                vals = k(X, Y) * W
                Pa = hat_values(mesh, X.ravel())
                Pb = hat_values(mesh, Y.ravel())
                Q += Pa.T @ (vals.ravel()[:, None] * Pb)
            elif ca != cb:
                xs, ys = xl + h * uo, yl + h * uo
                X, Y = np.meshgrid(xs, ys, indexing="ij")
                vals = k(X, Y) * (np.outer(wuo, wuo) * h * h)
                Q += hat_values(mesh, xs).T @ vals @ hat_values(mesh, ys)
            else:
                A, B = np.meshgrid(g, 1.0 - g, indexing="ij")
                W = np.outer(wgr, wgr) * h * h * A
                X1, Y1 = xl + h * A, xl + h * A * B
                for X, Y in ((X1, Y1), (Y1, X1)):
                    vals = k(X, Y) * W
                    Pa = hat_values(mesh, X.ravel())
                    Pb = hat_values(mesh, Y.ravel())
                    Q += Pa.T @ (vals.ravel()[:, None] * Pb)
    return Q


def test_exponential_entry_matches_tensor_oracle():
    # single-DoF case: one entry, checked against a 200x200-point rule
    mesh = Mesh1D(2, "dirichlet")
    Q = assemble_Q(mesh, Exponential(2.0))
    oracle = _q_oracle(Exponential(2.0), mesh, off_npts=200)
    assert Q.shape == (1, 1)
    assert abs(Q[0, 0] - oracle[0, 0]) <= 1e-8


def test_exponential_gram_matches_oracle():
    mesh = Mesh1D(5, "dirichlet")
    Q = assemble_Q(mesh, Exponential(2.0))
    oracle = _q_oracle(Exponential(2.0), mesh)
    assert np.abs(Q - oracle).max() <= 1e-12


def test_matern_gram_matches_oracle():
    # nu = 0.01 cusps like |x-y|^0.02 on the diagonal; the graded rules
    # keep the assembly within 1e-5 relative of a much finer oracle
    kern = Matern(sigma=10.0, nu=0.01, rho=0.1)
    mesh = Mesh1D(4, "dirichlet")
    Q = assemble_Q(mesh, kern)
    oracle = _q_oracle(kern, mesh)
    assert np.abs(Q - oracle).max() <= 1e-5 * np.abs(oracle).max()


def test_brownian_bridge_gram_matches_oracle():
    mesh = Mesh1D(6, "neumann")
    Q = assemble_Q(mesh, BrownianBridge())
    oracle = _q_oracle(BrownianBridge(), mesh)
    assert np.abs(Q - oracle).max() <= 1e-12


def test_gram_symmetric_and_psd():
    for kern in (Exponential(1.0), Matern(2.0, 0.5, 0.4), BrownianBridge()):
        mesh = Mesh1D(9, "dirichlet")
        Q = assemble_Q(mesh, kern)
        assert_allclose(Q, Q.T, rtol=0, atol=0)
        ev = np.linalg.eigvalsh(Q)
        assert ev.min() >= -1e-12 * max(ev.max(), 1.0)


def test_brownian_bridge_gram_approaches_discrete_green():
    # Q = Lambda^{-1} for the bridge, so Q_h should approach M S^{-1} M
    # under refinement (not equal it at fixed h: the discrete Green
    # function is piecewise linear, the continuous one piecewise cubic)
    errs = []
    for n in (4, 8, 16, 32):
        mesh = Mesh1D(n, "dirichlet")
        Q = assemble_Q(mesh, BrownianBridge())
        M = assemble_mass(mesh)
        S = assemble_stiffness(mesh)
        ref = M @ np.linalg.solve(S, M)
        errs.append(np.abs(Q - ref).max() / np.abs(ref).max())
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 8e-3


def test_kernel_parameter_validation():
    with pytest.raises(ValueError):
        Exponential(0.0)
    with pytest.raises(ValueError):
        Matern(sigma=1.0, nu=-0.5, rho=1.0)
    with pytest.raises(ValueError):
        Matern(sigma=1.0, nu=0.5, rho=0.0)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="scale must be finite"):
            Exponential(bad)
        for key in ("sigma", "nu", "rho"):
            params = dict(sigma=1.0, nu=0.5, rho=1.0)
            params[key] = bad
            with pytest.raises(ValueError, match=f"{key} must be finite"):
                Matern(**params)
    # Gamma(200) overflows a double; nu beyond 30 is refused up front
    with pytest.raises(ValueError, match="nu must not exceed"):
        Matern(sigma=1.0, nu=200.0, rho=1.0)
    Matern(sigma=1.0, nu=30.0, rho=1.0)


def test_matern_large_nu_takes_its_limits():
    # K_nu overflows near z = 0 and (w)^nu far from it; the kernel then
    # takes its limits sigma^2 and 0 instead of 0 * inf = nan
    m = Matern(sigma=2.0, nu=25.0, rho=0.1)
    near = kernel_eval(m, np.zeros(3), np.array([1e-300, 1e-20, 1e-15]))
    assert np.array_equal(near, np.full(3, 4.0))
    tiny_rho = Matern(sigma=2.0, nu=25.0, rho=1e-12)
    assert kernel_eval(tiny_rho, 0.0, 1.0) == 0.0
    Q = assemble_Q(Mesh1D(64, "dirichlet"), m)
    assert np.isfinite(Q).all()
    ev = np.linalg.eigvalsh(Q)
    assert ev.min() >= -1e-12 * ev.max()


def _skew(x, y):
    return np.exp(-np.abs(x - y)) * (1.0 + x) * (2.0 - y)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n_cells=st.integers(2, 64),
    bc=st.sampled_from(["dirichlet", "neumann"]),
    kernel=st.builds(
        Matern,
        sigma=st.floats(0.1, 10.0),
        nu=st.floats(0.01, 3.0),
        rho=st.floats(0.05, 1.0),
    )
    | st.builds(Exponential, scale=st.floats(0.1, 50.0)),
)
def test_offset_blocks_match_generic_assembly(n_cells, bc, kernel):
    # stationary kernels assemble one block per cell offset; wrapping the
    # same pointwise kernel in Custom forces the per-cell-pair path
    mesh = Mesh1D(n_cells, bc)
    Q = assemble_Q(mesh, kernel)
    Q_generic = assemble_Q(mesh, Custom(kernel.pointwise))
    assert np.array_equal(Q, Q.T)
    gap = np.abs(Q - Q_generic).max()
    assert gap <= 1e-13 * np.abs(Q_generic).max(), gap


@pytest.mark.parametrize(
    "n_cells, bc, kernel, entries",
    [
        (5, "neumann", BrownianBridge(), {
            (0, 0): 0.0003555555555555553,
            (1, 1): 0.004533333333333335,
            (1, 3): 0.003199999999999998,
            (2, 3): 0.00633333333333333,
            (5, 5): 0.00035555555555555465,
        }),
        (7, "dirichlet", BrownianBridge(), {
            (0, 0): 0.0018186866583368045,
            (2, 3): 0.0037241427183118143,
            (3, 3): 0.004317645425517148,
            (1, 5): 0.0008329862557267802,
        }),
        (4, "neumann", Custom(_skew), {
            (0, 0): 0.030378449077378057,
            (0, 1): 0.056517914239151375,
            (1, 2): 0.10995948845328173,
            (2, 2): 0.12554779906241503,
            (4, 4): 0.03037844907737809,
            (0, 4): 0.016495683113620162,
        }),
        (6, "dirichlet", Custom(_skew), {
            (0, 0): 0.05504985311325745,
            (1, 2): 0.05295962145436511,
            (2, 2): 0.057909832561945776,
            (0, 4): 0.03378551608201424,
        }),
    ],
)
def test_generic_gram_entries_pinned(n_cells, bc, kernel, entries):
    # values of the per-cell-pair assembly before it was vectorized
    Q = assemble_Q(Mesh1D(n_cells, bc), kernel)
    assert np.array_equal(Q, Q.T)
    for (i, j), want in entries.items():
        assert Q[i, j] == pytest.approx(want, rel=1e-13, abs=0)
