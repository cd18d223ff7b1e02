import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from spdecov import (
    AdvDiffConfig,
    Coefficients,
    ConfigError,
    Exponential,
    Mesh1D,
    advdiff_run,
    assemble_mass,
    err_hs_norm,
    err_trace_norm,
    hat_values,
    symmetrize,
)
from spdecov.errnorms import _difference
from spdecov.linalg import sym_eig


def _spd_root(M):
    """Symmetric square root of an SPD matrix."""
    w, V = np.linalg.eigh(M)
    return (V * np.sqrt(w)) @ V.T


def _midpoint(n):
    """Midpoint grid on (0, 1) and its equal weights."""
    return (np.arange(n) + 0.5) / n, np.full(n, 1.0 / n)


def _nodal(K, mesh, x):
    """Covariance function Phi K Phi^T of K on the grid x by x."""
    Phi = hat_values(mesh, x)
    return Phi @ K @ Phi.T


def test_rank_one_trace_norm():
    # coefficient c on the single-hat mesh: trace norm c * ||phi||^2 = c/3
    mesh = Mesh1D(2, "dirichlet")
    K = np.array([[0.9]])
    Z = np.zeros((1, 1))
    assert err_trace_norm(K, mesh, Z, mesh) == pytest.approx(0.9 / 3.0, abs=1e-14)
    assert err_hs_norm(K, mesh, Z, mesh) == pytest.approx(0.9 / 3.0, abs=1e-14)


def test_same_mesh_reduction():
    mesh = Mesh1D(7, "neumann")
    rng = np.random.default_rng(21)
    K = symmetrize(rng.standard_normal((8, 8)))
    Kref = symmetrize(rng.standard_normal((8, 8)))
    M = assemble_mass(mesh)
    root = _spd_root(M)
    W = symmetrize(root @ (K - Kref) @ root)
    direct = np.abs(sym_eig(W).eigenvalues).sum()
    assert abs(err_trace_norm(K, mesh, Kref, mesh) - direct) <= 1e-9


def test_same_mesh_hs_reduction():
    mesh = Mesh1D(5, "dirichlet")
    rng = np.random.default_rng(3)
    K = symmetrize(rng.standard_normal((4, 4)))
    Kref = symmetrize(rng.standard_normal((4, 4)))
    M = assemble_mass(mesh)
    D = (K - Kref) @ M
    direct = np.sqrt(np.sum(D * D.T))
    assert abs(err_hs_norm(K, mesh, Kref, mesh) - direct) <= 1e-12


def test_schatten_ordering():
    rng = np.random.default_rng(8)
    mesh = Mesh1D(6, "dirichlet")
    for _ in range(5):
        K = symmetrize(rng.standard_normal((5, 5)))
        Kref = symmetrize(rng.standard_normal((5, 5)))
        hs = err_hs_norm(K, mesh, Kref, mesh)
        tr = err_trace_norm(K, mesh, Kref, mesh)
        assert hs <= tr + 1e-12


def test_psd_difference_trace_identity():
    # if K - Kref is PSD the trace norm equals trace(M (K - Kref))
    mesh = Mesh1D(6, "neumann")
    rng = np.random.default_rng(4)
    Kref = symmetrize(rng.standard_normal((7, 7)))
    B = rng.standard_normal((7, 3))
    K = Kref + B @ B.T
    M = assemble_mass(mesh)
    expected = np.trace(M @ (K - Kref))
    assert err_trace_norm(K, mesh, Kref, mesh) == pytest.approx(expected, rel=1e-10)


def test_symmetry_in_arguments():
    mesh = Mesh1D(5, "dirichlet")
    rng = np.random.default_rng(6)
    K = symmetrize(rng.standard_normal((4, 4)))
    Kref = symmetrize(rng.standard_normal((4, 4)))
    assert err_trace_norm(K, mesh, Kref, mesh) == pytest.approx(
        err_trace_norm(Kref, mesh, K, mesh), rel=1e-12
    )
    assert err_hs_norm(K, mesh, Kref, mesh) == pytest.approx(
        err_hs_norm(Kref, mesh, K, mesh), rel=1e-12
    )


def test_triangle_inequality_same_mesh():
    mesh = Mesh1D(6, "dirichlet")
    rng = np.random.default_rng(13)
    Ks = [symmetrize(rng.standard_normal((5, 5))) for _ in range(3)]
    for err in (err_trace_norm, err_hs_norm):
        d13 = err(Ks[0], mesh, Ks[2], mesh)
        d12 = err(Ks[0], mesh, Ks[1], mesh)
        d23 = err(Ks[1], mesh, Ks[2], mesh)
        assert d13 <= d12 + d23 + 1e-9


def test_zero_distance():
    mesh = Mesh1D(4, "dirichlet")
    K = np.eye(3)
    assert err_trace_norm(K, mesh, K, mesh) <= 1e-14
    assert err_hs_norm(K, mesh, K, mesh) <= 1e-14


def test_shape_gate():
    mesh = Mesh1D(4, "dirichlet")
    with pytest.raises(ConfigError, match="K shape"):
        err_trace_norm(np.eye(2), mesh, np.eye(3), mesh)
    # neither mesh refines the other
    coarse, fine = Mesh1D(3, "dirichlet"), Mesh1D(8, "dirichlet")
    for err in (err_trace_norm, err_hs_norm):
        with pytest.raises(ConfigError, match="does not refine"):
            err(np.eye(2), coarse, np.eye(7), fine)
        with pytest.raises(ConfigError, match="does not refine"):
            err(np.eye(7), fine, np.eye(2), coarse)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n_cells=st.integers(2, 8),
    ratio=st.integers(1, 4),
    bc=st.sampled_from(["dirichlet", "neumann"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_self_prolongation_distance_vanishes(n_cells, ratio, bc, seed):
    # a coarse covariance and its covariance function sampled at the
    # nodes of a refinement are the same operator
    coarse = Mesh1D(n_cells, bc)
    fine = Mesh1D(n_cells * ratio, bc)
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((coarse.n_dof, coarse.n_dof))
    K = B @ B.T
    K_fine = _nodal(K, coarse, fine.dof_nodes)
    C = rng.standard_normal((fine.n_dof, fine.n_dof))
    other = C @ C.T
    scale = np.abs(K).max()
    for err in (err_trace_norm, err_hs_norm):
        d = err(K, coarse, K_fine, fine)
        assert d <= 1e-13 * scale
        assert err(K_fine, fine, K, coarse) == pytest.approx(
            d, rel=1e-12, abs=1e-13 * scale
        )
        d = err(K, coarse, other, fine)
        assert err(other, fine, K, coarse) == pytest.approx(d, rel=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n_cells=st.integers(2, 8),
    ratio=st.integers(1, 4),
    bc=st.sampled_from(["dirichlet", "neumann"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_cholesky_frame_matches_square_root_frame(n_cells, ratio, bc, seed):
    # L^T D L is similar to M^{1/2} D M^{1/2}, and ||L^T D L||_F^2 is
    # trace((D M)^2); both oracles take D on the finer mesh
    coarse = Mesh1D(n_cells, bc)
    fine = Mesh1D(n_cells * ratio, bc)
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((coarse.n_dof, coarse.n_dof))
    C = rng.standard_normal((fine.n_dof, fine.n_dof))
    K, Kref = B @ B.T, C @ C.T
    P = hat_values(coarse, fine.dof_nodes)
    D = P @ K @ P.T - Kref
    M = assemble_mass(fine)
    root = _spd_root(M)
    trace = np.abs(sym_eig(symmetrize(root @ D @ root)).eigenvalues).sum()
    hs = np.sqrt(np.trace(D @ M @ D @ M))
    for a, b in ((K, coarse), (Kref, fine)), ((Kref, fine), (K, coarse)):
        assert err_trace_norm(*a, *b) == pytest.approx(trace, rel=1e-12)
        assert err_hs_norm(*a, *b) == pytest.approx(hs, rel=1e-12)


#: (bc, coarse cells, fine cells) of the cross-mesh oracle checks
CROSS_MESH_CASES = (("dirichlet", 4, 8), ("neumann", 4, 8), ("neumann", 3, 12))


def _cov_grids(bc, n_coarse, n_fine):
    coeffs = Coefficients.constant(a11=1.0)

    def run(n_cells):
        mesh = Mesh1D(n_cells, bc)
        cfg = AdvDiffConfig(
            mesh=mesh,
            coeffs=coeffs,
            c0=0.0,
            kernel=Exponential(1.0),
            T=0.5,
            n_steps=32,
        )
        return mesh, advdiff_run(cfg)

    return run(n_coarse), run(n_fine)


def test_cross_mesh_hs_matches_function_quadrature():
    # the HS distance is the L2((0,1)^2) distance of covariance functions,
    # so a dense quadrature of the nodal interpolants must reproduce it
    x, w = _midpoint(2048)
    for case in CROSS_MESH_CASES:
        (mesh_a, K), (mesh_b, Kref) = _cov_grids(*case)
        hs = err_hs_norm(K, mesh_a, Kref, mesh_b)
        D = _nodal(K, mesh_a, x) - _nodal(Kref, mesh_b, x)
        quad = np.sqrt(np.einsum("p,q,pq->", w, w, D * D))
        assert hs == pytest.approx(quad, rel=5e-6), case


def test_cross_mesh_trace_matches_dense_operator():
    # trace norm via a dense grid discretization of the kernel difference
    x, w = _midpoint(2048)
    rw = np.sqrt(w)
    for case in CROSS_MESH_CASES:
        (mesh_a, K), (mesh_b, Kref) = _cov_grids(*case)
        tr = err_trace_norm(K, mesh_a, Kref, mesh_b)
        D = _nodal(K, mesh_a, x) - _nodal(Kref, mesh_b, x)
        vals = np.linalg.eigvalsh(symmetrize(rw[:, None] * D * rw[None, :]))
        assert tr == pytest.approx(np.abs(vals).sum(), rel=5e-6), case


def test_cross_mesh_nested_refinement_sanity():
    # distance to a refinement of itself shrinks as the fine run refines
    (mesh_a, K), (mesh_b, Kref) = _cov_grids("dirichlet", 4, 8)
    (_, _), (mesh_c, Kref2) = _cov_grids("dirichlet", 4, 16)
    d_ab = err_hs_norm(K, mesh_a, Kref, mesh_b)
    d_bc = err_hs_norm(Kref, mesh_b, Kref2, mesh_c)
    assert d_bc < d_ab


def test_hs_norm_of_entries_whose_squares_overflow():
    # the entries of 1e155 I square to about 1e310, past the largest double
    mesh = Mesh1D(8, "neumann")
    zero = np.zeros((9, 9))
    unit = err_hs_norm(np.eye(9), mesh, zero, mesh)
    huge = err_hs_norm(1e155 * np.eye(9), mesh, zero, mesh)
    assert np.isfinite(huge)
    assert huge == pytest.approx(1e155 * unit, rel=1e-15)


def _dense_difference(K, mesh, Kref, mesh_ref):
    """W = L^T D L by dense products: the prolongation P as hat values
    and L as LAPACK's Cholesky factor of the assembled mass matrix."""
    coarse, fine = sorted((mesh, mesh_ref), key=lambda m: m.n_cells)
    P = hat_values(coarse, fine.dof_nodes)
    if mesh is coarse:
        K = P @ K @ P.T
    else:
        Kref = P @ Kref @ P.T
    L = np.linalg.cholesky(assemble_mass(fine))
    return symmetrize(L.T @ (K - Kref) @ L)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n_cells=st.integers(2, 64),
    ratio=st.integers(1, 8),
    bc=st.sampled_from(["dirichlet", "neumann"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_banded_frame_matches_dense_products(n_cells, ratio, bc, seed):
    # the two-nonzero stencil of P and the bidiagonal L, applied as
    # shifted element-wise passes, against dense P K P^T and L^T D L
    coarse = Mesh1D(n_cells, bc)
    fine = Mesh1D(n_cells * ratio, bc)
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((coarse.n_dof, coarse.n_dof))
    C = rng.standard_normal((fine.n_dof, fine.n_dof))
    K, Kref = B @ B.T, C @ C.T
    for args in (K, coarse, Kref, fine), (Kref, fine, K, coarse):
        dense = _dense_difference(*args)
        W = _difference(*args)
        assert np.abs(W - dense).max() <= 1e-13 * np.abs(dense).max()
        trace = np.abs(np.linalg.eigvalsh(dense)).sum()
        assert err_trace_norm(*args) == pytest.approx(trace, rel=1e-13)
        assert err_hs_norm(*args) == pytest.approx(np.linalg.norm(dense), rel=1e-13)


def test_distance_follows_a_matrix_changed_in_place():
    # only the mesh's factor is cached: a second call on the same array,
    # changed in place, measures the changed matrix
    coarse, fine = Mesh1D(4, "neumann"), Mesh1D(16, "neumann")
    rng = np.random.default_rng(5)
    B = rng.standard_normal((5, 5))
    K, Kref = B @ B.T, np.eye(17)
    for err in (err_trace_norm, err_hs_norm):
        before = err(K, coarse, Kref, fine)
        K *= 2.0
        Kref[3, 3] += 1.0
        after = err(K, coarse, Kref, fine)
        assert after != before
        assert after == err(K.copy(), coarse, Kref.copy(), fine)
