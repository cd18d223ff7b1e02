import numpy as np
import pytest
from numpy.testing import assert_allclose

from spdecov import (
    BrownianBridge,
    Coefficients,
    ConfigError,
    Custom,
    Exponential,
    Matern,
    Mesh1D,
    WhiteNoise,
    assemble_form,
    assemble_mass,
    assemble_Q,
    assemble_stiffness,
    compute_c0,
    err_hs_norm,
    err_trace_norm,
    hat_values,
)
from spdecov.fem import _gauss_legendre

_CELLS = [2, 3, 7, 64]
_BCS = ["dirichlet", "neumann"]


@pytest.mark.parametrize("order", [6, 8, 12])
def test_gauss_legendre_table_is_numpys_rule(order):
    # fem, kernels and spectral integrate with these bits
    x, w = _gauss_legendre(order)
    want_x, want_w = np.polynomial.legendre.leggauss(order)
    assert np.array_equal(x, want_x)
    assert np.array_equal(w, want_w)


def test_mesh_basic():
    mesh = Mesh1D(4, "dirichlet")
    assert mesh.h == 0.25
    assert mesh.n_dof == 3
    assert_allclose(mesh.dof_nodes, [0.25, 0.5, 0.75])

    mesh = Mesh1D(4, "neumann")
    assert mesh.n_dof == 5
    assert_allclose(mesh.dof_nodes, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_mesh_rejects_tiny_or_bad():
    with pytest.raises(ValueError):
        Mesh1D(1, "dirichlet")
    with pytest.raises(ValueError):
        Mesh1D(4, "periodic")


@pytest.mark.parametrize("n_cells", [3.0, 2.5, True, "4", None])
def test_mesh_needs_an_integer_cell_count(n_cells):
    # a float count used to pass and fail later inside assemble_mass
    with pytest.raises(ValueError, match="integer n_cells"):
        Mesh1D(n_cells, "dirichlet")


def test_mesh_accepts_numpy_integers():
    assert Mesh1D(np.int64(4)).n_dof == 3


def test_mass_dirichlet_scalar():
    M = assemble_mass(Mesh1D(2, "dirichlet"))
    assert_allclose(M, [[1.0 / 3.0]], rtol=0, atol=1e-16)


def test_stiffness_dirichlet_scalar():
    S = assemble_stiffness(Mesh1D(2, "dirichlet"))
    assert_allclose(S, [[4.0]], rtol=0, atol=1e-14)


def test_mass_neumann_two_cells():
    # (h/6)*[[2,1,0],[1,4,1],[0,1,2]] with h = 1/2
    M = assemble_mass(Mesh1D(2, "neumann"))
    expected = (0.5 / 6.0) * np.array(
        [[2.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 2.0]]
    )
    assert_allclose(M, expected, rtol=0, atol=1e-16)


def test_stiffness_neumann_two_cells():
    S = assemble_stiffness(Mesh1D(2, "neumann"))
    expected = 2.0 * np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert_allclose(S, expected, rtol=0, atol=1e-13)


def _tridiagonal(mesh, diag, off):
    """Hand-built P1 tridiagonal: diagonal diag, off-diagonal off, and
    half the diagonal on the Neumann boundary nodes."""
    n = mesh.n_dof
    A = np.zeros((n, n))
    d = np.full(n, 2.0 * diag)
    if mesh.bc == "neumann":
        d[0] = d[-1] = diag
    np.fill_diagonal(A, d)
    A[np.arange(n - 1), np.arange(1, n)] = off
    A[np.arange(1, n), np.arange(n - 1)] = off
    return A


@pytest.mark.parametrize("bc", _BCS)
@pytest.mark.parametrize("n_cells", _CELLS)
def test_mass_is_exact_tridiagonal(n_cells, bc):
    mesh = Mesh1D(n_cells, bc)
    h = mesh.h
    assert np.array_equal(assemble_mass(mesh), _tridiagonal(mesh, h / 3.0, h / 6.0))


@pytest.mark.parametrize("bc", _BCS)
@pytest.mark.parametrize("n_cells", _CELLS)
def test_stiffness_is_exact_tridiagonal(n_cells, bc):
    mesh = Mesh1D(n_cells, bc)
    h = mesh.h
    assert np.array_equal(
        assemble_stiffness(mesh), _tridiagonal(mesh, 1.0 / h, -1.0 / h)
    )


_VARIABLE = Coefficients(
    a11=lambda x: 1.0 + 0.5 * np.cos(np.pi * x),
    a1=lambda x: np.sin(2.0 * np.pi * x),
    a0=lambda x: x**2,
    lambda0=0.5,
)
_BUILDERS = {
    "mass": assemble_mass,
    "stiffness": assemble_stiffness,
    "form": lambda mesh: assemble_form(mesh, _VARIABLE, c0=0.125),
    "white": lambda mesh: assemble_Q(mesh, WhiteNoise()),
    "exponential": lambda mesh: assemble_Q(mesh, Exponential(scale=3.0)),
    "matern": lambda mesh: assemble_Q(mesh, Matern(sigma=2.0, nu=0.5, rho=0.3)),
    "bridge": lambda mesh: assemble_Q(mesh, BrownianBridge()),
    "custom": lambda mesh: assemble_Q(mesh, Custom(q=lambda x, y: np.cos(x - 2.0 * y))),
}


@pytest.mark.parametrize("n_cells", [2, 3, 7, 16])
@pytest.mark.parametrize("name", list(_BUILDERS))
def test_dirichlet_drops_the_boundary_nodes(name, n_cells):
    # Dirichlet elimination keeps the interior block of the Neumann
    # matrix, bit for bit, for every assembled matrix
    build = _BUILDERS[name]
    full = build(Mesh1D(n_cells, "neumann"))
    assert np.array_equal(build(Mesh1D(n_cells, "dirichlet")), full[1:-1, 1:-1])


def test_mass_row_sums_are_hat_integrals():
    # partition of unity: row sums of the Neumann mass equal integral of each hat
    mesh = Mesh1D(8, "neumann")
    M = assemble_mass(mesh)
    sums = M.sum(axis=1)
    expected = np.full(mesh.n_dof, mesh.h)
    expected[[0, -1]] = mesh.h / 2.0
    assert_allclose(sums, expected, atol=1e-15)


def test_constant_coefficients_compare_by_value():
    assert Coefficients.constant(a11=1.0) == Coefficients.constant(a11=1.0)
    assert Coefficients.constant(a11=1.0) != Coefficients.constant(a11=2.0)


def test_form_reduces_to_stiffness():
    mesh = Mesh1D(6, "dirichlet")
    coeffs = Coefficients.constant(a11=1.0)
    assert_allclose(
        assemble_form(mesh, coeffs), assemble_stiffness(mesh), atol=1e-13
    )


def test_form_mass_term():
    mesh = Mesh1D(5, "neumann")
    coeffs = Coefficients.constant(a11=1.0, a0=2.0)
    expected = assemble_stiffness(mesh) + 2.0 * assemble_mass(mesh)
    assert_allclose(assemble_form(mesh, coeffs), expected, atol=1e-13)


def test_form_c0_shift_is_exact_mass_multiple():
    mesh = Mesh1D(5, "neumann")
    coeffs = Coefficients.constant(a11=1.0)
    A0 = assemble_form(mesh, coeffs, c0=0.0)
    A1 = assemble_form(mesh, coeffs, c0=0.125)
    assert_allclose(A1 - A0, 0.125 * assemble_mass(mesh), rtol=0, atol=1e-15)


def _form_quadrature_oracle(mesh, coeffs, c0, npts=50):
    """Independent dense assembly with npts Gauss-Legendre points per cell."""
    xg, wg = np.polynomial.legendre.leggauss(npts)
    n = mesh.n_dof
    A = np.zeros((n, n))
    M = np.zeros((n, n))
    h = mesh.h
    nodes = np.arange(mesh.n_cells + 1) * h
    # Dirichlet DoF k sits at node k + 1; node 0 and the last node have none
    first = 1 if mesh.bc == "dirichlet" else 0
    for c in range(mesh.n_cells):
        xs = nodes[c] + 0.5 * h * (xg + 1.0)
        ws = 0.5 * h * wg
        # local hats: left node rises 1 -> 0, right node 0 -> 1
        lv = (nodes[c + 1] - xs) / h
        rv = (xs - nodes[c]) / h
        vals = [lv, rv]
        grads = [np.full_like(xs, -1.0 / h), np.full_like(xs, 1.0 / h)]
        dofs = [c - first, c + 1 - first]
        a11 = coeffs.a11(xs)
        a1 = coeffs.a1(xs)
        a0 = coeffs.a0(xs)
        for i_loc, i in enumerate(dofs):
            if not 0 <= i < n:
                continue
            for j_loc, j in enumerate(dofs):
                if not 0 <= j < n:
                    continue
                integ = (
                    a11 * grads[i_loc] * grads[j_loc]
                    + a1 * grads[j_loc] * vals[i_loc]
                    + a0 * vals[j_loc] * vals[i_loc]
                )
                A[i, j] += np.sum(ws * integ)
                M[i, j] += np.sum(ws * vals[i_loc] * vals[j_loc])
    return A + c0 * M


def test_form_matches_quadrature_oracle():
    # a11=4, a1=sin(2 pi x), a0=0, c0=1/8 on the two-cell Neumann mesh
    mesh = Mesh1D(2, "neumann")
    coeffs = Coefficients(
        a11=lambda x: np.full_like(np.asarray(x, float), 4.0),
        a1=lambda x: np.sin(2.0 * np.pi * np.asarray(x, float)),
        a0=lambda x: np.zeros_like(np.asarray(x, float)),
        lambda0=4.0,
    )
    got = assemble_form(mesh, coeffs, c0=0.125)
    oracle = _form_quadrature_oracle(mesh, coeffs, 0.125)
    assert np.abs(got - oracle).max() <= 1e-10


def test_form_matches_oracle_on_finer_mesh():
    mesh = Mesh1D(7, "dirichlet")
    coeffs = Coefficients(
        a11=lambda x: 1.0 + 0.5 * np.cos(np.pi * np.asarray(x, float)),
        a1=lambda x: np.sin(2.0 * np.pi * np.asarray(x, float)),
        a0=lambda x: np.asarray(x, float) ** 2,
        lambda0=0.5,
    )
    got = assemble_form(mesh, coeffs, c0=0.25)
    oracle = _form_quadrature_oracle(mesh, coeffs, 0.25)
    assert np.abs(got - oracle).max() <= 1e-10


def test_form_advection_is_skew_plus_boundary():
    # constant advection integrates to a skew matrix on Dirichlet meshes
    mesh = Mesh1D(9, "dirichlet")
    coeffs = Coefficients.constant(a11=1.0, a1=3.0)
    A = assemble_form(mesh, coeffs)
    adv = A - assemble_stiffness(mesh)
    assert_allclose(adv, -adv.T, atol=1e-13)


def test_form_ellipticity_gate():
    mesh = Mesh1D(4, "neumann")
    coeffs = Coefficients(
        a11=lambda x: np.cos(2.0 * np.pi * np.asarray(x, float)),
        a1=lambda x: np.zeros_like(np.asarray(x, float)),
        a0=lambda x: np.zeros_like(np.asarray(x, float)),
        lambda0=0.5,
    )
    with pytest.raises(ConfigError, match="a11 dips to .* below lambda0"):
        assemble_form(mesh, coeffs)


def test_hat_values_partition_of_unity():
    mesh = Mesh1D(6, "neumann")
    x = np.linspace(0.0, 1.0, 101)
    P = hat_values(mesh, x)
    assert_allclose(P.sum(axis=1), 1.0, atol=1e-14)
    # cardinal at the nodes: on its own mesh, prolongation is the identity
    for mesh in (mesh, Mesh1D(5, "dirichlet"), Mesh1D(5, "neumann")):
        Pn = hat_values(mesh, mesh.dof_nodes)
        assert_allclose(Pn, np.eye(mesh.n_dof), rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "x", [[-0.01], [1.01], [np.nan], [0.5, np.inf], [-np.inf]]
)
def test_hat_values_rejects_points_off_the_interval(x):
    # -0.01 used to give a row summing to 0.92, and NaN a NaN row
    with pytest.raises(ValueError, match=r"finite points in \[0, 1\]"):
        hat_values(Mesh1D(8, "neumann"), x)


def test_hat_values_keeps_the_rounding_slack_at_the_ends():
    mesh = Mesh1D(8, "neumann")
    eps = np.finfo(float).eps
    P = hat_values(mesh, [-eps, 1.0 + 2 * eps])
    assert_allclose(P.sum(axis=1), 1.0, rtol=0, atol=0)
    assert P[0, 0] == 1.0 and P[1, -1] == 1.0


def _prolonged_mass(coarse, fine):
    """P^T M_fine with P the coarse hats at the fine DoF nodes."""
    P = hat_values(coarse, fine.dof_nodes)
    return P.T @ assemble_mass(fine)


def test_cross_mass_same_mesh_is_mass():
    # on one mesh the prolongation is the identity, so the cross Gram of
    # a mesh with itself is its mass matrix
    mesh = Mesh1D(5, "dirichlet")
    assert np.array_equal(_prolonged_mass(mesh, mesh), assemble_mass(mesh))


def test_prolonged_mass_coarse_fine_row():
    # single coarse hat against the three fine hats at 1/4, 1/2, 3/4.
    # outer overlaps are 1/8 each; the middle one integrates to 5/24
    # (analytic piecewise integration; total must be 1/2 - 2*(1/48),
    # the coarse hat area minus the constrained boundary-hat overlaps).
    C = _prolonged_mass(Mesh1D(2, "dirichlet"), Mesh1D(4, "dirichlet"))
    assert C.shape == (1, 3)
    assert_allclose(C[0], [1.0 / 8.0, 5.0 / 24.0, 1.0 / 8.0], rtol=0, atol=1e-14)
    assert_allclose(C.sum(), 11.0 / 24.0, rtol=0, atol=1e-14)


def test_prolonged_mass_matches_dense_quadrature():
    coarse = Mesh1D(3, "neumann")
    fine = Mesh1D(12, "neumann")
    C = _prolonged_mass(coarse, fine)
    # independent oracle on a very fine midpoint grid
    x = (np.arange(240000) + 0.5) / 240000
    Pa = hat_values(coarse, x)
    Pb = hat_values(fine, x)
    oracle = (Pa / 240000).T @ Pb
    assert np.abs(C - oracle).max() <= 1e-9


def test_cross_mass_rejects_mixed_bc():
    # nested meshes of different boundary flavors share no hat space, so
    # the cross-mesh distances refuse them in either order
    dirichlet, neumann = Mesh1D(2, "dirichlet"), Mesh1D(4, "neumann")
    for err in (err_trace_norm, err_hs_norm):
        with pytest.raises(ConfigError, match="cannot mix"):
            err(np.eye(1), dirichlet, np.eye(5), neumann)
        with pytest.raises(ConfigError, match="cannot mix"):
            err(np.eye(5), neumann, np.eye(1), dirichlet)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("n_coarse, n_fine", [(2, 4), (3, 12), (8, 64), (64, 1024)])
def test_prolongation_preserves_mass(bc, n_coarse, n_fine):
    # coarse hats are piecewise linear on the fine mesh, so P^T M_fine P
    # is the coarse Gram matrix itself
    coarse = Mesh1D(n_coarse, bc)
    fine = Mesh1D(n_fine, bc)
    P = hat_values(coarse, fine.dof_nodes)
    assert_allclose(
        P.T @ assemble_mass(fine) @ P, assemble_mass(coarse), rtol=0, atol=1e-16
    )


def test_compute_c0_advection_example():
    coeffs = Coefficients(
        a11=lambda x: np.full_like(np.asarray(x, float), 4.0),
        a1=lambda x: np.sin(2.0 * np.pi * np.asarray(x, float)),
        a0=lambda x: np.zeros_like(np.asarray(x, float)),
        lambda0=4.0,
    )
    assert compute_c0(coeffs, epsilon=0.5) == pytest.approx(0.125, abs=1e-12)


def test_compute_c0_reaction_cancellation():
    coeffs = Coefficients.constant(a11=1.0, a1=2.0, a0=1.0, lambda0=1.0)
    assert compute_c0(coeffs, epsilon=0.5) == pytest.approx(0.0, abs=1e-12)


def test_compute_c0_epsilon_domain():
    coeffs = Coefficients.constant(a11=1.0)
    with pytest.raises(ValueError):
        compute_c0(coeffs, epsilon=0.0)
    with pytest.raises(ValueError):
        compute_c0(coeffs, epsilon=1.0)
