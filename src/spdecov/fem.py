"""P1 finite elements on uniform meshes of the unit interval.

Provides the Gram and form matrices behind the covariance recursions:
mass matrix, advection-diffusion form matrix (generally nonsymmetric)
and Dirichlet Laplacian stiffness, plus point values of the hats, which
prolong coefficients exactly from a mesh to any mesh refining it.
Dirichlet degrees of freedom are eliminated, never penalized.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import EllipticityError

__all__ = [
    "Mesh1D",
    "Coefficients",
    "assemble_mass",
    "assemble_stiffness",
    "assemble_form",
    "compute_c0",
    "hat_values",
]

#: Gauss-Legendre points per cell for variable-coefficient assembly.
#: 12 points keep trigonometric coefficients at machine precision even
#: on two-cell meshes; assembly is one-time so the cost is irrelevant.
FORM_QUAD_ORDER = 12

#: grid resolution for coefficient sup/inf sampling
C0_GRID_POINTS = 1001


@dataclass(frozen=True)
class Mesh1D:
    """Uniform mesh of (0, 1) with n_cells cells.

    bc selects the boundary flavor: 'dirichlet' keeps the n_cells - 1
    interior nodes as degrees of freedom, 'neumann' keeps all
    n_cells + 1 nodes.
    """

    n_cells: int
    bc: str = "dirichlet"

    def __post_init__(self):
        if self.n_cells < 2:
            raise ValueError("need n_cells >= 2")
        if self.bc not in ("dirichlet", "neumann"):
            raise ValueError(f"unknown bc {self.bc!r}")

    @property
    def h(self):
        return 1.0 / self.n_cells

    @property
    def n_dof(self):
        return self.n_cells - 1 if self.bc == "dirichlet" else self.n_cells + 1

    @property
    def dofs(self):
        """Slice of the n_cells + 1 mesh nodes that are degrees of freedom.

        Every assembled matrix is this block of its node matrix, so the
        Dirichlet boundary nodes are eliminated by dropping them here.
        """
        return slice(1, -1) if self.bc == "dirichlet" else slice(None)

    @property
    def dof_nodes(self):
        """Coordinates of the degree-of-freedom nodes."""
        return np.arange(self.n_cells + 1)[self.dofs] * self.h


@dataclass(frozen=True)
class Coefficients:
    """Scalar coefficients of the 1D elliptic operator.

    a11 is the diffusion coefficient (must stay >= lambda0 > 0), a1 the
    advection coefficient, a0 the reaction coefficient. lambda0 is the
    ellipticity lower bound supplied by the caller, not inferred.
    """

    a11: Callable[[np.ndarray], np.ndarray]
    a1: Callable[[np.ndarray], np.ndarray]
    a0: Callable[[np.ndarray], np.ndarray]
    lambda0: float

    @staticmethod
    def constant(a11=1.0, a1=0.0, a0=0.0, lambda0=None):
        """Convenience builder for constant coefficients."""
        if lambda0 is None:
            lambda0 = a11
        return Coefficients(
            a11=lambda x: np.full_like(x, float(a11)),
            a1=lambda x: np.full_like(x, float(a1)),
            a0=lambda x: np.full_like(x, float(a0)),
            lambda0=float(lambda0),
        )


def _assemble(mesh, loc):
    """DoF matrix of the P1 element matrices loc[i, j, c].

    loc[i, j, c] couples local node i with local node j of cell c
    (0 left, 1 right); a (2, 2) array serves every cell. The entries are
    added into the (n_cells + 1)^2 node matrix, whose degree-of-freedom
    block is returned.
    """
    n = mesh.n_cells
    A = np.zeros((n + 1, n + 1))
    cells = np.arange(n)
    for i in range(2):
        for j in range(2):
            A[cells + i, cells + j] += loc[i, j]
    return A[mesh.dofs, mesh.dofs]


def assemble_mass(mesh):
    """Exact P1 mass matrix."""
    h = mesh.h
    return _assemble(mesh, np.array([[h / 3.0, h / 6.0], [h / 6.0, h / 3.0]]))


def assemble_stiffness(mesh):
    """Exact P1 stiffness matrix of the (unit-coefficient) Laplacian.

    Only meaningful as an SPD operator on the Dirichlet mesh; on a
    Neumann mesh the constant nullspace makes it singular.
    """
    return _assemble(mesh, (1.0 / mesh.h) * np.array([[1.0, -1.0], [-1.0, 1.0]]))


def _cell_quadrature(mesh, order):
    """Gauss-Legendre points/weights on every cell, flattened."""
    xg, wg = np.polynomial.legendre.leggauss(order)
    h = mesh.h
    left = np.arange(mesh.n_cells) * h
    pts = left[:, None] + 0.5 * h * (xg[None, :] + 1.0)
    wts = np.broadcast_to(0.5 * h * wg, pts.shape)
    return pts, wts


def assemble_form(mesh, coeffs, c0=0.0):
    """Form matrix of a(u, v) = lambda(u, v) + c0 <u, v>.

    Entry (i, j) tests the trial function phi_j against the test
    function phi_i:

        A[i, j] = int a11 phi_i' phi_j' + a1 phi_j' phi_i
                      + a0 phi_i phi_j dx  +  c0 <phi_i, phi_j>,

    i.e. rows are test indices and columns trial indices, and the
    advection derivative falls on the trial (column) function. Under
    this convention M + dt*A is exactly the matrix whose congruence
    inverse drives the backward Euler covariance recursion.

    Variable-coefficient terms use FORM_QUAD_ORDER (12) Gauss-Legendre
    points per cell; the c0 mass term is exact.

    Raises
    ------
    EllipticityError
        If a11 < lambda0 at any quadrature point.
    """
    h = mesh.h
    pts, wts = _cell_quadrature(mesh, FORM_QUAD_ORDER)

    a11_v = np.asarray(coeffs.a11(pts), dtype=float)
    a1_v = np.asarray(coeffs.a1(pts), dtype=float)
    a0_v = np.asarray(coeffs.a0(pts), dtype=float)
    if np.any(a11_v < coeffs.lambda0):
        raise EllipticityError(
            f"a11 dips to {a11_v.min():.6g} below lambda0 = {coeffs.lambda0:.6g}"
        )

    # local P1 basis on every cell: index 0 = left node, 1 = right node
    xl = (np.arange(mesh.n_cells) * h)[:, None]
    phi = np.stack([(xl + h - pts) / h, (pts - xl) / h])
    dphi = np.array([-1.0 / h, 1.0 / h])
    loc = np.empty((2, 2, mesh.n_cells))
    for i in range(2):
        for j in range(2):
            loc[i, j] = np.sum(
                wts
                * (
                    a11_v * dphi[i] * dphi[j]
                    + a1_v * dphi[j] * phi[i]
                    + a0_v * phi[i] * phi[j]
                ),
                axis=1,
            )
    A = _assemble(mesh, loc)
    if c0 != 0.0:
        A += c0 * assemble_mass(mesh)
    return A


def hat_values(mesh, x):
    """Values of every basis hat at the points x.

    Returns an array of shape (len(x), n_dof), column i holding
    phi_i(x). Points must lie in [0, 1].
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = x * mesh.n_cells
    # points within rounding of a node are put on it, so the hats are
    # exactly 0 or 1 there and a mesh's own nodes give the identity
    node = np.rint(u)
    u = np.where(np.abs(u - node) <= 4 * np.finfo(float).eps * mesh.n_cells, node, u)
    k = np.rint(mesh.dof_nodes * mesh.n_cells)
    return np.clip(1.0 - np.abs(u[:, None] - k[None, :]), 0.0, None)


def compute_c0(coeffs, epsilon):
    """Coercivity shift sup|a1| / (4 lambda0 epsilon) - inf a0.

    sup and inf are sampled on a uniform 1001-point grid over [0, 1],
    which is adequate for the smooth coefficient catalog and documented
    as the sampling rule.

    Parameters
    ----------
    coeffs : Coefficients
    epsilon : float
        Young-inequality split parameter, 0 < epsilon < 1.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    grid = np.linspace(0.0, 1.0, C0_GRID_POINTS)
    sup_a1 = np.abs(np.asarray(coeffs.a1(grid), dtype=float)).max()
    inf_a0 = np.asarray(coeffs.a0(grid), dtype=float).min()
    return sup_a1 / (4.0 * coeffs.lambda0 * epsilon) - inf_a0
