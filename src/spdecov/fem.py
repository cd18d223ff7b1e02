"""P1 finite elements on uniform meshes of the unit interval.

Provides the Gram and form matrices behind the covariance recursions:
mass matrix, advection-diffusion form matrix (generally nonsymmetric)
and Dirichlet Laplacian stiffness, plus point values of the hats, which
prolong coefficients exactly from a mesh to any mesh refining it.
Dirichlet degrees of freedom are eliminated, never penalized.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import ConfigError

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
#: on two-cell meshes.
FORM_QUAD_ORDER = 12

#: Gauss-Legendre rules on [-1, 1] by order: the nodes below 0 and their
#: weights, ascending, as np.polynomial.legendre.leggauss returns them
#: (which would load numpy.polynomial and solve an eigenproblem). That
#: function symmetrizes its rule exactly, so _gauss_legendre mirrors the
#: half to the same bits.
_GAUSS_LEGENDRE_HALF = {
    6: (
        (-0.9324695142031519, -0.6612093864662645, -0.2386191860831969),
        (0.17132449237917027, 0.3607615730481387, 0.46791393457269104),
    ),
    8: (
        (-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
         -0.18343464249564978),
        (0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
         0.36268378337836166),
    ),
    12: (
        (-0.9815606342467192, -0.9041172563704748, -0.7699026741943047,
         -0.5873179542866175, -0.3678314989981802, -0.1252334085114689),
        (0.04717533638651141, 0.10693932599531907, 0.16007832854334642,
         0.20316742672306573, 0.2334925365383546, 0.2491470458134027),
    ),
}


def _gauss_legendre(order):
    """Nodes and weights of the order-point Gauss-Legendre rule on [-1, 1].

    order is 6, 8 or 12, the orders the package integrates with.
    """
    x, w = map(np.array, _GAUSS_LEGENDRE_HALF[order])
    return np.concatenate([x, -x[::-1]]), np.concatenate([w, w[::-1]])


_FORM_X, _FORM_W = _gauss_legendre(FORM_QUAD_ORDER)

#: grid resolution for coefficient sup/inf sampling
C0_GRID_POINTS = 1001


def _is_int(x):
    """True for Python and numpy integers, but not for bools."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_real(x):
    """True for Python and numpy reals, nan and inf included, but not for bools."""
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(
        x, bool
    )


def _is_finite(x):
    """True for finite Python and numpy reals, but not for bools."""
    return _is_real(x) and math.isfinite(x)


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
        if not _is_int(self.n_cells) or self.n_cells < 2:
            raise ConfigError(f"need an integer n_cells >= 2, got {self.n_cells!r}")
        if self.bc not in ("dirichlet", "neumann"):
            raise ConfigError(f"unknown bc {self.bc!r}")

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
class _Constant:
    """The coefficient x -> value; equal values compare equal."""

    value: float

    def __call__(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.value)


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
        """Constant coefficients; equal arguments build equal instances."""
        if lambda0 is None:
            lambda0 = a11
        return Coefficients(
            a11=_Constant(float(a11)),
            a1=_Constant(float(a1)),
            a0=_Constant(float(a0)),
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


def _cell_quadrature(mesh):
    """Gauss-Legendre points/weights on every cell, flattened."""
    h = mesh.h
    left = np.arange(mesh.n_cells) * h
    pts = left[:, None] + 0.5 * h * (_FORM_X[None, :] + 1.0)
    wts = np.broadcast_to(0.5 * h * _FORM_W, pts.shape)
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
    ConfigError
        If a11 < lambda0 at any quadrature point.
    """
    h = mesh.h
    pts, wts = _cell_quadrature(mesh)

    a11_v = np.asarray(coeffs.a11(pts), dtype=float)
    a1_v = np.asarray(coeffs.a1(pts), dtype=float)
    a0_v = np.asarray(coeffs.a0(pts), dtype=float)
    if np.any(a11_v < coeffs.lambda0):
        raise ConfigError(
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
    phi_i(x). Points must be finite and lie in [0, 1], up to the
    rounding slack of the node snap below; others raise ConfigError.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = x * mesh.n_cells
    snap = 4 * np.finfo(float).eps * mesh.n_cells
    # a NaN fails both comparisons
    if not np.all((u >= -snap) & (u <= mesh.n_cells + snap)):
        raise ConfigError("hat_values needs finite points in [0, 1]")
    # points within rounding of a node are put on it, so the hats are
    # exactly 0 or 1 there and a mesh's own nodes give the identity
    node = np.rint(u)
    u = np.where(np.abs(u - node) <= snap, node, u)
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
    if not (_is_finite(epsilon) and 0.0 < epsilon < 1.0):
        raise ConfigError(f"epsilon must be a number in (0, 1), got {epsilon!r}")
    grid = np.linspace(0.0, 1.0, C0_GRID_POINTS)
    sup_a1 = np.abs(np.asarray(coeffs.a1(grid), dtype=float)).max()
    inf_a0 = np.asarray(coeffs.a0(grid), dtype=float).min()
    return sup_a1 / (4.0 * coeffs.lambda0 * epsilon) - inf_a0
