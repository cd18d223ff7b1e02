"""Trace-class and Hilbert-Schmidt distances between covariance operators.

Both operators live on uniform meshes of one boundary flavor, and one
mesh refines the other (the same mesh included). A coarse hat is then
exactly piecewise linear on the fine mesh, so the coarse operator of K
is the fine operator of P K P^T, with P the coarse hats at the fine
DoF nodes: two nonzeros per row, 1 - s/r and s/r at fine node c r + s
of a mesh refined r times. Both distances are taken from W = L^T D L,
the difference operator's matrix in an orthonormal basis, with D the
coefficient difference on the finer mesh and L L^T its mass matrix.
That matrix is tridiagonal, so L is lower bidiagonal, and P K P^T and W
each take two shifted element-wise passes: O(n^2) work and no matrix
product. Only L's two diagonals are cached, per mesh; nothing that
depends on K is.
"""

import functools

import numpy as np

from .exceptions import ConfigError, NumericalError
from .fem import assemble_mass
from .linalg import _tridiagonal_cholesky, symmetrize

# err_trace_norm takes eigenvalues only; sym_eig stays importable here
# because perfbench/spans.py traces it by this path
from .linalg import sym_eig  # noqa: F401

__all__ = ["err_trace_norm", "err_hs_norm"]


@functools.lru_cache(maxsize=None)
def _mass_factor(mesh):
    """Diagonal and subdiagonal of the Cholesky factor of the mass matrix.

    The factor is taken from the two diagonals of assemble_mass. Equal
    meshes, of one n_cells and bc, share the arrays, so they are
    read-only.
    """
    M = assemble_mass(mesh)
    d, e = _tridiagonal_cholesky(np.diag(M), np.diag(M, 1))
    d.flags.writeable = e.flags.writeable = False
    return d, e


def _prolong(K, coarse, fine):
    """P K P^T: the coarse matrix K as a matrix on the fine mesh."""
    r = fine.n_cells // coarse.n_cells
    c, s = np.divmod(np.arange(fine.n_cells + 1)[fine.dofs], r)
    w = s / r
    # K on every coarse node, zero at an eliminated Dirichlet node and
    # on a padding node past the end, where the last fine node's
    # weight w is 0
    first = 1 if coarse.bc == "dirichlet" else 0
    A = np.zeros((coarse.n_cells + 2,) * 2)
    A[first : first + len(K), first : first + len(K)] = K
    A = A[c] * (1.0 - w)[:, None] + A[c + 1] * w[:, None]
    return A[:, c] * (1.0 - w) + A[:, c + 1] * w


def _difference(K, mesh, Kref, mesh_ref):
    """W = L^T (K - Kref) L on the finer mesh, symmetrized.

    The coarser matrix is prolonged exactly, as P K P^T with P the
    coarse hats at the fine DoF nodes; on one mesh P is skipped.
    """
    K = np.asarray(K, dtype=float)
    Kref = np.asarray(Kref, dtype=float)
    if K.shape != (mesh.n_dof, mesh.n_dof):
        raise ConfigError(f"K shape {K.shape} does not match mesh ({mesh.n_dof} DoF)")
    if Kref.shape != (mesh_ref.n_dof, mesh_ref.n_dof):
        raise ConfigError(
            f"Kref shape {Kref.shape} does not match mesh ({mesh_ref.n_dof} DoF)"
        )
    if mesh.bc != mesh_ref.bc:
        raise ConfigError(f"cannot mix {mesh.bc!r} and {mesh_ref.bc!r} meshes")
    coarse, fine = sorted((mesh, mesh_ref), key=lambda m: m.n_cells)
    if fine.n_cells % coarse.n_cells:
        raise ConfigError(
            f"a {fine.n_cells}-cell mesh does not refine "
            f"a {coarse.n_cells}-cell mesh"
        )
    if coarse.n_cells < fine.n_cells:
        if mesh is coarse:
            K = _prolong(K, coarse, fine)
        else:
            Kref = _prolong(Kref, coarse, fine)
    d, e = _mass_factor(fine)
    # D L, then L^T (D L), in place: column j of D L is
    # d_j D[:, j] + e_j D[:, j + 1], and row i of L^T D likewise
    D = K - Kref
    shifted = D[:, 1:] * e
    D *= d
    D[:, :-1] += shifted
    shifted = D[1:] * e[:, None]
    D *= d[:, None]
    D[:-1] += shifted
    return symmetrize(D)


def err_trace_norm(K, mesh, Kref, mesh_ref):
    """Trace-norm (L1) distance between two covariance operators.

    The operators are K = sum K[m,n] phi_m x phi_n on `mesh` and
    likewise Kref on `mesh_ref`. With D their coefficient difference on
    the finer mesh and L L^T its mass matrix, the distance is

        sum |eig( L^T D L )|,

    the trace norm of the difference operator.

    Parameters
    ----------
    K, Kref : (n, n), (m, m) array_like
        Symmetric covariance coefficient matrices.
    mesh, mesh_ref : Mesh1D
        The meshes carrying them; one must refine the other, and both
        must share the bc flavor.

    Returns
    -------
    float

    Raises
    ------
    ConfigError
        If a matrix does not fit its mesh, neither mesh refines the
        other, or the meshes carry different boundary flavors.
    NumericalError
        If LAPACK's eigenvalue solver does not converge.
    """
    W = _difference(K, mesh, Kref, mesh_ref)
    try:
        w = np.linalg.eigvalsh(W)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(str(exc)) from exc
    return float(np.abs(w).sum())


def err_hs_norm(K, mesh, Kref, mesh_ref):
    """Hilbert-Schmidt (L2) distance between two covariance operators.

    With D and L as in err_trace_norm this is ||L^T D L||_F, which is
    sqrt(trace((D M)^2)) for M = L L^T. Arguments and errors are those
    of err_trace_norm, except its NumericalError. Where the squares of
    the entries overflow, the norm is taken of W / max|W| and scaled back.
    """
    W = _difference(K, mesh, Kref, mesh_ref)
    with np.errstate(over="ignore"):
        hs = np.linalg.norm(W)
    if not np.isfinite(hs):
        s = np.abs(W).max()
        hs = s * np.linalg.norm(W / s)
    return float(hs)
