"""Trace-class and Hilbert-Schmidt distances between covariance operators.

Both operators live on uniform meshes of one boundary flavor, and one
mesh refines the other (the same mesh included). A coarse hat is then
exactly piecewise linear on the fine mesh, so the coarse operator of K
is the fine operator of P K P^T, with P the coarse hats at the fine
DoF nodes. Both distances are taken from the one coefficient difference
D on the finer mesh and its mass matrix M.
"""

import numpy as np

from .exceptions import MismatchedBCError, NoConvergenceError, ShapeMismatchError
from .fem import assemble_mass, hat_values
from .linalg import psd_sqrt, symmetrize

# err_trace_norm takes eigenvalues only; sym_eig stays importable here
# because perfbench/spans.py traces it by this path
from .linalg import sym_eig  # noqa: F401

__all__ = ["err_trace_norm", "err_hs_norm"]


def _difference(K, mesh, Kref, mesh_ref):
    """Difference D of K and Kref on the finer mesh, and its mass M.

    The coarser matrix is prolonged exactly, as P K P^T with P the
    coarse hats at the fine DoF nodes; on one mesh P is skipped.
    """
    K = np.asarray(K, dtype=float)
    Kref = np.asarray(Kref, dtype=float)
    if K.shape != (mesh.n_dof, mesh.n_dof):
        raise ShapeMismatchError(
            f"K shape {K.shape} does not match mesh ({mesh.n_dof} DoF)"
        )
    if Kref.shape != (mesh_ref.n_dof, mesh_ref.n_dof):
        raise ShapeMismatchError(
            f"Kref shape {Kref.shape} does not match mesh ({mesh_ref.n_dof} DoF)"
        )
    if mesh.bc != mesh_ref.bc:
        raise MismatchedBCError(
            f"cannot mix {mesh.bc!r} and {mesh_ref.bc!r} meshes"
        )
    coarse, fine = sorted((mesh, mesh_ref), key=lambda m: m.n_cells)
    if fine.n_cells % coarse.n_cells:
        raise ShapeMismatchError(
            f"a {fine.n_cells}-cell mesh does not refine "
            f"a {coarse.n_cells}-cell mesh"
        )
    if coarse.n_cells < fine.n_cells:
        P = hat_values(coarse, fine.dof_nodes)
        if mesh is coarse:
            K = P @ K @ P.T
        else:
            Kref = P @ Kref @ P.T
    return K - Kref, assemble_mass(fine)


def err_trace_norm(K, mesh, Kref, mesh_ref):
    """Trace-norm (L1) distance between two covariance operators.

    The operators are K = sum K[m,n] phi_m x phi_n on `mesh` and
    likewise Kref on `mesh_ref`. With D their coefficient difference on
    the finer mesh and M its mass matrix, the distance is

        sum |eig( M^{1/2} D M^{1/2} )|,

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
    ShapeMismatchError
        If a matrix does not fit its mesh, or neither mesh refines the
        other.
    MismatchedBCError
        If the meshes carry different boundary flavors.
    NoConvergenceError
        If LAPACK's eigenvalue solver does not converge.
    """
    D, M = _difference(K, mesh, Kref, mesh_ref)
    root = psd_sqrt(M)
    W = symmetrize(root @ D @ root)
    try:
        w = np.linalg.eigvalsh(W)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    return float(np.abs(w).sum())


def err_hs_norm(K, mesh, Kref, mesh_ref):
    """Hilbert-Schmidt (L2) distance between two covariance operators.

    With D and M as in err_trace_norm this is sqrt(trace((D M)^2)).
    Arguments and errors are those of err_trace_norm.
    """
    D, M = _difference(K, mesh, Kref, mesh_ref)
    DM = D @ M
    return float(np.sqrt(max(np.sum(DM * DM.T), 0.0)))
