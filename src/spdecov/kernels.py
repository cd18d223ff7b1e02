"""Covariance kernels of the driving noise and their Gram matrices.

A kernel spec is either white noise (no pointwise kernel; its Gram is
the mass matrix) or a pointwise kernel q(x, y): exponential, Matern,
Brownian bridge, or a user-supplied callable. Exponential and Matern
are stationary: they depend on the distance |x - y| alone, through
their `profile`. assemble_Q produces Q_h[i, j] = <Q phi_i, phi_j> by
Gauss-Legendre quadrature over cell pairs.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import kv

from .exceptions import NoPointwiseKernelError
from .fem import assemble_mass
from .linalg import symmetrize

__all__ = [
    "Kernel",
    "WhiteNoise",
    "Exponential",
    "Matern",
    "BrownianBridge",
    "Custom",
    "assemble_Q",
]

#: tensor Gauss-Legendre order per cell pair
Q_QUAD_ORDER = 6

#: graded composite rule for the pairs on and next to the diagonal,
#: where the kernels may kink or cusp along x = y
DUFFY_PANEL_ORDER = 8
DUFFY_PANELS = 8
DUFFY_GRADE = 0.1

#: largest Matern smoothness: beyond it K_nu overflows where the kernel
#: still differs from sigma^2, and the kernel is close to Gaussian anyway
_MATERN_NU_MAX = 30.0


def _check_positive(**params):
    for name, value in params.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


class Kernel:
    """Base class for kernel specs."""

    def pointwise(self, x, y):
        raise NoPointwiseKernelError(
            f"{type(self).__name__} has no pointwise kernel"
        )


class _Stationary(Kernel):
    """Kernel q(x, y) = profile(|x - y|).

    On a uniform mesh its cell-pair blocks depend only on the cell
    offset, which assemble_Q exploits.
    """

    def pointwise(self, x, y):
        return self.profile(np.abs(np.asarray(x, dtype=float) - y))


@dataclass(frozen=True)
class WhiteNoise(Kernel):
    """Spatially uncorrelated noise, Q = I."""


@dataclass(frozen=True)
class Exponential(_Stationary):
    """q(x, y) = exp(-scale * |x - y|)."""

    scale: float

    def __post_init__(self):
        _check_positive(scale=self.scale)

    def profile(self, z):
        return np.exp(-self.scale * z)


@dataclass(frozen=True)
class Matern(_Stationary):
    """Matern kernel in distance z = |x - y|:

        q(z) = sigma^2 2^(1-nu) / Gamma(nu) * (sqrt(2 nu) z / rho)^nu
               * K_nu(sqrt(2 nu) z / rho),

    with the z -> 0 limit sigma^2 taken explicitly (the product is a
    0 * inf form there). Where a factor overflows, K_nu near z = 0 or
    the power far from it, the product takes its limit there, sigma^2
    or 0; up to nu = 30 that limit is exact to rounding.
    """

    sigma: float
    nu: float
    rho: float

    def __post_init__(self):
        _check_positive(sigma=self.sigma, nu=self.nu, rho=self.rho)
        if self.nu > _MATERN_NU_MAX:
            raise ValueError(
                f"nu must not exceed {_MATERN_NU_MAX:g}, got {self.nu!r}: "
                "K_nu overflows there (a Gaussian kernel is the nu -> inf limit)"
            )

    def profile(self, z):
        w = math.sqrt(2.0 * self.nu) / self.rho * z
        safe = np.where(w > 0, w, 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            val = (
                self.sigma**2
                * 2.0 ** (1.0 - self.nu)
                / math.gamma(self.nu)
                * safe**self.nu
                * kv(self.nu, safe)
            )
        val = np.where(np.isfinite(val), val, np.where(w < 1.0, self.sigma**2, 0.0))
        return np.where(w > 0, val, self.sigma**2)


@dataclass(frozen=True)
class BrownianBridge(Kernel):
    """q(x, y) = min(x, y) - x y, the Brownian bridge covariance."""

    def pointwise(self, x, y):
        return np.minimum(x, y) - np.asarray(x, dtype=float) * y


@dataclass(frozen=True)
class Custom(Kernel):
    """User-supplied kernel; q must accept array arguments."""

    q: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def pointwise(self, x, y):
        # expand degenerate outputs (e.g. constants) to the full shape
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        return np.broadcast_to(np.asarray(self.q(x, y), dtype=float), shape)


def _graded_gauss(order, panels, grade):
    """Composite Gauss-Legendre on [0, 1], panels graded toward 0.

    Panel edges are 0, grade^(panels-1), ..., grade, 1. Endpoint
    algebraic singularities t^alpha (Matern cusps with tiny nu) lose an
    order of magnitude per panel instead of stalling a single rule.
    """
    edges = np.concatenate(([0.0], grade ** np.arange(panels - 1, -1.0, -1.0)))
    xg, wg = np.polynomial.legendre.leggauss(order)
    pts = edges[:-1, None] + 0.5 * np.diff(edges)[:, None] * (xg[None, :] + 1.0)
    wts = 0.5 * np.diff(edges)[:, None] * wg[None, :]
    return pts.ravel(), wts.ravel()


# the quadrature rules on the unit cell; one panel is the plain rule
_GAUSS_U, _GAUSS_W = _graded_gauss(Q_QUAD_ORDER, 1, DUFFY_GRADE)
_GRADED_U, _GRADED_W = _graded_gauss(DUFFY_PANEL_ORDER, DUFFY_PANELS, DUFFY_GRADE)

#: cells per batch of graded near-diagonal blocks of non-stationary kernels
_GRADED_CHUNK = 8


def _hats(u):
    """Local hats at unit cell coordinates u: index 0 left node, 1 right."""
    return np.stack([1.0 - u, u])


def _contract(qw, bx, by):
    """(2, 2, m) blocks sum_pq qw[m, p, q] bx[i, p, q] by[j, p, q]."""
    return np.einsum("mpq,ipq,jpq->ijm", qw, bx, by, optimize=True)


def _near_diagonal_blocks(spec, corners, h):
    """Graded blocks of the cells at left corners `corners`.

    Returns (same, right, left): the same-cell blocks of every cell,
    shaped (2, 2, m), and the blocks of the adjacent pairs (c, c + 1)
    and (c + 1, c), shaped (2, 2, m - 1).

    Same-cell pairs are split along the diagonal y = x. On the triangle
    y <= x the substitution x = xl + h u, y = xl + h u v (Jacobian
    h^2 u) keeps |x - y| = h u (1 - v) away from sign changes, so
    kernels with a kink or cusp on the diagonal are integrated from
    smooth data. u is graded toward 0 and v toward 1, where the residual
    edge cusps of nearly-white Matern kernels sit. The mirrored triangle
    is integrated explicitly rather than by symmetry so Custom kernels
    need not be symmetric.

    Adjacent pairs share one node, where nearly-white Matern kernels
    cusp at |x - y| = 0; both axes are graded toward that corner, since
    a plain tensor rule stalls there.
    """
    g = _GRADED_U
    W = np.outer(_GRADED_W, _GRADED_W) * h * h
    c = np.asarray(corners, dtype=float)[:, None, None]

    U, V = np.meshgrid(g, 1.0 - g, indexing="ij")
    x, y = c + h * U, c + h * U * V
    bx, by = _hats(U), _hats(U * V)
    same = _contract(spec.pointwise(x, y) * (W * U), bx, by) + _contract(
        spec.pointwise(y, x) * (W * U), by, bx
    )
    # (c + 1, c): the shared node is the left end of the first cell
    left = _contract(spec.pointwise(c[1:] + h * U, c[:-1] + h * V) * W, bx, _hats(V))
    # (c, c + 1): the shared node is the right end of the first cell
    right = _contract(
        spec.pointwise(c[:-1] + h * V, c[1:] + h * U) * W, _hats(V), bx
    )
    return same, right, left


def _scatter(blocks, mesh):
    """DoF Gram of the (2, 2, n_cells, n_cells) cell-pair blocks.

    blocks[i, j, a, b] couples local node i of cell a with local node j
    of cell b.
    """
    n = mesh.n_cells
    Q = np.zeros((n + 1, n + 1))
    Q[:-1, :-1] += blocks[0, 0]
    Q[:-1, 1:] += blocks[0, 1]
    Q[1:, :-1] += blocks[1, 0]
    Q[1:, 1:] += blocks[1, 1]
    keep = slice(1, -1) if mesh.bc == "dirichlet" else slice(None)
    return Q[keep, keep]


def assemble_Q(mesh, spec):
    """Noise Gram matrix Q_h[i, j] = <Q phi_i, phi_j>.

    White noise returns the mass matrix exactly. Pointwise kernels are
    integrated with a 6x6 tensor Gauss-Legendre rule per cell pair;
    pairs within one cell of the diagonal, where kernels may kink or
    cusp at |x - y| = 0, use graded rules instead (a triangle split on
    same-cell pairs, corner grading on adjacent ones). For stationary
    kernels the block of cell pair (a, b) depends on the offset a - b
    alone, so the 2 n_cells - 1 distinct blocks are integrated once:
    O(n_cells) kernel evaluations instead of O(n_cells^2).
    """
    if isinstance(spec, WhiteNoise):
        return assemble_mass(mesh)

    n, h = mesh.n_cells, mesh.h
    wb = h * _GAUSS_W * _hats(_GAUSS_U)
    cells = np.arange(n)
    if isinstance(spec, _Stationary):
        # offsets d = a - b from 1 - n to n - 1, block d at index d + n - 1
        d = np.arange(1 - n, n)
        z = h * np.abs(d[:, None, None] + _GAUSS_U[:, None] - _GAUSS_U)
        by_offset = np.einsum("ip,dpq,jq->ijd", wb, spec.profile(z), wb, optimize=True)
        same, right, left = _near_diagonal_blocks(spec, [0.0, h], h)
        by_offset[:, :, n - 2 : n + 1] = np.concatenate(
            [right, same[:, :, :1], left], axis=2
        )
        blocks = by_offset[:, :, np.subtract.outer(cells, cells) + n - 1]
    else:
        pts = (cells[:, None] * h + h * _GAUSS_U).ravel()
        qv = spec.pointwise(pts[:, None], pts[None, :])
        qv = qv.reshape(n, Q_QUAD_ORDER, n, Q_QUAD_ORDER)
        blocks = np.einsum("ip,apbq,jq->ijab", wb, qv, wb, optimize=True)
        # graded points of a few cells at a time; all at once would hold
        # 4096 n_cells kernel values per array
        for lo in range(0, n - 1, _GRADED_CHUNK):
            c = cells[lo : lo + _GRADED_CHUNK + 1]
            same, right, left = _near_diagonal_blocks(spec, c * h, h)
            blocks[:, :, c, c] = same
            blocks[:, :, c[:-1], c[1:]] = right
            blocks[:, :, c[1:], c[:-1]] = left
    return symmetrize(_scatter(blocks, mesh))
