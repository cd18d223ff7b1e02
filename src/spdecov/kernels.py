"""Covariance kernels of the driving noise and their Gram matrices.

A kernel spec is either white noise (no pointwise kernel; its Gram is
the mass matrix) or a pointwise kernel q(x, y): exponential, Matern,
Brownian bridge, or a user-supplied callable. Exponential and Matern
are stationary: they depend on the distance |x - y| alone, through
their `profile`. The Brownian bridge is semiseparable, f(min(x, y))
g(max(x, y)), so its Gram is an outer product of hat moments plus a
band. assemble_Q produces Q_h[i, j] = <Q phi_i, phi_j> by
Gauss-Legendre quadrature over cell pairs. One near-diagonal rule
(_near_rule) serves all three of its paths: the triangle split of a
same-cell pair and the corner-graded pair of adjacent cells. Each block
on and next to the diagonal is integrated once, from the kernel's
symmetric part, so the Gram of a Custom kernel q is that of
(q(x, y) + q(y, x)) / 2.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import ConfigError
from .fem import _gauss_legendre, _is_finite, assemble_mass
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

#: bytes of one coordinate of the graded points that the grid path
#: passes to a Custom kernel per call; the kernel's own temporaries are
#: a few times that
_GRID_GROUP_BYTES = 1 << 18

#: largest Matern smoothness: it bounds the upward recurrence of the
#: scaled Bessel function and keeps Gamma(nu) far from overflow, and the
#: kernel is close to Gaussian anyway
_MATERN_NU_MAX = 30.0

#: smallest Matern smoothness: 2^(nu-1) Gamma(nu), the value of the
#: scaled Bessel function at 0, grows like 1 / (2 nu) and overflows
#: below about 3e-309
_MATERN_NU_MIN = 1e-300

#: Taylor coefficients of 1 / Gamma(1 + x) at x = 0 (Abramowitz and
#: Stegun 6.1.34); on |x| <= 1/2 the terms left out are below 1e-18
_RGAMMA_TAYLOR = np.array([
    1.0, 0.57721566490153286, -0.65587807152025388,
    -0.042002635034095236, 0.16653861138229149, -0.042197734555544337,
    -0.0096219715278769736, 0.0072189432466630995, -0.0011651675918590651,
    -0.00021524167411495097, 0.00012805028238811619, -2.0134854780788239e-5,
    -1.2504934821426707e-6, 1.1330272319816959e-6, -2.0563384169776071e-7,
    6.1160951044814158e-9, 5.0020076444692229e-9, -1.1812745704870201e-9,
    1.0434267116911005e-10, 7.7822634399050713e-12, -3.6968056186422057e-12,
    5.100370287454476e-13,
])

_EPS = np.finfo(float).eps


def _check_positive(**params):
    for name, value in params.items():
        if not (_is_finite(value) and value > 0):
            raise ConfigError(f"{name} must be finite and positive, got {value!r}")


def _temme(mu, x, even, odd, lim1):
    """x^mu K_mu(x) and x^(mu+1) K_(mu+1)(x) for 0 < x < 2, |mu| <= 1/2.

    Temme's series (Numerical Recipes, section 6.7, bessik) with every
    term multiplied by x^mu. even and odd split the reciprocal Gamma
    function, 1 / Gamma(1 +- mu) = even +- mu odd, and lim1 = 2^mu
    Gamma(1 + mu) is the x -> 0 limit of the second result.
    """
    d = math.log(2.0) - np.log(x)
    s2 = x ** (2.0 * mu)
    fact = 1.0 if mu == 0 else math.pi * mu / math.sin(math.pi * mu)
    # x^mu sinh(mu d) / mu, which is d at mu = 0
    g = d if mu == 0 else -(2.0**mu) * np.expm1(-2.0 * mu * d) / (2.0 * mu)
    ff = fact * (even * g - odd * 0.5 * (2.0**mu + 2.0**-mu * s2))
    p = 0.5 * lim1
    q = 0.5 * 2.0**-mu / (even - mu * odd) * s2
    c = np.ones_like(x)
    t = 0.25 * x * x
    f0, f1 = ff, np.full_like(x, p)
    k = 0
    while True:
        k += 1
        ff = (k * ff + p + q) / (k * k - mu * mu)
        c = c * t / k
        p = p / (k - mu)
        q = q / (k + mu)
        step = c * ff
        f0 = f0 + step
        f1 = f1 + c * (p - k * ff)
        if np.all(np.abs(step) <= _EPS * f0):
            return f0, 2.0 * f1


def _steed(mu, x):
    """x^mu K_mu(x) and x^(mu+1) K_(mu+1)(x) for x >= 2, |mu| <= 1/2.

    Steed's evaluation of the continued fraction CF2 (Numerical Recipes,
    section 6.7, bessik). The factor x^(mu - 1/2) exp(-x) is taken in
    log form, so the results underflow to 0 beyond x of about 745.
    """
    a1 = 0.25 - mu * mu
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = delh = d
    q1, q2 = np.zeros_like(x), np.ones_like(x)
    q = np.full_like(x, a1)
    a, c = -a1, a1
    s = 1.0 + q * delh
    i = 1
    while True:
        i += 1
        a -= 2 * (i - 1)
        c = -a * c / i
        q1, q2 = q2, (q1 - b * q2) / a
        q = q + c * q2
        b = b + 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h = h + delh
        dels = q * delh
        s = s + dels
        if np.all(np.abs(dels) <= _EPS * s):
            break
    f0 = math.sqrt(0.5 * math.pi) * np.exp((mu - 0.5) * np.log(x) - x) / s
    return f0, f0 * (mu + x + 0.5 - a1 * h)


def _horner(coefs, x):
    """coefs[0] + coefs[1] x + ..., in the operations of numpy's polyval."""
    acc = coefs[-1]
    for c in coefs[-2::-1]:
        acc = c + acc * x
    return float(acc)


def _kv_series(nu):
    """(n, mu, even, odd, lim1): what f_nu depends on through nu alone.

    nu = mu + n with n the nearest integer, 1 / Gamma(1 +- mu) = even +-
    mu odd, and lim1 = 2^mu Gamma(1 + mu).
    """
    n = int(nu + 0.5)
    mu = nu - n
    even = _horner(_RGAMMA_TAYLOR[0::2], mu * mu)
    odd = _horner(_RGAMMA_TAYLOR[1::2], mu * mu)
    # the w -> 0 limits: f_(mu+1) -> 2^mu Gamma(1 + mu), f_mu -> 2^(mu-1)
    # Gamma(mu) for mu > 0; for mu <= 0 f_mu diverges, but then n >= 1
    # and it enters only as w^2 f_mu -> 0
    return n, mu, even, odd, 2.0**mu / (even + mu * odd)


def _scaled_kv(nu, w, series=None):
    """f_nu(w) = w^nu K_nu(w) for a scalar nu in [1e-300, 30] and w >= 0.

    K_nu is the modified Bessel function of the second kind. The scaled
    form is finite everywhere: f_nu(0) = 2^(nu-1) Gamma(nu), and it
    underflows to 0 far away. With nu = mu + n, n the nearest integer,
    Temme's series (w < 2) or Steed's CF2 (w >= 2) gives f_mu and
    f_(mu+1) (Temme 1975, J. Comput. Phys. 19:324), and the upward
    recurrence f_(m+1) = 2 m f_m + w^2 f_(m-1), which is K_(m+1) =
    (2m / w) K_m + K_(m-1) times w^(m+1), reaches nu. Every term of the
    recurrence is positive, so it loses no accuracy at any w. series is
    _kv_series(nu), taken here when not given.
    """
    n, mu, even, odd, lim1 = _kv_series(nu) if series is None else series
    w = np.asarray(w, dtype=float)
    f0 = np.full(w.shape, 0.5 * lim1 / mu if n == 0 else 0.0)
    f1 = np.full(w.shape, lim1)
    # for mu < 0, w^(2 mu) overflows at subnormal w, where f_nu with
    # nu > 1/2 equals its w = 0 value to rounding
    near = (w > (np.finfo(float).tiny if mu < 0 else 0.0)) & (w < 2.0)
    if near.any():
        f0[near], f1[near] = _temme(mu, w[near], even, odd, lim1)
    # f_nu underflows before w = 1e3 (nu <= 30); the cap keeps the
    # continued fraction finite
    far = w >= 2.0
    if far.any():
        f0[far], f1[far] = _steed(mu, np.minimum(w[far], 1e3))
    for m in mu + np.arange(1, n):
        f0, f1 = f1, 2.0 * m * f1 + w * (w * f0)
    return f1 if n else f0


class Kernel:
    """Base class for kernel specs."""

    def pointwise(self, x, y):
        raise ConfigError(f"{type(self).__name__} has no pointwise kernel")

    def _symmetric_part(self, x, y):
        """(q(x, y) + q(y, x)) / 2, which is q for every built-in kernel."""
        return self.pointwise(x, y)


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

        q(z) = sigma^2 2^(1-nu) / Gamma(nu) * w^nu K_nu(w),
        w = sqrt(2 nu) z / rho,

    with K_nu the modified Bessel function of the second kind. The
    scaled Bessel function f_nu(w) = w^nu K_nu(w) is finite at w = 0,
    where it is 2^(nu-1) Gamma(nu), so q is evaluated as sigma^2
    f_nu(w) / f_nu(0): exactly sigma^2 at z = 0, and 0 where f_nu
    underflows far away. nu lies in [1e-300, 30].
    """

    sigma: float
    nu: float
    rho: float

    def __post_init__(self):
        _check_positive(sigma=self.sigma, nu=self.nu, rho=self.rho)
        if self.nu > _MATERN_NU_MAX:
            raise ConfigError(
                f"nu must not exceed {_MATERN_NU_MAX:g}, got {self.nu!r}: "
                "K_nu overflows there (a Gaussian kernel is the nu -> inf limit)"
            )
        if self.nu < _MATERN_NU_MIN:
            raise ConfigError(
                f"nu must be at least {_MATERN_NU_MIN:g}, got {self.nu!r}: "
                "Gamma(nu) overflows as nu -> 0"
            )
        series = _kv_series(self.nu)
        object.__setattr__(self, "_series", series)
        object.__setattr__(self, "_f0", _scaled_kv(self.nu, 0.0, series))  # f_nu(0)

    def profile(self, z):
        w = math.sqrt(2.0 * self.nu) / self.rho * z
        return self.sigma**2 * (_scaled_kv(self.nu, w, self._series) / self._f0)


class _Semiseparable(Kernel):
    """Kernel q(x, y) = f(min(x, y)) g(max(x, y)); subclasses define f and g.

    For two hats whose supports do not overlap, <Q phi_i, phi_j> is the
    product of the moments int f phi and int g phi of the left and the
    right hat, so the Gram is semiseparable: an outer product of those
    moments plus a band, which assemble_Q exploits (Vandebril, Van Barel
    and Mastronardi, Matrix Computations and Semiseparable Matrices, 2008).
    """


@dataclass(frozen=True)
class BrownianBridge(_Semiseparable):
    """q(x, y) = min(x, y) - x y, the Brownian bridge covariance.

    It is the Green's function of the Dirichlet Laplacian, Q = Lambda^-1,
    with f(x) = x and g(y) = 1 - y.
    """

    def f(self, x):
        return x

    def g(self, y):
        return 1.0 - y

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

    def _symmetric_part(self, x, y):
        return 0.5 * (self.pointwise(x, y) + self.pointwise(y, x))


def _graded_gauss(order, panels, grade):
    """Composite Gauss-Legendre on [0, 1], panels graded toward 0.

    Panel edges are 0, grade^(panels-1), ..., grade, 1. Endpoint
    algebraic singularities t^alpha (Matern cusps with tiny nu) lose an
    order of magnitude per panel instead of stalling a single rule.
    """
    edges = np.concatenate(([0.0], grade ** np.arange(panels - 1, -1.0, -1.0)))
    xg, wg = _gauss_legendre(order)
    pts = edges[:-1, None] + 0.5 * np.diff(edges)[:, None] * (xg[None, :] + 1.0)
    wts = 0.5 * np.diff(edges)[:, None] * wg[None, :]
    return pts.ravel(), wts.ravel()


# the quadrature rules on the unit cell; one panel is the plain rule
_GAUSS_U, _GAUSS_W = _graded_gauss(Q_QUAD_ORDER, 1, DUFFY_GRADE)
_GRADED_U, _GRADED_W = _graded_gauss(DUFFY_PANEL_ORDER, DUFFY_PANELS, DUFFY_GRADE)


def _hats(u):
    """Local hats at unit cell coordinates u: index 0 left node, 1 right."""
    return np.stack([1.0 - u, u])


def _near_rule(nodes, weights, a, b):
    """The same-cell and adjacent-pair rules at the node pairs (a, b).

    A tensor rule (nodes, weights) on [0, 1] runs over u = nodes[a] and,
    reflected, over v = 1 - nodes[b], so a graded rule is graded toward
    u = 0 and v = 1. Returns the unit points, shape (2, 2, m): x and y
    of each rule in units of h, relative to the left end of cell c; and
    the hat weights, shape (2, 4, m), whose row 2 i + j pairs local node
    i of x's cell with local node j of y's (_cell_blocks).

    Same-cell pairs are split along the diagonal y = x. On the triangle
    y <= x the substitution x = u, y = u v (Jacobian u) keeps |x - y| =
    u (1 - v) away from sign changes, so kernels with a kink or cusp on
    the diagonal are integrated from smooth data; the mirrored triangle
    adds the (i, j) transpose, so the kernel must be symmetric.

    The adjacent pair (c + 1, c) shares one node, x = 1 + u against
    y = v, where nearly-white Matern kernels cusp at |x - y| = 0; a
    graded rule grades both axes toward it, since a plain tensor rule
    stalls there. The pair (c, c + 1) is its (i, j) transpose.
    """
    u, v = nodes[a], 1.0 - nodes[b]
    w = weights[a] * weights[b]
    same = _hats(u)[:, None] * _hats(u * v)[None] * (w * u)
    adjacent = _hats(u)[:, None] * _hats(v)[None] * w
    rule = np.stack([same + same.swapaxes(0, 1), adjacent]).reshape(2, 4, -1)
    return np.array([[u, u * v], [1.0 + u, v]]), rule


def _cell_blocks(rule, values, h):
    """(2, 2, k) blocks h^2 sum_m rule[2 i + j, m] values[k, m]."""
    return (h * h * (rule @ values.T)).reshape(2, 2, -1)


@functools.cache
def _stationary_near_rule():
    """The graded near-diagonal rules of a stationary kernel, folded.

    The unit distance x - y of _near_rule at the graded nodes g, g_a
    g_b within a cell and g_a + g_b across the shared node, is symmetric
    in (a, b), so a profile takes one value at (a, b) and (b, a).
    Returns those distances at the pairs a <= b, shape (2, m), and the
    hat weights of (a, b) and (b, a) summed, shape (2, 4, m). The arrays
    are shared by every call, so they are read-only.
    """
    a, b = np.triu_indices(len(_GRADED_U))
    points, rule = _near_rule(_GRADED_U, _GRADED_W, a, b)
    rule += _near_rule(_GRADED_U, _GRADED_W, b, a)[1]
    # the diagonal pair a = b counted once
    rule *= np.where(a == b, 0.5, 1.0)
    z = points[:, 0] - points[:, 1]
    z.flags.writeable = rule.flags.writeable = False
    return z, rule


def _semiseparable_gram(mesh, spec):
    """Gram of a _Semiseparable kernel: an outer product plus a band.

    u[c, i] = int f phi_i and v[c, i] = int g phi_i are the moments of
    the local hats of cell c, and U, V their sums per node. For x in
    cell a and y in a cell b > a, q = f(x) g(y), so the block of cells
    (a, b) is u[a] v[b]^T, and Q[p, r] = U[p] V[r] wherever r >= p + 2:
    there the supports of the two hats do not overlap. The outer product
    of U and V, mirrored from its upper triangle so that the result is
    exactly symmetric, is corrected on the band: each same-cell block
    replaces its u[c] v[c]^T, and on the main diagonal the pair
    (c + 1, c), whose x lies right of its y, replaces u[c + 1, 0] v[c, 1]
    by u[c, 1] v[c + 1, 0]. The moments come from the 6-point cell rule
    and the same-cell blocks from the triangle split of _near_rule with
    the plain 6 x 6 rule: q is smooth on each triangle, and for the
    bridge the integrands are polynomials that both rules integrate
    exactly.
    """
    n, h = mesh.n_cells, mesh.h
    x = np.arange(n)[:, None] * h + h * _GAUSS_U
    wb = h * _GAUSS_W * _hats(_GAUSS_U)
    u, v = spec.f(x) @ wb.T, spec.g(x) @ wb.T
    pairs = np.indices((Q_QUAD_ORDER,) * 2).reshape(2, -1)
    points, rule = _near_rule(_GAUSS_U, _GAUSS_W, *pairs)
    x, y = h * (np.arange(n)[:, None] + points[0][:, None])
    same = _cell_blocks(rule[0], spec.f(y) * spec.g(x), h)
    U, V, diag = np.zeros(n + 1), np.zeros(n + 1), np.zeros(n + 1)
    for i in (0, 1):
        U[i : n + i] += u[:, i]
        V[i : n + i] += v[:, i]
        diag[i : n + i] += same[i, i] - u[:, i] * v[:, i]
    diag[1:-1] += u[:-1, 1] * v[1:, 0] - u[1:, 0] * v[:-1, 1]
    upper = same[0, 1] - u[:, 0] * v[:, 1]

    # upper[p] couples nodes p and p + 1, so the node slice keeps the
    # pairs of two degrees of freedom
    U, V, diag, upper = U[mesh.dofs], V[mesh.dofs], diag[mesh.dofs], upper[mesh.dofs]
    Q = np.triu(np.outer(U, V))
    Q += np.triu(Q, 1).T
    i = np.arange(len(U))
    Q[i, i] += diag
    Q[i[:-1], i[1:]] += upper
    Q[i[1:], i[:-1]] += upper
    return Q


def _scatter(blocks, mesh):
    """DoF Gram of the (2, 2, n_cells, n_cells) cell-pair blocks.

    blocks[i, j, a, b] couples local node i of cell a with local node j
    of cell b.
    """
    n = mesh.n_cells
    Q = np.zeros((n + 1, n + 1))
    for i, j in np.ndindex(2, 2):
        Q[i : n + i, j : n + j] += blocks[i, j]
    return Q[mesh.dofs, mesh.dofs]


def assemble_Q(mesh, spec):
    """Noise Gram matrix Q_h[i, j] = <Q phi_i, phi_j>.

    White noise returns the mass matrix exactly. Each pointwise kernel
    takes one of three paths, chosen by its type:

    - semiseparable (the Brownian bridge): the outer product of the hat
      moments of f and g plus a band from the same-cell blocks
      (_semiseparable_gram), with O(n_cells) evaluations of f and g and
      no kernel grid;
    - stationary (exponential, Matern): the block of cell pair (a, b)
      depends on the offset d = a - b alone, and that of -d is the
      transpose of that of d, so the n_cells blocks with d >= 0 are
      integrated once: O(n_cells) kernel evaluations, not O(n_cells^2).
      The graded blocks of d = 0 and d = 1 take one profile value per
      symmetric pair of graded points (_stationary_near_rule), so a
      Gram evaluates the profile at 36 (n_cells - 2) + 2 * 2080 points;
    - grid (Custom): the kernel on the whole (6 n_cells)^2 point grid.

    The last two integrate with a 6x6 tensor Gauss-Legendre rule per
    cell pair; pairs within one cell of the diagonal, where kernels may
    kink or cusp at |x - y| = 0, use the near rule (_near_rule: a
    triangle split on same-cell pairs, corner grading on adjacent ones)
    on the graded 64-point rule instead, each integrated once from the
    kernel's symmetric part: a Custom kernel's Gram is that of its
    symmetric part. The semiseparable path takes the same-cell half of
    that rule on the plain 6-point rule, and the grid path passes its
    graded points to the kernel a group of cells per call, so that the
    call's arrays stay near _GRID_GROUP_BYTES whatever n_cells is.
    """
    if not isinstance(spec, Kernel):
        raise ConfigError(f"kernel must be a Kernel, got {spec!r}")
    if isinstance(spec, WhiteNoise):
        return assemble_mass(mesh)
    if isinstance(spec, _Semiseparable):
        return _semiseparable_gram(mesh, spec)

    n, h = mesh.n_cells, mesh.h
    wb = h * _GAUSS_W * _hats(_GAUSS_U)
    cells = np.arange(n)
    if isinstance(spec, _Stationary):
        # offsets d = a - b >= 0 (0 and 1 graded); -d is the (i, j) transpose
        d = np.arange(2, n)
        z = h * np.abs(d[:, None, None] + _GAUSS_U[:, None] - _GAUSS_U)
        far = (wb @ spec.profile(z) @ wb.T).transpose(1, 2, 0)
        # the same-cell (d = 0) and adjacent (d = 1) blocks, one profile
        # value per symmetric pair of graded points
        z, rule = _stationary_near_rule()
        near = [_cell_blocks(r, q[None], h) for r, q in zip(rule, spec.profile(h * z))]
        b = np.concatenate([*near, far], axis=2)
        b = np.concatenate([b[:, :, :0:-1].swapaxes(0, 1), b], axis=2)
        # blocks[:, :, a, c] = b[:, :, a - c + n - 1], a strided view
        blocks = sliding_window_view(b[:, :, ::-1], n, axis=2)[:, :, ::-1]
    else:
        pts = (cells[:, None] * h + h * _GAUSS_U).ravel()
        qv = spec.pointwise(pts[:, None], pts[None, :])
        qv = qv.reshape(n, Q_QUAD_ORDER, n, Q_QUAD_ORDER)
        blocks = np.einsum("ip,apbq,jq->ijab", wb, qv, wb, optimize=True)
        del qv
        # the graded points, the grid freed first: the same-cell rule of
        # each cell c, then the adjacent rule of each pair (c + 1, c), a
        # group of cells per kernel call
        pairs = np.indices((len(_GRADED_U),) * 2).reshape(2, -1)
        points, rule = _near_rule(_GRADED_U, _GRADED_W, *pairs)
        hp = h * points
        group = max(1, _GRID_GROUP_BYTES // hp[0, 0].nbytes)

        def near(k, c):
            blocks_k = []
            for g in np.split(c, range(group, len(c), group)):
                x, y = hp[k][:, None] + h * g[:, None]
                blocks_k.append(_cell_blocks(rule[k], spec._symmetric_part(x, y), h))
            return np.concatenate(blocks_k, axis=2)

        a = cells[:-1]
        blocks[:, :, cells, cells] = near(0, cells)
        blocks[:, :, a + 1, a] = left = near(1, a)
        blocks[:, :, a, a + 1] = left.swapaxes(0, 1)
    return symmetrize(_scatter(blocks, mesh))
