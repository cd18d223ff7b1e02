import json
import math
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss
from numpy.polynomial.polynomial import polyval
from numpy.testing import assert_allclose
from scipy.special import kv

from spdecov import (
    BrownianBridge,
    ConfigError,
    Custom,
    Exponential,
    Matern,
    Mesh1D,
    WhiteNoise,
    assemble_Q,
    assemble_mass,
    assemble_stiffness,
    hat_values,
)
from spdecov.kernels import _Semiseparable, _scaled_kv


def test_brownian_bridge_midpoint():
    assert BrownianBridge().pointwise(0.5, 0.5) == pytest.approx(0.25, abs=0)


def test_brownian_bridge_formula():
    x = np.array([0.2, 0.7, 0.0])
    y = np.array([0.5, 0.4, 1.0])
    got = BrownianBridge().pointwise(x, y)
    assert_allclose(got, np.minimum(x, y) - x * y, atol=1e-16)


def test_exponential_endpoints():
    assert Exponential(2.0).pointwise(0.0, 1.0) == pytest.approx(
        np.exp(-2.0), abs=1e-16
    )
    assert Exponential(2.0).pointwise(0.3, 0.3) == pytest.approx(1.0, abs=0)


def test_matern_half_is_exponential():
    # nu = 1/2 closed form sigma^2 exp(-z / rho)
    m = Matern(sigma=1.5, nu=0.5, rho=0.3)
    for z in (0.1, 0.5, 1.0):
        got = m.pointwise(0.0, z)
        assert got == pytest.approx(1.5**2 * np.exp(-z / 0.3), abs=1e-10)


def test_matern_diagonal_is_variance():
    m = Matern(sigma=10.0, nu=0.01, rho=0.1)
    x = np.linspace(0.0, 1.0, 7)
    assert_allclose(m.pointwise(x, x), np.full(7, 100.0), rtol=1e-13)


def test_matern_tiny_nu_values_finite_and_decaying():
    m = Matern(sigma=10.0, nu=0.01, rho=0.1)
    z = np.array([1e-12, 1e-6, 1e-2, 0.1, 0.5, 1.0])
    vals = m.pointwise(np.zeros_like(z), z)
    assert np.all(np.isfinite(vals))
    assert np.all(np.diff(vals) < 0)
    assert vals[-1] > 0


def test_white_noise_has_no_pointwise_kernel():
    with pytest.raises(ConfigError, match="WhiteNoise has no pointwise kernel"):
        WhiteNoise().pointwise(0.5, 0.5)


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


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("n_cells", [2, 5])
@pytest.mark.parametrize(
    "kernel",
    [Custom(lambda x, y: np.exp(-2 * np.abs(x - y)) * (1 + x * y)), Exponential(2.0)],
    ids=["custom", "exponential"],
)
def test_near_rule_paths_match_the_oracle(kernel, n_cells, bc):
    # the grid and stationary paths share one near-diagonal rule, so
    # they are checked against the oracle's own, finer near rules
    mesh = Mesh1D(n_cells, bc)
    Q = assemble_Q(mesh, kernel)
    oracle = _q_oracle(kernel, mesh)
    gap = np.abs(Q - oracle).max()
    assert gap <= 1e-12 * np.abs(oracle).max(), gap


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
    # so does Gamma(nu) ~ 1 / nu for subnormal nu
    with pytest.raises(ValueError, match="nu must be at least"):
        Matern(sigma=1.0, nu=1e-310, rho=1.0)
    Matern(sigma=1.0, nu=1e-300, rho=1.0)


def test_matern_large_nu_takes_its_limits():
    # K_nu overflows near z = 0 and (w)^nu far from it; the kernel then
    # takes its limits sigma^2 and 0 instead of 0 * inf = nan
    m = Matern(sigma=2.0, nu=25.0, rho=0.1)
    near = m.pointwise(np.zeros(3), np.array([1e-300, 1e-20, 1e-15]))
    assert np.array_equal(near, np.full(3, 4.0))
    tiny_rho = Matern(sigma=2.0, nu=25.0, rho=1e-12)
    assert tiny_rho.pointwise(0.0, 1.0) == 0.0
    Q = assemble_Q(Mesh1D(64, "dirichlet"), m)
    assert np.isfinite(Q).all()
    ev = np.linalg.eigvalsh(Q)
    assert ev.min() >= -1e-12 * ev.max()


def _scipy_scaled_kv(nu, w):
    """w^nu K_nu(w) from scipy, and where it is a finite normal positive double."""
    with np.errstate(all="ignore"):
        want = w**nu * kv(nu, w)
    return want, np.isfinite(want) & (want >= np.finfo(float).tiny)


KV_GRID = np.logspace(-10, np.log10(700.0), 600)


@pytest.mark.parametrize("nu", [0.01, 0.5, 1.3, 2.5, 10.0, 30.0])
def test_scaled_kv_matches_scipy_on_a_grid(nu):
    want, ok = _scipy_scaled_kv(nu, KV_GRID)
    got = _scaled_kv(nu, KV_GRID)
    assert ok.sum() >= 500
    assert_allclose(got[ok], want[ok], rtol=5e-13, atol=0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    nu=st.floats(1e-300, 30.0),
    w=st.lists(st.floats(1e-10, 700.0), min_size=1, max_size=16),
)
def test_scaled_kv_matches_scipy(nu, w):
    w = np.array(w)
    want, ok = _scipy_scaled_kv(nu, w)
    got = _scaled_kv(nu, w)
    assert_allclose(got[ok], want[ok], rtol=5e-13, atol=0)


@pytest.mark.parametrize(
    "nu, poly",
    [(0.5, [1.0]), (1.5, [1.0, 1.0]), (2.5, [3.0, 3.0, 1.0])],
)
def test_scaled_kv_half_integer_closed_forms(nu, poly):
    # w^nu K_nu(w) = sqrt(pi/2) e^-w p(w) with p a polynomial
    w = np.concatenate(([0.0, 1e-300], KV_GRID))
    want = math.sqrt(math.pi / 2) * np.exp(-w) * polyval(w, poly)
    assert_allclose(_scaled_kv(nu, w), want, rtol=5e-13, atol=0)


@pytest.mark.parametrize("nu", [1.01, 1.3, 2.5, 7.75, 29.0])
def test_scaled_kv_recurrence(nu):
    # K_(nu+1) = (2 nu / w) K_nu + K_(nu-1), times w^(nu+1)
    w = KV_GRID
    lhs = _scaled_kv(nu + 1.0, w)
    rhs = 2.0 * nu * _scaled_kv(nu, w) + w * w * _scaled_kv(nu - 1.0, w)
    ok = lhs >= np.finfo(float).tiny
    assert_allclose(lhs[ok], rhs[ok], rtol=1e-13, atol=0)


@pytest.mark.parametrize("nu", [0.01, 0.5, 1.3, 29.5, 30.0])
def test_scaled_kv_limits(nu):
    # w^nu K_nu(w) -> 2^(nu-1) Gamma(nu) as w -> 0. For nu < 1 the next
    # term is 2^(-nu-1) Gamma(-nu) w^(2 nu); at nu = 0.01 and w = 1e-300
    # it is still 1e-6 relative, below 1e-300 for the other nu.
    w = np.array([0.0, 5e-324, 1e-300])
    want = 2.0 ** (nu - 1.0) * math.gamma(nu) * np.ones(3)
    if nu < 1:
        want += 2.0 ** (-nu - 1.0) * math.gamma(-nu) * w ** (2.0 * nu)
    assert_allclose(_scaled_kv(nu, w), want, rtol=1e-14, atol=0)
    # far away it underflows to 0, with no overflow on the way
    far = _scaled_kv(nu, np.array([750.0, 1e3, 1e300, np.finfo(float).max]))
    assert np.array_equal(far, np.zeros(4))


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
        # the benchmark's Matern kernel, on the folded stationary path
        (4, "dirichlet", Matern(10.0, 0.01, 0.1), {
            (0, 0): 0.28438097036946,
            (0, 1): 0.17871646079205472,
            (0, 2): 0.08742102844091909,
        }),
    ],
)
def test_generic_gram_entries_pinned(n_cells, bc, kernel, entries):
    # values of the per-cell-pair assembly before it was vectorized
    Q = assemble_Q(Mesh1D(n_cells, bc), kernel)
    assert np.array_equal(Q, Q.T)
    for (i, j), want in entries.items():
        assert Q[i, j] == pytest.approx(want, rel=1e-13, abs=0)


def _probe(n_rows):
    """Entries (i, j), i <= j, near the start, middle and end of the diagonal."""
    rows = (0, n_rows // 2, n_rows - 1)
    near = {p for r in rows for k in (0, 1, 2) for p in ((r - k, r), (r, r + k))}
    return sorted({(i, j) for i, j in near if 0 <= i <= j < n_rows} | {(0, n_rows - 1)})


GRAM_KERNELS = {
    "exponential": Exponential(3.0),
    "matern": Matern(10.0, 0.01, 0.1),
    "bridge": BrownianBridge(),
    "skew": Custom(_skew),
}

#: Q_h at the _probe entries, from the assembly that integrated both
#: same-cell triangles and both orientations of every adjacent pair
#: (commit 019ca89)
GRAM_ENTRIES = json.loads(
    (Path(__file__).parent / "gram_entries.json").read_text(encoding="utf-8")
)


#: int int min(s, t) phi_i(s) phi_j(t) ds dt over the unit cell, for
#: the local hats phi_0 = 1 - s and phi_1 = s
_MIN_MOMENTS = ((Fraction(1, 20), Fraction(3, 40)), (Fraction(3, 40), Fraction(2, 15)))


def _exact_bridge_entry(n_cells, bc, i, j):
    """Q_h[i, j] of the Brownian bridge, exactly, in Fractions.

    For x in cell a and y in cell b > a, q = x (1 - y) factors into the
    cell moments F[a] = int x phi and G[b] = int (1 - y) phi. In a cell
    a, int int min(x, y) phi phi = h^3 (a / 4 + _MIN_MOMENTS) and
    int int x y phi phi = F[a] F[a].
    """
    h = Fraction(1, n_cells)
    off = (Fraction(1, 6), Fraction(1, 3))

    def F(c, k):
        return h * h * (Fraction(c, 2) + off[k])

    def G(c, k):
        return h * h * (Fraction(n_cells - c, 2) - off[k])

    def cells(dof):
        node = dof + (bc == "dirichlet")
        return [(c, k) for c, k in ((node - 1, 1), (node, 0)) if 0 <= c < n_cells]

    total = Fraction(0)
    for a, k in cells(i):
        for b, m in cells(j):
            if a < b:
                total += F(a, k) * G(b, m)
            elif a > b:
                total += F(b, m) * G(a, k)
            else:
                total += h**3 * (Fraction(a, 4) + _MIN_MOMENTS[k][m])
                total -= F(a, k) * F(a, m)
    return total


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("n_cells", [2, 3, 8, 64])
def test_bridge_gram_is_exact(n_cells, bc):
    Q = assemble_Q(Mesh1D(n_cells, bc), BrownianBridge())
    assert np.array_equal(Q, Q.T)
    want = np.array(
        [[float(_exact_bridge_entry(n_cells, bc, i, j)) for j in range(len(Q))]
         for i in range(len(Q))]
    )
    assert_allclose(Q, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("case", sorted(GRAM_ENTRIES))
def test_gram_matches_both_triangle_assembly(case):
    name, n_cells, bc = case.split()
    Q = assemble_Q(Mesh1D(int(n_cells), bc), GRAM_KERNELS[name])
    assert np.array_equal(Q, Q.T)
    entries = GRAM_ENTRIES[case]
    assert [(i, j) for i, j, _ in entries] == _probe(len(Q))
    if name == "bridge":
        # the stored bridge entries carry that assembly's quadrature
        # error, up to 1.3e-13 relative at 1024 cells; check the exact ones
        entries = [
            (i, j, float(_exact_bridge_entry(int(n_cells), bc, i, j)))
            for i, j, _ in entries
        ]
    for i, j, want in entries:
        assert Q[i, j] == pytest.approx(want, rel=1e-13, abs=0), (i, j)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("n_cells", [2, 3, 8, 128])
def test_bridge_gram_matches_the_grid_path(n_cells, bc):
    # Custom hides the semiseparable structure, so it takes the grid path
    mesh = Mesh1D(n_cells, bc)
    Q = assemble_Q(mesh, BrownianBridge())
    Q_grid = assemble_Q(mesh, Custom(BrownianBridge().pointwise))
    gap = np.abs(Q - Q_grid).max()
    assert gap <= 1e-13 * np.abs(Q_grid).max(), gap


@dataclass(frozen=True)
class _SemiseparableExponential(_Semiseparable):
    """exp(-scale |x - y|) as f(min(x, y)) g(max(x, y))."""

    scale: float

    def f(self, x):
        return np.exp(self.scale * x)

    def g(self, y):
        return np.exp(-self.scale * y)


@pytest.mark.parametrize("scale", [0.5, 2.0])
@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("n_cells", [2, 3, 8, 128])
def test_semiseparable_exponential_matches_the_stationary_path(n_cells, bc, scale):
    # two fast paths for one kernel: the outer product plus band, and
    # one block per cell offset. The band subtracts products of moments
    # that grow like exp(scale h) across a cell, so scale h stays <= 1
    mesh = Mesh1D(n_cells, bc)
    Q = assemble_Q(mesh, _SemiseparableExponential(scale))
    Q_stationary = assemble_Q(mesh, Exponential(scale))
    assert np.array_equal(Q, Q.T)
    gap = np.abs(Q - Q_stationary).max()
    assert gap <= 1e-13 * np.abs(Q_stationary).max(), gap


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize(
    "kernel", [BrownianBridge(), Matern(10.0, 0.01, 0.1)], ids=["bridge", "matern"]
)
def test_gram_memory(kernel, bc):
    # bridge: the outer product, its mirrored upper triangle and a
    # boolean mask; the grid path peaked at 84 such matrices. Matern: the
    # scatter's sum and its symmetrized copy, as the (2, 2, n, n) block
    # table is a strided view of the offset table; as a gathered copy it
    # peaked at 6.1 such matrices
    mesh = Mesh1D(1024, bc)
    assemble_Q(mesh, kernel)
    tracemalloc.start()
    try:
        assemble_Q(mesh, kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * mesh.n_dof**2, peak


@pytest.mark.parametrize("n_cells", [2, 3, 8, 64])
def test_kernel_evaluations_per_assembly(monkeypatch, n_cells):
    # each graded block is integrated once: one 64 x 64 rule per cell
    # and per adjacent pair, and for stationary kernels one of each plus
    # the 6 x 6 rule for every offset d >= 2; their distances are
    # symmetric in the two graded points, so a stationary profile is
    # evaluated at the 64 * 65 / 2 = 2080 pairs a <= b of each rule
    calls = []

    def counted(name, method):
        def wrapper(self, *args):
            calls.append((name, np.broadcast(*args).size))
            return method(self, *args)

        return wrapper

    monkeypatch.setattr(Exponential, "profile", counted("profile", Exponential.profile))
    for name in ("pointwise", "f", "g"):
        method = getattr(BrownianBridge, name)
        monkeypatch.setattr(BrownianBridge, name, counted(name, method))
    grid, graded = (6 * n_cells) ** 2, (2 * n_cells - 1) * 64**2
    cases = [
        (Exponential(3.0), {"profile": (n_cells - 2) * 36 + 2 * 2080}),
        # f and g at the 6 points of each cell for the hat moments and
        # at the 6 x 6 points of each same-cell triangle; never pointwise
        (BrownianBridge(), {"f": 42 * n_cells, "g": 42 * n_cells}),
        # a Custom kernel takes the grid path and is evaluated at (x, y)
        # and (y, x) on graded points
        (Custom(BrownianBridge().pointwise), {"pointwise": grid + 2 * graded}),
    ]
    for kernel, want in cases:
        calls.clear()
        assemble_Q(Mesh1D(n_cells, "neumann"), kernel)
        got = {}
        for name, points in calls:
            got[name] = got.get(name, 0) + points
        assert got == want, kernel


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("n_cells", [2, 5, 16])
def test_custom_gram_is_that_of_its_symmetric_part(n_cells, bc):
    mesh = Mesh1D(n_cells, bc)
    Q = assemble_Q(mesh, Custom(_skew))
    Q_sym = assemble_Q(mesh, Custom(lambda x, y: 0.5 * (_skew(x, y) + _skew(y, x))))
    gap = np.abs(Q - Q_sym).max()
    assert gap <= 1e-13 * np.abs(Q_sym).max(), gap


@pytest.mark.parametrize(
    "spec", ["white", None, 1.0, Mesh1D(4)], ids=["str", "none", "float", "mesh"]
)
def test_assemble_q_refuses_a_non_kernel(spec):
    # the schemes refuse these too, with the same words
    with pytest.raises(ConfigError, match="kernel must be a Kernel"):
        assemble_Q(Mesh1D(4), spec)
