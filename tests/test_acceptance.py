"""End-to-end acceptance: convergence rates, oracle agreement, invariants.

Eight checks, one test each, each printing one CRITERION pass/fail line
(run with -s to see the lines for passing tests too). The four rate
studies are computed once in session fixtures and shared with the
invariant suite, which re-examines every per-level covariance matrix
those studies produced.

The four rate criteria fit the slope of the consecutive-level
differences |K_j - K_{j+1}| over the three finest pairs of each sweep,
the reference counted as the last level. A global fit against the
reference instead mixes in pre-asymptotic coarse levels and a finest
level whose error is deflated by the bias it shares with the reference
one level finer; those reference-based errors and slopes are kept for
the invariant suite.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np
import pytest

from spdecov import (
    AdvDiffConfig,
    BrownianBridge,
    Coefficients,
    Custom,
    Exponential,
    Matern,
    McConfig,
    Mesh1D,
    StudyConfig,
    WaveConfig,
    WhiteNoise,
    advdiff_run,
    assemble_mass,
    assemble_stiffness,
    err_hs_norm,
    err_trace_norm,
    extract_position_cov,
    fit_rate,
    heat_cov_closed_form,
    levels_from_exponents,
    mc_validate,
    modal_hs_distance,
    run_single,
    symmetrize,
    wave_cov_closed_form,
    wave_energy,
    wave_run,
)
from spdecov.linalg import sym_eig
from spdecov.wave import crank_nicolson_step


def _heat_coeffs():
    return Coefficients(
        a11=lambda x: np.full_like(x, 4.0),
        a1=lambda x: np.sin(2.0 * np.pi * x),
        a0=lambda x: np.zeros_like(x),
        lambda0=4.0,
    )


def _criterion(num, label, ok, detail):
    print(f"CRITERION {num} {'PASS' if ok else 'FAIL'}: {label} ({detail})")
    return ok


@dataclass(frozen=True)
class SweepRow:
    pair: Tuple[int, int]
    mesh: Mesh1D
    K: np.ndarray
    err_L1: float
    err_L2: float


@dataclass(frozen=True)
class SweepData:
    study: StudyConfig
    rows: Tuple[SweepRow, ...]
    mesh_ref: Mesh1D
    K_ref: np.ndarray
    slope_L1: float
    slope_L2: float
    slope_L1_dropped: float
    slope_L2_dropped: float
    fine_rate_L1: float
    fine_rate_L2: float


def _fine_rates(rows, mesh_ref, K_ref):
    """Slopes of |K_j - K_{j+1}| over the three finest consecutive pairs."""
    chain = [(r.mesh, r.K) for r in rows[-3:]] + [(mesh_ref, K_ref)]
    pairs = list(zip(chain, chain[1:]))
    hs = [ma.h for (ma, _), _ in pairs]
    d1 = [err_trace_norm(Ka, ma, Kb, mb) for (ma, Ka), (mb, Kb) in pairs]
    d2 = [err_hs_norm(Ka, ma, Kb, mb) for (ma, Ka), (mb, Kb) in pairs]
    return fit_rate(hs, d1), fit_rate(hs, d2)


def _run_study(study):
    mesh_ref, K_ref, _ = run_single(study)
    rows = []
    for pair in study.levels:
        mesh, K, _ = run_single(study, pair)
        rows.append(
            SweepRow(
                pair=pair,
                mesh=mesh,
                K=K,
                err_L1=err_trace_norm(K, mesh, K_ref, mesh_ref),
                err_L2=err_hs_norm(K, mesh, K_ref, mesh_ref),
            )
        )
    hs = [r.mesh.h for r in rows]
    e1 = [r.err_L1 for r in rows]
    e2 = [r.err_L2 for r in rows]
    fine_L1, fine_L2 = _fine_rates(rows, mesh_ref, K_ref)
    return SweepData(
        study=study,
        rows=tuple(rows),
        mesh_ref=mesh_ref,
        K_ref=K_ref,
        slope_L1=fit_rate(hs, e1),
        slope_L2=fit_rate(hs, e2),
        slope_L1_dropped=fit_rate(hs[1:], e1[1:]),
        slope_L2_dropped=fit_rate(hs[1:], e2[1:]),
        fine_rate_L1=fine_L1,
        fine_rate_L2=fine_L2,
    )


def _heat_study(kernel):
    n_cells, n_steps = levels_from_exponents([7], "sqrt")[0]
    return StudyConfig(
        scheme=AdvDiffConfig(
            mesh=Mesh1D(n_cells, "neumann"),
            coeffs=_heat_coeffs(),
            c0=0.125,
            kernel=kernel,
            T=1.0,
            n_steps=n_steps,
        ),
        levels=levels_from_exponents(range(1, 7), "sqrt"),
    )


def _wave_study(kernel, coupling, ref_exp):
    n_cells, n_steps = levels_from_exponents([ref_exp], coupling)[0]
    return StudyConfig(
        scheme=WaveConfig(
            mesh=Mesh1D(n_cells), kernel=kernel, g_spec="minus_q", n_steps=n_steps
        ),
        levels=levels_from_exponents(range(1, ref_exp), coupling),
    )


@pytest.fixture(scope="session")
def sweep_heat_white():
    return _run_study(_heat_study(WhiteNoise()))


@pytest.fixture(scope="session")
def sweep_heat_exponential():
    return _run_study(_heat_study(Exponential(2.0)))


@pytest.fixture(scope="session")
def sweep_wave_matern():
    return _run_study(
        _wave_study(Matern(sigma=10.0, nu=0.01, rho=0.1), "equal", 10)
    )


@pytest.fixture(scope="session")
def sweep_wave_bridge():
    return _run_study(_wave_study(BrownianBridge(), "sqrt", 5))


def test_white_noise_heat_rates(sweep_heat_white):
    # Rates of the three finest consecutive differences, levels 2^-4,
    # 2^-5, 2^-6 and the 2^-7 reference. The global least-squares fit
    # over h = 2^-1..2^-6 against the reference reads 1.32 / 1.72, above
    # both bands, for two reasons that both push the slope up: the 2-
    # and 4-cell levels are pre-asymptotic, and the finest level shares
    # its discretization bias with the reference only one level finer,
    # which deflates its measured error. Against a 2^-10 reference the
    # stepwise rates fall from 1.36 to 1.08 (L1) and from 1.78 to 1.54
    # (L2): the bands hold where the scheme promises them.
    s = sweep_heat_white
    ok = _criterion(
        1,
        "advdiff white-noise slopes",
        abs(s.fine_rate_L1 - 1.0) <= 0.2 and abs(s.fine_rate_L2 - 1.5) <= 0.2,
        f"L1 {s.fine_rate_L1:.4f} vs 1.0+-0.2, "
        f"L2 {s.fine_rate_L2:.4f} vs 1.5+-0.2",
    )
    assert ok, f"L1 {s.fine_rate_L1:.4f}, L2 {s.fine_rate_L2:.4f}"


def test_exponential_kernel_heat_rates(sweep_heat_exponential):
    s = sweep_heat_exponential
    ok = _criterion(
        2,
        "advdiff exponential-kernel slopes",
        abs(s.fine_rate_L1 - 2.0) <= 0.25 and abs(s.fine_rate_L2 - 2.0) <= 0.25,
        f"L1 {s.fine_rate_L1:.4f} vs 2.0+-0.25, "
        f"L2 {s.fine_rate_L2:.4f} vs 2.0+-0.25",
    )
    assert ok, f"L1 {s.fine_rate_L1:.4f}, L2 {s.fine_rate_L2:.4f}"


def test_matern_wave_rates(sweep_wave_matern):
    # The band 1.0 is asymptotic, and what sets it is the feedback
    # G = -Q: it enters through the perturbation factor P = I + dt F,
    # which is first order in dt, so at h = dt it limits the rate to 1.
    # Without it the same kernel converges at about 2 (g_spec 'zero'
    # reads 1.87 / 2.00 under this rule), and so does G = -Q at
    # dt = h^2 (1.81 / 1.96 against a 2^-9 reference). The crossover to
    # 1 is slow: consecutive L1 rates peak at 1.69 and fall to 1.34,
    # 1.26, 1.18 and 1.11 over the finest pairs, so the sweep must reach
    # the 2^-10 reference; one ending at 2^-9 reads L1 1.217 and fails.
    # The global fit over 2^-1..2^-6 against a 2^-7 reference read
    # 1.57 / 1.53.
    s = sweep_wave_matern
    ok = _criterion(
        3,
        "wave Matern slopes",
        abs(s.fine_rate_L1 - 1.0) <= 0.2 and abs(s.fine_rate_L2 - 1.0) <= 0.2,
        f"L1 {s.fine_rate_L1:.4f} vs 1.0+-0.2, "
        f"L2 {s.fine_rate_L2:.4f} vs 1.0+-0.2",
    )
    assert ok, f"L1 {s.fine_rate_L1:.4f}, L2 {s.fine_rate_L2:.4f}"


def test_brownian_bridge_wave_rates(sweep_wave_bridge):
    s = sweep_wave_bridge
    ok = _criterion(
        4,
        "wave Brownian-bridge slopes",
        abs(s.fine_rate_L1 - 2.0) <= 0.3 and abs(s.fine_rate_L2 - 2.0) <= 0.3,
        f"L1 {s.fine_rate_L1:.4f} vs 2.0+-0.3, "
        f"L2 {s.fine_rate_L2:.4f} vs 2.0+-0.3",
    )
    assert ok, f"L1 {s.fine_rate_L1:.4f}, L2 {s.fine_rate_L2:.4f}"


def _oracle_relative_distance(equation, j):
    if equation == "advdiff":
        n, n_steps = levels_from_exponents([j], "sqrt")[0]
        cfg = AdvDiffConfig(
            mesh=Mesh1D(n, "dirichlet"),
            coeffs=Coefficients.constant(a11=1.0),
            c0=0.0,
            kernel=WhiteNoise(),
            T=1.0,
            n_steps=n_steps,
        )
        K = advdiff_run(cfg)
        exact = heat_cov_closed_form(256, 1.0)
    else:
        n, n_steps = levels_from_exponents([j], "equal")[0]
        cfg = WaveConfig(
            mesh=Mesh1D(n, "dirichlet"),
            kernel=WhiteNoise(),
            T=1.0,
            n_steps=n_steps,
            g_spec="zero",
        )
        K = extract_position_cov(wave_run(cfg))
        exact = wave_cov_closed_form(256, 1.0)
    # the HS norm of the modal covariance is the l2 norm of its variances
    return modal_hs_distance(K, cfg.mesh, exact) / np.linalg.norm(exact)


def test_closed_form_oracle_agreement():
    # Each half runs at the coupling under which its time stepper
    # converges: backward Euler (advdiff) at dt = h^2, Crank-Nicolson
    # (wave) at h = dt. Backward Euler damps mode k to the fixed point
    # (1/(2 lambda_k)) / (1 + dt lambda_k / 2), so its distance from the
    # closed form is first order in dt: at h = dt the advdiff half reads
    # 0.2876 / 0.1828 / 0.1135 for j = 4, 5, 6, a time error of the
    # method above the cap, and at dt = h^2 it reads 0.0502 / 0.0182 /
    # 0.0065. The wave half reads 0.0154 / 0.0054 / 0.0019:
    # Crank-Nicolson is second order, so its time error is negligible
    # next to the spatial one at the same level. Both halves take the
    # exact Hilbert-Schmidt distance to the first 256 modes.
    failures = []
    details = []
    for equation in ("advdiff", "wave"):
        rels = [_oracle_relative_distance(equation, j) for j in (4, 5, 6)]
        details.append(f"{equation} {rels[2]:.4f}")
        if not rels[0] > rels[1] > rels[2]:
            failures.append(f"{equation} not decreasing: {rels}")
        if rels[2] > 0.05:
            failures.append(
                f"{equation} relative L2 distance at h=2^-6 is {rels[2]:.4f}"
            )
    ok = _criterion(
        5,
        "closed-form oracle agreement",
        not failures,
        f"rel distance at h=2^-6 vs cap 0.05: {', '.join(details)}",
    )
    assert ok, "; ".join(failures)


def test_scalar_regressions():
    cfg = AdvDiffConfig(
        mesh=Mesh1D(2, "dirichlet"),
        coeffs=Coefficients.constant(a11=1.0),
        c0=0.0,
        kernel=WhiteNoise(),
        T=0.5,
        n_steps=1,
    )
    K1 = advdiff_run(cfg)[0, 0]

    mesh = Mesh1D(2, "dirichlet")
    M, S = assemble_mass(mesh), assemble_stiffness(mesh)
    T_hat = crank_nicolson_step(M, S, np.zeros_like(M), None, 1.0).step.T
    expected = np.array([[-0.5, 0.25], [-3.0, -0.5]])
    det_gap = abs(np.linalg.det(T_hat) - 1.0)

    ok = _criterion(
        6,
        "scalar regressions",
        abs(K1 - 3.0 / 98.0) <= 1e-14
        and np.allclose(T_hat, expected, atol=1e-12, rtol=0.0)
        and det_gap <= 1e-12,
        f"K1 off by {abs(K1 - 3.0 / 98.0):.2e}, CN det off by {det_gap:.2e}",
    )
    assert ok
    np.testing.assert_allclose(T_hat, expected, atol=1e-12)


def _check_symmetry_and_psd(K, mesh):
    scale = max(np.abs(K).max(), 1.0)
    assert np.abs(K - K.T).max() <= 1e-12 * scale
    w, V = np.linalg.eigh(assemble_mass(mesh))
    root = (V * np.sqrt(w)) @ V.T
    ev = sym_eig(symmetrize(root @ K @ root)).eigenvalues
    assert ev.min() >= -1e-8 * max(ev.max(), 0.0)


def _check_cn_determinant(mesh, dt):
    M, S = assemble_mass(mesh), assemble_stiffness(mesh)
    T_hat = crank_nicolson_step(M, S, np.zeros_like(M), None, dt).step.T
    sign, logdet = np.linalg.slogdet(T_hat)
    assert sign == 1.0
    assert abs(logdet) <= 1e-8


def _check_energy_conservation(mesh, dt, seed):
    n = mesh.n_dof
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((2 * n, 2 * n))
    K0 = B @ B.T
    cfg = WaveConfig(
        mesh=mesh,
        kernel=Custom(q=lambda x, y: 0.0),
        T=1000.0 * dt,
        n_steps=1000,
        g_spec="zero",
        K0=K0,
    )
    K_end = wave_run(cfg)
    M, S = assemble_mass(mesh), assemble_stiffness(mesh)
    e0 = wave_energy(K0, M, S)
    e1 = wave_energy(K_end, M, S)
    assert abs(e1 - e0) <= 1e-6 * abs(e0)


def test_invariant_suite(
    sweep_heat_white, sweep_wave_matern, sweep_heat_exponential, sweep_wave_bridge
):
    heat_sweeps = (sweep_heat_white, sweep_heat_exponential)
    wave_sweeps = (sweep_wave_matern, sweep_wave_bridge)

    try:
        for s in heat_sweeps + wave_sweeps:
            for row in s.rows:
                _check_symmetry_and_psd(row.K, row.mesh)
                assert row.err_L2 <= row.err_L1 * (1.0 + 1e-10)
            _check_symmetry_and_psd(s.K_ref, s.mesh_ref)

            # refinement makes errors shrink, with bounded coarse wiggle
            for errs in (
                [r.err_L1 for r in s.rows],
                [r.err_L2 for r in s.rows],
            ):
                assert all(b <= 1.2 * a for a, b in zip(errs, errs[1:])), errs

            # fitted slopes are stable against dropping the coarsest level
            assert abs(s.slope_L1 - s.slope_L1_dropped) <= 0.15
            assert abs(s.slope_L2 - s.slope_L2_dropped) <= 0.15

        for s in wave_sweeps:
            T = s.study.scheme.T
            for row in s.rows:
                _check_cn_determinant(row.mesh, T / row.pair[1])
            _check_cn_determinant(s.mesh_ref, T / s.study.reference[1])
            for row in s.rows:
                _check_energy_conservation(
                    row.mesh, T / row.pair[1], seed=row.pair[0]
                )
    except AssertionError as exc:
        _criterion(7, "invariant suite", False, str(exc).splitlines()[0][:100])
        raise
    _criterion(
        7,
        "invariant suite",
        True,
        "symmetry, PSD, L2<=L1, monotone errors, slope stability, "
        "CN det, energy conservation",
    )


def test_monte_carlo_validation():
    cfg = AdvDiffConfig(
        mesh=Mesh1D(16, "neumann"),
        coeffs=_heat_coeffs(),
        c0=0.125,
        kernel=WhiteNoise(),
        T=1.0,
        n_steps=16,
    )
    mc = McConfig(scheme=cfg, n_samples=10_000, seed=2026)
    report = mc_validate(mc)
    bound = 3.0 * report.sampling_error_hs + report.consistency_margin
    rerun_matches = mc_validate(mc) == report
    ok = _criterion(
        8,
        "Monte Carlo validation",
        report.hs_distance <= bound and rerun_matches,
        f"HS {report.hs_distance:.3e} vs 3*SE+margin {bound:.3e}, "
        f"rerun {'identical' if rerun_matches else 'DIFFERS'}",
    )
    assert ok, (
        f"HS distance {report.hs_distance:.3e}, bound {bound:.3e}, "
        f"rerun identical: {rerun_matches}"
    )
