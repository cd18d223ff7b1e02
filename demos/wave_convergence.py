#!/usr/bin/env python3
"""Convergence study for the damped stochastic wave covariance scheme.

The equation carries the linear feedback G = -Q (a model for the
vertical motion of a string suspended in fluid). Position-block errors
are measured against a finer reference in both Schatten norms:

  * Matern noise (sigma=10, nu=0.01, rho=0.1), h = dt: the observed
    slopes drift down toward 1 from above as the levels refine. The
    feedback G = -Q enters through the perturbation factor
    P = I + dt F, which is first order in dt, so at h = dt it limits
    the rate to 1; with G = 0, or with dt = h^2, the same kernel
    converges at about 2.
  * Brownian bridge noise, h = sqrt(dt): smooth enough for second
    order in both norms.

Crank-Nicolson keeps the noiseless energy exactly conserved, so the
error is limited by regularity and by the first-order feedback factor,
not by stability.
"""

from spdecov import (
    BrownianBridge, Matern, Mesh1D, StudyConfig, WaveConfig,
    emit, levels_from_exponents, run_sweep,
)


def run(kernel, coupling, exponents, ref, label):
    n_cells, n_steps = levels_from_exponents([ref], coupling)[0]
    reference = WaveConfig(
        mesh=Mesh1D(n_cells, "dirichlet"),
        kernel=kernel,
        g_spec="minus_q",
        T=1.0,
        n_steps=n_steps,
    )
    study = StudyConfig(
        scheme=reference, levels=levels_from_exponents(exponents, coupling)
    )
    report = run_sweep(study)
    print(f"--- {label} ---")
    print(emit(report, fmt="csv"), end="")
    print(f"fitted slopes: L1 {report.slope_L1:.3f}, "
          f"L2 {report.slope_L2:.3f}\n")
    return report


if __name__ == "__main__":
    run(Matern(10.0, 0.01, 0.1), "equal", range(1, 6), 6,
        "Matern(10, 0.01, 0.1), h = dt")
    run(BrownianBridge(), "sqrt", range(1, 4), 4,
        "Brownian bridge, h = sqrt(dt)")
