#!/usr/bin/env python3
"""Convergence study for the advection-diffusion covariance scheme.

Runs the variable-coefficient operator (diffusion 4, advection
sin(2 pi x), Neumann conditions) under two driving noises and fits
log-log error slopes against a finer reference discretization:

  * white noise      -> trace norm ~ O(h), Hilbert-Schmidt ~ O(h^1.5)
  * exp(-2|x-y|)     -> both norms ~ O(h^2)

Mesh and step are coupled by h = sqrt(dt). Levels are kept small so
the script finishes in seconds; push max_level up to watch the slopes
settle toward their asymptotic values.
"""

import numpy as np

from spdecov import (
    AdvDiffConfig, Coefficients, Exponential, Mesh1D, StudyConfig, WhiteNoise,
    emit, levels_from_exponents, run_sweep,
)

MAX_LEVEL = 4
REF_LEVEL = 5


def heat_coeffs():
    return Coefficients(
        a11=lambda x: np.full_like(x, 4.0),
        a1=lambda x: np.sin(2.0 * np.pi * x),
        a0=lambda x: np.zeros_like(x),
        lambda0=4.0,
    )


def run(kernel, label):
    n_cells, n_steps = levels_from_exponents([REF_LEVEL], "sqrt")[0]
    reference = AdvDiffConfig(
        mesh=Mesh1D(n_cells, "neumann"),
        coeffs=heat_coeffs(),
        c0=0.125,
        kernel=kernel,
        T=1.0,
        n_steps=n_steps,
    )
    study = StudyConfig(
        scheme=reference,
        levels=levels_from_exponents(range(1, MAX_LEVEL + 1), "sqrt"),
    )
    report = run_sweep(study)
    print(f"--- {label} ---")
    print(emit(report, fmt="csv"), end="")
    print(f"fitted slopes: L1 {report.slope_L1:.3f}, "
          f"L2 {report.slope_L2:.3f}\n")
    return report


if __name__ == "__main__":
    run(WhiteNoise(), "white noise, Q = I")
    run(Exponential(2.0), "exponential kernel, q = exp(-2|x-y|)")
