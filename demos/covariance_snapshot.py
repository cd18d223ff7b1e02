#!/usr/bin/env python3
"""Emit the covariance function of a run at an intermediate time.

Integrates the exponential-kernel advection-diffusion covariance to
t = 0.1 and prints cov(x, y) on a uniform evaluation grid as CSV.
Pipe the output into any surface plotter, e.g.

    python3 demos/covariance_snapshot.py > snapshot.csv
    gnuplot -e "set datafile separator ','; splot 'snapshot.csv' \
        using 1:2:3 with pm3d" -p

The same data is available from the command line via
`spde-cov advdiff --config <file>` with snapshot_t set.
"""

import numpy as np

from spdecov import (
    AdvDiffConfig, Coefficients, Exponential, Mesh1D, StudyConfig, hat_values,
    run_single,
)

SNAPSHOT_T = 0.1
GRID = 33


def heat_coeffs():
    return Coefficients(
        a11=lambda x: np.full_like(x, 4.0),
        a1=lambda x: np.sin(2.0 * np.pi * x),
        a0=lambda x: np.zeros_like(x),
        lambda0=4.0,
    )


if __name__ == "__main__":
    # dt = 1e-3 divides the snapshot time exactly
    reference = AdvDiffConfig(
        mesh=Mesh1D(32, "neumann"),
        coeffs=heat_coeffs(),
        c0=0.125,
        kernel=Exponential(2.0),
        T=1.0,
        n_steps=1000,
    )
    study = StudyConfig(
        scheme=reference, levels=((32, 1000),), snapshot_t=SNAPSHOT_T
    )
    mesh, K, t_end = run_single(study, t_stop=SNAPSHOT_T)
    x = np.linspace(0.0, 1.0, GRID)
    Phi = hat_values(mesh, x)
    C = Phi @ K @ Phi.T

    print(f"# covariance function at t = {t_end}")
    print("x,y,cov")
    for i in range(GRID):
        for j in range(GRID):
            print(f"{x[i]:.6f},{x[j]:.6f},{C[i, j]:.8e}")
