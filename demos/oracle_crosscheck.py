#!/usr/bin/env python3
"""Cross-check the FEM schemes against spectral closed forms.

For the pure heat and undamped wave equations on (0,1) with Dirichlet
conditions and white noise, the covariance at time T has an exact
eigenfunction expansion. This script compares the matrix recursions
at h = dt = 2^-j against those closed forms in the Hilbert-Schmidt
norm, which is the L2((0,1)^2) distance of the covariance functions,
computed exactly from the hat-sine inner products by modal_hs_distance.

Backward Euler is first order in dt, so the heat distances shrink
linearly; Crank-Nicolson is second order and the wave distances are
dominated by the spatial error.
"""

import numpy as np

from spdecov import (
    AdvDiffConfig, Coefficients, Mesh1D, WaveConfig, WhiteNoise,
    advdiff_run, extract_position_cov, heat_cov_closed_form,
    modal_hs_distance, wave_cov_closed_form, wave_run,
)

N_MODES = 256
LEVELS = (3, 4, 5, 6)


def relative_distance(equation, j):
    n = 2**j
    mesh = Mesh1D(n, "dirichlet")
    if equation == "heat":
        cfg = AdvDiffConfig(
            mesh=mesh,
            coeffs=Coefficients.constant(a11=1.0),
            c0=0.0,
            kernel=WhiteNoise(),
            T=1.0,
            n_steps=n,
        )
        K = advdiff_run(cfg)
        exact = heat_cov_closed_form(N_MODES, 1.0)
    else:
        cfg = WaveConfig(
            mesh=mesh, kernel=WhiteNoise(), T=1.0, n_steps=n, g_spec="zero"
        )
        K = extract_position_cov(wave_run(cfg))
        exact = wave_cov_closed_form(N_MODES, 1.0)
    # the closed form's HS norm is the l2 norm of its mode variances
    return modal_hs_distance(K, mesh, exact) / np.linalg.norm(exact)


if __name__ == "__main__":
    for equation in ("heat", "wave"):
        print(f"--- {equation}, Dirichlet, Q = I, T = 1 ---")
        prev = None
        for j in LEVELS:
            rel = relative_distance(equation, j)
            note = "" if prev is None else f"  (ratio {prev / rel:.2f})"
            print(f"h = dt = 2^-{j}: relative HS distance {rel:.5f}{note}")
            prev = rel
        print()
