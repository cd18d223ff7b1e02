"""Covariance operators of linear stochastic PDE on the unit interval.

The package computes the covariance of mild solutions to stochastic
advection-diffusion and damped wave equations directly, as a
deterministic recursion on FEM coefficient matrices, instead of
averaging sampled paths. Errors against a reference are measured in
the trace-class and Hilbert-Schmidt norms of the underlying L2
operators.

Layout
------
linalg      the checked inverse, the doubling covariance propagator,
            the run checks shared by both schemes
fem         meshes, P1 mass/stiffness/advection assembly, hat values
            for exact prolongation to nested meshes, the shift c0
kernels     noise covariance kernels and their Galerkin projection Q_h
advdiff     backward Euler covariance recursion for the heat scheme
wave        Crank-Nicolson covariance recursion for the wave scheme
errnorms    trace-class and Hilbert-Schmidt distances across nested meshes
spectral    sine-basis oracle: closed forms, spectral Galerkin runs and
            the exact HS distance of a FEM covariance from a modal one
montecarlo  sampled-path cross-validation of the recursions
study       refinement sweeps, rate fitting, report serialization
config,cli  INI-driven command line front end (spde-cov)
"""

from .advdiff import AdvDiffConfig, advdiff_run
from .config import load_mc, load_study
from .errnorms import err_hs_norm, err_trace_norm
from .exceptions import ConfigError, NumericalError, SpdeCovError
from .fem import (
    Coefficients,
    Mesh1D,
    assemble_form,
    assemble_mass,
    assemble_stiffness,
    compute_c0,
    hat_values,
)
from .kernels import (
    BrownianBridge,
    Custom,
    Exponential,
    Kernel,
    Matern,
    WhiteNoise,
    assemble_Q,
)
from .linalg import propagate, symmetrize
from .montecarlo import McConfig, McReport, empirical_cov, mc_validate
from .spectral import (
    eigenvalues,
    heat_cov_closed_form,
    modal_hs_distance,
    spectral_galerkin_cov,
    wave_cov_closed_form,
)
from .study import (
    LevelResult,
    RateReport,
    StudyConfig,
    emit,
    fit_rate,
    levels_from_exponents,
    read_report,
    run_single,
    run_sweep,
)
from .wave import WaveConfig, extract_position_cov, wave_energy, wave_run

__version__ = "0.1.0"

__all__ = [
    "AdvDiffConfig",
    "BrownianBridge",
    "Coefficients",
    "ConfigError",
    "Custom",
    "Exponential",
    "Kernel",
    "LevelResult",
    "Matern",
    "McConfig",
    "McReport",
    "Mesh1D",
    "NumericalError",
    "RateReport",
    "SpdeCovError",
    "StudyConfig",
    "WaveConfig",
    "WhiteNoise",
    "advdiff_run",
    "assemble_Q",
    "assemble_form",
    "assemble_mass",
    "assemble_stiffness",
    "compute_c0",
    "eigenvalues",
    "emit",
    "empirical_cov",
    "err_hs_norm",
    "err_trace_norm",
    "extract_position_cov",
    "fit_rate",
    "hat_values",
    "heat_cov_closed_form",
    "levels_from_exponents",
    "load_mc",
    "load_study",
    "mc_validate",
    "modal_hs_distance",
    "propagate",
    "read_report",
    "run_single",
    "run_sweep",
    "spectral_galerkin_cov",
    "symmetrize",
    "wave_cov_closed_form",
    "wave_energy",
    "wave_run",
]
