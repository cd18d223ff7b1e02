"""Covariance operators of linear stochastic PDE on the unit interval.

The package computes the covariance of mild solutions to stochastic
advection-diffusion and damped wave equations directly, as a
deterministic recursion on FEM coefficient matrices, instead of
averaging sampled paths. Errors against a reference are measured in
the trace-class and Hilbert-Schmidt norms of the underlying L2
operators.

Layout
------
linalg      symmetric eigendecompositions, PSD square roots,
            congruence solves, the doubling covariance propagator
fem         meshes, P1 mass/stiffness/advection assembly, cross-mesh
            Gram matrices, the mass-conservation shift c0
kernels     noise covariance kernels and their Galerkin projection Q_h
advdiff     backward Euler covariance recursion for the heat scheme
wave        Crank-Nicolson covariance recursion for the wave scheme
errnorms    trace-class and Hilbert-Schmidt distances across meshes
spectral    sine-basis oracle: closed forms and spectral Galerkin runs
montecarlo  sampled-path cross-validation of the recursions
study       refinement sweeps, rate fitting, report serialization
config,cli  INI-driven command line front end (spde-cov)
"""

from .advdiff import AdvDiffConfig, advdiff_run, advdiff_step
from .config import (
    coefficient_from_name,
    kernel_from_section,
    load_mc,
    load_study,
    read_config,
)
from .errnorms import err_hs_norm, err_trace_norm
from .exceptions import (
    CholeskyError,
    ConfigError,
    DegenerateFitError,
    EllipticityError,
    MismatchedBCError,
    NegativeSquareError,
    NoConvergenceError,
    NonSymmetricError,
    NoPointwiseKernelError,
    NotPSDError,
    NumericalError,
    ShapeMismatchError,
    SingularError,
    SpdeCovError,
    TooFewSamplesError,
)
from .fem import (
    Coefficients,
    Mesh1D,
    assemble_form,
    assemble_mass,
    assemble_stiffness,
    compute_c0,
    cross_mass,
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
    kernel_eval,
)
from .linalg import (
    congruence_solve,
    lu_factor_checked,
    propagate,
    psd_sqrt,
    sym_eig,
    symmetrize,
)
from .montecarlo import (
    McConfig,
    McReport,
    empirical_cov,
    mc_validate,
    sample_path_advdiff,
    sample_path_wave,
)
from .spectral import (
    cov_l2_distance,
    eigenfunction_values,
    eigenvalues,
    heat_cov_closed_form,
    midpoint_rule,
    modal_cov_function,
    nodal_cov_function,
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
from .wave import (
    WaveConfig,
    build_cn_blocks,
    build_perturbation,
    extract_position_cov,
    wave_energy,
    wave_run,
)

__version__ = "0.1.0"

__all__ = [
    "AdvDiffConfig",
    "BrownianBridge",
    "CholeskyError",
    "Coefficients",
    "ConfigError",
    "Custom",
    "DegenerateFitError",
    "EllipticityError",
    "Exponential",
    "Kernel",
    "LevelResult",
    "Matern",
    "McConfig",
    "McReport",
    "Mesh1D",
    "MismatchedBCError",
    "NegativeSquareError",
    "NoConvergenceError",
    "NonSymmetricError",
    "NoPointwiseKernelError",
    "NotPSDError",
    "NumericalError",
    "RateReport",
    "ShapeMismatchError",
    "SingularError",
    "SpdeCovError",
    "StudyConfig",
    "TooFewSamplesError",
    "WaveConfig",
    "WhiteNoise",
    "advdiff_run",
    "advdiff_step",
    "assemble_Q",
    "assemble_form",
    "assemble_mass",
    "assemble_stiffness",
    "build_cn_blocks",
    "build_perturbation",
    "coefficient_from_name",
    "compute_c0",
    "congruence_solve",
    "cov_l2_distance",
    "cross_mass",
    "eigenfunction_values",
    "eigenvalues",
    "emit",
    "empirical_cov",
    "err_hs_norm",
    "err_trace_norm",
    "extract_position_cov",
    "fit_rate",
    "hat_values",
    "heat_cov_closed_form",
    "kernel_eval",
    "kernel_from_section",
    "levels_from_exponents",
    "load_mc",
    "load_study",
    "lu_factor_checked",
    "mc_validate",
    "midpoint_rule",
    "modal_cov_function",
    "nodal_cov_function",
    "propagate",
    "psd_sqrt",
    "read_config",
    "read_report",
    "run_single",
    "run_sweep",
    "sample_path_advdiff",
    "sample_path_wave",
    "spectral_galerkin_cov",
    "sym_eig",
    "symmetrize",
    "wave_cov_closed_form",
    "wave_energy",
    "wave_run",
]
