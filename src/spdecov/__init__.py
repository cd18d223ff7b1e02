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

Importing the package loads none of these modules. Each public name is
imported from its module the first time it is used, so a program loads
only the modules behind the names it uses, and each spde-cov command
only the modules it runs: every command loads config, study and the
modules below them (advdiff, wave, errnorms, kernels, fem, linalg,
exceptions); mc adds montecarlo and oracle adds spectral.
"""

import importlib

__version__ = "0.1.0"

# the public names, by the module that defines them
_EXPORTS = {
    "advdiff": ("AdvDiffConfig", "advdiff_run"),
    "config": ("load_mc", "load_study"),
    "errnorms": ("err_hs_norm", "err_trace_norm"),
    "exceptions": ("ConfigError", "NumericalError", "SpdeCovError"),
    "fem": (
        "Coefficients",
        "Mesh1D",
        "assemble_form",
        "assemble_mass",
        "assemble_stiffness",
        "compute_c0",
        "hat_values",
    ),
    "kernels": (
        "BrownianBridge",
        "Custom",
        "Exponential",
        "Kernel",
        "Matern",
        "WhiteNoise",
        "assemble_Q",
    ),
    "linalg": ("propagate", "symmetrize"),
    "montecarlo": ("McConfig", "McReport", "empirical_cov", "mc_validate"),
    "spectral": (
        "eigenvalues",
        "heat_cov_closed_form",
        "modal_hs_distance",
        "spectral_galerkin_cov",
        "wave_cov_closed_form",
    ),
    "study": (
        "LevelResult",
        "RateReport",
        "StudyConfig",
        "emit",
        "fit_rate",
        "levels_from_exponents",
        "read_report",
        "run_single",
        "run_sweep",
    ),
    "wave": ("WaveConfig", "extract_position_cov", "wave_energy", "wave_run"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # PEP 562: called only for names not yet in the namespace
    if name in _EXPORTS:
        # a submodule, which importing the package loaded before
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
