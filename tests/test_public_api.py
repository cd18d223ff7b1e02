"""The package's public surface: the names spdecov exports, and no others."""

import importlib
import pkgutil

import pytest

import spdecov

PUBLIC_NAMES = [
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

#: names deleted from the package, by the module that defined them
REMOVED = {
    "advdiff": ["advdiff_step"],
    "exceptions": [
        "NotPSDError",
        "CholeskyError",
        "DegenerateFitError",
        "EllipticityError",
        "MismatchedBCError",
        "NoConvergenceError",
        "NoPointwiseKernelError",
        "NonSymmetricError",
        "ShapeMismatchError",
        "SingularError",
        "TooFewSamplesError",
    ],
    "fem": ["FemMatrices"],
    "kernels": ["kernel_eval"],
    "linalg": ["congruence_solve", "psd_sqrt", "PSD_RTOL"],
    "montecarlo": ["sample_path_advdiff", "sample_path_wave", "_seed_key"],
    "spectral": [
        "midpoint_rule",
        "nodal_cov_function",
        "modal_cov_function",
        "cov_l2_distance",
    ],
    "wave": [
        "BlockStep",
        "build_cn_blocks",
        "build_perturbation",
        "resolve_g_gram",
        "_check_square_pair",
    ],
}

#: names that stay in their modules but left the package export
LEFT_EXPORT = {
    "spectral": ["eigenfunction_values"],
    "linalg": ["sym_eig"],
    "config": ["coefficient_from_name", "kernel_from_section", "read_config"],
}


def _modules():
    return [
        importlib.import_module(f"spdecov.{info.name}")
        for info in pkgutil.iter_modules(spdecov.__path__)
    ]


def test_public_names_pinned():
    assert len(PUBLIC_NAMES) == 47
    assert sorted(spdecov.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(spdecov, name) is not None


def test_two_kinds_of_failure():
    # bad input or a numerical breakdown; the message names the problem
    classes = {
        name
        for name, obj in vars(spdecov.exceptions).items()
        if isinstance(obj, type) and issubclass(obj, BaseException)
    }
    assert classes == {"SpdeCovError", "ConfigError", "NumericalError"}
    assert issubclass(spdecov.ConfigError, (spdecov.SpdeCovError, ValueError))
    assert issubclass(spdecov.NumericalError, spdecov.SpdeCovError)
    assert not issubclass(spdecov.NumericalError, ValueError)


def test_every_module_all_entry_resolves():
    modules = _modules()
    assert len(modules) == 12
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_removed_names_not_importable():
    for module, names in REMOVED.items():
        mod = importlib.import_module(f"spdecov.{module}")
        for name in names:
            assert not hasattr(mod, name), f"spdecov.{module}.{name}"
            assert not hasattr(spdecov, name), name
    for module, names in LEFT_EXPORT.items():
        mod = importlib.import_module(f"spdecov.{module}")
        for name in names:
            assert hasattr(mod, name), f"spdecov.{module}.{name}"
            assert not hasattr(spdecov, name), name
    assert not hasattr(spdecov.McReport, "sampling_error_estimate")


def test_emit_takes_only_the_writer_formats():
    report = spdecov.RateReport(rows=())
    for alias in ("json-lines", "gnuplot-data"):
        with pytest.raises(spdecov.ConfigError):
            spdecov.emit(report, fmt=alias)
