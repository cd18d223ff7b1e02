"""Every input check raises a ConfigError, which is also a ValueError."""

import numpy as np
import pytest

from spdecov import (
    AdvDiffConfig,
    Coefficients,
    ConfigError,
    Exponential,
    Matern,
    Mesh1D,
    StudyConfig,
    WaveConfig,
    WhiteNoise,
    compute_c0,
    err_hs_norm,
    fit_rate,
    hat_values,
    heat_cov_closed_form,
    levels_from_exponents,
    modal_hs_distance,
    read_report,
    run_single,
    spectral_galerkin_cov,
    wave_cov_closed_form,
)


def _advdiff(**kw):
    base = dict(
        mesh=Mesh1D(4),
        coeffs=Coefficients.constant(a11=1.0),
        c0=0.0,
        kernel=WhiteNoise(),
        T=1.0,
        n_steps=4,
    )
    base.update(kw)
    return AdvDiffConfig(**base)


BAD_INPUTS = {
    "one-cell-mesh": lambda: Mesh1D(1),
    "advdiff-coeffs": lambda: _advdiff(coeffs=lambda x: x),
    "advdiff-nan-T": lambda: _advdiff(T=float("nan")),
    "wave-neumann": lambda: WaveConfig(mesh=Mesh1D(4, "neumann"), kernel=WhiteNoise()),
    "exponential-scale": lambda: Exponential(scale=0.0),
    "matern-nu": lambda: Matern(sigma=1.0, nu=-1.0, rho=1.0),
    "hat-point": lambda: hat_values(Mesh1D(4), [2.0]),
    "c0-epsilon": lambda: compute_c0(Coefficients.constant(a11=1.0), 2.0),
    "k0-shape": lambda: _advdiff(K0=np.eye(2)),
    "advdiff-nan-c0": lambda: _advdiff(c0=float("nan")),
    # a non-number is refused before any comparison or isfinite sees it
    "exponential-str-scale": lambda: Exponential(scale="x"),
    "matern-none-sigma": lambda: Matern(sigma=None, nu=1.0, rho=1.0),
    "advdiff-str-T": lambda: _advdiff(T="1"),
    "wave-str-T": lambda: WaveConfig(mesh=Mesh1D(4), kernel=WhiteNoise(), T="1"),
    "c0-str-epsilon": lambda: compute_c0(Coefficients.constant(a11=1.0), "a"),
    "oracle-float-modes": lambda: spectral_galerkin_cov(2.5, _advdiff(), 0.1),
    "oracle-too-many-modes": lambda: spectral_galerkin_cov(257, _advdiff(), 0.1),
    "heat-negative-modes": lambda: heat_cov_closed_form(-1, 1.0),
    "wave-float-modes": lambda: wave_cov_closed_form(2.5, 1.0),
    "levels-str-T": lambda: levels_from_exponents([1, 2], "equal", T="1"),
    "snapshot-str-t": lambda: run_single(
        StudyConfig(scheme=_advdiff(), levels=[(2, 2)]), t_stop="0.5"
    ),
    "study-str-snapshot": lambda: StudyConfig(
        scheme=_advdiff(), levels=[(2, 2)], snapshot_t="0.5"
    ),
    "study-int-levels": lambda: StudyConfig(scheme=_advdiff(), levels=5),
    "study-short-level": lambda: StudyConfig(scheme=_advdiff(), levels=((4,),)),
    "levels-float-exponent": lambda: levels_from_exponents([2.5], "sqrt"),
    "levels-str-exponent": lambda: levels_from_exponents(["a"], "sqrt"),
    # 2^1100 steps do not fit a float
    "levels-huge-exponent": lambda: levels_from_exponents([1100], "equal"),
    "fit-str-h": lambda: fit_rate(["a", 0.5], [1.0, 2.0]),
    # a nan error is skipped by the fit, a string is refused
    "fit-str-error": lambda: fit_rate([0.5, 0.25], ["a", 0.1]),
    "single-short-pair": lambda: run_single(
        StudyConfig(scheme=_advdiff(), levels=[(2, 2)]), pair=(3,)
    ),
    # a shape mismatch is the caller's input too
    "hs-shape": lambda: err_hs_norm(np.eye(3), Mesh1D(8), np.eye(7), Mesh1D(8)),
    "modal-v-shape": lambda: modal_hs_distance(np.eye(3), Mesh1D(4), np.ones((3, 2))),
    "report-str-cell": lambda: read_report("1,0.5,0.25,x,0.1,0.0\n"),
    "report-str-slope": lambda: read_report("# slope_L1=abc\n"),
}


@pytest.mark.parametrize("make", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_input_checks_raise_config_errors(make):
    # so `except ValueError` and `except SpdeCovError` each catch all of them
    with pytest.raises(ConfigError) as info:
        make()
    assert isinstance(info.value, ValueError)
