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
    WaveConfig,
    WhiteNoise,
    compute_c0,
    hat_values,
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
}


@pytest.mark.parametrize("make", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_input_checks_raise_config_errors(make):
    # so `except ValueError` and `except SpdeCovError` each catch all of them
    with pytest.raises(ConfigError) as info:
        make()
    assert isinstance(info.value, ValueError)
