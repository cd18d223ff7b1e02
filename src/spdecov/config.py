"""INI config files for the command-line front end.

Three sections. [equation] picks the scheme and its coefficients,
[kernel] the noise covariance, [study] the discretization levels and
outputs; a key that its section does not take, like every problem, is
a ConfigError.
Coefficient functions come from a small named catalog so that configs
stay plain text:

    zero       constant 0
    one        constant 1
    const:V    constant V
    sin2pix    sin(2*pi*x)
"""

import configparser

import numpy as np

from .advdiff import AdvDiffConfig
from .exceptions import ConfigError
from .fem import Coefficients, Mesh1D, _Constant, compute_c0
from .kernels import BrownianBridge, Exponential, Matern, WhiteNoise
from .study import StudyConfig, levels_from_exponents
from .wave import WaveConfig

__all__ = [
    "coefficient_from_name",
    "kernel_from_section",
    "load_study",
    "load_mc",
    "read_config",
]


# name -> (vectorized coefficient function, its infimum on [0, 1]); the
# constants compare by value, so configs read from equal files are equal
_CATALOG = {
    "zero": (_Constant(0.0), 0.0),
    "one": (_Constant(1.0), 1.0),
    "sin2pix": (lambda x: np.sin(2.0 * np.pi * np.asarray(x, dtype=float)), -1.0),
}


# the keys each section takes: [equation] by equation type, [kernel] by
# kernel type besides its type key, [study] whatever the command
_EQUATION_KEYS = {
    "advdiff": ("type", "bc", "a11", "a1", "a0", "lambda0", "c0"),
    "wave": ("type", "g"),
}
_KERNEL_KEYS = {
    "white": (),
    "white_noise": (),
    "bridge": (),
    "brownian_bridge": (),
    "exponential": ("scale",),
    "matern": ("sigma", "nu", "rho"),
}
_STUDY_KEYS = (
    "t", "coupling", "levels", "reference", "snapshot_t", "n_samples", "seed"
)


def _catalog_entry(name):
    """(function, infimum on [0, 1]) of a catalog name; const:V is V."""
    name = name.strip()
    if name in _CATALOG:
        return _CATALOG[name]
    if name.startswith("const:"):
        try:
            val = float(name.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad constant coefficient {name!r}") from exc
        return _Constant(val), val
    raise ConfigError(
        f"unknown coefficient {name!r}; catalog: zero, one, const:V, sin2pix"
    )


def coefficient_from_name(name):
    """Resolve a catalog name to a vectorized coefficient function."""
    return _catalog_entry(name)[0]


def read_config(path):
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    return parser


def _getfloat(section, key, default=None, required=False):
    if key not in section:
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return section.getfloat(key)
    except ValueError as exc:
        raise ConfigError(f"key {key!r} is not a number") from exc


def _getint(section, key, default=None):
    if key not in section:
        return default
    try:
        return section.getint(key)
    except ValueError as exc:
        raise ConfigError(f"key {key!r} is not an integer") from exc


def _check_keys(section, allowed, owner):
    """Refuse a key of the section that is not in allowed, naming both."""
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{owner} take no key {key!r} in [{section.name}]")


def kernel_from_section(section):
    kind = section.get("type", "white").strip().lower()
    if kind not in _KERNEL_KEYS:
        raise ConfigError(f"unknown kernel type {kind!r}")
    _check_keys(section, ("type",) + _KERNEL_KEYS[kind], f"{kind} kernels")
    if kind in ("white", "white_noise"):
        return WhiteNoise()
    if kind in ("brownian_bridge", "bridge"):
        return BrownianBridge()
    if kind == "exponential":
        return Exponential(scale=_getfloat(section, "scale", 1.0))
    return Matern(
        sigma=_getfloat(section, "sigma", 1.0),
        nu=_getfloat(section, "nu", required=True),
        rho=_getfloat(section, "rho", 1.0),
    )


def _parse_exponents(raw):
    raw = raw.strip()
    if ":" in raw:
        lo, hi = raw.split(":", 1)
        try:
            lo, hi = int(lo), int(hi)
        except ValueError as exc:
            raise ConfigError(f"bad level range {raw!r}") from exc
        if hi < lo:
            raise ConfigError(f"empty level range {raw!r}")
        return list(range(lo, hi + 1))
    try:
        return [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad level list {raw!r}") from exc


def _build_coeffs(eq):
    a11, a11_inf = _catalog_entry(eq.get("a11", "one"))
    lambda0 = _getfloat(eq, "lambda0")
    if lambda0 is None:
        lambda0 = a11_inf
        if lambda0 <= 0.0:
            raise ConfigError(
                "lambda0 must be given when a11 has no positive lower bound"
            )
    return Coefficients(
        a11=a11,
        a1=coefficient_from_name(eq.get("a1", "zero")),
        a0=coefficient_from_name(eq.get("a0", "zero")),
        lambda0=lambda0,
    )


def _resolve_c0(eq, coeffs):
    raw = eq.get("c0", "0").strip()
    if raw.startswith("auto:"):
        try:
            eps = float(raw.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad c0 spec {raw!r}") from exc
        return compute_c0(coeffs, epsilon=eps)
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"bad c0 value {raw!r}") from exc


def load_study(path):
    """Build a StudyConfig from an INI file.

    The reference exponent becomes the study's AdvDiffConfig or
    WaveConfig; every problem is a ConfigError.
    """
    return _study(read_config(path))


def _study(parser):
    for name in ("equation", "kernel", "study"):
        if name not in parser:
            raise ConfigError(f"config is missing the [{name}] section")
    eq, kern, st = parser["equation"], parser["kernel"], parser["study"]

    equation = eq.get("type", "").strip().lower()
    if equation not in ("advdiff", "wave"):
        raise ConfigError(f"equation type must be advdiff or wave, got {equation!r}")
    _check_keys(eq, _EQUATION_KEYS[equation], f"{equation} equations")
    _check_keys(st, _STUDY_KEYS, "studies")

    T = _getfloat(st, "t", 1.0)
    coupling = st.get("coupling", "equal").strip().lower()
    exponents = _parse_exponents(st.get("levels", fallback=""))
    if not exponents:
        raise ConfigError("study needs a levels range or list")
    ref_exp = _getint(st, "reference")
    if ref_exp is None:
        raise ConfigError("study needs a reference exponent")
    levels = levels_from_exponents(exponents, coupling, T)
    n_cells, n_steps = levels_from_exponents([ref_exp], coupling, T)[0]

    kernel = kernel_from_section(kern)
    if equation == "advdiff":
        coeffs = _build_coeffs(eq)
        scheme = AdvDiffConfig(
            mesh=Mesh1D(n_cells, eq.get("bc", "dirichlet").strip().lower()),
            coeffs=coeffs,
            c0=_resolve_c0(eq, coeffs),
            kernel=kernel,
            T=T,
            n_steps=n_steps,
        )
    else:
        g = eq.get("g", "minus_q").strip().lower()
        scheme = WaveConfig(
            mesh=Mesh1D(n_cells), kernel=kernel, g_spec=g, T=T, n_steps=n_steps
        )
    return StudyConfig(
        scheme=scheme, levels=levels, snapshot_t=_getfloat(st, "snapshot_t")
    )


def load_mc(path, n_samples=None, seed=None):
    """Build an McConfig over the study's reference scheme.

    n_samples/seed arguments override the [study] section values.
    """
    # only the mc command loads the Monte Carlo module
    from .montecarlo import McConfig

    parser = read_config(path)
    study = _study(parser)
    st = parser["study"]
    ns = n_samples if n_samples is not None else _getint(st, "n_samples")
    if ns is None:
        raise ConfigError("monte carlo runs need n_samples")
    sd = seed if seed is not None else _getint(st, "seed")
    if sd is None:
        raise ConfigError("monte carlo runs need a seed")
    return McConfig(scheme=study.scheme, n_samples=ns, seed=sd)
