"""INI config files for the command-line front end.

Three sections. [equation] picks the scheme and its coefficients,
[kernel] the noise covariance, [study] the discretization levels and
outputs. Coefficient functions come from a small named catalog so that
configs stay plain text:

    zero       constant 0
    one        constant 1
    const:V    constant V
    sin2pix    sin(2*pi*x)
"""

import configparser

import numpy as np

from .exceptions import ConfigError
from .fem import Coefficients, compute_c0
from .kernels import BrownianBridge, Exponential, Matern, WhiteNoise
from .montecarlo import McConfig
from .study import StudyConfig, levels_from_exponents, _scheme_config

__all__ = [
    "coefficient_from_name",
    "kernel_from_section",
    "load_study",
    "load_mc",
    "read_config",
]


def coefficient_from_name(name):
    """Resolve a catalog name to a vectorized coefficient function."""
    name = name.strip()
    if name == "zero":
        return lambda x: np.zeros_like(np.asarray(x, dtype=float))
    if name == "one":
        return lambda x: np.ones_like(np.asarray(x, dtype=float))
    if name == "sin2pix":
        return lambda x: np.sin(2.0 * np.pi * np.asarray(x, dtype=float))
    if name.startswith("const:"):
        try:
            val = float(name.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad constant coefficient {name!r}") from exc
        return lambda x: np.full_like(np.asarray(x, dtype=float), val)
    raise ConfigError(
        f"unknown coefficient {name!r}; catalog: zero, one, const:V, sin2pix"
    )


def _coeff_lower_bound(name):
    """inf over [0,1] for catalog entries, used for lambda0 defaults."""
    name = name.strip()
    if name == "zero":
        return 0.0
    if name == "one":
        return 1.0
    if name == "sin2pix":
        return -1.0
    if name.startswith("const:"):
        return float(name.split(":", 1)[1])
    raise ConfigError(f"unknown coefficient {name!r}")


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


def kernel_from_section(section):
    kind = section.get("type", "white").strip().lower()
    if kind in ("white", "white_noise"):
        return WhiteNoise()
    if kind in ("brownian_bridge", "bridge"):
        return BrownianBridge()
    try:
        if kind == "exponential":
            return Exponential(scale=_getfloat(section, "scale", 1.0))
        if kind == "matern":
            return Matern(
                sigma=_getfloat(section, "sigma", 1.0),
                nu=_getfloat(section, "nu", required=True),
                rho=_getfloat(section, "rho", 1.0),
            )
    except ValueError as exc:
        raise ConfigError(f"bad {kind} kernel: {exc}") from exc
    raise ConfigError(f"unknown kernel type {kind!r}")


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
    a11_name = eq.get("a11", "one")
    a1_name = eq.get("a1", "zero")
    a0_name = eq.get("a0", "zero")
    lambda0 = _getfloat(eq, "lambda0")
    if lambda0 is None:
        lambda0 = _coeff_lower_bound(a11_name)
        if lambda0 <= 0.0:
            raise ConfigError(
                "lambda0 must be given when a11 has no positive lower bound"
            )
    return Coefficients(
        a11=coefficient_from_name(a11_name),
        a1=coefficient_from_name(a1_name),
        a0=coefficient_from_name(a0_name),
        lambda0=lambda0,
    )


def _resolve_c0(eq, coeffs):
    raw = eq.get("c0", "0").strip()
    if raw.startswith("auto:"):
        try:
            eps = float(raw.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad c0 spec {raw!r}") from exc
        try:
            return compute_c0(coeffs, epsilon=eps)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"bad c0 value {raw!r}") from exc


def load_study(path):
    """Build a StudyConfig from an INI file."""
    parser = read_config(path)
    for name in ("equation", "kernel", "study"):
        if name not in parser:
            raise ConfigError(f"config is missing the [{name}] section")
    eq, kern, st = parser["equation"], parser["kernel"], parser["study"]

    equation = eq.get("type", "").strip().lower()
    if equation not in ("advdiff", "wave"):
        raise ConfigError(f"equation type must be advdiff or wave, got {equation!r}")

    T = _getfloat(st, "t", 1.0)
    coupling = st.get("coupling", "equal").strip().lower()
    exponents = _parse_exponents(st.get("levels", fallback=""))
    if not exponents:
        raise ConfigError("study needs a levels range or list")
    ref_exp = _getint(st, "reference")
    if ref_exp is None:
        raise ConfigError("study needs a reference exponent")
    levels = levels_from_exponents(exponents, coupling, T)
    reference = levels_from_exponents([ref_exp], coupling, T)[0]

    norms = tuple(
        tok.strip()
        for tok in st.get("norms", "L1,L2").split(",")
        if tok.strip()
    )

    kwargs = dict(
        equation=equation,
        kernel=kernel_from_section(kern),
        levels=levels,
        reference=reference,
        T=T,
        norms=norms,
        seed=_getint(st, "seed"),
        n_samples=_getint(st, "n_samples"),
        snapshot_t=_getfloat(st, "snapshot_t"),
    )
    if equation == "advdiff":
        coeffs = _build_coeffs(eq)
        kwargs.update(
            coeffs=coeffs,
            c0=_resolve_c0(eq, coeffs),
            bc=eq.get("bc", "dirichlet").strip().lower(),
        )
    else:
        g = eq.get("g", "minus_q").strip().lower()
        if g not in ("minus_q", "zero"):
            raise ConfigError(f"g must be minus_q or zero, got {g!r}")
        kwargs.update(g_spec=g)
    try:
        return StudyConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_mc(path, n_samples=None, seed=None):
    """Build an McConfig at the study's reference discretization.

    n_samples/seed arguments override the [study] section values.
    """
    study = load_study(path)
    ns = n_samples if n_samples is not None else study.n_samples
    if ns is None:
        raise ConfigError("monte carlo runs need n_samples")
    sd = seed if seed is not None else study.seed
    if sd is None:
        raise ConfigError("monte carlo runs need a seed")
    scheme = _scheme_config(study, study.reference)
    return McConfig(scheme=scheme, n_samples=ns, seed=sd)
