"""spde-cov command line front end.

Subcommands:

    advdiff   run the configured heat scheme at the reference level and
              emit the covariance (full matrix, or x,y,cov triples when
              snapshot_t is set)
    wave      same for the damped wave scheme (position block)
    sweep     refinement study: per-level errors plus fitted rates
    mc        Monte Carlo cross-check of the deterministic covariance
    oracle    closed-form spectral variances for comparison

Every subcommand reads one INI config (see config module docstring).
Exit codes: 0 success, 1 configuration problem (a ConfigError, or any
other ValueError), 2 numerical failure (a NumericalError). Either way
one line 'spde-cov: config error: ...' or 'spde-cov: numerical
failure: ...' goes to stderr.
"""

import argparse
import sys
from dataclasses import astuple, fields

import numpy as np

from . import montecarlo
from .advdiff import AdvDiffConfig
from .config import load_mc, load_study
from .exceptions import ConfigError, NumericalError
from .spectral import (
    _sine_diagonal,
    eigenvalues,
    heat_cov_closed_form,
    wave_cov_closed_form,
)
from .study import FORMATS, emit, run_single, run_sweep, write_table

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # usage errors are config errors (exit 1), not numerical (exit 2)
    def error(self, message):
        raise ConfigError(message)


def _run_equation(args):
    study = load_study(args.config)
    declared = "advdiff" if isinstance(study.scheme, AdvDiffConfig) else "wave"
    if declared != args.command:
        raise ConfigError(
            f"config declares equation type {declared!r}, "
            f"but the {args.command} subcommand was invoked"
        )
    mesh, K, t = run_single(study, t_stop=study.snapshot_t)
    if study.snapshot_t is None:
        title = f"covariance coefficient matrix, n_dof={len(K)}, t={float(t)!r}"
        return write_table(args.format, (), K, title=title)
    # nodal covariance samples Cov(u(x_p), u(x_q)) on the DoF nodes
    xs = mesh.dof_nodes
    rows = [(xs[p], xs[q], K[p, q]) for p, q in np.ndindex(K.shape)]
    title = f"covariance snapshot at t={float(t)!r}"
    return write_table(
        args.format, ("x", "y", "cov"), rows, title=title, block=len(xs)
    )


def _run_sweep(args):
    return emit(run_sweep(load_study(args.config)), fmt=args.format)


def _run_mc(args):
    mc = load_mc(args.config, n_samples=args.samples, seed=args.seed)
    # looked up on the module at call time, where a tracer may wrap it
    report = montecarlo.mc_validate(mc)
    columns = [f.name for f in fields(report)]
    return write_table(args.format, columns, [astuple(report)])


def _run_oracle(args):
    scheme = load_study(args.config).scheme
    n_modes = args.modes
    if n_modes < 1:
        raise ConfigError("--modes must be positive")
    q = _sine_diagonal(n_modes, scheme.kernel)
    if q is None:
        raise ConfigError(
            "closed-form oracle needs a white or brownian_bridge kernel"
        )
    if isinstance(scheme, AdvDiffConfig):
        var = heat_cov_closed_form(n_modes, scheme.T, q_diag=q)
    else:
        var = wave_cov_closed_form(n_modes, scheme.T, q_diag=q)
    rows = zip(range(1, n_modes + 1), eigenvalues(n_modes), var)
    return write_table(args.format, ("k", "lambda", "variance"), rows)


# subcommand -> (help text, handler of the parsed arguments)
_COMMANDS = {
    "advdiff": (
        "single heat-equation covariance at the reference level",
        _run_equation,
    ),
    "wave": ("single wave-equation position covariance", _run_equation),
    "sweep": ("refinement study with fitted convergence rates", _run_sweep),
    "mc": ("Monte Carlo validation of the deterministic covariance", _run_mc),
    "oracle": ("closed-form spectral mode variances", _run_oracle),
}


def _build_parser(names=_COMMANDS):
    """The spde-cov parser, with a subparser for each command in names."""
    parser = _Parser(
        prog="spde-cov",
        description="covariance computations for parabolic and hyperbolic "
        "stochastic equations on (0,1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        p = sub.add_parser(name, help=_COMMANDS[name][0])
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--out", help="write output here instead of stdout")
        p.add_argument(
            "--format",
            choices=FORMATS,
            default="csv",
            help="output serialization (default csv)",
        )
        if name == "mc":
            p.add_argument(
                "--samples", type=int, help="override n_samples from the config"
            )
            p.add_argument(
                "--seed", type=int, help="override seed from the config"
            )
        if name == "oracle":
            p.add_argument(
                "--modes", type=int, default=16, help="number of modes (default 16)"
            )
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # a command's own subparser parses it, refuses it and prints its help
    # as the full parser does, in a fraction of the full parser's setup
    named = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    parser = _build_parser(named)
    try:
        args = parser.parse_args(argv)
        text = _COMMANDS[args.command][1](args)
    # every ConfigError is a ValueError too
    except ValueError as exc:
        print(f"spde-cov: config error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"spde-cov: numerical failure: {exc}", file=sys.stderr)
        return 2
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"spde-cov: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
