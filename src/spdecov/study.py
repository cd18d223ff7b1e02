"""Refinement sweeps against a fine reference, rate fitting, reports.

A study is one reference run, an AdvDiffConfig or a WaveConfig, plus a
list of coarser (n_cells, n_steps) levels of the same scheme. run_sweep
computes the reference covariance once, each level's covariance, and the
trace-class and Hilbert-Schmidt distances between them (wave studies
measure the position block), then fits log-log slopes in h.
"""

import math
import time
import warnings
from dataclasses import astuple, dataclass, replace
from typing import Optional, Tuple, Union

import numpy as np

from .advdiff import AdvDiffConfig, advdiff_run
from .errnorms import err_hs_norm, err_trace_norm
from .exceptions import ConfigError
from .fem import Mesh1D, _is_finite, _is_int, _is_real
from .linalg import _serial_blas
from .wave import WaveConfig, extract_position_cov, wave_run

__all__ = [
    "StudyConfig",
    "LevelResult",
    "RateReport",
    "levels_from_exponents",
    "run_single",
    "run_sweep",
    "fit_rate",
    "write_table",
    "emit",
    "read_report",
]

CSV_HEADER = "level,h,dt,err_L1,err_L2,wall_time_s"
FORMATS = ("csv", "jsonl", "gnuplot")


@dataclass(frozen=True)
class StudyConfig:
    """Declarative description of one refinement study.

    scheme is the reference run, an AdvDiffConfig or a WaveConfig with
    K0 = None. levels are (n_cells, n_steps) pairs of the same scheme on
    coarser meshes, with h = 1/n_cells and dt = scheme.T / n_steps, so
    coupling rules like h = sqrt(dt) are already baked in by the caller
    (see levels_from_exponents). snapshot_t, where the single-run
    commands stop, is a multiple of the reference dt in [0, T].
    """

    scheme: Union[AdvDiffConfig, WaveConfig]
    levels: Tuple[Tuple[int, int], ...]
    snapshot_t: Optional[float] = None

    def __post_init__(self):
        if not isinstance(self.scheme, (AdvDiffConfig, WaveConfig)):
            raise ConfigError(
                "a study runs an AdvDiffConfig or a WaveConfig, got "
                f"{type(self.scheme).__name__}"
            )
        if self.scheme.K0 is not None:
            raise ConfigError("a study's reference run must start from K0 = None")
        if self.snapshot_t is not None:
            _snapshot_steps(self.snapshot_t, self.scheme)
        if not isinstance(self.levels, (tuple, list)) or not self.levels:
            raise ConfigError(
                f"a study needs a non-empty tuple of levels, got {self.levels!r}"
            )
        for pair in self.levels:
            _check_level(pair)
        cells = [c for c, _ in self.levels]
        if any(b <= a for a, b in zip(cells, cells[1:])):
            raise ConfigError("levels must be strictly decreasing in h")
        rc, rs = self.reference
        for c, s in self.levels:
            if rc < c or rs < s:
                raise ConfigError(
                    "reference must be at least as fine as every level"
                )
            if rc % c:
                raise ConfigError(
                    f"a {c}-cell level does not nest in the {rc}-cell reference"
                )

    @property
    def reference(self):
        """(n_cells, n_steps) of the reference run."""
        return self.scheme.mesh.n_cells, self.scheme.n_steps


def _check_level(pair):
    """The (n_cells, n_steps) of a level, refused unless both are valid."""
    c, s = pair if isinstance(pair, (tuple, list)) and len(pair) == 2 else (0, 0)
    if not (_is_int(c) and c >= 2 and _is_int(s) and s >= 1):
        raise ConfigError(
            f"level {pair!r} needs an integer n_cells >= 2 "
            "and an integer n_steps >= 1"
        )
    return c, s


def _snapshot_steps(t, cfg):
    """The step count at which a run of cfg reaches the snapshot time t."""
    if not (_is_finite(t) and 0.0 <= t <= cfg.T):
        raise ConfigError(
            f"snapshot_t={t!r} must be finite and lie in [0, T={cfg.T!r}], not outside"
        )
    j = round(t / cfg.dt)
    if abs(j * cfg.dt - t) > 1e-9 * max(1.0, cfg.T):
        raise ConfigError(f"snapshot_t={t!r} is not a multiple of dt={cfg.dt!r}")
    return j


@dataclass(frozen=True)
class LevelResult:
    level: int
    h: float
    dt: float
    err_L1: float
    err_L2: float
    wall_time_s: float


@dataclass(frozen=True)
class RateReport:
    """Per-level errors and fitted slopes; a nan slope marks a degenerate fit."""

    rows: Tuple[LevelResult, ...]
    slope_L1: float = float("nan")
    slope_L2: float = float("nan")


def levels_from_exponents(exponents, coupling, T=1.0):
    """(n_cells, n_steps) pairs for h = 2^-j levels.

    coupling 'equal' means h = dt, 'sqrt' means h = sqrt(dt); step
    counts are rounded to keep dt = T/n_steps exact.
    """
    if not (_is_finite(T) and T > 0.0):
        raise ConfigError(f"T must be finite and positive, got {T!r}")
    pairs = []
    for j in exponents:
        if not _is_int(j):
            raise ConfigError(f"level exponents must be integers, got {j!r}")
        if coupling == "equal":
            base = 2.0
        elif coupling == "sqrt":
            base = 4.0
        else:
            raise ConfigError(f"unknown coupling {coupling!r}")
        try:
            n_steps = round(T * base**j)
        except OverflowError:
            raise ConfigError(f"level {j} overflows the step count for T={T}") from None
        if n_steps < 1:
            raise ConfigError(f"level {j} leaves no time steps for T={T}")
        pairs.append((2**j, n_steps))
    return tuple(pairs)


def run_single(study, pair=None, t_stop=None):
    """One covariance computation at a single discretization.

    pair defaults to the study's reference. t_stop, when given, must be
    a multiple of dt in [0, T]; the run then stops there (snapshots).
    Returns (mesh, K, t_end) with K the position block for wave runs.
    Runs with at most linalg.SERIAL_BLAS_MAX_ROWS state rows use one
    BLAS thread.
    """
    cfg = study.scheme
    if pair is not None:
        n_cells, n_steps = _check_level(pair)
        cfg = replace(cfg, mesh=Mesh1D(n_cells, cfg.mesh.bc), n_steps=n_steps)
    if t_stop is not None:
        j = _snapshot_steps(t_stop, cfg)
        if j == 0:
            n = cfg.mesh.n_dof
            return cfg.mesh, np.zeros((n, n)), 0.0
        cfg = replace(cfg, T=j * cfg.dt, n_steps=j)
    with _serial_blas(cfg.n_state):
        if isinstance(cfg, AdvDiffConfig):
            return cfg.mesh, advdiff_run(cfg), cfg.T
        return cfg.mesh, extract_position_cov(wave_run(cfg)), cfg.T


def run_sweep(study):
    """Run every level against the reference and fit rates.

    Levels run one after another in level order, each measured in both
    norms. Zero errors are excluded from the fit with a warning, and a
    fit with fewer than two usable points leaves the slope nan. The
    reference's state rows set the BLAS threads of the whole sweep.
    """
    rows = []
    with _serial_blas(study.scheme.n_state):
        mesh_ref, K_ref, _ = run_single(study)
        for idx, pair in enumerate(study.levels, start=1):
            t0 = time.perf_counter()
            mesh, K, _ = run_single(study, pair)
            e1 = err_trace_norm(K, mesh, K_ref, mesh_ref)
            e2 = err_hs_norm(K, mesh, K_ref, mesh_ref)
            wall = time.perf_counter() - t0
            dt = study.scheme.T / pair[1]
            rows.append(LevelResult(idx, mesh.h, dt, e1, e2, wall))
        hs = [r.h for r in rows]
        slope_L1 = fit_rate(hs, [r.err_L1 for r in rows])
        slope_L2 = fit_rate(hs, [r.err_L2 for r in rows])
    return RateReport(tuple(rows), slope_L1, slope_L2)


def _usable_pairs(hs, errs):
    pairs = []
    for h, e in zip(hs, errs):
        if not np.isfinite(e):
            continue
        if e <= 0.0:
            warnings.warn(
                f"excluding nonpositive error {e!r} at h={h!r} from rate fit",
                stacklevel=3,
            )
            continue
        pairs.append((h, e))
    return pairs


def fit_rate(hs, errs):
    """Least-squares slope of log(err) against log(h).

    Zero errors are excluded with a warning and non-finite ones skipped;
    fewer than two usable pairs give nan, and a non-finite or
    nonpositive h, an error that is not a real number, or unequal
    lengths, raise ConfigError.
    """
    if len(hs) != len(errs):
        raise ConfigError(
            f"need one error per mesh width, got {len(hs)} and {len(errs)}"
        )
    if not all(_is_finite(h) and h > 0 for h in hs):
        raise ConfigError(f"mesh widths must be finite and positive, got {hs!r}")
    if not all(_is_real(e) for e in errs):
        raise ConfigError(f"errors must be real numbers, got {errs!r}")
    pairs = _usable_pairs(hs, errs)
    if len(pairs) < 2:
        return float("nan")
    lh = np.log([p[0] for p in pairs])
    le = np.log([p[1] for p in pairs])
    return float(np.polyfit(lh, le, 1)[0])


def _cell(x):
    """csv/gnuplot text of one cell: ints via str, floats via repr."""
    return str(x) if isinstance(x, (int, np.integer)) else repr(float(x))


def _json_value(x):
    """jsonl value of one cell: non-finite floats become null."""
    if isinstance(x, (int, np.integer)):
        return int(x)
    return float(x) if math.isfinite(x) else None


def write_table(fmt, columns, rows, title=None, footer=None, block=None):
    """Serialize a table as 'csv', 'jsonl' or 'gnuplot' text.

    csv: an optional '# title' line, the header, one comma-separated
    line per row, then one '# key=value' line per footer item. gnuplot:
    the same with spaces, the header commented out, and a blank line
    after every `block` rows. jsonl: one object per row keyed by
    `columns` ({"row": i, "values": [...]} when there are none), the
    footer as one last object, and null for non-finite floats.
    """
    if fmt not in FORMATS:
        raise ConfigError(f"unknown format {fmt!r}")
    footer = footer or {}
    if fmt == "jsonl":
        import json  # only jsonl output needs it; csv commands start faster

        recs = [
            dict(zip(columns, map(_json_value, row)))
            if columns
            else {"row": i, "values": list(map(_json_value, row))}
            for i, row in enumerate(rows)
        ]
        if footer:
            recs.append({k: _json_value(v) for k, v in footer.items()})
        return "".join(json.dumps(rec, allow_nan=False) + "\n" for rec in recs)
    sep = "," if fmt == "csv" else " "
    lines = [] if title is None else [f"# {title}"]
    if columns:
        head = sep.join(columns)
        lines.append(head if fmt == "csv" else "# " + head)
    for i, row in enumerate(rows, start=1):
        lines.append(sep.join(map(_cell, row)))
        if fmt == "gnuplot" and block and i % block == 0:
            lines.append("")
    lines += [f"# {k}={_cell(v)}" for k, v in footer.items()]
    return "\n".join(lines) + "\n"


def emit(report, fmt="csv"):
    """Serialize a RateReport through write_table.

    fmt is 'csv', 'jsonl' or 'gnuplot'. The CSV carries exactly the
    columns level,h,dt,err_L1,err_L2,wall_time_s plus trailing
    '# slope_*=' comment lines.
    """
    return write_table(
        fmt,
        CSV_HEADER.split(","),
        [astuple(r) for r in report.rows],
        footer={"slope_L1": report.slope_L1, "slope_L2": report.slope_L2},
    )


def read_report(text):
    """Parse a CSV report back into a RateReport (inverse of emit)."""
    rows, slopes = [], {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line == CSV_HEADER:
            continue
        if line.startswith("#"):
            key, _, value = line.lstrip("# ").partition("=")
            if key in ("slope_L1", "slope_L2"):
                # float() reads the nan of a degenerate fit, and inf
                try:
                    slopes[key] = float(value)
                except ValueError as exc:
                    raise ConfigError(f"malformed report footer: {line!r}") from exc
            continue
        p = line.split(",")
        # a wrong cell count is a TypeError of LevelResult
        try:
            rows.append(LevelResult(int(p[0]), *map(float, p[1:])))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed report row: {line!r}") from exc
    return RateReport(rows=tuple(rows), **slopes)
