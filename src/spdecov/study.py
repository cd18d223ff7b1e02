"""Refinement sweeps against a fine reference, rate fitting, reports.

A study fixes an equation, a noise kernel, and a list of (n_cells,
n_steps) levels plus one reference pair. run_sweep computes the
reference covariance once, each level's covariance, and the trace-class
and Hilbert-Schmidt distances between them (wave studies measure the
position block), then fits log-log slopes in h.
"""

import json
import math
import time
import warnings
from dataclasses import astuple, dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .advdiff import AdvDiffConfig, advdiff_run
from .errnorms import err_hs_norm, err_trace_norm
from .exceptions import ConfigError, DegenerateFitError
from .fem import Coefficients, Mesh1D
from .kernels import Kernel
from .montecarlo import _is_int
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

    levels and reference are (n_cells, n_steps) pairs; h = 1/n_cells
    and dt = T/n_steps, so coupling rules like h = sqrt(dt) are already
    baked in by the caller (see levels_from_exponents). Advdiff studies
    need coeffs/c0/bc, wave studies g_spec; the unused side is ignored.
    """

    equation: str
    kernel: Kernel
    levels: Tuple[Tuple[int, int], ...]
    reference: Tuple[int, int]
    T: float = 1.0
    coeffs: Optional[Coefficients] = None
    c0: float = 0.0
    bc: str = "neumann"
    g_spec: Union[str, np.ndarray] = "minus_q"
    norms: Tuple[str, ...] = ("L1", "L2")
    seed: Optional[int] = None
    n_samples: Optional[int] = None
    snapshot_t: Optional[float] = None

    def __post_init__(self):
        if self.equation not in ("advdiff", "wave"):
            raise ConfigError(f"unknown equation {self.equation!r}")
        if self.equation == "advdiff" and self.coeffs is None:
            raise ConfigError("advdiff studies need coefficients")
        _check_horizon(self.T)
        if self.snapshot_t is not None and not 0.0 <= self.snapshot_t <= self.T:
            raise ConfigError(
                f"snapshot_t={self.snapshot_t!r} lies outside [0, T={self.T!r}]"
            )
        if not self.levels:
            raise ConfigError("study has no levels")
        for c, s in (*self.levels, self.reference):
            if not (_is_int(c) and c >= 2 and _is_int(s) and s >= 1):
                raise ConfigError(
                    f"level ({c!r}, {s!r}) needs an integer n_cells >= 2 "
                    "and an integer n_steps >= 1"
                )
        bad = [n for n in self.norms if n not in ("L1", "L2")]
        if bad:
            raise ConfigError(f"unknown norms {bad}")
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
    """Per-level errors and fitted slopes; nan marks unselected norms."""

    rows: Tuple[LevelResult, ...]
    slope_L1: float = float("nan")
    slope_L2: float = float("nan")


def _check_horizon(T):
    if not (math.isfinite(T) and T > 0.0):
        raise ConfigError(f"T must be finite and positive, got {T!r}")


def levels_from_exponents(exponents, coupling, T=1.0):
    """(n_cells, n_steps) pairs for h = 2^-j levels.

    coupling 'equal' means h = dt, 'sqrt' means h = sqrt(dt); step
    counts are rounded to keep dt = T/n_steps exact.
    """
    _check_horizon(T)
    pairs = []
    for j in exponents:
        n_cells = 2**j
        if coupling == "equal":
            n_steps = round(T * 2**j)
        elif coupling == "sqrt":
            n_steps = round(T * 4**j)
        else:
            raise ConfigError(f"unknown coupling {coupling!r}")
        if n_steps < 1:
            raise ConfigError(f"level {j} leaves no time steps for T={T}")
        pairs.append((n_cells, n_steps))
    return tuple(pairs)


def _scheme_config(study, pair, T=None):
    n_cells, n_steps = pair
    T = study.T if T is None else T
    if study.equation == "advdiff":
        mesh = Mesh1D(n_cells, study.bc)
        return AdvDiffConfig(
            mesh=mesh,
            coeffs=study.coeffs,
            c0=study.c0,
            kernel=study.kernel,
            T=T,
            n_steps=n_steps,
        )
    mesh = Mesh1D(n_cells, "dirichlet")
    return WaveConfig(
        mesh=mesh,
        kernel=study.kernel,
        g_spec=study.g_spec,
        T=T,
        n_steps=n_steps,
    )


def run_single(study, pair=None, t_stop=None):
    """One covariance computation at a single discretization.

    pair defaults to the study's reference. t_stop, when given, must be
    a multiple of dt; the run then stops there (snapshot support).
    Returns (mesh, K, t_end) with K the position block for wave runs.
    """
    pair = study.reference if pair is None else pair
    n_cells, n_steps = pair
    T, j = study.T, n_steps
    if t_stop is not None:
        dt = study.T / n_steps
        j = round(t_stop / dt)
        if abs(j * dt - t_stop) > 1e-9 * max(1.0, study.T):
            raise ConfigError(
                f"snapshot_t={t_stop} is not a multiple of dt={dt}"
            )
        if j > n_steps:
            raise ConfigError("snapshot_t lies beyond the horizon T")
        if j == 0:
            mesh = Mesh1D(
                n_cells, study.bc if study.equation == "advdiff" else "dirichlet"
            )
            return mesh, np.zeros((mesh.n_dof, mesh.n_dof)), 0.0
        T = j * dt
    cfg = _scheme_config(study, (n_cells, j), T=T)
    if study.equation == "advdiff":
        return cfg.mesh, advdiff_run(cfg), T
    return cfg.mesh, extract_position_cov(wave_run(cfg)), T


def run_sweep(study):
    """Run every level against the reference and fit rates.

    Levels run one after another in level order. Zero errors are
    excluded from the fit with a warning, and a fit with fewer than two
    usable points leaves the slope nan.
    """
    mesh_ref, K_ref, _ = run_single(study)

    def one_level(idx, pair):
        t0 = time.perf_counter()
        mesh, K, _ = run_single(study, pair)
        e1 = (
            err_trace_norm(K, mesh, K_ref, mesh_ref)
            if "L1" in study.norms
            else float("nan")
        )
        e2 = (
            err_hs_norm(K, mesh, K_ref, mesh_ref)
            if "L2" in study.norms
            else float("nan")
        )
        wall = time.perf_counter() - t0
        return LevelResult(
            level=idx,
            h=mesh.h,
            dt=study.T / pair[1],
            err_L1=e1,
            err_L2=e2,
            wall_time_s=wall,
        )

    rows = tuple(
        one_level(idx, pair) for idx, pair in enumerate(study.levels, start=1)
    )

    hs = [r.h for r in rows]
    slopes = {}
    for norm, errs in (
        ("L1", [r.err_L1 for r in rows]),
        ("L2", [r.err_L2 for r in rows]),
    ):
        slopes[norm] = float("nan")
        if norm in study.norms:
            try:
                slopes[norm] = fit_rate(hs, errs)
            except DegenerateFitError:
                pass
    return RateReport(rows=rows, slope_L1=slopes["L1"], slope_L2=slopes["L2"])


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

    Zero errors are excluded with a warning; fewer than two usable
    pairs raise DegenerateFitError.
    """
    pairs = _usable_pairs(hs, errs)
    if len(pairs) < 2:
        raise DegenerateFitError(
            f"need at least 2 usable (h, err) pairs, have {len(pairs)}"
        )
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
    rows = []
    slopes = {"L1": float("nan"), "L2": float("nan")}
    for line in text.splitlines():
        line = line.strip()
        if not line or line == CSV_HEADER:
            continue
        if line.startswith("#"):
            body = line.lstrip("# ").strip()
            for key in slopes:
                if body.startswith(f"slope_{key}="):
                    slopes[key] = float(body.split("=", 1)[1])
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise ConfigError(f"malformed report row: {line!r}")
        rows.append(
            LevelResult(
                level=int(parts[0]),
                h=float(parts[1]),
                dt=float(parts[2]),
                err_L1=float(parts[3]),
                err_L2=float(parts[4]),
                wall_time_s=float(parts[5]),
            )
        )
    return RateReport(
        rows=tuple(rows), slope_L1=slopes["L1"], slope_L2=slopes["L2"]
    )
