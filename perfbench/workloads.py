"""The benchmark's workloads, their pinned results and the output checks.

Every workload is one INI file built from the coefficient catalog and
two spde-cov commands on it: a study command (``sweep``, or ``mc`` on
mc-heat), which the end-to-end runs time, and the single-covariance
command at the reference level (``advdiff`` or ``wave``), which the
traced runs time as well. Why each workload is here is stated in
BENCHMARK.json; in short, heat-white-sqrt is dominated by advdiff
propagation, wave-matern-equal by assemble_Q on a stationary kernel,
wave-bridge-sqrt by Crank-Nicolson propagation plus assemble_Q on a
non-stationary kernel, and mc-heat by Monte Carlo sampling and its
jackknife of sym_eig calls.

The pinned values below were produced by the program at the commit that
added the benchmark. A result counts as correct when every pinned float
agrees to RTOL: loose enough for a reordered floating-point sum, tight
enough to catch a wrong answer.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from spdecov.exceptions import SpdeCovError
from spdecov.study import read_report

RTOL = 1e-6

#: seed at which every field of the mc report is pinned
MC_PINNED_SEED = 2026

_HEAT_EQUATION = """\
[equation]
type = advdiff
bc = neumann
a11 = const:4
a1 = sin2pix
a0 = zero
lambda0 = 4
c0 = 0.125

[kernel]
type = white
"""

_WAVE_EQUATION = """\
[equation]
type = wave
g = minus_q
"""


@dataclass(frozen=True)
class Workload:
    ini: str
    study: str  # "sweep" or "mc"
    single: str  # "advdiff" or "wave"
    sweep: Optional[dict] = None
    mc: Optional[dict] = None
    matrix: Optional[dict] = None

    def commands(self, ini_path, seed):
        """(role, argv) of the commands of one cycle, study command first."""
        study = [self.study, "--config", ini_path]
        if self.study == "mc":
            study += ["--seed", str(seed)]
        return (
            ("study", study),
            ("single", [self.single, "--config", ini_path]),
        )

    def check(self, role, text, seed):
        """Problems found in the output of one command (empty when correct)."""
        try:
            if role == "single":
                return check_matrix(text, self.matrix)
            if self.study == "mc":
                return check_mc(text, self.mc, seed)
            return check_sweep(text, self.sweep)
        except (ValueError, IndexError, KeyError, SpdeCovError) as exc:
            return [f"unreadable output: {exc!r}"]


WORKLOADS = {
    "heat-white-sqrt": Workload(
        ini=_HEAT_EQUATION
        + "\n[study]\nt = 1.0\ncoupling = sqrt\nlevels = 1:5\nreference = 6\n",
        study="sweep",
        single="advdiff",
        sweep={
            "err_L1": (
                0.07944829897802617,
                0.030035161522032224,
                0.012207461663608435,
                0.004837458695396813,
                0.001546345595451373,
            ),
            "err_L2": (
                0.062385712767621775,
                0.018072416342497146,
                0.005578899159487164,
                0.001710230197210013,
                0.00043681424809530005,
            ),
            "slope_L1": 1.4000494455112709,
            "slope_L2": 1.7717630868959355,
        },
        matrix={
            "n": 65,
            "trace": 66.36877217757377,
            "sum": 4228.065708602118,
            "fro": 65.05335190234152,
            "first": 1.040856805850363,
            "middle": 1.0096104535694501,
        },
    ),
    "wave-matern-equal": Workload(
        ini=_WAVE_EQUATION
        + "\n[kernel]\ntype = matern\nsigma = 10\nnu = 0.01\nrho = 0.1\n"
        + "\n[study]\nt = 1.0\ncoupling = equal\nlevels = 1:6\nreference = 7\n",
        study="sweep",
        single="wave",
        sweep={
            "err_L1": (
                0.044431712319133385,
                0.015404289339982178,
                0.004811648569987889,
                0.001718568098495154,
                0.0006181221302394418,
                0.00018882989634295435,
            ),
            "err_L2": (
                0.023104384019485356,
                0.006333446905394373,
                0.0015405103968093386,
                0.0006282769546134292,
                0.0002928052764866946,
                0.00010417845782966898,
            ),
            "slope_L1": 1.5655716321636235,
            "slope_L2": 1.530391350959219,
        },
        matrix={
            "n": 127,
            "trace": 14.975403879916097,
            "sum": 1233.7771948490931,
            "fro": 12.085229690903889,
            "first": 0.0005603528542826305,
            "middle": 0.20208333099335035,
        },
    ),
    "wave-bridge-sqrt": Workload(
        ini=_WAVE_EQUATION
        + "\n[kernel]\ntype = bridge\n"
        + "\n[study]\nt = 1.0\ncoupling = sqrt\nlevels = 1:5\nreference = 6\n",
        study="sweep",
        single="wave",
        sweep={
            "err_L1": (
                0.0018493867963998748,
                0.000592557721953336,
                0.00016449674199763218,
                4.19015684407305e-05,
                9.188775374578785e-06,
            ),
            "err_L2": (
                0.0013523317392988643,
                0.0004056972377966405,
                0.00010575946137939509,
                2.5735052047660876e-05,
                5.36951936699122e-06,
            ),
            "slope_L1": 1.912779689944521,
            "slope_L2": 1.9931477733612606,
        },
        matrix={
            "n": 63,
            "trace": 0.350596633464899,
            "sum": 16.802496946798225,
            "fro": 0.3242292157241289,
            "first": 3.9154483790903367e-05,
            "middle": 0.010261876899477131,
        },
    ),
    "mc-heat": Workload(
        ini=_HEAT_EQUATION
        + "\n[study]\nt = 1.0\ncoupling = equal\nlevels = 4\nreference = 4\n"
        + f"n_samples = 10000\nseed = {MC_PINNED_SEED}\n",
        study="mc",
        single="advdiff",
        mc={
            "hs_distance": 0.018893119043567563,
            "trace_distance": 0.018981875825533852,
            "sampling_error_hs": 0.01424313006976956,
            "sampling_error_trace": 0.014245021203508925,
            "consistency_margin": 0.0009682967404769998,
            "n_samples": 10000,
            "seed": MC_PINNED_SEED,
        },
        matrix={
            "n": 17,
            "trace": 16.864444863666478,
            "sum": 284.6340801433083,
            "fro": 16.743535245861747,
            "first": 0.9987333876002752,
            "middle": 0.9855836162377302,
        },
    ),
}


def _close(got, want):
    return math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0)


def check_sweep(text, pinned):
    """Problems found in a sweep CSV report (empty when it matches)."""
    report = read_report(text)
    problems = []
    for norm in ("err_L1", "err_L2"):
        got = [getattr(r, norm) for r in report.rows]
        want = pinned[norm]
        if len(got) != len(want):
            problems.append(f"{norm}: {len(got)} levels, expected {len(want)}")
            continue
        for level, (g, w) in enumerate(zip(got, want), start=1):
            if not _close(g, w):
                problems.append(f"{norm} level {level}: {g!r} != {w!r}")
    for key in ("slope_L1", "slope_L2"):
        g = getattr(report, key)
        if not _close(g, pinned[key]):
            problems.append(f"{key}: {g!r} != {pinned[key]!r}")
    return problems


def matrix_summary(K):
    n = K.shape[0]
    return {
        "n": n,
        "trace": float(np.trace(K)),
        "sum": float(K.sum()),
        "fro": float(np.linalg.norm(K)),
        "first": float(K[0, 0]),
        "middle": float(K[n // 2, n // 2]),
    }


def check_matrix(text, pinned):
    """Problems found in a covariance matrix CSV (one comment line, then rows)."""
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    K = np.array([[float(v) for v in row.split(",")] for row in rows])
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        return [f"matrix is not square: shape {K.shape}"]
    got = matrix_summary(K)
    problems = []
    if got["n"] != pinned["n"]:
        return [f"n: {got['n']} != {pinned['n']}"]
    for key, want in pinned.items():
        if key != "n" and not _close(got[key], want):
            problems.append(f"{key}: {got[key]!r} != {want!r}")
    return problems


def check_mc(text, pinned, seed):
    """Problems found in an mc CSV report.

    At the pinned seed every field must match. At any other seed the
    integers must match the request and the distance must satisfy
    hs_distance <= 3 * sampling_error_hs + consistency_margin.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) != 2:
        return [f"expected a header and one row, got {len(lines)} lines"]
    head, row = lines[0].split(","), lines[1].split(",")
    if head != list(pinned) or len(row) != len(head):
        return [f"unexpected columns {head}"]
    got = {}
    for key, raw in zip(head, row):
        got[key] = int(raw) if isinstance(pinned[key], int) else float(raw)
    problems = []
    if got["n_samples"] != pinned["n_samples"]:
        problems.append(f"n_samples: {got['n_samples']} != {pinned['n_samples']}")
    if got["seed"] != seed:
        problems.append(f"seed: {got['seed']} != {seed}")
    if seed == MC_PINNED_SEED:
        for key, want in pinned.items():
            if isinstance(want, float) and not _close(got[key], want):
                problems.append(f"{key}: {got[key]!r} != {want!r}")
        return problems
    floats = [v for v in got.values() if isinstance(v, float)]
    if not all(math.isfinite(v) and v >= 0.0 for v in floats):
        problems.append(f"non-finite or negative field in {got}")
    bound = 3.0 * got["sampling_error_hs"] + got["consistency_margin"]
    if not got["hs_distance"] <= bound:
        problems.append(f"hs_distance {got['hs_distance']!r} > bound {bound!r}")
    return problems
