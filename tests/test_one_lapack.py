"""All dense linear algebra runs on numpy's LAPACK, whatever the threads.

The numpy and scipy wheels each bundle their own OpenBLAS. A scipy.linalg
call starts the second library's thread pool, which then competes with
numpy's idle workers for the cores. The package therefore needs scipy
only for scipy.special.kv, and these tests run the command line in
fresh interpreters to check that scipy.linalg never loads and that the
sweep errors and the Monte Carlo report do not depend on the OpenBLAS
thread count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy.testing import assert_allclose

from spdecov.study import read_report

SRC = Path(__file__).resolve().parents[1] / "src"

HEAT_EQUATION = """
[equation]
type = advdiff
bc = neumann
a11 = const:4
a1 = sin2pix
lambda0 = 4
c0 = 0.125

[kernel]
type = white
"""

INIS = {
    "heat": HEAT_EQUATION
    + "[study]\nt = 1.0\ncoupling = sqrt\nlevels = 1:5\nreference = 6\n",
    "mc": HEAT_EQUATION
    + "[study]\nt = 1.0\ncoupling = equal\nlevels = 3\nreference = 3\n"
    + "n_samples = 200\nseed = 5\n",
    "wave": """
[equation]
type = wave
g = minus_q

[kernel]
type = matern
sigma = 10
nu = 0.01
rho = 0.1

[study]
t = 1.0
coupling = equal
levels = 1:6
reference = 7
""",
}

# runs each argv list through main, then reports whether scipy.linalg
# was ever imported
CHILD = """
import json, sys
from spdecov.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"spde-cov {' '.join(argv)} failed")
print(json.dumps("scipy.linalg" in sys.modules))
"""


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Sweeps and an mc run, once per OpenBLAS thread count."""
    tmp = tmp_path_factory.mktemp("one_lapack")
    for name, text in INIS.items():
        (tmp / f"{name}.ini").write_text(text)
    path = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    out = {}
    for threads in ("1", "2"):
        commands = [
            [cmd, "--config", str(tmp / f"{name}.ini"),
             "--out", str(tmp / f"{name}-{threads}.csv")]
            for cmd, name in (("sweep", "heat"), ("sweep", "wave"),
                              ("mc", "mc"))
        ]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, json.dumps(commands)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        reports = {
            eq: read_report((tmp / f"{eq}-{threads}.csv").read_text())
            for eq in ("heat", "wave")
        }
        mc_csv = (tmp / f"mc-{threads}.csv").read_bytes()
        out[threads] = (json.loads(proc.stdout), reports, mc_csv)
    return out


def test_scipy_linalg_never_loads(runs):
    for threads, (linalg_loaded, _, _) in runs.items():
        assert not linalg_loaded, f"scipy.linalg loaded at {threads} threads"


@pytest.mark.parametrize("eq", ["heat", "wave"])
def test_sweep_errors_do_not_depend_on_thread_count(runs, eq):
    # the outputs are not bit-identical across thread counts, but the
    # finest Matern level moves by about 2e-10 relative
    one, two = runs["1"][1][eq].rows, runs["2"][1][eq].rows
    assert len(one) == len(two) > 0
    for a, b in zip(one, two):
        assert_allclose(
            [a.err_L1, a.err_L2], [b.err_L1, b.err_L2], rtol=1e-9, atol=0
        )


def test_mc_report_does_not_depend_on_thread_count(runs):
    # every path draws from its own stream and the sums run in path
    # order, so the report is byte-identical across thread counts
    assert runs["1"][2] == runs["2"][2]
