import configparser
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spdecov import (
    BrownianBridge,
    ConfigError,
    Exponential,
    Matern,
    NumericalError,
    WhiteNoise,
    coefficient_from_name,
    heat_cov_closed_form,
    kernel_from_section,
    load_mc,
    load_study,
    run_single,
    run_sweep,
    wave_cov_closed_form,
)
from spdecov.cli import main

HEAT_INI = """
[equation]
type = advdiff
bc = dirichlet
a11 = one
c0 = 0

[kernel]
type = white

[study]
t = 1.0
coupling = sqrt
levels = 2:3
reference = 4
"""

WAVE_INI = """
[equation]
type = wave
g = minus_q

[kernel]
type = brownian_bridge

[study]
t = 1.0
coupling = equal
levels = 2,3
reference = 4
snapshot_t = 0.5
"""


def _write(tmp_path, text, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_coefficient_catalog():
    x = np.array([0.0, 0.25, 0.5])
    assert_allclose(coefficient_from_name("zero")(x), 0.0)
    assert_allclose(coefficient_from_name("one")(x), 1.0)
    assert_allclose(coefficient_from_name("const:2.5")(x), 2.5)
    assert_allclose(
        coefficient_from_name("sin2pix")(x), np.sin(2 * np.pi * x), atol=1e-15
    )
    with pytest.raises(ConfigError):
        coefficient_from_name("cos2pix")
    with pytest.raises(ConfigError):
        coefficient_from_name("const:abc")


def _section(**kw):
    parser = configparser.ConfigParser()
    parser["kernel"] = {k: str(v) for k, v in kw.items()}
    return parser["kernel"]


def test_kernel_from_section():
    assert isinstance(kernel_from_section(_section()), WhiteNoise)
    assert isinstance(kernel_from_section(_section(type="white_noise")), WhiteNoise)
    k = kernel_from_section(_section(type="exponential", scale=2.0))
    assert isinstance(k, Exponential) and k.scale == 2.0
    m = kernel_from_section(_section(type="matern", sigma=10, nu=0.01, rho=0.1))
    assert isinstance(m, Matern) and (m.sigma, m.nu, m.rho) == (10.0, 0.01, 0.1)
    assert isinstance(kernel_from_section(_section(type="bridge")), BrownianBridge)
    with pytest.raises(ConfigError):
        kernel_from_section(_section(type="matern", sigma=1.0))
    with pytest.raises(ConfigError):
        kernel_from_section(_section(type="gaussian"))


def test_load_study_heat(tmp_path):
    st = load_study(_write(tmp_path, HEAT_INI))
    assert st.equation == "advdiff"
    assert st.bc == "dirichlet"
    assert st.c0 == 0.0
    assert isinstance(st.kernel, WhiteNoise)
    assert st.levels == ((4, 16), (8, 64))
    assert st.reference == (16, 256)
    assert st.norms == ("L1", "L2")


def test_load_study_wave(tmp_path):
    st = load_study(_write(tmp_path, WAVE_INI))
    assert st.equation == "wave"
    assert st.g_spec == "minus_q"
    assert isinstance(st.kernel, BrownianBridge)
    assert st.levels == ((4, 4), (8, 8))
    assert st.snapshot_t == 0.5


def test_load_study_c0_auto(tmp_path):
    ini = """
[equation]
type = advdiff
bc = neumann
a11 = const:4
a1 = sin2pix
c0 = auto:0.5

[kernel]
type = white

[study]
coupling = sqrt
levels = 2:3
reference = 4
"""
    st = load_study(_write(tmp_path, ini))
    assert st.c0 == pytest.approx(0.125, rel=1e-12)


def test_load_study_levels_list_equals_range(tmp_path):
    a = load_study(_write(tmp_path, HEAT_INI, "a.ini"))
    b = load_study(
        _write(tmp_path, HEAT_INI.replace("levels = 2:3", "levels = 2,3"), "b.ini")
    )
    assert a.levels == b.levels


def test_load_study_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_study(str(tmp_path / "missing.ini"))
    with pytest.raises(ConfigError):
        load_study(_write(tmp_path, "[equation]\ntype = advdiff\n", "short.ini"))
    with pytest.raises(ConfigError):
        load_study(
            _write(tmp_path, HEAT_INI.replace("type = advdiff", "type = ode"), "t.ini")
        )
    with pytest.raises(ConfigError):
        load_study(
            _write(tmp_path, WAVE_INI.replace("g = minus_q", "g = plus_q"), "g.ini")
        )
    bad_lambda = HEAT_INI.replace("a11 = one", "a11 = sin2pix")
    with pytest.raises(ConfigError):
        load_study(_write(tmp_path, bad_lambda, "l.ini"))
    with pytest.raises(ConfigError):
        load_study(_write(tmp_path, "not an ini [", "junk.ini"))
    for t in ("nan", "inf", "-1"):
        bad_t = HEAT_INI.replace("t = 1.0", f"t = {t}")
        with pytest.raises(ConfigError, match="T must be finite and positive"):
            load_study(_write(tmp_path, bad_t, "T.ini"))
    for snap in ("-0.5", "1.5", "nan"):
        bad_snap = WAVE_INI.replace("snapshot_t = 0.5", f"snapshot_t = {snap}")
        with pytest.raises(ConfigError, match="outside"):
            load_study(_write(tmp_path, bad_snap, "s.ini"))
    for kernel, problem in (
        ("type = exponential\nscale = nan", "scale must be finite"),
        ("type = exponential\nscale = inf", "scale must be finite"),
        ("type = matern\nnu = nan", "nu must be finite"),
        ("type = matern\nnu = 0.5\nsigma = nan", "sigma must be finite"),
        ("type = matern\nnu = 200", "nu must not exceed"),
    ):
        bad_kernel = HEAT_INI.replace("type = white", kernel)
        with pytest.raises(ConfigError, match=problem):
            load_study(_write(tmp_path, bad_kernel, "k.ini"))


def test_load_mc_overrides(tmp_path):
    path = _write(tmp_path, HEAT_INI + "n_samples = 10\nseed = 3\n")
    mc = load_mc(path)
    assert (mc.n_samples, mc.seed) == (10, 3)
    mc2 = load_mc(path, n_samples=20, seed=7)
    assert (mc2.n_samples, mc2.seed) == (20, 7)
    bare = _write(tmp_path, HEAT_INI, "bare.ini")
    with pytest.raises(ConfigError):
        load_mc(bare)
    with pytest.raises(ConfigError):
        load_mc(bare, n_samples=10)


def test_cli_sweep_matches_library(tmp_path, capsys):
    path = _write(tmp_path, HEAT_INI)
    assert main(["sweep", "--config", path]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "level,h,dt,err_L1,err_L2,wall_time_s"
    assert lines[-2].startswith("# slope_L1=")
    assert lines[-1].startswith("# slope_L2=")
    report = run_sweep(load_study(path))
    got = [line.split(",")[:5] for line in lines[1:-2]]
    want = [
        [str(r.level), repr(r.h), repr(r.dt), repr(r.err_L1), repr(r.err_L2)]
        for r in report.rows
    ]
    assert got == want


def test_cli_advdiff_matrix(tmp_path, capsys):
    path = _write(tmp_path, HEAT_INI)
    assert main(["advdiff", "--config", path]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("# covariance coefficient matrix, n_dof=15")
    K = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    _, K_lib, _ = run_single(load_study(path))
    assert np.array_equal(K, K_lib)


def test_cli_snapshot(tmp_path, capsys):
    path = _write(tmp_path, WAVE_INI)
    assert main(["wave", "--config", path]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("# covariance snapshot at t=0.5")
    assert lines[1] == "x,y,cov"
    n_dof = 15
    assert len(lines) == 2 + n_dof * n_dof


def test_cli_equation_mismatch(tmp_path, capsys):
    path = _write(tmp_path, HEAT_INI)
    assert main(["wave", "--config", path]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_usage_errors(tmp_path, capsys):
    assert main([]) == 1
    assert main(["sweep"]) == 1
    assert main(["sweep", "--config", str(tmp_path / "nope.ini")]) == 1
    capsys.readouterr()
    # Gamma(200) once escaped main as an OverflowError traceback
    huge_nu = HEAT_INI.replace("type = white", "type = matern\nnu = 200")
    assert main(["sweep", "--config", _write(tmp_path, huge_nu)]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_rejects_a_one_cell_level(tmp_path, capsys):
    # levels = 0:2 starts at a single cell, which no mesh accepts; the
    # config is refused when it is read, not after the reference has run
    path = _write(tmp_path, HEAT_INI.replace("levels = 2:3", "levels = 0:2"))
    assert main(["sweep", "--config", path]) == 1
    assert "level (1, 1) needs an integer n_cells >= 2" in capsys.readouterr().err


def test_cli_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_cli_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    import spdecov.cli as cli_mod

    def boom(study):
        raise NumericalError("synthetic")

    monkeypatch.setattr(cli_mod, "run_sweep", boom)
    assert main(["sweep", "--config", _write(tmp_path, HEAT_INI)]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_cli_out_file(tmp_path, capsys):
    path = _write(tmp_path, HEAT_INI)
    out = tmp_path / "report.csv"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8").startswith("level,h,dt")
    bad = tmp_path / "no_dir" / "report.csv"
    assert main(["sweep", "--config", path, "--out", str(bad)]) == 1


def test_cli_oracle_heat(tmp_path, capsys):
    path = _write(tmp_path, HEAT_INI)
    assert main(["oracle", "--config", path, "--modes", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k,lambda,variance"
    vals = [float(line.split(",")[2]) for line in lines[1:]]
    assert_allclose(vals, heat_cov_closed_form(3, 1.0), rtol=1e-15)


def test_cli_oracle_wave_bridge(tmp_path, capsys):
    path = _write(tmp_path, WAVE_INI)
    assert main(["oracle", "--config", path, "--modes", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    lam = np.array([np.pi**2, 4 * np.pi**2])
    vals = [float(line.split(",")[2]) for line in lines[1:]]
    assert_allclose(vals, wave_cov_closed_form(2, 1.0, q_diag=1.0 / lam), rtol=1e-15)


def test_cli_oracle_rejects_general_kernel(tmp_path, capsys):
    ini = HEAT_INI.replace("type = white", "type = exponential")
    assert main(["oracle", "--config", _write(tmp_path, ini)]) == 1
    capsys.readouterr()


def test_cli_mc_deterministic(tmp_path, capsys):
    path = _write(tmp_path, HEAT_INI)
    args = ["mc", "--config", path, "--samples", "40", "--seed", "9"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    head, row = first.splitlines()
    assert head.split(",")[0] == "hs_distance"
    assert float(row.split(",")[0]) > 0.0


def test_cli_mc_two_samples(tmp_path, capsys):
    # the jackknife divides by n_samples - 2, so two samples are refused
    path = _write(tmp_path, HEAT_INI)
    assert main(["mc", "--config", path, "--samples", "2", "--seed", "9"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "n_samples must be at least 3" in err


def _reject_constant(name):
    raise ValueError(f"bare {name} in jsonl")


MC_LINES = "n_samples = 20\nseed = 5\n"
SWEEP_COLUMNS = ("level", "h", "dt", "err_L1", "err_L2", "wall_time_s")
MC_COLUMNS = (
    "hs_distance",
    "trace_distance",
    "sampling_error_hs",
    "sampling_error_trace",
    "consistency_margin",
    "n_samples",
    "seed",
)


@pytest.mark.parametrize("fmt", ["csv", "jsonl", "gnuplot"])
@pytest.mark.parametrize(
    "command, ini, columns, n_rows",
    [
        ("sweep", HEAT_INI, SWEEP_COLUMNS, 2),
        ("sweep", HEAT_INI + "norms = L1\n", SWEEP_COLUMNS, 2),
        ("advdiff", HEAT_INI, (), 15),
        ("wave", WAVE_INI, ("x", "y", "cov"), 15 * 15),
        ("wave", WAVE_INI.replace("snapshot_t = 0.5\n", ""), (), 15),
        ("mc", HEAT_INI + MC_LINES, MC_COLUMNS, 1),
        ("oracle", HEAT_INI, ("k", "lambda", "variance"), 3),
    ],
    ids=["sweep", "sweep-L1", "advdiff", "snapshot", "wave", "mc", "oracle"],
)
def test_cli_jsonl_formats(tmp_path, capsys, command, ini, columns, n_rows, fmt):
    argv = [command, "--config", _write(tmp_path, ini), "--format", fmt]
    if command == "oracle":
        argv += ["--modes", "3"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    # a matrix has no header; each of its n_rows rows holds n_rows cells
    width = len(columns) or n_rows
    if fmt == "jsonl":
        recs = [json.loads(line, parse_constant=_reject_constant) for line in lines]
        if command == "sweep":
            assert set(recs.pop()) == {"slope_L1", "slope_L2"}
        assert len(recs) == n_rows
        for i, rec in enumerate(recs):
            if columns:
                assert tuple(rec) == columns
            else:
                assert rec["row"] == i and len(rec["values"]) == width
        if command == "oracle":
            assert [rec["k"] for rec in recs] == [1, 2, 3]
        return
    sep = "," if fmt == "csv" else " "
    head = sep.join(columns)
    if columns:
        assert (head if fmt == "csv" else "# " + head) in lines
    data = [line for line in lines if line and not line.startswith("#")]
    if columns and fmt == "csv":
        assert data.pop(0) == head
    assert len(data) == n_rows
    for line in data:
        cells = line.split(sep)
        assert len(cells) == width
        list(map(float, cells))  # every cell parses as a number
    if command == "wave" and columns and fmt == "gnuplot":
        # splot's pm3d grid: one blank line after each block of 15 rows
        assert lines.count("") == 15 and lines[-1] == ""
