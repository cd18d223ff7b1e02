from dataclasses import fields, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spdecov import (
    AdvDiffConfig,
    Coefficients,
    ConfigError,
    Exponential,
    LevelResult,
    Mesh1D,
    RateReport,
    StudyConfig,
    WaveConfig,
    WhiteNoise,
    advdiff_run,
    emit,
    extract_position_cov,
    fit_rate,
    levels_from_exponents,
    read_report,
    run_single,
    run_sweep,
    wave_run,
)
from spdecov.study import FORMATS, write_table


def test_fit_rate_exact_power():
    hs = [2.0**-j for j in range(1, 6)]
    errs = [h**1.5 for h in hs]
    assert fit_rate(hs, errs) == pytest.approx(1.5, abs=1e-12)


@pytest.mark.parametrize("n_errs", [0, 2, 4])
def test_fit_rate_refuses_unpaired_lengths(n_errs):
    # zip() would fit the shorter list's pairs and drop the rest
    hs = [0.5, 0.25, 0.125]
    with pytest.raises(ConfigError, match="one error per mesh width"):
        fit_rate(hs, [0.25, 0.0625, 0.015625, 0.00390625][:n_errs])


def test_fit_rate_tolerates_alternating_noise():
    hs = [2.0**-j for j in range(1, 7)]
    errs = [
        h**1.5 * (1.0 + 0.01 * (-1.0) ** j) for j, h in enumerate(hs)
    ]
    assert abs(fit_rate(hs, errs) - 1.5) <= 0.03


def test_fit_rate_excludes_zero_with_warning():
    hs = [0.5, 0.25, 0.125]
    errs = [0.5**1.5, 0.25**1.5, 0.0]
    with pytest.warns(UserWarning, match="nonpositive") as rec:
        slope = fit_rate(hs, errs)
    assert slope == pytest.approx(1.5, abs=1e-12)
    # the warning names the caller of fit_rate, not a line inside it
    assert rec[0].filename == __file__


def test_fit_rate_skips_a_nan_error():
    # a nan error is a real number: skipped without a warning, not refused
    hs = [0.5, 0.25, 0.125]
    errs = [0.5**1.5, np.float64("nan"), 0.125**1.5]
    assert fit_rate(hs, errs) == pytest.approx(1.5, abs=1e-12)


def test_fit_rate_degenerate():
    # fewer than two usable pairs leave the slope nan, as in a RateReport
    assert np.isnan(fit_rate([0.5], [0.1]))
    with pytest.warns(UserWarning, match="excluding nonpositive error 0.0"):
        assert np.isnan(fit_rate([0.5, 0.25], [0.1, 0.0]))


@pytest.mark.parametrize(
    "hs", [[0.0, -0.5, 0.25], [0.5, 0.25, np.nan], [np.inf, 0.5, 0.25]]
)
def test_fit_rate_rejects_bad_mesh_widths(hs):
    # a nonpositive h used to reach np.log and fail inside LAPACK
    with pytest.raises(ConfigError, match="mesh widths"):
        fit_rate(hs, [1.0, 0.5, 0.25])


def test_levels_from_exponents():
    assert levels_from_exponents([1, 2, 3], "equal") == (
        (2, 2),
        (4, 4),
        (8, 8),
    )
    assert levels_from_exponents([1, 2], "sqrt") == ((2, 4), (4, 16))
    assert levels_from_exponents([2], "sqrt", T=0.5) == ((4, 8),)
    with pytest.raises(ConfigError):
        levels_from_exponents([1], "cubic")
    with pytest.raises(ConfigError):
        levels_from_exponents([1], "equal", T=0.1)


def _heat(n_cells, n_steps, T=1.0):
    return AdvDiffConfig(
        mesh=Mesh1D(n_cells, "dirichlet"),
        coeffs=Coefficients.constant(a11=1.0),
        c0=0.0,
        kernel=WhiteNoise(),
        T=T,
        n_steps=n_steps,
    )


def _study(reference=levels_from_exponents([5], "sqrt")[0], T=1.0, **kw):
    base = dict(
        scheme=_heat(*reference, T=T),
        levels=levels_from_exponents([2, 3, 4], "sqrt"),
    )
    base.update(kw)
    return StudyConfig(**base)


def test_study_validation():
    # the checks of the reference run moved to its scheme config:
    # coefficients to test_advdiff.py::test_config_rejects_non_coefficients,
    # a finite positive T to test_advdiff.py::test_config_rejects_non_finite_T,
    # and the equation to test_study_refuses_k0_and_non_schemes below
    with pytest.raises(ConfigError):
        _study(levels=())
    with pytest.raises(ConfigError):
        _study(levels=((8, 64), (4, 16)))
    with pytest.raises(ConfigError):
        _study(reference=(8, 64))
    with pytest.raises(ConfigError, match="does not nest"):
        _study(levels=((3, 9),), reference=(8, 64))

    nan = float("nan")
    for snapshot_t in (-0.5, 1.5, nan):
        with pytest.raises(ConfigError, match="outside"):
            _study(snapshot_t=snapshot_t)
    # the reference dt is 1/1024, so a snapshot between its steps is
    # refused when the study is built, as run_single refuses it
    with pytest.raises(ConfigError, match="not a multiple of dt"):
        _study(snapshot_t=0.5 + 2.0**-12)
    assert _study(snapshot_t=0.5 + 2.0**-10).snapshot_t == 0.5 + 2.0**-10


def test_study_refuses_k0_and_non_schemes():
    assert [f.name for f in fields(StudyConfig)] == [
        "scheme", "levels", "snapshot_t",
    ]
    with pytest.raises(ConfigError, match="AdvDiffConfig or a WaveConfig"):
        _study(scheme="advdiff")
    n = _heat(32, 1024).n_state
    with pytest.raises(ConfigError, match="K0"):
        _study(scheme=replace(_heat(32, 1024), K0=np.eye(n)))


def test_study_rejects_levels_below_two_cells():
    # refused up front, before the reference covariance is computed
    for levels in (
        ((1, 1), (4, 16)),
        ((4, 0),),
        ((4.0, 16),),
        ((4, 16.5),),
    ):
        with pytest.raises(ConfigError, match="n_cells >= 2"):
            _study(levels=levels)
    # a bad reference is refused by its mesh or its scheme config
    for reference, problem in (((1, 1024), "n_cells >= 2"), ((32, 0), "n_steps >= 1")):
        with pytest.raises(ValueError, match=problem):
            _study(levels=((4, 16),), reference=reference)


def test_reference_equal_to_level_is_allowed():
    st = _study(levels=((4, 16), (32, 1024)), reference=(32, 1024))
    with pytest.warns(UserWarning, match="nonpositive"):
        report = run_sweep(st)
    assert report.rows[1].err_L1 == 0.0
    assert report.rows[1].err_L2 == 0.0


def test_run_single_snapshot():
    st = _study()
    mesh, K, t = run_single(st, pair=(4, 16), t_stop=0.5)
    assert t == 0.5
    assert K.shape == (3, 3)
    mesh0, K0, t0 = run_single(st, pair=(4, 16), t_stop=0.0)
    assert t0 == 0.0
    assert np.all(K0 == 0.0)
    with pytest.raises(ConfigError):
        run_single(st, pair=(4, 16), t_stop=0.03)
    with pytest.raises(ConfigError):
        run_single(st, pair=(4, 16), t_stop=2.0)


@pytest.mark.parametrize("t_stop", [float("nan"), float("inf"), -0.5, 1.5])
def test_run_single_refuses_a_stop_outside_the_horizon(t_stop):
    # unchecked, nan and inf fail in round() untyped, and -0.5 reaches
    # the scheme config as a negative T
    with pytest.raises(ConfigError, match="must be finite and lie in"):
        run_single(_study(), pair=(4, 16), t_stop=t_stop)


def test_snapshot_prefix_consistency():
    # stopping at t and running to horizon t must agree exactly
    st = _study()
    _, K_half, _ = run_single(st, pair=(4, 16), t_stop=0.5)
    st_half = _study(reference=(4, 8), T=0.5, levels=((4, 8),))
    _, K_direct, _ = run_single(st_half, pair=(4, 8))
    assert_allclose(K_half, K_direct, atol=1e-15)


def test_sweep_slopes_near_expected():
    # white-noise heat with h = sqrt(dt): trace rate 1, HS rate 3/2
    report = run_sweep(_study(levels=levels_from_exponents([2, 3, 4], "sqrt")))
    assert report.slope_L1 == pytest.approx(1.0, abs=0.35)
    assert report.slope_L2 == pytest.approx(1.5, abs=0.35)
    errs1 = [r.err_L1 for r in report.rows]
    errs2 = [r.err_L2 for r in report.rows]
    assert all(a > b for a, b in zip(errs1, errs1[1:]))
    assert all(a > b for a, b in zip(errs2, errs2[1:]))


def _wave_study():
    return StudyConfig(
        scheme=WaveConfig(mesh=Mesh1D(16), kernel=Exponential(2.0), n_steps=16),
        levels=levels_from_exponents([2, 3], "equal"),
    )


def test_wave_study_runs():
    report = run_sweep(_wave_study())
    assert len(report.rows) == 2
    assert report.rows[0].err_L1 > report.rows[1].err_L1 > 0.0


def test_run_single_is_the_reference_run():
    # the reference is the scheme config itself: no field is rebuilt
    heat = _study(reference=(16, 256), levels=((4, 16),))
    mesh, K, t = run_single(heat)
    assert mesh == heat.scheme.mesh and t == heat.scheme.T
    assert np.array_equal(K, advdiff_run(heat.scheme))
    wave = _wave_study()
    mesh, K, t = run_single(wave)
    assert mesh == wave.scheme.mesh and t == wave.scheme.T
    assert np.array_equal(K, extract_position_cov(wave_run(wave.scheme)))
    # a level replaces only the mesh and the step count
    _, K_level, _ = run_single(wave, (4, 4))
    level = replace(wave.scheme, mesh=Mesh1D(4), n_steps=4)
    assert np.array_equal(K_level, extract_position_cov(wave_run(level)))


def test_emit_csv_roundtrip():
    report = run_sweep(_study())
    text = emit(report, fmt="csv")
    back = read_report(text)
    assert back.rows == report.rows
    assert back.slope_L1 == report.slope_L1
    assert back.slope_L2 == report.slope_L2
    assert emit(back, fmt="csv") == text


def test_emit_formats():
    rows = (
        LevelResult(level=1, h=0.5, dt=0.25, err_L1=0.1, err_L2=0.05, wall_time_s=0.01),
    )
    report = RateReport(rows=rows, slope_L1=1.0, slope_L2=1.5)
    csv = emit(report, fmt="csv")
    assert csv == (
        "level,h,dt,err_L1,err_L2,wall_time_s\n"
        "1,0.5,0.25,0.1,0.05,0.01\n"
        "# slope_L1=1.0\n"
        "# slope_L2=1.5\n"
    )
    assert emit(report, fmt="jsonl") == (
        '{"level": 1, "h": 0.5, "dt": 0.25, "err_L1": 0.1, "err_L2": 0.05, '
        '"wall_time_s": 0.01}\n'
        '{"slope_L1": 1.0, "slope_L2": 1.5}\n'
    )
    assert emit(report, fmt="gnuplot") == (
        "# level h dt err_L1 err_L2 wall_time_s\n"
        "1 0.5 0.25 0.1 0.05 0.01\n"
        "# slope_L1=1.0\n"
        "# slope_L2=1.5\n"
    )
    with pytest.raises(ConfigError):
        emit(report, fmt="yaml")

    # the writer itself: title, footer, an int column and gnuplot blocks
    columns = ("i", "x", "y")
    rows = [(np.int64(k), 0.5 * k, 1.0 / 3.0) for k in (1, 2, 3)]
    args = dict(title="grid at t=0.5", footer={"n": 3, "slope": 1.5}, block=2)
    assert write_table("csv", columns, rows, **args) == (
        "# grid at t=0.5\n"
        "i,x,y\n"
        "1,0.5,0.3333333333333333\n"
        "2,1.0,0.3333333333333333\n"
        "3,1.5,0.3333333333333333\n"
        "# n=3\n"
        "# slope=1.5\n"
    )
    assert write_table("gnuplot", columns, rows, **args) == (
        "# grid at t=0.5\n"
        "# i x y\n"
        "1 0.5 0.3333333333333333\n"
        "2 1.0 0.3333333333333333\n"
        "\n"
        "3 1.5 0.3333333333333333\n"
        "# n=3\n"
        "# slope=1.5\n"
    )
    assert write_table("jsonl", columns, rows, **args) == (
        '{"i": 1, "x": 0.5, "y": 0.3333333333333333}\n'
        '{"i": 2, "x": 1.0, "y": 0.3333333333333333}\n'
        '{"i": 3, "x": 1.5, "y": 0.3333333333333333}\n'
        '{"n": 3, "slope": 1.5}\n'
    )
    assert FORMATS == ("csv", "jsonl", "gnuplot")
    with pytest.raises(ConfigError):
        write_table("yaml", columns, rows)

    # a header-less table (a covariance matrix)
    K = np.array([[2.0, -0.25], [-0.25, 1e-300]])
    title = "covariance coefficient matrix, n_dof=2, t=1.0"
    assert write_table("csv", (), K, title=title) == (
        "# covariance coefficient matrix, n_dof=2, t=1.0\n"
        "2.0,-0.25\n"
        "-0.25,1e-300\n"
    )
    assert write_table("gnuplot", (), K, title=title) == (
        "# covariance coefficient matrix, n_dof=2, t=1.0\n"
        "2.0 -0.25\n"
        "-0.25 1e-300\n"
    )
    assert write_table("jsonl", (), K, title=title) == (
        '{"row": 0, "values": [2.0, -0.25]}\n'
        '{"row": 1, "values": [-0.25, 1e-300]}\n'
    )


def test_write_table_non_finite():
    nan, inf = float("nan"), float("inf")
    rows = [(1, nan, inf)]
    footer = {"slope": nan}
    jl = write_table("jsonl", ("level", "a", "b"), rows, footer=footer)
    assert jl == '{"level": 1, "a": null, "b": null}\n{"slope": null}\n'
    assert write_table("jsonl", (), [[nan, -inf]]) == (
        '{"row": 0, "values": [null, null]}\n'
    )
    # csv and gnuplot keep nan, which read_report parses back
    assert write_table("csv", ("level", "a", "b"), rows, footer=footer) == (
        "level,a,b\n1,nan,inf\n# slope=nan\n"
    )
    report = RateReport(
        rows=(LevelResult(1, 0.5, 0.25, 0.1, nan, 0.01),), slope_L1=1.0
    )
    back = read_report(emit(report, fmt="csv"))
    assert np.isnan(back.rows[0].err_L2) and np.isnan(back.slope_L2)


def test_sweep_deterministic():
    def stripped(report):
        text = emit(report, fmt="csv")
        kept = []
        for line in text.splitlines():
            if line.startswith("#") or line == "level,h,dt,err_L1,err_L2,wall_time_s":
                kept.append(line)
            else:
                kept.append(",".join(line.split(",")[:5]))
        return "\n".join(kept)

    st = _study()
    assert stripped(run_sweep(st)) == stripped(run_sweep(st))
