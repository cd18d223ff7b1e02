import numpy as np
import pytest
from numpy.testing import assert_allclose

from spdecov import (
    Coefficients,
    ConfigError,
    DegenerateFitError,
    Exponential,
    LevelResult,
    RateReport,
    StudyConfig,
    WhiteNoise,
    emit,
    fit_rate,
    levels_from_exponents,
    read_report,
    run_single,
    run_sweep,
)
from spdecov.study import FORMATS, write_table


def test_fit_rate_exact_power():
    hs = [2.0**-j for j in range(1, 6)]
    errs = [h**1.5 for h in hs]
    assert fit_rate(hs, errs) == pytest.approx(1.5, abs=1e-12)


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


def test_fit_rate_degenerate():
    with pytest.raises(DegenerateFitError):
        fit_rate([0.5], [0.1])
    with pytest.warns(UserWarning):
        with pytest.raises(DegenerateFitError):
            fit_rate([0.5, 0.25], [0.1, 0.0])


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


def _study(**kw):
    base = dict(
        equation="advdiff",
        kernel=WhiteNoise(),
        levels=levels_from_exponents([2, 3, 4], "sqrt"),
        reference=levels_from_exponents([5], "sqrt")[0],
        coeffs=Coefficients.constant(a11=1.0),
        c0=0.0,
        bc="dirichlet",
    )
    base.update(kw)
    return StudyConfig(**base)


def test_study_validation():
    with pytest.raises(ConfigError):
        _study(equation="elasticity")
    with pytest.raises(ConfigError):
        _study(equation="advdiff", coeffs=None)
    with pytest.raises(ConfigError):
        _study(levels=())
    with pytest.raises(ConfigError):
        _study(norms=("L1", "L3"))
    with pytest.raises(ConfigError):
        _study(levels=((8, 64), (4, 16)))
    with pytest.raises(ConfigError):
        _study(reference=(8, 64))
    with pytest.raises(ConfigError, match="does not nest"):
        _study(levels=((3, 9),), reference=(8, 64))

    nan, inf = float("nan"), float("inf")
    for T in (nan, inf, 0.0, -1.0):
        with pytest.raises(ConfigError, match="T must be finite and positive"):
            _study(T=T)
    for snapshot_t in (-0.5, 1.5, nan):
        with pytest.raises(ConfigError, match="outside"):
            _study(snapshot_t=snapshot_t)


def test_study_rejects_levels_below_two_cells():
    # refused up front, before the reference covariance is computed
    for levels, reference in (
        (((1, 1), (4, 16)), (32, 1024)),
        (((4, 16),), (1, 1024)),
        (((4, 0),), (32, 1024)),
        (((4, 16),), (32, 0)),
        (((4.0, 16),), (32, 1024)),
        (((4, 16.5),), (32, 1024)),
    ):
        with pytest.raises(ConfigError, match="n_cells >= 2"):
            _study(levels=levels, reference=reference)


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


def test_snapshot_prefix_consistency():
    # stopping at t and running to horizon t must agree exactly
    st = _study()
    _, K_half, _ = run_single(st, pair=(4, 16), t_stop=0.5)
    st_half = _study(T=0.5, levels=((4, 8),), reference=(4, 8))
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


def test_norm_selection():
    report = run_sweep(_study(norms=("L2",)))
    assert np.isnan(report.slope_L1)
    assert np.isfinite(report.slope_L2)
    assert all(np.isnan(r.err_L1) for r in report.rows)


def test_wave_study_runs():
    st = StudyConfig(
        equation="wave",
        kernel=Exponential(2.0),
        levels=levels_from_exponents([2, 3], "equal"),
        reference=levels_from_exponents([4], "equal")[0],
        g_spec="minus_q",
    )
    report = run_sweep(st)
    assert len(report.rows) == 2
    assert report.rows[0].err_L1 > report.rows[1].err_L1 > 0.0


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
