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
    with pytest.warns(UserWarning, match="nonpositive"):
        slope = fit_rate(hs, errs)
    assert slope == pytest.approx(1.5, abs=1e-12)


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


def test_emit_formats(tmp_path):
    rows = (
        LevelResult(level=1, h=0.5, dt=0.25, err_L1=0.1, err_L2=0.05, wall_time_s=0.01),
    )
    report = RateReport(rows=rows, slope_L1=1.0, slope_L2=1.5)
    csv = emit(report, fmt="csv")
    assert csv.splitlines()[0] == "level,h,dt,err_L1,err_L2,wall_time_s"
    assert "# slope_L1=1.0" in csv
    jl = emit(report, fmt="json-lines")
    lines = jl.strip().splitlines()
    assert len(lines) == 2
    gp = emit(report, fmt="gnuplot-data")
    assert gp.splitlines()[1].count(" ") == 5
    with pytest.raises(ConfigError):
        emit(report, fmt="yaml")
    out = tmp_path / "report.csv"
    emit(report, fmt="csv", path=str(out))
    assert out.read_text(encoding="utf-8") == csv


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
