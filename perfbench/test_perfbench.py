"""Self-tests of the benchmark: output checks, span arithmetic, tracer restore.

    python3 -m pytest -q perfbench
"""

import importlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spdecov  # noqa: E402
from spdecov.cli import main as cli_main  # noqa: E402
from spdecov.study import LevelResult, RateReport, emit  # noqa: E402

from spans import TARGETS, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import MC_PINNED_SEED, WORKLOADS, check_mc, check_sweep  # noqa: E402


def _pinned_report(pinned, bump=None):
    """CSV sweep report carrying the pinned values, one optionally scaled."""
    rows = []
    for i, (e1, e2) in enumerate(zip(pinned["err_L1"], pinned["err_L2"])):
        if bump == i:
            e1 *= 1.0 + 1e-4
        h = 2.0 ** -(i + 1)
        rows.append(LevelResult(i + 1, h, h * h, e1, e2, 0.5))
    return emit(
        RateReport(tuple(rows), pinned["slope_L1"], pinned["slope_L2"]), fmt="csv"
    )


def test_sweep_check_rejects_one_perturbed_error():
    for name in ("heat-white-sqrt", "wave-matern-equal", "wave-bridge-sqrt"):
        pinned = WORKLOADS[name].sweep
        assert check_sweep(_pinned_report(pinned), pinned) == []
        for level in range(len(pinned["err_L1"])):
            problems = check_sweep(_pinned_report(pinned, bump=level), pinned)
            assert len(problems) == 1 and f"level {level + 1}" in problems[0]


def _mc_csv(fields):
    return ",".join(fields) + "\n" + ",".join(repr(v) for v in fields.values()) + "\n"


def test_mc_check_rejects_a_wrong_field():
    pinned = WORKLOADS["mc-heat"].mc
    assert check_mc(_mc_csv(pinned), pinned, MC_PINNED_SEED) == []
    for key, value in pinned.items():
        wrong = dict(pinned)
        wrong[key] = value + 1 if isinstance(value, int) else value * (1 + 1e-4)
        assert check_mc(_mc_csv(wrong), pinned, MC_PINNED_SEED), key
    # another seed: the distance bound decides
    other = dict(pinned, seed=7)
    assert check_mc(_mc_csv(other), pinned, 7) == []
    far = dict(other, hs_distance=3.5 * pinned["sampling_error_hs"])
    assert check_mc(_mc_csv(far), pinned, 7)


def _span(sid, parent, tid, t0, t1, name="x"):
    return (sid, name, parent, tid, 0, t0, t1, {})


def test_self_time_with_children_overlapping_on_two_threads():
    spans = [
        _span(1, None, 1, 0.0, 10.0),
        _span(2, 1, 2, 1.0, 4.0),  # pool thread A
        _span(3, 1, 3, 2.0, 6.0),  # pool thread B, overlaps A
        _span(4, 3, 3, 3.0, 5.0),  # child of B
        _span(5, 1, 1, 8.0, 9.0),  # back on the home thread
        _span(6, 1, 2, 9.5, 11.0),  # runs past its parent: clipped
    ]
    selfs = self_times(spans)
    assert selfs[1] == 10.0 - (5.0 + 1.0 + 0.5)
    assert selfs[3] == 4.0 - 2.0
    assert selfs[2] == 3.0 and selfs[4] == 2.0


def _originals():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in TARGETS}


def test_traced_sweep_restores_every_entry_point(tmp_path):
    before = _originals()
    ini = tmp_path / "tiny.ini"
    ini.write_text(
        "[equation]\ntype = advdiff\nbc = dirichlet\na11 = one\n"
        "[kernel]\ntype = white\n"
        "[study]\ncoupling = sqrt\nlevels = 1:3\nreference = 4\n",
        encoding="utf-8",
    )
    out = tmp_path / "out.csv"
    with Tracer(command=3) as tracer:
        assert all(before[(m, a)] is not getattr(sys.modules[m], a) for m, a, _ in TARGETS)
        assert cli_main(["sweep", "--config", str(ini), "--out", str(out)]) == 0
    assert _originals() == before
    assert tracer.absent == []
    assert all(s[0].startswith("3.") for s in tracer.spans)

    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s[1], []).append(s)
    (sweep,) = by_name["study.run_sweep"]
    singles = by_name["study.run_single"]
    assert len(singles) == 4 and all(s[2] == sweep[0] for s in singles)
    assert sum(s[7]["ref"] for s in singles) == 1

    metrics, counts = layer_metrics(tracer.spans, workers=2)
    assert metrics["advdiff.advdiff_run.steps"] == 4 + 16 + 64 + 256
    assert metrics["errnorms.err_trace_norm.calls"] == 3
    assert metrics["study.emit.bytes"] == len(out.read_text(encoding="utf-8"))
    assert counts["advdiff.advdiff_run.runs"] == [(1, 4), (3, 16), (7, 64), (15, 256)]
    assert 0.0 < metrics["study.pool_efficiency"] <= 1.0 + 1e-9


def test_missing_entry_point_is_absent_not_fatal():
    before = _originals()
    targets = TARGETS + (("spdecov.study", "no_such_entry", "study.gone"),)
    with Tracer(targets=targets) as tracer:
        pass
    assert tracer.absent == ["study.gone"]
    assert _originals() == before
    assert not hasattr(spdecov.study, "no_such_entry")
