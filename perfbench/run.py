"""Benchmark of the spde-cov command line: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 -m pytest -q perfbench        # the benchmark's self-tests

Run from the root of a source checkout; the program is imported from
src/ and nothing is installed. Workloads and their pinned results live in
workloads.py, the reason for each in BENCHMARK.json.

Load model: one process, closed loop, one client. Each spde-cov command
runs in a fresh interpreter (child.py) and the next starts only after it
has exited. Commands repeat for about --seconds.

--trace 0 runs the workload's study command (sweep, or mc) with no
wrappers installed and reports the end-to-end metrics:

    study_s      median wall time of the command, in reference seconds
    setup_s      median of interpreter start plus the spdecov.cli import,
                 in reference seconds
    peak_rss_mb  median peak resident set size of the command's process

study_s starts after the import, so setup_s is not counted twice. The
thread variables are unset for these processes, so they measure the
program's own default thread policy.

Reference seconds: a shared 2-vCPU host's speed drifts by a third and
more over minutes, which moves a median of raw wall times by more than
any useful bound. So every measured process also times a fixed calibration
task that runs no program code (child.calibrate) right before and right
after its command, and each wall time is scaled by
CALIBRATION_REF_S / (calibration time): study_s by the mean of the two
calibrations, setup_s by the one that follows the import. A reference
second is a wall second on a host where the calibration takes
CALIBRATION_REF_S. The raw wall-time medians and the calibration time
are in the detail line printed before the result.

--trace 1 runs the study command and the single-covariance command at
the reference level (advdiff or wave) four times per cycle: untraced and
traced, with default threads and with OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and SPDE_COV_THREADS set to 1. Per-layer metrics come
from the traced runs (see spans.py); names ending in .t1 are the
single-threaded baseline. cli.study_s and cli.single_s are the untraced
command times, trace.overhead_s is traced minus untraced command time.

Every output is checked against pinned values; a non-zero exit, an
exception or a mismatch counts as a failed command. Exact counts (calls,
steps, matrix sizes) must repeat between cycles and thread
settings. The last line of stdout is the JSON result.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

#: thread variables the benchmark fixes for every measured process
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "SPDE_COV_THREADS")

#: a run stops starting commands here and kills one still running
RUN_LIMIT_S = 170.0

#: thread settings of --trace 1: metric-name suffix -> single-threaded
SETTINGS = (("", False), (".t1", True))

#: reference time of child.calibrate, near its median (0.30-0.35 s) on the
#: 2-vCPU x86-64 host the bounds were set on; the unit of setup_s and study_s
CALIBRATION_REF_S = 0.35


@dataclass
class Launch:
    role: str
    problems: list
    setup_s: float = float("nan")
    command_s: float = float("nan")
    calibration_s: tuple = (float("nan"), float("nan"))
    rss_mb: float = float("nan")
    spans: list = field(default_factory=list)
    absent: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.problems

    @property
    def ran(self):
        """The command ran to its end, whatever its exit code or output."""
        return not math.isnan(self.command_s)

    @property
    def ref_setup_s(self):
        return self.setup_s * CALIBRATION_REF_S / self.calibration_s[0]

    @property
    def ref_command_s(self):
        return self.command_s * CALIBRATION_REF_S / statistics.fmean(self.calibration_s)


def child_env(single_threaded):
    """Environment of a measured process.

    The thread variables are unset, or all 1, whatever the caller's shell
    holds, and bytecode caching is on, as for an installed package, so
    that setup_s does not include compiling the program.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in THREAD_VARS:
        env.pop(var, None)
        if single_threaded:
            env[var] = "1"
    return env


def thread_vars(env):
    return {var: env.get(var) for var in THREAD_VARS}


class Runner:
    """Launches commands of one workload and checks their outputs."""

    def __init__(self, workload, seed, work, deadline):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.launches = []

    def launch(self, role, argv, env, trace):
        cid = len(self.launches)
        record_path = os.path.join(self.work, f"record-{cid}.json")
        out_path = os.path.join(self.work, f"out-{cid}.txt")
        cmd = [sys.executable, CHILD, record_path, str(int(trace)), str(cid), "--"]
        cmd += argv + ["--out", out_path]
        launch = Launch(role, [])
        self.launches.append(launch)
        t_launch = time.monotonic()
        try:
            proc = subprocess.run(
                cmd,
                env=env,
                cwd=ROOT,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=max(1.0, self.deadline - t_launch),
            )
        except subprocess.TimeoutExpired:
            launch.problems.append(f"{argv[0]}: timed out")
            return launch
        try:
            with open(record_path, encoding="utf-8") as fh:
                rec = json.load(fh)
        except (OSError, ValueError):
            tail = proc.stderr.strip().splitlines()[-1:]
            launch.problems.append(f"{argv[0]}: exit {proc.returncode} {tail}")
            return launch
        launch.setup_s = rec["t_imported"] - t_launch
        launch.command_s = rec["t_done"] - rec["t_started"]
        launch.calibration_s = tuple(rec["calibration_s"])
        launch.rss_mb = rec["maxrss_kb"] / 1024.0
        launch.spans = [tuple(s) for s in rec["spans"]]
        launch.absent = rec["absent"]
        if rec["rc"] != 0:
            tail = proc.stderr.strip().splitlines()[-1:]
            launch.problems.append(f"{argv[0]}: exit code {rec['rc']} {tail}")
            return launch
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
        problems = self.workload.check(role, text, self.seed)
        launch.problems += [f"{argv[0]}: {p}" for p in problems]
        os.remove(out_path)
        os.remove(record_path)
        return launch


def summary(values):
    """Median, quartiles and sample count of a list of numbers."""
    vals = sorted(values)
    q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
    return {"median": statistics.median(vals), "q1": q[0], "q3": q[2], "n": len(vals)}


def repeat(cycle, t_stop, deadline):
    """Results of cycle() run back to back until t_stop, at least once.

    A cycle starts only while its expected midpoint, from the mean cycle
    time so far, falls before t_stop, so a run lasts about as long as
    asked whatever the cycle length.
    """
    results, t_begin = [], time.monotonic()
    while True:
        results.append(cycle())
        now = time.monotonic()
        mean = (now - t_begin) / len(results)
        if now + mean / 2 >= t_stop or now >= deadline:
            return results


def end_to_end(runner, commands, t_stop):
    env = child_env(False)
    ((role, argv),) = [c for c in commands if c[0] == "study"]
    launches = repeat(
        lambda: runner.launch(role, argv, env, trace=False), t_stop, runner.deadline
    )
    ran = [l for l in launches if l.ran]
    samples = {
        "study_s": [l.ref_command_s for l in ran],
        "setup_s": [l.ref_setup_s for l in ran],
        "peak_rss_mb": [l.rss_mb for l in ran],
    }
    raw = {
        "study_wall_s": [l.command_s for l in ran],
        "setup_wall_s": [l.setup_s for l in ran],
        "calibration_s": [c for l in ran for c in l.calibration_s],
    }
    return samples, raw, {}, {"default": thread_vars(env)}


def per_layer(runner, commands, t_stop):
    from spans import layer_metrics

    envs = {suffix or "default": child_env(single) for suffix, single in SETTINGS}

    def cycle():
        runs = []
        for suffix, single in SETTINGS:
            env = envs[suffix or "default"]
            plain, traced = [], []
            for role, argv in commands:
                plain.append(runner.launch(role, argv, env, trace=False))
                traced.append(runner.launch(role, argv, env, trace=True))
            runs.append((suffix, single, plain, traced))
        return runs

    samples, counts = {}, {}
    for i, runs in enumerate(repeat(cycle, t_stop, runner.deadline), start=1):
        for suffix, single, plain, traced in runs:
            if not all(l.ran for l in plain + traced):
                continue
            workers = 1 if single else (os.cpu_count() or 1)
            spans = [s for l in traced for s in l.spans]
            metrics, cnt = layer_metrics(spans, workers)
            metrics["trace.overhead_s"] = sum(l.command_s for l in traced) - sum(
                l.command_s for l in plain
            )
            for l in plain:
                metrics[f"cli.{l.role}_s"] = l.command_s
            for name, value in metrics.items():
                samples.setdefault(name + suffix, []).append(value)
            counts.setdefault(json.dumps(cnt, sort_keys=True), []).append(
                f"cycle {i}{suffix}"
            )
    return samples, {}, counts, {name: thread_vars(env) for name, env in envs.items()}


def git_state():
    """(commit, dirty) of the checkout, or (None, None) outside a git work tree."""
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
        if top.returncode != 0:
            return None, None
        path, commit = top.stdout.split()
        if os.path.realpath(path) != os.path.realpath(ROOT):
            return None, None
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None, None
    return commit, bool(status.stdout.strip())


def environment(thread_envs):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        blas = None
    commit, dirty = git_state()
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": blas,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "git_dirty": dirty,
        "thread_env": thread_envs,
        "load_model": "one process, closed loop, one client",
    }


def main(argv=None):
    if not os.path.isfile(os.path.join(SRC, "spdecov", "cli.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    t_start = time.monotonic()
    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        ini = os.path.join(work, "study.ini")
        with open(ini, "w", encoding="utf-8") as fh:
            fh.write(workload.ini)
        # compile and cache every module before anything is timed
        warm = subprocess.run(
            [sys.executable, "-c", "import spdecov.cli, spans"],
            env=dict(child_env(False), PYTHONPATH=os.pathsep.join([SRC, HERE])),
            cwd=ROOT, stderr=subprocess.PIPE, text=True, timeout=120,
        )
        if warm.returncode != 0:
            print(f"perfbench: cannot import the program:\n{warm.stderr}", file=sys.stderr)
            return 2
        runner = Runner(workload, args.seed, work, t_start + RUN_LIMIT_S)
        measure = per_layer if args.trace else end_to_end
        t_measure = time.monotonic()
        samples, raw, counts, envs = measure(
            runner, workload.commands(ini, args.seed), t_measure + args.seconds
        )

    launches = runner.launches
    failed = sum(not l.ok for l in launches)
    problems = [p for l in launches for p in l.problems]
    if len(counts) > 1:
        problems.append(f"exact counts differ between runs: {sorted(counts.values())}")
    missing = sorted(name for name in units if not samples.get(name))
    extra = sorted(set(samples) - set(units))
    if missing or extra:
        print(f"perfbench: no samples for {missing}; unlisted {extra}", file=sys.stderr)
        for p in problems[:10]:
            print(f"perfbench: {p}", file=sys.stderr)
        return 1
    stats = {name: summary(samples[name]) for name in units}
    absent = sorted({a for l in launches for a in l.absent})
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(envs),
        "metrics": stats,
        "raw": {name: summary(values) for name, values in raw.items() if values},
        "absent_layers": absent,
        "exact_counts": json.loads(next(iter(counts))) if counts else None,
        "problems": problems[:20],
    }
    print(json.dumps(detail))
    for name, unit in units.items():
        s = stats[name]
        print(f"{args.workload:18} {name:36} {s['median']:.6g} {unit} "
              f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']}]")
    print(f"{args.workload:18} fail_ratio {failed}/{len(launches)} = "
          f"{failed / len(launches):.3g}")
    result = {
        "correct": not problems,
        "attempted": len(launches),
        "failed": failed,
        "metrics": {
            name: {"value": stats[name]["median"], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
