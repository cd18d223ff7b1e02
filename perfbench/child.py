"""The measured process: one spde-cov command, optionally traced.

    python3 perfbench/child.py RECORD TRACE COMMAND_ID -- CLI-ARGS...

Imports spdecov.cli from the checkout's src/, runs its main() on
CLI-ARGS exactly as the spde-cov console script does, and writes a JSON
record to RECORD: the monotonic clock after the import and around the
command, the time of the calibration task just before and just after
the command, the exit code, the peak resident set size and, with
TRACE=1, the spans of every wrapped entry point. The thread environment
is the caller's business; it is fixed before this interpreter starts, so
numpy and OpenBLAS see it at import time.
"""

import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402
import spdecov.cli  # noqa: E402

T_IMPORTED = time.monotonic()

#: iterations of the calibration task (about 0.35 s on a 2-vCPU x86-64 host)
CALIBRATION_ROUNDS = 10000


def calibrate():
    """Seconds taken by a fixed task that runs no program code.

    It mixes interpreted Python, small numpy element-wise operations and
    heap allocations, as the commands between their BLAS calls do, and
    calls no BLAS routine, so the program's thread policy cannot change
    it. Timed in the same process right before and after the command, it
    tells how fast the shared host ran at that moment.
    """
    t0 = time.monotonic()
    rng = np.random.default_rng(12345)
    acc = 0.0
    for i in range(CALIBRATION_ROUNDS):
        a = rng.standard_normal((17, 17))
        b = (a + a.T) * 0.5
        acc += float(np.abs(b).sum()) + float(b[i % 17].max())
        d = {j: j * j for j in range(60)}
        acc += sum(d.values()) * 1e-9
        buf = np.empty(8000)
        buf[:] = i
        acc += float(buf[::97].sum()) * 1e-12
    return time.monotonic() - t0


def main(argv):
    record_path, trace, command_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: child.py RECORD TRACE COMMAND_ID -- CLI-ARGS...")
    tracer = None
    if trace == "1":
        from spans import Tracer

        tracer = Tracer(command=int(command_id)).install()
    cal_before = calibrate()
    t_started = time.monotonic()
    try:
        rc = spdecov.cli.main(cli_args)
    except Exception:
        traceback.print_exc()
        rc = -1
    t_done = time.monotonic()
    if tracer is not None:
        tracer.restore()
    cal_after = calibrate()
    record = {
        "t_imported": T_IMPORTED,
        "t_started": t_started,
        "t_done": t_done,
        "calibration_s": [cal_before, cal_after],
        "rc": rc,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer else [],
        "absent": tracer.absent if tracer else [],
    }
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
