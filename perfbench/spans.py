"""In-memory span tracer for the layers of spdecov, and the span arithmetic.

The tracer wraps each layer's public entry point where its caller module
looks the name up (``spdecov.study.advdiff_run``,
``spdecov.wave.assemble_Q``, ...), so the program itself is unchanged.
Each call becomes one span: id, layer name, parent id, thread, command
id, start, end, and a few exact attributes (step count and matrix size
of a propagation run, bytes written by ``emit``). Spans stay in memory
and are handed out when the command ends.

A span opened on a thread with no open span of its own (a level run on
the sweep's thread pool) takes the innermost open span of the thread
that installed the tracer as its parent, which is the sweep span.
"""

import functools
import importlib
import itertools
import threading
import time

# (module where the caller looks the name up, attribute, layer name)
TARGETS = (
    ("spdecov.cli", "load_study", "config.load_study"),
    ("spdecov.config", "load_study", "config.load_study"),
    ("spdecov.cli", "run_sweep", "study.run_sweep"),
    ("spdecov.cli", "run_single", "study.run_single"),
    ("spdecov.study", "run_single", "study.run_single"),
    ("spdecov.cli", "emit", "study.emit"),
    ("spdecov.study", "advdiff_run", "advdiff.advdiff_run"),
    ("spdecov.montecarlo", "advdiff_run", "advdiff.advdiff_run"),
    ("spdecov.study", "wave_run", "wave.wave_run"),
    ("spdecov.montecarlo", "wave_run", "wave.wave_run"),
    ("spdecov.advdiff", "assemble_Q", "kernels.assemble_Q"),
    ("spdecov.wave", "assemble_Q", "kernels.assemble_Q"),
    ("spdecov.montecarlo", "assemble_Q", "kernels.assemble_Q"),
    ("spdecov.advdiff", "assemble_form", "fem.assemble_form"),
    ("spdecov.montecarlo", "assemble_form", "fem.assemble_form"),
    ("spdecov.study", "err_trace_norm", "errnorms.err_trace_norm"),
    ("spdecov.montecarlo", "err_trace_norm", "errnorms.err_trace_norm"),
    ("spdecov.study", "err_hs_norm", "errnorms.err_hs_norm"),
    ("spdecov.montecarlo", "err_hs_norm", "errnorms.err_hs_norm"),
    ("spdecov.linalg", "sym_eig", "linalg.sym_eig"),
    ("spdecov.errnorms", "sym_eig", "linalg.sym_eig"),
    ("spdecov.montecarlo", "sym_eig", "linalg.sym_eig"),
    ("spdecov.montecarlo", "mc_validate", "montecarlo.mc_validate"),
    ("spdecov.montecarlo", "empirical_cov", "montecarlo.empirical_cov"),
)

# Computed floating-point work of one time step, from the matrix size n
# (DoF) alone: a dense n x n product costs 2n^3, a pair of triangular
# solves with n right-hand sides 2n^3.
#   advdiff: M K M (two products) + two LU solves        = 8 n^3
#   wave:    T K T^T on the 2n x 2n block state (two products) = 4 (2n)^3
FLOPS_PER_STEP = {
    "advdiff.advdiff_run": lambda n: 8.0 * n**3,
    "wave.wave_run": lambda n: 4.0 * (2 * n) ** 3,
}


def _first(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _run_attrs(args, kwargs, out):
    cfg = _first(args, kwargs, 0, "config")
    return {"n": cfg.mesh.n_dof, "steps": cfg.n_steps}


def _single_attrs(args, kwargs, out):
    study = _first(args, kwargs, 0, "study")
    pair = _first(args, kwargs, 1, "pair")
    return {"ref": pair is None or tuple(pair) == tuple(study.reference)}


def _emit_attrs(args, kwargs, out):
    return {"bytes": len(out.encode("utf-8"))}


ATTRS = {
    "advdiff.advdiff_run": _run_attrs,
    "wave.wave_run": _run_attrs,
    "study.run_single": _single_attrs,
    "study.emit": _emit_attrs,
}


class Tracer:
    """Wraps the entry points in TARGETS and records one span per call.

    Use as a context manager, or call install() and restore(). Spans are
    tuples (id, name, parent, thread, command, start, end, attrs); ids
    are "command.n", unique across commands, and parent is None for a
    top-level span. ``absent`` lists the layers
    none of whose entry points exist.
    """

    def __init__(self, command=0, targets=TARGETS):
        self.command = command
        self.targets = targets
        self.spans = []
        self.absent = []
        self._saved = []
        self._stacks = {}
        self._ids = itertools.count(1)
        self._home = None

    def install(self):
        self._home = threading.get_ident()
        found = set()
        for modname, attr, layer in self.targets:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, layer))
            found.add(layer)
        self.absent = sorted({t[2] for t in self.targets} - found)
        return self

    def restore(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    def _parent(self, tid, stack):
        if stack:
            return stack[-1]
        if tid != self._home:
            home = self._stacks.get(self._home, [])[-1:]
            return home[0] if home else None
        return None

    def _wrap(self, fn, layer):
        attrs_of = ATTRS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = self._stacks.setdefault(tid, [])
            parent = self._parent(tid, stack)
            sid = f"{self.command}.{next(self._ids)}"
            stack.append(sid)
            attrs = {}
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                attrs = {"raised": True}
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append(
                    (sid, layer, parent, tid, self.command, t0, t1, attrs)
                )
            if attrs_of is not None:
                try:
                    attrs.update(attrs_of(args, kwargs, out))
                except (AttributeError, KeyError, TypeError, IndexError):
                    attrs["attrs_missing"] = True
            return out

        return traced


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans):
    """Span id -> duration minus the union of its children's intervals.

    Children may run on other threads and overlap each other; each is
    clipped to its parent's interval.
    """
    by_id = {s[0]: s for s in spans}
    kids = {}
    for s in spans:
        if s[2] in by_id:
            kids.setdefault(s[2], []).append(s)
    out = {}
    for sid, s in by_id.items():
        t0, t1 = s[5], s[6]
        cover = [(max(c[5], t0), min(c[6], t1)) for c in kids.get(sid, [])]
        out[sid] = (t1 - t0) - union_length([(a, b) for a, b in cover if b > a])
    return out


def _sweep_metrics(spans, selfs, workers):
    """Phase split of every run_sweep span.

    The reference is the run_single child flagged ``ref``. Every other
    child (level runs and their error norms) belongs to the level phase:
    levels_wall_s spans from the first one's start to the last one's end,
    level_time_sum_s adds their durations, and pool_efficiency is
    level_time_sum_s / (levels_wall_s * min(workers, number of levels)).
    """
    ref_s = wall = busy = self_s = 0.0
    for sweep in (s for s in spans if s[1] == "study.run_sweep"):
        self_s += selfs[sweep[0]]
        kids = [s for s in spans if s[2] == sweep[0]]
        levels = []
        for k in kids:
            if k[1] == "study.run_single" and k[7].get("ref"):
                ref_s += k[6] - k[5]
            else:
                levels.append(k)
        if levels:
            wall += max(k[6] for k in levels) - min(k[5] for k in levels)
            busy += sum(k[6] - k[5] for k in levels)
            n_levels = sum(k[1] == "study.run_single" for k in levels)
            workers = min(workers, max(n_levels, 1))
    return {
        "study.reference_s": ref_s,
        "study.levels_wall_s": wall,
        "study.level_time_sum_s": busy,
        "study.pool_efficiency": busy / (wall * workers) if wall > 0 else 0.0,
        "study.run_sweep.self_s": self_s,
    }


def layer_metrics(spans, workers):
    """Per-layer metrics of one set of commands, and their exact counts.

    Returns (metrics, counts). counts holds only values that must repeat
    exactly between runs: call and step counts and the (n, steps)
    signature of every propagation run.
    """
    selfs = self_times(spans)

    def of(layer):
        return [s for s in spans if s[1] == layer]

    def total(layer):
        return sum(s[6] - s[5] for s in of(layer))

    m, counts = {}, {}
    for layer, flops_of in FLOPS_PER_STEP.items():
        runs = of(layer)
        self_s = sum(selfs[s[0]] for s in runs)
        steps = sum(s[7].get("steps", 0) for s in runs)
        flops = sum(s[7].get("steps", 0) * flops_of(s[7].get("n", 0)) for s in runs)
        m[f"{layer}.self_s"] = self_s
        m[f"{layer}.steps"] = steps
        m[f"{layer}.gflops"] = flops / self_s / 1e9 if self_s > 0 else 0.0
        counts[f"{layer}.runs"] = sorted(
            (s[7].get("n", 0), s[7].get("steps", 0)) for s in runs
        )
    for layer in (
        "kernels.assemble_Q",
        "fem.assemble_form",
        "errnorms.err_trace_norm",
        "linalg.sym_eig",
    ):
        m[f"{layer}.s"] = total(layer)
        m[f"{layer}.calls"] = len(of(layer))
    m["errnorms.err_hs_norm.s"] = total("errnorms.err_hs_norm")
    m["config.load_study.s"] = total("config.load_study")
    m["montecarlo.mc_validate.self_s"] = sum(
        selfs[s[0]] for s in of("montecarlo.mc_validate")
    )
    m["montecarlo.empirical_cov.s"] = total("montecarlo.empirical_cov")
    m["study.emit.s"] = total("study.emit")
    m["study.emit.bytes"] = sum(s[7].get("bytes", 0) for s in of("study.emit"))
    m.update(_sweep_metrics(spans, selfs, workers))
    # study.emit.bytes is not among them: the CSV carries each level's
    # wall time, whose printed length varies from run to run
    for name, value in m.items():
        if name.endswith((".steps", ".calls")):
            counts[name] = value
    return m, counts
