"""Set-up, timed passes, the traced solves, and the metrics they yield."""

import ctypes
import gc
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from typing import List, Optional

import numpy as np
import scipy

import geoprec as G
import tracing
import workloads as W
from speed import Speed

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "uncertified_frac": "ratio",
    "log_kF_gain": "nats",
    "passed_frac": "ratio",
    "peak_rss_mb": "MB",
}
# Printed for reading, not part of the result line: the complements of
# uncertified_frac and passed_frac, which can be exactly 0, the unscaled
# medians of the set-up and pass times, and the median probe time.
INFO_UNITS = {"certified_frac": "ratio", "failed_frac": "ratio", "setup_wall_s": "s",
              "solve_wall_s": "s", "probe_s": "s"}


@dataclass
class Row:
    """Outcome of one solve in one pass."""

    id: str
    kind: str
    start: float
    seconds: float
    iterations: Optional[int] = None
    termination: Optional[str] = None
    certificate: Optional[float] = None
    initial: Optional[float] = None
    final: Optional[float] = None
    errors: List[str] = field(default_factory=list)

    def same_result(self, other):
        keys = ("iterations", "termination", "certificate", "initial", "final")
        return all(getattr(self, k) == getattr(other, k) for k in keys)


# --- environment ------------------------------------------------------------


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def environment(workload, seed):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "geoprec": G.__version__,
    }


# --- set-up and passes --------------------------------------------------------


def setup_once(workload, seed, work_dir):
    """Generate, write and read back the inputs.

    Returns (start, seconds, inputs, read).  Garbage left by earlier solves
    is collected first, so that it is not collected inside the timed part.
    """
    d = Path(tempfile.mkdtemp(dir=work_dir))
    gc.collect()
    try:
        t0 = perf_counter()
        inputs = W.generate(workload, seed)
        W.write_inputs(inputs, d)
        read = W.read_inputs(inputs, d)
        return t0, perf_counter() - t0, inputs, read
    finally:
        shutil.rmtree(d)


def run_pass(solves, checked, tracer=None, between=None):
    """Run every solve once; ``between`` is called before each one, untimed."""
    rows = []
    for s in solves:
        if between is not None:
            between()
        t0 = perf_counter()
        try:
            if tracer is None:
                report, result = s.run()
            else:
                with tracer.span(s.id, "solve"):
                    report, result = s.run()
        except Exception as exc:  # a failing solve is counted, not fatal
            rows.append(Row(s.id, s.kind, t0, perf_counter() - t0, errors=[
                f"raised {type(exc).__name__}: {exc}",
                traceback.format_exc(limit=-3)]))
            continue
        seconds = perf_counter() - t0
        rows.append(Row(s.id, s.kind, t0, seconds, report.iteration_count,
                        report.termination.value, report.certificate,
                        report.initial_kF, report.final_kF,
                        W.check(s, report, result) if checked else []))
    return rows


def _mark_repeats(rows, reference, what):
    for row, ref in zip(rows, reference):
        if not row.errors and not ref.errors and not row.same_result(ref):
            row.errors.append(f"{what} result differs from the first untraced one")


def _outcome_metrics(rows):
    n = len(rows)
    ok = [r for r in rows if not r.errors]
    certified = sum(r.termination == "certified" for r in ok)
    gains = [math.log(r.initial / r.final) for r in ok]
    return {
        "uncertified_frac": (n - certified) / n,
        "certified_frac": certified / n,
        "log_kF_gain": statistics.fmean(gains) if gains else 0.0,
    }


def _peak_rss_mb():
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # kilobytes on Linux
    return kb / 1024.0


def timed_run(workload, seed, seconds, setup_repeats, out_dir):
    """End-to-end metrics: passes over every instance until ``seconds`` are used.

    Times are scaled to the reference speed (see speed.py); the unscaled
    medians, without the probes, are kept alongside.
    """
    env = environment(workload, seed)
    speed = Speed()
    setups = []  # (start, seconds)

    def setup():
        start, dt, inputs, read = setup_once(workload, seed, out_dir)
        setups.append((start, dt))
        return inputs, read

    with speed.probing():
        speed.probe()
        inputs, read = setup()
        setup_errors = W.round_trip_errors(inputs, read)
        solves = W.solves(workload, read)

        # The other set-ups are spread over the run, between solves, so that
        # they meet the same machine conditions as the solves.
        gap = seconds / setup_repeats

        def between():
            if len(setups) < setup_repeats and perf_counter() - setups[-1][0] >= gap:
                setup()

        passes = []
        start = perf_counter()
        while True:
            rows = run_pass(solves, checked=not passes, between=between)
            if passes:
                _mark_repeats(rows, passes[0], "repeated pass:")
            passes.append(rows)
            per_pass = statistics.median(sum(r.seconds for r in p) for p in passes)
            if perf_counter() - start + per_pass > seconds:
                break
        while len(setups) < setup_repeats:
            setup()
        speed.probe()

    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for r in p if r.errors) + len(setup_errors)
    metrics = {
        "setup_s": statistics.median(speed.scaled(s, d) for s, d in setups),
        "solve_s": statistics.median(
            sum(speed.scaled(r.start, r.seconds) for r in p) for p in passes),
        "setup_wall_s": statistics.median(speed.unprobed(s, d) for s, d in setups),
        "solve_wall_s": statistics.median(
            sum(speed.unprobed(r.start, r.seconds) for r in p) for p in passes),
        "probe_s": statistics.median(speed.seconds),
        **_outcome_metrics(passes[0]),
        "passed_frac": (attempted - failed) / attempted,
        "failed_frac": failed / attempted,
        "peak_rss_mb": _peak_rss_mb(),
    }
    result = {
        "env": env,
        "setup_errors": setup_errors,
        "setups": setups,
        "probes": list(zip(speed.starts, speed.ends, speed.seconds)),
        "passes": [[asdict(r) for r in p] for p in passes],
        "metrics": metrics,
        "units": {**END_TO_END_UNITS, **INFO_UNITS},
        "reported": list(END_TO_END_UNITS),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
    }
    _save(out_dir / f"result-{workload}-seed{seed}.json", result)
    return result


# --- traced solves --------------------------------------------------------------

PER_LAYER_UNITS = {
    "optimize.iterations": "count",
    "optimize.ms_per_iter": "ms",
    "optimize.accepted_ratio": "ratio",
    "optimize.self_s": "s",
    "polysys.loops.self_s": "s",
    "objective.evaluate.calls": "count",
    "objective.evaluate.busy_s": "s",
    "objective.evaluate.self_s": "s",
    "objective.evaluate_cross.busy_s": "s",
    **{f"group.{fn}.{k}": u for fn in ("exp_action", "repolarize", "apply", "project_to_lie")
       for k, u in (("calls", "count"), ("busy_s", "s"))},
    "stochastic.estimate_gradient.busy_s": "s",
    "stochastic.estimate_gradient.self_s": "s",
    "stochastic.conjugate_gradient.calls": "count",
    "stochastic.conjugate_gradient.busy_s": "s",
    "stochastic.cg_iterations": "count",
    "stochastic.cg_unconverged": "count",
    "stochastic.matvecs": "count",
    **{f"polysys.{fn}.busy_s": "s"
       for fn in ("change_variables", "shuffle", "gram_matrix", "torus_rescale")},
    "matrix.as_dense.busy_s": "s",
    "mmio.read_matrix.busy_s": "s",
    "sysio.read_polysys.busy_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer, rows, overhead_s):
    stats = tracing.layer_stats(tracer.spans)
    ok = [r for r in rows if not r.errors]
    iterations = sum(r.iterations for r in ok)
    loop_busy = sum(stats[n]["busy_s"] for n in tracing.DESCENT_LOOPS if n in stats)
    calls = Counter((solve, name) for _, name, _, _, _, solve in tracer.spans)
    candidates = sum(max(calls[r.id, W.STATE_FUNCTION[r.kind]] - 1, 0) for r in ok)

    out = {
        "optimize.iterations": iterations,
        "optimize.ms_per_iter": 1000.0 * loop_busy / iterations if iterations else 0.0,
        "optimize.accepted_ratio": iterations / candidates if candidates else 0.0,
        "optimize.self_s": sum(stats[n]["self_s"] for n in tracing.OPTIMIZE_LOOPS if n in stats),
        "polysys.loops.self_s": sum(
            stats[n]["self_s"] for n in tracing.POLYSYS_LOOPS if n in stats),
        "trace.overhead_s": overhead_s,
    }
    for name in PER_LAYER_UNITS:
        if name in out:
            continue
        span, _, key = name.rpartition(".")
        if key in ("calls", "busy_s", "self_s"):
            out[name] = stats[span][key] if span in stats else (0 if key == "calls" else 0.0)
        else:
            out[name] = tracer.counters.get(name, 0)
    return out


def traced_run(workload, seed, out_dir):
    """Per-layer metrics from traced solves, each paired with an untraced one.

    Every solve runs twice back to back, untraced and traced, in alternating
    order, with the speed probes running as in a timed run.
    ``trace.overhead_s`` sums the scaled differences of the pairs, so a
    drift in machine speed over the run does not enter it.  The tracer is
    installed only around the traced solves, and takes the probes' time out
    of its spans.
    """
    env = environment(workload, seed)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("setup", "setup"):
            _, _, inputs, read = setup_once(workload, seed, out_dir)
    finally:
        not_restored = tracer.restore()
    setup_errors = W.round_trip_errors(inputs, read)

    speed = Speed()
    speed.listener = tracer.probe_ran
    untraced, traced = [], []
    with speed.probing():
        speed.probe()
        for k, solve in enumerate(W.solves(workload, read)):
            for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
                if not with_trace:
                    untraced += run_pass([solve], checked=True)
                    continue
                tracer.install()
                try:
                    traced += run_pass([solve], checked=False, tracer=tracer)
                finally:
                    not_restored += tracer.restore()
        speed.probe()
    _mark_repeats(traced, untraced, "traced solve:")

    untraced_s, traced_s = (sum(speed.scaled(r.start, r.seconds) for r in p)
                            for p in (untraced, traced))
    metrics = layer_metrics(tracer, traced, traced_s - untraced_s)
    info = {**_outcome_metrics(untraced), "untraced_solve_s": untraced_s,
            "traced_solve_s": traced_s, "probe_s": statistics.median(speed.seconds),
            "spans": len(tracer.spans)}
    passes = [untraced, traced]
    attempted = sum(len(p) for p in passes)
    failed = (sum(1 for p in passes for r in p if r.errors) + len(setup_errors)
              + len(not_restored))
    result = {
        "env": env,
        "setup_errors": setup_errors + [f"not restored: {b}" for b in not_restored],
        "passes": [[asdict(r) for r in p] for p in passes],
        "metrics": {**metrics, **info},
        "units": {**PER_LAYER_UNITS, "certified_frac": "ratio", "uncertified_frac": "ratio",
                  "log_kF_gain": "nats", "untraced_solve_s": "s", "traced_solve_s": "s",
                  "probe_s": "s", "spans": "count"},
        "reported": list(PER_LAYER_UNITS),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
    }
    tracer.write(out_dir / f"trace-{workload}-seed{seed}.jsonl",
                 {k: result[k] for k in ("env", "metrics", "correct")})
    _save(out_dir / f"result-{workload}-seed{seed}-trace.json", result)
    return result


# --- output ---------------------------------------------------------------------


def _save(path, result):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, default=str)
        fh.write("\n")


def print_result(result):
    """Human-readable summary, then the one-line JSON result last."""
    out = sys.stdout
    out.write("# env " + json.dumps(result["env"]) + "\n")
    for err in result["setup_errors"]:
        out.write(f"# FAILED setup: {err}\n")
    for k, rows in enumerate(result["passes"]):
        out.write(f"# pass {k + 1}: {sum(r['seconds'] for r in rows):.3f} s "
                  f"over {len(rows)} solves\n")
        for r in rows:
            if r["errors"] or k == 0:
                out.write(f"#   {r['id']:28s} {r['seconds']:8.4f} s  it={r['iterations']}  "
                          f"{r['termination']}  kF {r['initial']} -> {r['final']}\n")
            for e in r["errors"]:
                text = e.rstrip().replace("\n", "\n#     ")
                out.write(f"#   FAILED {r['id']}: {text}\n")
    units = result["units"]
    for name, value in result["metrics"].items():
        out.write(f"{name:40s} {value!r:>24} {units[name]}\n")
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": result["metrics"][k], "unit": units[k]}
                    for k in result["reported"]},
    }
    out.write(json.dumps(line) + "\n")
    out.flush()
