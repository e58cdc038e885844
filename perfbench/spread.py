"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads dense polysys --seeds 1-10 [--out spread.json]

Runs are sequential, one process at a time, every workload for one seed
before the next seed, each for the ``run_seconds`` of BENCHMARK.json and
with tracing off.  For every workload and metric
it prints the median, the first and third quartiles (Python's
``statistics.quantiles(values, n=4)``), the spread (q3 - q1) / median, and
the metric's bound from BENCHMARK.json.  A run that exits
nonzero stops the script.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", type=_seeds, required=True, help="e.g. 1-10 or 1,4,9")
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    # Seeds in the outer loop, so that a slow spell of the machine spreads
    # over all workloads instead of falling on one.
    values = {w: {} for w in args.workloads}
    for seed in args.seeds:
        for workload in args.workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
                sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}")
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, m in line["metrics"].items():
                values[workload].setdefault(name, []).append(m["value"])
            print(f"# {workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in line["metrics"].items()), flush=True)

    report = {}
    for workload in args.workloads:
        report[workload] = {name: summarize(v) for name, v in values[workload].items()}
        for name, s in report[workload].items():
            bound = bounds[name]
            note = f"  bound {bound}  {'ok' if s['spread'] < bound / 3 else 'WIDE'}"
            print(f"{workload:17s} {name:36s} median {s['median']:.6g}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}{note}",
                  flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
