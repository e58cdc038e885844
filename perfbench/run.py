"""geoprec benchmark: time to a (certified) preconditioner, one workload per run.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 30 --trace 0

Workloads: dense, sparse-estimator, polysys (see perfbench/README.md).  The
inputs are generated from --seed, written to files and read back through the
library's readers (the set-up, timed several times), then every instance of
the workload is preconditioned, pass after pass, until --seconds are used.
The first pass is checked for correctness and every later pass must repeat
its results exactly.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every solve
twice, untraced and traced, reports the per-layer metrics from spans
recorded around the library's layer functions, and checks that each pair
agrees.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when every
check passed, 1 when one failed, and 2 when the run could not start.
"""

import argparse
import os
import sys
from pathlib import Path

# One BLAS thread, set before numpy loads: on two cores the default thread
# count made the same dense pass vary by about 20%.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("dense", "sparse-estimator", "polysys")
SETUP_REPEATS = 11


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _import_library():
    """Import geoprec from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "geoprec" / "__init__.py").is_file():
        return None, f"no geoprec sources under {src}"
    sys.path.insert(0, str(src))
    import geoprec

    if Path(geoprec.__file__).resolve().parent != (src / "geoprec").resolve():
        return None, f"imported geoprec from {geoprec.__file__}, not from {src}"
    return geoprec, None


def main(argv=None):
    args = _parse(argv)
    geoprec, err = _import_library()
    if err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    import harness

    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        result = harness.traced_run(args.workload, args.seed, OUT_DIR)
    else:
        result = harness.timed_run(args.workload, args.seed, args.seconds, SETUP_REPEATS, OUT_DIR)
    harness.print_result(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
