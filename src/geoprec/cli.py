"""Command line interface.

Subcommands: precondition, polysys-precondition, condition, baseline, bench.
Exit codes: 0 success, 1 usage error, 2 input error, 3 numerical failure.
Reports are CSV with the fixed header iter,value,grad_norm,duality_bound,kF,kappa
and '#'-prefixed summary rows; identical argv give byte-identical files.
The kappa cell is filled on the first and last rows only, and left empty, as
are the kappa summary values, on estimator runs, which compute no kappa.
"""

import argparse
import math
import os
import sys

import numpy as np

from .bench import correlation_kF_kappa, run_gaussian_suite, run_matrix_suite
from .errors import ExpansionOverflowError, GeoprecError, SingularBlockError
from .group import GroupScheme, apply, block_triplets
from .matrix import (
    ComplexMatrix,
    as_dense,
    condition_euclidean,
    condition_frobenius,
    condition_skeel,
    frobenius_from_singular_values,
    jacobi_precondition,
    kappa_from_singular_values,
    singular_values,
    sinkhorn_equilibrate,
)
from .mmio import read_matrix, write_matrix
from .optimize import OptimizerConfig, minimize_condition
from .polysys import precondition_full, precondition_shuffle, precondition_sparse
from .stochastic import EstimatorConfig
from .sysio import read_polysys

USAGE_ERROR, INPUT_ERROR, NUMERICAL_ERROR = 1, 2, 3

_NUMERICAL = (ExpansionOverflowError, SingularBlockError, np.linalg.LinAlgError,
              FloatingPointError)


def _num(x):
    if x is None:
        return ""
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return repr(float(x))


def _kappa(x):
    """A kappa cell: empty where the run computed no kappa (NaN)."""
    return "" if math.isnan(x) else _num(x)


def _write_report(path, report):
    lines = ["iter,value,grad_norm,duality_bound,kF,kappa"]
    for rec in report.iterations:
        lines.append(
            f"{rec.iteration},{_num(rec.value)},{_num(rec.grad_norm)},"
            f"{_num(rec.duality_bound)},{_num(rec.kF)},{_kappa(rec.kappa)}"
        )
    lines.append(f"# termination={report.termination.value}")
    lines.append(f"# iterations={report.iteration_count}")
    lines.append(f"# initial_kF={_num(report.initial_kF)} final_kF={_num(report.final_kF)}")
    lines.append(
        f"# initial_kappa={_kappa(report.initial_kappa)} final_kappa={_kappa(report.final_kappa)}"
    )
    lines.append(f"# certificate={_num(report.certificate)}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _bounded(kind, ok, requirement):
    """An argparse type: ``kind(text)``, rejected unless ``ok`` holds for it."""
    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names the type in its invalid-value message
    return parse


_COUNT = _bounded(int, lambda v: v >= 0, "at least 0")
_POSITIVE_COUNT = _bounded(int, lambda v: v >= 1, "at least 1")
_POSITIVE = _bounded(float, lambda v: math.isfinite(v) and v > 0, "finite and positive")


def _emit_block_diagonal(path, stacks, runs, size):
    """Write the nonzero entries of one side's block stacks as sparse triplets."""
    write_matrix(path, ComplexMatrix.coordinate(size, size, *block_triplets(stacks, runs)))


def _cmd_precondition(args):
    # the arguments are checked before the input is read and the descent run
    k = 1 if args.scheme == "diag" else args.block_size
    if k is None:
        raise argparse.ArgumentTypeError("--block-size is required for the block scheme")
    paths = args.emit_preconditioner.split(",") if args.emit_preconditioner else None
    if paths and args.side == "both" and len(paths) < 2:
        raise argparse.ArgumentTypeError(
            "--emit-preconditioner needs X.mtx,Y.mtx for two-sided schemes"
        )
    a = read_matrix(args.input)
    m, n = a.shape
    scheme = GroupScheme.blocked(m, k, n, side=args.side)
    config = OptimizerConfig(scheme=scheme, target_eps=args.eps, max_iters=args.max_iters)
    estimator = EstimatorConfig() if args.stochastic else None
    report = minimize_condition(a, config, estimator=estimator)
    _write_report(args.out, report)
    if paths:
        g = report.final_element
        _emit_block_diagonal(paths[0], g.left, scheme.left_runs, m)
        if scheme.side == "both":
            _emit_block_diagonal(paths[1], g.right, scheme.right_runs, n)
    print(f"{report.termination.value} kF {_num(report.initial_kF)} -> {_num(report.final_kF)}")
    return 0


def _cmd_polysys(args):
    system, point = read_polysys(args.input)
    if point is None:
        print("input file carries no evaluation point", file=sys.stderr)
        return INPUT_ERROR
    if args.action == "full":
        scheme = GroupScheme.full(system.m, system.nvars, side="both")
    else:
        scheme = GroupScheme.full(system.m, side="left")
    config = OptimizerConfig(scheme=scheme, target_eps=args.eps, max_iters=args.max_iters)
    if args.action == "shuffle":
        _, report = precondition_shuffle(system, point, scheme, config)
    elif args.action == "full":
        _, report = precondition_full(system, point, scheme, config)
    else:
        _, _, report = precondition_sparse(system, point, config)
    _write_report(args.out, report)
    print(f"{report.termination.value} mu {_num(report.initial_kF)} -> {_num(report.final_kF)}")
    return 0


def _cmd_condition(args):
    a = read_matrix(args.input)
    fn = {
        "frobenius": condition_frobenius,
        "euclidean": condition_euclidean,
        "skeel": condition_skeel,
    }[args.kind]
    print(_num(fn(a)))
    return 0


def _cmd_baseline(args):
    a = read_matrix(args.input)
    dense = as_dense(a)
    if args.method == "jacobi-left":
        pre = jacobi_precondition(dense, "left")
    elif args.method == "jacobi-sym":
        pre = jacobi_precondition(dense, "two_sided")
    else:
        pre = apply(sinkhorn_equilibrate(dense).element, dense)
    sv = [singular_values(dense), singular_values(pre)]  # the scalings keep the shape
    kF = [_num(frobenius_from_singular_values(s, dense.shape)) for s in sv]
    kappa = [_num(kappa_from_singular_values(s, dense.shape)) for s in sv]
    print(f"method={args.method} kF {kF[0]} -> {kF[1]} kappa {kappa[0]} -> {kappa[1]}")
    return 0


_BENCH_COLUMNS = (
    "instance", "n", "kF_before", "kF_after_diag", "kF_after_block",
    "kappa_before", "kappa_after_diag", "kappa_after_block",
    "improvement_diag", "improvement_block", "iterations_diag", "iterations_block",
)


def _cmd_bench(args):
    if args.suite == "gaussian":
        if args.n < 2 * args.block_size:
            raise argparse.ArgumentTypeError("--n must be at least twice --block-size")
        results = run_gaussian_suite(args.n, args.samples, block_size=args.block_size,
                                     seed=args.seed)
    else:
        if not args.dir:
            print("--dir is required with --suite dir", file=sys.stderr)
            return USAGE_ERROR
        names = sorted(f for f in os.listdir(args.dir) if f.endswith(".mtx"))
        if not names:
            print(f"no .mtx files in {args.dir}", file=sys.stderr)
            return INPUT_ERROR
        mats = [(name, read_matrix(os.path.join(args.dir, name)).to_dense()) for name in names]
        results = run_matrix_suite(mats, block_size=args.block_size)
    lines = [",".join(_BENCH_COLUMNS)]
    for r in results:
        cells = (getattr(r, c) for c in _BENCH_COLUMNS)
        lines.append(",".join(_num(v) if isinstance(v, float) else str(v) for v in cells))
    mean_d = float(np.mean([r.improvement_diag for r in results]))
    mean_b = float(np.mean([r.improvement_block for r in results]))
    lines.append(f"# mean_improvement_diag={_num(mean_d)}")
    lines.append(f"# mean_improvement_block={_num(mean_b)}")
    if len(results) >= 3:
        lines.append(f"# correlation_kF_kappa={_num(correlation_kF_kappa(results))}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="geoprec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("precondition", help="optimize a structured preconditioner")
    p.add_argument("--input", required=True)
    p.add_argument("--scheme", choices=["diag", "block"], default="diag")
    p.add_argument("--block-size", type=_POSITIVE_COUNT, default=None)
    p.add_argument("--side", choices=["left", "both"], default="left")
    p.add_argument("--eps", type=_POSITIVE, default=1e-2)
    p.add_argument("--max-iters", type=_COUNT, default=10_000)
    p.add_argument("--stochastic", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--emit-preconditioner", default=None, metavar="X.mtx[,Y.mtx]")
    p.set_defaults(func=_cmd_precondition)

    p = sub.add_parser("polysys-precondition", help="precondition a polynomial system")
    p.add_argument("--input", required=True)
    p.add_argument("--action", choices=["shuffle", "full", "sparse"], required=True)
    p.add_argument("--eps", type=_POSITIVE, default=1e-2,
                   help="certificate target; no effect with --action sparse, which has no "
                        "certificate")
    p.add_argument("--max-iters", type=_COUNT, default=2000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_polysys)

    p = sub.add_parser("condition", help="print a condition number")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", choices=["frobenius", "euclidean", "skeel"], required=True)
    p.set_defaults(func=_cmd_condition)

    p = sub.add_parser("baseline", help="apply a heuristic baseline preconditioner")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=["jacobi-left", "jacobi-sym", "sinkhorn"], required=True)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("bench", help="run a seeded experiment suite")
    p.add_argument("--suite", choices=["gaussian", "dir"], default="gaussian")
    p.add_argument("--dir", default=None)
    p.add_argument("--n", type=_POSITIVE_COUNT, default=50)
    p.add_argument("--samples", type=_POSITIVE_COUNT, default=10)
    p.add_argument("--seed", type=_COUNT, default=42)
    p.add_argument("--block-size", type=_POSITIVE_COUNT, default=5)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bench)
    return parser


def cli_dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems and 0 on --help
        return 0 if exc.code == 0 else USAGE_ERROR
    try:
        return args.func(args)
    except argparse.ArgumentTypeError as exc:
        print(str(exc), file=sys.stderr)
        return USAGE_ERROR
    except _NUMERICAL as exc:
        print(str(exc), file=sys.stderr)
        return NUMERICAL_ERROR
    except (GeoprecError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return INPUT_ERROR


def main():
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
