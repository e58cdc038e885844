"""Seeded inputs, solves and correctness checks of the three workloads.

Every input is generated from the run's seed, written as a Matrix Market or
JSON polynomial-system file, and read back through ``geoprec.read_matrix`` /
``geoprec.read_polysys``, which is the path the command line takes.  The
solves call the public ``geoprec`` API on what was read back.
"""

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List

import numpy as np
import scipy.sparse as sp
from scipy.special import ndtri

import geoprec as G

EPS = 1e-2  # target certificate of every matrix solve
REL_TOL = 1e-9  # recomputed condition numbers agree to this relative error

# dense: sizes fixed by the workload definition; instance counts and caps
# chosen so that one pass over all instances takes about 7 s on one core.
DENSE_A_COUNT, DENSE_A_N, DENSE_A_CAP = 2, 50, 200
DENSE_B_COUNT, DENSE_B_N, DENSE_B_CAP = 2, 48, 3000
DENSE_C_N, DENSE_C_CAP = 200, 50

# sparse-estimator: demo 03's generator at m = 1000 (6k nonzeros).
SPARSE_COUNT, SPARSE_M, SPARSE_ROW_NNZ, SPARSE_ITERS = 3, 1000, 5, 2
ESTIMATOR = G.EstimatorConfig(num_probes=20, cg_tol=1e-6)

# polysys: random square systems of degree 3, half the monomials kept.
POLY_COUNT = 16  # systems per variable count
POLY_VARS = (3, 4)
POLY_FULL_CAP, POLY_SPARSE_CAP, POLY_SHUFFLE_CAP = 20, 50, 2000

WORKED_EXAMPLE = [
    {(2, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0},  # x^2 + x + y
    {(0, 2): 1.0, (1, 0): 1.0, (0, 1): -1.0},  # y^2 + x - y
]
DEMO05_SYSTEM = [
    {(3, 0): 0.02, (1, 0): 1.0, (0, 1): -2.0},
    {(0, 2): 5.0, (1, 1): 0.3, (0, 0): -1.0},
]
DEMO05_POINT = [10.0, 0.1]


def _rng(seed, *key):
    return np.random.default_rng([int(seed), *key])


def _stratified_normal(rng, n, sd):
    """n draws of N(0, sd^2) as its n quantiles in a random order.

    Every seed then has the same spread of row scales; seeds differ in
    where the scales sit and in every other entry, which keeps solve time
    and gain comparable from seed to seed.
    """
    return sd * ndtri((rng.permutation(n) + 0.5) / n)


# --- inputs ---------------------------------------------------------------


@dataclass
class Input:
    name: str
    data: object  # ComplexMatrix, or (PolynomialSystem, point)

    @property
    def filename(self):
        return self.name + (".json" if isinstance(self.data, tuple) else ".mtx")


def generate(workload, seed) -> List[Input]:
    return {"dense": _dense_inputs, "sparse-estimator": _sparse_inputs,
            "polysys": _polysys_inputs}[workload](seed)


def _dense_inputs(seed):
    out = []
    for i in range(DENSE_A_COUNT):  # criterion-11 family: real Gaussians
        a = _rng(seed, 1, i).standard_normal((DENSE_A_N, DENSE_A_N))
        out.append(Input(f"a{i}", G.ComplexMatrix.dense(a)))
    n = DENSE_B_N
    for i in range(DENSE_B_COUNT):  # row-scaled near-identity, complex
        rng = _rng(seed, 2, i)
        g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
        scales = np.exp(_stratified_normal(rng, n, 2.0))
        out.append(Input(f"b{i}", G.ComplexMatrix.dense(
            scales[:, None] * (np.eye(n) + 0.3 * g / math.sqrt(n)))))
    c = _rng(seed, 3).standard_normal((DENSE_C_N, DENSE_C_N))
    out.append(Input("c0", G.ComplexMatrix.dense(c)))
    return out


def _sparse_inputs(seed):
    """Demo 03's matrices at m = 1000, with exactly 5 off-diagonal entries per row.

    Demo 03 draws U(0, 1) entries at density 5/m; fixing the count per row
    stops a few sparse, strongly scaled rows from setting the gain and the
    CG iteration count of a whole instance.
    """
    out = []
    m, k = SPARSE_M, SPARSE_ROW_NNZ
    for i in range(SPARSE_COUNT):
        rng = _rng(seed, 4, i)
        rows = np.repeat(np.arange(m), k)
        cols = np.concatenate([rng.choice(m - 1, k, replace=False) for _ in range(m)])
        cols += cols >= rows  # skip the diagonal
        a = sp.csr_matrix((rng.uniform(size=m * k), (rows, cols)), shape=(m, m))
        a = a + sp.diags(2.0 + rng.uniform(size=m))  # diagonal 2 + U
        a = sp.diags(np.exp(_stratified_normal(rng, m, 1.0))) @ a
        r, c, v = sp.find(a)
        out.append(Input(f"s{i}", G.ComplexMatrix.sparse(m, m, zip(r, c, v))))
    return out


def _random_system(rng, n):
    """n cubics in n variables, each with half of the monomials of every degree.

    Keeping exactly half per degree fixes the size of every polynomial, and
    with it the cost of each change of variables, from seed to seed.
    """
    polys = []
    for _ in range(n):
        terms = {}
        for d in range(4):
            monos = [a for a in itertools.product(range(d + 1), repeat=n) if sum(a) == d]
            for k in rng.permutation(len(monos))[: (len(monos) + 1) // 2]:
                terms[monos[k]] = complex(rng.standard_normal(), rng.standard_normal())
        polys.append(terms)
    point = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return G.PolynomialSystem.from_polys(n, polys, degrees=[3] * n), point


def _polysys_inputs(seed):
    out = [
        Input("worked", (G.PolynomialSystem.from_polys(2, WORKED_EXAMPLE), np.zeros(2))),
        Input("demo05", (G.PolynomialSystem.from_polys(2, DEMO05_SYSTEM),
                         np.array(DEMO05_POINT, dtype=complex))),
    ]
    for n in POLY_VARS:
        for i in range(POLY_COUNT):
            out.append(Input(f"r{n}_{i}", _random_system(_rng(seed, 5, n, i), n)))
    return out


def write_inputs(inputs, directory: Path):
    for inp in inputs:
        path = directory / inp.filename
        if isinstance(inp.data, tuple):
            G.write_polysys(path, *inp.data)
        else:
            G.write_matrix(path, inp.data)


def read_inputs(inputs, directory: Path):
    out = {}
    for inp in inputs:
        path = directory / inp.filename
        out[inp.name] = G.read_polysys(path) if isinstance(inp.data, tuple) else G.read_matrix(path)
    return out


def round_trip_errors(inputs, read):
    """Inputs whose read-back copy differs from what was generated."""
    bad = []
    for inp in inputs:
        got = read[inp.name]
        if isinstance(inp.data, tuple):
            (fs, pt), (gs, gp) = inp.data, got
            same = (fs.nvars, fs.degrees, fs.polynomials) == (gs.nvars, gs.degrees, gs.polynomials) \
                and np.array_equal(pt, gp)
        else:
            a = inp.data
            same = got.shape == a.shape and got.is_sparse == a.is_sparse and all(
                np.array_equal(x, y) for x, y in zip(got.triplets(), a.triplets()))
        if not same:
            bad.append(f"{inp.name}: read-back differs from the generated input")
    return bad


# --- solves ---------------------------------------------------------------


@dataclass
class Solve:
    """One call into the library and the checks on its result.

    ``kind`` is matrix (exact descent), estimator (matrix-free step
    directions), shuffle, full or sparse (polynomial-system actions).
    ``run`` returns ``(report, result)``; each of ``checks`` takes the same
    pair and returns a list of failed checks.
    """

    id: str
    kind: str
    run: Callable
    checks: List[Callable] = field(default_factory=list)
    eps: float = EPS


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _common_checks(solve, report):
    errs = []
    if report.termination == G.Termination.CERTIFIED and not report.certificate <= solve.eps:
        errs.append(f"certified with certificate {report.certificate} > eps {solve.eps}")
    if solve.kind != "estimator":
        values = [r.value for r in report.iterations]
        for k in range(1, len(values)):
            if values[k] > values[k - 1] + 1e-14 * abs(values[k - 1]):
                errs.append(f"objective increased at iteration {k}: "
                            f"{values[k - 1]!r} -> {values[k]!r}")
                break
    return errs


def check(solve, report, result):
    errs = _common_checks(solve, report)
    for fn in solve.checks:
        errs.extend(fn(report, result))
    return errs


def _kF_recomputed(A):
    def fn(report, result):
        kF = G.condition_frobenius(G.apply(report.final_element, A))
        if _rel(kF, report.final_kF) > REL_TOL:
            return [f"final kF {report.final_kF!r} but recomputed {kF!r}"]
        return []
    return fn


def _matrix_solve(sid, A, scheme, cap, estimator=None):
    cfg = G.OptimizerConfig(scheme=scheme, target_eps=EPS, max_iters=cap)

    def run():
        rep = G.minimize_condition(A, cfg, estimator=estimator)
        return rep, rep

    return Solve(sid, "matrix" if estimator is None else "estimator", run, [_kF_recomputed(A)])


def dense_solves(read):
    out = []
    n = DENSE_A_N
    for i in range(DENSE_A_COUNT):
        A = read[f"a{i}"]
        out.append(_matrix_solve(f"a{i}/both-diag", A, G.GroupScheme.diagonal(n, n, side="both"),
                                 DENSE_A_CAP))
        out.append(_matrix_solve(f"a{i}/both-block5", A,
                                 G.GroupScheme.blocked(n, 5, n, side="both"), DENSE_A_CAP))
    n = DENSE_B_N
    for i in range(DENSE_B_COUNT):
        A = read[f"b{i}"]
        out.append(_matrix_solve(f"b{i}/left-diag", A, G.GroupScheme.diagonal(n, side="left"),
                                 DENSE_B_CAP))
        out.append(_matrix_solve(f"b{i}/left-block4", A, G.GroupScheme.blocked(n, 4, side="left"),
                                 DENSE_B_CAP))
    out.append(_matrix_solve("c0/left-diag", read["c0"],
                             G.GroupScheme.diagonal(DENSE_C_N, side="left"), DENSE_C_CAP))
    return out


def sparse_solves(read):
    # The input stays the ComplexMatrix that read_matrix returns.  A
    # scipy.sparse matrix would stop in matrix.as_dense with a TypeError.
    return [
        _matrix_solve(f"s{i}/left-diag-estimator", read[f"s{i}"],
                      G.GroupScheme.diagonal(SPARSE_M, side="left"), SPARSE_ITERS,
                      estimator=ESTIMATOR)
        for i in range(SPARSE_COUNT)
    ]


def _shuffle_solve(sid, f, xi, eps, cap, extra_checks=()):
    sch = G.GroupScheme.full(f.m, side="left")
    cfg = G.OptimizerConfig(scheme=sch, target_eps=eps, max_iters=cap)

    def run():
        X, rep = G.precondition_shuffle(f, xi, sch, cfg)
        return rep, X

    def mu_recomputed(report, X):
        mu = G.local_condition(G.shuffle(X.X, f), xi)
        if _rel(mu, report.final_kF) > REL_TOL:
            return [f"final mu {report.final_kF!r} but local_condition gives {mu!r}"]
        return []

    return Solve(sid, "shuffle", run, [mu_recomputed, *extra_checks], eps)


def _full_solve(sid, f, xi, eps, cap):
    sch = G.GroupScheme.full(f.m, f.nvars, side="both")
    cfg = G.OptimizerConfig(scheme=sch, target_eps=eps, max_iters=cap)

    def run():
        g, rep = G.precondition_full(f, xi, sch, cfg)
        return rep, g

    def mu_recomputed(report, g):
        # x -> X f(Y^-1 x) has its root at Y xi
        fT = G.shuffle(g.X, G.change_variables(g.Y, f))
        mu = G.local_condition(fT, g.Y @ np.asarray(xi, dtype=complex))
        if _rel(mu, report.final_kF) > REL_TOL:
            return [f"final mu {report.final_kF!r} but local_condition gives {mu!r}"]
        return []

    return Solve(sid, "full", run, [mu_recomputed], eps)


def _sparse_action_solve(sid, f, xi, cap):
    cfg = G.OptimizerConfig(scheme=G.GroupScheme.full(f.m, side="left"), target_eps=EPS,
                            max_iters=cap)

    def run():
        X, t, rep = G.precondition_sparse(f, xi, cfg)
        return rep, (X, t)

    def mu_recomputed(report, result):
        # x -> X f(t x) has its root at xi / t
        X, t = result
        mu = G.local_condition(G.shuffle(X.X, G.torus_rescale(t, f)),
                               np.asarray(xi, dtype=complex) / t.t)
        if _rel(mu, report.final_kF) > REL_TOL:
            return [f"final mu {report.final_kF!r} but local_condition gives {mu!r}"]
        return []

    return Solve(sid, "sparse", run, [mu_recomputed])


def polysys_solves(read):
    worked, origin = read["worked"]

    def anchor(report, X):
        mu = G.local_condition(worked, origin, "operator")
        if _rel(mu, math.sqrt(3.0)) > REL_TOL:
            return [f"worked example: operator-norm mu {mu!r}, expected sqrt(3)"]
        return []

    out = [
        _shuffle_solve("worked/shuffle", worked, origin, 1e-4, 2000, [anchor]),
        _full_solve("worked/full", worked, origin, 1e-4, 100),
        _sparse_action_solve("demo05/sparse", *read["demo05"], 400),
    ]
    for n in POLY_VARS:
        for i in range(POLY_COUNT):
            f, xi = read[f"r{n}_{i}"]
            out.append(_shuffle_solve(f"r{n}_{i}/shuffle", f, xi, EPS, POLY_SHUFFLE_CAP))
            out.append(_full_solve(f"r{n}_{i}/full", f, xi, EPS, POLY_FULL_CAP))
            out.append(_sparse_action_solve(f"r{n}_{i}/sparse", f, xi, POLY_SPARSE_CAP))
    return out


def solves(workload, read):
    return {"dense": dense_solves, "sparse-estimator": sparse_solves,
            "polysys": polysys_solves}[workload](read)


# Which traced function runs exactly once per objective state in each kind
# of solve; its calls minus one are the candidate steps of that solve.
STATE_FUNCTION = {
    "matrix": "objective.evaluate",
    "estimator": "objective.evaluate",
    "shuffle": "objective.evaluate_cross",
    "full": "polysys.change_variables",
    "sparse": "polysys.torus_rescale",
}
