"""Seeded desk-scale experiment suites.

Runs diagonal and block-diagonal two-sided preconditioning over a set of
instances and records condition numbers before and after so the improvement
ratios of the two schemes can be compared.  Samples run one after another,
in order.
"""

import math
import time
from dataclasses import dataclass
from typing import List

import numpy as np

from ._rng import substream
from .errors import InsufficientDataError
from .group import GroupScheme
from .matrix import as_dense
from .optimize import OptimizerConfig, minimize_condition

__all__ = ["BenchResult", "run_gaussian_suite", "run_matrix_suite", "correlation_kF_kappa"]


@dataclass(frozen=True)
class BenchResult:
    instance: str
    n: int
    kF_before: float
    kF_after_diag: float
    kF_after_block: float
    kappa_before: float
    kappa_after_diag: float
    kappa_after_block: float
    iterations_diag: int
    iterations_block: int
    wall_time: float

    @property
    def improvement_diag(self):
        return self.kF_before / self.kF_after_diag

    @property
    def improvement_block(self):
        return self.kF_before / self.kF_after_block


def _bench_one(label, a, block_size, target_eps, max_iters):
    m, n = a.shape
    t0 = time.perf_counter()
    rep_d, rep_b = (minimize_condition(a, OptimizerConfig(
        GroupScheme.blocked(m, k, n, side="both"), target_eps, max_iters))
        for k in (1, block_size))
    wall = time.perf_counter() - t0
    return BenchResult(
        instance=label,
        n=m,
        kF_before=rep_d.initial_kF,
        kF_after_diag=rep_d.final_kF,
        kF_after_block=rep_b.final_kF,
        kappa_before=rep_d.initial_kappa,
        kappa_after_diag=rep_d.final_kappa,
        kappa_after_block=rep_b.final_kappa,
        iterations_diag=rep_d.iteration_count,
        iterations_block=rep_b.iteration_count,
        wall_time=wall,
    )


def run_gaussian_suite(n: int, samples: int, block_size: int = 5, seed: int = 42,
                       target_eps: float = 1e-2, max_iters: int = 1500) -> List[BenchResult]:
    """Standard-normal real n x n instances, diagonal vs block two-sided schemes."""
    if n < 2 * block_size:
        raise ValueError("n must be at least twice the block size")
    return [_bench_one(f"gaussian-{s}", substream(seed, s).standard_normal((n, n)),
                       block_size, target_eps, max_iters) for s in range(samples)]


def run_matrix_suite(mats, block_size: int = 5, target_eps: float = 1e-2,
                     max_iters: int = 1500) -> List[BenchResult]:
    """Same comparison over explicit (label, matrix) pairs, e.g. files on disk.

    A matrix may be rectangular: both schemes are two-sided, with blocks of
    the given size on its rows and on its columns.  ``BenchResult.n`` is the
    row count."""
    return [_bench_one(lbl, as_dense(a), block_size, target_eps, max_iters) for lbl, a in mats]


def correlation_kF_kappa(results: List[BenchResult]) -> float:
    """Pearson correlation of log improvements in kF and kappa (block scheme);
    nan when either column is constant, where it is undefined."""
    if len(results) < 3:
        raise InsufficientDataError("need at least 3 results")
    x = np.array([math.log(r.kF_before / r.kF_after_block) for r in results])
    y = np.array([math.log(r.kappa_before / r.kappa_after_block) for r in results])
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        return math.nan
    return float(np.corrcoef(x, y)[0, 1])
