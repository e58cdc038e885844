import math

import numpy as np
import pytest

from geoprec.bench import BenchResult, correlation_kF_kappa, run_gaussian_suite
from geoprec.errors import InsufficientDataError


def _fake(kf0, kfb, k0, kb):
    return BenchResult(
        instance="x", n=4,
        kF_before=kf0, kF_after_diag=kf0, kF_after_block=kfb,
        kappa_before=k0, kappa_after_diag=k0, kappa_after_block=kb,
        iterations_diag=1, iterations_block=1, wall_time=0.0,
    )


def test_correlation_identical_columns():
    results = [_fake(10.0 * (i + 1), 2.0, 10.0 * (i + 1), 2.0) for i in range(5)]
    assert correlation_kF_kappa(results) == pytest.approx(1.0)


def test_correlation_constant_column_is_nan():
    varying = [_fake(10.0 * (i + 1), 2.0, 3.0, 3.0) for i in range(5)]
    assert math.isnan(correlation_kF_kappa(varying))
    # log(3 / 2.7) repeated seven times has a float std of about 1e-17, not 0
    assert math.isnan(correlation_kF_kappa([_fake(3.0, 2.7, 3.0, 2.7)] * 7))


def test_correlation_anticorrelated_columns():
    results = [
        _fake(np.exp(x), 1.0, np.exp(-x), 1.0) for x in (1.0, 2.0, 3.0, 4.0)
    ]
    assert correlation_kF_kappa(results) == pytest.approx(-1.0)


def test_correlation_needs_three():
    with pytest.raises(InsufficientDataError):
        correlation_kF_kappa([_fake(2, 1, 2, 1)] * 2)


def test_gaussian_suite_reproducible_and_improving():
    a = run_gaussian_suite(12, 4, block_size=3, seed=5, max_iters=400)
    b = run_gaussian_suite(12, 4, block_size=3, seed=5, max_iters=400)
    for ra, rb in zip(a, b):
        assert ra.kF_after_block == rb.kF_after_block
        assert ra.kF_after_diag == rb.kF_after_diag
    for r in a:
        assert r.improvement_diag >= 1.0 - 1e-9
        assert r.improvement_block >= 1.0 - 1e-9
        # the block group contains the diagonal torus, so at matched budgets
        # the block result should not be meaningfully worse
        assert r.kF_after_block <= r.kF_after_diag * (1.0 + 1e-6)


def test_gaussian_suite_rejects_small_n():
    with pytest.raises(ValueError):
        run_gaussian_suite(8, 2, block_size=5)
