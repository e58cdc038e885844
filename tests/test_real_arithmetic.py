"""Real inputs are solved in real arithmetic, with the complex run's trajectory.

A real matrix A and its phase-rotated copy e^{0.7i} A have the same objective
at every group element, so their descents must agree: the same iteration
counts and terminations, and final kF within 1e-12 relative.  The real run
works in float64 throughout (element stacks, B, gradients and estimator
directions), the phased run in complex128.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import complex_gaussian, rng_for
from geoprec.group import GroupScheme
from geoprec.matrix import ComplexMatrix
from geoprec.objective import evaluate, evaluate_cross
from geoprec.optimize import OptimizerConfig, _finite, minimize_condition, minimize_cross_condition
from geoprec.stochastic import EstimatorConfig, estimate_gradient

PHASE = np.exp(0.7j)

SCHEMES = {
    "left-diag": GroupScheme.diagonal(12, side="left"),
    "left-block": GroupScheme.blocked(12, 5, side="left"),  # ragged: 5, 5, 2
    "both-diag": GroupScheme.diagonal(8, 8, side="both"),
    "both-block": GroupScheme.blocked(9, 4, 9, side="both"),  # 4, 4 and a 1x1 tail
}


def _matrix(key, m, n):
    rng = rng_for(500, key)
    rows = np.exp(1.5 * rng.standard_normal(m))  # spread row scales: work for the left side
    return rows[:, None] * rng.standard_normal((m, n))


def _sparse(key, m):
    rng = rng_for(501, key)
    S = sp.random(m, m, density=0.1, random_state=np.random.RandomState(key), format="csr")
    return (sp.diags(np.exp(rng.standard_normal(m))) @ (S + 4.0 * sp.eye(m))).tocsr()


def _stacks(side_pair):
    return side_pair.left + (side_pair.right or ())


def _assert_same_run(real, phased):
    assert real.termination == phased.termination
    assert real.iteration_count == phased.iteration_count
    assert real.final_kF == pytest.approx(phased.final_kF, rel=1e-12, abs=0)


def _assert_field(report, state, dtype):
    g = report.final_element
    assert all(S.dtype == dtype for S in _stacks(g))
    assert g.X.dtype == dtype and (g.Y is None or g.Y.dtype == dtype)
    assert state.B.dtype == dtype
    assert all(S.dtype == dtype for S in _stacks(state.grad))


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_real_and_phased_exact_runs_agree(name):
    sch = SCHEMES[name]
    A = _matrix(sorted(SCHEMES).index(name), sch.m, sch.n)
    cfg = OptimizerConfig(scheme=sch, target_eps=1e-2, max_iters=300)  # 3 certify, 1 caps
    real = minimize_condition(A, cfg)
    phased = minimize_condition(PHASE * A, cfg)
    _assert_same_run(real, phased)
    _assert_field(real, evaluate(A, real.final_element), np.float64)
    _assert_field(phased, evaluate(PHASE * A, phased.final_element), np.complex128)


@pytest.mark.parametrize("scheme", [GroupScheme.diagonal(40, side="left"),
                                    GroupScheme.blocked(40, 3, side="left"),
                                    GroupScheme.diagonal(40, 40, side="both")],
                         ids=["left-diag", "left-block", "both-diag"])
def test_real_and_phased_estimator_runs_agree(scheme):
    A = _sparse(7, scheme.m)
    cfg = OptimizerConfig(scheme=scheme, target_eps=1e-2, max_iters=4)
    est = EstimatorConfig(num_probes=16, cg_tol=1e-10, seed=3)
    real = minimize_condition(A, cfg, estimator=est)
    phased = minimize_condition(PHASE * A, cfg, estimator=est)
    _assert_same_run(real, phased)
    for rep, a, dtype in ((real, A, np.float64), (phased, PHASE * A, np.complex128)):
        _assert_field(rep, evaluate(a, rep.final_element), dtype)
        direction = estimate_gradient(a, rep.final_element, est)
        assert all(S.dtype == dtype for S in _stacks(direction))


@pytest.mark.parametrize("scheme", [GroupScheme.full(5, 4, side="left"),
                                    GroupScheme.blocked(5, 2, 4, side="both")],
                         ids=["left-full", "both-block"])
def test_real_and_phased_cross_runs_agree(scheme):
    rng = rng_for(502)
    A = rng.standard_normal((scheme.m, scheme.n))
    B = rng.standard_normal((scheme.n, scheme.m))
    cfg = OptimizerConfig(scheme=scheme, target_eps=1e-3, max_iters=300)
    phased_pair = (PHASE * A, np.exp(-0.3j) * B)
    real = minimize_cross_condition(A, B, cfg)
    phased = minimize_cross_condition(*phased_pair, cfg)
    _assert_same_run(real, phased)
    _assert_field(real, evaluate_cross(A, B, real.final_element), np.float64)
    _assert_field(phased, evaluate_cross(*phased_pair, phased.final_element), np.complex128)


def test_one_complex_entry_makes_the_run_complex():
    """The dtype is decided over every input of the run: a real A paired with a
    complex B runs complex, and a complex entry with imaginary part zero counts as real."""
    sch = GroupScheme.full(3, side="left")
    rng = rng_for(503)
    A = rng.standard_normal((3, 3))
    B = complex_gaussian(rng, (3, 3))
    cfg = OptimizerConfig(scheme=sch, max_iters=5)
    assert minimize_cross_condition(A, B, cfg).final_element.X.dtype == np.complex128
    assert minimize_cross_condition(A, B.real + 0j, cfg).final_element.X.dtype == np.float64


def test_complex_storage_of_a_real_matrix_runs_real():
    """A ComplexMatrix, which Matrix Market input always is, whose entries are
    all real takes the real run, and the very same one as the float64 array."""
    sch = GroupScheme.blocked(9, 4, 9, side="both")
    A = _matrix(9, 9, 9)
    cfg = OptimizerConfig(scheme=sch, target_eps=1e-2, max_iters=40)
    stored = minimize_condition(ComplexMatrix.dense(A), cfg)
    plain = minimize_condition(A, cfg)
    assert stored.iterations == plain.iterations
    assert all(S.dtype == np.float64 for S in _stacks(stored.final_element))


@pytest.mark.parametrize("storage", ["sparse", "dense"])
def test_real_complex_matrix_is_densified_as_float64(storage):
    """A real ComplexMatrix at m=1000 becomes its 8 MB float64 array without a
    16 MB complex copy on the way."""
    m = 1000
    rng = rng_for(504)
    rows = np.repeat(np.arange(m), 6)
    cols = rng.integers(0, m, size=rows.size)
    vals = rng.standard_normal(rows.size)
    A = sp.csr_matrix((vals, (rows, cols)), shape=(m, m)) + sp.eye(m)
    if storage == "sparse":
        cm = ComplexMatrix.sparse(m, m, zip(*sp.find(A)))
    else:
        cm = ComplexMatrix.dense(A.toarray())
    tracemalloc.start()
    try:
        (a,) = _finite(cm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert a.dtype == np.float64 and a.flags.c_contiguous
    assert np.array_equal(a, A.toarray())
    assert peak <= 1.2 * a.nbytes
