"""The closed-form optimum of a left-only scheme, and the estimator runs that take it.

Left preconditioning is the strongly convex case.  With the Gram factors
L_b L_b* = A_b A_b* of A's row slabs and S_b* S_b = D_b* D_b of the column
slabs of D = A^-1 (or W = R^-*, which differs from A^-1 by a unitary on its
left), the least kF over the scheme is kF* = sum_b ||S_b L_b||_*, which
equals sum_b ||A^-1[:, b] A[b, :]||_*, and X_b = Sigma_b^-1/2 U_b* S_b attains
it (``objective.left_optimum``).  So kF* is an oracle: no element does
better, and a certified descent ends within its certificate of it.

A square full-rank left run with an estimator forms W at entry, so it takes
one step to that optimum, certified from the exact gradient of the state it
lands on, and takes no probe step.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geoprec.optimize
import geoprec.stochastic
from conftest import random_element, rng_for
from geoprec.group import GroupScheme, apply, repolarize
from geoprec.matrix import condition_frobenius
from geoprec.objective import _row_norms, evaluate, gram_factors, left_optimum
from geoprec.optimize import (
    OptimizerConfig,
    Termination,
    minimize_condition,
    predicted_iteration_bound,
)
from geoprec.stochastic import EstimatorConfig
from test_factorization import _real_element, _rel
from test_left_entry_factor import _sparse_identity_plus, _sparse_storage

_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _oracle(a, scheme):
    """sum_b ||A^-1[:, b] A[b, :]||_* from the dense inverse."""
    a_inv = np.linalg.inv(a)
    return sum(np.linalg.norm(a_inv[:, lo:hi] @ a[lo:hi], "nuc") for lo, hi in scheme.left_blocks)


@st.composite
def _left_problems(draw, max_m=60):
    """(A, a, scheme, rng): a square full-rank a, real or complex, with rows graded
    up to exp(+-14), the identity plus up to 5 random entries per row, under a
    left torus or a ragged block scheme; A is a in dense or sparse storage."""
    m = draw(st.integers(2, max_m))
    size = draw(st.sampled_from([1, 2, 3, 5]))
    sch = GroupScheme.diagonal(m, side="left") if size == 1 else \
        GroupScheme.blocked(m, size, side="left")
    is_complex, grade = draw(st.booleans()), draw(st.floats(0.0, 14.0))
    rng = rng_for(730, draw(st.integers(0, 2**16)))
    a = np.exp(grade * rng.uniform(-1.0, 1.0, m))[:, None] * \
        _sparse_identity_plus(rng, m, draw(st.integers(1, 5)), is_complex)
    storage = draw(st.sampled_from(["dense", "ComplexMatrix", "scipy"]))
    return (a if storage == "dense" else _sparse_storage(a, storage)), a, sch, rng


def _entry(A, a):
    """The W of a run's entry: from the CSR of a sparse A, as the run takes it."""
    (entry,) = geoprec.optimize._finite(A, keep_sparse=True)
    return geoprec.optimize._entry_inverse(entry, required=True, up_to_unitary=True)[0]


@_PROPERTY
@given(_left_problems())
def test_closed_form_is_the_least_kF(problem):
    """left_optimum's kF* is the dense oracle to 1e-12, its element attains it,
    and no random element of the scheme does better."""
    A, a, sch, rng = problem
    W = _entry(A, a)
    factors = gram_factors(a, W, sch)
    g, kF_star = left_optimum(factors, sch, a.dtype)
    assert _rel(kF_star, _oracle(a, sch)) <= 1e-12
    assert all(x.dtype == a.dtype for x in g.left)
    assert _rel(evaluate(a, g, W, factors).kF, kF_star) <= 1e-12
    for _ in range(3):
        h = random_element(rng, sch) if a.dtype == complex else _real_element(rng, sch)
        assert kF_star <= evaluate(a, h, W, factors).kF * (1.0 + 1e-12)


@_PROPERTY
@given(_left_problems(max_m=24))
def test_certified_descent_ends_within_its_certificate_of_the_least_kF(problem):
    """A certified constant-step exact run ends with log(final kF / kF*) at most
    its certificate: the duality bound is a bound on value - log kF*."""
    A, a, sch, _ = problem
    rep = minimize_condition(A, OptimizerConfig(scheme=sch, target_eps=0.1, max_iters=3000))
    assert rep.termination is Termination.CERTIFIED
    assert math.log(rep.final_kF / _oracle(a, sch)) <= rep.certificate + 1e-12


def _graded_rows(seed, m, spread):
    """diag(exp(U(-8, 8))) (I + spread N) from np.random.default_rng(seed)."""
    rng = np.random.default_rng(seed)
    return np.exp(rng.uniform(-8.0, 8.0, m))[:, None] * (np.eye(m) + spread * rng.standard_normal((m, m)))


def test_polar_factor_keeps_the_least_kF_on_graded_blocks():
    """repolarize of the closed-form element keeps its kF, read from the factors,
    within 1e-13 of kF* on graded blocks of 5 and 2: the polar factor is
    accurate to eps cond(X_b), where one read from X_b* X_b was off by up to
    5.6e-7 on these inputs."""
    sch = GroupScheme("left", 7, 7, (5, 2))
    for seed in range(200):
        a = _graded_rows(seed, 7, 0.5)
        a_inv = np.linalg.inv(a)
        factors = gram_factors(a, a_inv, sch)
        g, kF_star = left_optimum(factors, sch, a.dtype)
        assert _rel(evaluate(a, repolarize(g), a_inv, factors).kF, kF_star) <= 1e-13


def test_exact_left_run_returns_the_element_it_reports():
    """An exact left run on graded rows returns a final element whose kF is its
    reported final kF to 1e-12, though the element is repolarized only at the end."""
    sch = GroupScheme.blocked(20, 5)
    for seed in range(20):
        a = _graded_rows(seed, 20, 0.3)
        rep = minimize_condition(a, OptimizerConfig(scheme=sch, max_iters=300))
        kF = evaluate(a, rep.final_element, a_inv=np.linalg.inv(a)).kF
        assert _rel(kF, rep.final_kF) <= 1e-12


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("storage", ["dense", "ComplexMatrix"])
@pytest.mark.parametrize("m", [64, 65, 129, 200])
def test_torus_factors_are_the_row_norms(m, storage, field):
    """The torus factors are np.linalg.norm's row norms bit for bit, of A
    (C order) and of W* (Fortran order), though taken 64 rows at a time."""
    rng = rng_for(731, m, field == "real")
    a = np.exp(2.0 * rng.standard_normal(m))[:, None] * \
        _sparse_identity_plus(rng, m, 4, field == "complex")
    A = a if storage == "dense" else _sparse_storage(a, storage)
    W = _entry(A, a)
    L, S = gram_factors(a, W, GroupScheme.diagonal(m, side="left"))
    assert np.array_equal(L[0].ravel(), np.linalg.norm(a, axis=1))
    assert np.array_equal(S[0].ravel(), np.linalg.norm(W.conj().T, axis=1))
    for R in (a, np.asfortranarray(a), W.conj().T):
        assert np.array_equal(_row_norms(R), np.linalg.norm(R, axis=1))


_EST = EstimatorConfig(num_probes=4, seed=1)


def _graded(m=30, size=1, field="real"):
    rng = rng_for(732, m, size)
    a = np.exp(rng.standard_normal(m))[:, None] * \
        _sparse_identity_plus(rng, m, 5, field == "complex")
    sch = GroupScheme.diagonal(m, side="left") if size == 1 else \
        GroupScheme.blocked(m, size, side="left")
    return a, sch


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("size", [1, 3], ids=["torus", "3-blocks"])
def test_left_estimator_run_takes_one_certified_step_to_the_optimum(size, field, monkeypatch):
    """No probe is drawn; the one step lands on kF*, certified, and the final
    element, of the input's field, gives kF* when applied to A."""
    a, sch = _graded(size=size, field=field)
    monkeypatch.setattr(geoprec.stochastic, "estimate_gradient", None)
    rep = minimize_condition(_sparse_storage(a, "ComplexMatrix"),
                             OptimizerConfig(scheme=sch, max_iters=50), estimator=_EST)
    assert (rep.iteration_count, rep.termination) == (1, Termination.CERTIFIED)
    assert rep.certificate <= 1e-10
    assert _rel(rep.final_kF, _oracle(a, sch)) <= 1e-12
    assert rep.final_element.X.dtype == a.dtype
    assert _rel(condition_frobenius(apply(rep.final_element, a)), rep.final_kF) <= 1e-12
    assert all(math.isnan(r.kappa) for r in rep.iterations)


def test_left_estimator_run_without_a_step_stays_at_the_identity():
    a, sch = _graded()
    rep = minimize_condition(a, OptimizerConfig(scheme=sch, max_iters=0), estimator=_EST)
    assert (rep.iteration_count, rep.termination) == (0, Termination.MAX_ITERS)
    assert np.array_equal(rep.final_element.X, np.eye(sch.m))


def test_left_estimator_run_short_of_its_target_converges_after_one_step():
    """A target below the optimum's round-off: the run does not jump again, and
    ends CONVERGED after its one step."""
    a, sch = _graded(size=3)
    rep = minimize_condition(a, OptimizerConfig(scheme=sch, target_eps=1e-300, max_iters=50),
                             estimator=_EST)
    assert (rep.iteration_count, rep.termination) == (1, Termination.CONVERGED)
    assert _rel(rep.final_kF, _oracle(a, sch)) <= 1e-12


@pytest.mark.parametrize("size", [1, 3], ids=["torus", "3-blocks"])
def test_left_estimator_run_capped_at_one_step_converges(size):
    """With max_iters=1 the closed-form step is the last one allowed: the run
    ends CONVERGED after it, not MAX_ITERS, at kF*."""
    a, sch = _graded(size=size)
    rep = minimize_condition(a, OptimizerConfig(scheme=sch, target_eps=1e-300, max_iters=1),
                             estimator=_EST)
    assert (rep.iteration_count, rep.termination) == (1, Termination.CONVERGED)
    assert _rel(rep.final_kF, _oracle(a, sch)) <= 1e-12


@pytest.mark.parametrize("storage", ["dense", "ComplexMatrix"])
@pytest.mark.parametrize("size", [1, 3], ids=["torus", "3-blocks"])
def test_iteration_bound_reads_kF_star_in_closed_form(size, storage):
    a, sch = _graded(size=size, field="complex")
    A = a if storage == "dense" else _sparse_storage(a, storage)
    cfg = OptimizerConfig(scheme=sch)
    got = predicted_iteration_bound(A, cfg)
    assert got == predicted_iteration_bound(a, cfg, _oracle(a, sch)) > 0


@pytest.mark.parametrize("case", ["two-sided", "rectangular", "rank-deficient"])
def test_iteration_bound_needs_kF_star_where_it_has_no_closed_form(case):
    a, sch = _graded(m=8)
    if case == "two-sided":
        sch = GroupScheme.diagonal(8, 8, side="both")
    elif case == "rectangular":
        a = a[:, :6]
    else:
        a[5] = a[2]
    with pytest.raises(ValueError, match="kF_star_estimate is required"):
        predicted_iteration_bound(a, OptimizerConfig(scheme=sch))
