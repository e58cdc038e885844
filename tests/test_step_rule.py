"""The one step rule: a base step along the exact gradient, halved whenever the
candidate's value rises.

The objective is geodesically L-smooth with L = 4 for left-only and L = 8 for
two-sided schemes, so by the descent lemma the constant step 1/L, the
paper's, never raises the value in exact arithmetic.  A matrix or shuffle run
under the one rule is then the constant-step descent wherever that step
descends: ``_constant_descend`` keeps that descent as ``optimize._descend``
ran it before the two step branches became one, and the runs below return
its records, terminations and elements bit for bit.

At an optimum's plateau a constant step can raise the value by one ulp.
Under the one rule such a step halves instead, so every run's values are
non-increasing with no slack; the two runs below where the constant step
rose end certified a few iterations later, at the same final value and kF.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geoprec.optimize
from conftest import complex_gaussian, rng_for
from geoprec.group import GroupScheme, exp_action, repolarize
from geoprec.objective import duality_gap_bound
from geoprec.optimize import (
    IterationRecord,
    OptimizationReport,
    OptimizerConfig,
    Termination,
    minimize_condition,
    minimize_cross_condition,
)
from geoprec.stochastic import EstimatorConfig
from test_factorization import _svd_cases
from test_trajectories import CASES

_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _constant_descend(state_fn, g, config, weights, base_step):
    """The constant-step descent: every step is base_step, taken whatever the
    value it reaches."""
    grad_tol = 1e-10 if weights is None else weights.weight_margin * config.target_eps
    state = state_fn(g)
    report = OptimizationReport()
    for k in range(config.max_iters + 1):
        bound = np.inf if weights is None else duality_gap_bound(state, weights)
        report.iterations.append(IterationRecord(
            k, state.value, state.grad_norm, bound, state.kF, state.kappa if k == 0 else np.nan
        ))
        if bound <= config.target_eps:
            report.termination = Termination.CERTIFIED
            break
        if state.grad_norm <= grad_tol:
            report.termination = Termination.CONVERGED
            break
        if k == config.max_iters:
            report.termination = Termination.MAX_ITERS
            break
        grad = state.grad
        del state  # the old B and gradient must not outlive the next factorization
        g = exp_action(g, grad, -base_step)
        del grad
        state = state_fn(g)
    report.final_element = repolarize(g) if report.iteration_count else g
    report.iterations[-1] = report.iterations[-1]._replace(kappa=state.kappa)
    return report


def _with_constant_steps(monkeypatch, run):
    """run() with every descent it makes taken by _constant_descend."""
    def descend(state_fn, g, config, weights, base_step, optimum=None):
        assert optimum is None
        return _constant_descend(state_fn, g, config, weights, base_step)

    with monkeypatch.context() as patch:
        patch.setattr(geoprec.optimize, "_descend", descend)
        return run()


def _records(rep):
    return [[float(x).hex() for x in r] for r in rep.iterations]


def _element(g):
    return [(S.dtype, S.tobytes()) for S in g.left + (g.right or ())]


def _svd(name):
    _, A, sch, cap = next(case for case in _svd_cases() if case[0] == name)
    return lambda: minimize_condition(A, OptimizerConfig(scheme=sch, max_iters=cap))


# The matrix and shuffle runs of test_trajectories, which step by 1/L (the
# left estimator runs step to the closed-form optimum instead), and the
# thin-SVD runs of test_factorization.
CONSTANT = {name: CASES[name] for name in ("exact-left-diag", "exact-left-block",
                                           "exact-both-diag", "exact-both-block",
                                           "estimator-both-block", "shuffle")}
CONSTANT.update({f"svd-{case[0]}": _svd(case[0]) for case in _svd_cases()})


@pytest.mark.parametrize("name", sorted(CONSTANT))
def test_one_rule_is_the_constant_step_where_that_step_descends(name, monkeypatch):
    rep = CONSTANT[name]()
    ref = _with_constant_steps(monkeypatch, CONSTANT[name])
    assert (rep.termination, rep.iteration_count) == (ref.termination, ref.iteration_count)
    assert _records(rep) == _records(ref)
    assert _element(rep.final_element) == _element(ref.final_element)


def _rising(A, target_eps):
    def run():
        sch = GroupScheme.diagonal(A.shape[0], side="left")
        return minimize_condition(A, OptimizerConfig(scheme=sch, target_eps=target_eps,
                                                     max_iters=50_000))
    return run


# Left torus runs whose constant step raises the value by one ulp at the
# optimum's plateau: name -> (run, constant-step iterations, one-rule iterations).
RISING = {
    "diag-1-10": (_rising(np.diag([1.0, 10.0]), 1e-12), 45, 48),
    "gaussian-4": (_rising(complex_gaussian(rng_for(44), (4, 4)), 1e-9), 83, 86),
}


@pytest.mark.parametrize("name", sorted(RISING))
def test_values_never_rise_where_the_constant_step_rose(name):
    run, _, iterations = RISING[name]
    rep = run()
    values = [r.value for r in rep.iterations]
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert (rep.termination, rep.iteration_count) == (Termination.CERTIFIED, iterations)


@pytest.mark.parametrize("name", sorted(RISING))
def test_halving_on_the_plateau_keeps_the_constant_step_end_point(name, monkeypatch):
    run, constant_iterations, iterations = RISING[name]
    rep = run()
    ref = _with_constant_steps(monkeypatch, run)
    values = [r.value for r in ref.iterations]
    assert any(b > a for a, b in zip(values, values[1:]))
    assert (ref.termination, ref.iteration_count) == (Termination.CERTIFIED, constant_iterations)
    assert rep.iteration_count == iterations
    assert (rep.iterations[-1].value, rep.final_kF) == (ref.iterations[-1].value, ref.final_kF)


@st.composite
def _runs(draw):
    """A small seeded run: (report, index of the first record the rule governs)."""
    side = draw(st.sampled_from(["left", "both"]))
    blocks = draw(st.booleans())
    route = draw(st.sampled_from(["square", "rectangular", "rank-deficient", "cross"]))
    m = draw(st.integers(3, 7))
    n = m if route in ("square", "rank-deficient", "cross") else draw(
        st.integers(3, 7).filter(lambda n: n != m))
    rng = rng_for(900, draw(st.integers(0, 2**16)))
    size = draw(st.integers(2, 3)) if blocks else 1
    sch = GroupScheme.blocked(m, size, n, side=side)
    cfg = OptimizerConfig(scheme=sch, target_eps=1e-6, max_iters=40)
    rows = np.exp(1.5 * rng.standard_normal(m))[:, None]
    if route == "cross":
        A, B = rows * complex_gaussian(rng, (m, m)), complex_gaussian(rng, (m, m))
        return minimize_cross_condition(A, B, cfg), 0
    if route == "rank-deficient":
        A = rows * (complex_gaussian(rng, (m, m - 1)) @ complex_gaussian(rng, (m - 1, m)))
        return minimize_condition(A, cfg), 0
    A = rows * complex_gaussian(rng, (m, n))
    estimator = EstimatorConfig(seed=1) if draw(st.booleans()) else None
    rep = minimize_condition(A, cfg, estimator=estimator)
    # a left estimator run on a square A jumps to the closed-form optimum
    jump = estimator is not None and side == "left" and route == "square"
    return rep, 1 if jump else 0


@_PROPERTY
@given(_runs())
def test_values_never_rise(run):
    rep, start = run
    values = [r.value for r in rep.iterations[start:]]
    assert all(b <= a for a, b in zip(values, values[1:]))
