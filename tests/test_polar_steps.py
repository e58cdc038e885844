"""Where a run replaces its element by the polar factor.

The objective is constant on cosets of the block-unitary subgroup, and the
states a run reads from the entry inverse, the Gram factors or a cross pair
are unitarily equivariant: at U P the gradient is U H U*, and
exp(-s U H U*) U P = U exp(-s H) P.  So an exact full-rank run and a cross run
step with ``exp_action`` alone and repolarize once, the element they return.
So do the step-halving polynomial runs: the Bombieri-Weyl and Frobenius norms
are unitarily invariant, and the torus side of the sparse action stays real
positive.  They reject a candidate whose state raises on a singular block.
The SVD path and estimator runs (whose probes are fixed in coordinates) keep
repolarizing every candidate step.
"""

import numpy as np
import pytest
import scipy.sparse as sp

import geoprec.optimize
import geoprec.polysys
from conftest import complex_gaussian, rng_for
from geoprec.errors import SingularBlockError
from geoprec.group import GroupElement, GroupScheme, WeightData, exp_action, repolarize, weight_data
from geoprec.objective import duality_gap_bound, evaluate, evaluate_cross, gram_factors
from geoprec.optimize import (
    OptimizerConfig,
    Termination,
    _State,
    minimize_condition,
    minimize_cross_condition,
)
from geoprec.polysys import (
    PolynomialSystem,
    _full_objective_state,
    _jacobian_pinv,
    _magnitudes,
    _omega,
    _sparse_state,
    precondition_full,
    precondition_sparse,
)
from geoprec.stochastic import EstimatorConfig
from test_trajectories import _polynomial


@pytest.fixture
def calls(monkeypatch):
    """How often the descent loop calls exp_action and repolarize."""
    counts = {"exp_action": 0, "repolarize": 0}

    def counting(name):
        real = getattr(geoprec.optimize, name)

        def fn(*args):
            counts[name] += 1
            return real(*args)
        return fn

    for name in counts:
        monkeypatch.setattr(geoprec.optimize, name, counting(name))
    return counts


def _rows(rng, m):
    return np.exp(1.5 * rng.standard_normal(m))[:, None]


def _square(key, n):
    rng = rng_for(700, key)
    return _rows(rng, n) * complex_gaussian(rng, (n, n))


def _cross_pair(key, n):
    rng = rng_for(701, key)
    return _rows(rng, n) * complex_gaussian(rng, (n, n)), rng.standard_normal((n, n))


# name -> (scheme, cross run)
ONCE = {
    "exact-left-torus": (GroupScheme.diagonal(8, side="left"), False),
    "exact-left-block": (GroupScheme.blocked(9, 4, side="left"), False),
    "exact-both-block": (GroupScheme.blocked(8, 3, 8, side="both"), False),
    "cross-left-block": (GroupScheme.blocked(8, 3, side="left"), True),
    "cross-both-block": (GroupScheme.blocked(8, 3, 8, side="both"), True),
}


@pytest.mark.parametrize("name", sorted(ONCE))
def test_exact_full_rank_and_cross_runs_repolarize_once(name, calls):
    sch, cross = ONCE[name]
    cfg = OptimizerConfig(scheme=sch, max_iters=30)
    if cross:
        rep = minimize_cross_condition(*_cross_pair(0, sch.m), cfg)
    else:
        rep = minimize_condition(_square(0, sch.m), cfg)
    assert rep.iteration_count == 30
    assert calls == {"exp_action": 30, "repolarize": 1}


def test_run_without_a_step_does_not_repolarize(calls):
    cfg = OptimizerConfig(scheme=GroupScheme.diagonal(4, side="left"))
    for rep in (minimize_condition(np.eye(4), cfg),
                minimize_cross_condition(np.eye(4), np.eye(4), cfg)):
        assert rep.iteration_count == 0
        assert np.array_equal(rep.final_element.X, np.eye(4))
    assert calls == {"exp_action": 0, "repolarize": 0}


def test_svd_and_estimator_runs_repolarize_every_step(calls):
    wide = _rows(rng_for(702), 6) * complex_gaussian(rng_for(702), (6, 9))
    svd = minimize_condition(wide, OptimizerConfig(scheme=GroupScheme.blocked(6, 3), max_iters=20))
    assert svd.iteration_count == 20
    assert calls == {"exp_action": 20, "repolarize": 20}
    n = 30
    A = sp.random(n, n, density=0.1, random_state=np.random.RandomState(7)) + 4.0 * sp.eye(n)
    est = minimize_condition(A.tocsr(), OptimizerConfig(scheme=GroupScheme.blocked(n, 3),
                                                        max_iters=4),
                             estimator=EstimatorConfig(num_probes=8, seed=3))
    assert est.iteration_count == 4
    assert calls == {"exp_action": 20 + 4, "repolarize": 20 + 4}


def test_halving_runs_repolarize_once(calls):
    f, xi = _polynomial(1, 2, 2, 2)
    sch = GroupScheme.full(2, 2, side="both")
    full = precondition_full(f, xi, sch, OptimizerConfig(scheme=sch, max_iters=20))[1]
    assert full.iteration_count == 20
    assert calls["repolarize"] == 1 and calls["exp_action"] >= 20
    f, xi = _polynomial(2, 2, 2, 3, density=0.6)
    steps = calls["exp_action"]
    sparse = precondition_sparse(f, xi, OptimizerConfig(scheme=GroupScheme.full(2), max_iters=20))[2]
    assert sparse.iteration_count == 20
    assert calls["repolarize"] == 2 and calls["exp_action"] >= steps + 20


def test_halving_run_without_a_step_does_not_repolarize(calls):
    f = PolynomialSystem.from_polys(2, [{(1, 0): 1.0}, {(0, 1): 1.0}])
    sch = GroupScheme.full(2, 2, side="both")
    g, full = precondition_full(f, [0.0, 0.0], sch, OptimizerConfig(scheme=sch))
    assert full.iteration_count == 0 and full.termination is Termination.CERTIFIED
    assert np.array_equal(g.X, np.eye(2)) and np.array_equal(g.Y, np.eye(2))
    f, xi = _polynomial(2, 2, 2, 3, density=0.6)
    X, t, sparse = precondition_sparse(f, xi, OptimizerConfig(scheme=GroupScheme.full(2),
                                                              max_iters=0))
    assert sparse.iteration_count == 0
    assert np.array_equal(X.X, np.eye(2)) and np.array_equal(t.t, np.ones(2))
    assert calls == {"exp_action": 0, "repolarize": 0}


def _halving_polar_every_step(state_fn, g, base_step, max_iters, weights, eps, grad_tol):
    """The step-halving descent that replaces every candidate by its polar
    factor: (final element, iterations, termination, final mu)."""
    state = state_fn(g)
    for k in range(max_iters + 1):
        if weights is not None and duality_gap_bound(state, weights) <= eps:
            return g, k, Termination.CERTIFIED, state.kF
        if state.grad_norm <= grad_tol:
            return g, k, Termination.CONVERGED, state.kF
        if k == max_iters:
            return g, k, Termination.MAX_ITERS, state.kF
        step = base_step
        while True:
            try:
                cand = repolarize(exp_action(g, state.grad, -step))
                cand_state = state_fn(cand)
                if cand_state.value <= state.value:
                    break
            except SingularBlockError:
                pass
            if step < 1e-14:
                return g, k, Termination.CONVERGED, state.kF
            step *= 0.5
        g, state = cand, cand_state


def _full_run():
    f, xi = _polynomial(1, 2, 2, 2)
    sch = GroupScheme.full(2, 2, side="both")
    cfg = OptimizerConfig(scheme=sch, max_iters=80)
    g, rep = precondition_full(f, xi, sch, cfg)
    Dp, D = _jacobian_pinv(f, xi), f.max_degree

    def state_fn(g):
        value, grad, mu = _full_objective_state(f, Dp, g)
        return _State(value, grad, grad.norm, mu, mu)

    weights = WeightData(D + 2.0, (D + 2.0) ** (1 - f.m - f.nvars) / (f.m + f.nvars))
    ref = _halving_polar_every_step(state_fn, sch.identity(), 1.0 / (D + 2.0), cfg.max_iters,
                                    weights, cfg.target_eps, weights.weight_margin * cfg.target_eps)
    return g, rep, ref


def _sparse_run():
    f, xi = _polynomial(2, 2, 2, 3, density=0.6)
    X, t, rep = precondition_sparse(f, xi, OptimizerConfig(scheme=GroupScheme.full(2),
                                                           max_iters=40))
    pair = GroupScheme("both", 2, 2, (2,), (1, 1))
    g = GroupElement._from_blocks(pair, X.left, [t.t.astype(complex).reshape(-1, 1, 1)])
    mags, omega, Dp0 = _magnitudes(xi), _omega(2), _jacobian_pinv(f, xi)
    ref = _halving_polar_every_step(lambda g: _sparse_state(f, mags, omega, Dp0, g),
                                    pair.identity(), 0.125, 40, None, None, 1e-10)
    return g, rep, ref


@pytest.mark.parametrize("case", [_full_run, _sparse_run], ids=["full", "sparse"])
def test_halving_polar_factor_at_the_end_keeps_the_trajectory(case):
    got, rep, (g, iterations, termination, mu) = case()
    assert termination is Termination.MAX_ITERS
    assert (rep.iteration_count, rep.termination) == (iterations, termination)
    assert abs(rep.final_kF - mu) <= 1e-12 * mu
    for mine, ref in zip(got.left + got.right, g.left + g.right):
        assert np.abs(mine - ref).max() <= 1e-9 * np.abs(ref).max()


def test_halving_rejects_a_candidate_whose_state_raises(monkeypatch):
    """A LinAlgError from the state of a candidate (a singular block) counts as
    an increase: the run halves the step and goes on."""
    f, xi = _polynomial(1, 2, 2, 2)
    sch = GroupScheme.full(2, 2, side="both")
    real, seen = geoprec.polysys._substituted_tensors, []

    def failing(Y, f, *args):
        seen.append(np.array(Y))
        if len(seen) == 2:  # the first candidate
            raise np.linalg.LinAlgError("Singular matrix")
        return real(Y, f, *args)

    monkeypatch.setattr(geoprec.polysys, "_substituted_tensors", failing)
    rep = precondition_full(f, xi, sch, OptimizerConfig(scheme=sch, max_iters=5))[1]
    assert (rep.iteration_count, rep.termination) == (5, Termination.MAX_ITERS)
    # from the identity, the second candidate exp(-s H / 2) is the square root of the first
    assert np.abs(seen[2] @ seen[2] - seen[1]).max() <= 1e-12


def _polar_every_step(state_fn, config):
    """The constant-step descent that replaces the element by its polar factor
    after every step: (final element, iterations, termination, final kF)."""
    sch = config.scheme
    weights = weight_data(sch)
    g = sch.identity(complex)
    state = state_fn(g)
    for k in range(config.max_iters + 1):
        if duality_gap_bound(state, weights) <= config.target_eps:
            return g, k, Termination.CERTIFIED, state.kF
        if state.grad_norm <= weights.weight_margin * config.target_eps:
            return g, k, Termination.CONVERGED, state.kF
        if k == config.max_iters:
            return g, k, Termination.MAX_ITERS, state.kF
        g = repolarize(exp_action(g, state.grad, -1.0 / config.smoothness()))
        state = state_fn(g)


def _left_blocks():
    A = _square(10, 12)
    a_inv, sch = np.linalg.inv(A), GroupScheme.blocked(12, 4, side="left")
    cfg = OptimizerConfig(scheme=sch, max_iters=600)
    factors = gram_factors(A, a_inv, sch)
    return minimize_condition(A, cfg), lambda g: evaluate(A, g, a_inv, factors), cfg


def _both_blocks():
    A = _square(11, 10)
    a_inv, sch = np.linalg.inv(A), GroupScheme.blocked(10, 5, 10, side="both")
    cfg = OptimizerConfig(scheme=sch, max_iters=150)
    return minimize_condition(A, cfg), lambda g: evaluate(A, g, a_inv), cfg


def _left_cross():
    A, B = _cross_pair(12, 9)
    sch = GroupScheme.blocked(9, 3, side="left")
    cfg = OptimizerConfig(scheme=sch, max_iters=300)
    factors = gram_factors(A, B, sch)
    return minimize_cross_condition(A, B, cfg), lambda g: evaluate_cross(A, B, g, factors), cfg


@pytest.mark.parametrize("case", [_left_blocks, _both_blocks, _left_cross],
                         ids=["left-blocks", "both-blocks", "left-cross"])
def test_polar_factor_at_the_end_keeps_the_trajectory(case):
    rep, state_fn, cfg = case()
    g, iterations, termination, kF = _polar_every_step(state_fn, cfg)
    assert (rep.iteration_count, rep.termination) == (iterations, termination)
    assert abs(rep.final_kF - kF) <= 1e-12 * kF
    got = rep.final_element
    for mine, ref in ((got.X, g.X), (got.Y, g.Y)):
        if ref is not None:
            assert np.abs(mine - ref).max() <= 1e-9 * np.abs(ref).max()
    for S in got.left + (got.right or ()):
        assert np.abs(S - S.conj().transpose(0, 2, 1)).max() <= 1e-12 * np.abs(S).max()
        assert np.linalg.eigvalsh(S).min() > 0
