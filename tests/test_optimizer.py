import math

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import complex_gaussian, rng_for
from geoprec.errors import DimensionMismatchError, NonFiniteInputError, RankDeficientError
from geoprec.group import GroupScheme
from geoprec.matrix import ComplexMatrix, condition_frobenius, pseudoinverse
from geoprec.optimize import (
    OptimizerConfig,
    Termination,
    minimize_condition,
    minimize_cross_condition,
    predicted_iteration_bound,
)
from geoprec.stochastic import EstimatorConfig


def diag_left(n, **kw):
    return OptimizerConfig(scheme=GroupScheme.diagonal(n, side="left"), **kw)


def test_identity_terminates_immediately():
    rep = minimize_condition(np.eye(5), diag_left(5, target_eps=1e-3))
    assert rep.termination is Termination.CERTIFIED
    assert rep.iteration_count == 0
    assert rep.final_kF == pytest.approx(5.0, rel=1e-12)


def test_diag_1_10_reaches_two():
    rep = minimize_condition(np.diag([1.0, 10.0]), diag_left(2, target_eps=1e-3))
    assert rep.termination is Termination.CERTIFIED
    assert rep.final_kF == pytest.approx(2.0, abs=1e-3)


def test_monotone_descent_and_gradient_norms():
    rng = rng_for(60)
    A = complex_gaussian(rng, (6, 6))
    cfg = OptimizerConfig(scheme=GroupScheme.blocked(6, 2, 6, side="both"),
                          target_eps=1e-2, max_iters=2000)
    rep = minimize_condition(A, cfg)
    vals = [r.value for r in rep.iterations]
    gns = [r.grad_norm for r in rep.iterations]
    assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(len(vals) - 1))
    assert all(gns[i + 1] <= gns[i] + 1e-10 for i in range(len(gns) - 1))


def test_example1_beats_identity_and_grid(example1_matrix):
    """Cross-check the certified optimum against a brute-force log-scaling grid."""
    rep = minimize_condition(example1_matrix, diag_left(3, target_eps=1e-2, max_iters=20_000))
    assert rep.termination is Termination.CERTIFIED
    assert rep.final_kF < condition_frobenius(example1_matrix)
    assert rep.certificate <= 1e-2

    a = example1_matrix
    r2 = np.sum(np.abs(a) ** 2, axis=1)
    c2 = np.sum(np.abs(np.linalg.inv(a)) ** 2, axis=0)
    hs = np.arange(-3.0, 3.0 + 1e-12, 0.05)
    e2 = np.exp(2 * hs)
    s1 = e2[:, None, None] * r2[0] + e2[None, :, None] * r2[1] + e2[None, None, :] * r2[2]
    s2 = (1 / e2)[:, None, None] * c2[0] + (1 / e2)[None, :, None] * c2[1] + (1 / e2)[None, None, :] * c2[2]
    grid_best = math.sqrt(np.min(s1 * s2))
    assert math.log(rep.final_kF / grid_best) <= rep.certificate + 1e-2


def test_strongly_convex_bound_rejects_rank_deficient():
    a = np.diag([1.0, 0.0, 2.0])
    with pytest.raises(RankDeficientError):
        predicted_iteration_bound(a, diag_left(3), 2.0, strongly_convex=True)


def test_predicted_bound_default_follows_the_rank():
    """A left torus on a rank-deficient input gets the general bound by default,
    the regime the optimizer's own rank decision assigns it."""
    a = np.diag([1.0, 0.0, 2.0])
    cfg = diag_left(3)
    general = predicted_iteration_bound(a, cfg, 2.0, strongly_convex=False)
    assert predicted_iteration_bound(a, cfg, 2.0) == general == 481_991


def test_cross_condition_specialization(example1_matrix):
    cfgs = dict(target_eps=1e-3, max_iters=500)
    rep_a = minimize_condition(example1_matrix, diag_left(3, **cfgs))
    rep_b = minimize_cross_condition(example1_matrix, pseudoinverse(example1_matrix),
                                     diag_left(3, **cfgs))
    assert rep_a.iteration_count == rep_b.iteration_count
    for ra, rb in zip(rep_a.iterations, rep_b.iterations):
        assert ra.value == pytest.approx(rb.value, abs=1e-10)


def test_cross_identity_pair_zero_gradient():
    cfg = diag_left(4, target_eps=1e-3)
    rep = minimize_cross_condition(np.eye(4), np.eye(4), cfg)
    assert rep.iterations[0].grad_norm <= 1e-14


def test_cross_monotone_on_random_pair():
    rng = rng_for(61)
    A = complex_gaussian(rng, (4, 4))
    B = complex_gaussian(rng, (4, 4))
    cfg = OptimizerConfig(scheme=GroupScheme.diagonal(4, 4, side="both"),
                          target_eps=1e-2, max_iters=800)
    rep = minimize_cross_condition(A, B, cfg)
    vals = [r.value for r in rep.iterations]
    assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(len(vals) - 1))
    assert rep.final_kF <= rep.initial_kF + 1e-12


def test_predicted_bound_values():
    cfg = diag_left(3, target_eps=0.1)
    assert predicted_iteration_bound(np.eye(3), cfg, 3.0, strongly_convex=False) == 0

    # a 3x3 diagonal with kF exactly 10: diag(x, 1, 1), kF^2 = (x^2+2)(x^-2+2)
    from scipy.optimize import brentq

    x = brentq(lambda t: (t**2 + 2) * (t**-2 + 2) - 100.0, 1.0, 50.0)
    a10 = np.diag([x, 1.0, 1.0])
    assert condition_frobenius(a10) == pytest.approx(10.0, rel=1e-12)
    expected = math.ceil(2 * 4 * math.log(2.0) / (0.1 * 3.0**-1.5) ** 2)
    assert predicted_iteration_bound(a10, cfg, 5.0, strongly_convex=False) == expected


def test_predicted_bound_strongly_convex_formula():
    from scipy.optimize import brentq

    x = brentq(lambda t: (t**2 + 1) * (t**-2 + 1) - 100.0, 1.0, 50.0)
    a10 = np.diag([x, 1.0])
    cfg = diag_left(2, target_eps=1e-3)
    kstar = 2.0
    gap0 = math.log(10.0 / kstar)
    expected = math.ceil(100.0 * math.log(gap0 / 1e-3))
    assert predicted_iteration_bound(a10, cfg, kstar, strongly_convex=True) == expected
    assert predicted_iteration_bound(a10, cfg, kstar) == expected  # left, full rank


def test_empirical_iterations_below_predicted_bound():
    rng = rng_for(62)
    for n in (2, 3):
        a = np.diag(rng.uniform(0.5, 10.0, size=n)).astype(complex)
        cfg = diag_left(n, target_eps=1e-2, max_iters=200_000)
        rep = minimize_condition(a, cfg)
        assert rep.termination is Termination.CERTIFIED
        bound = predicted_iteration_bound(a, cfg, float(n))
        assert rep.iteration_count <= bound


def test_strongly_convex_linear_rate():
    a = np.diag([1.0, 10.0])
    rep = minimize_condition(a, diag_left(2, target_eps=1e-12, max_iters=300))
    fstar = math.log(2.0)
    kf2 = condition_frobenius(a) ** 2
    slope_bound = math.log(1.0 - 1.0 / kf2) + 0.01
    v0 = rep.iterations[0].value - fstar
    for rec in rep.iterations[1:201]:
        gap = rec.value - fstar
        if gap <= 1e-14:
            break  # converged to the optimum faster than the bound requires
        assert (math.log(gap) - math.log(v0)) / rec.iteration <= slope_bound


def test_report_csv_fields_present():
    rep = minimize_condition(np.diag([1.0, 4.0]), diag_left(2, target_eps=1e-3))
    rec = rep.iterations[0]
    assert rec._fields == ("iteration", "value", "grad_norm", "duality_bound", "kF", "kappa")


@pytest.mark.parametrize("estimator", [None, EstimatorConfig(num_probes=8, seed=3)],
                         ids=["exact", "estimator"])
def test_scipy_sparse_input_matches_complex_matrix(estimator):
    rng = rng_for(65)
    n = 30
    a = sp.random(n, n, density=0.15, random_state=np.random.RandomState(65)) + 2.0 * sp.eye(n)
    a = (sp.diags(np.exp(rng.normal(0.0, 1.0, size=n))) @ a).tocsr()
    r, c, v = sp.find(a)
    cm = ComplexMatrix.sparse(n, n, zip(r, c, v))
    cfg = diag_left(n, max_iters=5)
    got = minimize_condition(a, cfg, estimator=estimator)
    want = minimize_condition(cm, cfg, estimator=estimator)
    assert got.iterations == want.iterations
    assert got.termination is want.termination
    assert np.array_equal(got.final_element.X, want.final_element.X)


@pytest.mark.parametrize("side", ["left", "both"])
def test_non_finite_state_raises_before_any_step(side):
    """diag(1e300, 1e-300) overflows the norms; the first state is rejected, not stepped along."""
    cfg = OptimizerConfig(scheme=GroupScheme.diagonal(2, 2, side=side), max_iters=5)
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="iteration 0"):
        minimize_condition(np.diag([1e300, 1e-300]), cfg)


def test_halving_stall_converges_with_end_point_certificate():
    """No step of at least 1e-14 descends: CONVERGED, certified from the end-point gradient."""
    from geoprec.group import LieDirection, WeightData
    from geoprec.optimize import _descend, _State

    sch = GroupScheme.diagonal(2, side="left")
    ascent = LieDirection(sch, -np.eye(2))  # stepping against it grows X and the value

    def state_fn(g):
        v = float(np.trace(g.X).real)
        return _State(v, ascent, ascent.norm, v, v)

    weights = WeightData(1.0, 10.0 * ascent.norm)
    cfg = OptimizerConfig(scheme=sch, target_eps=1e-2, max_iters=50)
    start = sch.identity()
    rep = _descend(state_fn, start, cfg, weights, 0.5, halving=True)
    assert rep.termination is Termination.CONVERGED
    assert rep.iteration_count == 0
    assert rep.final_element is start
    assert rep.certificate == pytest.approx(-0.5 * math.log1p(-0.1), rel=1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_rejected_at_entry(bad):
    A = np.eye(3, dtype=complex)
    A[1, 2] = bad
    with pytest.raises(NonFiniteInputError):
        minimize_condition(A, diag_left(3))
    with pytest.raises(NonFiniteInputError):
        minimize_condition(sp.csr_matrix(A), diag_left(3))
    with pytest.raises(NonFiniteInputError):
        minimize_cross_condition(np.eye(3), A, diag_left(3))


@pytest.mark.parametrize("kw", [dict(max_iters=-1), dict(target_eps=0.0), dict(target_eps=-1e-2),
                                dict(target_eps=math.nan), dict(target_eps=math.inf)],
                         ids=["max_iters", "eps-zero", "eps-negative", "eps-nan", "eps-inf"])
def test_config_rejects_bad_cap_and_target(kw):
    """A negative cap leaves no state to report; a zero, negative or NaN target
    is never met, and an infinite one is met by any state."""
    with pytest.raises(ValueError):
        diag_left(3, **kw)


@pytest.mark.parametrize("kstar", [0.0, -1.0, math.inf, math.nan],
                         ids=["zero", "negative", "inf", "nan"])
def test_predicted_bound_rejects_a_bad_optimum_estimate(kstar):
    """The bound reads log(kF / kF*), which needs a finite positive kF*."""
    with pytest.raises(ValueError, match="kF_star_estimate"):
        predicted_iteration_bound(np.diag([1.0, 2.0, 3.0]), diag_left(3), kstar)


@pytest.mark.parametrize("scheme,shape", [
    (GroupScheme.diagonal(4), (5, 4)),
    (GroupScheme.diagonal(4, 3, side="both"), (4, 4)),
], ids=["rows", "two-sided-cols"])
def test_minimize_condition_rejects_a_matrix_of_another_shape(scheme, shape):
    with pytest.raises(DimensionMismatchError, match="does not match scheme"):
        minimize_condition(np.eye(*shape), OptimizerConfig(scheme=scheme))


def test_strongly_convex_bound_is_zero_within_eps_of_the_optimum():
    """gap0 = eps / 2 is positive but already below eps: no step is needed."""
    A, cfg = np.diag([1.0, 2.0, 3.0]), diag_left(3)
    kF_star = condition_frobenius(A) * math.exp(-0.5 * cfg.target_eps)
    assert predicted_iteration_bound(A, cfg, kF_star, strongly_convex=True) == 0
    assert predicted_iteration_bound(A, cfg, kF_star, strongly_convex=False) > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_predicted_bound_rejects_non_finite_input(bad):
    A = np.eye(3)
    A[0, 1] = bad
    with pytest.raises(NonFiniteInputError):
        predicted_iteration_bound(A, diag_left(3), 2.0)
