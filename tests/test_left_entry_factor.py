"""The entry factor of a left-only run: W = R^-* from one QR A* = Q R.

A left-only objective log ||X A||_F + log ||A^-1 X^-1||_F reads A^-1 only
through the Gram blocks of its column slabs, which do not change when A^-1 is
multiplied on the left by a unitary.  So a left-only run takes W with
A^-1 = Q W instead of inverting A.  W has the column Gram blocks of A^-1,
hence the same rank decision, the same Gram factors and the same states: value,
kF, gradient, kappa and Hessian form agree with those read from inv(A) to
round-off, and a run keeps the trajectory of one whose states come from
inv(A).  A two-sided run still inverts A, since its dual action Y A^-1 X^-1
needs Q.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import geoprec.optimize
import geoprec.stochastic
from conftest import complex_gaussian, random_direction, random_element, rng_for
from geoprec.group import GroupScheme
from geoprec.matrix import ComplexMatrix
from geoprec.objective import evaluate, gram_factors, hessian_quadratic_form
from geoprec.optimize import OptimizerConfig, minimize_condition
from geoprec.stochastic import EstimatorConfig
from test_factorization import _real_element, _rel, _stacks

_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def _left_inputs(draw):
    """(A, scheme, g, H): a square full-rank A, real or complex, with rows graded
    up to exp(+-14), under a left torus, uniform or ragged block scheme, and a
    random element and direction of that scheme.  m reaches 140, so W's
    triangular inverse runs its halving at the sizes above 64."""
    kind = draw(st.sampled_from(["torus", "uniform", "ragged"]))
    m, size = draw(st.integers(2, 140)), draw(st.integers(2, 6))
    if kind == "torus":
        sch = GroupScheme.diagonal(m, side="left")
    else:
        m = size * max(1, m // size)
        if kind == "ragged":
            m += draw(st.integers(1, size - 1))
        sch = GroupScheme.blocked(m, size, side="left")
    is_complex, grade = draw(st.booleans()), draw(st.floats(0.0, 14.0))
    rng = rng_for(720, draw(st.integers(0, 2**16)))
    noise = complex_gaussian(rng, (m, m)) if is_complex else rng.standard_normal((m, m))
    rows = np.exp(grade * rng.uniform(-1.0, 1.0, m))
    A = rows[:, None] * (np.eye(m) + 0.3 * noise / np.sqrt(2 * m))
    g = random_element(rng, sch) if is_complex else _real_element(rng, sch)
    return A, sch, g, random_direction(rng, sch, norm=1.0)


@_PROPERTY
@given(_left_inputs())
def test_entry_factor_gives_the_states_of_the_inverse(inp):
    A, sch, g, H = inp
    W = geoprec.optimize._entry_inverse(A, required=False, up_to_unitary=True)
    a_inv = np.linalg.inv(A)
    assert W.dtype == A.dtype
    gram = a_inv.conj().T @ a_inv
    assert np.linalg.norm(W.conj().T @ W - gram) <= 1e-12 * np.linalg.norm(gram)
    got = evaluate(A, g, W, gram_factors(A, W, sch))
    ref = evaluate(A, g, a_inv, gram_factors(A, a_inv, sch))
    for field in ("value", "kF", "kappa"):
        assert _rel(getattr(got, field), getattr(ref, field)) <= 1e-12
    scale = max(ref.grad_norm, 1.0)
    for mine, theirs in zip(_stacks(got.grad), _stacks(ref.grad)):
        assert np.abs(mine - theirs).max() <= 1e-12 * scale
    h_got, h_ref = hessian_quadratic_form(got, H), hessian_quadratic_form(ref, H)
    assert abs(h_got - h_ref) <= 1e-12 * max(abs(h_ref), 1.0)


@pytest.fixture
def inverting(monkeypatch):
    """Make minimize_condition read its left-only states from inv(A) instead of W."""
    real = geoprec.optimize._entry_inverse

    def inverse(a, required, up_to_unitary=False):
        return real(a, required)

    def run(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(geoprec.optimize, "_entry_inverse", inverse)
            return minimize_condition(*args, **kwargs)
    return run


def _row_scaled(n, field):
    rng = rng_for(721, n, field == "real")
    rows = np.exp(1.5 * rng.standard_normal(n))[:, None]
    noise = complex_gaussian(rng, (n, n)) if field == "complex" else rng.standard_normal((n, n))
    return rows * noise


# n=48 runs certify at target 0.1 after 510-1320 steps; n=130 runs stop at a cap.
@pytest.mark.parametrize("n, max_iters", [(48, 1500), (130, 300)])
@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("size", [1, 4, 7], ids=["torus", "4-blocks", "ragged-7"])
def test_left_run_keeps_the_trajectory_of_the_inverse(n, max_iters, field, size, inverting):
    sch = GroupScheme.diagonal(n, side="left") if size == 1 else \
        GroupScheme.blocked(n, size, side="left")
    A = _row_scaled(n, field)
    cfg = OptimizerConfig(scheme=sch, target_eps=0.1, max_iters=max_iters)
    rep, ref = minimize_condition(A, cfg), inverting(A, cfg)
    assert ref.termination.value == ("certified" if n == 48 else "max_iters")
    assert (rep.iteration_count, rep.termination) == (ref.iteration_count, ref.termination)
    assert _rel(rep.final_kF, ref.final_kF) <= 1e-12
    assert _rel(rep.final_kappa, ref.final_kappa) <= 1e-12


def _sparse_input(n, field):
    rng = rng_for(722, n)
    S = sp.random(n, n, density=0.05, random_state=np.random.RandomState(722), format="coo")
    scale = np.exp(rng.standard_normal(n))
    vals = S.data + (1j * rng.standard_normal(S.nnz) if field == "complex" else 0.0)
    triplets = [(i, j, scale[i] * v) for i, j, v in zip(S.row, S.col, vals)]
    triplets += [(i, i, 4.0 * scale[i]) for i in range(n)]
    return ComplexMatrix.sparse(n, n, triplets)


def test_left_estimator_run_keeps_the_trajectory_of_the_inverse(inverting):
    n = 130
    A = _sparse_input(n, "complex")
    cfg = OptimizerConfig(scheme=GroupScheme.diagonal(n, side="left"), max_iters=4)
    est = EstimatorConfig(num_probes=8, seed=5)
    rep, ref = minimize_condition(A, cfg, estimator=est), inverting(A, cfg, estimator=est)
    assert (rep.iteration_count, rep.termination.value) == (ref.iteration_count, "max_iters")
    assert max(_rel(r.kF, s.kF) for r, s in zip(rep.iterations, ref.iterations)) <= 1e-12


@pytest.mark.parametrize("field", ["real", "complex"])
def test_estimator_takes_a_sparse_input_csr_from_its_triplets(field, monkeypatch):
    """A sparse ComplexMatrix reaches the estimator as the CSR of its canonical
    triplets, in the dtype it stores, the same arrays a CSR of the dense
    copy has."""
    A = _sparse_input(40, field)
    seen, real = [], geoprec.stochastic.estimate_gradient

    def spy(a, g, config):
        seen.append(a)
        return real(a, g, config)

    monkeypatch.setattr(geoprec.stochastic, "estimate_gradient", spy)
    minimize_condition(A, OptimizerConfig(scheme=GroupScheme.diagonal(40, side="left"),
                                          max_iters=2),
                       estimator=EstimatorConfig(num_probes=4, seed=1))
    ref = sp.csr_matrix(A.to_dense())
    assert len(seen) == 2
    for got in seen:
        assert got.dtype == ref.dtype
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(ref, name))


def _scored(a, a_inv):
    """The row-balanced kF as one formula over m x m temporaries."""
    scale = np.abs(a).max(axis=1)
    weights = np.linalg.norm(a / scale[:, None], axis=1) * np.linalg.norm(a_inv * scale, axis=0)
    return np.sqrt(a.shape[0]) * np.linalg.norm(weights)


@pytest.mark.parametrize("m", [1, 5, 64, 65, 200])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_rank_score_by_chunks_matches_the_whole_formula(m, field):
    """Rows graded over 1e+-300: the score read a chunk of rows at a time
    equals the formula over whole scaled copies to 1e-13, for an inverse in C
    order and for one in Fortran order, as W = R^-* is."""
    rng = rng_for(723, m, field == "real")
    noise = complex_gaussian(rng, (m, m)) if field == "complex" else rng.standard_normal((m, m))
    M = np.eye(m) + 0.3 * noise / np.sqrt(2 * m)
    rows = 10.0 ** rng.uniform(-300.0, 300.0, m)
    A, a_inv = rows[:, None] * M, np.linalg.inv(M) / rows  # no inverse of A overflows
    want = _scored(A, a_inv)
    assert np.isfinite(want)
    for order in (a_inv, np.asfortranarray(a_inv)):
        assert _rel(geoprec.optimize._row_balanced_kF(A, order), want) <= 1e-13


def test_rank_score_of_a_graded_diagonal_is_two():
    A = np.diag([1e300, 1e-300])
    W = geoprec.optimize._entry_inverse(A, required=True, up_to_unitary=True)
    assert _rel(geoprec.optimize._row_balanced_kF(A, W), 2.0) <= 1e-15
