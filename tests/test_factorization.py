"""How a condition state is factored, and where kappa is computed.

A square run whose input has full rank inverts A once, at entry.  A
two-sided run builds every state from D = B^-1 = Y A^-1 X^-1, the dual action
on that inverse; a left-only run, like a left-only cross run, builds factors of
the Gram blocks of A and A^-1 once and reads every state from them, acting on
neither matrix.  A left-only run needs A^-1 only up to a unitary factor on its
left, so it takes W = R^-* from one QR A* = Q R instead.  Every other run keeps
the thin SVD of B.  Full rank is decided from that inverse, by a test that no
scaling of A's rows changes.  The paths must
describe the same objective: on square full-rank inputs the inverse state and
the SVD state agree in value, kF, gradient and Hessian to round-off.  The
Euclidean kappa is computed at the end points of a run only.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import geoprec
import geoprec.objective
import geoprec.optimize
from conftest import complex_gaussian, random_direction, random_element, rng_for
from geoprec.cli import cli_dispatch
from geoprec.errors import RankDeficientError
from geoprec.group import GroupElement, GroupScheme, apply, apply_dual
from geoprec.matrix import ComplexMatrix, condition_euclidean
from geoprec.mmio import write_matrix
from geoprec.objective import evaluate, evaluate_cross, gram_factors, hessian_quadratic_form
from geoprec.optimize import OptimizerConfig, minimize_condition, minimize_cross_condition
from geoprec.polysys import precondition_full, precondition_shuffle, precondition_sparse
from geoprec.stochastic import EstimatorConfig
from test_trajectories import _polynomial

SQUARE = {
    "left-torus": GroupScheme.diagonal(7, side="left"),
    "left-uniform": GroupScheme.blocked(6, 2, side="left"),
    "left-ragged": GroupScheme.blocked(7, 3, side="left"),  # 3, 3 and a 1x1 tail
    "both-torus": GroupScheme.diagonal(6, 6, side="both"),
    "both-uniform": GroupScheme.blocked(6, 3, 6, side="both"),
    "both-ragged": GroupScheme.blocked(7, 4, 7, side="both", right_block_size=3),
}


def _real_element(rng, scheme, spread=0.5):
    """Random real symmetric positive definite block-diagonal element."""
    def positive(blocks, size):
        H = np.zeros((size, size))
        for a, b in blocks:
            M = rng.standard_normal((b - a, b - a))
            H[a:b, a:b] = 0.5 * (M + M.T)
        return sla.expm(spread * H)

    return GroupElement(scheme, positive(scheme.left_blocks, scheme.m),
                        positive(scheme.right_blocks, scheme.n) if scheme.side == "both" else None)


def _stacks(direction):
    return direction.left + (direction.right or ())


def _rel(a, b):
    return abs(a - b) / abs(b)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("name", sorted(SQUARE))
def test_inverse_state_matches_svd_state(name, field):
    sch = SQUARE[name]
    rng = rng_for(610, sorted(SQUARE).index(name), field == "real")
    if field == "real":
        A = np.exp(rng.standard_normal(sch.m))[:, None] * rng.standard_normal((sch.m, sch.m))
        g = _real_element(rng, sch)
    else:
        A = complex_gaussian(rng, (sch.m, sch.m))
        g = random_element(rng, sch)
    a_inv = np.linalg.inv(A)
    inv = evaluate(A, g, a_inv=a_inv)
    svd = evaluate(A, g)
    assert inv.B.dtype == svd.B.dtype == (np.float64 if field == "real" else np.complex128)
    assert _rel(inv.value, svd.value) <= 1e-12
    assert _rel(inv.kF, svd.kF) <= 1e-12
    for p, q in zip(_stacks(inv.grad), _stacks(svd.grad)):
        assert p.dtype == q.dtype
        assert np.linalg.norm(p - q) <= 1e-12 * svd.grad.norm
    assert _rel(inv.grad_norm, svd.grad_norm) <= 1e-12
    assert np.array_equal(inv.B_pinv, apply_dual(g, a_inv))
    assert np.linalg.norm(inv.B_pinv - svd.B_pinv) <= 1e-12 * np.linalg.norm(svd.B_pinv)
    H = random_direction(rng, sch, norm=1.0)
    h_inv, h_svd = hessian_quadratic_form(inv, H), hessian_quadratic_form(svd, H)
    assert abs(h_inv - h_svd) <= 1e-12 * max(abs(h_svd), 1.0)
    assert not inv.rank_deficient
    assert _rel(inv.kappa, svd.kappa) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["torus", "uniform", "ragged"]), st.integers(2, 9),
       st.integers(0, 2**16), st.booleans())
def test_gram_state_matches_svd_state(kind, m, seed, real):
    """A left-only state read from the Gram factors, through evaluate with the
    run's inverse and through evaluate_cross on the pair (A, A^-1), is the SVD
    state: value, kF and every gradient stack agree to 1e-12 relative."""
    sch = {"torus": GroupScheme.diagonal(m), "uniform": GroupScheme.blocked(2 * m, 2),
           "ragged": GroupScheme.blocked(3 * m + 1, 3)}[kind]
    rng = rng_for(619, seed)
    A = np.exp(rng.standard_normal(sch.m))[:, None] * (
        rng.standard_normal((sch.m, sch.m)) if real else complex_gaussian(rng, (sch.m, sch.m)))
    g = _real_element(rng, sch) if real else random_element(rng, sch)
    a_inv = np.linalg.inv(A)
    svd = evaluate(A, g)
    for state in (evaluate(A, g, a_inv=a_inv, factors=gram_factors(A, a_inv, sch)),
                  evaluate(A, g, a_inv=a_inv), evaluate_cross(A, a_inv, g)):
        assert _rel(state.value, svd.value) <= 1e-12
        assert _rel(state.kF, svd.kF) <= 1e-12
        for p, q in zip(state.grad.left, svd.grad.left):
            assert p.dtype == q.dtype
            assert np.linalg.norm(p - q) <= 1e-12 * svd.grad.norm


# [[1, 1], [1, 1 + 2^-30]] has kappa about 4.3e9 and the exact float inverse
# 2^30 [[1 + 2^-30, -1], [-1, 1]]; under the block-diagonal X = A^-1, B = X A
# is the identity exactly.
_NEAR_SINGULAR = np.array([[1.0, 1.0], [1.0, 1.0 + 2.0**-30]])


@pytest.mark.parametrize("scale", [(1.0,), (1.0, 2.0**40, 2.0**-40)], ids=["full", "blocked"])
def test_left_state_of_an_ill_conditioned_block_keeps_eps_kappa(scale):
    """At X = A^-1, with the rows of each 2x2 block nearly dependent, the
    left-only state reads kF = m and a zero gradient to about eps kappa, as
    the SVD state of B = X A does.  Gram blocks A_b A_b* taken in floating
    point would lose kF to eps kappa^2, about 1e3 times ||X A||_F^2."""
    A = sla.block_diag(*(c * _NEAR_SINGULAR for c in scale))
    a_inv = sla.block_diag(*(np.linalg.inv(_NEAR_SINGULAR) / c for c in scale))
    assert np.array_equal(a_inv @ A, np.eye(len(A)))
    sch = GroupScheme.full(2, side="left") if len(scale) == 1 else GroupScheme.blocked(6, 2)
    g = GroupElement(sch, a_inv)
    m = len(A)
    svd = evaluate(A, g)
    assert _rel(svd.kF, m) <= 1e-12 and svd.grad_norm <= 1e-12
    for state in (evaluate(A, g, a_inv=a_inv), evaluate_cross(A, a_inv, g),
                  evaluate(A, g, a_inv=a_inv, factors=gram_factors(A, a_inv, sch))):
        assert _rel(state.kF, m) <= 1e-5
        assert state.grad_norm <= 1e-5


@pytest.fixture
def actions(monkeypatch):
    """How often the objective acts on a matrix: calls of apply and apply_dual."""
    counts = {"apply": 0, "apply_dual": 0}

    def counting(name):
        real = getattr(geoprec.objective, name)

        def fn(*args):
            counts[name] += 1
            return real(*args)
        return fn

    for name in counts:
        monkeypatch.setattr(geoprec.objective, name, counting(name))
    return counts


@pytest.mark.parametrize("kind", ["exact", "estimator", "cross"])
def test_left_run_acts_on_a_matrix_only_for_its_end_point_kappas(kind, actions):
    """A left-only full-rank run reads every state from its Gram factors: B is
    formed once each for the first and the last kappa, which its singular
    values alone give, B^-1 never, and neither by an estimator run, which
    reports no kappa and takes one closed-form step to a certificate.  A left
    cross run forms B alone."""
    sch = GroupScheme.blocked(30, 4)
    A = _sparse_square(1).toarray()
    cfg = OptimizerConfig(scheme=sch, max_iters=5)
    if kind == "cross":
        rep = minimize_cross_condition(A, complex_gaussian(rng_for(620), (30, 30)), cfg)
    else:
        est = EstimatorConfig(num_probes=8, seed=1) if kind == "estimator" else None
        rep = minimize_condition(A, cfg, estimator=est)
    assert (rep.iteration_count, rep.termination.value) == \
        ((1, "certified") if kind == "estimator" else (5, "max_iters"))
    assert actions == {"exact": {"apply": 2, "apply_dual": 0},
                       "estimator": {"apply": 0, "apply_dual": 0},
                       "cross": {"apply": 2, "apply_dual": 0}}[kind]


def _rows(rng, m):
    return np.exp(1.5 * rng.standard_normal(m))[:, None]


def _svd_cases():
    r = rng_for(600, 0)
    yield "wide-left-block", _rows(r, 7) * complex_gaussian(r, (7, 9)), \
        GroupScheme.blocked(7, 3, side="left"), 200
    r = rng_for(600, 1)
    yield "tall-both-ragged", _rows(r, 9) * r.standard_normal((9, 6)), \
        GroupScheme.blocked(9, 4, 6, side="both", right_block_size=4), 120
    r = rng_for(600, 2)
    yield "rank3-both-diag", complex_gaussian(r, (6, 3)) @ complex_gaussian(r, (3, 6)), \
        GroupScheme.diagonal(6, 6, side="both"), 120
    r = rng_for(600, 3)
    yield "rank4-left-diag", _rows(r, 5) * (r.standard_normal((5, 4)) @ r.standard_normal((4, 5))), \
        GroupScheme.diagonal(5, side="left"), 200


# Recorded with the thin-SVD evaluation of every state, before the inverse
# path existed: name -> (termination, iterations, final kF, initial kappa,
# final kappa).  These runs still take the SVD path, so they match bit for bit.
# The two block entries were re-recorded once, when the SVD path stopped
# taking the polar factor after every step and took it of the returned element
# only, as every other run does: the same terminations and iteration counts,
# and final kF and kappa within 1.4e-14 relative of the per-step values
# (12.614178795952592 and 5.202075883023116; 6.325873630777413 and
# 1.7128700408187274).  The two torus entries did not move: a 1x1 polar
# factor is an abs.
SVD_PINNED = {
    "wide-left-block": ("certified", 69, 12.614178795952583, 85.45220239488975, 5.202075883023109),
    "tall-both-ragged": ("max_iters", 120, 6.325873630777387, 63.17719189812788,
                         1.7128700408187043),
    "rank3-both-diag": ("max_iters", 120, 3.1568763276074936, 2.2578775949946146,
                        1.4720956348071603),
    "rank4-left-diag": ("max_iters", 200, 34.45243713409689, 465.53550271616325,
                        26.109966976823262),
}


@pytest.fixture
def factorizations(monkeypatch):
    """The a_inv argument of every evaluate call minimize_condition makes."""
    seen = []

    def spy(a, g, a_inv=None, factors=None):
        seen.append(a_inv)
        return evaluate(a, g, a_inv, factors)

    monkeypatch.setattr(geoprec.optimize, "evaluate", spy)
    return seen


@pytest.mark.parametrize("case", list(_svd_cases()), ids=lambda c: c[0])
def test_rectangular_and_rank_deficient_runs_keep_the_svd(case, factorizations):
    name, A, sch, cap = case
    rep = minimize_condition(A, OptimizerConfig(scheme=sch, target_eps=1e-2, max_iters=cap))
    assert factorizations and all(a_inv is None for a_inv in factorizations)
    assert (rep.termination.value, rep.iteration_count, rep.final_kF, rep.initial_kappa,
            rep.final_kappa) == SVD_PINNED[name]


def test_square_full_rank_run_inverts_a_once(factorizations, monkeypatch):
    """One m x m inverse, of A at entry; every state gets that same inverse."""
    sch = SQUARE["both-ragged"]
    A = complex_gaussian(rng_for(611), (sch.m, sch.n))
    real_inv, square = np.linalg.inv, []

    def inv(a):
        if np.ndim(a) == 2:
            square.append(np.array(a))
        return real_inv(a)

    monkeypatch.setattr(np.linalg, "inv", inv)
    rep = minimize_condition(A, OptimizerConfig(scheme=sch, max_iters=20))
    assert len(square) == 1 and np.array_equal(square[0], A)
    assert len(factorizations) == rep.iteration_count + 1
    assert all(a_inv is factorizations[0] for a_inv in factorizations)
    assert np.array_equal(factorizations[0], real_inv(A))


def test_failed_entry_inverse_sends_an_exact_run_down_the_svd_path(tmp_path, factorizations,
                                                                   monkeypatch):
    """A LinAlgError from the entry inverse means that A is singular: the exact
    run factors every state with a thin SVD, reaches the states the inverse
    path reaches, and the command line exits 0."""
    sch = SQUARE["both-ragged"]
    A = complex_gaussian(rng_for(612), (sch.m, sch.n))
    cfg = OptimizerConfig(scheme=sch, max_iters=20)
    ref = minimize_condition(A, cfg)
    real_inv, calls = np.linalg.inv, []

    def singular(a):
        if np.ndim(a) != 2:
            return real_inv(a)
        calls.append(np.array(a))
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    factorizations.clear()
    rep = minimize_condition(A, cfg)
    assert len(calls) == 1 and np.array_equal(calls[0], A)
    assert len(factorizations) == rep.iteration_count + 1
    assert all(a_inv is None for a_inv in factorizations)
    assert rep.iteration_count == ref.iteration_count
    assert _rel(rep.final_kF, ref.final_kF) <= 1e-12
    path = tmp_path / "a.mtx"
    write_matrix(path, ComplexMatrix.dense(A))
    assert cli_dispatch(["precondition", "--input", str(path), "--out", str(tmp_path / "r.csv"),
                         "--max-iters", "3"]) == 0


def test_zero_on_the_entry_qr_diagonal_sends_a_left_run_down_the_svd_path(factorizations,
                                                                          monkeypatch):
    """A left-only run takes R from one QR A* = Q R; an exact zero on R's
    diagonal means that A is singular: the exact run factors every state with a
    thin SVD and reaches the states the QR path reaches, and an estimator run
    raises RankDeficientError."""
    sch = SQUARE["left-ragged"]
    A = complex_gaussian(rng_for(619), (sch.m, sch.n))
    cfg = OptimizerConfig(scheme=sch, max_iters=20)
    ref = minimize_condition(A, cfg)
    real_qr, calls = np.linalg.qr, []

    def zero_pivot(a, *args, **kwargs):
        r = real_qr(a, *args, **kwargs)
        if np.ndim(a) != 2:
            return r
        calls.append(np.array(a))
        r = r.copy()
        r[2, 2] = 0.0
        return r

    monkeypatch.setattr(np.linalg, "qr", zero_pivot)
    factorizations.clear()
    rep = minimize_condition(A, cfg)
    assert len(calls) == 1 and np.array_equal(calls[0], A.conj().T)
    assert len(factorizations) == rep.iteration_count + 1
    assert all(a_inv is None for a_inv in factorizations)
    assert rep.iteration_count == ref.iteration_count
    assert _rel(rep.final_kF, ref.final_kF) <= 1e-12
    with pytest.raises(RankDeficientError, match="assumes a full-rank input"):
        minimize_condition(A, cfg, estimator=EstimatorConfig(num_probes=4, seed=1))


def _graded(n=48):
    """A complex n x n matrix with shuffled row scales exp(-14) .. exp(14), kappa about 1.6e12."""
    rng = rng_for(616)
    rows = np.exp(np.linspace(-14.0, 14.0, n))
    rng.shuffle(rows)
    return rows[:, None] * (np.eye(n) + 0.3 * complex_gaussian(rng, (n, n)) / np.sqrt(2 * n))


# Recorded with a per-state inverse of B: (iterations, final kF).
GRADED_TORUS = (1058, 52.44334609612153)


def test_graded_torus_run_keeps_its_trajectory():
    """A one-sided torus run on a graded input, where A^-1 carries kappa(A)
    about 1.6e12, certifies as it did with a per-state inverse of B."""
    rep = minimize_condition(_graded(), OptimizerConfig(scheme=GroupScheme.diagonal(48)))
    assert rep.termination.value == "certified"
    assert rep.iteration_count == GRADED_TORUS[0]
    assert _rel(rep.final_kF, GRADED_TORUS[1]) <= 1e-12


def test_graded_block_run_certifies_below_the_torus():
    """The optimum needs 4x4 blocks with condition numbers far beyond the
    (4 eps)^-1/2 that an eigh of X* X resolves; the polar factor's SVD
    fallback lets the run certify, at no worse a kF than the torus."""
    rep = minimize_condition(_graded(), OptimizerConfig(scheme=GroupScheme.blocked(48, 4)))
    assert rep.termination.value == "certified"
    assert rep.final_kF <= GRADED_TORUS[1]
    conds = [np.linalg.cond(S) for S in rep.final_element.left[0]]
    assert max(conds) > (4 * np.finfo(float).eps) ** -0.5


def _assert_kappa_at_end_points(rep, first=None, last=None):
    kappas = [r.kappa for r in rep.iterations]
    assert len(kappas) >= 3
    assert all(math.isnan(k) for k in kappas[1:-1])
    assert kappas[0] == rep.initial_kappa and kappas[-1] == rep.final_kappa
    assert math.isfinite(rep.initial_kappa) and math.isfinite(rep.final_kappa)
    if first is None:
        return
    assert _rel(rep.initial_kappa, first) <= 1e-12
    assert _rel(rep.final_kappa, last) <= 1e-12


@pytest.mark.parametrize("key,name,field", [
    (0, "both-ragged", "complex"), (1, "left-torus", "real"),
    (2, "wide", "complex"), (3, "rank-deficient", "real"),
], ids=["both-ragged-complex", "left-torus-real", "wide-complex", "rank-deficient-real"])
def test_matrix_runs_report_kappa_at_the_end_points_only(key, name, field):
    rng = rng_for(613, key)
    if name == "wide":
        sch, A = GroupScheme.diagonal(5, side="left"), complex_gaussian(rng, (5, 8))
    elif name == "rank-deficient":
        sch = GroupScheme.diagonal(6, side="left")
        A = rng.standard_normal((6, 4)) @ rng.standard_normal((4, 6))
    else:
        sch = SQUARE[name]
        A = complex_gaussian(rng, (sch.m, sch.n)) if field == "complex" else \
            rng.standard_normal((sch.m, sch.n))
    rep = minimize_condition(A, OptimizerConfig(scheme=sch, max_iters=15))
    _assert_kappa_at_end_points(rep, condition_euclidean(A),
                                condition_euclidean(apply(rep.final_element, A)))


def test_cross_run_reports_kappa_at_the_end_points_only():
    sch = GroupScheme.blocked(5, 2, 4, side="both")
    rng = rng_for(614)
    A, B = complex_gaussian(rng, (5, 4)), complex_gaussian(rng, (4, 5))
    rep = minimize_cross_condition(A, B, OptimizerConfig(scheme=sch, max_iters=10))
    final = evaluate_cross(A, B, rep.final_element).B
    _assert_kappa_at_end_points(rep, condition_euclidean(A), condition_euclidean(final))


def test_polynomial_runs_report_kappa_at_the_end_points_only():
    """A shuffle run reports the kappa of its shuffled Gram square root at its
    end points; the full and sparse actions transform no matrix and report none."""
    f, xi = _polynomial(1, 2, 2, 2)
    sch = GroupScheme.full(2, side="left")
    _assert_kappa_at_end_points(
        precondition_shuffle(f, xi, sch, OptimizerConfig(scheme=sch, max_iters=8))[1])
    runs = [
        precondition_full(f, xi, GroupScheme.full(2, 2, side="both"),
                          OptimizerConfig(scheme=GroupScheme.full(2, 2, side="both"),
                                          max_iters=8))[1],
        precondition_sparse(f, xi, OptimizerConfig(scheme=sch, max_iters=8))[2],
    ]
    for rep in runs:
        assert len(rep.iterations) >= 3
        assert all(math.isnan(r.kappa) for r in rep.iterations)
        assert math.isnan(rep.initial_kappa) and math.isnan(rep.final_kappa)


def test_report_leaves_interior_kappa_cells_empty(tmp_path):
    path = tmp_path / "a.mtx"
    write_matrix(path, ComplexMatrix.dense(complex_gaussian(rng_for(615), (5, 5))))
    out = tmp_path / "r.csv"
    assert cli_dispatch(["precondition", "--input", str(path), "--out", str(out),
                         "--max-iters", "6"]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()
            if line[0].isdigit()]
    assert len(rows) == 7
    assert all(float(r[5]) > 1.0 for r in (rows[0], rows[-1]))
    assert all(r[5] == "" for r in rows[1:-1])


def test_import_leaves_scipy_linalg_unloaded():
    code = "import sys, geoprec; print('scipy.linalg' in sys.modules)"
    src = os.path.dirname(os.path.dirname(geoprec.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


@pytest.fixture
def svd_calls(monkeypatch):
    """The compute_uv flag of every np.linalg.svd call."""
    calls, real_svd = [], np.linalg.svd

    def svd(a, *args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    return calls


@pytest.mark.parametrize("case", [c for c in _svd_cases() if c[0] in ("wide-left-block",
                                                                       "tall-both-ragged")],
                         ids=lambda c: c[0])
def test_rectangular_exact_run_takes_no_entry_singular_values(case, svd_calls):
    """Only a square A is inverted, so a rectangular run's entry singular values
    would decide nothing: every SVD is a state's, the first giving initial_kappa."""
    name, A, sch, cap = case
    rep = minimize_condition(A, OptimizerConfig(scheme=sch, target_eps=1e-2, max_iters=cap))
    assert svd_calls == [True] * (rep.iteration_count + 1)
    assert (rep.termination.value, rep.iteration_count, rep.final_kF, rep.initial_kappa,
            rep.final_kappa) == SVD_PINNED[name]


def _sparse_square(key, m=30):
    rng = rng_for(617, key)
    S = sp.random(m, m, density=0.1, random_state=np.random.RandomState(617 + key), format="csr")
    return (sp.diags(np.exp(rng.standard_normal(m))) @ (S + 4.0 * sp.eye(m))).tocsr()


@pytest.mark.parametrize("scheme", [GroupScheme.diagonal(30, side="left"),
                                    GroupScheme.blocked(30, 3, 30, side="both")],
                         ids=["left-torus", "both-block"])
def test_square_estimator_run_takes_no_singular_values(scheme, svd_calls, lapack_calls,
                                                        linalg_calls):
    """One factorization at entry: for a left-only run, which needs A^-1 only
    up to a unitary factor on its left, one Cholesky factorization of the
    row-balanced Gram matrix of this sparse, well-conditioned A, and neither a
    QR nor an inverse of A; an inverse of A for a two-sided run; no singular
    values for the rank test or for kappa, which the run reports as NaN
    throughout.  The left-only run certifies after its one closed-form step."""
    A = _sparse_square(0)
    a = A.toarray()
    rep = minimize_condition(A, OptimizerConfig(scheme=scheme, max_iters=3),
                             estimator=EstimatorConfig(num_probes=8, seed=1))
    assert svd_calls == []
    if scheme.side == "left":
        assert [c for c in lapack_calls if c[0] == "potrf"] == [("potrf", 0)]
        assert linalg_calls["qr"] == []
        assert not any(x.shape == a.shape and np.array_equal(x, a) for x in linalg_calls["inv"])
    else:
        assert len(linalg_calls["inv"]) == 1 and np.array_equal(linalg_calls["inv"][0], a)
    assert (rep.iteration_count, rep.termination.value) == \
        ((1, "certified") if scheme.side == "left" else (3, "max_iters"))
    assert all(math.isnan(r.kappa) for r in rep.iterations)
    assert math.isnan(rep.initial_kappa) and math.isnan(rep.final_kappa)
    assert all(math.isfinite(r.kF) for r in rep.iterations)


def _rank4(scale_rows=None):
    rng = rng_for(618)
    A = rng.standard_normal((6, 4)) @ rng.standard_normal((4, 6))
    return A if scale_rows is None else scale_rows[:, None] * A


@pytest.mark.parametrize("A", [_rank4(), _rank4(np.geomspace(1e-8, 1e8, 6))],
                         ids=["rank4", "rank4-graded-rows"])
def test_estimator_run_rejects_a_rank_deficient_square_input(A):
    cfg = OptimizerConfig(scheme=GroupScheme.diagonal(6, side="left"), max_iters=3)
    with pytest.raises(RankDeficientError, match="assumes a full-rank input"):
        minimize_condition(A, cfg, estimator=EstimatorConfig(num_probes=4, seed=1))


def test_estimator_full_rank_check_ignores_row_scales():
    """diag(1, 1e-17) has full rank: its row-balanced kF is 2, whatever the
    scales of its rows.  So the run takes its closed-form step and certifies."""
    cfg = OptimizerConfig(scheme=GroupScheme.diagonal(2, side="left"), max_iters=2)
    rep = minimize_condition(np.diag([1.0, 1e-17]), cfg,
                             estimator=EstimatorConfig(num_probes=4, seed=1))
    assert (rep.iteration_count, rep.termination.value) == (1, "certified")
    assert _rel(rep.initial_kF, 1e17) <= 1e-12


@pytest.mark.parametrize("side", ["left", "both"])
@pytest.mark.parametrize("diag", [[1.0, 1e-17], [1e150, 1e-150]], ids=["1e-17", "1e150"])
def test_graded_diagonal_certifies_at_its_optimum(diag, side):
    """The rank decision reads the row-balanced input, so a diagonal input with
    entries far apart runs on its inverse and certifies at kF 2, the least kF
    of any full-rank 2 x 2 matrix."""
    sch = GroupScheme.diagonal(2, side="left") if side == "left" else \
        GroupScheme.diagonal(2, 2, side="both")
    rep = minimize_condition(np.diag(diag), OptimizerConfig(scheme=sch))
    assert rep.termination.value == "certified"
    assert 2.0 <= rep.final_kF <= 2.0 * math.exp(0.01)
    # A full-rank run takes kappa = sigma_max(B) / sigma_min(B), with no rank
    # cutoff; at the identity both kappa and kF are the ratio of the entries.
    assert _rel(rep.initial_kappa, diag[0] / diag[1]) <= 1e-12
    assert _rel(rep.initial_kF, diag[0] / diag[1]) <= 1e-12


def test_row_graded_run_reports_the_kF_of_its_final_matrix():
    """Rows scaled 1, 1e-9, 1e-17 and 1e3: the run certifies, and its final kF
    is that of the final B, not of a truncated one."""
    A = np.diag([1.0, 1e-9, 1e-17, 1e3]) @ np.random.default_rng(0).standard_normal((4, 4))
    rep = minimize_condition(A, OptimizerConfig(scheme=GroupScheme.diagonal(4, side="left")))
    B = apply(rep.final_element, A)
    assert rep.termination.value == "certified"
    assert _rel(rep.final_kF, np.linalg.norm(B) * np.linalg.norm(np.linalg.inv(B))) <= 1e-12
