"""The entry factor of a left-only run: W = R^-* from one QR A* = Q R, or, for
a sparse A, W = U^-* D from the Cholesky factor U of the row-balanced Gram
matrix G = (D A)(D A)*.

A left-only objective log ||X A||_F + log ||A^-1 X^-1||_F reads A^-1 only
through the Gram blocks of its column slabs, which do not change when A^-1 is
multiplied on the left by a unitary.  So a left-only run takes W with
A^-1 = Q W instead of inverting A.  W has the column Gram blocks of A^-1,
hence the same rank decision, the same Gram factors and the same states: value,
kF, gradient, kappa and Hessian form agree with those read from inv(A) to
round-off, and a run keeps the trajectory of one whose states come from
inv(A).  A two-sided run still inverts A, since its dual action Y A^-1 X^-1
needs Q.

A sparse A (a sparse ComplexMatrix or a scipy.sparse matrix) takes the
Cholesky route when G is well conditioned: ``?potrf`` succeeds, ``?pocon``
reports eps <= 1e-12 rcond(G), and ||G^-1||_1, read from U^-1, keeps
eps cond_1(G) within 1e-12 as well.  Otherwise, for a zero,
repeated or nearly repeated row, it takes the QR route unchanged, and the QR
route alone makes the rank decision.  Dense storage always takes the QR route.
A sparse A is held as one canonical CSR, whatever its layout, and the
Cholesky route never densifies it; the QR route densifies it once.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import geoprec.optimize
from conftest import complex_gaussian, random_direction, random_element, rng_for
from geoprec.errors import RankDeficientError
from geoprec.group import GroupScheme, _adjoint
from geoprec.matrix import ComplexMatrix
from geoprec.objective import evaluate, gram_factors, hessian_quadratic_form
from geoprec.optimize import OptimizerConfig, minimize_condition, predicted_iteration_bound
from geoprec.stochastic import EstimatorConfig
from test_factorization import _real_element, _rel, _stacks

_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _left_scheme(draw):
    """A left torus, uniform or ragged block scheme on 2 to 144 rows."""
    kind = draw(st.sampled_from(["torus", "uniform", "ragged"]))
    m, size = draw(st.integers(2, 140)), draw(st.integers(2, 6))
    if kind == "torus":
        return GroupScheme.diagonal(m, side="left")
    m = size * max(1, m // size)
    if kind == "ragged":
        m += draw(st.integers(1, size - 1))
    return GroupScheme.blocked(m, size, side="left")


@st.composite
def _left_inputs(draw):
    """(A, scheme, g, H): a square full-rank A, real or complex, with rows graded
    up to exp(+-14), under a left torus, uniform or ragged block scheme, and a
    random element and direction of that scheme.  m reaches 140, so W's
    triangular inverse runs its halving at the sizes above 64."""
    sch = _left_scheme(draw)
    m = sch.m
    is_complex, grade = draw(st.booleans()), draw(st.floats(0.0, 14.0))
    rng = rng_for(720, draw(st.integers(0, 2**16)))
    noise = complex_gaussian(rng, (m, m)) if is_complex else rng.standard_normal((m, m))
    rows = np.exp(grade * rng.uniform(-1.0, 1.0, m))
    A = rows[:, None] * (np.eye(m) + 0.3 * noise / np.sqrt(2 * m))
    g = random_element(rng, sch) if is_complex else _real_element(rng, sch)
    return A, sch, g, random_direction(rng, sch, norm=1.0)


def _assert_states_of_the_inverse(A, a_inv, W, sch, g, H):
    """The state read from W at g, with its Hessian form along H, is the one
    read from a_inv = inv(A): value, kF, kappa, gradient and Hessian form to
    1e-12."""
    assert W.dtype == A.dtype
    got = evaluate(A, g, W, gram_factors(A, W, sch))
    ref = evaluate(A, g, a_inv, gram_factors(A, a_inv, sch))
    for field in ("value", "kF", "kappa"):
        assert _rel(getattr(got, field), getattr(ref, field)) <= 1e-12
    scale = max(ref.grad_norm, 1.0)
    for mine, theirs in zip(_stacks(got.grad), _stacks(ref.grad)):
        assert np.abs(mine - theirs).max() <= 1e-12 * scale
    h_got, h_ref = hessian_quadratic_form(got, H), hessian_quadratic_form(ref, H)
    assert abs(h_got - h_ref) <= 1e-12 * max(abs(h_ref), 1.0)


@_PROPERTY
@given(_left_inputs())
def test_entry_factor_gives_the_states_of_the_inverse(inp):
    A, sch, g, H = inp
    W = geoprec.optimize._entry_inverse(A, required=False, up_to_unitary=True)[0]
    a_inv = np.linalg.inv(A)
    gram = a_inv.conj().T @ a_inv
    assert np.linalg.norm(W.conj().T @ W - gram) <= 1e-12 * np.linalg.norm(gram)
    _assert_states_of_the_inverse(A, a_inv, W, sch, g, H)


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
    """Both routes take the one closed-form step and certify there."""
    n = 130
    A = _sparse_input(n, "complex")
    cfg = OptimizerConfig(scheme=GroupScheme.diagonal(n, side="left"), max_iters=4)
    est = EstimatorConfig(num_probes=8, seed=5)
    rep, ref = minimize_condition(A, cfg, estimator=est), inverting(A, cfg, estimator=est)
    assert (rep.iteration_count, rep.termination.value) == (ref.iteration_count, "certified")
    assert rep.iteration_count == 1
    assert max(_rel(r.kF, s.kF) for r, s in zip(rep.iterations, ref.iterations)) <= 1e-12


@pytest.mark.parametrize("storage", ["ComplexMatrix", "scipy"])
def test_an_exact_two_sided_or_non_square_sparse_run_builds_no_csr(storage, monkeypatch):
    """Only the left entry route reads the CSR of a sparse input, so an exact
    run that does not reach it builds none."""
    def refuse(A):
        raise AssertionError("a CSR was built")

    monkeypatch.setattr(geoprec.optimize, "_canonical_csr", refuse)
    a = _sparse_input(30, "real").to_dense()
    for b, sch in ((a, GroupScheme.diagonal(30, 30, side="both")),
                   (a[:, :20], GroupScheme.diagonal(30, side="left"))):
        rep = minimize_condition(_sparse_storage(b, storage), OptimizerConfig(scheme=sch,
                                                                               max_iters=2))
        assert rep.iteration_count == 2


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
    W = geoprec.optimize._entry_inverse(A, required=True, up_to_unitary=True)[0]
    assert _rel(geoprec.optimize._row_balanced_kF(A, W), 2.0) <= 1e-15


def _sparse_storage(A, kind):
    """A dense A as a sparse ComplexMatrix or as a scipy.sparse CSR."""
    if kind == "scipy":
        return sp.csr_matrix(A)
    r, c = np.nonzero(A)
    return ComplexMatrix.coordinate(A.shape[0], A.shape[1], r, c, A[r, c])


def _sparse_identity_plus(rng, m, k, is_complex=False):
    """I + 0.3 N / sqrt(2k) with k Gaussian entries N at random places in each row."""
    rows, cols = np.repeat(np.arange(m), k), rng.integers(0, m, m * k)
    vals = complex_gaussian(rng, m * k) if is_complex else rng.standard_normal(m * k)
    M = np.eye(m, dtype=vals.dtype)
    np.add.at(M, (rows, cols), 0.3 * vals / np.sqrt(2 * k))
    return M


@st.composite
def _sparse_left_inputs(draw):
    """(A, a, scheme, g, H, ill): a square full-rank A in sparse storage, a
    sparse ComplexMatrix or a scipy.sparse CSR, with dense copy a, real or
    complex, with rows graded up to exp(+-14), under a left torus, uniform or
    ragged block scheme, with a random element and direction.

    A is the identity plus up to 5 random entries per row.  An ill-conditioned
    A (ill) repeats one row in the next and adds delta = 2^-6 .. 2^-7 to the
    diagonal there.  That puts eps cond(G) of the balanced Gram matrix above
    1e-12, so the Cholesky route must refuse, while cond(D a) stays in the
    hundreds, where the QR route, like any inverse, reads the states to 1e-12.
    """
    sch = _left_scheme(draw)
    m = sch.m
    is_complex, grade, ill = draw(st.booleans()), draw(st.floats(0.0, 14.0)), draw(st.booleans())
    rng = rng_for(726, draw(st.integers(0, 2**16)))
    M = _sparse_identity_plus(rng, m, draw(st.integers(1, 5)), is_complex)
    if ill:
        i = draw(st.integers(0, m - 2))
        M[i + 1] = M[i]
        M[i + 1, i + 1] += 2.0 ** -draw(st.floats(6.0, 7.0))
    a = np.exp(grade * rng.uniform(-1.0, 1.0, m))[:, None] * M
    A = _sparse_storage(a, draw(st.sampled_from(["ComplexMatrix", "scipy"])))
    g = random_element(rng, sch) if is_complex else _real_element(rng, sch)
    return A, a, sch, g, random_direction(rng, sch, norm=1.0), ill


@_PROPERTY
@given(_sparse_left_inputs())
def test_sparse_entry_factor_gives_the_states_of_the_inverse(inp):
    """On either route: the Cholesky route for a well-conditioned A, the QR
    route for an ill-conditioned one."""
    A, a, sch, g, H, ill = inp
    a_csr = geoprec.optimize._canonical_csr(A)
    assert (geoprec.optimize._balanced_gram_inverse(a_csr) is None) == ill
    W = geoprec.optimize._entry_inverse(a_csr, required=False, up_to_unitary=True)[0]
    _assert_states_of_the_inverse(a, np.linalg.inv(a), W, sch, g, H)


@pytest.mark.parametrize("estimator", [None, EstimatorConfig(num_probes=8, seed=5)],
                         ids=["exact", "estimator"])
@pytest.mark.parametrize("storage", ["ComplexMatrix", "scipy"])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_well_conditioned_sparse_left_run_takes_one_cholesky_factorization(
        field, storage, estimator, lapack_calls, linalg_calls):
    """One potrf, and neither a QR nor an inverse of A; the run keeps the
    iterations, termination and kF, to 1e-12, of the same A stored densely,
    which takes the QR route."""
    n = 130
    a = _sparse_input(n, field).to_dense()
    cfg = OptimizerConfig(scheme=GroupScheme.blocked(n, 4, side="left"), max_iters=4)
    rep = minimize_condition(_sparse_storage(a, storage), cfg, estimator=estimator)
    assert [c for c in lapack_calls if c[0] == "potrf"] == [("potrf", 0)]
    assert linalg_calls["qr"] == []
    assert not any(x.shape == a.shape for x in linalg_calls["inv"])
    ref = minimize_condition(a, cfg, estimator=estimator)
    assert len(linalg_calls["qr"]) == 1
    assert (rep.iteration_count, rep.termination) == (ref.iteration_count, ref.termination)
    assert max(_rel(r.kF, s.kF) for r, s in zip(rep.iterations, ref.iterations)) <= 1e-12


def _readme_block(m=40):
    """The identity with its leading 2 x 2 block [[1, 1], [1, 1 + 2^-30]], kappa 4.3e9."""
    a = np.eye(m)
    a[:2, :2] = [[1.0, 1.0], [1.0, 1.0 + 2.0**-30]]
    return a


def _near_repeated_row(m=20):
    """I + 0.3 N / sqrt(6), 3 entries of N per row, whose row 11 repeats row 10
    but for 2^-6 added on its diagonal: eps cond(G) is 4.3e-12, but pocon
    reads G's reciprocal condition number 8 times too large and accepts it."""
    a = _sparse_identity_plus(rng_for(725, m, 4), m, 3)
    a[11] = a[10]
    a[11, 11] += 2.0**-6
    return a


@pytest.mark.parametrize("name", ["readme-block", "near-repeated-row"])
def test_ill_conditioned_sparse_left_run_takes_the_qr_route(name, lapack_calls, linalg_calls):
    """potrf fails, or pocon or the upper bound on ||G^-1||_1 refuses: the run
    takes one QR of A*, and its report is that of the same A stored densely,
    record for record.  Its states are those of inv(A) to the accuracy of the
    QR route: 1e-12 for the near-repeated row; 1e-6 for the README block,
    whose kappa(A) is 4.3e9 and whose QR-route W reads kF 4e-8 off
    inv(A)'s."""
    a = _readme_block() if name == "readme-block" else _near_repeated_row()
    m = a.shape[0]
    sch = GroupScheme.diagonal(m, side="left")
    cfg = OptimizerConfig(scheme=sch, max_iters=5)
    rep = minimize_condition(_sparse_storage(a, "ComplexMatrix"), cfg)
    assert lapack_calls[0][0] == "potrf"
    if name == "near-repeated-row":  # pocon accepted it; the upper bound did not
        assert lapack_calls[:3] == [("potrf", 0), ("pocon", 0), ("trtri", 0)]
        gram = a / np.abs(a).max(axis=1)[:, None]
        gram = gram @ gram.T
        assert np.finfo(float).eps * np.linalg.cond(gram) > 1e-12
    assert len(linalg_calls["qr"]) == 1 and np.array_equal(linalg_calls["qr"][0], a.T)
    ref = minimize_condition(a, cfg)
    assert rep.iterations == ref.iterations and rep.termination is ref.termination
    W = geoprec.optimize._entry_inverse(sp.csr_matrix(a), required=False, up_to_unitary=True)[0]
    tol = 1e-6 if name == "readme-block" else 1e-12
    rng = rng_for(727, m)
    for g in (sch.identity(float), _real_element(rng, sch)):
        got = evaluate(a, g, W, gram_factors(a, W, sch))
        want = evaluate(a, g, np.linalg.inv(a), gram_factors(a, np.linalg.inv(a), sch))
        assert _rel(got.value, want.value) <= tol and _rel(got.kF, want.kF) <= tol



def _uniform_in_the_gap(m=40):
    """0.4 + U on the diagonal and 3 entries U elsewhere in each row:
    eps cond_1(G) is 8.0e-13, within the budget, as pocon reports, but the
    upper bound on ||G^-1||_1 reads 1.26e-12."""
    rng = rng_for(728, m, 22)
    a = np.diag(0.4 + rng.uniform(size=m))
    for i in range(m):
        a[i, rng.choice(np.delete(np.arange(m), i), 3, replace=False)] = rng.uniform(size=3)
    return a


def test_the_1_norm_of_the_inverse_gram_decides_where_the_upper_bound_refuses(
        lapack_calls, linalg_calls):
    """pocon accepts and the upper bound on ||G^-1||_1 refuses; the 1-norm
    itself, from the column slabs of U^-1 U^-*, accepts.  So the run takes the
    Cholesky route, with no QR, keeps the report of the same A stored densely
    to 1e-12, and its states are those of inv(A) to 1e-12."""
    a = _uniform_in_the_gap()
    m = a.shape[0]
    sch = GroupScheme.diagonal(m, side="left")
    cfg = OptimizerConfig(scheme=sch, max_iters=5)
    rep = minimize_condition(_sparse_storage(a, "ComplexMatrix"), cfg)
    assert lapack_calls == [("potrf", 0), ("pocon", 0), ("trtri", 0)]
    assert linalg_calls["qr"] == []
    ref = minimize_condition(a, cfg)
    assert (rep.iteration_count, rep.termination) == (ref.iteration_count, ref.termination)
    assert max(_rel(r.kF, s.kF) for r, s in zip(rep.iterations, ref.iterations)) <= 1e-12
    W = geoprec.optimize._entry_inverse(sp.csr_matrix(a), required=False, up_to_unitary=True)[0]
    rng = rng_for(729, m)
    _assert_states_of_the_inverse(a, np.linalg.inv(a), W, sch, _real_element(rng, sch),
                                  random_direction(rng, sch, norm=1.0))


def _balanced_gram(a):
    d = a / np.abs(a).max(axis=1)[:, None]
    return d @ d.conj().T


@st.composite
def _gated_inputs(draw):
    """A square a, the identity plus up to 5 random entries per row, real or
    complex, with rows graded up to exp(+-14).  Near-dependent inputs repeat
    one row in the next but for delta added on its diagonal, with delta
    scaled from 2^-6 so that eps cond_1(G) lands near a target: at the
    gate's edge, 10^-13 .. 10^-11.5, where pocon and the upper bound on
    ||G^-1||_1 can disagree, or beyond it, up to 10^-2, where a gate that
    accepted would break the bound."""
    m = draw(st.integers(4, 200))
    rng = rng_for(735, draw(st.integers(0, 2**16)))
    M = _sparse_identity_plus(rng, m, draw(st.integers(1, 5)), draw(st.booleans()))
    near = draw(st.sampled_from([None, (-13.0, -11.5), (-11.5, -2.0)]))
    if near is not None:
        i, target = rng.integers(0, m - 1), 10.0 ** rng.uniform(*near)
        M[i + 1] = M[i]
        M[i + 1, i + 1] += 2.0**-6
        ratio = np.finfo(float).eps * np.linalg.cond(_balanced_gram(M), 1) / target
        M[i + 1, i + 1] += 2.0**-6 * (math.sqrt(ratio) - 1.0)  # cond(G) goes as delta^-2
    return np.exp(draw(st.floats(0.0, 14.0)) * rng.uniform(-1.0, 1.0, m))[:, None] * M


@_PROPERTY
@given(_gated_inputs())
@example(_near_repeated_row())  # pocon accepts it, the 1-norm of G^-1 refuses it
@example(_uniform_in_the_gap())  # the bound refuses it, the 1-norm of G^-1 accepts it
def test_the_cholesky_gate_is_the_rank_decision(a):
    """Where the Cholesky route accepts, the row-balanced kF of the dense
    copy, read with its QR-route W, is at most sqrt(1e-12 / eps) m^1.5, about
    67.1 m^1.5, and so below the QR route's rank cutoff 1 / (m eps): an
    accepted input has full rank."""
    m, eps = a.shape[0], np.finfo(float).eps
    if geoprec.optimize._balanced_gram_inverse(
            geoprec.optimize._canonical_csr(sp.csr_matrix(a))) is None:
        return
    W = geoprec.optimize._entry_inverse(a, required=True, up_to_unitary=True)[0]
    kF = geoprec.optimize._row_balanced_kF(a, W)
    assert kF <= math.sqrt(1e-12 / eps) * m**1.5
    assert kF < 1.0 / (m * eps)


def _singular(kind, m=30):
    a = _sparse_input(m, "real").to_dense()
    if kind == "zero-row":
        a[7] = 0.0
    else:
        a[7] = a[3]
    return a


@pytest.mark.parametrize("kind", ["zero-row", "repeated-row"])
def test_singular_sparse_left_input_leaves_the_cholesky_route(kind, lapack_calls, monkeypatch):
    """potrf fails on the zero pivot of a zero row; a repeated row's zero
    pivot may round to a tiny positive one, which pocon refuses.  Either way
    the route stops before its triangular inverse, and the QR route decides
    as for dense storage: an exact run takes the SVD path, with the report of
    the same A stored densely, and an estimator run raises
    RankDeficientError."""
    a = _singular(kind)
    A = _sparse_storage(a, "ComplexMatrix")
    cfg = OptimizerConfig(scheme=GroupScheme.diagonal(a.shape[0], side="left"), max_iters=5)
    inverses, real = [], geoprec.optimize.evaluate

    def spy(a, g, a_inv=None, factors=None):
        inverses.append(a_inv)
        return real(a, g, a_inv, factors)

    monkeypatch.setattr(geoprec.optimize, "evaluate", spy)
    rep = minimize_condition(A, cfg)
    potrf_failed = lapack_calls[0][0] == "potrf" and lapack_calls[0][1] > 0
    assert potrf_failed or kind == "repeated-row"
    # the one trtri is the QR route's
    assert [c[0] for c in lapack_calls] == ["potrf"] + ["pocon"] * (not potrf_failed) + ["trtri"]
    assert inverses and all(a_inv is None for a_inv in inverses)
    ref = minimize_condition(a, cfg)
    assert rep.iterations == ref.iterations and rep.termination is ref.termination
    with pytest.raises(RankDeficientError, match="assumes a full-rank input"):
        minimize_condition(A, cfg, estimator=EstimatorConfig(num_probes=4, seed=1))


@pytest.mark.parametrize("storage", ["ComplexMatrix", "scipy"])
def test_predicted_iteration_bound_reads_a_sparse_input_from_its_cholesky_factor(
        storage, lapack_calls):
    """The same bound for the sparse and the dense storage of one matrix, the
    sparse one read from the Cholesky route."""
    a = _sparse_input(60, "complex").to_dense()
    cfg = OptimizerConfig(scheme=GroupScheme.diagonal(60, side="left"))
    kF0 = np.linalg.norm(a) * np.linalg.norm(np.linalg.inv(a))
    got = predicted_iteration_bound(_sparse_storage(a, storage), cfg, kF0 / 3.0)
    assert [c for c in lapack_calls if c[0] == "potrf"] == [("potrf", 0)]
    assert got == predicted_iteration_bound(a, cfg, kF0 / 3.0) > 0


def _stored(a, storage, rng, zero_row=None):
    """a in sparse storage, each entry split into the exact parts v/2, v/4, v/4
    stored in random order, with an explicit zero in every row and, for
    zero_row, only explicit zeros in that row: a sparse ComplexMatrix, or a
    scipy CSR or COO whose indices are unsorted and repeated, or ("int") such
    a CSR of int64 values, for an a of multiples of 4."""
    r, c = np.nonzero(a)
    v = a[r, c]
    parts = (np.concatenate([r, r, r]), np.concatenate([c, c, c]),
             np.concatenate([0.5 * v, 0.25 * v, 0.25 * v]))
    m = a.shape[0]
    zeros = (np.arange(m), rng.integers(0, m, m), np.zeros(m, dtype=a.dtype))
    if zero_row is not None:
        zeros = [np.append(z, e) for z, e in zip(zeros, (zero_row, (zero_row + 1) % m, 0.0))]
    rows, cols, vals = (np.concatenate(p) for p in zip(parts, zeros))
    order = rng.permutation(len(vals))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if storage == "int":
        vals = vals.astype(np.int64)  # exact: every part of a multiple of 4 is an integer
    if storage == "ComplexMatrix":
        return ComplexMatrix.coordinate(m, m, rows, cols, vals)
    coo = sp.coo_matrix((vals, (rows, cols)), shape=a.shape)
    if storage == "coo":
        return coo
    by_row = np.argsort(rows, kind="stable")  # CSR rows in order, columns as they come
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=m))])
    csr = sp.csr_matrix((vals[by_row], cols[by_row], indptr), shape=a.shape)
    assert not csr.has_canonical_format
    return csr


@st.composite
def _stored_left_inputs(draw):
    """(A, a, scheme, zero_row): a square a, the identity plus up to 5 random
    entries per row graded up to exp(+-14), in the storage of ``_stored``, real,
    complex, or complex with every imaginary part zero, under a left torus, a
    4-block scheme or one with a ragged last block.  With zero_row, that row
    of a is zero and A stores it as explicit zeros.  The integer layout holds
    a real a rounded to multiples of 4, with rows graded up by exp(0 .. 14)."""
    kind = draw(st.sampled_from(["torus", "4-blocks", "ragged"]))
    m = 4 * draw(st.integers(1, 16)) + (draw(st.integers(1, 3)) if kind == "ragged" else 0)
    sch = GroupScheme.diagonal(m, side="left") if kind == "torus" else \
        GroupScheme.blocked(m, 4, side="left")
    storage = draw(st.sampled_from(["ComplexMatrix", "csr", "coo", "int"]))
    field = "real" if storage == "int" else \
        draw(st.sampled_from(["real", "complex", "complex-zero-imaginary"]))
    rng = rng_for(733, draw(st.integers(0, 2**16)))
    low = 0.0 if storage == "int" else -1.0
    a = np.exp(draw(st.floats(0.0, 14.0)) * rng.uniform(low, 1.0, m))[:, None] * \
        _sparse_identity_plus(rng, m, draw(st.integers(1, 5)), field == "complex")
    if storage == "int":
        a = 4.0 * np.rint(16.0 * a)
    zero_row = draw(st.one_of(st.none(), st.integers(0, m - 1))) if m > 1 else None
    if zero_row is not None:
        a[zero_row] = 0.0
    stored = a.astype(complex) if field == "complex-zero-imaginary" else a
    return _stored(stored, storage, rng, zero_row), a, sch, zero_row


def _close(x, y):
    return np.abs(x - y).max() <= 1e-12 * np.abs(y).max()


@_PROPERTY
@given(_stored_left_inputs())
def test_sparse_route_matches_the_dense_qr_route(inp):
    """A left run on sparse storage, whatever its layout, reads A from one
    canonical CSR and never densifies it; it matches the run on the dense copy,
    which takes the QR route, to 1e-12: the Gram blocks L_b L_b* and S_b* S_b,
    each iteration's kF, the termination and the final element, in float64
    where no entry has a nonzero imaginary part.  A row stored as explicit
    zeros is a zero row: the Cholesky route refuses it, and the run takes the
    SVD path as the dense copy does."""
    A, a, sch, zero_row = inp
    (csr,) = geoprec.optimize._finite(A, keep_sparse=True)
    assert sp.issparse(csr) and csr.has_canonical_format and csr.dtype == a.dtype
    assert np.all(csr.data != 0) and np.array_equal(csr.toarray(), a)
    if sp.issparse(A):  # the CSR of the ComplexMatrix of the same triplets, bit for bit
        coo = A.tocoo()
        (want,) = geoprec.optimize._finite(
            ComplexMatrix.coordinate(*A.shape, coo.row, coo.col, coo.data), keep_sparse=True)
        assert csr.dtype == want.dtype
        for got, ref in ((csr.indptr, want.indptr), (csr.indices, want.indices),
                         (csr.data, want.data)):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    found = geoprec.optimize._balanced_gram_inverse(csr)
    assert (found is None) == (zero_row is not None)
    cfg = OptimizerConfig(scheme=sch, max_iters=3)
    rep, ref = minimize_condition(A, cfg), minimize_condition(a, cfg)
    assert (rep.iteration_count, rep.termination) == (ref.iteration_count, ref.termination)
    assert max(_rel(r.kF, s.kF) for r, s in zip(rep.iterations, ref.iterations)) <= 1e-12
    assert rep.final_element.X.dtype == a.dtype
    assert _close(rep.final_element.X, ref.final_element.X)
    if zero_row is not None:
        return
    W, norms = geoprec.optimize._entry_inverse(csr, required=True, up_to_unitary=True)
    W_qr, _ = geoprec.optimize._entry_inverse(a, required=True, up_to_unitary=True)
    (L, S), (L_qr, S_qr) = gram_factors(csr, W, sch, norms), gram_factors(a, W_qr, sch)
    if sp.issparse(A):  # not a canonical CSR: the factors read its dense copy
        dense = gram_factors(A.toarray(), W_qr, sch)[0]
        assert all(np.array_equal(x, y) for x, y in zip(gram_factors(A, W_qr, sch)[0], dense))
    for x, y in zip(L, L_qr):
        assert x.dtype == y.dtype and _close(x @ _adjoint(x), y @ _adjoint(y))
    for x, y in zip(S, S_qr):
        assert x.dtype == y.dtype and _close(_adjoint(x) @ x, _adjoint(y) @ y)
    est = EstimatorConfig(num_probes=4, seed=1)
    rep, ref = minimize_condition(A, cfg, estimator=est), minimize_condition(a, cfg, estimator=est)
    assert (rep.iteration_count, rep.termination) == (ref.iteration_count, ref.termination)
    assert max(_rel(r.kF, s.kF) for r, s in zip(rep.iterations, ref.iterations)) <= 1e-12
    assert _close(rep.final_element.X, ref.final_element.X)


def _scale_input(m, storage):
    """6 entries per row, a diagonal 2 + U and 5 more U, rows scaled by
    exp(N(0, 1)): a sparse ComplexMatrix or scipy CSR that the Cholesky route
    takes."""
    rng = rng_for(734, m)
    offsets = np.arange(5) * (m // 5) + rng.integers(1, m // 5, (m, 5))  # 5 distinct, none 0
    cols = np.hstack([np.arange(m)[:, None], (np.arange(m)[:, None] + offsets) % m]).ravel()
    vals = np.hstack([2.0 + rng.uniform(size=(m, 1)), rng.uniform(size=(m, 5))])
    vals = (vals * np.exp(rng.standard_normal(m))[:, None]).ravel()
    rows = np.repeat(np.arange(m), 6)
    if storage == "scipy":
        return sp.csr_matrix((vals, (rows, cols)), shape=(m, m))
    return ComplexMatrix.coordinate(m, m, rows, cols, vals)


def _patch_densifying(monkeypatch, on_call):
    """Route every ComplexMatrix.to_dense and scipy toarray call through
    on_call(matrix) before it runs."""
    for cls, name in ((ComplexMatrix, "to_dense"), (sp.csr_matrix, "toarray"),
                      (sp.coo_matrix, "toarray"), (sp.csc_matrix, "toarray")):
        def spy(self, *args, _real=getattr(cls, name), **kwargs):
            on_call(self)
            return _real(self, *args, **kwargs)
        monkeypatch.setattr(cls, name, spy)


@pytest.mark.parametrize("storage", ["ComplexMatrix", "scipy"])
@pytest.mark.parametrize("size", [1, 4], ids=["torus", "4-blocks"])
def test_accepted_sparse_left_estimator_run_never_densifies_its_input(size, storage,
                                                                      monkeypatch):
    """With the Cholesky route, the entry reads A's CSR alone: no dense copy of
    A is made, so the run's tracemalloc peak at m = 1000 stays within 1.25
    times the 8 m^2 bytes of W, the one m x m array it holds."""
    import tracemalloc

    m = 1000
    A = _scale_input(m, storage)
    sch = GroupScheme.diagonal(m, side="left") if size == 1 else \
        GroupScheme.blocked(m, size, side="left")

    def refuse(matrix):
        raise AssertionError(f"a {matrix.shape} matrix was densified")

    _patch_densifying(monkeypatch, refuse)
    cfg, est = OptimizerConfig(scheme=sch, max_iters=3), EstimatorConfig(num_probes=8, seed=1)
    tracemalloc.start()
    try:
        rep = minimize_condition(A, cfg, estimator=est)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.iteration_count, rep.termination.value) == (1, "certified")
    assert peak <= 1.25 * 8 * m**2, peak / 1e6


@pytest.mark.parametrize("name", ["readme-block", "near-repeated-row"])
def test_refused_sparse_left_estimator_run_densifies_its_input_once(name, monkeypatch,
                                                                     linalg_calls):
    """Where the Cholesky route refuses, the entry densifies A once for its one
    QR of A*, and the run reads nothing dense of A after it."""
    a = _readme_block() if name == "readme-block" else _near_repeated_row()
    seen = []
    _patch_densifying(monkeypatch, lambda matrix: seen.append(matrix.shape))
    cfg = OptimizerConfig(scheme=GroupScheme.diagonal(a.shape[0], side="left"), max_iters=3)
    rep = minimize_condition(_sparse_storage(a, "ComplexMatrix"), cfg,
                             estimator=EstimatorConfig(num_probes=4, seed=1))
    assert seen == [a.shape]
    assert len(linalg_calls["qr"]) == 1 and np.array_equal(linalg_calls["qr"][0], a.T)
    assert rep.iteration_count == 1
