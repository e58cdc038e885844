import math

import numpy as np
import pytest

from conftest import complex_gaussian, random_unitary, rng_for
from geoprec.errors import (
    DimensionMismatchError,
    ZeroDiagonalEntryError,
    ZeroMatrixError,
    ZeroRowOrColumnError,
)
from geoprec.group import apply
from geoprec.matrix import (
    ComplexMatrix,
    condition_euclidean,
    condition_frobenius,
    condition_skeel,
    frobenius_norm,
    jacobi_precondition,
    pseudoinverse,
    row_balance,
    sinkhorn_equilibrate,
)


def test_frobenius_norm_identity():
    assert frobenius_norm(np.eye(3)) == pytest.approx(math.sqrt(3), rel=1e-15)


def test_frobenius_norm_example(example1_matrix):
    assert frobenius_norm(example1_matrix) == pytest.approx(math.sqrt(21), rel=1e-15)


def test_frobenius_norm_zero():
    assert frobenius_norm(np.zeros((2, 4))) == 0.0
    assert frobenius_norm(ComplexMatrix.sparse(2, 2, [])) == 0.0


def test_pseudoinverse_diagonal():
    out = pseudoinverse(np.diag([1.0, 2.0]))
    assert np.allclose(out, np.diag([1.0, 0.5]), atol=1e-14)


def test_pseudoinverse_rank_deficient_projector():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert np.allclose(pseudoinverse(a), a, atol=1e-14)


def test_pseudoinverse_penrose_identities():
    rng = rng_for(1)
    a = complex_gaussian(rng, (5, 3))
    p = pseudoinverse(a)
    na = np.linalg.norm(a)
    assert np.linalg.norm(a @ p @ a - a) <= 1e-10 * na
    assert np.linalg.norm(p @ a @ p - p) <= 1e-8 * np.linalg.norm(p)
    assert np.linalg.norm((a @ p).conj().T - a @ p) <= 1e-8
    assert np.linalg.norm((p @ a).conj().T - p @ a) <= 1e-8


def test_pseudoinverse_involution():
    rng = rng_for(2)
    a = complex_gaussian(rng, (4, 6))
    assert np.linalg.norm(pseudoinverse(pseudoinverse(a)) - a) <= 1e-8 * np.linalg.norm(a)


def test_pseudoinverse_zero_matrix():
    with pytest.raises(ZeroMatrixError):
        pseudoinverse(np.zeros((3, 3)))


def test_condition_frobenius_identity():
    assert condition_frobenius(np.eye(4)) == pytest.approx(4.0, rel=1e-12)


def test_condition_frobenius_diag12():
    assert condition_frobenius(np.diag([1.0, 2.0])) == pytest.approx(2.5, rel=1e-12)


def test_condition_frobenius_unitary():
    u = random_unitary(rng_for(3), 5)
    assert condition_frobenius(u) == pytest.approx(5.0, rel=1e-10)


def test_condition_euclidean_example1(example1_matrix):
    a = example1_matrix
    assert condition_euclidean(a) == pytest.approx(11.77, abs=0.01)
    xa = jacobi_precondition(a, "left")
    assert condition_euclidean(xa) == pytest.approx(15.35, abs=0.01)
    xay = jacobi_precondition(a, "two_sided")
    assert condition_euclidean(xay) == pytest.approx(12.59, abs=0.01)


def test_condition_skeel_diagonal_is_one():
    rng = rng_for(4)
    d = np.diag(rng.uniform(0.5, 3.0, size=6).astype(complex))
    assert condition_skeel(d) == pytest.approx(1.0, rel=1e-12)
    assert condition_skeel(np.eye(5)) == pytest.approx(1.0, rel=1e-14)


def test_condition_skeel_left_scaling_invariant():
    rng = rng_for(5)
    a = complex_gaussian(rng, (5, 5))
    x = np.diag(rng.uniform(0.2, 4.0, size=5))
    assert abs(condition_skeel(x @ a) - condition_skeel(a)) <= 1e-10 * condition_skeel(a)


def test_jacobi_identity_fixed_point():
    assert np.allclose(jacobi_precondition(np.eye(4), "left"), np.eye(4))
    assert np.allclose(jacobi_precondition(np.eye(4), "two_sided"), np.eye(4))


def test_jacobi_examples(example1_matrix):
    xa = jacobi_precondition(example1_matrix, "left")
    assert np.allclose(xa, [[1, 0, 0], [1, 1, 0], [0, 3, 1]])
    assert np.allclose(jacobi_precondition(np.diag([4.0, 9.0]), "two_sided"), np.eye(2))


@pytest.mark.filterwarnings("error")
def test_jacobi_two_sided_real_negative_diagonal():
    a = np.array([[-4.0, 1.0], [1.0, 9.0]])
    out = jacobi_precondition(a, "two_sided")
    assert out.dtype == complex
    assert np.allclose(out, jacobi_precondition(a.astype(complex), "two_sided"), rtol=1e-15, atol=0)
    assert np.allclose(np.diag(out), [1.0, 1.0])
    assert jacobi_precondition(np.diag([4.0, 9.0]), "two_sided").dtype == float


def test_jacobi_zero_diagonal():
    with pytest.raises(ZeroDiagonalEntryError) as info:
        jacobi_precondition(np.array([[1.0, 2.0], [3.0, 0.0]]), "left")
    assert info.value.index == 1


def test_row_balance():
    rng = rng_for(7)
    a = complex_gaussian(rng, (4, 6))
    balanced = apply(row_balance(a), a)
    norms = np.linalg.norm(balanced, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_sinkhorn_doubly_stochastic_fixed_point():
    a = np.array([[0.5, 0.5], [0.5, 0.5]])
    res = sinkhorn_equilibrate(a, tol=1e-12)
    assert res.converged
    x = np.diag(res.element.X).real
    y = np.diag(res.element.Y).real
    assert np.allclose(x / x[0], 1.0, atol=1e-10)
    assert np.allclose(y / y[0], 1.0, atol=1e-10)


def test_sinkhorn_equalizes_sums():
    a = np.array([[1.0, 1.0], [1.0, 3.0]])
    res = sinkhorn_equilibrate(a, max_iters=5000, tol=1e-10)
    assert res.converged
    scaled = np.abs(apply(res.element, a))
    rs = scaled.sum(axis=1)
    cs = scaled.sum(axis=0)
    assert np.max(np.abs(rs - rs.mean())) <= 1e-9
    assert np.max(np.abs(cs - cs.mean())) <= 1e-9
    assert res.element.X[0, 0] == 1.0


def test_sinkhorn_zero_row():
    with pytest.raises(ZeroRowOrColumnError) as info:
        sinkhorn_equilibrate(np.array([[0.0, 0.0], [1.0, 2.0]]))
    assert info.value.index == 0 and info.value.axis == 0


def test_unitary_invariance_of_condition_numbers():
    rng = rng_for(8)
    a = complex_gaussian(rng, (6, 6))
    u, v = random_unitary(rng, 6), random_unitary(rng, 6)
    kf, ke = condition_frobenius(a), condition_euclidean(a)
    assert abs(condition_frobenius(u @ a @ v) - kf) <= 1e-8 * kf
    assert abs(condition_euclidean(u @ a @ v) - ke) <= 1e-8 * ke


def test_condition_sandwich():
    rng = rng_for(9)
    for n in (2, 3, 5, 8):
        a = complex_gaussian(rng, (n, n))
        kf, ke = condition_frobenius(a), condition_euclidean(a)
        assert ke <= kf + 1e-9
        assert kf <= n * ke + 1e-9
        assert kf >= n - 1e-9  # Cauchy-Schwarz floor for full rank


def test_scale_invariance():
    rng = rng_for(10)
    a = complex_gaussian(rng, (5, 5))
    for fn in (condition_frobenius, condition_euclidean, condition_skeel):
        assert abs(fn(3.7 * a) - fn(a)) <= 1e-10 * fn(a)


def test_dense_sparse_agreement(example1_matrix):
    a = example1_matrix
    sp = ComplexMatrix.sparse(3, 3, [(i, j, a[i, j]) for i in range(3) for j in range(3)
                                     if a[i, j] != 0])
    de = ComplexMatrix.dense(a)
    for fn in (frobenius_norm, condition_frobenius, condition_euclidean, condition_skeel):
        assert abs(fn(sp) - fn(de)) <= 1e-12 * abs(fn(de))
    assert np.allclose(pseudoinverse(sp), pseudoinverse(de), atol=1e-14)


def test_sparse_canonicalization():
    m = ComplexMatrix.sparse(2, 2, [(0, 0, 1.0), (0, 0, 2.0), (1, 1, 1.0), (1, 1, -1.0)])
    r, c, v = m.triplets()
    assert list(r) == [0] and list(c) == [0] and list(v) == [3.0 + 0j]
    assert m.nnz == 1


def test_sparse_reads_any_three_item_triplets():
    """Lists and arrays serve as triplets as tuples do, and a generator is read once."""
    want = ComplexMatrix.sparse(2, 3, [(0, 2, 1.5), (1, 0, -2j)]).to_dense()
    for triplets in ([[0, 2, 1.5], [1, 0, -2j]], [np.array([0, 2, 1.5]), (1, 0, -2j)],
                     ((r, c, v) for r, c, v in [(0, 2, 1.5), (1, 0, -2j)])):
        assert np.array_equal(ComplexMatrix.sparse(2, 3, triplets).to_dense(), want)


def test_sparse_index_bounds():
    from geoprec.errors import DimensionMismatchError

    with pytest.raises(DimensionMismatchError):
        ComplexMatrix.sparse(2, 2, [(2, 0, 1.0)])


@pytest.mark.parametrize("call,error", [
    (lambda: jacobi_precondition(np.ones((2, 3))), DimensionMismatchError),
    (lambda: jacobi_precondition(np.eye(2), "right"), ValueError),
    (lambda: ComplexMatrix.dense(np.ones((0, 3))), DimensionMismatchError),
    (lambda: ComplexMatrix.sparse(2, 0, []), DimensionMismatchError),
    (lambda: ComplexMatrix.dense(np.ones(3)), DimensionMismatchError),
], ids=["jacobi-not-square", "jacobi-unknown-mode", "dense-no-rows", "sparse-no-cols",
        "dense-one-dimensional"])
def test_matrix_entry_points_reject_bad_arguments(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("index", [(1.7, 0), (0, 0.5), (math.nan, 0), (0, math.inf),
                                   (-1e-300, 0)],
                         ids=["fractional-row", "fractional-col", "nan", "inf", "tiny-negative"])
def test_sparse_rejects_an_index_that_is_not_an_integer(index):
    with pytest.raises(DimensionMismatchError):
        ComplexMatrix.sparse(2, 2, [(*index, 1.0)])
    with pytest.raises(DimensionMismatchError):
        ComplexMatrix.coordinate(2, 2, [index[0]], [index[1]], [1.0])


def test_sparse_takes_python_and_numpy_integers():
    want = np.array([[0.0, 2.0], [3.0, 0.0]])
    for r, c in [(0, 1), (np.int64(0), np.int32(1)), (np.uint8(0), 1.0)]:
        m = ComplexMatrix.sparse(2, 2, [(r, c, 2.0), (1, 0, 3.0)])
        assert np.array_equal(m.to_dense(), want)
        r_out, c_out, _ = m.triplets()
        assert r_out.dtype == c_out.dtype == np.int64


def test_coordinate_is_the_canonical_form_of_sparse():
    """Arrays given to coordinate and the same triplets given to sparse make the
    same entries, bit for bit: duplicates summed in the order given, zeros dropped."""
    rng = rng_for(223)
    r, c = rng.integers(0, 4, 40), rng.integers(0, 3, 40)
    for v in (rng.standard_normal(40) * 10.0 ** rng.integers(-20, 20, 40),
              complex_gaussian(rng, 40)):
        v[:5] = 0.0
        got = ComplexMatrix.coordinate(4, 3, r, c, v)
        want = ComplexMatrix.sparse(4, 3, zip(r, c, v))
        for a, b in zip(got.triplets(), want.triplets()):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("call,error,index", [
    (lambda: condition_skeel(np.ones(3)), DimensionMismatchError, None),
    (lambda: row_balance(np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]])),
     ZeroRowOrColumnError, (1, 0)),
    (lambda: sinkhorn_equilibrate(np.array([[1.0, 0.0, 2.0], [3.0, 0.0, 4.0]])),
     ZeroRowOrColumnError, (1, 1)),
], ids=["as-dense-one-dimensional", "row-balance-zero-row", "sinkhorn-zero-column"])
def test_matrix_functions_reject_degenerate_input(call, error, index):
    with pytest.raises(error) as info:
        call()
    if index is not None:
        assert (info.value.index, info.value.axis) == index


def test_operations_accept_complexmatrix_wrappers(example1_matrix):
    sp = ComplexMatrix.sparse(3, 3, [(i, j, example1_matrix[i, j]) for i in range(3)
                                     for j in range(3) if example1_matrix[i, j] != 0])
    xa = jacobi_precondition(sp, "left")
    assert np.allclose(xa, jacobi_precondition(example1_matrix, "left"))
    # Sinkhorn needs total support for fast equilibration: use a positive matrix
    pos = np.array([[1.0, 1.0], [1.0, 3.0]])
    res = sinkhorn_equilibrate(ComplexMatrix.dense(pos), tol=1e-10)
    assert res.converged


def test_sinkhorn_scalings_are_real_and_match_the_complex_cast():
    """Sinkhorn works on |A|, so its scalings are float64 for real and complex
    input alike, and a real A is scaled in real arithmetic to the matrix that the
    complex cast of A gives."""
    rng = np.random.default_rng(71)
    a = np.exp(rng.standard_normal((6, 6))) * rng.standard_normal((6, 6))
    real = sinkhorn_equilibrate(a).element
    cast = sinkhorn_equilibrate(a.astype(complex)).element
    for got, ref in ((real.X, cast.X), (real.Y, cast.Y)):
        assert got.dtype == ref.dtype == np.float64
        assert np.array_equal(got, ref)
    pre = apply(real, a)
    pre_cast = real.X.astype(complex) @ a.astype(complex) @ np.linalg.inv(real.Y.astype(complex))
    assert pre.dtype == np.float64
    assert np.allclose(pre, pre_cast, rtol=1e-14, atol=0)
    assert condition_frobenius(pre) == pytest.approx(condition_frobenius(pre_cast), rel=1e-12)


def test_conditions_from_singular_values_match_the_factorization():
    """condition_frobenius and condition_euclidean, computed without singular
    vectors, agree with the thin SVD and its rank cutoff, rank-deficient input included."""
    from geoprec.matrix import rank_tolerance

    rng = rng_for(72)
    for a in (complex_gaussian(rng, (7, 5)), complex_gaussian(rng, (6, 2)) @ complex_gaussian(rng, (2, 6))):
        s = np.linalg.svd(a, full_matrices=False)[1]
        pos = s[s > rank_tolerance(s, a.shape)]
        kf = np.linalg.norm(s) * np.linalg.norm(1.0 / pos)
        assert condition_frobenius(a) == pytest.approx(kf, rel=1e-12)
        assert condition_euclidean(a) == pytest.approx(pos[0] / pos[-1], rel=1e-12)
