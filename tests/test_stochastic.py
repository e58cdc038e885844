import numpy as np
import pytest
import scipy.sparse as sp

from conftest import complex_gaussian, random_element, rng_for
from geoprec._rng import substream
from geoprec.errors import DimensionMismatchError
from geoprec.group import GroupScheme, apply
from geoprec.objective import evaluate
from geoprec.stochastic import (
    _BlockPattern,
    CoGramOperator,
    EstimatorConfig,
    GramOperator,
    LinearOperator,
    MatrixOperator,
    block_hutchinson,
    block_lanczos_inverse_block,
    conjugate_gradient,
    estimate_gradient,
    hutchinson_diagonal_inverse,
)


def random_spd(rng, n, shift=None):
    m = complex_gaussian(rng, (n, n))
    shift = n if shift is None else shift
    return m @ m.conj().T + shift * np.eye(n)


def test_cg_identity_one_iteration():
    b = np.arange(1.0, 5.0).astype(complex)
    res = conjugate_gradient(MatrixOperator(np.eye(4, dtype=complex)), b, tol=1e-12)
    assert res.converged and res.iterations == 1
    assert np.allclose(res.x, b)


def test_cg_diagonal_solve():
    m = np.diag(np.arange(1.0, 6.0))
    res = conjugate_gradient(m, np.ones(5), tol=1e-12)
    assert res.converged
    assert np.allclose(res.x, 1.0 / np.arange(1.0, 6.0), atol=1e-10)


def test_cg_residual_tolerance():
    rng = rng_for(70)
    m = random_spd(rng, 50, shift=5.0)
    b = complex_gaussian(rng, 50)
    res = conjugate_gradient(m, b, tol=1e-9)
    assert res.converged
    assert np.linalg.norm(m @ res.x - b) <= 1e-9 * np.linalg.norm(b)


def test_adjoint_consistency_enforced():
    class Broken(LinearOperator):
        def _matvec(self, v):
            return 2.0 * v

        def _rmatvec(self, v):
            return 3.0 * v

    with pytest.raises(DimensionMismatchError):
        Broken(4, 4)


def test_hutchinson_identity_exact_zero_variance():
    cfg = EstimatorConfig(num_probes=7, seed=1)
    out = hutchinson_diagonal_inverse(MatrixOperator(np.eye(6, dtype=complex)), cfg)
    assert np.allclose(out.diag_estimate, 1.0, atol=1e-12)
    assert np.allclose(out.stderr, 0.0, atol=1e-12)


def test_hutchinson_diagonal_exact_per_probe():
    # Rademacher probes on a diagonal Gram matrix: z * M z = diag(M) identically
    a = np.diag([1.0, 2.0, 3.0]).astype(complex)
    cfg = EstimatorConfig(num_probes=3, seed=2, cg_tol=1e-12)
    out = hutchinson_diagonal_inverse(MatrixOperator(a), cfg)
    assert np.allclose(out.diag_estimate, [1.0, 0.25, 1.0 / 9.0], atol=1e-9)
    assert np.allclose(out.stderr, 0.0, atol=1e-9)


def _sparse_full_row_rank(seed, m=60, n=100, density=0.08):
    rng = substream(900, seed)
    a = sp.random(m, n, density=density, random_state=np.random.RandomState(1000 + seed),
                  dtype=float).tolil()
    for i in range(m):
        a[i, i] = 2.0 + rng.uniform()
    return a.tocsr().astype(complex)


def test_hutchinson_error_bound_sparse_oracle():
    hits = 0
    for seed in range(10):
        a = _sparse_full_row_rank(seed)
        minv = np.linalg.inv((a @ a.conj().T).toarray())
        true_diag = np.diag(minv).real
        off = minv - np.diag(np.diag(minv))
        bound = 3.0 * np.linalg.norm(off, "fro") / np.sqrt(400)
        cfg = EstimatorConfig(num_probes=400, seed=seed, cg_tol=1e-10)
        out = hutchinson_diagonal_inverse(MatrixOperator(a), cfg)
        hits += np.linalg.norm(out.diag_estimate - true_diag) <= bound
    assert hits >= 8


def test_hutchinson_monte_carlo_rate():
    """Error roughly halves for each 4x probe increase on a fixed instance."""
    a = _sparse_full_row_rank(3)
    minv = np.linalg.inv((a @ a.conj().T).toarray())
    true_diag = np.diag(minv).real
    errs = []
    for probes in (100, 400, 1600):
        cfg = EstimatorConfig(num_probes=probes, seed=11, cg_tol=1e-10)
        out = hutchinson_diagonal_inverse(MatrixOperator(a), cfg)
        errs.append(np.linalg.norm(out.diag_estimate - true_diag))
    assert errs[2] < errs[0]
    assert errs[1] <= 0.9 * errs[0] and errs[2] <= 0.9 * errs[1]
    assert errs[2] <= 0.5 * errs[0]


def test_matvec_accounting():
    a = _sparse_full_row_rank(5)
    op = MatrixOperator(a)
    cfg = EstimatorConfig(num_probes=20, seed=4, cg_tol=1e-10)
    hutchinson_diagonal_inverse(op, cfg)
    # x0 = 0 means exactly one Gram application (one matvec + one rmatvec) per
    # CG iteration and none elsewhere
    assert op.matvec_count == op.rmatvec_count
    gram = GramOperator(op)
    jacobi = sp.diags(1.0 / (a @ a.conj().T).diagonal())
    hutchinson_diagonal_inverse(op, cfg, precond=jacobi)
    assert op.matvec_count == op.rmatvec_count
    for precond in (None, jacobi):
        before = op.matvec_count
        res = conjugate_gradient(gram, np.ones(op.m, dtype=complex), tol=1e-10, precond=precond)
        assert op.matvec_count - before == res.iterations


def test_block_hutchinson_identity():
    op = MatrixOperator(np.eye(9, dtype=complex))
    blk = block_hutchinson(op, (3, 7), num_probes=12, seed=5)
    assert np.allclose(blk, np.eye(4), atol=1e-12)


def test_block_hutchinson_r1_matches_gaussian_hutchinson():
    rng = rng_for(71)
    m = random_spd(rng, 12, shift=2.0)
    op = MatrixOperator(m)
    est = block_hutchinson(op, (4, 5), num_probes=64, seed=6)
    # the one-coordinate regression solves min_w ||g w - z||: w = <g, z>/<g, g>
    g = substream(6, 0).standard_normal((12, 64))[4, :]
    z = np.stack([m @ substream(6, 0).standard_normal((12, 64))[:, j] for j in range(64)], axis=1)[4, :]
    w = np.vdot(g, z) / np.vdot(g, g)
    assert est[0, 0] == pytest.approx(w.real, rel=1e-10)


def test_block_hutchinson_error_bound():
    hits = 0
    for seed in range(10):
        rng = substream(905, seed)
        m = random_spd(rng, 80, shift=8.0)
        op = MatrixOperator(m)
        est = block_hutchinson(op, (0, 5), num_probes=300, seed=seed)
        true_block = m[:5, :5]
        rest = m.copy()
        rest[:5, :5] = 0.0
        bound = 3.0 * np.linalg.norm(rest, "fro") / np.sqrt(300)
        hits += np.linalg.norm(est - true_block) <= bound
    assert hits >= 8


def test_block_lanczos_identity():
    op = MatrixOperator(np.eye(7, dtype=complex))
    blk = block_lanczos_inverse_block(op, (2, 5), iters=1)
    assert np.allclose(blk, np.eye(3), atol=1e-12)


def test_block_lanczos_full_krylov_exact():
    m = np.diag([1.0, 2.0, 4.0, 8.0]).astype(complex)
    blk = block_lanczos_inverse_block(MatrixOperator(m), (0, 2), iters=4)
    assert np.allclose(blk, np.diag([1.0, 0.5]), atol=1e-10)


def test_block_lanczos_error_decay():
    rng = rng_for(72)
    q = np.linalg.qr(rng.standard_normal((60, 60)))[0]
    eig = np.linspace(1.0, 100.0, 60)
    m = ((q * eig) @ q.T).astype(complex)
    true_block = np.linalg.inv(m)[:5, :5]
    errs = []
    for iters in (5, 10, 20, 40):
        est = block_lanczos_inverse_block(MatrixOperator(m), (0, 5), iters)
        errs.append(np.linalg.norm(est - true_block))
    for a, b in zip(errs, errs[1:]):
        assert b <= a + 1e-12


def test_estimate_gradient_identity_zero():
    n = 10
    sch = GroupScheme.diagonal(n, side="left")
    out = estimate_gradient(np.eye(n, dtype=complex), sch.identity(),
                            EstimatorConfig(num_probes=4, seed=7))
    assert np.allclose(out.H1, 0.0, atol=1e-10)


def test_estimate_gradient_diagonal_matches_exact():
    d = np.diag([1.0, 3.0, 0.5, 2.0]).astype(complex)
    sch = GroupScheme.diagonal(4, side="left")
    g = sch.identity()
    est = estimate_gradient(d, g, EstimatorConfig(num_probes=6, seed=8, cg_tol=1e-12))
    exact = evaluate(d, g).grad
    assert np.allclose(est.H1, exact.H1, atol=1e-8)


def _scaled_sparse(seed, n=120, density=0.05):
    rng = substream(7, seed)
    a = sp.random(n, n, density=density, random_state=np.random.RandomState(2000 + seed),
                  dtype=float).tolil()
    for i in range(n):
        a[i, i] = 2.0 + rng.uniform()
    scales = np.exp(rng.normal(0.0, 1.0, size=n))
    return (sp.diags(scales) @ a.tocsr()).astype(complex)


def test_preconditioned_cg_on_scaled_gram():
    # m = 1000 with 5 off-diagonal entries per row, the size of the benchmark's
    # estimator instances; at n = 120 plain CG needs only about 300 iterations
    a = _scaled_sparse(0, n=1000, density=0.005)
    gram_matrix = a @ a.conj().T
    gram = GramOperator(MatrixOperator(a))
    b = complex_gaussian(rng_for(75), 1000)
    tol = 1e-8
    plain = conjugate_gradient(gram, b, tol=tol)
    pre = conjugate_gradient(gram, b, tol=tol, precond=sp.diags(1.0 / gram_matrix.diagonal()))
    nb = np.linalg.norm(b)
    for res in (plain, pre):
        assert res.converged
        assert np.linalg.norm(gram_matrix @ res.x - b) <= tol * nb
    assert 10 * pre.iterations <= plain.iterations
    assert np.linalg.norm(gram_matrix @ (pre.x - plain.x)) <= 2 * tol * nb


def test_block_pattern_gram_blocks():
    """Gram blocks of B = g . A against dense block diagonals, ragged blocks of 4."""
    rng = rng_for(76)
    n = 23
    sch = GroupScheme.blocked(n, 4, n, side="both")
    g = random_element(rng, sch)
    a = sp.random(n, n, density=0.3, random_state=np.random.RandomState(76)) + sp.eye(n)
    left, right = _BlockPattern(sch.left_blocks), _BlockPattern(sch.right_blocks)
    B = left.restrict(g.X) @ a.astype(complex) @ right.restrict(g.Y, invert=True)
    dense_b = apply(g, a.toarray())
    assert np.allclose(B.toarray(), dense_b, atol=1e-12)
    assert np.allclose(right.restrict(g.Y, invert=True).toarray(),
                       np.linalg.inv(g.Y), atol=1e-12)
    Bc = B.conj().T.tocsr()
    for pattern, gram, dense_gram in ((left, B @ Bc, dense_b @ dense_b.conj().T),
                                      (right, Bc @ B, dense_b.conj().T @ dense_b)):
        ref = np.zeros_like(dense_gram)
        for lo, hi in pattern.blocks:
            ref[lo:hi, lo:hi] = dense_gram[lo:hi, lo:hi]
        assert np.allclose(pattern.restrict(gram).toarray(), ref, atol=1e-12)
        assert np.allclose(pattern.restrict(gram, invert=True).toarray(),
                           np.linalg.inv(ref), atol=1e-10)


def test_estimate_gradient_sparse_accuracy():
    hits = 0
    sch = GroupScheme.diagonal(120, side="left")
    g = sch.identity()
    for seed in range(10):
        a = _scaled_sparse(seed)
        est = estimate_gradient(a, g, EstimatorConfig(num_probes=500, seed=seed, cg_tol=1e-6))
        exact = evaluate(a.toarray(), g).grad
        rel = np.linalg.norm(est.H1 - exact.H1) / np.linalg.norm(exact.H1)
        hits += rel <= 0.1
    assert hits >= 8


def test_estimate_gradient_block_both_sides():
    rng = rng_for(73)
    n = 24
    a = complex_gaussian(rng, (n, n)) + 4.0 * np.eye(n)
    a = np.diag(np.exp(rng.normal(0.0, 1.0, size=n))) @ a  # uneven row scales
    sch = GroupScheme.blocked(n, 4, n, side="both")
    g = sch.identity()
    est = estimate_gradient(a, g, EstimatorConfig(num_probes=800, seed=9, cg_tol=1e-10))
    exact = evaluate(a, g).grad
    assert np.linalg.norm(est.H1 - exact.H1) <= 0.15 * np.linalg.norm(exact.H1)
    assert np.linalg.norm(est.H2 - exact.H2) <= 0.15 * np.linalg.norm(exact.H2)


def test_gram_operators_consistent():
    rng = rng_for(74)
    a = complex_gaussian(rng, (5, 8))
    op = MatrixOperator(a)
    v = complex_gaussian(rng, 5)
    assert np.allclose(GramOperator(op).matvec(v), a @ (a.conj().T @ v))
    w = complex_gaussian(rng, 8)
    assert np.allclose(CoGramOperator(op).matvec(w), a.conj().T @ (a @ w))
