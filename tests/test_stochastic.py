import numpy as np
import pytest
import scipy.sparse as sp

from conftest import complex_gaussian, random_element, rng_for
from geoprec import stochastic
from geoprec._rng import rademacher, substream
from geoprec.errors import (
    BreakdownError,
    DimensionMismatchError,
    NotConvergedError,
    SingularProbeBlockError,
)
from geoprec.group import GroupScheme, apply, split_blocks
from geoprec.objective import evaluate
from geoprec.stochastic import (
    _BlockPattern,
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


@pytest.mark.parametrize("cg_tol", [0.0, -1e-8, float("nan"), float("inf")])
def test_estimator_config_rejects_bad_cg_tol(cg_tol):
    with pytest.raises(ValueError, match="cg_tol"):
        EstimatorConfig(cg_tol=cg_tol)


@pytest.mark.parametrize("call", [
    lambda: EstimatorConfig(num_probes=0),
    lambda: block_lanczos_inverse_block(MatrixOperator(np.eye(4)), (0, 2), iters=0),
], ids=["no-probes", "no-lanczos-steps"])
def test_estimator_rejects_a_count_below_one(call):
    with pytest.raises(ValueError, match="at least 1"):
        call()


@pytest.mark.parametrize("scheme,shape", [
    (GroupScheme.diagonal(4), (5, 4)),
    (GroupScheme.diagonal(4, 6, side="both"), (4, 6)),
], ids=["rows", "two-sided-not-square"])
def test_estimate_gradient_rejects_a_matrix_of_another_shape(scheme, shape):
    with pytest.raises(DimensionMismatchError):
        estimate_gradient(np.ones(shape), scheme.identity(), EstimatorConfig(num_probes=4))


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


@pytest.mark.filterwarnings("error")
def test_hutchinson_one_probe_has_a_zero_standard_error():
    a = np.diag([1.0, 2.0, 3.0])
    out = hutchinson_diagonal_inverse(MatrixOperator(a), EstimatorConfig(num_probes=1, seed=4))
    assert np.allclose(out.diag_estimate, [1.0, 0.25, 1.0 / 9.0], rtol=1e-8)
    assert np.array_equal(out.stderr, np.zeros(3))


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


def test_block_lanczos_partial_rank_loss_raises():
    """Started from e0, an eigenvector of M, and e1, which is not: the first
    residual block has rank one, and the method does not deflate."""
    m = np.array([[2.0, 0.0, 0.0], [0.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
    with pytest.raises(BreakdownError) as info:
        block_lanczos_inverse_block(MatrixOperator(m), (0, 2), iters=3)
    assert info.value.iteration == 1


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
    left = _BlockPattern(g.left, sch.left_runs, n)
    right = _BlockPattern(g.right, sch.right_runs, n, invert=True)
    B = left.mat @ a.astype(complex) @ right.mat
    dense_b = apply(g, a.toarray())
    assert np.allclose(B.toarray(), dense_b, atol=1e-12)
    assert np.array_equal(left.mat.toarray(), g.X)
    assert np.allclose(right.mat.toarray(), np.linalg.inv(g.Y), atol=1e-12)
    Bc = B.conj().T.tocsr()
    for pattern, blocks, gram, dense_gram in (
            (left, sch.left_blocks, B @ Bc, dense_b @ dense_b.conj().T),
            (right, sch.right_blocks, Bc @ B, dense_b.conj().T @ dense_b)):
        ref = np.zeros_like(dense_gram)
        for lo, hi in blocks:
            ref[lo:hi, lo:hi] = dense_gram[lo:hi, lo:hi]
        vals = pattern.values(gram)
        on_pattern = sp.csr_matrix((vals, (pattern.rows, pattern.cols)), shape=(n, n))
        assert np.allclose(on_pattern.toarray(), ref, atol=1e-12)
        inverse = _BlockPattern(split_blocks(vals, pattern.runs), pattern.runs, n, invert=True)
        assert np.allclose(inverse.mat.toarray(), np.linalg.inv(ref), atol=1e-10)


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


@pytest.mark.parametrize("probes", [3, 4])
@pytest.mark.parametrize("side", ["left", "both"])
def test_estimate_gradient_rejects_blocks_wider_than_the_probes(side, probes):
    """A 5-row block sketched by fewer probes is an underdetermined regression:
    it must raise, not return the minimum-norm fit."""
    a = complex_gaussian(rng_for(77), (12, 12)) + 4.0 * np.eye(12)
    sch = GroupScheme.blocked(12, 5, 12, side="both") if side == "both" \
        else GroupScheme.blocked(12, 5, side="left")
    with pytest.raises(DimensionMismatchError, match="probe count"):
        estimate_gradient(a, sch.identity(), EstimatorConfig(num_probes=probes, seed=1))


def test_block_hutchinson_rejects_blocks_wider_than_the_probes():
    with pytest.raises(DimensionMismatchError, match="probe count"):
        block_hutchinson(MatrixOperator(np.eye(10)), (0, 5), num_probes=4, seed=1)


class _ZeroDraws:
    """A generator stand-in whose Gaussian draws are all zero."""

    def standard_normal(self, shape):
        return np.zeros(shape)


@pytest.mark.parametrize("deficient", [(0,), (0, 1)], ids=["first-draw", "both-draws"])
def test_block_hutchinson_redraws_a_deficient_probe_block_once(monkeypatch, deficient):
    """A probe block of deficient rank is drawn again from the next substream;
    a second deficient draw raises."""
    M = MatrixOperator(np.diag(np.arange(1.0, 7.0)))
    want = block_hutchinson(M, (0, 2), num_probes=4, seed=1)
    monkeypatch.setattr(stochastic, "substream", lambda seed, attempt: (
        _ZeroDraws() if attempt in deficient else substream(seed, 0)))
    if len(deficient) == 2:
        with pytest.raises(SingularProbeBlockError):
            block_hutchinson(M, (0, 2), num_probes=4, seed=1)
    else:
        assert np.array_equal(block_hutchinson(M, (0, 2), num_probes=4, seed=1), want)


def test_gram_operators_consistent():
    rng = rng_for(74)
    a = complex_gaussian(rng, (5, 8))
    op = MatrixOperator(a)
    v = complex_gaussian(rng, 5)
    assert np.allclose(GramOperator(op).matvec(v), a @ (a.conj().T @ v))


@pytest.mark.parametrize("preconditioned", [False, True], ids=["plain", "jacobi"])
@pytest.mark.parametrize("field", [float, complex], ids=["real", "complex"])
def test_block_cg_matches_column_solves(field, preconditioned):
    """A block of right-hand sides is solved column by column in one loop: each
    column as its own solve, one operator product per column and step."""
    a = _sparse_full_row_rank(6)
    a = a.real if field is float else a
    op = MatrixOperator(a)
    gram = GramOperator(op)
    precond = sp.diags(1.0 / (a @ a.conj().T).diagonal()) if preconditioned else None
    rng = rng_for(78)
    b = rng.standard_normal((op.m, 5)).astype(field)
    b[:, 2] = 0.0  # solved by x = 0 in no iterations
    b[:, 3] *= 1e6
    tol = 1e-9
    before = op.matvec_count
    res = conjugate_gradient(gram, b, tol=tol, precond=precond)
    assert op.matvec_count - before == op.rmatvec_count - before == res.iterations
    assert type(res.converged) is bool and type(res.iterations) is int
    assert res.converged and res.x.shape == b.shape and res.relative_residual.shape == (5,)
    cols = [conjugate_gradient(gram, b[:, j], tol=tol, precond=precond) for j in range(5)]
    assert res.iterations == sum(c.iterations for c in cols)
    assert cols[2].iterations == 0 and not res.x[:, 2].any()
    for j, col in enumerate(cols):
        assert np.linalg.norm(res.x[:, j] - col.x) <= 1e-12 * max(np.linalg.norm(col.x), 1.0)
        assert res.relative_residual[j] == pytest.approx(col.relative_residual, rel=1e-6, abs=0)
        assert np.linalg.norm(gram.matvec(res.x[:, j]) - b[:, j]) <= tol * np.linalg.norm(b[:, j])


def test_block_products_count_one_per_column():
    op = MatrixOperator(_sparse_full_row_rank(7))
    op.matvec(np.ones((op.n, 3)))
    op.rmatvec(np.ones(op.m))
    GramOperator(op).matvec(np.ones((op.m, 4)))
    assert (op.matvec_count, op.rmatvec_count) == (7, 5)


def test_hutchinson_block_solve_matches_probe_by_probe():
    """The probe set is solved in one block call; the estimate is the mean of
    the probes' samples, as solved one at a time."""
    a = _sparse_full_row_rank(8)
    op = MatrixOperator(a)
    cfg = EstimatorConfig(num_probes=9, seed=5, cg_tol=1e-10)
    out = hutchinson_diagonal_inverse(op, cfg)
    samples = []
    for i in range(cfg.num_probes):
        z = rademacher(substream(cfg.seed, i), op.m).astype(complex)
        samples.append((np.conj(z) * conjugate_gradient(GramOperator(MatrixOperator(a)), z,
                                                         tol=cfg.cg_tol).x).real)
    samples = np.array(samples)
    assert np.allclose(out.diag_estimate, samples.mean(axis=0), rtol=1e-12, atol=0)
    stderr = samples.std(axis=0, ddof=1) / np.sqrt(cfg.num_probes)
    assert np.allclose(out.stderr, stderr, rtol=1e-9, atol=1e-15)


def test_batched_solve_that_stalls_names_its_probe(monkeypatch):
    """Probes 0 and 1 are eigenvectors of A A* and converge in one step; probe 2
    needs three steps, and the cap allows two."""
    import geoprec.stochastic as stochastic

    capped = stochastic.conjugate_gradient
    monkeypatch.setattr(stochastic, "conjugate_gradient",
                        lambda *args, **kwargs: capped(*args, max_iters=2, **kwargs))
    solve = stochastic._GramSolve(MatrixOperator(np.diag([1.0, 1.0, 2.0, 2.0, 3.0])),
                                  EstimatorConfig(cg_tol=1e-10))
    probes = np.array([[1.0, 1.0, 0.0, 0.0, 0.0],
                       [0.0, 0.0, 1.0, -1.0, 0.0],
                       [1.0, 1.0, 1.0, 1.0, 1.0]]).T
    with pytest.raises(NotConvergedError) as first:
        solve.matvec(probes)
    assert first.value.probe == 2 and first.value.residual > 1e-10
    with pytest.raises(NotConvergedError) as second:  # probes count on across calls
        solve.matvec(probes[:, ::-1])
    assert second.value.probe == 3
