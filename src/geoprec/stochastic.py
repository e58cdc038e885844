"""Matrix-free gradient estimation for large sparse inputs.

The exact gradient needs the block diagonal of (B B*)^-1 (and of (B* B)^-1
for two-sided schemes).  Rather than inverting, these are estimated from
matrix-vector products: a Hutchinson estimator with Rademacher probes for
plain diagonals, a Gaussian sketch for diagonal blocks, and block Lanczos
quadrature for a single block.  Operators take a vector or a block of
columns.  The inverse is applied to a whole probe set in one
conjugate-gradient call, which solves the probes as independent systems in one
loop, one operator product per step on the columns still running; each
column's arithmetic is that of a solve of the probe alone.  ``estimate_gradient``
block-Jacobi preconditions these solves with the exact Gram blocks (of B B*,
and of B* B) it computes anyway; ``cg_tol`` still bounds the true relative
residual ||M x - b|| / ||b|| of every probe.
"""

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from ._rng import rademacher, substream
from .errors import (
    BreakdownError,
    DimensionMismatchError,
    NotConvergedError,
    SingularProbeBlockError,
)
from .group import (
    GroupElement,
    LieDirection,
    _bounds,
    block_triplets,
    project_blocks,
    split_blocks,
)
from .matrix import ComplexMatrix

__all__ = [
    "LinearOperator",
    "MatrixOperator",
    "GramOperator",
    "EstimatorConfig",
    "CgResult",
    "conjugate_gradient",
    "hutchinson_diagonal_inverse",
    "block_hutchinson",
    "block_lanczos_inverse_block",
    "estimate_gradient",
]


def _columns(v):
    """The number of vectors in v: 1 for a vector, k for an (n, k) block."""
    return 1 if np.ndim(v) == 1 else np.shape(v)[1]


class LinearOperator:
    """Abstract map v -> A v with adjoint, plus running product counters.

    Subclasses implement `_matvec` and `_rmatvec`, each for a vector or an
    (n, k) block of columns; a block counts as k products.  Adjoint consistency
    <A v, w> = <v, A* w> is verified on a random probe pair at construction.
    ``dtype`` is the field the operator works over, complex128 unless a
    subclass sets it; probes for it are drawn, and solves against it run, in
    that dtype.
    """

    dtype = np.dtype(complex)

    def __init__(self, m, n, check_adjoint=True):
        self.m = int(m)
        self.n = int(n)
        self.matvec_count = 0
        self.rmatvec_count = 0
        if check_adjoint:
            rng = substream(0x5EED, m, n)
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            lhs = np.vdot(w, self._matvec(v))
            rhs = np.vdot(self._rmatvec(w), v)
            scale = max(abs(lhs), abs(rhs), 1e-30)
            if abs(lhs - rhs) > 1e-10 * scale:
                raise DimensionMismatchError(
                    f"adjoint inconsistency: <Av,w>={lhs:.6g} vs <v,A*w>={rhs:.6g}"
                )

    @property
    def shape(self):
        return (self.m, self.n)

    def matvec(self, v):
        self.matvec_count += _columns(v)
        return self._matvec(v)

    def rmatvec(self, v):
        self.rmatvec_count += _columns(v)
        return self._rmatvec(v)

    def _matvec(self, v):  # pragma: no cover - abstract
        raise NotImplementedError

    def _rmatvec(self, v):  # pragma: no cover - abstract
        raise NotImplementedError


class MatrixOperator(LinearOperator):
    """Operator view of a dense array, scipy sparse matrix, or ComplexMatrix; a real
    matrix, a ComplexMatrix of real values included, gives a float64 operator,
    a complex one a complex128 operator."""

    def __init__(self, a):
        if isinstance(a, ComplexMatrix):
            a = a.to_csr() if a.is_sparse else a.to_dense()
        a = a.tocsr() if sp.issparse(a) else np.asarray(a)
        self.dtype = np.promote_types(a.dtype, float)
        self.mat = a.astype(self.dtype, copy=False)
        self.mat_h = self.mat.conj().T
        if sp.issparse(a):
            self.mat_h = self.mat_h.tocsr()
        super().__init__(self.mat.shape[0], self.mat.shape[1])

    def _matvec(self, v):
        return self.mat @ v

    def _rmatvec(self, v):
        return self.mat_h @ v


class GramOperator(LinearOperator):
    """v -> A (A* v): Hermitian, positive definite when A has full row rank.

    Each application costs one matvec and one rmatvec of the base operator.
    """

    def __init__(self, base: LinearOperator):
        self.base = base
        self.dtype = base.dtype
        super().__init__(base.m, base.m, check_adjoint=False)

    def _matvec(self, v):
        return self.base.matvec(self.base.rmatvec(v))

    def _rmatvec(self, v):
        return self._matvec(v)


@dataclass(frozen=True)
class EstimatorConfig:
    """Probe count, CG tolerance and seed of the matrix-free estimator.

    num_probes must be at least 1 and cg_tol finite and positive; ValueError
    otherwise.
    """

    num_probes: int = 100
    cg_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.num_probes < 1:
            raise ValueError("num_probes must be at least 1")
        if not (math.isfinite(self.cg_tol) and self.cg_tol > 0):
            raise ValueError(f"cg_tol must be finite and positive, got {self.cg_tol}")


class CgResult(NamedTuple):
    """A solve of M x = b.  For a block b the columns are independent solves:
    converged holds for every column, iterations is their total, one product
    with M each, and relative_residual holds one entry per column."""

    x: np.ndarray
    converged: bool
    iterations: int
    relative_residual: float


def _dots(u, v):
    """Re <u_j, v_j> for every row j, each one BLAS dot as np.vdot takes it."""
    return np.matmul(u.conj()[:, None, :], v[:, :, None])[:, 0, 0].real


def _rows(apply, v):
    """apply(v.T) for a block v of contiguous rows, back in contiguous rows."""
    return np.ascontiguousarray(apply(v.T).T)


def conjugate_gradient(M, b, tol: float = 1e-10, max_iters: int = 10_000,
                       precond=None) -> CgResult:
    """Solve M x = b for Hermitian positive definite M (operator or array).

    Starts from zero, so M is applied exactly once per iteration.  A column
    stops when ||M x - b|| / ||b|| <= tol, at most max_iters iterations;
    non-convergence is reported on the result, not raised.  An (m, k) block b
    is k independent systems solved in one loop: each step applies M once to
    the block of columns still running, every column takes its own step
    lengths, and a converged column is frozen.  Each column is held as one
    contiguous row, so that its inner products are the ones a vector solve
    takes.  ``precond``, a Hermitian positive definite array or sparse matrix
    approximating M^-1, makes this preconditioned CG: it changes the
    iterates, not the stopping test.  The solve runs in the common dtype of
    b, M and precond: real arithmetic when all three are real.
    """
    if not isinstance(M, LinearOperator):
        M = np.asarray(M)
    apply_m = M.matvec if isinstance(M, LinearOperator) else M.__matmul__
    precond_dtype = float if precond is None else precond.dtype
    b = np.asarray(b)
    cols = b.reshape(b.shape[0], -1).T.astype(
        np.result_type(b, M.dtype, precond_dtype, float), order="C")
    nb = np.array([np.linalg.norm(c) for c in cols])
    x = np.zeros_like(cols)
    rel = np.zeros(len(cols))
    act = np.flatnonzero(nb)  # a zero column is solved by x = 0
    r = cols[act]
    xa = np.zeros_like(r)
    z = r if precond is None else _rows(precond.__matmul__, r)
    p = z.copy()
    rs = _dots(r, r)
    rz = rs if precond is None else _dots(r, z)
    total = 0
    for _ in range(max_iters):
        if not act.size:
            break
        Mp = _rows(apply_m, p)
        total += act.size
        alpha = (rz / _dots(p, Mp))[:, None]
        xa += alpha * p
        r -= alpha * Mp
        rs = _dots(r, r)
        done = np.sqrt(rs) / nb[act] <= tol
        if done.any():
            x[act[done]] = xa[done]
            rel[act[done]] = np.sqrt(rs[done]) / nb[act[done]]
            keep = ~done
            act, xa, r, p, rs, rz = act[keep], xa[keep], r[keep], p[keep], rs[keep], rz[keep]
        z = r if precond is None else _rows(precond.__matmul__, r)
        rz_new = rs if precond is None else _dots(r, z)
        p = z + (rz_new / rz)[:, None] * p
        rz = rz_new
    x[act] = xa
    rel[act] = np.sqrt(rs) / nb[act]
    if b.ndim == 1:
        return CgResult(x[0], not act.size, total, float(rel[0]))
    return CgResult(x.T, not act.size, total, rel)


class _GramSolve(LinearOperator):
    """v -> (A A*)^-1 v: one preconditioned CG call against GramOperator(A) per
    application, a block of probes solved column by column in one loop, to the
    config's tolerance within conjugate_gradient's default iteration cap.  A
    stalled solve raises NotConvergedError naming its probe, the index of the
    first unconverged column among all columns this operator has solved."""

    def __init__(self, A: LinearOperator, config: EstimatorConfig, precond=None):
        self.base = GramOperator(A)  # products with the matrix are counted on A
        self.dtype, self.config, self.precond = A.dtype, config, precond
        super().__init__(A.m, A.m, check_adjoint=False)  # a check would cost two solves

    def _matvec(self, v):
        sol = conjugate_gradient(self.base, v, tol=self.config.cg_tol, precond=self.precond)
        if not sol.converged:
            rel = np.atleast_1d(sol.relative_residual)
            j = np.flatnonzero(~(rel <= self.config.cg_tol))[0]
            raise NotConvergedError(float(rel[j]), probe=self.matvec_count - rel.size + int(j))
        return sol.x


class HutchinsonResult(NamedTuple):
    diag_estimate: np.ndarray
    stderr: np.ndarray


def hutchinson_diagonal_inverse(A: LinearOperator, config: EstimatorConfig,
                                precond=None) -> HutchinsonResult:
    """Probe estimate of Diag((A A*)^-1) for a full-row-rank operator A.

    Each Rademacher probe z contributes z * x with (A A*) x = z solved by conjugate
    gradients, so the estimator never forms the inverse; the probes are
    solved together in one block solve, and ``precond`` is passed on to it.
    stderr is the per-coordinate sample standard error over probes.
    """
    Z = np.stack([rademacher(substream(config.seed, i), A.m)
                  for i in range(config.num_probes)], axis=1).astype(A.dtype)
    samples = (np.conj(Z) * _GramSolve(A, config, precond).matvec(Z)).real
    mean = np.zeros(A.m)
    m2 = np.zeros(A.m)
    for i, sample in enumerate(samples.T):
        delta = sample - mean
        mean += delta / (i + 1)
        m2 += delta * (sample - mean)
    # one probe leaves m2 = 0, hence a zero standard error
    stderr = np.sqrt(m2 / max(config.num_probes - 1, 1) / config.num_probes)
    return HutchinsonResult(mean, stderr)


def block_hutchinson(M: LinearOperator, block_rows, num_probes: int, seed: int) -> np.ndarray:
    """Gaussian sketch of one diagonal block of a Hermitian operator M.

    block_rows is the pair (a, b) of the block's rows a:b.  Draws G with
    num_probes Gaussian columns, forms Z = M G, and solves the regression
    G_r W = Z_r restricted to the block rows; with r = 1 this is the Gaussian
    Hutchinson estimate of a single diagonal entry.  The result is
    Hermitian-symmetrized.  Probe rows of deficient rank are redrawn once.
    """
    a, b = block_rows
    for attempt in (0, 1):
        G = substream(seed, attempt).standard_normal((M.m, num_probes))
        # a block wider than the probe set is rejected by the sketch
        if b - a > num_probes or np.linalg.matrix_rank(G[a:b]) == b - a:
            break
    else:
        raise SingularProbeBlockError("probe block rank deficient after resampling")
    return _sketch_blocks(M, G, [(a, b)])[0]


def _sketch_blocks(M: LinearOperator, G, blocks):
    """The diagonal blocks (a, b) of a Hermitian operator M, each fitted by the
    regression G_r W = (M G)_r over its rows r = a:b and Hermitian-symmetrized;
    M is applied once, to the whole probe block G.  DimensionMismatchError for
    a block wider than G, an underdetermined fit."""
    if any(b - a > G.shape[1] for a, b in blocks):
        raise DimensionMismatchError("block size exceeds the probe count")
    Z = M.matvec(G.astype(M.dtype))
    fits = [np.linalg.lstsq(G[a:b].T, Z[a:b].T, rcond=None)[0] for a, b in blocks]
    # the regression recovers the transpose of each block (real probes carry no
    # conjugation), so flip before symmetrizing
    return [0.5 * (W.T + W.conj()) for W in fits]


def block_lanczos_inverse_block(M: LinearOperator, block, iters: int) -> np.ndarray:
    """Block Lanczos quadrature for one diagonal block of M^-1 (M Hermitian PD).

    block is the pair (a, b) of the block's rows a:b.  Runs block Lanczos
    started on the coordinate columns of the block, with full
    reorthogonalization, and returns the leading block of T_k^-1 where T_k is
    the block-tridiagonal Jacobi matrix.  Early full breakdown means the
    Krylov space is invariant and the quadrature is already exact; partial
    rank loss raises (deflation is not implemented).
    """
    a, b = block
    r = b - a
    if iters < 1:
        raise ValueError("iters must be at least 1")
    n = M.m
    Q = np.zeros((n, r), dtype=M.dtype)
    Q[a:b, :] = np.eye(r)
    basis = [Q]
    A_blocks = []
    B_blocks = []
    tol = 1e-12
    for j in range(iters):
        W = M.matvec(basis[-1])
        Aj = basis[-1].conj().T @ W
        Aj = 0.5 * (Aj + Aj.conj().T)
        A_blocks.append(Aj)
        if j == iters - 1:
            break
        W = W - basis[-1] @ Aj
        if len(basis) > 1:
            W = W - basis[-2] @ B_blocks[-1].conj().T
        # full reorthogonalization keeps the basis numerically orthonormal
        for Qi in basis:
            W = W - Qi @ (Qi.conj().T @ W)
        Qn, Bj = np.linalg.qr(W)
        dmag = np.abs(np.diag(Bj))
        scale = max(1.0, float(np.max(dmag)))
        small = dmag <= tol * scale
        if small.all():
            break  # invariant subspace: quadrature is exact
        if small.any():
            raise BreakdownError(j + 1)
        basis.append(Qn)
        B_blocks.append(Bj)
    k = len(A_blocks)
    T = np.zeros((k * r, k * r), dtype=M.dtype)
    for j, Aj in enumerate(A_blocks):
        T[j * r : (j + 1) * r, j * r : (j + 1) * r] = Aj
    for j, Bj in enumerate(B_blocks):
        T[(j + 1) * r : (j + 2) * r, j * r : (j + 1) * r] = Bj
        T[j * r : (j + 1) * r, (j + 1) * r : (j + 2) * r] = Bj.conj().T
    E = np.zeros((k * r, r))
    E[:r, :] = np.eye(r)
    block_inv = np.linalg.solve(T, E)[:r, :]
    return 0.5 * (block_inv + block_inv.conj().T)


class _BlockPattern:
    """The block-diagonal matrix held in one side's stacks, or its inverse, as a
    sparse matrix mat, with the coordinates of its block entries in
    block_triplets order."""

    def __init__(self, stacks, runs, size, invert=False):
        self.runs = runs
        self.rows, self.cols, vals = block_triplets(stacks, runs, invert)
        self.mat = sp.csr_matrix((vals, (self.rows, self.cols)), shape=(size, size))

    def values(self, mat):
        """The entries of a dense or sparse matrix on the pattern, in pattern order."""
        return np.asarray(mat[self.rows, self.cols]).ravel()


def _inverse_blocks_estimate(base_op, pattern, gram_blocks, config, side_key):
    """Diagonal blocks of (base base*)^-1 in pattern order, all sharing one probe set;
    the inverses of gram_blocks, the exact blocks of base base* in pattern order,
    precondition the solves."""
    runs = pattern.runs
    precond = _BlockPattern(split_blocks(gram_blocks, runs), runs, base_op.m, invert=True).mat
    if all(r.size == 1 for r in runs):
        est = hutchinson_diagonal_inverse(
            base_op, replace(config, seed=config.seed * 2 + side_key), precond)
        return est.diag_estimate
    G = substream(config.seed, 10 + side_key).standard_normal((base_op.m, config.num_probes))
    sketch = _sketch_blocks(_GramSolve(base_op, config, precond), G, _bounds(runs))
    return np.concatenate([W.ravel() for W in sketch])


def estimate_gradient(A, g: GroupElement, config: EstimatorConfig) -> LieDirection:
    """Stochastic gradient of the log condition objective at g.

    The Gram blocks of B = g . A are computed exactly from the rows of B
    (cheap for sparse inputs); the inverse-Gram blocks are estimated by
    probes, and ||B^+||_F^2 is taken as the trace of those estimates, so no
    extra solves are spent on the normalizer.  The exact Gram blocks,
    inverted blockwise, precondition every CG solve.  A must be given with
    explicit entries (array, sparse matrix, or ComplexMatrix), full row
    rank; for two-sided schemes it must be square.
    """
    sch = g.scheme
    A = sp.csr_matrix(A.to_csr() if isinstance(A, ComplexMatrix) else A)
    if A.shape[0] != sch.m:
        raise DimensionMismatchError("matrix rows do not match the scheme")
    if sch.side == "both" and A.shape[0] != A.shape[1]:
        raise DimensionMismatchError("two-sided stochastic gradients need a square matrix")

    left = _BlockPattern(g.left, sch.left_runs, sch.m)
    B = left.mat @ A
    if sch.side == "both":
        right = _BlockPattern(g.right, sch.right_runs, sch.n, invert=True)
        B = B @ right.mat
    b_op = MatrixOperator(B)
    B, Bc = b_op.mat, b_op.mat_h
    nb2 = float(np.linalg.norm(B.data) ** 2)

    P = left.values(B @ Bc)  # exact Gram blocks of B B*
    inv_left = _inverse_blocks_estimate(b_op, left, P, config, 0)
    tr_left = float(inv_left[left.rows == left.cols].sum().real)

    if sch.side == "left":
        return project_blocks(sch, split_blocks(P / nb2 - inv_left / tr_left, sch.left_runs))

    Q = right.values(Bc @ B)  # exact Gram blocks of B* B
    inv_right = _inverse_blocks_estimate(MatrixOperator(Bc), right, Q, config, 1)
    tr_right = float(inv_right[right.rows == right.cols].sum().real)
    # both traces estimate ||B^+||_F^2; average for a common normalizer
    tr = 0.5 * (tr_left + tr_right)
    H1 = P / nb2 - inv_left / tr
    H2 = -Q / nb2 + inv_right / tr
    return project_blocks(sch, split_blocks(H1, sch.left_runs), split_blocks(H2, sch.right_runs))
