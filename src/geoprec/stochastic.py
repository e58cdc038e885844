"""Matrix-free gradient estimation for large sparse inputs.

The exact gradient needs the block diagonal of (B B*)^-1 (and of (B* B)^-1
for two-sided schemes).  Rather than inverting, these are estimated from
matrix-vector products: a Hutchinson probe estimator for plain diagonals, a
Gaussian sketch for diagonal blocks, and block Lanczos quadrature for a
single block.  Each inverse application is a conjugate-gradient solve, which
``estimate_gradient`` block-Jacobi preconditions with the exact Gram blocks
(of B B*, and of B* B) it computes anyway; ``cg_tol`` still bounds the true
relative residual ||M x - b|| / ||b||.
"""

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Tuple

import numpy as np
import scipy.sparse as sp

from ._rng import rademacher, substream
from .errors import (
    BreakdownError,
    DimensionMismatchError,
    NotConvergedError,
    SingularProbeBlockError,
)
from .group import GroupElement, LieDirection, block_triplets, project_blocks, split_blocks
from .matrix import ComplexMatrix

__all__ = [
    "LinearOperator",
    "MatrixOperator",
    "GramOperator",
    "CoGramOperator",
    "EstimatorConfig",
    "CgResult",
    "conjugate_gradient",
    "hutchinson_diagonal_inverse",
    "block_hutchinson",
    "block_lanczos_inverse_block",
    "estimate_gradient",
]


class LinearOperator:
    """Abstract map v -> A v with adjoint, plus a running matvec counter.

    Subclasses implement `_matvec` and `_rmatvec`.  Adjoint consistency
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
        self.matvec_count += 1
        return self._matvec(v)

    def rmatvec(self, v):
        self.rmatvec_count += 1
        return self._rmatvec(v)

    def _matvec(self, v):  # pragma: no cover - abstract
        raise NotImplementedError

    def _rmatvec(self, v):  # pragma: no cover - abstract
        raise NotImplementedError


class MatrixOperator(LinearOperator):
    """Operator view of a dense array, scipy sparse matrix, or ComplexMatrix; a real
    matrix gives a float64 operator, a complex one a complex128 operator."""

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


class CoGramOperator(LinearOperator):
    """v -> A* (A v): the n x n Gram of the columns."""

    def __init__(self, base: LinearOperator):
        self.base = base
        self.dtype = base.dtype
        super().__init__(base.n, base.n, check_adjoint=False)

    def _matvec(self, v):
        return self.base.rmatvec(self.base.matvec(v))

    def _rmatvec(self, v):
        return self._matvec(v)


@dataclass(frozen=True)
class EstimatorConfig:
    num_probes: int = 100
    probe_kind: str = "rademacher"  # or "gaussian"
    cg_tol: float = 1e-8
    cg_max_iters: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.num_probes < 1:
            raise ValueError("num_probes must be at least 1")
        if self.probe_kind not in ("rademacher", "gaussian"):
            raise ValueError(f"unknown probe kind {self.probe_kind!r}")


class CgResult(NamedTuple):
    x: np.ndarray
    converged: bool
    iterations: int
    relative_residual: float


def conjugate_gradient(M, b, tol: float = 1e-10, max_iters: int = 10_000,
                       precond=None) -> CgResult:
    """Solve M x = b for Hermitian positive definite M (operator or array).

    Starts from zero, so M is applied exactly once per iteration.  Stops when
    ||M x - b|| <= tol ||b||; non-convergence is reported on the result, not
    raised.  ``precond``, a Hermitian positive definite array or sparse
    matrix approximating M^-1, makes this preconditioned CG: it changes the
    iterates, not the stopping test.  The solve runs in the common dtype of
    b, M and precond: real arithmetic when all three are real.
    """
    if not isinstance(M, LinearOperator):
        M = np.asarray(M)
    apply_m = M.matvec if isinstance(M, LinearOperator) else M.__matmul__
    precond_dtype = float if precond is None else precond.dtype
    b = np.asarray(b)
    b = b.astype(np.result_type(b, M.dtype, precond_dtype, float), copy=False)
    nb = np.linalg.norm(b)
    if nb == 0.0:
        return CgResult(np.zeros_like(b), True, 0, 0.0)
    x = np.zeros_like(b)
    r = b.copy()
    z = r if precond is None else precond @ r
    p = z.copy()
    rs = np.vdot(r, r).real
    rz = rs if precond is None else np.vdot(r, z).real
    for k in range(1, max_iters + 1):
        Mp = apply_m(p)
        alpha = rz / np.vdot(p, Mp).real
        x += alpha * p
        r -= alpha * Mp
        rs = np.vdot(r, r).real
        if math.sqrt(rs) <= tol * nb:
            return CgResult(x, True, k, math.sqrt(rs) / nb)
        z = r if precond is None else precond @ r
        rz_new = rs if precond is None else np.vdot(r, z).real
        p = z + (rz_new / rz) * p
        rz = rz_new
    return CgResult(x, False, max_iters, math.sqrt(rs) / nb)


def _draw_probe(rng, size, kind, dtype):
    if kind == "rademacher":
        return rademacher(rng, size).astype(dtype)
    return rng.standard_normal(size).astype(dtype)


class HutchinsonResult(NamedTuple):
    diag_estimate: np.ndarray
    stderr: np.ndarray


def hutchinson_diagonal_inverse(A: LinearOperator, config: EstimatorConfig,
                                precond=None) -> HutchinsonResult:
    """Probe estimate of Diag((A A*)^-1) for a full-row-rank operator A.

    Each probe z contributes z * x with (A A*) x = z solved by conjugate
    gradients, so the estimator never forms the inverse; ``precond`` is
    passed on to every solve.  stderr is the per-coordinate sample standard
    error over probes.
    """
    gram = GramOperator(A)
    mean = np.zeros(A.m)
    m2 = np.zeros(A.m)
    for i in range(config.num_probes):
        rng = substream(config.seed, i)
        z = _draw_probe(rng, A.m, config.probe_kind, A.dtype)
        sol = conjugate_gradient(gram, z, tol=config.cg_tol, max_iters=config.cg_max_iters,
                                 precond=precond)
        if not sol.converged:
            raise NotConvergedError(sol.relative_residual, probe=i)
        sample = (np.conj(z) * sol.x).real
        delta = sample - mean
        mean += delta / (i + 1)
        m2 += delta * (sample - mean)
    # one probe leaves m2 = 0, hence a zero standard error
    stderr = np.sqrt(m2 / max(config.num_probes - 1, 1) / config.num_probes)
    return HutchinsonResult(mean, stderr)


def _block_slice(block) -> Tuple[int, int]:
    if isinstance(block, slice):
        return block.start or 0, block.stop
    a, b = block
    return int(a), int(b)


def block_hutchinson(M: LinearOperator, block_rows, num_probes: int, seed: int) -> np.ndarray:
    """Gaussian sketch of one diagonal block of a Hermitian operator M.

    Draws G with num_probes Gaussian columns, forms Z = M G, and solves the
    regression G_r W = Z_r restricted to the block rows; with r = 1 this is
    the Gaussian Hutchinson estimate of a single diagonal entry.  The result
    is Hermitian-symmetrized.
    """
    a, b = _block_slice(block_rows)
    r = b - a
    if r > num_probes:
        raise DimensionMismatchError("block size exceeds the probe count")
    rng = substream(seed, 0)
    G = rng.standard_normal((M.m, num_probes))
    for attempt in (0, 1):
        R = G[a:b, :]  # r x probes
        if np.linalg.matrix_rank(R) == r:
            break
        if attempt == 1:
            raise SingularProbeBlockError("probe block rank deficient after resampling")
        rng = substream(seed, 1)
        G = rng.standard_normal((M.m, num_probes))
    Z = np.stack([M.matvec(G[:, j].astype(M.dtype)) for j in range(num_probes)], axis=1)
    return _sketched_block(R, Z[a:b, :])


def _sketched_block(R, S):
    """Hermitian block fitted to sketch rows S (r x probes) over probe rows R."""
    W, *_ = np.linalg.lstsq(R.T, S.T, rcond=None)
    # the regression recovers the transpose of the block (real probes carry no
    # conjugation), so flip before symmetrizing
    return 0.5 * (W.T + W.conj())


def block_lanczos_inverse_block(M: LinearOperator, block, iters: int) -> np.ndarray:
    """Block Lanczos quadrature for one diagonal block of M^-1 (M Hermitian PD).

    Runs block Lanczos started on the coordinate columns of the block, with
    full reorthogonalization, and returns the leading block of T_k^-1 where
    T_k is the block-tridiagonal Jacobi matrix.  Early full breakdown means
    the Krylov space is invariant and the quadrature is already exact;
    partial rank loss raises (deflation is not implemented).
    """
    a, b = _block_slice(block)
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
        W = np.stack([M.matvec(basis[-1][:, i]) for i in range(r)], axis=1)
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
    gram = GramOperator(base_op)
    rng = substream(config.seed, 10 + side_key)
    G = rng.standard_normal((base_op.m, config.num_probes))
    Z = np.zeros(G.shape, dtype=gram.dtype)
    for j in range(config.num_probes):
        sol = conjugate_gradient(gram, G[:, j].astype(gram.dtype), tol=config.cg_tol,
                                 max_iters=config.cg_max_iters, precond=precond)
        if not sol.converged:
            raise NotConvergedError(sol.relative_residual, probe=j)
        Z[:, j] = sol.x
    return np.concatenate([_sketched_block(G[a:a + r.size], Z[a:a + r.size]).ravel()
                           for r in runs for a in range(r.start, r.stop, r.size)])


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
