"""The log condition-number objective, its Riemannian gradient and Hessian.

For a fixed matrix A and group element g the objective is

    value = log ||B||_F + log ||B^+||_F,   B = g . A,

the log of the Frobenius condition number of the transformed matrix.  The
gradient at g is the orthogonal projection of

    ( B B* / ||B||_F^2  -  (B^+)* B^+ / ||B^+||_F^2 ,
     -B* B / ||B||_F^2  +  B^+ (B^+)* / ||B^+||_F^2 )

onto the Lie algebra of the scheme.  The cross variant replaces B^+ by an
independently transformed second matrix.

Only ||B||_F, ||B^+||_F and the diagonal blocks of the Gram terms enter, so a
state costs by the case:

* left-only, with A^-1 (a square run of full rank, which may pass A^-1
  times a unitary on its left) or with the second matrix of a cross pair:
  O(sum of size^3) over the blocks.  Under B = X A and
  D = A^-1 X^-1 (or D = B_2 X^-1), ||B||_F^2 = sum_b ||X_b L_b||_F^2 and
  ||D||_F^2 = sum_b ||S_b X_b^-1||_F^2, for factors L_b L_b* = A_b A_b* of
  A's row slabs and S_b* S_b = D_b* D_b of D's column slabs, the triangular
  factors of one QR per slab (``gram_factors``), which a run builds once.
  Rounding then grows like eps kappa, as it does for X A and D X^-1 formed
  in full; the Gram blocks A_b A_b* themselves would square kappa.  The same
  factors give the least kF over the scheme, and an element attaining it,
  in closed form (``left_optimum``);
* the two-sided torus, with A^-1 or a second matrix: four matvecs, O(m n),
  with the entrywise squared moduli of the pair, two m x n float64 arrays
  a run builds once (``gram_factors``; 16 MB for n = 1000): the diagonals of
  B B*, B* B, D D* and D* D are x^2 (|A|^2 y^-2), y^-2 (|A|^2^T x^2),
  y^2 (|D|^2 x^-2) and x^-2 (|D|^2^T y^2) for X = diag(x), Y = diag(y).  The
  first state's ||B||_F^2 sums the same squares, so they overflow where the
  dual action's norms would;
* other two-sided schemes, with A^-1 or a second matrix: the two
  block-diagonal actions, O(m n block size).  B = X A Y^-1 and
  D = Y A^-1 X^-1 (B^-1, or Y B_2 X^-1) are formed once each, X's and Y's
  row slab products first and each inverse's column slab products written
  in place, and kept; their norms are taken once each, and the Gram blocks
  of B B*, B* B, D D* and D* D are read from row and column slabs in place;
* otherwise one thin SVD of B.

B, B_pinv and the Euclidean condition number kappa are not needed by the
descent; a state that did not form them computes them on first access.
"""

import math
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatchError, ZeroMatrixError
from .group import (
    GroupElement,
    LieDirection,
    WeightData,
    _adjoint,
    _column_slabs,
    _inverse,
    _polar,
    _times,
    _times_inverse,
    apply,
    apply_dual,
    congruence,
    project_blocks,
)
from .matrix import (
    _dense_rows,
    as_dense,
    kappa_from_singular_values,
    pseudoinverse,
    rank_tolerance,
    singular_values,
)

__all__ = [
    "ObjectiveState",
    "evaluate",
    "evaluate_cross",
    "gram_factors",
    "hessian_quadratic_form",
    "duality_gap_bound",
]


class ObjectiveState:
    """Everything the optimizer needs at one group element g, with B = g . A.

    value, grad, grad_norm, kF and rank_deficient are computed when the state
    is built.  B, B_pinv and kappa are computed on first access unless the
    state was built from them.  B_pinv is the pseudoinverse of B for the
    condition objective: for a square full-rank run the dual action of g on
    the run's inverse of A, otherwise built from B.  A left-only run may pass
    U A^-1 for a unitary U instead of A^-1 (``evaluate``); B_pinv is then
    U B^-1, with the singular values and the D* D of B^-1.  For the cross
    objective it is the transformed second matrix.  sigma holds the singular
    values of B where the state has them.  kappa is the Euclidean condition number of B,
    for reporting only, from sigma or from one SVD of B without vectors:
    sigma_max / sigma_min when B_pinv is B^-1, otherwise sigma_max over the
    smallest singular value above the rank cutoff.  A left-only state read
    from Gram factors may hold A as a CSR matrix, densified only for B.
    """

    def __init__(self, value, grad: LieDirection, kF, element: GroupElement, matrix,
                 dual=None, inverse=False, rank_deficient=False, sigma=None, B=None,
                 B_pinv=None):
        self.value, self.grad, self.grad_norm, self.kF = value, grad, grad.norm, kF
        self.rank_deficient, self.sigma = rank_deficient, sigma
        self._element, self._matrix, self._dual, self._inverse = element, matrix, dual, inverse
        if B is not None:
            self.B = B
        if B_pinv is not None:
            self.B_pinv = B_pinv

    @cached_property
    def B(self) -> np.ndarray:
        return apply(self._element, self._matrix)

    @cached_property
    def B_pinv(self) -> np.ndarray:
        if self._dual is None:
            return pseudoinverse(self.B)
        return apply_dual(self._element, self._dual)

    @cached_property
    def kappa(self) -> float:
        if self._inverse:
            s = singular_values(self.B)
            return float(s[0] / s[-1])
        s = self.sigma if self.sigma is not None else singular_values(self.B)
        return kappa_from_singular_values(s, self._matrix.shape)


def _row_grams(R, runs):
    """The diagonal blocks of R R*, one stack per run of row slabs."""
    out = []
    for r in runs:
        slab = R[r.start:r.stop].reshape(r.count, r.size, -1)
        out.append(slab @ _adjoint(slab))
    return out


def _column_grams(R, runs):
    """The diagonal blocks of R* R, one stack per run of column slabs, read in place."""
    out = []
    for r in runs:
        slab = _column_slabs(R, r)
        out.append(_adjoint(slab) @ slab)
    return out


def _pair(A, D, scheme):
    """A and D, checked to pair under scheme: D has the transposed shape of A,
    and A the scheme's rows (and columns, for a two-sided scheme).  D comes
    back dense, and so does A unless it is a float or complex CSR in
    canonical form, as ``optimize._finite`` makes it, under a left-only
    scheme, whose factors read it from its entries."""
    kept = scheme.side == "left" and sp.issparse(A) and A.format == "csr" and \
        A.dtype.kind in "fc" and A.has_canonical_format
    a, d = (A if kept else as_dense(A)), as_dense(D)
    cols = scheme.n if scheme.side == "both" else a.shape[1]
    if a.shape != (scheme.m, cols) or d.shape != (cols, scheme.m):
        raise DimensionMismatchError(
            f"matrices of shapes {a.shape} and {d.shape} do not pair under a scheme "
            f"with {scheme.m} rows and {cols} columns"
        )
    return a, d


def _row_norms(R):
    """The row norms of R.  A CSR R gives them from its stored entries, in
    O(nnz).  A dense R gives np.linalg.norm(R, axis=1), bit for bit, 64 rows
    at a time: no temporary of R's size.  A last slab of one row would be
    summed pairwise where numpy sums the rows of a column-major R in
    sequence, so 65 rows are taken together."""
    m = R.shape[0]
    if sp.issparse(R):
        counts, out = np.diff(R.indptr), np.zeros(m)
        sq = (R.data.conj() * R.data).real
        out[counts > 0] = np.add.reduceat(sq, R.indptr[:-1][counts > 0])
        return np.sqrt(out)
    out, s = np.empty(m), 0
    while s < m:
        stop = s + 64 + (m - s == 65)
        out[s:stop] = np.linalg.norm(R[s:stop], axis=1)
        s = stop
    return out


def _slab_factors(R, runs, norms=None, conj=True):
    """Per run, the stack of triangular W_b with W_b* W_b = R_b R_b* for the
    row slabs R_b of R: the R factor of a QR of R_b*, or for 1x1 blocks the
    row norms, which that QR gives up to sign, taken from norms where given.
    With conj False the QRs are of R_b^T instead: for R = D^T, the factors
    W_b* W_b = D_b* D_b of the column slabs of D, with no conjugate copy of D.

    R is a dense array or a CSR matrix.  The QRs take whole blocks about 64
    rows at a time, so a CSR is never densified further than that.
    """
    out = []
    for r in runs:
        if r.size == 1:
            rows = _row_norms(R[r.start:r.stop]) if norms is None else norms[r.start:r.stop]
            out.append(rows.reshape(-1, 1, 1))
            continue
        step, stacks = max(1, 64 // r.size) * r.size, []
        for lo in range(r.start, r.stop, step):
            hi = min(lo + step, r.stop)
            slab = (_dense_rows(R, lo, hi) if sp.issparse(R) else R[lo:hi]).reshape(
                -1, r.size, R.shape[1])
            stacks.append(np.linalg.qr((slab.conj() if conj else slab).transpose(0, 2, 1),
                                       mode="r"))
        out.append(np.concatenate(stacks))
    return out


def _factors(a, d, runs, d_norms=None):
    """(L, S) of ``gram_factors``, stored contiguous: every state multiplies by them."""
    L = [np.ascontiguousarray(_adjoint(w)) for w in _slab_factors(a, runs)]
    return L, [np.ascontiguousarray(w) for w in _slab_factors(d.T, runs, d_norms, conj=False)]


def _abs2(a):
    """The entrywise squared moduli of a, as a contiguous float64 array of its own."""
    return np.ascontiguousarray((a.conj() * a).real)


def _two_sided_torus(scheme):
    return scheme.side == "both" and max(scheme.left_sizes + scheme.right_sizes) == 1


def gram_factors(A, D, scheme, d_norms=None):
    """What a run reads every state of the pair (A, D) from: the factors
    (L, S) for a left-only scheme, the squared moduli (|A|^2, |D|^2) for the
    two-sided torus, and the pair itself, dense and checked, for any other
    two-sided scheme, whose states act on it.

    L_b L_b* = A_b A_b* over the row slabs of A and S_b* S_b = D_b* D_b over
    the column slabs of D, in the shape of ``scheme.left_runs``; D is the
    inverse of a square A of full rank, or the second matrix of a cross pair.
    A CSR A is read from its entries, a bounded number of block rows at a time
    (``_slab_factors``).  d_norms, the column norms of D where the caller has
    them, give the 1x1 factors of S without a pass over D.  The squares are
    two float64 arrays of the pair's shapes, 16 MB for a square A at n = 1000.
    """
    a, d = _pair(A, D, scheme)
    if scheme.side == "left":
        return _factors(a, d, scheme.left_runs, d_norms)
    return (_abs2(a), _abs2(d)) if _two_sided_torus(scheme) else (a, d)


def left_optimum(factors, scheme, dtype):
    """The minimizer of kF(X A) over a left-only scheme, and the least kF itself,
    read from a run's ``gram_factors`` (L, S).

    kF(X)^2 = (sum_b ||X_b L_b||_F^2)(sum_b ||S_b X_b^-1||_F^2), so Cauchy-Schwarz
    across the blocks and the trace inequality within each give
    kF* = sum_b ||S_b L_b||_*, the sum of nuclear norms.  With the SVD
    S_b L_b = U_b Sigma_b V_b*, X_b = Sigma_b^-1/2 U_b* S_b attains it: then
    X_b L_b = Sigma_b^1/2 V_b* and S_b X_b^-1 = U_b Sigma_b^1/2 (van der Sluis,
    Numer. Math. 1969; Bhatia, Positive Definite Matrices, 2007, ch. 4).  On
    1x1 blocks, whose factors are row norms, that is x_i = sqrt(S_i / L_i) and
    kF* = sum_i S_i L_i, with no SVD.  Returns (element, kF*), the element's stacks of the given
    dtype and Hermitian positive definite: each block is replaced by its polar
    factor by ``group._polar``, as ``repolarize`` does, accurate to about
    eps cond(X_b), so the element's kF stays within round-off of kF* on
    graded blocks too.
    """
    L, S = factors
    stacks, kF = [], 0.0
    for l, s, r in zip(L, S, scheme.left_runs):
        if r.size == 1:
            stacks.append((np.sqrt(s) / np.sqrt(l)).astype(dtype, copy=False))
            kF += float((s * l).sum())
            continue
        u, sigma, _ = np.linalg.svd(s @ l)
        stacks.append(_polar((_adjoint(u) @ s) / np.sqrt(sigma)[:, :, None], r))
        kF += float(sigma.sum())
    return GroupElement._from_blocks(scheme, stacks), kF


def _trace(stacks):
    return sum(float(np.einsum("kii->", S).real) for S in stacks)


def _left_state(a, d, g, factors, inverse=False) -> ObjectiveState:
    """The state of log ||X a||_F + log ||d X^-1||_F, read from the Gram factors of (a, d)."""
    T, U = congruence(g, *factors)
    nb2, nd2 = _trace(T), _trace(U)
    if nb2 == 0.0 or nd2 == 0.0:
        raise ZeroMatrixError("matrix is identically zero")
    grad = project_blocks(g.scheme, [t / nb2 - u / nd2 for t, u in zip(T, U)])
    nb, nd = math.sqrt(nb2), math.sqrt(nd2)
    return ObjectiveState(math.log(nb) + math.log(nd), grad, nb * nd, g, a, d, inverse)


def _grad_from_grams(sch, B, nb2, d_left, d_right, nd2):
    """Projected gradient of log ||B||_F + log ||D||_F under the pair action.

    Only the diagonal blocks of the four Gram terms survive the projection:
    those of B B* and B* B come from the row and column slabs of B, and D
    enters through d_left and d_right, the stacks of the left blocks of D* D
    and the right blocks of D D* (d_right is unused by left-only schemes).
    nb2 and nd2 are ||B||_F^2 and ||D||_F^2.
    """
    P = [b / nb2 - d / nd2 for b, d in zip(_row_grams(B, sch.left_runs), d_left)]
    if sch.side == "left":
        return project_blocks(sch, P)
    Q = [d / nd2 - b / nb2 for b, d in zip(_column_grams(B, sch.right_runs), d_right)]
    return project_blocks(sch, P, Q)


def _pair_state(a, d, g, inverse=False) -> ObjectiveState:
    """The state of log ||X a Y^-1||_F + log ||Y d X^-1||_F on a two-sided
    scheme, from the two actions.

    B = X a Y^-1 and D = Y d X^-1 are formed once each, X's and Y's row slab
    products first and each inverse's column slab products written in place,
    and kept as B and B_pinv.  Their norms are taken once each, and the four
    Gram-block stacks are read from their row and column slabs in place.
    """
    sch = g.scheme
    B = _times_inverse(_times(g.left, sch.left_runs, a), g.right, sch.right_runs)
    D = _times_inverse(_times(g.right, sch.right_runs, d), g.left, sch.left_runs)
    nb, nd = np.linalg.norm(B), np.linalg.norm(D)
    if nb == 0.0 or nd == 0.0:
        raise ZeroMatrixError("matrix is identically zero")
    grad = _grad_from_grams(sch, B, nb**2, _column_grams(D, sch.left_runs),
                            _row_grams(D, sch.right_runs), nd**2)
    return ObjectiveState(float(np.log(nb) + np.log(nd)), grad, float(nb * nd), g, a, d,
                          inverse, B=B, B_pinv=D)


def _torus_state(a, d, g, squares, inverse=False) -> ObjectiveState:
    """The state of log ||X a Y^-1||_F + log ||Y d X^-1||_F on the two-sided
    torus, read from the squared moduli (|a|^2, |d|^2) of the pair.

    With X = diag(x) and Y = diag(y), B = X a Y^-1 and D = Y d X^-1 have
    |B_ij|^2 = |x_i|^2 |a_ij|^2 |y_j|^-2, so the diagonals of B B*, B* B, D D*
    and D* D, and the norms that sum them, are four matvecs (Sinkhorn, Ann.
    Math. Statist. 1964).  The projected gradient is the two differences of
    those diagonals, real, held in the element's field.  B and D are left to
    first access.
    """
    (a2, d2), (x,), (y,), sch = squares, g.left, g.right, g.scheme
    x2, y2 = _abs2(x).ravel(), _abs2(y).ravel()
    ix2, iy2 = _inverse(x2, sch.left_runs[0]), _inverse(y2, sch.right_runs[0])
    rB, cB = x2 * (a2 @ iy2), iy2 * (x2 @ a2)
    rD, cD = y2 * (d2 @ ix2), ix2 * (y2 @ d2)
    nb2, nd2 = float(rB.sum()), float(rD.sum())
    if nb2 == 0.0 or nd2 == 0.0:
        raise ZeroMatrixError("matrix is identically zero")
    field = np.result_type(x, y)  # the gradient's, as on the pair route
    grad = LieDirection._from_blocks(sch, *([v.astype(field, copy=False)[:, None, None]]
                                            for v in (rB / nb2 - cD / nd2, rD / nd2 - cB / nb2)))
    nb, nd = math.sqrt(nb2), math.sqrt(nd2)
    return ObjectiveState(math.log(nb) + math.log(nd), grad, nb * nd, g, a, d, inverse)


def _dual_state(A, D, g, factors, inverse=False) -> ObjectiveState:
    """The state of a run that pairs A with D, from what ``gram_factors``
    gives (given, or built here): the factors for a left-only scheme, the
    squared moduli for the two-sided torus, else the checked pair that the
    two actions take.  A left-only state from given factors reads neither A
    nor D."""
    sch = g.scheme
    if factors is None:
        A, D = _pair(A, D, sch)
        factors = gram_factors(A, D, sch)
    if sch.side == "left":
        return _left_state(A, D, g, factors, inverse)
    if _two_sided_torus(sch):
        return _torus_state(A, D, g, factors, inverse)
    return _pair_state(*factors, g, inverse)


def evaluate(A, g: GroupElement, a_inv=None, factors=None) -> ObjectiveState:
    """Objective state at g for the condition objective.

    With ``a_inv``, the inverse of a square A of full rank (computed once per
    run), the state factors nothing.  Under a left-only scheme ``a_inv`` may
    also be U A^-1 for any unitary U, such as W = R^-* = Q* A^-1 from a QR
    A* = Q R: the objective reads A^-1 only through the Gram blocks of its
    column slabs, and B_pinv = U B^-1 has the singular values and the D* D of
    B^-1, so value, gradient, kF, kappa and the Hessian form are unchanged.
    A left-only state reads ||B||_F, ||B^-1||_F and the gradient from
    ``factors``, the run's ``gram_factors(A, a_inv, g.scheme)`` (built here
    when not given), and so does a two-sided torus state, from the squared
    moduli of A and a_inv in four O(m n) matvecs, with D = B^-1 = Y A^-1 X^-1
    formed only when B_pinv is read; any other two-sided state forms B and
    D = Y a_inv X^-1 from the two actions on the checked pair that
    ``gram_factors`` gives, and keeps D as B_pinv.  Otherwise it is one thin SVD: with
    B^+ = V_r S_r^-1 U_r*, the Gram blocks come from U_r / s_r and V_r / s_r.
    Rank-deficient inputs are evaluated with the pseudoinverse and flagged
    rather than rejected.
    """
    if a_inv is not None:
        return _dual_state(A, a_inv, g, factors, inverse=True)
    a = as_dense(A)
    B = apply(g, a)
    u, s, vh = np.linalg.svd(B, full_matrices=False)
    if not len(s) or s[0] == 0.0:
        raise ZeroMatrixError("matrix is identically zero")
    pos = s[s > rank_tolerance(s, B.shape)]
    r = len(pos)
    inv_norm = np.linalg.norm(1.0 / pos)
    kF = float(np.linalg.norm(s) * inv_norm)
    d_left = u[:, :r]
    d_left /= pos
    sch = g.scheme
    d_right = _row_grams(vh[:r].conj().T / pos, sch.right_runs) if sch.side == "both" else None
    grad = _grad_from_grams(sch, B, np.linalg.norm(B) ** 2, _row_grams(d_left, sch.left_runs),
                            d_right, inv_norm**2)
    return ObjectiveState(math.log(kF), grad, kF, g, a, rank_deficient=r < min(B.shape),
                          sigma=s, B=B)


def evaluate_cross(A, B_independent, g: GroupElement, factors=None) -> ObjectiveState:
    """Objective state for the cross condition of an independent pair (A, B).

    A transforms as X A Y^-1 and the second matrix as Y B X^-1; for
    left-only schemes the pair is (X A, B X^-1).  Every state is read from
    ``factors``, the run's ``gram_factors(A, B, g.scheme)`` (built here when
    not given): Gram factors, the squared moduli of the pair in four O(m n)
    matvecs, or, for other two-sided schemes, the checked pair itself, on
    which the state takes the two actions.
    """
    return _dual_state(A, B_independent, g, factors)


def hessian_quadratic_form(state: ObjectiveState, H: LieDirection) -> float:
    """<H, Hess H> along a Lie-algebra direction.

    Computed from the normalized tensor w = B (x) B_pinv: the quadratic form
    equals 2 (||Pi(H) w||^2 - <Pi(H) w, w>^2) where the derivative of the
    pair action is Pi(H)(B (x) D) = (H1 B - B H2) (x) D + B (x) (H2 D - D H1).
    All inner products expand into traces of small products, so the tensor is
    never materialized.
    """
    B, D = state.B, state.B_pinv
    H1, H2 = H.H1, H.H2
    nb2 = np.linalg.norm(B) ** 2
    nd2 = np.linalg.norm(D) ** 2
    u = H1 @ B - (B @ H2 if H2 is not None else 0.0)
    v = (H2 @ D if H2 is not None else 0.0) - D @ H1
    uB = np.trace(B.conj().T @ u)
    vD = np.trace(D.conj().T @ v)
    pairing = uB.real / nb2 + vD.real / nd2
    sq = (
        np.linalg.norm(u) ** 2 / nb2
        + np.linalg.norm(v) ** 2 / nd2
        + 2.0 * (uB * vD).real / (nb2 * nd2)
    )
    return float(2.0 * (sq - pairing**2))


def duality_gap_bound(state: ObjectiveState, weights: WeightData) -> float:
    """Certified upper bound on value - inf value, or inf when not yet active.

    When the gradient norm drops below the weight margin gamma, the
    noncommutative duality bound gives

        value - optimum <= -(1/2) log(1 - ||grad|| / gamma).

    Above the margin the certificate is vacuous and inf is returned.
    """
    gn = state.grad_norm
    gamma = weights.weight_margin
    if gn >= gamma:
        return math.inf
    return -0.5 * math.log1p(-gn / gamma)
