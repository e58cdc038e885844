"""Riemannian gradient descent on the log condition number: the one descent loop.

Every action runs ``_descend`` on a state function, which maps a group
element to its value, gradient, gradient norm, kF and kappa.  The step sizes
are fixed by the analysis, so no config sets them.  Two step rules:

* a base step along the exact gradient, halved on any increase, or on a
  numerically singular candidate, ending as converged once no step of at
  least 1e-14 descends.  The base step is the paper's 1/L, with L = 4 for
  left-only and L = 8 for two-sided schemes, on the matrix runs
  (``minimize_condition``, with or without an estimator) and the polynomial
  shuffle (``minimize_cross_condition`` under ``polysys.precondition_shuffle``).
  Their objective is geodesically L-smooth, so by the descent lemma 1/L never
  raises the value but for round-off, and these runs take the constant step
  1/L.  It is 1/(D + 2) for the full and 1/8 for the sparse polynomial
  action in ``polysys``, which halve where the value rises;
* one step to the closed-form optimum (``objective.left_optimum``), after
  which the run ends, certified or converged: a left-only estimator run on a
  square A of full rank, which holds the exact W of its entry and so the
  Gram factors the optimum is read from.

A step moves along the geodesic exp(-step H) g by ``exp_action`` alone, and
a run that took a step returns the polar factor (``repolarize``) of its last
element, whatever the step rule.  The objective is constant on cosets of the
block-unitary subgroup, and every state route is unitarily equivariant (the
entry inverse, Gram factors, squared moduli, the pair, the thin SVD of B, and
the unitarily invariant polynomial norms): at U P the gradient is U H U*, so
the steps pass through the cosets that a polar factor after every step would
reach.  The closed-form optimum is a polar factor already (``left_optimum``
takes it), so a run that steps to it returns it as it is.

Runs terminate when the duality-gap certificate drops below the target, when
the gradient norm falls below a tolerance or the halving stalls, or at the
iteration cap.  The tolerance is gamma * target_eps for the run's weight
margin gamma (the gradient norm below which the certificate reaches the
target), or 1e-10 for a run without weights.  The certificate is the end
point's bound whenever that is finite; the sparse action has none.  A state
whose value or gradient norm is not finite raises FloatingPointError before
any step is taken along it.  The Euclidean condition number kappa of the
transformed matrix is read at the first and last states only: the first and
last iteration records carry it, interior records carry NaN.  Estimator runs
and the full and sparse polynomial actions, which transform no matrix, compute
no kappa: every record carries NaN.

The matrix runs decide their arithmetic once, at entry: a run whose inputs
have no entry with a nonzero imaginary part is solved in real arithmetic
(float64 element stacks and gradients, and a float64
``final_element.X``/``.Y``), any other run in complex arithmetic.  The code
path is the same for both.  A ``minimize_condition`` run on a square A also
decides at entry, from the one inverse of A it takes, whether A has full rank
(``_entry_inverse``).  A left-only run needs that inverse only up to a unitary
factor on its left, so it takes W = R^-* from one QR A* = Q R, with
A^-1 = Q W, instead of inverting A; on sparse storage it takes the same W, up
to a diagonal unitary, as U^-* D from the Cholesky factor U of the sparse
row-balanced Gram matrix (D A)(D A)* whenever that matrix is well conditioned
(``_balanced_gram_inverse``), a gate that is also the rank decision, and the
QR otherwise.  A two-sided run inverts A.  A full-rank left-only run builds
factors of the Gram blocks of A and of W once (``objective.gram_factors``,
one QR per slab) and reads every state from them in O(sum of size^3) over
the blocks.  A square left-only run on sparse storage holds A as one
canonical CSR, that of its ``ComplexMatrix`` (``_finite``, with
``keep_sparse``), and never densifies it on the Cholesky route: the entry and
the factors of A read its entries (torus row norms in O(nnz), block slabs a
bounded number at a time), and a torus takes the factors of W from the
column norms the entry factor already summed.  A is densified only for the
QR path where that route refuses, for the SVD path of a rank-deficient A,
and for B and kappa at an exact run's end points.  A full-rank two-sided
block run takes B^-1 = Y A^-1 X^-1 at every state from the dual action on
A^-1; a full-rank two-sided torus run squares the moduli of A and A^-1 once
(``objective.gram_factors``, two m x n float64 arrays) and reads every state
from them in four O(m n) matvecs, forming B and B^-1 only at the end points.
Any other run factors every state with a thin SVD, but an estimator run on a
square A raises RankDeficientError.  A left-only or two-sided torus cross run
reads its states from its pair's Gram factors or squared moduli the same way.
The closed-form optimum is read for left-only schemes only.
Every run makes exactly one ``evaluate`` or ``evaluate_cross`` call per
candidate: each state is a candidate, and a matrix or shuffle run rejects
one only where a constant step would raise its value by round-off.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import List, NamedTuple, Optional

import numpy as np
import scipy.sparse as sp

from .errors import (
    DimensionMismatchError,
    NonFiniteInputError,
    RankDeficientError,
    SingularBlockError,
)
from .group import GroupScheme, GroupElement, LieDirection, exp_action, repolarize, weight_data
from .matrix import (
    ComplexMatrix,
    _dense_rows,
    as_dense,
    frobenius_from_singular_values,
    rank_tolerance,
    singular_values,
)
from .objective import duality_gap_bound, evaluate, evaluate_cross, gram_factors, left_optimum

__all__ = [
    "Termination",
    "OptimizerConfig",
    "IterationRecord",
    "OptimizationReport",
    "minimize_condition",
    "minimize_cross_condition",
    "predicted_iteration_bound",
]


class Termination(Enum):
    CERTIFIED = "certified"
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"


@dataclass(frozen=True)
class OptimizerConfig:
    """What one descent run may vary: the scheme, the certificate target and
    the iteration cap.

    The gradient tolerance is gamma * target_eps, the gradient norm under
    which the duality certificate reaches the target.  max_iters must be at
    least 0 and target_eps finite and positive; ValueError otherwise.
    """

    scheme: GroupScheme
    target_eps: float = 1e-2
    max_iters: int = 10_000

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be at least 0, got {self.max_iters}")
        if not (math.isfinite(self.target_eps) and self.target_eps > 0):
            raise ValueError(f"target_eps must be finite and positive, got {self.target_eps}")

    def smoothness(self) -> float:
        return 4.0 if self.scheme.side == "left" else 8.0


class IterationRecord(NamedTuple):
    """One state of a run; kappa is NaN except on the first and last record,
    and on every record of a run that computes no kappa."""

    iteration: int
    value: float
    grad_norm: float
    duality_bound: float
    kF: float
    kappa: float


@dataclass
class OptimizationReport:
    """A run: one record per state from the start, the element it returns and
    why it stopped.  The summary values are read-only views of the first and
    last records (NaN, or a None certificate, before any record): kF and kappa
    at either end, and the certificate, the last duality bound when finite."""

    iterations: List[IterationRecord] = field(default_factory=list)
    final_element: Optional[GroupElement] = None
    termination: Termination = Termination.MAX_ITERS

    @property
    def iteration_count(self) -> int:
        return len(self.iterations) - 1 if self.iterations else 0

    def _end(self, index, name):
        return getattr(self.iterations[index], name) if self.iterations else math.nan

    initial_kF = property(lambda self: self._end(0, "kF"))
    final_kF = property(lambda self: self._end(-1, "kF"))
    initial_kappa = property(lambda self: self._end(0, "kappa"))
    final_kappa = property(lambda self: self._end(-1, "kappa"))

    @property
    def certificate(self) -> Optional[float]:
        bound = self._end(-1, "duality_bound")
        return bound if math.isfinite(bound) else None


class _State(NamedTuple):
    """The fields _descend reads from a state; ObjectiveState carries them too."""

    value: float
    grad: LieDirection
    grad_norm: float
    kF: float
    kappa: float


def _descend(state_fn, g, config: OptimizerConfig, weights, base_step,
             optimum=None) -> OptimizationReport:
    """The descent loop every action runs, from the element g.

    state_fn(g) returns a state with value, grad, grad_norm, kF and kappa;
    kappa is read at the first and last states only.  weights None means no
    certificate.  The run ends CONVERGED once the gradient norm is at most
    gamma * config.target_eps for the weight margin gamma of weights, else
    1e-10.
    Every step moves along state.grad by ``exp_action`` alone, from base_step:
    a candidate is accepted when its value does not increase (a NaN value
    counts as one), and otherwise the step is halved, as it is for a
    candidate whose state raises SingularBlockError or LinAlgError (a
    singular block).  The run ends CONVERGED once no step of at least 1e-14
    descends.  For a base step 1/L on a geodesically L-smooth objective the
    first trial descends but for round-off, so such a run takes the constant
    step 1/L.
    optimum, when given, is a minimizer in closed form with Hermitian positive
    definite blocks: the first step moves to it instead, and the run then
    ends, CONVERGED unless the state it lands on certifies.
    A run that took a step returns the polar factor of its last element
    (``repolarize``), or optimum itself when it stepped there, and one that
    took none returns g.  That needs a unitarily equivariant state_fn (see
    ``group.repolarize``), which every caller has.
    """
    grad_tol = 1e-10 if weights is None else weights.weight_margin * config.target_eps
    state = state_fn(g)
    report = OptimizationReport()
    for k in range(config.max_iters + 1):
        if not (math.isfinite(state.value) and math.isfinite(state.grad_norm)):
            raise FloatingPointError(
                f"objective state at iteration {k} is not finite: value {state.value}, "
                f"gradient norm {state.grad_norm}"
            )
        bound = math.inf if weights is None else duality_gap_bound(state, weights)
        report.iterations.append(IterationRecord(
            k, state.value, state.grad_norm, bound, state.kF, state.kappa if k == 0 else math.nan
        ))
        if bound <= config.target_eps:
            report.termination = Termination.CERTIFIED
            break
        if state.grad_norm <= grad_tol or (optimum is not None and k == 1):
            report.termination = Termination.CONVERGED
            break
        if k == config.max_iters:
            report.termination = Termination.MAX_ITERS
            break
        if optimum is not None:
            g = optimum
            state = state_fn(g)
            continue
        step = base_step
        while True:
            cand = exp_action(g, state.grad, -step)
            try:
                cand_state = state_fn(cand)
            except (SingularBlockError, np.linalg.LinAlgError):
                cand_state = None  # numerically singular candidate: reject it like an increase
            if cand_state is not None and cand_state.value <= state.value:
                break
            if step < 1e-14:  # no descent even at tiny steps: numerically stationary
                cand = None
                break
            step *= 0.5
        if cand is None:
            report.termination = Termination.CONVERGED
            break
        g, state = cand, cand_state
    report.final_element = repolarize(g) if report.iteration_count and g is not optimum else g
    report.iterations[-1] = report.iterations[-1]._replace(kappa=state.kappa)
    return report


def _finite(*mats, keep_sparse=False):
    """The matrices as dense arrays in the run's dtype; NonFiniteInputError if any
    entry is NaN or infinite.

    The run's dtype is float64 when no entry of any matrix has a nonzero
    imaginary part, complex128 otherwise; every later layer follows it.  A
    ComplexMatrix holds real or complex values and is densified in the dtype
    it stores.  With keep_sparse, which the callers pass with one matrix
    only, a square matrix in sparse storage, a sparse ComplexMatrix or a
    scipy.sparse matrix, comes back as its canonical CSR (``_canonical_csr``)
    instead, checked on its stored entries alone; its dtype, decided by
    ``ComplexMatrix`` from those entries, is the run's.
    """
    out = [_canonical_csr(m) if keep_sparse and _square_sparse(m) else as_dense(m)
           for m in mats]
    entries = [m.data if sp.issparse(m) else m for m in out]
    if not all(np.isfinite(e).all() for e in entries):
        raise NonFiniteInputError("input matrix has NaN or infinite entries")
    dtype = complex if any(np.iscomplexobj(e) and e.imag.any() for e in entries) else float
    return [m if sp.issparse(m) else _in_dtype(m, dtype) for m in out]


def _in_dtype(m, dtype):
    """A dense m in dtype, C-contiguous: a real-valued complex m keeps its real
    part."""
    if dtype is complex:
        return m.astype(complex, copy=False)
    return np.ascontiguousarray(m.real)


def _square_sparse(A):
    sparse = sp.issparse(A) or (isinstance(A, ComplexMatrix) and A.is_sparse)
    return sparse and A.shape[0] == A.shape[1]


def _canonical_csr(A):
    """A sparse ComplexMatrix or scipy.sparse matrix as the CSR of its
    ``ComplexMatrix``: sorted indices, duplicates summed, stored zeros dropped,
    float64 when no entry has a nonzero imaginary part, else complex128.
    These are the entries of its dense copy, with no dense copy.  A scipy
    input is read through ``ComplexMatrix.coordinate`` from its stored
    triplets."""
    if not isinstance(A, ComplexMatrix):
        coo = A.tocoo()
        A = ComplexMatrix.coordinate(*A.shape, coo.row, coo.col, coo.data)
    return A.to_csr()


def _row_balanced_kF(a, a_inv):
    """sqrt(m sum_i ||row_i a||^2 ||col_i a^-1||^2), the kF of the row-balanced a.

    Each row of a is divided by its largest entry, and the matching column of
    a^-1 multiplied by it, before the norms are taken, so that scaled rows do
    not overflow.  64 rows at a time: no m x m temporary, and the columns of
    a W = R^-* are read along the contiguous rows of R^-1.
    """
    m = a.shape[0]
    weights, cols = np.empty(m), a_inv.T
    for s in range(0, m, 64):
        rows = a[s:s + 64]
        scale = np.abs(rows).max(axis=1)[:, None]
        weights[s:s + 64] = (np.linalg.norm(rows / scale, axis=1)
                             * np.linalg.norm(cols[s:s + 64] * scale, axis=1))
    return math.sqrt(m) * float(np.linalg.norm(weights))


def _balanced_gram_inverse(a_csr):
    """(W, norms) from the Cholesky factor of the row-balanced Gram matrix, else
    None.

    With d_i = 1 / max |row_i a| and D = diag(d), G = (D a)(D a)* = U* U
    (``?potrf``) gives W = U^-* D, with a^-1 = Q W for the unitary
    Q = (D a)* U^-1, and the column norms of W, d_i ||row_i U^-1||.  a_csr is
    canonical (``_canonical_csr``): a stored zero would make a zero row's
    scale 0.  G is sparse, so forming it and its 1-norm costs O(nnz(G)); only
    the factor is dense, and it is scattered from G's entries into the one
    m x m array that potrf and trtri overwrite and W views.

    The factor is as accurate as the QR's, whose error the row balance keeps
    at about eps cond(D a), when eps cond(G) is within the round-off budget
    1e-12 (van der Sluis 1969; Demmel, LAPACK Working Note 14, 1989).  So
    the route applies only when eps ||G||_1 ||G^-1||_1 <= 1e-12, with
    ||G^-1||_1 read from the triangular inverse U^-1, and otherwise returns
    None for the caller's QR path, as it does when potrf fails (a zero or
    repeated row).  Two O(m^2) tests spare the O(m^3) work where they can.
    Before the inverse, ``?pocon`` estimates rcond(G) from a lower bound on
    ||G^-1||_1 and refuses when it reports eps > 1e-12 rcond(G): the refused
    input then pays only G, potrf and pocon on top of the QR path.  After it,
    the upper bound ||G^-1||_1 <= max_i (|U^-1| |U^-1|^T 1)_i accepts without
    forming G^-1's column slabs; it reads up to about 3.4 times pocon's
    estimate on random sparse inputs, and those slabs decide in between.

    This gate is also the rank decision: an accepted a has full rank.  G is
    Hermitian, so cond_2(G) <= cond_1(G) <= 1e-12 / eps = 4504 and
    cond_2(D a) <= 67.1.  Rows of D a scaled to unit norm change that by at
    most sqrt(m), and kF(M) <= m cond_2(M), so the row-balanced kF of
    ``_row_balanced_kF`` is at most 67.1 m^1.5: below the cutoff
    1 / (m eps) of the QR path for every m up to about 3.4e5, where W alone
    would take 0.9 TB.
    """
    from scipy.linalg import get_lapack_funcs

    m, counts = a_csr.shape[0], np.diff(a_csr.indptr)
    scale = np.ones(m)  # a zero row stays zero, and potrf fails on it
    scale[counts > 0] = np.maximum.reduceat(np.abs(a_csr.data), a_csr.indptr[:-1][counts > 0])
    da = sp.csr_matrix((a_csr.data / np.repeat(scale, counts), a_csr.indices, a_csr.indptr),
                       shape=a_csr.shape)
    gram = da @ da.conj().T
    g = _dense_rows(gram, 0, m, order="F")
    potrf, pocon, trtri = get_lapack_funcs(("potrf", "pocon", "trtri"), (g,))
    u, info = potrf(g, overwrite_a=True)
    if info != 0:
        return None
    norm1, eps = float(abs(gram).sum(axis=0).max()), np.finfo(float).eps
    rcond, info = pocon(u, norm1)
    if not (info == 0 and eps <= 1e-12 * rcond):
        return None
    u_inv, _ = trtri(u, overwrite_c=True)  # U's diagonal is positive: no zero pivot
    row_sq, bound = np.zeros(m), np.zeros(m)
    for s in range(0, m, 32):  # column slabs of the Fortran-ordered U^-1: no m x m temporary
        slab = np.abs(u_inv[:, s:s + 32])
        row_sq += np.einsum("ij,ij->i", slab, slab)
        bound += slab @ slab.sum(axis=0)
    inv_norm1 = bound.max()
    if eps * norm1 * inv_norm1 > 1e-12:  # the 1-norm itself, from slabs of G^-1 = U^-1 U^-*
        inv_norm1 = max(np.abs(u_inv[:, s:] @ u_inv[s:s + 32, s:].conj().T).sum(axis=0).max()
                        for s in range(0, m, 32))
    if not eps * norm1 * inv_norm1 <= 1e-12:
        return None
    u_inv /= scale[:, None]
    if np.iscomplexobj(u_inv):
        np.conjugate(u_inv, out=u_inv)  # W = U^-* D in place: no second m x m array
    return u_inv.T, np.sqrt(row_sq) / scale


def _entry_inverse(a, required, up_to_unitary=False):
    """(a_inv, norms): the inverse of a square a of full rank, else None
    (RankDeficientError when required), the one rank decision of a run; and the
    column norms of a_inv where the route that found it has them, else None.

    With up_to_unitary it returns W = R^-* from one QR a* = Q R instead, so
    that a^-1 = Q W: W has the column norms and column Gram blocks of a^-1,
    for about 2 n^3 flops against the inverse's 8 n^3 / 3.  On these dense
    routes a has full rank when it is not singular (a LinAlgError, or an
    exact zero on R's diagonal) and the row-balanced a, D a with
    D = diag(1 / ||row_i a||), has
    kF = sqrt(m sum_i ||row_i a||^2 ||col_i a^-1||^2) below 1 / (max(m, n) eps),
    an O(m^2) test that no left diagonal scaling of a changes and that reads
    the same from W, whose column norms are those of a^-1 (``_row_balanced_kF``).

    a is dense or a canonical CSR.  With up_to_unitary, a CSR a gives
    W = U^-* D and its column norms from the Cholesky factor U of the sparse
    row-balanced Gram matrix when that is well conditioned
    (``_balanced_gram_inverse``), whose gate proves that a has full rank, so
    the pair is returned as it is; otherwise a is densified here, once, and
    the QR path runs as for dense storage and alone makes the rank decision.
    """
    from scipy.linalg import get_lapack_funcs  # here, so importing geoprec leaves it unloaded

    found = _balanced_gram_inverse(a) if up_to_unitary and sp.issparse(a) else None
    if found is not None:
        return found
    a = as_dense(a)
    try:
        if up_to_unitary:
            r = np.linalg.qr(a.conj().T, mode="r")
            r_inv, info = get_lapack_funcs("trtri", (r,))(r)  # info > 0: zero on R's diagonal
            a_inv = r_inv.conj().T if info == 0 else None
        else:
            a_inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        a_inv = None
    kF = math.inf if a_inv is None else _row_balanced_kF(a, a_inv)
    cutoff = 1.0 / (max(a.shape) * np.finfo(float).eps)
    if required and not kF < cutoff:
        raise RankDeficientError(
            f"the estimator path assumes a full-rank input: the row-balanced input has "
            f"kF {kF:.3g}, not below 1 / (max(m, n) eps) = {cutoff:.3g}"
        )
    return (a_inv, None) if kF < cutoff else (None, None)


def minimize_condition(A, config: OptimizerConfig, estimator=None) -> OptimizationReport:
    """Gradient descent on log kF(g . A) from the identity element.

    A real A, or a complex one whose imaginary parts are all zero, is solved
    in real arithmetic and yields a float64 final element.  A square A of full
    rank (see _entry_inverse) is factored once, at entry: a left-only run reads
    every state from the Gram factors of A and of W = R^-* from a QR A* = Q R,
    which equal those of A^-1 = Q W, or, for a sparse A (a sparse
    ComplexMatrix or a scipy.sparse matrix) whose row-balanced Gram matrix is
    well conditioned, of W = U^-* D from that matrix's Cholesky factor; a
    two-sided torus run reads every state from the squared moduli of A and
    A^-1, and any other two-sided run takes B^-1 from the dual action on
    A^-1.  A sparse A in a
    square left-only run is held as one canonical CSR, read through its
    entries: it is densified only where the Cholesky route refuses, for the
    QR, or A turns out rank-deficient, and for B at an exact run's first and
    last states.  Any other A is solved densely, with a thin SVD of B at
    every state.  A full-rank run reports kappa = sigma_max(B) / sigma_min(B)
    from one SVD of B without vectors and no rank cutoff; an SVD run drops
    singular values at or below max(m, n) eps sigma_max.

    An EstimatorConfig asks for the matrix-free contract: such a run reports
    every kappa as NaN, on a square A computes no singular values and raises
    RankDeficientError unless A has full rank.  It steps along the exact
    gradient its states hold, as the exact run on the same A does, and so
    returns that run's records and element; but a left-only estimator run on
    a square A takes one step, to the optimum that ``objective.left_optimum``
    reads in closed form from the Gram factors of its entry, certified from
    the exact gradient of the state it lands on, or else ending converged.
    """
    sch = config.scheme
    left = sch.side == "left"
    (a,) = _finite(A, keep_sparse=left)
    if a.shape[0] != sch.m or (sch.side == "both" and a.shape[1] != sch.n):
        raise DimensionMismatchError(
            f"matrix shape {a.shape} does not match scheme ({sch.m}, {sch.n})"
        )
    square = a.shape[0] == a.shape[1]
    a_inv, norms = _entry_inverse(a, required=estimator is not None,
                                  up_to_unitary=left) if square else (None, None)
    if a_inv is None:
        a = as_dense(a)  # every state of an SVD run reads B
    factors = None if a_inv is None else gram_factors(a, a_inv, sch, norms)
    optimum = None
    if estimator is not None and factors is not None and left:
        optimum = left_optimum(factors, sch, a.dtype)[0]

    def state_fn(g):
        state = evaluate(a, g, a_inv=a_inv, factors=factors)
        if estimator is None:
            return state
        return _State(state.value, state.grad, state.grad_norm, state.kF, math.nan)

    return _descend(state_fn, sch.identity(a.dtype), config, weight_data(sch),
                    1.0 / config.smoothness(), optimum=optimum)


def minimize_cross_condition(A, B, config: OptimizerConfig) -> OptimizationReport:
    """Gradient descent on the cross condition log ||X A Y^-1|| ||Y B X^-1||."""
    a, b = _finite(A, B)
    sch = config.scheme
    factors = gram_factors(a, b, sch)
    return _descend(lambda g: evaluate_cross(a, b, g, factors=factors), sch.identity(a.dtype),
                    config, weight_data(sch), 1.0 / config.smoothness())


def predicted_iteration_bound(A, config: OptimizerConfig,
                              kF_star_estimate: Optional[float] = None,
                              strongly_convex: Optional[bool] = None) -> int:
    """Worst-case iteration count from the convergence analysis.

    general:             T = ceil( 2 L gap0 / (gamma eps)^2 )
    strongly convex:     T = ceil( kF(A)^2 (L/4) log(gap0 / eps) )

    where gap0 = log(kF(A) / kF*).  strongly_convex None takes the strongly
    convex bound for a left-only scheme on an A of full rank, decided as in
    minimize_condition for a square A, else from the singular values; True on
    a rank-deficient A raises RankDeficientError.  kF_star_estimate None reads
    kF* itself, in closed form (``objective.left_optimum``), for a left-only
    scheme on a square A of full rank; on any other input it is required.
    Returns 0 when the input is already optimal (gap0 <= 0) or the remaining
    gap is below eps under the strongly convex bound.  A square A in sparse
    storage is read as in minimize_condition, from one canonical CSR that
    the Cholesky route never densifies.  An A with NaN or
    infinite entries raises NonFiniteInputError, a kF_star_estimate that is
    not finite and positive, or None where kF* has no closed form, ValueError.
    """
    if kF_star_estimate is not None and not (math.isfinite(kF_star_estimate)
                                             and kF_star_estimate > 0):
        raise ValueError(f"kF_star_estimate must be finite and positive, got {kF_star_estimate}")
    (a,) = _finite(A, keep_sparse=True)
    sch = config.scheme
    square = a.shape[0] == a.shape[1]
    # ||A^-1||_F, the rank decision and the left factors read W for any scheme.
    a_inv, norms = _entry_inverse(a, required=False, up_to_unitary=True) if square else \
        (None, None)
    if kF_star_estimate is None:
        if a_inv is None or sch.side != "left":
            raise ValueError("kF_star_estimate is required unless the scheme is left-only "
                             "and A square of full rank")
        kF_star_estimate = left_optimum(gram_factors(a, a_inv, sch, norms), sch, a.dtype)[1]
    if a_inv is not None:
        entries = a.data if sp.issparse(a) else a
        full_rank, kF0 = True, float(np.linalg.norm(entries) * np.linalg.norm(a_inv))
    else:
        s = singular_values(a)
        full_rank = not square and s[-1] > rank_tolerance(s, a.shape)
        kF0 = frobenius_from_singular_values(s, a.shape)
    if strongly_convex is None:
        strongly_convex = config.scheme.side == "left" and full_rank
    elif strongly_convex and not full_rank:
        raise RankDeficientError("the strongly convex bound requires a full-rank input")
    gap0 = math.log(kF0 / kF_star_estimate)
    if gap0 <= 0.0:
        return 0
    L = config.smoothness()
    eps = config.target_eps
    if strongly_convex:
        if gap0 <= eps:
            return 0
        return int(math.ceil(kF0**2 * (L / 4.0) * math.log(gap0 / eps)))
    gamma = weight_data(config.scheme).weight_margin
    return int(math.ceil(2.0 * L * gap0 / (gamma * eps) ** 2))
