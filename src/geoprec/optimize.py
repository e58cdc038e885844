"""Riemannian gradient descent on the log condition number: the one descent loop.

Every action runs ``_descend`` on a state function, which maps a group
element to its value, gradient, gradient norm, kF and kappa.  The step sizes
are fixed by the analysis, so no config sets them.  Two step policies:

* constant step 1/L, the paper's default, with L = 4 for left-only and L = 8
  for two-sided schemes: the matrix runs (``minimize_condition``, also with
  the probe estimator) and the polynomial shuffle (``minimize_cross_condition``
  under ``polysys.precondition_shuffle``);
* halving on any increase, or on a numerically singular candidate, from a
  base step, ending as converged once no step of at least 1e-14 descends:
  the full (base 1/(D + 2)) and sparse (base 1/8) polynomial actions in
  ``polysys``.

A step moves along the geodesic exp(-step H) g.  SVD-path runs and estimator
runs replace every step by its polar factor (``repolarize``).  An exact
full-rank ``minimize_condition`` run, every ``minimize_cross_condition`` run
and every halving run read unitarily equivariant states (from the entry
inverse, Gram factors, the pair, or unitarily invariant polynomial norms), so
they step with ``exp_action`` alone and repolarize once, the element they
return: ``polar_at_end`` for a constant step, always for halving.

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
(float64 element stacks, gradients and estimator directions, and a float64
``final_element.X``/``.Y``), any other run in complex arithmetic.  The code
path is the same for both.  A ``minimize_condition`` run on a square A also
decides at entry, from the one inverse of A it takes, whether A has full rank
(``_entry_inverse``).  A left-only run needs that inverse only up to a unitary
factor on its left, so it takes W = R^-* from one QR A* = Q R, with
A^-1 = Q W, instead of inverting A; a two-sided run inverts A.  A full-rank
left-only run builds factors of the Gram blocks of A and of W once
(``objective.gram_factors``, one QR per slab) and reads every state from them
in O(sum of size^3) over the blocks; a full-rank two-sided run takes
B^-1 = Y A^-1 X^-1 at every state from the dual action on A^-1; any other run
factors every state with a thin SVD, but an estimator run on a square A
raises RankDeficientError.  A left-only cross run reads its states from the
Gram factors of its pair the same way.
Every run makes exactly one ``evaluate`` or ``evaluate_cross`` call per state.
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
    as_dense,
    frobenius_from_singular_values,
    rank_tolerance,
    singular_values,
)
from .objective import duality_gap_bound, evaluate, evaluate_cross, gram_factors

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
             halving=False, step_dir=None, polar_at_end=False) -> OptimizationReport:
    """The descent loop every action runs, from the element g.

    state_fn(g) returns a state with value, grad, grad_norm, kF and kappa;
    kappa is read at the first and last states only.  weights None means no
    certificate.  The run ends CONVERGED once the gradient norm is at most
    gamma * config.target_eps for the weight margin gamma of weights, else
    1e-10.
    Without halving every step is base_step; with halving a step is halved
    until the candidate's value does not increase, and the run also ends
    CONVERGED once no step of at least 1e-14 descends.  A halving candidate
    whose state raises SingularBlockError or LinAlgError (a singular block)
    counts as an increase.
    step_dir(g), when given, replaces state.grad as the step direction.
    A constant step is repolarized unless polar_at_end.  A halving candidate,
    and a constant step with polar_at_end, moves by ``exp_action`` alone, and
    only the returned element, if a step was taken, is repolarized.  That
    needs a unitarily equivariant state_fn and direction (see
    ``group.repolarize``), which every halving caller has.
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
        if state.grad_norm <= grad_tol:
            report.termination = Termination.CONVERGED
            break
        if k == config.max_iters:
            report.termination = Termination.MAX_ITERS
            break
        direction = state.grad if step_dir is None else step_dir(g)
        if not halving:
            del state  # the old B and gradient must not outlive the next factorization
            g = exp_action(g, direction, -base_step)
            if not polar_at_end:
                g = repolarize(g)
            del direction
            state = state_fn(g)
            continue
        step = base_step
        while True:
            cand = exp_action(g, direction, -step)
            try:
                cand_state = state_fn(cand)
            except (SingularBlockError, np.linalg.LinAlgError):
                cand_state = None  # numerically singular candidate: reject it like an increase
            if cand_state is not None and cand_state.value <= state.value:
                break
            if step < 1e-14:  # no descent even at tiny steps: numerically stationary
                cand = None
                break
            step *= 0.5  # no global smoothness constant: enforce descent
        if cand is None:
            report.termination = Termination.CONVERGED
            break
        g, state = cand, cand_state
    polar = polar_at_end or halving
    report.final_element = repolarize(g) if polar and report.iteration_count else g
    report.iterations[-1] = report.iterations[-1]._replace(kappa=state.kappa)
    return report


def _finite(*mats):
    """The matrices as dense arrays in the run's dtype; NonFiniteInputError if any
    entry is NaN or infinite.

    The run's dtype is float64 when no entry of any matrix has a nonzero
    imaginary part, complex128 otherwise; every later layer follows it.  A
    ComplexMatrix holds real or complex values and is densified in the dtype
    it stores.
    """
    out = [as_dense(m) for m in mats]
    if not all(np.isfinite(m).all() for m in out):
        raise NonFiniteInputError("input matrix has NaN or infinite entries")
    if any(np.iscomplexobj(m) and m.imag.any() for m in out):
        return [m.astype(complex, copy=False) for m in out]
    return [np.ascontiguousarray(m.real) for m in out]


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


def _entry_inverse(a, required, up_to_unitary=False):
    """The inverse of a square a of full rank, else None (RankDeficientError when
    required): the one rank decision of a run.

    With up_to_unitary it returns W = R^-* from one QR a* = Q R instead, so
    that a^-1 = Q W: W has the column norms and column Gram blocks of a^-1,
    for about 2 n^3 flops against the inverse's 8 n^3 / 3.  a has full rank
    when it is not singular (a LinAlgError, or an exact zero on R's diagonal)
    and the row-balanced a, D a with D = diag(1 / ||row_i a||), has
    kF = sqrt(m sum_i ||row_i a||^2 ||col_i a^-1||^2) below 1 / (max(m, n) eps),
    an O(m^2) test that no left diagonal scaling of a changes and that reads
    the same from W, whose column norms are those of a^-1 (``_row_balanced_kF``).
    """
    from scipy.linalg import get_lapack_funcs  # here, so importing geoprec leaves it unloaded

    try:
        if up_to_unitary:
            r = np.linalg.qr(a.conj().T, mode="r")
            r_inv, info = get_lapack_funcs("trtri", (r,))(r)  # info > 0: a zero on R's diagonal
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
    return a_inv if kF < cutoff else None


def minimize_condition(A, config: OptimizerConfig, estimator=None) -> OptimizationReport:
    """Gradient descent on log kF(g . A) from the identity element.

    A real A, or a complex one whose imaginary parts are all zero, is solved
    in real arithmetic and yields a float64 final element.  A square A of full
    rank (see _entry_inverse) is factored once, at entry: a left-only run reads
    every state from the Gram factors of A and of W = R^-* from a QR A* = Q R,
    which equal those of A^-1 = Q W; a two-sided run takes B^-1 from the dual
    action on A^-1.  Any other A is solved with a thin SVD of B at
    every state.  A full-rank run reports kappa = sigma_max(B) sigma_max(B^-1)
    with no rank cutoff; an SVD run drops singular values at or below
    max(m, n) eps sigma_max.

    With an EstimatorConfig, the step direction comes from the matrix-free
    probe estimator while values, gradient norms, and certificates are still
    computed exactly, so the reported certificates stay sound.  Such a run
    computes no singular values: it raises RankDeficientError for a square A
    without full rank, and reports every kappa as NaN.
    """
    (a,) = _finite(A)
    sch = config.scheme
    if a.shape[0] != sch.m or (sch.side == "both" and a.shape[1] != sch.n):
        raise DimensionMismatchError(
            f"matrix shape {a.shape} does not match scheme ({sch.m}, {sch.n})"
        )
    square = a.shape[0] == a.shape[1]
    a_inv = _entry_inverse(a, required=estimator is not None,
                           up_to_unitary=sch.side == "left") if square else None
    step_dir = None
    if estimator is not None:
        from .stochastic import estimate_gradient

        if isinstance(A, ComplexMatrix) and A.is_sparse:  # no re-scan of the dense copy
            a_sparse = A.to_csr()
        else:
            a_sparse = sp.csr_matrix(a)

        def step_dir(g):
            return estimate_gradient(a_sparse, g, estimator)

    factors = None if a_inv is None else gram_factors(a, a_inv, sch)

    def state_fn(g):
        state = evaluate(a, g, a_inv=a_inv, factors=factors)
        if step_dir is None:
            return state
        return _State(state.value, state.grad, state.grad_norm, state.kF, math.nan)

    return _descend(state_fn, sch.identity(a.dtype), config, weight_data(sch),
                    1.0 / config.smoothness(), step_dir=step_dir,
                    polar_at_end=a_inv is not None and estimator is None)


def minimize_cross_condition(A, B, config: OptimizerConfig) -> OptimizationReport:
    """Gradient descent on the cross condition log ||X A Y^-1|| ||Y B X^-1||."""
    a, b = _finite(A, B)
    sch = config.scheme
    factors = gram_factors(a, b, sch)
    return _descend(lambda g: evaluate_cross(a, b, g, factors=factors), sch.identity(a.dtype),
                    config, weight_data(sch), 1.0 / config.smoothness(), polar_at_end=True)


def predicted_iteration_bound(A, config: OptimizerConfig, kF_star_estimate: float,
                              strongly_convex: Optional[bool] = None) -> int:
    """Worst-case iteration count from the convergence analysis.

    general:             T = ceil( 2 L gap0 / (gamma eps)^2 )
    strongly convex:     T = ceil( kF(A)^2 (L/4) log(gap0 / eps) )

    where gap0 = log(kF(A) / kF*).  strongly_convex None takes the strongly
    convex bound for a left-only scheme on an A of full rank, decided as in
    minimize_condition for a square A, else from the singular values; True on
    a rank-deficient A raises RankDeficientError.
    Returns 0 when the input is already optimal (gap0 <= 0) or the remaining
    gap is below eps under the strongly convex bound.  An A with NaN or
    infinite entries raises NonFiniteInputError, a kF_star_estimate that is
    not finite and positive ValueError.
    """
    if not (math.isfinite(kF_star_estimate) and kF_star_estimate > 0):
        raise ValueError(f"kF_star_estimate must be finite and positive, got {kF_star_estimate}")
    (a,) = _finite(A)
    square = a.shape[0] == a.shape[1]
    # Only ||A^-1||_F and the rank decision are read, so W serves for any scheme.
    a_inv = _entry_inverse(a, required=False, up_to_unitary=True) if square else None
    if a_inv is not None:
        full_rank, kF0 = True, float(np.linalg.norm(a) * np.linalg.norm(a_inv))
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
