"""Riemannian gradient descent on the log condition number: the one descent loop.

Every action runs ``_descend`` on a state function, which maps a group
element to its value, gradient, gradient norm, kF and kappa.  Two step
policies:

* constant step 1/L, the paper's default, with L = 4 for left-only and L = 8
  for two-sided schemes: the matrix runs (``minimize_condition``, also with
  the probe estimator) and the polynomial shuffle (``minimize_cross_condition``
  under ``polysys.precondition_shuffle``);
* halving on any increase, or on a candidate too close to singular to
  repolarize, from a base step, ending as converged once no step of at least
  1e-14 descends: the full (base 1/(D + 2)) and sparse (base 1/8) polynomial
  actions in ``polysys``.

Runs terminate when the duality-gap certificate drops below the target, when
the gradient norm falls below a tolerance or the halving stalls, or at the
iteration cap.  The certificate is the end point's bound whenever that is
finite; the sparse action has none.  A state whose value or gradient norm is
not finite raises FloatingPointError before any step is taken along it.

The matrix runs decide their arithmetic once, at entry: a run whose inputs
have no entry with a nonzero imaginary part is solved in real arithmetic
(float64 element stacks, gradients and estimator directions, and a float64
``final_element.X``/``.Y``), any other run in complex arithmetic.  The code
path is the same for both.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import List, NamedTuple, Optional, Union

import numpy as np
import scipy.sparse as sp

from .errors import (
    DimensionMismatchError,
    NonFiniteInputError,
    RankDeficientError,
    SingularBlockError,
)
from .group import GroupScheme, GroupElement, LieDirection, exp_action, repolarize, weight_data
from .matrix import as_dense, condition_frobenius
from .objective import duality_gap_bound, evaluate, evaluate_cross

__all__ = [
    "Termination",
    "OptimizerConfig",
    "IterationRecord",
    "OptimizationReport",
    "minimize_condition",
    "minimize_cross_condition",
    "predicted_iteration_bound",
]

AUTO = "auto"


class Termination(Enum):
    CERTIFIED = "certified"
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for one descent run.

    step_size "auto" resolves to 1/L.  mode "auto" selects the strongly
    convex regime exactly when the scheme is left-only and the input has full
    rank; "strongly_convex" on a rank-deficient input is an error.  The
    default gradient tolerance is gamma * target_eps, the threshold under
    which the duality certificate reaches the target.
    """

    scheme: GroupScheme
    target_eps: float = 1e-2
    max_iters: int = 10_000
    step_size: Union[float, str] = AUTO
    mode: str = AUTO  # general | strongly_convex | auto
    grad_tol_override: Optional[float] = None

    def smoothness(self) -> float:
        return 4.0 if self.scheme.side == "left" else 8.0

    def resolved_step(self) -> float:
        if self.step_size == AUTO:
            return 1.0 / self.smoothness()
        return float(self.step_size)

    def resolved_grad_tol(self) -> float:
        if self.grad_tol_override is not None:
            return float(self.grad_tol_override)
        return weight_data(self.scheme).weight_margin * self.target_eps


class IterationRecord(NamedTuple):
    iteration: int
    value: float
    grad_norm: float
    duality_bound: float
    kF: float
    kappa: float


@dataclass
class OptimizationReport:
    iterations: List[IterationRecord] = field(default_factory=list)
    final_element: Optional[GroupElement] = None
    initial_kF: float = math.nan
    final_kF: float = math.nan
    initial_kappa: float = math.nan
    final_kappa: float = math.nan
    certificate: Optional[float] = None
    termination: Termination = Termination.MAX_ITERS

    @property
    def iteration_count(self) -> int:
        return len(self.iterations) - 1 if self.iterations else 0


class _State(NamedTuple):
    """The fields _descend reads from a state; ObjectiveState carries them too."""

    value: float
    grad: LieDirection
    grad_norm: float
    kF: float
    kappa: float


def _resolve_mode(config: OptimizerConfig, rank_deficient: bool) -> str:
    if config.mode == AUTO:
        if config.scheme.side == "left" and not rank_deficient:
            return "strongly_convex"
        return "general"
    if config.mode == "strongly_convex" and rank_deficient:
        raise RankDeficientError("strongly convex mode requires a full-rank input")
    return config.mode


def _descend(state_fn, g, config: OptimizerConfig, weights, grad_tol, base_step,
             halving=False, step_dir=None) -> OptimizationReport:
    """The descent loop every action runs, from the element g.

    state_fn(g) returns a state with value, grad, grad_norm, kF and kappa.
    Without halving every step is base_step; with halving a step is halved
    until the candidate repolarizes and its value does not increase, and the
    run ends CONVERGED once no step of at least 1e-14 descends.  weights None means no certificate.
    step_dir(g), when given, replaces state.grad as the step direction.
    """
    state = state_fn(g)
    report = OptimizationReport(initial_kF=state.kF, initial_kappa=state.kappa)
    for k in range(config.max_iters + 1):
        if not (math.isfinite(state.value) and math.isfinite(state.grad_norm)):
            raise FloatingPointError(
                f"objective state at iteration {k} is not finite: value {state.value}, "
                f"gradient norm {state.grad_norm}"
            )
        bound = math.inf if weights is None else duality_gap_bound(state, weights)
        report.iterations.append(
            IterationRecord(k, state.value, state.grad_norm, bound, state.kF, state.kappa)
        )
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
            g = repolarize(exp_action(g, direction, -base_step))
            del direction
            state = state_fn(g)
            continue
        step = base_step
        while True:
            try:
                cand = repolarize(exp_action(g, direction, -step))
            except SingularBlockError:  # numerically singular candidate: reject it like an increase
                cand = None
            if cand is not None:
                cand_state = state_fn(cand)
                if cand_state.value <= state.value:
                    break
            if step < 1e-14:  # no descent even at tiny steps: numerically stationary
                cand = None
                break
            step *= 0.5  # no global smoothness constant: enforce descent
        if cand is None:
            report.termination = Termination.CONVERGED
            break
        g, state = cand, cand_state
    report.certificate = bound if math.isfinite(bound) else None
    report.final_element = g
    report.final_kF = state.kF
    report.final_kappa = state.kappa
    return report


def _finite(*mats):
    """The matrices as dense arrays in the run's dtype; NonFiniteInputError if any
    entry is NaN or infinite.

    The run's dtype is float64 when no entry of any matrix has a nonzero
    imaginary part, complex128 otherwise; every later layer follows it.
    """
    out = [as_dense(m) for m in mats]
    if not all(np.isfinite(m).all() for m in out):
        raise NonFiniteInputError("input matrix has NaN or infinite entries")
    if any(m.imag.any() for m in out if np.iscomplexobj(m)):
        return [m.astype(complex, copy=False) for m in out]
    return [np.ascontiguousarray(m.real) for m in out]


def minimize_condition(A, config: OptimizerConfig, estimator=None) -> OptimizationReport:
    """Gradient descent on log kF(g . A) from the identity element.

    A real A, or a complex one whose imaginary parts are all zero, is solved
    in real arithmetic and yields a float64 final element.

    With an EstimatorConfig, the step direction comes from the matrix-free
    probe estimator while values, gradient norms, and certificates are still
    computed exactly, so the reported certificates stay sound.
    """
    (a,) = _finite(A)
    sch = config.scheme
    if a.shape[0] != sch.m or (sch.side == "both" and a.shape[1] != sch.n):
        raise DimensionMismatchError(
            f"matrix shape {a.shape} does not match scheme ({sch.m}, {sch.n})"
        )
    step_dir = None
    if estimator is not None:
        from .stochastic import estimate_gradient

        a_sparse = sp.csr_matrix(a)

        def step_dir(g):
            return estimate_gradient(a_sparse, g, estimator)

    start = sch.identity(a.dtype)

    def state_fn(g):
        state = evaluate(a, g)
        if g is start:  # the mode is checked against the rank of the input
            _resolve_mode(config, state.rank_deficient)
        return state

    return _descend(state_fn, start, config, weight_data(sch), config.resolved_grad_tol(),
                    config.resolved_step(), step_dir=step_dir)


def minimize_cross_condition(A, B, config: OptimizerConfig) -> OptimizationReport:
    """Gradient descent on the cross condition log ||X A Y^-1|| ||Y B X^-1||."""
    a, b = _finite(A, B)
    sch = config.scheme
    return _descend(lambda g: evaluate_cross(a, b, g), sch.identity(a.dtype), config,
                    weight_data(sch), config.resolved_grad_tol(), config.resolved_step())


def predicted_iteration_bound(A, config: OptimizerConfig, kF_star_estimate: float) -> int:
    """Worst-case iteration count from the convergence analysis.

    general mode:        T = ceil( 2 L gap0 / (gamma eps)^2 )
    strongly convex:     T = ceil( kF(A)^2 (L/4) log(gap0 / eps) )

    where gap0 = log(kF(A) / kF*).  Returns 0 when the input is already
    optimal (gap0 <= 0) or the remaining gap is below eps in strongly convex
    mode.
    """
    kF0 = condition_frobenius(as_dense(A))
    gap0 = math.log(kF0 / kF_star_estimate)
    if gap0 <= 0.0:
        return 0
    L = config.smoothness()
    eps = config.target_eps
    mode = config.mode
    if mode == AUTO:
        mode = "strongly_convex" if config.scheme.side == "left" else "general"
    if mode == "strongly_convex":
        if gap0 <= eps:
            return 0
        return int(math.ceil(kF0**2 * (L / 4.0) * math.log(gap0 / eps)))
    gamma = weight_data(config.scheme).weight_margin
    return int(math.ceil(2.0 * L * gap0 / (gamma * eps) ** 2))
