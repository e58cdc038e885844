"""Constant-step Riemannian gradient descent on the log condition number.

The step size is 1/L with L = 4 for left-only schemes and L = 8 for
two-sided schemes.  Runs terminate when the duality-gap certificate drops
below the target, when the gradient norm falls below a tolerance, or at the
iteration cap.  Every accepted step decreases the objective.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import List, NamedTuple, Optional, Union

import scipy.sparse as sp

from .errors import DimensionMismatchError, RankDeficientError
from .group import GroupScheme, GroupElement, exp_action, repolarize, weight_data
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


def _resolve_mode(config: OptimizerConfig, rank_deficient: bool) -> str:
    if config.mode == AUTO:
        if config.scheme.side == "left" and not rank_deficient:
            return "strongly_convex"
        return "general"
    if config.mode == "strongly_convex" and rank_deficient:
        raise RankDeficientError("strongly convex mode requires a full-rank input")
    return config.mode


def _descend(eval_fn, config: OptimizerConfig, step_dir=None) -> OptimizationReport:
    wd = weight_data(config.scheme)
    eta = config.resolved_step()
    grad_tol = config.resolved_grad_tol()
    g = config.scheme.identity()
    state = eval_fn(g)
    _resolve_mode(config, state.rank_deficient)

    report = OptimizationReport(
        initial_kF=state.kF,
        initial_kappa=state.kappa,
    )
    for k in range(config.max_iters + 1):
        bound = duality_gap_bound(state, wd)
        report.iterations.append(
            IterationRecord(k, state.value, state.grad_norm, bound, state.kF, state.kappa)
        )
        if bound <= config.target_eps:
            report.termination = Termination.CERTIFIED
            report.certificate = bound
            break
        if state.grad_norm <= grad_tol:
            report.termination = Termination.CONVERGED
            report.certificate = bound if math.isfinite(bound) else None
            break
        if k == config.max_iters:
            report.termination = Termination.MAX_ITERS
            report.certificate = bound if math.isfinite(bound) else None
            break
        direction = state.grad if step_dir is None else step_dir(g)
        del state  # the old B and gradient must not outlive the next factorization
        g = repolarize(exp_action(g, direction, -eta))
        del direction
        state = eval_fn(g)
    report.final_element = g
    report.final_kF = state.kF
    report.final_kappa = state.kappa
    return report


def minimize_condition(A, config: OptimizerConfig, estimator=None) -> OptimizationReport:
    """Gradient descent on log kF(g . A) from the identity element.

    With an EstimatorConfig, the step direction comes from the matrix-free
    probe estimator while values, gradient norms, and certificates are still
    computed exactly, so the reported certificates stay sound.
    """
    a = as_dense(A)
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

    return _descend(lambda g: evaluate(a, g), config, step_dir=step_dir)


def minimize_cross_condition(A, B, config: OptimizerConfig) -> OptimizationReport:
    """Gradient descent on the cross condition log ||X A Y^-1|| ||Y B X^-1||."""
    a, b = as_dense(A), as_dense(B)
    return _descend(lambda g: evaluate_cross(a, b, g), config)


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
