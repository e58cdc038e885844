"""Approximately optimal structured preconditioners.

Left or two-sided diagonal and block-diagonal preconditioners for matrices,
and equation-shuffling / change-of-variables / torus-scaling preconditioners
for sparse polynomial systems, computed by first-order descent of the log
Frobenius condition number with duality-gap stopping certificates.
"""

from .errors import (
    BreakdownError,
    DegreeViolationError,
    DimensionMismatchError,
    ExpansionOverflowError,
    GeoprecError,
    InsufficientDataError,
    NonFiniteInputError,
    NotConvergedError,
    ParseError,
    RankDeficientError,
    SingularBlockError,
    SingularProbeBlockError,
    UnsupportedQualifierError,
    ZeroCoordinateError,
    ZeroDiagonalEntryError,
    ZeroJacobianError,
    ZeroMatrixError,
    ZeroRowOrColumnError,
)
from .matrix import (
    ComplexMatrix,
    SvdFactorization,
    condition_cross,
    condition_euclidean,
    condition_frobenius,
    condition_skeel,
    frobenius_norm,
    jacobi_precondition,
    pseudoinverse,
    row_balance,
    sinkhorn_equilibrate,
    svd_factorization,
)
from .group import (
    GroupElement,
    GroupScheme,
    LieDirection,
    WeightData,
    apply,
    exp_action,
    project_to_lie,
    repolarize,
    weight_data,
)
from .objective import (
    ObjectiveState,
    duality_gap_bound,
    evaluate,
    evaluate_cross,
    hessian_quadratic_form,
)
from .optimize import (
    IterationRecord,
    OptimizationReport,
    OptimizerConfig,
    Termination,
    minimize_condition,
    minimize_cross_condition,
    predicted_iteration_bound,
)
from .stochastic import (
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
from .polysys import (
    EvaluatedPoint,
    PolynomialSystem,
    TorusPoint,
    bw_inner,
    bw_norm_system,
    change_variables,
    evaluate_system,
    gram_matrix,
    gram_sqrt,
    local_condition,
    polysys_lie_derivative,
    precondition_full,
    precondition_shuffle,
    precondition_sparse,
    shuffle,
    torus_objective,
    torus_penalty,
    torus_penalty_gradient,
    torus_rescale,
)
from .mmio import read_matrix, write_matrix
from .sysio import read_polysys, write_polysys
from .bench import BenchResult, correlation_kF_kappa, run_gaussian_suite, run_matrix_suite

__version__ = "0.1.0"
