"""Exception types raised across the package."""


class GeoprecError(Exception):
    """Base class for all package errors."""


class ZeroMatrixError(GeoprecError):
    """Operation requires a nonzero matrix."""


class ZeroDiagonalEntryError(GeoprecError):
    def __init__(self, index):
        self.index = index
        super().__init__(f"zero diagonal entry at index {index}")


class ZeroRowOrColumnError(GeoprecError):
    def __init__(self, index, axis):
        self.index = index
        self.axis = axis  # 0 = row, 1 = column
        kind = "row" if axis == 0 else "column"
        super().__init__(f"{kind} {index} is zero in absolute value")


class DimensionMismatchError(GeoprecError):
    """Shapes of the operands are incompatible."""


class NonFiniteInputError(GeoprecError):
    """An input matrix has NaN or infinite entries."""


class SingularBlockError(GeoprecError):
    """A diagonal block of a group element is numerically singular."""


class RankDeficientError(GeoprecError):
    """Input matrix is rank deficient where full rank is required."""


class NotConvergedError(GeoprecError):
    def __init__(self, residual, probe=None):
        self.residual = residual
        self.probe = probe
        msg = f"iterative solve stalled at relative residual {residual:.3e}"
        if probe is not None:
            msg += f" (probe {probe})"
        super().__init__(msg)


class SingularProbeBlockError(GeoprecError):
    """Gaussian probe block is rank deficient even after resampling."""


class BreakdownError(GeoprecError):
    def __init__(self, iteration):
        self.iteration = iteration
        super().__init__(f"block Krylov basis lost rank at iteration {iteration}")


class ExpansionOverflowError(GeoprecError):
    def __init__(self, count, cap):
        self.count = count
        self.cap = cap
        super().__init__(f"variable substitution expanded to {count} terms (cap {cap})")


class ParseError(GeoprecError):
    def __init__(self, line, reason):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class UnsupportedQualifierError(GeoprecError):
    """Matrix Market header uses a qualifier this reader does not support."""


class DegreeViolationError(GeoprecError):
    def __init__(self, poly_index, term):
        self.poly_index = poly_index
        self.term = term
        super().__init__(
            f"polynomial {poly_index}: term {term} exceeds the declared degree"
        )


class InsufficientDataError(GeoprecError):
    """Too few samples for the requested statistic."""


class ZeroCoordinateError(GeoprecError):
    def __init__(self, index):
        self.index = index
        super().__init__(f"point coordinate {index} is zero; torus scaling undefined")


class ZeroJacobianError(GeoprecError):
    """Jacobian vanishes at the evaluation point."""
