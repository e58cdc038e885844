"""The log condition-number objective, its Riemannian gradient and Hessian.

For a fixed matrix A and group element g the objective is

    value = log ||B||_F + log ||B^+||_F,   B = g . A,

the log of the Frobenius condition number of the transformed matrix.  The
gradient at g is the orthogonal projection of

    ( B B* / ||B||_F^2  -  (B^+)* B^+ / ||B^+||_F^2 ,
     -B* B / ||B||_F^2  +  B^+ (B^+)* / ||B^+||_F^2 )

onto the Lie algebra of the scheme.  The cross variant replaces B^+ by an
independently transformed second matrix.

B^+ enters only through ||B^+||_F and the diagonal blocks of the two Gram
terms.  When the run is square and of full rank, B^-1 = Y A^-1 X^-1 is the
dual action on the run's inverse of A, so a state costs the two block-diagonal
actions and factors nothing; otherwise it costs one thin SVD of B.  The
Euclidean condition number kappa is not needed by the descent; states without
singular values compute it on first access.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError, ZeroMatrixError
from .group import GroupElement, LieDirection, WeightData, apply, apply_dual, project_blocks
from .matrix import (
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
    "hessian_quadratic_form",
    "duality_gap_bound",
]


@dataclass(frozen=True)
class ObjectiveState:
    """Everything the optimizer needs at one group element g, with B = g . A.

    B_pinv is the pseudoinverse of B for the condition objective: the inverse
    that the state of a square full-rank run was built from, otherwise built
    from B on first access.  For the cross objective it is the transformed
    second matrix.  sigma holds the singular values of B where the state has
    them.  kappa is the Euclidean condition number of B, for
    reporting only: taken from sigma, or computed from B without vectors on
    first access.
    """

    B: np.ndarray
    value: float
    grad: LieDirection
    grad_norm: float
    kF: float
    rank_deficient: bool
    sigma: Optional[np.ndarray] = field(default=None, repr=False)
    pinv: Optional[np.ndarray] = field(default=None, repr=False)

    @cached_property
    def B_pinv(self) -> np.ndarray:
        if self.pinv is not None:
            return self.pinv
        return pseudoinverse(self.B)

    @cached_property
    def kappa(self) -> float:
        s = self.sigma if self.sigma is not None else singular_values(self.B)
        return kappa_from_singular_values(s, self.B.shape)


def _gram_blocks(R, runs, scale):
    """The diagonal blocks of R R* / scale, one stack per run of row slabs."""
    out = []
    for r in runs:
        slab = R[r.start:r.stop].reshape(r.count, r.size, -1)
        out.append(slab @ slab.conj().transpose(0, 2, 1) / scale)
    return out


def _grad_from_pair(g, B, d_left, d_right, nd2):
    """Projected gradient of log ||B||_F + log ||D||_F under the pair action.

    Only the diagonal blocks of the four Gram terms survive the projection,
    so D enters through factors with D* D = d_left d_left* and
    D D* = d_right d_right* (d_right is unused by left-only schemes), and
    nd2 = ||D||_F^2.
    """
    sch = g.scheme
    nb2 = np.linalg.norm(B) ** 2
    P = [b + d for b, d in zip(_gram_blocks(B, sch.left_runs, nb2),
                               _gram_blocks(d_left, sch.left_runs, -nd2))]
    if sch.side == "left":
        return project_blocks(sch, P)
    Q = [b + d for b, d in zip(_gram_blocks(B.conj().T, sch.right_runs, -nb2),
                               _gram_blocks(d_right, sch.right_runs, nd2))]
    return project_blocks(sch, P, Q)


def _pair_state(g, B, D) -> ObjectiveState:
    """The state of log ||B||_F + log ||D||_F, with D kept as B_pinv."""
    nb, nd = np.linalg.norm(B), np.linalg.norm(D)
    if nb == 0.0 or nd == 0.0:
        raise ZeroMatrixError("matrix is identically zero")
    grad = _grad_from_pair(g, B, D.conj().T, D, nd**2)
    return ObjectiveState(B=B, value=float(np.log(nb) + np.log(nd)), grad=grad,
                          grad_norm=grad.norm, kF=float(nb * nd), rank_deficient=False, pinv=D)


def evaluate(A, g: GroupElement, a_inv=None) -> ObjectiveState:
    """Objective state at g for the condition objective.

    With ``a_inv``, the inverse of a square A of full rank (computed once per
    run), the state factors nothing: D = B^-1 is apply_dual(g, a_inv),
    kF = ||B||_F ||D||_F, the Gram blocks of (B^+)* B^+ and B^+ (B^+)* come
    from D* and D, and D is kept as B_pinv.  Otherwise it is one thin SVD:
    with B^+ = V_r S_r^-1 U_r*, the Gram blocks come from U_r / s_r and
    V_r / s_r.  Rank-deficient inputs are evaluated with the pseudoinverse and
    flagged rather than rejected.
    """
    a = as_dense(A)
    B = apply(g, a)
    if a_inv is not None:
        return _pair_state(g, B, apply_dual(g, a_inv))
    u, s, vh = np.linalg.svd(B, full_matrices=False)
    if not len(s) or s[0] == 0.0:
        raise ZeroMatrixError("matrix is identically zero")
    pos = s[s > rank_tolerance(s, B.shape)]
    r = len(pos)
    inv_norm = np.linalg.norm(1.0 / pos)
    kF = float(np.linalg.norm(s) * inv_norm)
    d_left = u[:, :r]
    d_left /= pos
    d_right = vh[:r].conj().T / pos if g.scheme.side == "both" else None
    grad = _grad_from_pair(g, B, d_left, d_right, inv_norm**2)
    return ObjectiveState(
        B=B,
        value=math.log(kF),
        grad=grad,
        grad_norm=grad.norm,
        kF=kF,
        rank_deficient=r < min(B.shape),
        sigma=s,
    )


def evaluate_cross(A, B_independent, g: GroupElement) -> ObjectiveState:
    """Objective state for the cross condition of an independent pair (A, B).

    A transforms as X A Y^-1 and the second matrix as Y B X^-1; for
    left-only schemes the pair is (X A, B X^-1).
    """
    a = as_dense(A)
    b = as_dense(B_independent)
    if b.shape != (a.shape[1], a.shape[0]):
        raise DimensionMismatchError("second matrix must have the transposed shape of the first")
    return _pair_state(g, apply(g, a), apply_dual(g, b))


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
