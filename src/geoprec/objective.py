"""The log condition-number objective, its Riemannian gradient and Hessian.

For a fixed matrix A and group element g the objective is

    value = log ||B||_F + log ||B^+||_F,   B = g . A,

the log of the Frobenius condition number of the transformed matrix.  The
gradient at g is the orthogonal projection of

    ( B B* / ||B||_F^2  -  (B^+)* B^+ / ||B^+||_F^2 ,
     -B* B / ||B||_F^2  +  B^+ (B^+)* / ||B^+||_F^2 )

onto the Lie algebra of the scheme.  The cross variant replaces B^+ by an
independently transformed second matrix.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError, ZeroMatrixError
from .group import GroupElement, LieDirection, WeightData, apply, apply_dual, project_to_lie
from .matrix import as_dense, pseudoinverse

__all__ = [
    "ObjectiveState",
    "evaluate",
    "evaluate_cross",
    "gradient",
    "hessian_quadratic_form",
    "duality_gap_bound",
]


@dataclass(frozen=True)
class ObjectiveState:
    """Everything the optimizer needs at one group element.

    B_pinv is the pseudoinverse of B for the condition objective, built from
    B with the cutoff rcond on first access, and the transformed second
    matrix for the cross objective.  kappa is the Euclidean condition number
    of B, recorded for reporting only.
    """

    A: np.ndarray
    g: GroupElement
    B: np.ndarray
    value: float
    grad: LieDirection
    grad_norm: float
    kF: float
    kappa: float
    rank_deficient: bool
    rcond: Optional[float] = None
    second: Optional[np.ndarray] = field(default=None, repr=False)

    @cached_property
    def B_pinv(self) -> np.ndarray:
        if self.second is not None:
            return self.second
        return pseudoinverse(self.B, self.rcond)


def _add_gram_blocks(out, R, blocks, scale):
    """out += R R* / scale on the diagonal blocks only: squared row norms on the torus."""
    if len(blocks) == len(out):
        rows = np.einsum("ij,ij->i", R.real, R.real) + np.einsum("ij,ij->i", R.imag, R.imag)
        out.flat[:: len(out) + 1] += rows / scale
        return
    for lo, hi in blocks:
        part = R[lo:hi]
        out[lo:hi, lo:hi] += part @ part.conj().T / scale


def _grad_from_pair(g, B, d_left, d_right, nd2):
    """Projected gradient of log ||B||_F + log ||D||_F under the pair action.

    Only the diagonal blocks of the four Gram terms survive the projection,
    so D enters through factors with D* D = d_left d_left* and
    D D* = d_right d_right* (d_right is unused by left-only schemes), and
    nd2 = ||D||_F^2.
    """
    sch = g.scheme
    nb2 = np.linalg.norm(B) ** 2
    P = np.zeros((sch.m, sch.m), dtype=complex)
    _add_gram_blocks(P, B, sch.left_blocks, nb2)
    _add_gram_blocks(P, d_left, sch.left_blocks, -nd2)
    if sch.side == "left":
        return project_to_lie(sch, P)
    Q = np.zeros((sch.n, sch.n), dtype=complex)
    _add_gram_blocks(Q, B.conj().T, sch.right_blocks, -nb2)
    _add_gram_blocks(Q, d_right, sch.right_blocks, nd2)
    return project_to_lie(sch, P, Q)


def _default_rcond(shape):
    return max(shape) * np.finfo(float).eps


def evaluate(A, g: GroupElement, rcond: Optional[float] = None) -> ObjectiveState:
    """Objective state at g for the condition objective.

    The thin SVD of B is the only cubic step: with B^+ = V_r S_r^-1 U_r*,
    the Gram blocks of (B^+)* B^+ and B^+ (B^+)* come from U_r / s_r and
    V_r / s_r.  Rank-deficient inputs are evaluated with the pseudoinverse
    and flagged rather than rejected; the strongly convex optimizer mode
    refuses them.
    """
    a = as_dense(A)
    B = apply(g, a)
    u, s, vh = np.linalg.svd(B, full_matrices=False)
    if not len(s) or s[0] == 0.0:
        raise ZeroMatrixError("matrix is identically zero")
    if rcond is None:
        rcond = _default_rcond(B.shape)
    pos = s[s > rcond * s[0]]
    r = len(pos)
    inv_norm = np.linalg.norm(1.0 / pos)
    kF = float(np.linalg.norm(s) * inv_norm)
    d_left = u[:, :r]
    d_left /= pos
    d_right = vh[:r].conj().T / pos if g.scheme.side == "both" else None
    grad = _grad_from_pair(g, B, d_left, d_right, inv_norm**2)
    return ObjectiveState(
        A=a,
        g=g,
        B=B,
        value=math.log(kF),
        grad=grad,
        grad_norm=grad.norm,
        kF=kF,
        kappa=float(s[0] / pos[-1]),
        rank_deficient=r < min(B.shape),
        rcond=rcond,
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
    Bm = apply(g, a)
    D = apply_dual(g, b)
    nb, nd = np.linalg.norm(Bm), np.linalg.norm(D)
    if nb == 0.0 or nd == 0.0:
        raise ZeroMatrixError("matrix is identically zero")
    grad = _grad_from_pair(g, Bm, D.conj().T, D, nd**2)
    sv = np.linalg.svd(Bm, compute_uv=False)
    return ObjectiveState(
        A=a,
        g=g,
        B=Bm,
        value=float(np.log(nb) + np.log(nd)),
        grad=grad,
        grad_norm=grad.norm,
        kF=float(nb * nd),
        kappa=float(sv[0] / sv[sv > _default_rcond(Bm.shape) * sv[0]][-1]),
        rank_deficient=False,
        second=D,
    )


def gradient(state: ObjectiveState) -> LieDirection:
    """The Riemannian gradient stored on the state."""
    return state.grad


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
