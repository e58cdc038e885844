"""Multivariate polynomial systems and their preconditioners.

A system of m polynomials in n variables is an m x K complex array
``coeffs`` over K exponent vectors ``exponents`` (K x n, graded-lex: by
degree, then descending lexicographic), with the Bombieri-Weyl weights
alpha! / |alpha|! as one vector ``weights``.  A system built from dicts keeps
the exponents of its support, which shuffles and torus scalings preserve; a
change of variables fills the full basis of degrees <= D, acting on degree d
as the d-th symmetric power of Y^-1.  EXPANSION_CAP bounds that basis's
size C(n + D, D) and the n^D entries per equation of its top-degree tensor.  ``PolynomialSystem.polynomials`` is a derived view of
canonical {exponent tuple: coefficient} dicts, built on first access.

Three preconditioning actions are supported:

* shuffling: replace each equation by a linear combination of the others,
  which leaves the zero set unchanged and reduces to a matrix cross-condition
  problem through the Hermitian square root of the Gram matrix;
* shuffle + linear change of variables: the full two-sided action, optimized
  directly with the degree-dependent step size;
* shuffle + torus scaling of the variables: preserves sparsity, balances the
  root coordinates through an auxiliary scaling penalty.
"""

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from math import factorial
from typing import Dict, NamedTuple, Tuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    ExpansionOverflowError,
    ZeroCoordinateError,
    ZeroJacobianError,
)
from .group import (
    GroupElement,
    GroupScheme,
    WeightData,
    project_blocks,
)
from .matrix import as_dense, pseudoinverse
from .optimize import OptimizerConfig, _descend, _State, minimize_cross_condition

__all__ = [
    "Polynomial",
    "PolynomialSystem",
    "EvaluatedPoint",
    "TorusPoint",
    "bw_inner",
    "bw_norm_system",
    "evaluate_system",
    "local_condition",
    "shuffle",
    "change_variables",
    "torus_rescale",
    "gram_matrix",
    "gram_sqrt",
    "polysys_lie_derivative",
    "precondition_shuffle",
    "precondition_full",
    "torus_penalty",
    "torus_penalty_gradient",
    "torus_objective",
    "precondition_sparse",
]

Exponent = Tuple[int, ...]
Polynomial = Dict[Exponent, complex]

EXPANSION_CAP = 1_000_000


def _bw_weights(exponents) -> np.ndarray:
    """alpha! / |alpha|! for each row of a K x n exponent array."""
    degree = exponents.sum(axis=1)
    fact = np.array([float(factorial(k)) for k in range(degree.max(initial=0) + 1)])
    return np.prod(fact[exponents], axis=1) / fact[degree]


def _frozen(a):
    a.setflags(write=False)
    return a


def _integers(values):
    """Whether every value is an integer, Python's or numpy's; a bool is not one."""
    return all(t is int or (issubclass(t, numbers.Integral) and not issubclass(t, bool))
               for t in set(map(type, values)))


def _exponent_rows(rows, nvars):
    """The len(rows) x nvars intp array of rows of nvars integers >= 0;
    ValueError for a row of another length or a value that is not such an
    integer, OverflowError for one beyond a machine integer."""
    flat = list(chain.from_iterable(rows))
    if not (set(map(len, rows)) <= {nvars} and _integers(flat) and min(flat, default=0) >= 0):
        raise ValueError(f"not rows of {nvars} integers >= 0")
    return np.fromiter(flat, np.intp, len(flat)).reshape(len(rows), int(nvars))


def _beyond(degrees, owner, exponents):
    """Whether the degree of each term exceeds the bound of its polynomial
    owner[k]; summed as Python integers where an int64 sum could wrap."""
    wide = exponents.max(initial=0) > (2**63 - 1) // max(exponents.shape[1], 1)
    bounds = np.array([min(d, 2**63 - 1) for d in degrees], dtype=np.int64)
    return exponents.sum(axis=1, dtype=object if wide else None) > bounds[owner]


def _first_fault(nvars, degrees, polynomials):
    """Raise the first fault of the terms in dict order, checked one at a time."""
    for i, p in enumerate(polynomials):
        for alpha, c in p.items():
            if not _integers(alpha) or len(alpha) != nvars or min(alpha, default=0) < 0:
                raise DimensionMismatchError(f"exponents {alpha}: not {nvars} integers >= 0")
            if complex(c) and sum(alpha) > degrees[i]:
                raise DimensionMismatchError(f"polynomial {i} has a term of degree "
                                             f"{sum(alpha)} > bound {degrees[i]}")


def _from_terms(m, owner, exponents, values):
    """(exponents, weights, coeffs) of m polynomials, polynomial owner[k]
    having the term values[k] x^exponents[k].

    The terms of one polynomial and exponent are summed in their given order,
    and an exponent whose every sum is zero is left out of the basis.
    """
    # graded lex: ascending degree, then descending lexicographic; a stable sort
    order = np.lexsort((owner, *-exponents.T[::-1], exponents.sum(axis=1)))
    order = order[values[order] != 0]  # a zero term adds nothing to a sum
    exponents, owner, values = exponents[order], owner[order], values[order]
    new = np.ones(len(order), dtype=bool)  # the first term of each exponent
    new[1:] = (exponents[1:] != exponents[:-1]).any(axis=1)
    again = ~new  # a term of the same polynomial and exponent as the one before
    again[1:] &= owner[1:] == owner[:-1]
    if again.any():  # sum in order; a sum that cancels is a zero term of the next pass
        sums = values[~again]
        with np.errstate(over="ignore", invalid="ignore"):  # as Python's complex sum
            np.add.at(sums, np.cumsum(~again)[again] - 1, values[again])
        return _from_terms(m, owner[~again], exponents[~again], sums)
    coeffs = np.zeros((m, np.count_nonzero(new)), dtype=complex)
    coeffs[owner, np.cumsum(new) - 1] = values
    basis = _frozen(exponents[new])
    return basis, _frozen(_bw_weights(basis)), _frozen(coeffs)


class PolynomialSystem:
    """System of m polynomials in n variables with a degree pattern.

    ``PolynomialSystem(nvars, degrees, polynomials)`` takes one integer degree
    bound (not a bool) and one dict {exponent tuple: coefficient} per
    polynomial, checks every exponent against its polynomial's degree bound
    and keeps as basis the exponents with a nonzero coefficient; a bound or an
    exponent that is not an integer raises DimensionMismatchError.
    ``exponents``, ``weights`` and ``coeffs`` are read-only; ``polynomials``
    is the canonical dict view.
    """

    def __init__(self, nvars, degrees, polynomials):
        degrees = tuple(degrees)
        if not _integers(degrees):
            raise DimensionMismatchError(f"degree bounds must be integers, got {degrees}")
        degrees = tuple(map(int, degrees))
        if len(degrees) != len(polynomials):
            raise DimensionMismatchError("one degree bound per polynomial required")
        keys = [alpha for p in polynomials for alpha in p]
        owner = np.repeat(np.arange(len(degrees)), list(map(len, polynomials)))
        try:
            values = np.fromiter(map(complex, chain.from_iterable(p.values() for p in polynomials)),
                                 complex, len(keys))
            exponents = _exponent_rows(keys, nvars)
            if (_beyond(degrees, owner, exponents) & (values != 0)).any():
                raise ValueError("a term beyond its degree bound")
        except (TypeError, ValueError, OverflowError):
            _first_fault(nvars, degrees, polynomials)
            raise  # an exponent beyond a machine integer, within its bound
        self.nvars, self.degrees = int(nvars), degrees
        self.exponents, self.weights, self.coeffs = _from_terms(len(degrees), owner, exponents,
                                                                values)

    @classmethod
    def _from_arrays(cls, nvars, degrees, exponents, weights, coeffs):
        """A system over the given basis, unchecked: the module's own constructor."""
        obj = cls.__new__(cls)
        obj.nvars, obj.degrees, obj.exponents, obj.weights = nvars, degrees, exponents, weights
        obj.coeffs = _frozen(coeffs)
        return obj

    def _with(self, coeffs, degrees=None):
        """Another system over this one's basis."""
        return PolynomialSystem._from_arrays(self.nvars, degrees or self.degrees, self.exponents,
                                             self.weights, coeffs)

    @classmethod
    def from_polys(cls, nvars, polys, degrees=None):
        polys = [dict(p) for p in polys]
        if degrees is None:
            degrees = [max((sum(a) for a in p), default=0) for p in polys]
        return cls(nvars, tuple(degrees), tuple(polys))

    @cached_property
    def polynomials(self) -> Tuple[Polynomial, ...]:
        keys = list(map(tuple, self.exponents.tolist()))
        return tuple({keys[k]: c for k, c in enumerate(row) if c} for row in self.coeffs.tolist())

    @property
    def m(self):
        return len(self.degrees)

    @property
    def max_degree(self):
        return max(self.degrees) if self.degrees else 0

    def _full(self, cap=EXPANSION_CAP):
        """The full basis of degrees <= max_degree and the coefficients over it."""
        n, D = self.nvars, self.max_degree
        size = max(math.comb(n + D, D), n**D)  # the basis, and one equation's top-degree tensor
        if size > cap:
            raise ExpansionOverflowError(size, cap)
        return self._expansion

    @cached_property
    def _expansion(self):
        basis = _full_basis(self.nvars, self.max_degree)
        if self.exponents is basis.exponents:
            return basis, self.coeffs
        C = np.zeros((self.m, len(basis.weights)), dtype=complex)
        C[:, [basis.index[a] for a in map(tuple, self.exponents.tolist())]] = self.coeffs
        return basis, _frozen(C)

    @cached_property
    def _tensors(self):
        """Degree d's coefficients as one symmetric (n,)*d tensor per equation,
        flattened to m x n^d: the operand of every change of variables."""
        basis, C = self._expansion
        return tuple(_frozen((C[:, deg.start:deg.stop] / deg.mult)[:, deg.col])
                     for deg in basis.degrees)


class _Degree(NamedTuple):
    """Columns start:stop of the full basis (degree d), their multinomials
    d! / alpha!, the column of each flat position of the symmetric (n,)*d
    tensor and one flat position of each column."""

    start: int
    stop: int
    mult: np.ndarray
    col: np.ndarray
    rep: np.ndarray


class _Basis(NamedTuple):
    exponents: np.ndarray
    weights: np.ndarray
    index: Dict[Exponent, int]
    degrees: Tuple[_Degree, ...]


@lru_cache(maxsize=16)
def _full_basis(n, D) -> _Basis:
    """All exponents of degree <= D in n variables, in graded-lex order."""
    fact = np.array([float(factorial(k)) for k in range(D + 1)])
    parts = [np.zeros((1, n), dtype=np.intp)]
    zero = np.zeros(1, dtype=np.intp)
    degrees = [_Degree(0, 1, *map(_frozen, (np.ones(1), zero, zero)))]
    for d in range(1, D + 1):
        last = degrees[-1]
        # degree d is degree d - 1 times each x_j; up[k, j] is the column of alpha_k + e_j
        raised = (parts[-1][:, None, :] + np.eye(n, dtype=np.intp)).reshape(-1, n)
        E, up = np.unique(raised, axis=0, return_inverse=True)  # ascending lex
        E, up = _frozen(E[::-1]), (len(E) - 1 - up).reshape(-1, n)
        rep = np.empty(len(E), dtype=np.intp)
        rep[up] = last.rep[:, None] * n + np.arange(n)
        mult = fact[d] / np.prod(fact[E], axis=1)
        degrees.append(_Degree(last.stop, last.stop + len(E),
                               *map(_frozen, (mult, up[last.col].ravel(), rep))))
        parts.append(E)
    exponents = _frozen(np.concatenate(parts))
    index = {a: k for k, a in enumerate(map(tuple, exponents.tolist()))}
    return _Basis(exponents, _frozen(_bw_weights(exponents)), index, tuple(degrees))


def _fold(basis, tensors):
    """The coefficients over the full basis of one symmetric tensor per degree."""
    return np.concatenate([T[:, deg.rep] * deg.mult for deg, T in zip(basis.degrees, tensors)],
                          axis=1)


@dataclass(frozen=True)
class EvaluatedPoint:
    """Values and Jacobian of a system at one point."""

    xi: np.ndarray
    values: np.ndarray
    jacobian: np.ndarray


@dataclass(frozen=True)
class TorusPoint:
    """Strictly positive variable scalings."""

    t: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        if not np.all(np.isfinite(t) & (t > 0)):
            raise ValueError("torus point must be finite and strictly positive")
        object.__setattr__(self, "t", _frozen(t.copy()))

    @classmethod
    def _from_array(cls, t):
        """A point holding the float array t, unchecked: the module's own constructor."""
        obj = cls.__new__(cls)
        object.__setattr__(obj, "t", _frozen(t))
        return obj


def bw_inner(f: Polynomial, g: Polynomial) -> complex:
    """Bombieri-Weyl inner product of two dicts, linear in f, conjugate-linear in g.

    Monomials of different exponent are orthogonal, so only shared exponents
    contribute, with weight alpha! / |alpha|!.
    """
    if len(g) < len(f):
        return complex(np.conj(bw_inner(g, f)))
    total = 0.0 + 0.0j
    for alpha, c in f.items():
        d = g.get(alpha)
        if d is not None:
            total += c * np.conj(d) * math.prod(map(factorial, alpha)) / factorial(sum(alpha))
    return total


def bw_norm_system(f: PolynomialSystem) -> float:
    """sqrt of the sum of the squared Bombieri-Weyl norms of the equations."""
    return math.sqrt(np.vdot(f.coeffs, f.coeffs * f.weights).real)


def evaluate_system(f: PolynomialSystem, xi) -> EvaluatedPoint:
    """Values f(xi) and the Jacobian, from the monomials at xi and their derivatives."""
    xi = np.asarray(xi, dtype=complex)
    if xi.shape != (f.nvars,):
        raise DimensionMismatchError(f"point has length {xi.shape}, expected {f.nvars}")
    E = f.exponents
    values = f.coeffs @ np.prod(xi**E, axis=1)
    # d x^alpha / d x_k = alpha_k x^(alpha - e_k); the clip at 0 keeps 0^-1 out of terms alpha_k = 0
    lowered = np.maximum(E[None] - np.eye(f.nvars, dtype=E.dtype)[:, None], 0)
    jac = f.coeffs @ (np.prod(xi**lowered, axis=2) * E.T).T
    return EvaluatedPoint(xi, values, jac)


def _jacobian_pinv(f: PolynomialSystem, xi) -> np.ndarray:
    """Pseudoinverse of the Jacobian of f at xi; ZeroJacobianError when it vanishes."""
    jac = evaluate_system(f, xi).jacobian
    if not np.any(jac):
        raise ZeroJacobianError("Jacobian vanishes at the point")
    return pseudoinverse(jac)


def local_condition(f: PolynomialSystem, xi, norm: str = "frobenius") -> float:
    """||f||_W times the chosen norm of the pseudoinverse Jacobian at xi."""
    pinv = _jacobian_pinv(f, xi)
    if norm == "frobenius":
        jn = float(np.linalg.norm(pinv))
    elif norm == "operator":
        jn = float(np.linalg.svd(pinv, compute_uv=False)[0])
    else:
        raise ValueError(f"unknown norm {norm!r}")
    return bw_norm_system(f) * jn


def shuffle(X, f: PolynomialSystem) -> PolynomialSystem:
    """Replace equation i by sum_j X[i, j] f_j; the zero set is unchanged."""
    X = as_dense(X)
    if X.shape != (f.m, f.m):
        raise DimensionMismatchError(f"shuffle matrix must be {f.m}x{f.m}")
    return f._with(X @ f.coeffs, (f.max_degree,) * f.m)


def change_variables(Y, f: PolynomialSystem, cap: int = EXPANSION_CAP) -> PolynomialSystem:
    """Substitute x <- Y^-1 x, i.e. the system x |-> f(Y^-1 x).

    The result lives on the full basis of degrees <= D, so sparsity is
    generally lost; the degree pattern is preserved.  Raises when that
    basis, or n^D, exceeds cap.
    """
    Y = as_dense(Y)
    n = f.nvars
    if Y.shape != (n, n):
        raise DimensionMismatchError(f"change of variables must be {n}x{n}")
    basis, tensors = _substituted_tensors(Y, f, cap)
    return PolynomialSystem._from_arrays(n, f.degrees, basis.exponents, basis.weights,
                                         _fold(basis, tensors))


def _substituted_tensors(Y, f: PolynomialSystem, cap: int = EXPANSION_CAP):
    """The full basis of f and, for each degree d, the m x n^d tensor of
    x |-> f(Y^-1 x): f._tensors with each of the d axes contracted with Y^-1.
    Raises when the basis, or n^D, exceeds cap."""
    Yi = np.linalg.inv(Y)
    basis, _ = f._full(cap)
    tensors = []
    for d, T in enumerate(f._tensors):
        for k in range(d):  # the last axis first
            T = _along(T, Yi, k)
        tensors.append(T)
    return basis, tensors


def _along(T, A, k):
    """The m x n^d tensor T contracted with the n x n matrix A on the axis
    that k axes follow: sum_a T[..., a, ...] A[a, b]."""
    n = len(A)
    out = T.reshape(-1, n) @ A if k == 0 else A.T @ T.reshape(-1, n, n**k)
    return out.reshape(T.shape)


def torus_rescale(t: TorusPoint, f: PolynomialSystem) -> PolynomialSystem:
    """The scaling substitution x_k <- t_k x_k: coefficient c_alpha -> c_alpha t^alpha.

    Sparsity is preserved exactly, and a root xi of f moves to xi / t.
    """
    tv = t.t
    if len(tv) != f.nvars:
        raise DimensionMismatchError("torus point length does not match nvars")
    return f._with(f.coeffs * np.prod(tv**f.exponents, axis=1))


def gram_matrix(f: PolynomialSystem) -> np.ndarray:
    """Hermitian PSD Gram matrix G[i, j] = <f_i, f_j>."""
    return (f.coeffs * f.weights) @ f.coeffs.conj().T


def gram_sqrt(f: PolynomialSystem) -> np.ndarray:
    """Hermitian PSD square root of the Gram matrix; its Frobenius norm is ||f||_W."""
    w, v = np.linalg.eigh(gram_matrix(f))
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def polysys_lie_derivative(f: PolynomialSystem, H1, H2) -> PolynomialSystem:
    """Derivative of the two-sided action along (H1, H2).

    (Pi(H) f)_i = sum_j H1[i, j] f_j - sum_{k, l} H2[k, l] x_l d f_i / d x_k;
    the second part moves one power between variables, so the degree pattern
    is preserved.  On degree d's tensor it is H2 contracted with each of the
    d axes in turn, summed.
    """
    H1 = as_dense(H1)
    H2 = as_dense(H2)
    n = f.nvars
    if H1.shape != (f.m, f.m) or H2.shape != (n, n):
        raise DimensionMismatchError("direction shapes do not match the system")
    basis, C = f._full()
    moved = []
    for d, T in enumerate(f._tensors):
        moved.append(np.zeros_like(T))
        for k in range(d):
            moved[-1] += _along(T, H2, k)
    return PolynomialSystem._from_arrays(n, (f.max_degree,) * f.m, basis.exponents,
                                         basis.weights, H1 @ C - _fold(basis, moved))


def precondition_shuffle(f: PolynomialSystem, xi, scheme: GroupScheme,
                         config: OptimizerConfig):
    """Optimal shuffling preconditioner at a point.

    Reduces to the matrix cross-condition problem for the pair
    (gram_sqrt(f), pseudoinverse of the Jacobian) and runs the left-only
    descent; the returned report tracks exactly the local condition number
    of the shuffled system when the Jacobian has full row rank.  config.scheme
    must be scheme.
    """
    if scheme.side != "left" or scheme.m != f.m:
        raise DimensionMismatchError("shuffling needs a left-only scheme of size m")
    if config.scheme != scheme:
        raise DimensionMismatchError("config.scheme differs from the scheme argument")
    B = _jacobian_pinv(f, xi)
    report = minimize_cross_condition(gram_sqrt(f), B, config)
    return report.final_element, report


# --- full action: shuffle + change of variables ---------------------------


def _gram_and_side_form(tensors, n):
    """The Gram matrix sum_d T_d T_d^* of a system with tensors T_d (each
    m x n^d), and W[k, l] = sum_i <x_l d f_i / d x_k, f_i> = sum_d d M_d M_d^*
    for the n x m n^(d-1) unfolding M_d of T_d: on degree d,
    <x_l d_k f, f>_W = <d_k f, d_l f>_W / d."""
    G = sum(T @ T.conj().T for T in tensors)
    W = np.zeros((n, n), dtype=complex)
    for d, T in enumerate(tensors[1:], 1):
        M = T.reshape(-1, n)  # M_d^T, unfolded along the last axis: T_d is symmetric
        W += d * (M.T @ M.conj())
    return G, W


def _full_objective_state(f, Dp, g):
    """Value and gradient of log ||(X, Y) . f||_W + log ||Y D^+ X^-1||_F.

    Reads the Gram matrix and the variable-side form off the tensors of
    (X, Y) . f, X applied to those of x |-> f(Y^-1 x); the expansion of f
    they start from is cached on f.  A singular X or Y raises LinAlgError.
    """
    X, Y = g.left[0][0], g.right[0][0]  # one full block a side
    _, tensors = _substituted_tensors(Y, f)
    G, W = _gram_and_side_form([X @ T for T in tensors], f.nvars)
    n2 = float(np.trace(G).real)
    C = Y @ Dp @ np.linalg.inv(X)
    nc2 = np.linalg.norm(C) ** 2
    value = 0.5 * math.log(n2) + 0.5 * math.log(nc2)
    H1 = G / n2 - C.conj().T @ C / nc2
    H2 = -0.5 * (W.T + W.conj()) / n2 + C @ C.conj().T / nc2
    grad = project_blocks(g.scheme, [H1[None]], [H2[None]])
    return value, grad, math.sqrt(n2) * math.sqrt(nc2)


def precondition_full(f: PolynomialSystem, xi, scheme: GroupScheme,
                      config: OptimizerConfig):
    """Joint shuffle and change-of-variables preconditioner.

    Descends the log of ||(X, Y) . f||_W ||Y D^+ X^-1||_F by the one step
    rule of every descent (``optimize._descend``): base step 1/(D + 2),
    where D is the top degree, halved on any increase, or on a singular
    candidate, so descent stays monotone.  The duality certificate
    uses the degree-dependent margin gamma = (D + 2)^(1 - m - n) / (m + n).
    scheme, and config.scheme with it, must be the full two-sided scheme
    (m, n).  The Bombieri-Weyl and Frobenius norms are unitarily invariant, so
    the state is unitarily equivariant: candidates move by ``exp_action``
    alone, and only the returned element is replaced by its polar factor, the
    one rule of every descent (``optimize._descend``).
    """
    if scheme != GroupScheme.full(f.m, f.nvars, side="both"):
        raise DimensionMismatchError("full preconditioning needs the full two-sided scheme (m, n)")
    if config.scheme != scheme:
        raise DimensionMismatchError("config.scheme differs from the scheme argument")
    Dp = _jacobian_pinv(f, xi)
    Dmax = f.max_degree
    base_step = 1.0 / (Dmax + 2.0)
    wd = WeightData(Dmax + 2.0, (Dmax + 2.0) ** (1 - f.m - f.nvars) / (f.m + f.nvars))

    def state_fn(g):
        value, grad, mu = _full_objective_state(f, Dp, g)
        return _State(value, grad, grad.norm, mu, math.nan)

    report = _descend(state_fn, scheme.identity(), config, wd, base_step)
    return report.final_element, report


# --- sparse action: shuffle + torus scaling --------------------------------


def torus_penalty(xi, t: TorusPoint) -> float:
    """log sum_i |xi|^(w_i) t^(-w_i) with w_i = n e_i - 1; minimized when the
    rescaled root coordinates |xi_i| / t_i all share one magnitude."""
    return float(np.log(np.sum(_penalty_terms(_magnitudes(xi), t.t))))


def torus_penalty_gradient(xi, t: TorusPoint) -> np.ndarray:
    """Gradient of the penalty with respect to the log-scalings of t."""
    terms = _penalty_terms(_magnitudes(xi), t.t)
    return _penalty_gradient(terms, np.sum(terms), _omega(len(terms)))


def _magnitudes(xi):
    """|xi|; ZeroCoordinateError naming the first zero coordinate."""
    mags = np.abs(np.asarray(xi, dtype=complex))
    zero = np.nonzero(mags == 0)[0]
    if len(zero):
        raise ZeroCoordinateError(int(zero[0]))
    return mags


def _omega(n):
    return n * np.eye(n) - np.ones((n, n))  # row i is w_i


def _penalty_terms(mags, t):
    r = mags / t
    return r ** len(r) / np.prod(r)


def _penalty_gradient(terms, total, omega):
    return -omega.T @ (terms / total)


def torus_objective(f: PolynomialSystem, xi, X: GroupElement, t: TorusPoint) -> float:
    """mu_F(X . (t . f), xi / t) + penalty: the sparse preconditioning objective."""
    ft = torus_rescale(t, f)
    fx = shuffle(X.X, ft)
    zeta = np.asarray(xi, dtype=complex) / t.t
    return local_condition(fx, zeta, norm="frobenius") + torus_penalty(xi, t)


def _sparse_state(f, mags, omega, Dp0, g):
    """Objective pieces and gradients for the joint (X, t) descent.

    The element g carries the shuffle X and the torus point as Y = diag(t).
    The rescaled pair has Jacobian X D diag(t) at xi / t, so its pseudo-
    inverse transports to diag(t)^-1 D^+ X^-1 while the system norm is read
    off the Gram matrix of the shuffled, rescaled system.  mags is |xi| and
    omega the penalty's weight matrix, both fixed for a run.  The candidate's
    own t is not validated: a t that overflows gives a value that is not
    finite, and a singular X raises LinAlgError.
    """
    X = g.left[0][0]
    t = TorusPoint._from_array(g.right[0].real.ravel())
    ft = torus_rescale(t, f)
    fx = ft._with(X @ ft.coeffs)
    G = gram_matrix(fx)
    n2 = float(np.trace(G).real)
    C = (Dp0 / t.t[:, None]) @ np.linalg.inv(X)
    nc2 = np.linalg.norm(C) ** 2
    mu = math.sqrt(n2 * nc2)
    terms = _penalty_terms(mags, t.t)
    total = np.sum(terms)
    value = mu + float(np.log(total))
    # shuffle-side gradient of log mu, scaled by mu for the un-logged objective
    H1 = mu * (G / n2 - C.conj().T @ C / nc2)
    # torus-side: coefficient exponent weights + row norms of C + penalty gradient
    colw = (np.abs(fx.coeffs) ** 2 * fx.weights).sum(axis=0)  # per-exponent mass
    u_f = fx.exponents.T @ colw / n2
    u_c = -np.real(np.sum(np.abs(C) ** 2, axis=1)) / nc2
    u = mu * (u_f + u_c) + _penalty_gradient(terms, total, omega)
    # a real torus stack keeps the torus exponential real
    grad = project_blocks(g.scheme, [H1[None]], [u.reshape(-1, 1, 1)])
    return _State(value, grad, grad.norm, mu, math.nan)


def precondition_sparse(f: PolynomialSystem, xi, config: OptimizerConfig):
    """Joint shuffle and torus-scaling preconditioner for sparse systems.

    Minimizes mu_F(X . (t . f), xi / t) + penalty by gradient descent on the
    pair (X, diag(t)), a two-sided element with a full left block and a
    torus on the right, by the one step rule of every descent
    (``optimize._descend``): base step 1/8, halved on any increase, so the
    trajectory is monotone; the torus action never changes the support of
    the system.  config.scheme must be full left of size m.  No certificate
    is computed, so target_eps has no effect, and the run ends as converged
    once the gradient norm is at most 1e-10.
    The state is unitarily equivariant in X and the torus side stays real
    positive, its own polar factor, so candidates move by ``exp_action``
    alone and only the returned element is replaced by its polar factor, the
    one rule of every descent (``optimize._descend``).
    """
    if config.scheme != GroupScheme.full(f.m, side="left"):
        raise DimensionMismatchError("sparse preconditioning needs the full left scheme of size m")
    xi = np.asarray(xi, dtype=complex)
    if len(xi) != f.nvars:
        raise DimensionMismatchError("point length does not match nvars")
    mags, omega = _magnitudes(xi), _omega(f.nvars)
    Dp0 = _jacobian_pinv(f, xi)
    pair = GroupScheme("both", f.m, f.nvars, (f.m,), (1,) * f.nvars)
    report = _descend(lambda g: _sparse_state(f, mags, omega, Dp0, g), pair.identity(), config,
                      None, 0.125)
    g = report.final_element
    element = GroupElement._from_blocks(config.scheme, g.left)
    report.final_element = element
    return element, TorusPoint(g.right[0].real.ravel()), report
