"""Sparse multivariate polynomial systems and their preconditioners.

Polynomials are maps from exponent tuples to complex coefficients under the
Bombieri-Weyl inner product (monomial weight alpha! / |alpha|!).  Three
preconditioning actions are supported:

* shuffling: replace each equation by a linear combination of the others,
  which leaves the zero set unchanged and reduces to a matrix cross-condition
  problem through the Hermitian square root of the Gram matrix;
* shuffle + linear change of variables: the full two-sided action, optimized
  directly with the degree-dependent step size;
* shuffle + torus scaling of the variables: preserves sparsity, balances the
  root coordinates through an auxiliary scaling penalty.
"""

import math
from dataclasses import dataclass
from math import factorial
from typing import Dict, List, Tuple

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
    apply_dual,
    project_blocks,
    project_to_lie,
)
from .matrix import as_dense, pseudoinverse
from .optimize import AUTO, OptimizerConfig, _descend, _State, minimize_cross_condition

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


def _canonical(poly, nvars) -> Polynomial:
    out = {}
    for alpha, c in poly.items():
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != nvars or any(a < 0 for a in alpha):
            raise DimensionMismatchError(f"bad exponent vector {alpha}")
        c = complex(c)
        if c != 0:
            out[alpha] = out.get(alpha, 0) + c
    return {a: c for a, c in sorted(out.items(), key=_grlex_key) if c != 0}


def _grlex_key(item):
    alpha = item[0]
    return (sum(alpha), tuple(-a for a in alpha))


@dataclass(frozen=True)
class PolynomialSystem:
    """System of m sparse polynomials in n variables with a degree pattern.

    Coefficient maps are canonical: graded-lex ordered, no explicit zeros,
    and every exponent respects the declared per-polynomial degree bound.
    """

    nvars: int
    degrees: Tuple[int, ...]
    polynomials: Tuple[Polynomial, ...]

    def __post_init__(self):
        polys = tuple(_canonical(p, self.nvars) for p in self.polynomials)
        degrees = tuple(int(d) for d in self.degrees)
        if len(degrees) != len(polys):
            raise DimensionMismatchError("one degree bound per polynomial required")
        for i, (p, d) in enumerate(zip(polys, degrees)):
            for alpha in p:
                if sum(alpha) > d:
                    raise DimensionMismatchError(
                        f"polynomial {i} has a term of degree {sum(alpha)} > bound {d}"
                    )
        object.__setattr__(self, "polynomials", polys)
        object.__setattr__(self, "degrees", degrees)

    @classmethod
    def from_polys(cls, nvars, polys, degrees=None):
        polys = [dict(p) for p in polys]
        if degrees is None:
            degrees = [max((sum(a) for a in p), default=0) for p in polys]
        return cls(nvars, tuple(degrees), tuple(polys))

    @property
    def m(self):
        return len(self.polynomials)

    @property
    def max_degree(self):
        return max(self.degrees) if self.degrees else 0


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
        if np.any(t <= 0):
            raise ValueError("torus point must be strictly positive")
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "t", t)


def bw_weight(alpha: Exponent) -> float:
    """Monomial weight alpha! / |alpha|! of the Bombieri-Weyl inner product."""
    w = 1.0
    for a in alpha:
        w *= factorial(a)
    return w / factorial(sum(alpha))


def bw_inner(f: Polynomial, g: Polynomial) -> complex:
    """Bombieri-Weyl inner product, linear in f, conjugate-linear in g.

    Monomials of different exponent are orthogonal, so only shared exponents
    contribute; each homogeneous component is handled by its own |alpha|!.
    """
    if len(g) < len(f):
        return complex(np.conj(bw_inner(g, f)))
    total = 0.0 + 0.0j
    for alpha, c in f.items():
        d = g.get(alpha)
        if d is not None:
            total += c * np.conj(d) * bw_weight(alpha)
    return total


def bw_norm_system(f: PolynomialSystem) -> float:
    """sqrt of the sum of the squared Bombieri-Weyl norms of the equations."""
    return math.sqrt(sum(bw_inner(p, p).real for p in f.polynomials))


def _eval_monomial(alpha, xi):
    v = 1.0 + 0.0j
    for a, x in zip(alpha, xi):
        if a:
            v *= x**a
    return v


def evaluate_system(f: PolynomialSystem, xi) -> EvaluatedPoint:
    """Values f(xi) and the Jacobian by direct sparse term evaluation."""
    xi = np.asarray(xi, dtype=complex)
    if xi.shape != (f.nvars,):
        raise DimensionMismatchError(f"point has length {xi.shape}, expected {f.nvars}")
    values = np.zeros(f.m, dtype=complex)
    jac = np.zeros((f.m, f.nvars), dtype=complex)
    for i, poly in enumerate(f.polynomials):
        for alpha, c in poly.items():
            values[i] += c * _eval_monomial(alpha, xi)
            for k in range(f.nvars):
                if alpha[k]:
                    beta = list(alpha)
                    beta[k] -= 1
                    jac[i, k] += c * alpha[k] * _eval_monomial(beta, xi)
    return EvaluatedPoint(xi, values, jac)


def local_condition(f: PolynomialSystem, xi, norm: str = "frobenius") -> float:
    """||f||_W times the chosen norm of the pseudoinverse Jacobian at xi."""
    jac = evaluate_system(f, xi).jacobian
    if not np.any(jac):
        raise ZeroJacobianError("Jacobian vanishes at the point")
    pinv = pseudoinverse(jac)
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
    polys = []
    for i in range(f.m):
        g: Polynomial = {}
        for j in range(f.m):
            c = X[i, j]
            if c == 0:
                continue
            for alpha, v in f.polynomials[j].items():
                g[alpha] = g.get(alpha, 0) + c * v
        polys.append(g)
    return PolynomialSystem(f.nvars, tuple(max(f.degrees) for _ in polys), tuple(polys))


def _poly_mul(p: Polynomial, q: Polynomial, cap: int) -> Polynomial:
    out: Polynomial = {}
    for a, c in p.items():
        for b, d in q.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, 0) + c * d
            if len(out) > cap:
                raise ExpansionOverflowError(len(out), cap)
    return out


def change_variables(Y, f: PolynomialSystem, cap: int = EXPANSION_CAP) -> PolynomialSystem:
    """Substitute x <- Y^-1 x, i.e. the system x |-> f(Y^-1 x).

    The substitution expands every monomial into a product of linear forms,
    so sparsity is generally lost; the degree pattern is preserved.  Raises
    when the expanded term count exceeds the cap.
    """
    Y = as_dense(Y)
    n = f.nvars
    if Y.shape != (n, n):
        raise DimensionMismatchError(f"change of variables must be {n}x{n}")
    Yi = np.linalg.inv(Y)
    lin: List[Polynomial] = []
    for k in range(n):
        form: Polynomial = {}
        for l in range(n):
            if Yi[k, l] != 0:
                e = [0] * n
                e[l] = 1
                form[tuple(e)] = Yi[k, l]
        lin.append(form)
    polys = []
    for poly in f.polynomials:
        g: Polynomial = {}
        for alpha, c in poly.items():
            term = {tuple([0] * n): c}
            for k, ak in enumerate(alpha):
                for _ in range(ak):
                    term = _poly_mul(term, lin[k], cap)
            for key, v in term.items():
                g[key] = g.get(key, 0) + v
            if len(g) > cap:
                raise ExpansionOverflowError(len(g), cap)
        polys.append(g)
    return PolynomialSystem(f.nvars, f.degrees, tuple(polys))


def torus_rescale(t: TorusPoint, f: PolynomialSystem) -> PolynomialSystem:
    """The scaling substitution x_k <- t_k x_k: coefficient c_alpha -> c_alpha t^alpha.

    Sparsity is preserved exactly, and a root xi of f moves to xi / t.
    """
    tv = t.t
    if len(tv) != f.nvars:
        raise DimensionMismatchError("torus point length does not match nvars")
    polys = []
    for poly in f.polynomials:
        g = {}
        for alpha, c in poly.items():
            g[alpha] = c * float(np.prod(tv**np.asarray(alpha)))
        polys.append(g)
    return PolynomialSystem(f.nvars, f.degrees, tuple(polys))


def gram_matrix(f: PolynomialSystem) -> np.ndarray:
    """Hermitian PSD Gram matrix G[i, j] = <f_i, f_j>."""
    m = f.m
    G = np.zeros((m, m), dtype=complex)
    for i in range(m):
        for j in range(i, m):
            v = bw_inner(f.polynomials[i], f.polynomials[j])
            G[i, j] = v
            G[j, i] = np.conj(v)
    return G


def gram_sqrt(f: PolynomialSystem) -> np.ndarray:
    """Hermitian PSD square root of the Gram matrix; its Frobenius norm is ||f||_W."""
    G = gram_matrix(f)
    w, v = np.linalg.eigh(G)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def polysys_lie_derivative(f: PolynomialSystem, H1, H2) -> PolynomialSystem:
    """Derivative of the two-sided action along (H1, H2).

    (Pi(H) f)_i = sum_j H1[i, j] f_j - sum_{k, l} H2[k, l] x_l d f_i / d x_k;
    the second part moves one power between variables, so the degree pattern
    is preserved.
    """
    H1 = as_dense(H1)
    H2 = as_dense(H2)
    if H1.shape != (f.m, f.m) or H2.shape != (f.nvars, f.nvars):
        raise DimensionMismatchError("direction shapes do not match the system")
    shuffled = shuffle(H1, f)
    polys = []
    for i, poly in enumerate(f.polynomials):
        g = dict(shuffled.polynomials[i])
        for alpha, c in poly.items():
            for k in range(f.nvars):
                if alpha[k] == 0:
                    continue
                for l in range(f.nvars):
                    if H2[k, l] == 0:
                        continue
                    beta = list(alpha)
                    beta[k] -= 1
                    beta[l] += 1
                    key = tuple(beta)
                    g[key] = g.get(key, 0) - H2[k, l] * alpha[k] * c
        polys.append(g)
    return PolynomialSystem(f.nvars, f.degrees, tuple(polys))


def precondition_shuffle(f: PolynomialSystem, xi, scheme: GroupScheme,
                         config: OptimizerConfig):
    """Optimal shuffling preconditioner at a point.

    Reduces to the matrix cross-condition problem for the pair
    (gram_sqrt(f), pseudoinverse of the Jacobian) and runs the left-only
    descent; the returned report tracks exactly the local condition number
    of the shuffled system when the Jacobian has full row rank.
    """
    if scheme.side != "left" or scheme.m != f.m:
        raise DimensionMismatchError("shuffling needs a left-only scheme of size m")
    jac = evaluate_system(f, xi).jacobian
    if not np.any(jac):
        raise ZeroJacobianError("Jacobian vanishes at the point")
    S = gram_sqrt(f)
    B = pseudoinverse(jac)
    report = minimize_cross_condition(S, B, config)
    return report.final_element, report


# --- full action: shuffle + change of variables ---------------------------


def _system_coeff_arrays(f: PolynomialSystem):
    """All exponents appearing in the system with an m x terms coefficient matrix."""
    alphas = sorted({a for p in f.polynomials for a in p}, key=lambda a: _grlex_key((a, 0)))
    index = {a: k for k, a in enumerate(alphas)}
    C = np.zeros((f.m, len(alphas)), dtype=complex)
    for i, p in enumerate(f.polynomials):
        for a, c in p.items():
            C[i, index[a]] = c
    weights = np.array([bw_weight(a) for a in alphas])
    expmat = np.array(alphas, dtype=float)  # terms x n
    return C, weights, expmat


def _variable_side_form(f: PolynomialSystem) -> np.ndarray:
    """Matrix W with W[k, l] = sum_i <x_l d f_i / d x_k, f_i>."""
    n = f.nvars
    W = np.zeros((n, n), dtype=complex)
    for poly in f.polynomials:
        for alpha, c in poly.items():
            for k in range(n):
                if alpha[k] == 0:
                    continue
                beta = list(alpha)
                beta[k] -= 1
                for l in range(n):
                    beta[l] += 1
                    key = tuple(beta)
                    d = poly.get(key)
                    if d is not None:
                        W[k, l] += alpha[k] * c * np.conj(d) * bw_weight(key)
                    beta[l] -= 1
    return W


def _check_auto_step(config):
    if config.step_size != AUTO:
        raise ValueError("the polynomial actions take a fixed base step; step_size must be 'auto'")


def _full_objective_state(f, Dp, g):
    """Value and gradient of log ||(X, Y) . f||_W + log ||Y D^+ X^-1||_F."""
    sch = g.scheme
    fT = shuffle(g.left[0][0], change_variables(g.right[0][0], f))  # one full block a side
    n2 = sum(bw_inner(p, p).real for p in fT.polynomials)
    C = apply_dual(g, Dp)
    nc2 = np.linalg.norm(C) ** 2
    value = 0.5 * math.log(n2) + 0.5 * math.log(nc2)
    G = gram_matrix(fT)
    W = _variable_side_form(fT)
    H1 = G / n2 - C.conj().T @ C / nc2
    Wt = W.T
    H2 = -0.5 * (Wt + Wt.conj().T) / n2 + C @ C.conj().T / nc2
    grad = project_to_lie(sch, H1, H2)
    return value, grad, math.sqrt(n2) * math.sqrt(nc2)


def precondition_full(f: PolynomialSystem, xi, scheme: GroupScheme,
                      config: OptimizerConfig):
    """Joint shuffle and change-of-variables preconditioner.

    Descends the log of ||(X, Y) . f||_W ||Y D^+ X^-1||_F with base step
    1/(D + 2) where D is the top degree, halving on any increase so descent
    stays monotone.  The duality certificate uses the degree-dependent
    margin gamma = (D + 2)^(1 - m - n) / (m + n).  scheme must be the full
    two-sided scheme (m, n) and config.step_size "auto".
    """
    if scheme != GroupScheme.full(f.m, f.nvars, side="both"):
        raise DimensionMismatchError("full preconditioning needs the full two-sided scheme (m, n)")
    _check_auto_step(config)
    jac = evaluate_system(f, xi).jacobian
    if not np.any(jac):
        raise ZeroJacobianError("Jacobian vanishes at the point")
    Dp = pseudoinverse(jac)
    Dmax = f.max_degree
    base_step = 1.0 / (Dmax + 2.0)
    wd = WeightData(Dmax + 2.0, (Dmax + 2.0) ** (1 - f.m - f.nvars) / (f.m + f.nvars))
    grad_tol = config.grad_tol_override
    if grad_tol is None:
        grad_tol = wd.weight_margin * config.target_eps

    def state_fn(g):
        value, grad, mu = _full_objective_state(f, Dp, g)
        return _State(value, grad, grad.norm, mu, mu)

    report = _descend(state_fn, scheme.identity(), config, wd, grad_tol, base_step, halving=True)
    return report.final_element, report


# --- sparse action: shuffle + torus scaling --------------------------------


def torus_penalty(xi, t: TorusPoint) -> float:
    """log sum_i |xi|^(w_i) t^(-w_i) with w_i = n e_i - 1; minimized when the
    rescaled root coordinates |xi_i| / t_i all share one magnitude."""
    r = _ratio(xi, t)
    n = len(r)
    terms = r**n / np.prod(r)
    return float(np.log(np.sum(terms)))


def torus_penalty_gradient(xi, t: TorusPoint) -> np.ndarray:
    """Gradient of the penalty with respect to the log-scalings of t."""
    r = _ratio(xi, t)
    n = len(r)
    terms = r**n / np.prod(r)
    weights = terms / np.sum(terms)
    omega = n * np.eye(n) - np.ones((n, n))  # row i is w_i
    return -omega.T @ weights


def _ratio(xi, t: TorusPoint):
    xi = np.asarray(xi, dtype=complex)
    mags = np.abs(xi)
    zero = np.nonzero(mags == 0)[0]
    if len(zero):
        raise ZeroCoordinateError(int(zero[0]))
    return mags / t.t


def torus_objective(f: PolynomialSystem, xi, X: GroupElement, t: TorusPoint) -> float:
    """mu_F(X . (t . f), xi / t) + penalty: the sparse preconditioning objective."""
    ft = torus_rescale(t, f)
    fx = shuffle(X.X, ft)
    zeta = np.asarray(xi, dtype=complex) / t.t
    return local_condition(fx, zeta, norm="frobenius") + torus_penalty(xi, t)


def _sparse_state(f, xi, Dp0, g):
    """Objective pieces and gradients for the joint (X, t) descent.

    The element g carries the shuffle X and the torus point as Y = diag(t).
    The rescaled pair has Jacobian X D diag(t) at xi / t, so its pseudo-
    inverse transports to diag(t)^-1 D^+ X^-1 while the system norm is read
    off the Gram matrix of the shuffled, rescaled system.
    """
    X = g.left[0][0]
    t = TorusPoint(g.right[0].real.ravel())
    ft = torus_rescale(t, f)
    fx = shuffle(X, ft)
    G = gram_matrix(fx)
    n2 = float(np.trace(G).real)
    C = (Dp0 / t.t[:, None]) @ np.linalg.inv(X)
    nc2 = np.linalg.norm(C) ** 2
    mu = math.sqrt(n2 * nc2)
    value = mu + torus_penalty(xi, t)
    # shuffle-side gradient of log mu, scaled by mu for the un-logged objective
    H1 = mu * (G / n2 - C.conj().T @ C / nc2)
    # torus-side: coefficient exponent weights + row norms of C + penalty gradient
    Cw, weights, expmat = _system_coeff_arrays(fx)
    colw = (np.abs(Cw) ** 2 * weights).sum(axis=0)  # per-exponent mass
    u_f = expmat.T @ colw / n2
    u_c = -np.real(np.sum(np.abs(C) ** 2, axis=1)) / nc2
    u = mu * (u_f + u_c) + torus_penalty_gradient(xi, t)
    # a real torus stack keeps the torus exponential real
    grad = project_blocks(g.scheme, [H1[None]], [u.reshape(-1, 1, 1)])
    return _State(value, grad, grad.norm, mu, mu)


def precondition_sparse(f: PolynomialSystem, xi, config: OptimizerConfig):
    """Joint shuffle and torus-scaling preconditioner for sparse systems.

    Minimizes mu_F(X . (t . f), xi / t) + penalty by gradient descent on the
    pair (X, diag(t)), a two-sided element with a full left block and a
    torus on the right, with base step 1/8 and step halving, so the
    trajectory is monotone; the torus action never changes the support of
    the system.  config.scheme must be full left of size m and
    config.step_size "auto".  No certificate is computed, so target_eps has
    no effect.
    """
    if config.scheme != GroupScheme.full(f.m, side="left"):
        raise DimensionMismatchError("sparse preconditioning needs the full left scheme of size m")
    _check_auto_step(config)
    xi = np.asarray(xi, dtype=complex)
    if len(xi) != f.nvars:
        raise DimensionMismatchError("point length does not match nvars")
    if np.any(np.abs(xi) == 0):
        raise ZeroCoordinateError(int(np.nonzero(np.abs(xi) == 0)[0][0]))
    jac = evaluate_system(f, xi).jacobian
    if not np.any(jac):
        raise ZeroJacobianError("Jacobian vanishes at the point")
    Dp0 = pseudoinverse(jac)
    pair = GroupScheme("both", f.m, f.nvars, (f.m,), (1,) * f.nvars)
    grad_tol = config.grad_tol_override if config.grad_tol_override is not None else 1e-10
    report = _descend(lambda g: _sparse_state(f, xi, Dp0, g), pair.identity(), config, None,
                      grad_tol, 0.125, halving=True)
    g = report.final_element
    element = GroupElement._from_blocks(config.scheme, g.left)
    report.final_element = element
    return element, TorusPoint(g.right[0].real.ravel()), report
