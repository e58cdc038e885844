"""Term-by-term dict implementations of the polynomial-system algebra.

A system is a list of dicts {exponent tuple: coefficient}.  These loops are
the direct transcription of each definition, kept as the reference that the
array implementation in ``geoprec.polysys`` is checked against.  So are the
dict-based constructor and file reader and the json writer that
``PolynomialSystem`` and ``geoprec.sysio`` replaced by array code.
"""

import json
from math import factorial

import numpy as np

from geoprec.polysys import _bw_weights, bw_inner


def system_arrays(nvars, degrees, polynomials):
    """(exponents, weights, coeffs) as PolynomialSystem(nvars, degrees,
    polynomials) built them from dicts: the basis is every exponent with a
    nonzero coefficient, in graded-lex order."""
    rows = [{} for _ in degrees]
    for p, row in zip(polynomials, rows):
        for alpha, c in p.items():
            if complex(c):
                row[tuple(map(int, alpha))] = complex(c)
    basis = sorted(set().union(*rows), key=lambda a: (-sum(a), a), reverse=True)
    column = {alpha: k for k, alpha in enumerate(basis)}
    coeffs = np.zeros((len(rows), len(basis)), dtype=complex)
    for i, row in enumerate(rows):
        coeffs[i, [column[a] for a in row]] = list(row.values())
    exponents = np.array(basis, dtype=np.intp).reshape(len(basis), nvars)
    return exponents, _bw_weights(exponents), coeffs


def document_polynomials(doc):
    """The dicts that a system file's terms were read into: a zero term
    skipped, a repeated exponent summed from 0 in file order."""
    polys = []
    for terms in doc["polynomials"]:
        poly = {}
        for term in terms:
            c = complex(*term["coeff"])
            if c != 0:
                alpha = tuple(term["exponents"])
                poly[alpha] = poly.get(alpha, 0) + c
        polys.append(poly)
    return polys


def polysys_text(system, point=None):
    """The text of a system file as json.dump(..., indent=1) wrote it."""
    doc = {
        "nvars": system.nvars,
        "degrees": list(system.degrees),
        "polynomials": [[{"exponents": list(alpha), "coeff": [c.real, c.imag]}
                         for alpha, c in poly.items()] for poly in system.polynomials],
    }
    if point is not None:
        doc["point"] = [[z.real, z.imag] for z in np.asarray(point, dtype=complex)]
    return json.dumps(doc, indent=1) + "\n"


def _add(g, key, v):
    g[key] = g.get(key, 0) + v


def shuffle(X, polys):
    m = len(polys)
    out = []
    for i in range(m):
        g = {}
        for j in range(m):
            for alpha, v in polys[j].items():
                _add(g, alpha, X[i, j] * v)
        out.append(g)
    return out


def _poly_mul(p, q):
    out = {}
    for a, c in p.items():
        for b, d in q.items():
            _add(out, tuple(x + y for x, y in zip(a, b)), c * d)
    return out


def change_variables(Y, polys, n):
    """x |-> f(Y^-1 x), by expanding every monomial into linear forms."""
    Yi = np.linalg.inv(Y)
    unit = [tuple(int(l == k) for k in range(n)) for l in range(n)]
    lin = [{unit[l]: Yi[k, l] for l in range(n)} for k in range(n)]
    out = []
    for poly in polys:
        g = {}
        for alpha, c in poly.items():
            term = {(0,) * n: c}
            for k, ak in enumerate(alpha):
                for _ in range(ak):
                    term = _poly_mul(term, lin[k])
            for key, v in term.items():
                _add(g, key, v)
        out.append(g)
    return out


def torus_rescale(t, polys):
    return [{alpha: c * float(np.prod(t ** np.asarray(alpha))) for alpha, c in p.items()}
            for p in polys]


def gram_matrix(polys):
    return np.array([[bw_inner(p, q) for q in polys] for p in polys], dtype=complex)


def lie_derivative(polys, H1, H2, n):
    """sum_j H1[i, j] f_j - sum_{k, l} H2[k, l] x_l d f_i / d x_k."""
    out = shuffle(H1, polys)
    for g, poly in zip(out, polys):
        for alpha, c in poly.items():
            for k in range(n):
                for l in range(n):
                    if alpha[k]:
                        beta = list(alpha)
                        beta[k] -= 1
                        beta[l] += 1
                        _add(g, tuple(beta), -H2[k, l] * alpha[k] * c)
    return out


def variable_side_form(polys, n):
    """W[k, l] = sum_i <x_l d f_i / d x_k, f_i>."""
    W = np.zeros((n, n), dtype=complex)
    for poly in polys:
        for k in range(n):
            for l in range(n):
                moved = {}
                for alpha, c in poly.items():
                    if alpha[k]:
                        beta = list(alpha)
                        beta[k] -= 1
                        beta[l] += 1
                        _add(moved, tuple(beta), alpha[k] * c)
                W[k, l] += bw_inner(moved, poly)
    return W


def evaluate(polys, xi):
    """Values and Jacobian at xi."""
    n = len(xi)
    values = np.zeros(len(polys), dtype=complex)
    jac = np.zeros((len(polys), n), dtype=complex)
    for i, poly in enumerate(polys):
        for alpha, c in poly.items():
            values[i] += c * np.prod([x**a for x, a in zip(xi, alpha)])
            for k in range(n):
                if alpha[k]:
                    lowered = [a - (j == k) for j, a in enumerate(alpha)]
                    jac[i, k] += c * alpha[k] * np.prod([x**a for x, a in zip(xi, lowered)])
    return values, jac


def _hermitian_part(M):
    return 0.5 * (M + M.conj().T)


def _bw_weight(alpha):
    return np.prod([factorial(a) for a in alpha]) / factorial(sum(alpha))


def full_state(polys, n, Dp, X, Y):
    """(value, mu, H1, H2) of log ||(X, Y) . f||_W + log ||Y D^+ X^-1||_F and
    its gradient, from the term-by-term algebra."""
    fT = shuffle(X, change_variables(Y, polys, n))
    G = gram_matrix(fT)
    n2 = np.trace(G).real
    C = Y @ Dp @ np.linalg.inv(X)
    nc2 = np.sum(np.abs(C) ** 2)
    W = variable_side_form(fT, n)
    H1 = G / n2 - C.conj().T @ C / nc2
    H2 = -0.5 * (W.T + W.conj()) / n2 + C @ C.conj().T / nc2
    value = 0.5 * np.log(n2) + 0.5 * np.log(nc2)
    return value, np.sqrt(n2 * nc2), _hermitian_part(H1), _hermitian_part(H2)


def sparse_state(polys, n, xi, Dp, X, t):
    """(value, mu, H1, u) of mu_F(X . (t . f), xi / t) + the torus penalty and
    its gradient in (X, log t), from the term-by-term algebra."""
    fx = shuffle(X, torus_rescale(t, polys))
    G = gram_matrix(fx)
    n2 = np.trace(G).real
    C = np.diag(1.0 / t) @ Dp @ np.linalg.inv(X)
    nc2 = np.sum(np.abs(C) ** 2)
    mu = np.sqrt(n2 * nc2)
    # the penalty: sum_i prod_j r_j^(w_ij), with w_ij = n [i = j] - 1 and r = |xi| / t
    r = np.abs(xi) / t
    w = n * np.eye(n) - 1.0
    terms = np.array([np.prod(r ** w[i]) for i in range(n)])
    mass = np.zeros(n)  # sum over equations and monomials of alpha |c|^2 alpha! / |alpha|!
    for poly in fx:
        for alpha, c in poly.items():
            mass += np.asarray(alpha) * abs(c) ** 2 * _bw_weight(alpha)
    u = mu * (mass / n2 - np.sum(np.abs(C) ** 2, axis=1) / nc2) - w.T @ (terms / terms.sum())
    H1 = mu * (G / n2 - C.conj().T @ C / nc2)
    return mu + np.log(terms.sum()), mu, _hermitian_part(H1), u
