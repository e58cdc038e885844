"""Invariances of the condition objective on random inputs (hypothesis).

kF does not change when A is multiplied by a nonzero scalar or by unitary
(or orthogonal) factors on either side, and the whole objective state at a
real element does not change when A is multiplied by a unit-modulus scalar,
although that turns a real run into a complex one.

The optimal kF over a left torus does not change when A's rows are scaled,
since row scalings are elements of that torus: runs on A and on D A certify
log kF values that agree within the sum of their certificates.

The states a run reads without repolarizing, from Gram factors, from a pair
or from the thin SVD of B, are unitarily equivariant: at U g, for U
block-unitary in the scheme's pattern, value, kF and gradient norm are
those at g, and each gradient block is U_b H_b U_b*.  The SVD route, taken
by a rectangular or rank-deficient A, flags the same rank at U g as at g.

The computed kF of a matrix with condition number kappa carries a relative
error of a few eps * kappa (the smallest singular value is found to about
eps * sigma_max), so the first two properties compare within 16 eps kappa,
on inputs with kappa <= 1e4.  The third keeps kappa(A) <= 100, where the
states agree to 1e-12.
"""

import math

import numpy as np
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complex_gaussian, random_unitary, rng_for
from geoprec.group import GroupElement, GroupScheme
from geoprec.matrix import condition_frobenius
from geoprec.objective import evaluate, evaluate_cross, gram_factors
from geoprec.optimize import OptimizerConfig, Termination, minimize_condition

_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
EPS = np.finfo(float).eps


def _orthonormal(rng, n, is_complex):
    """Haar-random unitary (complex) or orthogonal (real) n x n matrix."""
    M = complex_gaussian(rng, (n, n)) if is_complex else rng.standard_normal((n, n))
    q, r = np.linalg.qr(M)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _conditioned(rng, m, n, kappa, is_complex):
    """A random m x n matrix with singular values spread log-evenly over [1/kappa, 1]."""
    k = min(m, n)
    s = np.geomspace(1.0, 1.0 / kappa, k)
    U = _orthonormal(rng, m, is_complex)[:, :k]
    V = _orthonormal(rng, n, is_complex)[:k]
    return (U * s) @ V


@st.composite
def _inputs(draw, max_log_kappa):
    m, n = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    kappa = 10.0 ** draw(st.floats(0.0, max_log_kappa))
    seed = draw(st.integers(0, 2**16))
    is_complex = draw(st.booleans())
    return _conditioned(rng_for(60, seed), m, n, kappa, is_complex), seed


def _close_kF(got, ref, A):
    kappa = np.linalg.cond(A)
    assert abs(got - ref) <= 16 * EPS * kappa * ref


@_PROPERTY
@given(_inputs(4.0), st.floats(-3.0, 3.0), st.floats(0.0, 2 * math.pi))
def test_kF_is_scale_invariant(inp, log_modulus, phase):
    A, _ = inp
    c = 10.0**log_modulus * np.exp(1j * phase)
    _close_kF(condition_frobenius(c * A), condition_frobenius(A), A)


@_PROPERTY
@given(_inputs(4.0), st.booleans(), st.booleans())
def test_kF_is_unitarily_invariant(inp, complex_u, complex_v):
    A, seed = inp
    rng = rng_for(61, seed)
    U = _orthonormal(rng, A.shape[0], complex_u)
    V = _orthonormal(rng, A.shape[1], complex_v)
    _close_kF(condition_frobenius(U @ A @ V.conj().T), condition_frobenius(A), A)


def _partition(draw, total):
    sizes = []
    while sum(sizes) < total:
        sizes.append(min(draw(st.integers(1, 3)), total - sum(sizes)))
    return tuple(sizes)


@st.composite
def _real_elements(draw):
    """A real positive definite element of a random torus or block scheme, and a
    real input of kappa <= 100 that fits it."""
    m, n = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    both = draw(st.booleans())
    sch = GroupScheme("both" if both else "left", m, n, _partition(draw, m),
                      _partition(draw, n) if both else None)
    rng = rng_for(62, draw(st.integers(0, 2**16)))

    def positive(blocks, size):
        H = np.zeros((size, size))
        for a, b in blocks:
            M = rng.standard_normal((b - a, b - a))
            H[a:b, a:b] = 0.5 * (M + M.T)
        return sla.expm(0.5 * H)

    g = GroupElement(sch, positive(sch.left_blocks, m),
                     positive(sch.right_blocks, n) if both else None)
    return _conditioned(rng, m, n, 10.0 ** draw(st.floats(0.0, 2.0)), False), g


@_PROPERTY
@given(_real_elements(), st.floats(0.0, 2 * math.pi))
def test_state_at_a_real_element_ignores_the_phase_of_A(inp, theta):
    A, g = inp
    real = evaluate(A, g)
    phased = evaluate(np.exp(1j * theta) * A, g)
    assert real.B.dtype == np.float64
    assert abs(real.value - phased.value) <= 1e-12
    assert abs(real.kF - phased.kF) <= 1e-12 * real.kF
    pairs = zip(real.grad.left + (real.grad.right or ()),
                phased.grad.left + (phased.grad.right or ()))
    for r, p in pairs:
        assert r.dtype == np.float64
        assert np.abs(r - p).max() <= 1e-12


@_PROPERTY
@given(st.integers(2, 5), st.integers(0, 2**16), st.booleans(), st.data())
def test_certified_torus_optimum_ignores_row_scales(n, seed, is_complex, data):
    A = _conditioned(rng_for(63, seed), n, n, 10.0, is_complex)
    exponent = st.sampled_from([-8.0, 8.0]) | st.floats(-8.0, 8.0)  # the extremes, often
    scales = 10.0 ** np.array(data.draw(st.lists(exponent, min_size=n, max_size=n)))
    cfg = OptimizerConfig(scheme=GroupScheme.diagonal(n, side="left"))
    plain, scaled = minimize_condition(A, cfg), minimize_condition(scales[:, None] * A, cfg)
    assert plain.termination is scaled.termination is Termination.CERTIFIED
    gap = abs(math.log(plain.final_kF) - math.log(scaled.final_kF))
    assert gap <= plain.certificate + scaled.certificate


def _block_diagonal(blocks, size, make, dtype):
    out = np.zeros((size, size), dtype=dtype)
    for a, b in blocks:
        out[a:b, a:b] = make(b - a)
    return out


def _orbit(rng, sch, is_complex):
    """A positive definite element g of the scheme, and block-unitary (real:
    orthogonal) U1 and U2 of its pattern (U2 None for a left scheme)."""
    dtype = complex if is_complex else float

    def positive(k):
        M = complex_gaussian(rng, (k, k)) if is_complex else rng.standard_normal((k, k))
        return sla.expm(0.25 * (M + M.conj().T))

    def unitary(k):
        return random_unitary(rng, k) if is_complex else _orthonormal(rng, k, False)

    both = sch.side == "both"
    g = GroupElement(sch, _block_diagonal(sch.left_blocks, sch.m, positive, dtype),
                     _block_diagonal(sch.right_blocks, sch.n, positive, dtype) if both else None)
    U1 = _block_diagonal(sch.left_blocks, sch.m, unitary, dtype)
    U2 = _block_diagonal(sch.right_blocks, sch.n, unitary, dtype) if both else None
    return g, U1, U2


@st.composite
def _unitary_orbits(draw):
    """A square input A of kappa <= 100 and a second matrix for a cross pair, a
    positive definite element g of a left torus, uniform or ragged left blocks,
    or two-sided blocks, and a block-unitary (real: orthogonal) U of its pattern."""
    kind = draw(st.sampled_from(["torus", "uniform", "ragged", "both"]))
    size = draw(st.integers(2, 3))
    n = size * draw(st.integers(1, 3)) if kind == "uniform" else draw(st.integers(2, 8))
    sch = {"torus": GroupScheme.diagonal(n, side="left"),
           "uniform": GroupScheme.blocked(n, size, side="left"),
           "ragged": GroupScheme("left", n, n, _partition(draw, n)),
           "both": GroupScheme("both", n, n, _partition(draw, n), _partition(draw, n))}[kind]
    is_complex = draw(st.booleans())
    rng = rng_for(64, draw(st.integers(0, 2**16)))
    g, U1, U2 = _orbit(rng, sch, is_complex)
    A = _conditioned(rng, n, n, 10.0 ** draw(st.floats(0.0, 2.0)), is_complex)
    B = _conditioned(rng, n, n, 10.0 ** draw(st.floats(0.0, 2.0)), is_complex)
    return A, B, g, U1, U2


@st.composite
def _svd_orbits(draw):
    """An input the SVD route reads, g and U as in _unitary_orbits, and whether
    the input is rank-deficient: a wide A of kappa <= 100 under a left scheme,
    an A of any shape and kappa <= 100 under a two-sided scheme with its own
    right partition, or a square A = L R of rank 2 <= r < m, with L and R of
    kappa 10, under either side."""
    kind = draw(st.sampled_from(["wide", "both", "rank"]))
    m = draw(st.integers(3 if kind == "rank" else 2, 8))
    n = {"wide": m + draw(st.integers(1, 4)), "both": draw(st.integers(2, 8)), "rank": m}[kind]
    both = kind == "both" or (kind == "rank" and draw(st.booleans()))
    sch = GroupScheme("both" if both else "left", m, n, _partition(draw, m),
                      _partition(draw, n) if both else None)
    is_complex = draw(st.booleans())
    rng = rng_for(65, draw(st.integers(0, 2**16)))
    g, U1, U2 = _orbit(rng, sch, is_complex)
    if kind == "rank":
        r = draw(st.integers(2, m - 1))
        A = _conditioned(rng, m, r, 10.0, is_complex) @ _conditioned(rng, r, m, 10.0, is_complex)
    else:
        A = _conditioned(rng, m, n, 10.0 ** draw(st.floats(0.0, 2.0)), is_complex)
    return A, g, U1, U2, kind == "rank"


def _check_equivariant(at_g, at_ug, U1, U2):
    for field in ("value", "kF", "grad_norm"):
        ref = getattr(at_g, field)
        assert abs(getattr(at_ug, field) - ref) <= 1e-12 * abs(ref)
    scale = max(at_g.grad_norm, 1.0)
    H1 = U1 @ at_g.grad.H1 @ U1.conj().T
    assert np.abs(at_ug.grad.H1 - H1).max() <= 1e-12 * scale
    if U2 is not None:
        H2 = U2 @ at_g.grad.H2 @ U2.conj().T
        assert np.abs(at_ug.grad.H2 - H2).max() <= 1e-12 * scale


def _times(U1, U2, g):
    return GroupElement(g.scheme, U1 @ g.X, None if U2 is None else U2 @ g.Y)


@_PROPERTY
@given(_unitary_orbits(), _svd_orbits())
def test_state_at_a_unitary_multiple_is_the_conjugated_state(inp, svd):
    """Left schemes read the states from Gram factors, two-sided ones from the
    pair, and a rectangular or rank-deficient A from the thin SVD of B, whose
    rank cutoff keeps the same singular values at U g as at g."""
    A, B, g, U1, U2 = inp
    sch = g.scheme
    ug = _times(U1, U2, g)
    a_inv = np.linalg.inv(A)
    factors = gram_factors(A, a_inv, sch)
    _check_equivariant(evaluate(A, g, a_inv, factors), evaluate(A, ug, a_inv, factors), U1, U2)
    factors = gram_factors(A, B, sch)
    _check_equivariant(evaluate_cross(A, B, g, factors), evaluate_cross(A, B, ug, factors),
                       U1, U2)
    C, g, U1, U2, rank_deficient = svd
    at_g, at_ug = evaluate(C, g), evaluate(C, _times(U1, U2, g))
    _check_equivariant(at_g, at_ug, U1, U2)
    assert at_g.rank_deficient is at_ug.rank_deficient is rank_deficient
