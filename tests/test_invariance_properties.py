"""Invariances of the condition objective on random inputs (hypothesis).

kF does not change when A is multiplied by a nonzero scalar or by unitary
(or orthogonal) factors on either side, and the whole objective state at a
real element does not change when A is multiplied by a unit-modulus scalar,
although that turns a real run into a complex one.

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

from conftest import complex_gaussian, rng_for
from geoprec.group import GroupElement, GroupScheme
from geoprec.matrix import condition_frobenius
from geoprec.objective import evaluate

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
