"""Properties of the array polynomial algebra, against the dict reference."""

import numpy as np
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

import polysys_reference as ref
from conftest import complex_gaussian, hermitian, random_unitary, rng_for
from test_polysys import random_system
from geoprec.group import GroupElement, GroupScheme
from geoprec.polysys import (
    PolynomialSystem,
    TorusPoint,
    _full_objective_state,
    _gram_and_side_form,
    _magnitudes,
    _omega,
    _sparse_state,
    bw_norm_system,
    change_variables,
    evaluate_system,
    gram_matrix,
    polysys_lie_derivative,
    shuffle,
    torus_rescale,
)

_PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)


@st.composite
def _systems(draw):
    """A random sparse system (n <= 4, degree <= 3) and the generator for its operands."""
    m, n, deg = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(0, 3))
    rng = rng_for(60, draw(st.integers(0, 2**16)))
    f = random_system(rng, m, n, deg, density=draw(st.sampled_from([0.3, 0.6, 1.0])))
    return f, rng


def _close_polys(got, want):
    """Coefficientwise agreement to 1e-12 relative to the largest coefficient."""
    assert len(got) == len(want)
    scale = max((abs(c) for p in want for c in p.values()), default=0.0)
    for p, q in zip(got, want):
        for alpha in set(p) | set(q):
            assert abs(p.get(alpha, 0) - q.get(alpha, 0)) <= 1e-12 * scale


def _close(x, want):
    assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)


def _well_conditioned(rng, n, real=False):
    if real:
        S = rng.standard_normal((n, n))
        return sla.expm(0.15 * (S + S.T)) @ np.linalg.qr(rng.standard_normal((n, n)))[0]
    return sla.expm(0.3 * hermitian(rng, n)) @ random_unitary(rng, n)


@_PROPERTY
@given(_systems())
def test_operations_match_the_dict_reference(case):
    f, rng = case
    n, polys = f.nvars, f.polynomials
    X = complex_gaussian(rng, (f.m, f.m))
    Y = _well_conditioned(rng, n)
    t = np.exp(rng.normal(0.0, 0.5, n))
    H1, H2 = hermitian(rng, f.m), hermitian(rng, n)
    _close_polys(shuffle(X, f).polynomials, ref.shuffle(X, polys))
    _close_polys(change_variables(Y, f).polynomials, ref.change_variables(Y, polys, n))
    _close_polys(torus_rescale(TorusPoint(t), f).polynomials, ref.torus_rescale(t, polys))
    _close_polys(polysys_lie_derivative(f, H1, H2).polynomials,
                 ref.lie_derivative(polys, H1, H2, n))
    _close(gram_matrix(f), ref.gram_matrix(polys))
    G, W = _gram_and_side_form(f._tensors, n)
    _close(G, ref.gram_matrix(polys))
    _close(W, ref.variable_side_form(polys, n))
    xi = complex_gaussian(rng, n)
    ep = evaluate_system(f, xi)
    values, jac = ref.evaluate(polys, xi)
    _close(ep.values, values)
    _close(ep.jacobian, jac)


@_PROPERTY
@given(_systems())
def test_change_of_variables_composes(case):
    f, rng = case
    Y1, Y2 = _well_conditioned(rng, f.nvars), _well_conditioned(rng, f.nvars)
    twice = change_variables(Y1, change_variables(Y2, f))
    once = change_variables(Y1 @ Y2, f)
    assert np.array_equal(twice.exponents, once.exponents)
    _close(twice.coeffs, once.coeffs)


@_PROPERTY
@given(_systems())
def test_dict_view_round_trips(case):
    f, rng = case
    back = PolynomialSystem.from_polys(f.nvars, f.polynomials, f.degrees)
    assert np.array_equal(back.exponents, f.exponents)
    assert np.array_equal(back.coeffs, f.coeffs)
    assert np.array_equal(back.weights, f.weights)
    # a derived system drops its all-zero columns on the way back
    g = change_variables(_well_conditioned(rng, f.nvars), f)
    back = PolynomialSystem.from_polys(g.nvars, g.polynomials, g.degrees)
    kept = np.flatnonzero(np.any(g.coeffs, axis=0))
    assert np.array_equal(back.exponents, g.exponents[kept])
    assert np.array_equal(back.coeffs, g.coeffs[:, kept])


@_PROPERTY
@given(_systems())
def test_bw_norm_unitary_invariance(case):
    f, rng = case
    fu = change_variables(random_unitary(rng, f.nvars), f)
    assert abs(bw_norm_system(fu) - bw_norm_system(f)) <= 1e-12 * bw_norm_system(f)
    # ||f||_W^2 is the squared Frobenius norm of the symmetric tensors
    tensor_norm2 = sum(np.linalg.norm(T) ** 2 for T in f._tensors)
    assert abs(tensor_norm2 - bw_norm_system(f) ** 2) <= 1e-12 * bw_norm_system(f) ** 2


@st.composite
def _state_inputs(draw):
    """A system from _systems, real or complex, and the operands of its states:
    non-Hermitian shuffles and changes of variables, a torus point, a point
    and a pseudoinverse stand-in, all real for a real system."""
    f, rng = draw(_systems())
    real = draw(st.booleans())
    if real:
        f = PolynomialSystem.from_polys(
            f.nvars, [{a: c.real for a, c in p.items()} for p in f.polynomials], f.degrees)
    m, n = f.m, f.nvars

    def field(shape):
        return rng.standard_normal(shape) if real else complex_gaussian(rng, shape)

    X, Y = _well_conditioned(rng, m, real), _well_conditioned(rng, n, real)
    t = np.exp(rng.normal(0.0, 0.5, n))
    return f, X, Y, t, field(n), field((n, m))


def _close_state(value, mu, left, right, want, unit):
    """Value and mu to 1e-12 relative, gradient stacks to 1e-12 of their norm or
    of unit, the size of the terms that cancel in them, whichever is larger."""
    v, w_mu, H1, H2 = want
    assert abs(value - v) <= 1e-12 * abs(v) + 1e-13
    assert abs(mu - w_mu) <= 1e-12 * w_mu
    scale = max(np.sqrt(np.linalg.norm(H1) ** 2 + np.linalg.norm(H2) ** 2), unit)
    assert np.linalg.norm(left - H1) <= 1e-12 * scale
    assert np.linalg.norm(right - H2) <= 1e-12 * scale


@_PROPERTY
@given(_state_inputs())
def test_full_and_sparse_states_match_the_dict_reference(case):
    f, X, Y, t, xi, Dp = case
    m, n, polys = f.m, f.nvars, f.polynomials
    full = GroupElement(GroupScheme.full(m, n, side="both"), X, Y)
    value, grad, mu = _full_objective_state(f, Dp, full)
    _close_state(value, mu, grad.left[0][0], grad.right[0][0],
                 ref.full_state(polys, n, Dp, X, Y), 1.0)
    pair = GroupScheme("both", m, n, (m,), (1,) * n)
    g = GroupElement._from_blocks(pair, [X[None]], [t.astype(X.dtype).reshape(-1, 1, 1)])
    state = _sparse_state(f, _magnitudes(xi), _omega(n), Dp, g)
    assert state.grad_norm == state.grad.norm and np.isnan(state.kappa)
    _close_state(state.value, state.kF, state.grad.left[0][0], state.grad.right[0].ravel(),
                 ref.sparse_state(polys, n, xi, Dp, X, t), state.kF)
