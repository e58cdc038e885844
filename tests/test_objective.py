import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    complex_gaussian,
    random_direction,
    random_element,
    random_unitary,
    rng_for,
)
from geoprec.errors import DimensionMismatchError, SingularBlockError, ZeroMatrixError
from geoprec.group import (
    GroupElement,
    GroupScheme,
    LieDirection,
    apply,
    exp_action,
    project_to_lie,
    weight_data,
)
from geoprec.matrix import condition_frobenius
from geoprec.objective import (
    duality_gap_bound,
    evaluate,
    evaluate_cross,
    gram_factors,
    hessian_quadratic_form,
)

# shapes on which the pseudoinverse transports exactly along the action, so
# value, gradient, and Hessian are all the calculus of the true objective:
# left-only needs full row rank, two-sided needs a square matrix
EXACT_CASES = [
    (GroupScheme.diagonal(4, side="left"), (4, 4)),
    (GroupScheme.diagonal(4, side="left"), (4, 7)),
    (GroupScheme.blocked(6, 2, side="left"), (6, 9)),
    (GroupScheme.diagonal(5, 5, side="both"), (5, 5)),
    (GroupScheme.blocked(6, 3, 6, side="both", right_block_size=2), (6, 6)),
    (GroupScheme.full(4, side="left"), (4, 5)),
]


def directional_derivative(A, g, h, t=1e-5):
    up = evaluate(A, exp_action(g, h, t)).value
    dn = evaluate(A, exp_action(g, h, -t)).value
    return (up - dn) / (2 * t)


def second_derivative(A, g, h, t=1e-2):
    vals = [evaluate(A, exp_action(g, h, k * t)).value for k in (-2, -1, 0, 1, 2)]
    return (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * t * t)


def test_evaluate_identity_value():
    scheme = GroupScheme.diagonal(4, side="left")
    state = evaluate(np.eye(4), scheme.identity())
    assert state.value == pytest.approx(math.log(4.0), rel=1e-12)
    assert state.grad_norm <= 1e-14


def test_evaluate_matches_condition_frobenius(example1_matrix):
    scheme = GroupScheme.diagonal(3, side="left")
    state = evaluate(example1_matrix, scheme.identity())
    assert state.value == pytest.approx(math.log(condition_frobenius(example1_matrix)), rel=1e-12)
    assert state.kF == pytest.approx(condition_frobenius(example1_matrix), rel=1e-12)


def test_evaluate_coset_invariance():
    scheme = GroupScheme.full(4, 4, side="both")
    rng = rng_for(40)
    A = complex_gaussian(rng, (4, 4))
    g = random_element(rng, scheme)
    from geoprec.group import repolarize

    a = evaluate(A, g).value
    b = evaluate(A, repolarize(g)).value
    assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_gradient_hand_value_diag12():
    scheme = GroupScheme.diagonal(2, side="left")
    state = evaluate(np.diag([1.0, 2.0]), scheme.identity())
    assert np.allclose(state.grad.H1, np.diag([-0.6, 0.6]), atol=1e-12)


def test_gradient_zero_for_scaled_unitary():
    rng = rng_for(41)
    u = 2.3 * random_unitary(rng, 4)
    scheme = GroupScheme.full(4, side="left")
    assert evaluate(u, scheme.identity()).grad_norm <= 1e-12


def test_gradient_traceless():
    rng = rng_for(42)
    for scheme, shape in EXACT_CASES:
        A = complex_gaussian(rng, shape)
        g = random_element(rng, scheme)
        state = evaluate(A, g)
        tr = np.trace(state.grad.H1).real
        if state.grad.H2 is not None:
            tr += np.trace(state.grad.H2).real
        assert abs(tr) <= 1e-10


@pytest.mark.parametrize("case", range(len(EXACT_CASES)))
def test_gradient_finite_differences(case):
    scheme, shape = EXACT_CASES[case]
    rng = rng_for(43, case)
    A = complex_gaussian(rng, shape)
    g = random_element(rng, scheme, spread=0.3)
    state = evaluate(A, g)
    for _ in range(20):
        h = random_direction(rng, scheme, norm=1.0)
        fd = directional_derivative(A, g, h)
        an = np.trace(h.H1.conj().T @ state.grad.H1).real
        if h.H2 is not None:
            an += np.trace(h.H2.conj().T @ state.grad.H2).real
        assert abs(fd - an) <= 1e-6


def test_gradient_vanishes_iff_gram_matrices_project_equally():
    """At a critical point the two trace-normalized Gram matrices agree on the
    Lie algebra."""
    from geoprec.group import project_to_lie
    from geoprec.optimize import OptimizerConfig, minimize_condition

    rng = rng_for(44)
    A = complex_gaussian(rng, (4, 4))
    scheme = GroupScheme.diagonal(4, side="left")
    rep = minimize_condition(A, OptimizerConfig(scheme=scheme, target_eps=1e-9, max_iters=50_000))
    state = evaluate(A, rep.final_element)
    B, Bp = state.B, state.B_pinv
    lhs = project_to_lie(scheme, B @ B.conj().T / np.linalg.norm(B) ** 2).H1
    rhs = project_to_lie(scheme, Bp.conj().T @ Bp / np.linalg.norm(Bp) ** 2).H1
    assert np.linalg.norm(lhs - rhs) <= 1e-8


def test_hessian_zero_direction():
    scheme = GroupScheme.diagonal(3, side="left")
    rng = rng_for(45)
    state = evaluate(complex_gaussian(rng, (3, 3)), scheme.identity())
    z = LieDirection(scheme, np.zeros((3, 3)))
    assert hessian_quadratic_form(state, z) == 0.0


def test_hessian_nonnegative_sweep():
    rng = rng_for(46)
    for trial in range(100):
        scheme, shape = EXACT_CASES[trial % len(EXACT_CASES)]
        A = complex_gaussian(rng, shape)
        g = random_element(rng, scheme, spread=0.2)
        state = evaluate(A, g)
        h = random_direction(rng, scheme, norm=1.0)
        assert hessian_quadratic_form(state, h) >= -1e-9


@pytest.mark.parametrize("case", range(len(EXACT_CASES)))
def test_hessian_finite_differences(case):
    scheme, shape = EXACT_CASES[case]
    rng = rng_for(47, case)
    A = complex_gaussian(rng, shape)
    g = random_element(rng, scheme, spread=0.2)
    state = evaluate(A, g)
    for _ in range(20):
        h = random_direction(rng, scheme, norm=1.0)
        hq = hessian_quadratic_form(state, h)
        fd = second_derivative(A, g, h)
        assert abs(hq - fd) <= 1e-4 * max(abs(hq), abs(fd)) + 1e-9


def test_hessian_smoothness_bounds():
    rng = rng_for(48)
    for trial in range(100):
        scheme, shape = EXACT_CASES[trial % len(EXACT_CASES)]
        A = complex_gaussian(rng, shape)
        g = random_element(rng, scheme, spread=0.2)
        state = evaluate(A, g)
        h = random_direction(rng, scheme, norm=1.0)
        bound = 4.0 if scheme.side == "left" else 8.0
        assert hessian_quadratic_form(state, h) <= bound + 1e-6


def test_hessian_strong_convexity_left_traceless():
    rng = rng_for(49)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        A = complex_gaussian(rng, (n, n))
        scheme = GroupScheme.diagonal(n, side="left")
        state = evaluate(A, scheme.identity())
        h = random_direction(rng, scheme)
        H1 = h.H1 - np.trace(h.H1) / n * np.eye(n)
        h = LieDirection(scheme, H1)
        lower = 4.0 / state.kF**2 * h.norm**2
        assert hessian_quadratic_form(state, h) >= lower - 1e-8


def test_hessian_closed_form_left_case():
    """The tensor-identity value agrees with the trace formula in P = B B*."""
    rng = rng_for(50)
    A = complex_gaussian(rng, (4, 6))
    scheme = GroupScheme.full(4, side="left")
    g = random_element(rng, scheme, spread=0.3)
    state = evaluate(A, g)
    h = random_direction(rng, scheme, norm=1.0)
    P = state.B @ state.B.conj().T
    Pinv = np.linalg.inv(P)
    H = h.H1

    def pair(M):
        tm = np.trace(M).real
        return (np.trace(H @ H @ M).real / tm - (np.trace(H @ M).real / tm) ** 2)

    closed = 2.0 * (pair(P) + pair(Pinv))
    assert hessian_quadratic_form(state, h) == pytest.approx(closed, rel=1e-9)


def test_duality_gap_values():
    scheme = GroupScheme.diagonal(4, side="left")
    wd = weight_data(scheme)
    state = evaluate(np.eye(4), scheme.identity())
    assert duality_gap_bound(state, wd) == pytest.approx(0.0, abs=1e-12)

    # synthetic gradient norms via a crafted state
    class Fake:
        grad_norm = wd.weight_margin / 2

    assert duality_gap_bound(Fake, wd) == pytest.approx(0.5 * math.log(2.0), rel=1e-12)
    Fake.grad_norm = wd.weight_margin
    assert duality_gap_bound(Fake, wd) == math.inf


def test_geodesic_midpoint_convexity():
    rng = rng_for(51)
    for trial in range(10):
        scheme, shape = EXACT_CASES[trial % len(EXACT_CASES)]
        A = complex_gaussian(rng, shape)
        g = random_element(rng, scheme, spread=0.3)
        h = random_direction(rng, scheme, norm=1.0)
        ts = np.linspace(-1.0, 1.0, 11)
        vals = {t: evaluate(A, exp_action(g, h, t)).value for t in ts}
        for i, s in enumerate(ts):
            for t in ts[i:]:
                mid = 0.5 * (s + t)
                if mid in vals:
                    assert vals[mid] <= 0.5 * (vals[s] + vals[t]) + 1e-9


def test_cross_specializes_to_condition():
    rng = rng_for(52)
    A = complex_gaussian(rng, (4, 4))
    scheme = GroupScheme.diagonal(4, 4, side="both")
    g = random_element(rng, scheme)
    from geoprec.matrix import pseudoinverse

    sc = evaluate_cross(A, pseudoinverse(A), g)
    st = evaluate(A, g)
    assert sc.value == pytest.approx(st.value, rel=1e-10)
    assert np.allclose(sc.grad.H1, st.grad.H1, atol=1e-10)
    assert np.allclose(sc.grad.H2, st.grad.H2, atol=1e-10)


def test_rank_deficient_flagged():
    scheme = GroupScheme.diagonal(3, side="left")
    a = np.diag([1.0, 2.0, 0.0])
    state = evaluate(a, scheme.identity())
    assert state.rank_deficient
    assert math.isfinite(state.value)


def _reference_state(A, g):
    """The dense formula: full Gram products of B and of an explicit pseudoinverse,
    projected onto the Lie algebra."""
    from geoprec.group import apply, project_to_lie
    from geoprec.matrix import pseudoinverse

    sch = g.scheme
    B = apply(g, A)
    s = np.linalg.svd(B, full_matrices=False)[1]
    pos = s[s > max(B.shape) * np.finfo(float).eps * s[0]]
    Bp = pseudoinverse(B)
    nb2, nd2 = np.linalg.norm(B) ** 2, np.linalg.norm(Bp) ** 2
    P = B @ B.conj().T / nb2 - Bp.conj().T @ Bp / nd2
    Q = -B.conj().T @ B / nb2 + Bp @ Bp.conj().T / nd2
    grad = project_to_lie(sch, P) if sch.side == "left" else project_to_lie(sch, P, Q)
    kF = float(np.linalg.norm(s) * np.linalg.norm(1.0 / pos))
    return kF, float(s[0] / pos[-1]), len(pos) < min(B.shape), grad, Bp


def _rank_three(rng, m, n):
    return complex_gaussian(rng, (m, 3)) @ complex_gaussian(rng, (3, n))


@pytest.mark.parametrize("scheme,shape,rank_three", [
    (GroupScheme.diagonal(7, side="left"), (7, 7), False),
    (GroupScheme.blocked(6, 2, side="left"), (6, 6), False),
    (GroupScheme.blocked(7, 3, side="left"), (7, 9), False),
    (GroupScheme.blocked(6, 4, 7, side="both", right_block_size=3), (6, 7), False),
    (GroupScheme.diagonal(4, side="left"), (4, 7), False),
    (GroupScheme.blocked(6, 2, 6, side="both"), (6, 6), True),
], ids=["torus", "uniform-blocks", "ragged-tail", "two-sided", "wide", "rank-deficient"])
def test_evaluate_matches_dense_reference(scheme, shape, rank_three):
    rng = rng_for(53, *shape)
    A = _rank_three(rng, *shape) if rank_three else complex_gaussian(rng, shape)
    g = random_element(rng, scheme)
    state = evaluate(A, g)
    kF, kappa, rank_deficient, grad, Bp = _reference_state(A, g)
    assert state.kF == kF
    assert state.kappa == kappa
    assert state.rank_deficient == rank_deficient == rank_three
    ref_norm = grad.norm
    diff = np.linalg.norm(state.grad.H1 - grad.H1) ** 2
    if scheme.side == "both":
        diff += np.linalg.norm(state.grad.H2 - grad.H2) ** 2
    assert math.sqrt(diff) <= 1e-12 * ref_norm
    assert np.array_equal(state.B_pinv, Bp)


def test_evaluate_cross_kappa_uses_evaluate_cutoff():
    """A singular value above max(shape) eps sigma_max but below 1e-14 sigma_max
    counts for kappa in both objectives."""
    u, v = random_unitary(rng_for(54), 4), random_unitary(rng_for(55), 4)
    A = (u * np.array([1.0, 0.5, 0.25, 1e-15])) @ v
    scheme = GroupScheme.diagonal(4, 4, side="both")
    g = scheme.identity()
    cross = evaluate_cross(A, np.eye(4), g)
    assert cross.kappa == pytest.approx(evaluate(A, g).kappa, rel=1e-6)
    assert cross.kappa > 1e14


_LEFT, _BOTH = GroupScheme.blocked(3, 1, side="left"), GroupScheme.blocked(3, 1, 3, side="both")


@pytest.mark.parametrize("call,error", [
    (lambda: evaluate(np.zeros((3, 3)), _LEFT.identity()), ZeroMatrixError),
    (lambda: evaluate_cross(np.zeros((3, 3)), np.eye(3), _LEFT.identity()), ZeroMatrixError),
    (lambda: evaluate_cross(np.eye(3), np.zeros((3, 3)), _BOTH.identity()), ZeroMatrixError),
    (lambda: gram_factors(np.ones((3, 2)), np.ones((3, 2)), _LEFT), DimensionMismatchError),
], ids=["svd-path", "left-pair", "two-sided-pair", "pair-shapes"])
def test_objective_rejects_a_zero_matrix_and_unpaired_shapes(call, error):
    with pytest.raises(error):
        call()


def _field_gaussian(rng, shape, field):
    return complex_gaussian(rng, shape) if field == "complex" else rng.standard_normal(shape)


@st.composite
def _torus_pairs(draw, cross):
    """A two-sided torus on m x n, a random element of it and the pair it acts on.

    The element's entries have moduli exp(spread N(0, 1)), with random phases
    in the complex field.  Square: A = I + 0.3 G / sqrt(m), well conditioned
    so that the SVD reference stays accurate at the element, with its dense
    inverse.  Cross: a rectangular A and an independent second matrix."""
    m = draw(st.integers(2, 12))
    n = draw(st.integers(2, 12)) if cross else m
    field = draw(st.sampled_from(["real", "complex"]))
    spread = draw(st.floats(0.0, 0.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def entries(k):
        x = np.exp(spread * rng.standard_normal(k))
        return x * np.exp(2j * np.pi * rng.uniform(size=k)) if field == "complex" else x

    sch = GroupScheme.diagonal(m, n, side="both")
    g = GroupElement(sch, np.diag(entries(m)), np.diag(entries(n)))
    if cross:
        return sch, g, _field_gaussian(rng, (m, n), field), _field_gaussian(rng, (n, m), field)
    A = np.eye(m) + 0.3 * _field_gaussian(rng, (m, m), field) / math.sqrt(m)
    return sch, g, A, np.linalg.inv(A)


def _assert_torus_state(state, kF, grad, g, D):
    assert abs(state.value - math.log(kF)) <= 1e-13 * math.log(kF)
    assert abs(state.kF - kF) <= 1e-13 * kF
    diff = math.sqrt(np.linalg.norm(state.grad.H1 - grad.H1) ** 2
                     + np.linalg.norm(state.grad.H2 - grad.H2) ** 2)
    assert diff <= 1e-12 * grad.norm
    assert state.grad.H1.dtype == state.grad.H2.dtype == np.result_type(*g.left, *g.right)
    dense = g.Y @ D @ np.diag(1.0 / np.diag(g.X))  # Y D X^-1, formed densely
    assert np.linalg.norm(state.B_pinv - dense) <= 1e-14 * np.linalg.norm(dense)


_TORUS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@_TORUS
@given(_torus_pairs(cross=False))
def test_two_sided_torus_state_matches_the_dense_reference(inp):
    """A two-sided torus state read from the squared moduli of (A, A^-1) has
    the value, kF and gradient of the dense formula, and its lazy B_pinv is
    Y A^-1 X^-1."""
    sch, g, A, a_inv = inp
    kF, _, _, grad, _ = _reference_state(A, g)
    state = evaluate(A, g, a_inv)
    _assert_torus_state(state, kF, grad, g, a_inv)


@_TORUS
@given(_torus_pairs(cross=True))
def test_two_sided_torus_cross_state_matches_the_dense_reference(inp):
    """The same for a rectangular cross pair (A, C): value, kF and gradient of
    log ||X A Y^-1||_F + log ||Y C X^-1||_F formed densely."""
    sch, g, A, C = inp
    B, D = g.X @ A @ np.diag(1.0 / np.diag(g.Y)), g.Y @ C @ np.diag(1.0 / np.diag(g.X))
    nb2, nd2 = np.linalg.norm(B) ** 2, np.linalg.norm(D) ** 2
    grad = project_to_lie(sch, B @ B.conj().T / nb2 - D.conj().T @ D / nd2,
                          D @ D.conj().T / nd2 - B.conj().T @ B / nb2)
    state = evaluate_cross(A, C, g)
    _assert_torus_state(state, math.sqrt(nb2 * nd2), grad, g, C)
    assert np.array_equal(state.B, apply(g, A))


@pytest.mark.parametrize("side", ["left", "both"])
def test_evaluate_rejects_a_zero_torus_entry(side):
    """A zero entry of a torus element is a singular 1x1 block: evaluate names
    it, on the left route from Gram factors and on the two-sided route from
    squared moduli, for a zero in X and, two-sided, in Y."""
    A = np.eye(3) + 0.1 * np.arange(9.0).reshape(3, 3)
    sch = GroupScheme.diagonal(3, 3, side=side)
    zeros = [(np.diag([1.0, 0.0, 2.0]), None if side == "left" else np.eye(3))]
    if side == "both":
        zeros.append((np.eye(3), np.diag([1.0, 2.0, 0.0])))
    for (X, Y), at in zip(zeros, (1, 2)):
        g = GroupElement(sch, X, Y)
        factors = gram_factors(A, np.linalg.inv(A), sch)
        with pytest.raises(SingularBlockError, match=f"1x1 block at {at}"):
            evaluate(A, g, np.linalg.inv(A), factors)


def test_two_sided_torus_rejects_a_pair_of_the_wrong_width():
    """The squared moduli are read only for a pair of the scheme's shape: an
    A with more columns than Y has rows is rejected by name, as the actions
    reject it, not by a failing matvec."""
    sch = GroupScheme.diagonal(3, 3, side="both")
    with pytest.raises(DimensionMismatchError, match="3 rows and 3 columns"):
        evaluate(np.ones((3, 4)), sch.identity(float), np.ones((4, 3)))
    with pytest.raises(DimensionMismatchError):
        gram_factors(np.ones((3, 4)), np.ones((4, 3)), sch)


@st.composite
def _block_pairs(draw, cross):
    """A two-sided block scheme on m x n, a random element of it and the pair
    it acts on.

    Each side is a contiguous partition into blocks of 1 to 4 in any order,
    so runs are ragged and may end in 1x1 blocks; some block is larger than
    1x1, so the state takes the two actions.  Each block of the element is
    exp(spread N(0, 1)) (I + 0.3 G / sqrt(size)), neither Hermitian nor
    unitary.  Square: A = I + 0.3 G / sqrt(m) with its dense inverse.
    Cross: a rectangular A and an independent second matrix."""
    field = draw(st.sampled_from(["real", "complex"]))
    spread = draw(st.floats(0.0, 0.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = st.lists(st.integers(1, 4), min_size=1, max_size=5).map(tuple)
    left = draw(sizes)
    if cross:
        right = draw(sizes)
    else:
        m = sum(left)
        cuts = sorted(draw(st.sets(st.integers(1, m - 1), max_size=m - 1))) if m > 1 else []
        right = tuple(np.diff([0, *cuts, m]).tolist())
    assume(max(left + right) > 1)
    sch = GroupScheme("both", sum(left), sum(right), left, right)

    def side(blocks, size):
        out = np.zeros((size, size), dtype=complex if field == "complex" else float)
        for a, b in blocks:
            k = b - a
            out[a:b, a:b] = np.exp(spread * rng.standard_normal()) * (
                np.eye(k) + 0.3 * _field_gaussian(rng, (k, k), field) / math.sqrt(k))
        return out

    g = GroupElement(sch, side(sch.left_blocks, sch.m), side(sch.right_blocks, sch.n))
    m, n = sch.m, sch.n
    if cross:
        return sch, g, _field_gaussian(rng, (m, n), field), _field_gaussian(rng, (n, m), field)
    A = np.eye(m) + 0.3 * _field_gaussian(rng, (m, m), field) / math.sqrt(m)
    return sch, g, A, np.linalg.inv(A)


def _assert_pair_state(state, g, A, C):
    """state against the dense formula for B = X A Y^-1 and D = Y C X^-1."""
    sch = g.scheme
    B = g.X @ A @ np.linalg.inv(g.Y)
    D = g.Y @ C @ np.linalg.inv(g.X)
    nb2, nd2 = np.linalg.norm(B) ** 2, np.linalg.norm(D) ** 2
    grad = project_to_lie(sch, B @ B.conj().T / nb2 - D.conj().T @ D / nd2,
                          D @ D.conj().T / nd2 - B.conj().T @ B / nb2)
    kF = math.sqrt(nb2 * nd2)
    assert abs(state.value - math.log(kF)) <= 1e-12
    assert abs(state.kF - kF) <= 1e-12 * kF
    for got, ref in zip(state.grad.left + state.grad.right, grad.left + grad.right):
        assert got.dtype == np.result_type(*g.left, *g.right)
        assert np.linalg.norm(got - ref) <= 1e-12 * grad.norm
    assert np.linalg.norm(state.B - B) <= 1e-12 * np.linalg.norm(B)
    assert np.linalg.norm(state.B_pinv - D) <= 1e-12 * np.linalg.norm(D)


@_TORUS
@given(_block_pairs(cross=False))
def test_two_sided_block_state_matches_the_dense_reference(inp):
    """A two-sided block state of a square run, formed from the two actions on
    (A, A^-1), has the value, kF, gradient stacks, B and B_pinv of the dense
    formula, on ragged runs and 1x1 tails, real and complex."""
    sch, g, A, a_inv = inp
    _assert_pair_state(evaluate(A, g, a_inv), g, A, a_inv)


@_TORUS
@given(_block_pairs(cross=True))
def test_two_sided_block_cross_state_matches_the_dense_reference(inp):
    """The same for a rectangular cross pair (A, C) through evaluate_cross."""
    sch, g, A, C = inp
    _assert_pair_state(evaluate_cross(A, C, g), g, A, C)
