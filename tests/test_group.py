import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    block_hermitian,
    complex_gaussian,
    random_direction,
    random_element,
    random_unitary,
    rng_for,
)
from geoprec.errors import DimensionMismatchError, SingularBlockError
from geoprec.group import (
    GroupElement,
    GroupScheme,
    LieDirection,
    apply,
    apply_dual,
    exp_action,
    project_to_lie,
    repolarize,
    weight_data,
)
from geoprec.matrix import condition_frobenius


SCHEMES = [
    GroupScheme.diagonal(4, side="left"),
    GroupScheme.blocked(6, 2, side="left"),
    GroupScheme.diagonal(3, 5, side="both"),
    GroupScheme.blocked(6, 3, 4, side="both", right_block_size=2),
    GroupScheme.full(4, side="left"),
]


def test_scheme_validation():
    with pytest.raises(DimensionMismatchError):
        GroupScheme("left", 4, 4, (1, 2))  # sizes do not sum to m
    with pytest.raises(DimensionMismatchError):
        GroupScheme("both", 3, 3, (3,), None)  # missing right blocks
    with pytest.raises(ValueError):
        GroupScheme("sideways", 3, 3, (3,))


def test_blocked_partition_covers_ragged_tail():
    s = GroupScheme.blocked(7, 3, side="left")
    assert s.left_sizes == (3, 3, 1)


@pytest.mark.parametrize("kwargs", [
    {"block_size": 0},
    {"block_size": 2, "side": "both", "right_block_size": 0},
], ids=["left", "right"])
def test_blocked_rejects_block_size_below_one(kwargs):
    with pytest.raises(DimensionMismatchError):
        GroupScheme.blocked(4, **kwargs)


@pytest.mark.parametrize("scheme,shape", [
    (GroupScheme.diagonal(3, 5, side="both"), (3, 3)),  # rows must be n
    (GroupScheme.diagonal(3, 5, side="both"), (5, 5)),  # cols must be m
    (GroupScheme.blocked(4, 2, side="left"), (4, 3)),
], ids=["both-rows", "both-cols", "left-cols"])
def test_apply_dual_rejects_wrong_shape(scheme, shape):
    with pytest.raises(DimensionMismatchError):
        apply_dual(scheme.identity(), np.ones(shape))


@pytest.mark.parametrize("call,match", [
    (lambda: GroupScheme("left", 3, 3, (3,), (3,)), "must not carry right blocks"),
    (lambda: exp_action(GroupScheme.diagonal(3).identity(),
                        LieDirection(GroupScheme.full(3), np.eye(3)), 0.1), "schemes differ"),
    (lambda: project_to_lie(GroupScheme.diagonal(3, 3, side="both"), np.eye(3)), "needs M2"),
    (lambda: apply(GroupScheme.diagonal(3).identity(), np.ones((4, 3))), "4 rows"),
    (lambda: apply(GroupScheme.diagonal(3, 5, side="both").identity(), np.ones((3, 4))),
     "4 cols"),
], ids=["left-with-right-sizes", "exp-action-other-scheme", "project-without-M2",
        "apply-rows", "apply-two-sided-cols"])
def test_group_rejects_a_mismatched_argument(call, match):
    with pytest.raises(DimensionMismatchError, match=match):
        call()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_projection_idempotent(scheme):
    rng = rng_for(20, scheme.m, scheme.n)
    M1 = complex_gaussian(rng, (scheme.m, scheme.m))
    M2 = complex_gaussian(rng, (scheme.n, scheme.n)) if scheme.side == "both" else None
    p = project_to_lie(scheme, M1, M2)
    p2 = project_to_lie(scheme, p.H1, p.H2)
    assert np.allclose(p2.H1, p.H1, atol=1e-14)
    if scheme.side == "both":
        assert np.allclose(p2.H2, p.H2, atol=1e-14)


def test_projection_block_diag_hermitian_unchanged():
    scheme = GroupScheme.blocked(4, 2, side="left")
    rng = rng_for(21)
    H = block_hermitian(rng, scheme.left_blocks, 4)
    assert np.allclose(project_to_lie(scheme, H).H1, H, atol=1e-14)


def test_projection_diagonal_extraction():
    scheme = GroupScheme.diagonal(2, side="left")
    out = project_to_lie(scheme, np.array([[1.0, 5.0], [7.0, 2.0]]))
    assert np.allclose(out.H1, np.diag([1.0, 2.0]), atol=1e-14)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_projection_orthogonality(scheme):
    """The residual M - proj(M) is orthogonal to every Lie direction."""
    rng = rng_for(22, scheme.m)
    M1 = complex_gaussian(rng, (scheme.m, scheme.m))
    M2 = complex_gaussian(rng, (scheme.n, scheme.n)) if scheme.side == "both" else None
    p = project_to_lie(scheme, M1, M2)
    R1 = M1 - p.H1
    R2 = (M2 - p.H2) if scheme.side == "both" else None
    for _ in range(20):
        h = random_direction(rng, scheme)
        ip = np.trace(R1.conj().T @ h.H1).real
        if R2 is not None:
            ip += np.trace(R2.conj().T @ h.H2).real
        assert abs(ip) <= 1e-12 * max(1.0, h.norm)


def test_projection_self_adjoint():
    scheme = GroupScheme.blocked(5, 2, side="left")
    rng = rng_for(23)
    A = complex_gaussian(rng, (5, 5))
    B = complex_gaussian(rng, (5, 5))
    pa, pb = project_to_lie(scheme, A).H1, project_to_lie(scheme, B).H1
    lhs = np.trace(pa.conj().T @ B).real
    rhs = np.trace(A.conj().T @ pb).real
    assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_exp_action_zero_step(scheme):
    rng = rng_for(24, scheme.m)
    g = random_element(rng, scheme)
    h = random_direction(rng, scheme)
    out = exp_action(g, h, 0.0)
    assert np.allclose(out.X, g.X, atol=1e-14)


def test_exp_action_scalar():
    scheme = GroupScheme.diagonal(2, side="left")
    g = scheme.identity()
    h = LieDirection(scheme, np.diag([math.log(2.0), 0.0]))
    out = exp_action(g, h, 1.0)
    assert np.allclose(out.X, np.diag([2.0, 1.0]), atol=1e-14)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_exp_action_one_parameter_flow(scheme):
    rng = rng_for(25, scheme.m)
    g = random_element(rng, scheme)
    h = random_direction(rng, scheme)
    s, t = 0.3, -0.7
    a = exp_action(exp_action(g, h, s), h, t)
    b = exp_action(g, h, s + t)
    assert np.linalg.norm(a.X - b.X) <= 1e-10 * np.linalg.norm(b.X)
    if scheme.side == "both":
        assert np.linalg.norm(a.Y - b.Y) <= 1e-10 * np.linalg.norm(b.Y)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_exp_action_preserves_block_structure(scheme):
    rng = rng_for(26, scheme.m)
    g = random_element(rng, scheme)
    h = random_direction(rng, scheme)
    out = exp_action(g, h, 0.37)
    mask = np.ones((scheme.m, scheme.m), dtype=bool)
    for a, b in scheme.left_blocks:
        mask[a:b, a:b] = False
    assert np.all(out.X[mask] == 0)


def test_det_trace_identity():
    scheme = GroupScheme.blocked(6, 3, side="left")
    rng = rng_for(27)
    for _ in range(10):
        H = block_hermitian(rng, scheme.left_blocks, 6)
        out = exp_action(scheme.identity(), LieDirection(scheme, H), 1.0)
        det = np.linalg.det(out.X).real
        assert det == pytest.approx(math.exp(np.trace(H).real), rel=1e-8)


def test_apply_identity_and_row_scaling(example1_matrix):
    scheme = GroupScheme.diagonal(3, side="left")
    assert np.allclose(apply(scheme.identity(), example1_matrix), example1_matrix)
    g = GroupElement(scheme, np.diag([1 / 3, 1.0, 1.0]).astype(complex))
    out = apply(g, example1_matrix)
    assert np.allclose(out[0], example1_matrix[0] / 3)
    assert np.allclose(out[1:], example1_matrix[1:])


def test_apply_group_action_law():
    scheme = GroupScheme.blocked(4, 2, 4, side="both", right_block_size=2)
    rng = rng_for(28)
    A = complex_gaussian(rng, (4, 4))
    g1 = random_element(rng, scheme)
    g2 = random_element(rng, scheme)
    composed = GroupElement(scheme, g2.X @ g1.X, g2.Y @ g1.Y)
    lhs = apply(g2, apply(g1, A))
    rhs = apply(composed, A)
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)


@pytest.mark.parametrize("scheme", SCHEMES + [
    GroupScheme.blocked(7, 3, side="left"),
    GroupScheme.full(3, 4, side="both"),
])
def test_apply_matches_dense_product(scheme):
    """X A Y^-1 and Y B X^-1 computed block by block against dense products."""
    rng = rng_for(31, scheme.m, scheme.n)
    g = random_element(rng, scheme)
    A = complex_gaussian(rng, (scheme.m, scheme.n))
    Bsecond = complex_gaussian(rng, (scheme.n, scheme.m))
    Y = np.eye(scheme.n) if g.Y is None else g.Y
    dense = g.X @ A @ np.linalg.inv(Y)
    assert np.linalg.norm(apply(g, A) - dense) <= 1e-12 * np.linalg.norm(dense)
    dense_dual = Y @ Bsecond @ np.linalg.inv(g.X)
    assert np.linalg.norm(apply_dual(g, Bsecond) - dense_dual) <= 1e-12 * np.linalg.norm(dense_dual)


def test_apply_rejects_singular_blocks():
    A = np.ones((3, 3))
    torus = GroupScheme.diagonal(3, side="both")
    with pytest.raises(SingularBlockError, match="1x1 block at 1"):
        apply(GroupElement(torus, np.eye(3), np.diag([1.0, 0.0, 2.0])), A)
    blocks = GroupScheme.blocked(3, 2, side="both")
    with pytest.raises(SingularBlockError, match="rows 0:2"):
        apply(GroupElement(blocks, np.eye(3), np.diag([0.0, 0.0, 1.0])), A)


def test_repolarize_fixes_hpd_and_unitary():
    scheme = GroupScheme.full(3, side="left")
    rng = rng_for(29)
    hpd = random_element(rng, scheme)  # already Hermitian PD
    out = repolarize(hpd)
    assert np.linalg.norm(out.X - hpd.X) <= 1e-12 * np.linalg.norm(hpd.X)
    u = random_unitary(rng, 3)
    out = repolarize(GroupElement(scheme, u))
    assert np.linalg.norm(out.X - np.eye(3)) <= 1e-12


def test_repolarize_preserves_objective():
    scheme = GroupScheme.full(4, 4, side="both")
    rng = rng_for(30)
    A = complex_gaussian(rng, (4, 4))
    X = complex_gaussian(rng, (4, 4))  # generic invertible, not Hermitian
    Y = complex_gaussian(rng, (4, 4))
    g = GroupElement(scheme, X, Y)
    before = condition_frobenius(apply(g, A))
    after = condition_frobenius(apply(repolarize(g), A))
    assert abs(after - before) <= 1e-9 * before


def test_weight_data_values():
    left = weight_data(GroupScheme.diagonal(10, side="left"))
    assert left.weight_norm == pytest.approx(math.sqrt(2.0))
    assert left.weight_margin == pytest.approx(10.0**-1.5)
    both = weight_data(GroupScheme.diagonal(5, 5, side="both"))
    assert both.weight_norm == pytest.approx(2.0)
    assert both.weight_margin == pytest.approx(10.0**-1.5)
    tiny = weight_data(GroupScheme.diagonal(1, side="left"))
    assert tiny.weight_margin == pytest.approx(1.0)


def test_torus_paths_match_per_block_formulas():
    """Projection, exponential and polar factor on the torus against the 1x1-block formulas."""
    rng = rng_for(27)
    m = 40
    sch = GroupScheme.diagonal(m, side="left")
    M = complex_gaussian(rng, (m, m))
    ref = np.zeros((m, m), dtype=complex)
    for a in range(m):
        ref[a, a] = 0.5 * (M[a, a] + np.conj(M[a, a]))
    H = project_to_lie(sch, M)
    assert np.array_equal(H.H1, ref)

    step = -0.37
    e = np.array([np.exp(step * H.H1[a, a]) for a in range(m)])  # complex exp per block
    x = np.exp(2.0 * rng.standard_normal(m))
    flowed = exp_action(GroupElement(sch, np.diag(x)), H, step).X
    assert np.count_nonzero(flowed - np.diag(np.diagonal(flowed))) == 0
    np.testing.assert_allclose(np.diagonal(flowed), e * x, rtol=1e-15, atol=0)

    def polar_ref(X):
        out = np.zeros_like(X)
        for a in range(len(X)):
            blk = X[a:a + 1, a:a + 1]
            w, v = np.linalg.eigh(blk.conj().T @ blk)
            out[a:a + 1, a:a + 1] = (v * np.sqrt(w)) @ v.conj().T
        return out

    # positive diagonals, the elements a descent produces: bit for bit
    X = np.diag(np.exp(3.0 * rng.standard_normal(m))).astype(complex)
    assert np.array_equal(repolarize(GroupElement(sch, X)).X, polar_ref(X))
    # arbitrary phases: |x| against sqrt(|x|^2), one rounding apart
    X = X * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, m))
    np.testing.assert_allclose(repolarize(GroupElement(sch, X)).X, polar_ref(X),
                               rtol=1e-15, atol=0)


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_torus_polar_rejects_zero_square(zero):
    """The torus polar factor fails exactly when x is zero."""
    sch = GroupScheme.diagonal(3, side="left")
    g = GroupElement(sch, np.diag([1.0, zero, 2.0]))
    with pytest.raises(SingularBlockError):
        repolarize(g)
    assert repolarize(GroupElement(sch, np.diag([1.0, 1e-150, 2.0]))).X[1, 1] == 1e-150


@pytest.mark.parametrize("field", ["real", "complex"])
def test_torus_polar_of_a_tiny_entry_is_its_modulus(field):
    """|x|^2 underflows to zero for |x| = 1e-170, but x is not zero: its polar
    factor is |x|."""
    sch = GroupScheme.diagonal(2, side="left")
    X = np.diag([1e-170, 1.0]) * (np.exp(0.7j) if field == "complex" else 1.0)
    P = repolarize(GroupElement(sch, X)).X
    assert P.dtype == X.dtype
    assert np.array_equal(P, np.abs(X).astype(X.dtype))


@pytest.mark.parametrize("field", ["real", "complex"])
def test_polar_resolves_blocks_beyond_the_eigh_range(field):
    """A 4x4 block of condition number 1e11 is far beyond the (4 eps)^-1/2 that
    an eigh of X* X resolves; its polar factor comes from the SVD instead, as
    accurate as scipy's.  A block with sigma_min <= 4 eps sigma_max is singular."""
    rng = rng_for(44, field == "real")
    sch = GroupScheme.blocked(8, 4, side="left")

    def unitary():
        return random_unitary(rng, 4) if field == "complex" else \
            np.linalg.qr(rng.standard_normal((4, 4)))[0]

    def block(svals):
        return (unitary() * np.asarray(svals)) @ unitary().conj().T

    X = np.zeros((8, 8), dtype=complex if field == "complex" else float)
    X[:4, :4] = block([3.0, 2.0, 1.5, 1.0])
    X[4:, 4:] = block([1.0, 0.5, 1e-6, 1e-11])
    P = repolarize(GroupElement(sch, X)).X
    ref = sla.polar(X, side="right")[1]
    assert P.dtype == X.dtype
    assert np.linalg.norm(P - ref) <= 1e-14 * np.linalg.norm(ref)
    X[4:, 4:] = block([1.0, 0.5, 1e-6, 1e-17])
    with pytest.raises(SingularBlockError, match="rows 4:8"):
        repolarize(GroupElement(sch, X))


@st.composite
def _schemes(draw):
    """Random contiguous partitions: ragged, mixed sizes, one- and two-sided."""
    sizes = st.lists(st.integers(1, 4), min_size=1, max_size=5).map(tuple)
    left = draw(sizes)
    if draw(st.booleans()):
        right = draw(sizes)
        return GroupScheme("both", sum(left), sum(right), left, right)
    return GroupScheme("left", sum(left), draw(st.integers(1, 6)), left)


def _mask(blocks, size):
    out = np.zeros((size, size), dtype=bool)
    for a, b in blocks:
        out[a:b, a:b] = True
    return out


def _close(x, ref):
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@_PROPERTY
@given(_schemes(), st.integers(0, 2**16))
def test_block_storage_round_trips_dense(scheme, seed):
    rng = rng_for(40, seed)
    X = complex_gaussian(rng, (scheme.m, scheme.m)) * _mask(scheme.left_blocks, scheme.m)
    Y = None
    if scheme.side == "both":
        Y = complex_gaussian(rng, (scheme.n, scheme.n)) * _mask(scheme.right_blocks, scheme.n)
    g = GroupElement(scheme, X, Y)
    assert np.array_equal(g.X, X)
    assert [S.shape for S in g.left] == [(r.count, r.size, r.size) for r in scheme.left_runs]
    h = LieDirection(scheme, X, Y)
    assert np.array_equal(h.H1, X)
    if Y is not None:
        assert np.array_equal(g.Y, Y) and np.array_equal(h.H2, Y)
    assert not g.X.flags.writeable


@_PROPERTY
@given(_schemes(), st.integers(0, 2**16))
def test_dense_entries_outside_the_pattern_raise(scheme, seed):
    outside = np.argwhere(~_mask(scheme.left_blocks, scheme.m))
    assume(len(outside))
    rng = rng_for(41, seed)
    X = np.eye(scheme.m, dtype=complex)
    X[tuple(outside[rng.integers(len(outside))])] = 1e-300
    with pytest.raises(DimensionMismatchError, match="outside the block pattern"):
        GroupElement(scheme, X)
    with pytest.raises(DimensionMismatchError, match="outside the block pattern"):
        LieDirection(scheme, X)


@_PROPERTY
@given(_schemes(), st.integers(0, 2**16))
def test_group_operations_match_dense_references(scheme, seed):
    """Stacked operations against dense formulas on the block-diagonal matrices."""
    rng = rng_for(42, seed)
    m, n = scheme.m, scheme.n
    masks = [_mask(scheme.left_blocks, m)]
    M = [complex_gaussian(rng, (m, m))]
    if scheme.side == "both":
        masks.append(_mask(scheme.right_blocks, n))
        M.append(complex_gaussian(rng, (n, n)))
    h = project_to_lie(scheme, *M)
    dense_h = [h.H1] + ([h.H2] if scheme.side == "both" else [])
    for got, mat, mask in zip(dense_h, M, masks):
        assert np.array_equal(got, np.where(mask, 0.5 * (mat + mat.conj().T), 0))

    g = random_element(rng, scheme)
    flowed = exp_action(g, h, -0.3)
    _close(flowed.X, sla.expm(-0.3 * h.H1) @ g.X)
    if scheme.side == "both":
        _close(flowed.Y, sla.expm(-0.3 * h.H2) @ g.Y)

    # generic, well-conditioned block-diagonal elements, far from Hermitian
    gen = [mat * mask + 6.0 * np.eye(len(mat)) for mat, mask in zip(M, masks)]
    pol = repolarize(GroupElement(scheme, *gen))
    _close(pol.X, sla.polar(gen[0], side="right")[1])
    if scheme.side == "both":
        _close(pol.Y, sla.polar(gen[1], side="right")[1])

    A = complex_gaussian(rng, (m, n))
    Bsecond = complex_gaussian(rng, (n, m))
    Y = g.Y if scheme.side == "both" else np.eye(n)
    _close(apply(g, A), g.X @ A @ np.linalg.inv(Y))
    _close(apply_dual(g, Bsecond), Y @ Bsecond @ np.linalg.inv(g.X))


def test_torus_step_allocates_no_dense_matrix():
    """A left-torus step at m=1000 keeps O(m) memory: no m x m array is formed."""
    m = 1000
    sch = GroupScheme.diagonal(m, side="left")
    M = complex_gaussian(rng_for(43), (m, m))  # 16 MB, allocated before tracing
    tracemalloc.start()
    try:
        g = repolarize(exp_action(sch.identity(), project_to_lie(sch, M), -0.1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    np.testing.assert_allclose(g.left[0].ravel(), np.exp(-0.1 * np.diagonal(M).real),
                               rtol=1e-15, atol=0)
