import math

import numpy as np
import pytest

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
