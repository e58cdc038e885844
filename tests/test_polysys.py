import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import complex_gaussian, random_unitary, rng_for
from geoprec.errors import (
    DimensionMismatchError,
    ExpansionOverflowError,
    ZeroCoordinateError,
)
from geoprec.group import GroupElement, GroupScheme
from geoprec.optimize import OptimizerConfig, Termination
from geoprec.polysys import (
    PolynomialSystem,
    TorusPoint,
    _full_objective_state,
    bw_inner,
    bw_norm_system,
    change_variables,
    evaluate_system,
    gram_matrix,
    gram_sqrt,
    local_condition,
    polysys_lie_derivative,
    precondition_full,
    precondition_shuffle,
    precondition_sparse,
    shuffle,
    torus_objective,
    torus_penalty,
    torus_penalty_gradient,
    torus_rescale,
)


@pytest.fixture
def example2_system():
    """Two quadratics in two variables with a simple root at the origin."""
    return PolynomialSystem.from_polys(2, [
        {(2, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0},
        {(0, 2): 1.0, (1, 0): 1.0, (0, 1): -1.0},
    ])


def random_system(rng, m, n, deg, density=1.0):
    monos = [a for a in product(range(deg + 1), repeat=n) if sum(a) <= deg]
    polys = []
    for _ in range(m):
        p = {}
        for a in monos:
            if rng.uniform() <= density:
                p[a] = complex(rng.standard_normal(), rng.standard_normal())
        if not p:
            p[monos[0]] = 1.0 + 0.0j
        polys.append(p)
    return PolynomialSystem.from_polys(n, polys, degrees=[deg] * m)


def test_bw_inner_monomials():
    x2 = {(2, 0): 1.0}
    xy = {(1, 1): 1.0}
    y2 = {(0, 2): 1.0}
    assert bw_inner(x2, x2) == pytest.approx(1.0)
    assert bw_inner(xy, xy) == pytest.approx(0.5)
    assert bw_inner(x2, y2) == 0.0


def test_bw_norm_example(example2_system):
    assert bw_norm_system(example2_system) == pytest.approx(math.sqrt(6.0), rel=1e-12)


def test_bw_norm_zero_system():
    z = PolynomialSystem(2, (1,), ({},))
    assert bw_norm_system(z) == 0.0


def test_bw_norm_unitary_invariance():
    rng = rng_for(80)
    f = random_system(rng, 3, 2, 3)
    u = random_unitary(rng, 2)
    fu = change_variables(u, f)
    assert bw_norm_system(fu) == pytest.approx(bw_norm_system(f), rel=1e-9)


def test_evaluate_example(example2_system):
    ep = evaluate_system(example2_system, [0.0, 0.0])
    assert np.allclose(ep.values, 0.0)
    assert np.allclose(ep.jacobian, [[1.0, 1.0], [1.0, -1.0]])


def test_evaluate_constant_system():
    f = PolynomialSystem.from_polys(2, [{(0, 0): 3.0}])
    ep = evaluate_system(f, [1.0, 2.0])
    assert ep.values[0] == pytest.approx(3.0)
    assert np.allclose(ep.jacobian, 0.0)


def test_jacobian_matches_finite_differences():
    rng = rng_for(81)
    f = random_system(rng, 3, 3, 3, density=0.6)
    xi = complex_gaussian(rng, 3)
    jac = evaluate_system(f, xi).jacobian
    h = 1e-6
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        fd = (evaluate_system(f, xi + e).values - evaluate_system(f, xi - e).values) / (2 * h)
        assert np.linalg.norm(fd - jac[:, k]) <= 1e-6 * max(1.0, np.linalg.norm(jac[:, k]))


def test_local_condition_example(example2_system):
    assert local_condition(example2_system, [0, 0], "operator") == pytest.approx(
        math.sqrt(3.0), abs=1e-9
    )
    assert local_condition(example2_system, [0, 0], "frobenius") == pytest.approx(
        math.sqrt(6.0), abs=1e-9
    )


def test_local_condition_ijs_both_conventions(example2_system):
    """Inverse-Jacobian scaling of the worked example: sqrt(3) under the
    operator norm and sqrt(6) under the Frobenius norm (identical to the
    original system; the scaling is a rotation times 1/sqrt(2) here)."""
    jac = evaluate_system(example2_system, [0, 0]).jacobian
    ijs = shuffle(np.linalg.inv(jac), example2_system)
    assert local_condition(ijs, [0, 0], "operator") == pytest.approx(math.sqrt(3.0), abs=1e-9)
    assert local_condition(ijs, [0, 0], "frobenius") == pytest.approx(math.sqrt(6.0), abs=1e-9)


def test_local_condition_rejects_an_unknown_norm(example2_system):
    with pytest.raises(ValueError, match="unknown norm"):
        local_condition(example2_system, [0, 0], "nuclear")


def test_local_condition_identity_jacobian():
    f = PolynomialSystem.from_polys(2, [{(1, 0): 1.0}, {(0, 1): 1.0}])
    assert local_condition(f, [0.3, -0.2], "frobenius") == pytest.approx(2.0, rel=1e-12)


def test_shuffle_identity_and_permutation(example2_system):
    f = example2_system
    assert shuffle(np.eye(2), f).polynomials == f.polynomials
    perm = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert shuffle(perm, f).polynomials == (f.polynomials[1], f.polynomials[0])


def test_shuffle_ijs_example(example2_system):
    jac = evaluate_system(example2_system, [0, 0]).jacobian
    out = shuffle(np.linalg.inv(jac), example2_system)
    assert out.polynomials[0] == {(2, 0): 0.5, (0, 2): 0.5, (1, 0): 1.0}
    assert out.polynomials[1] == {(2, 0): 0.5, (0, 2): -0.5, (0, 1): 1.0}


def test_shuffle_preserves_roots():
    rng = rng_for(82)
    f = random_system(rng, 2, 2, 2)
    # force a root at xi by zeroing the constant term
    xi = complex_gaussian(rng, 2)
    vals = evaluate_system(f, xi).values
    polys = [dict(p) for p in f.polynomials]
    for p, v in zip(polys, vals):
        p[(0, 0)] = p.get((0, 0), 0.0) - v
    f = PolynomialSystem.from_polys(2, polys)
    X = complex_gaussian(rng, (2, 2))
    out = evaluate_system(shuffle(X, f), xi).values
    scale = np.linalg.norm(X) * bw_norm_system(f)
    assert np.linalg.norm(out) <= 1e-10 * scale


def test_change_variables_identity_and_scaling():
    f = PolynomialSystem.from_polys(1, [{(2,): 1.0}])
    assert change_variables(np.eye(1), f).polynomials == f.polynomials
    out = change_variables(2.0 * np.eye(1), f)
    assert out.polynomials[0] == {(2,): 0.25}


def test_change_variables_jacobian_identity():
    rng = rng_for(83)
    f = random_system(rng, 2, 2, 2)
    X = complex_gaussian(rng, (2, 2))
    Y = complex_gaussian(rng, (2, 2))
    xi = complex_gaussian(rng, 2)
    g = shuffle(X, change_variables(Y, f))
    lhs = evaluate_system(g, Y @ xi).jacobian
    rhs = X @ evaluate_system(f, xi).jacobian @ np.linalg.inv(Y)
    assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)


def test_change_variables_expansion_cap():
    f = PolynomialSystem.from_polys(3, [{(4, 4, 4): 1.0}])
    with pytest.raises(ExpansionOverflowError):
        change_variables(np.ones((3, 3)) + np.eye(3), f, cap=50)
    # 66 monomials of degree <= 10 in 2 variables, but a 2^10-entry degree-10 tensor
    f = PolynomialSystem.from_polys(2, [{(5, 5): 1.0}])
    with pytest.raises(ExpansionOverflowError):
        change_variables(np.eye(2), f, cap=100)
    assert change_variables(np.eye(2), f, cap=1024).polynomials == f.polynomials


def test_gram_sqrt_orthonormal(example2_system):
    # the two worked-example equations have equal norm sqrt(3) and are
    # orthogonal, so the Gram square root is sqrt(3) I
    S = gram_sqrt(example2_system)
    assert np.allclose(S, math.sqrt(3.0) * np.eye(2), atol=1e-12)


def test_gram_sqrt_rank_one():
    f = PolynomialSystem.from_polys(1, [{(1,): 1.0}, {(1,): 1.0}])
    G = gram_matrix(f)
    assert np.allclose(G, np.ones((2, 2)))
    S = gram_sqrt(f)
    assert np.allclose(S, np.ones((2, 2)) / math.sqrt(2.0), atol=1e-12)
    assert np.linalg.norm(S) == pytest.approx(bw_norm_system(f), rel=1e-10)


def test_gram_sqrt_shuffle_covariance():
    rng = rng_for(84)
    f = random_system(rng, 3, 2, 2)
    X = complex_gaussian(rng, (3, 3))
    lhs = np.linalg.norm(X @ gram_sqrt(f))
    rhs = bw_norm_system(shuffle(X, f))
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_reduction_identity():
    """mu_F(X . f, xi) factors through the Gram square root for full-row-rank
    Jacobians."""
    rng = rng_for(85)
    for _ in range(50):
        f = random_system(rng, 2, 2, 2)
        xi = complex_gaussian(rng, 2)
        X = complex_gaussian(rng, (2, 2))
        S = gram_sqrt(f)
        Dp = np.linalg.pinv(evaluate_system(f, xi).jacobian)
        lhs = local_condition(shuffle(X, f), xi, "frobenius")
        rhs = np.linalg.norm(X @ S) * np.linalg.norm(Dp @ np.linalg.inv(X))
        assert abs(lhs - rhs) <= 1e-9 * rhs


def test_lie_derivative_identity_shuffle():
    rng = rng_for(86)
    f = random_system(rng, 2, 2, 2)
    out = polysys_lie_derivative(f, np.eye(2), np.zeros((2, 2)))
    assert out.polynomials == f.polynomials


def test_lie_derivative_euler():
    f = PolynomialSystem.from_polys(1, [{(2,): 1.0}])
    out = polysys_lie_derivative(f, np.zeros((1, 1)), np.eye(1))
    assert out.polynomials[0] == {(2,): -2.0}


def test_lie_derivative_finite_differences():
    rng = rng_for(87)
    f = random_system(rng, 2, 2, 2, density=0.8)
    H1 = complex_gaussian(rng, (2, 2))
    H1 = 0.5 * (H1 + H1.conj().T)
    H2 = complex_gaussian(rng, (2, 2))
    H2 = 0.5 * (H2 + H2.conj().T)
    ld = polysys_lie_derivative(f, H1, H2)
    t = 1e-6
    fp = shuffle(sla.expm(t * H1), change_variables(sla.expm(t * H2), f))
    fm = shuffle(sla.expm(-t * H1), change_variables(sla.expm(-t * H2), f))
    for i in range(2):
        keys = set(ld.polynomials[i]) | set(fp.polynomials[i]) | set(fm.polynomials[i])
        for a in keys:
            fd = (fp.polynomials[i].get(a, 0) - fm.polynomials[i].get(a, 0)) / (2 * t)
            assert abs(fd - ld.polynomials[i].get(a, 0)) <= 1e-6


def test_lie_derivative_builds_no_dense_basis_operator():
    """A cubic in 16 variables has K = 969 basis monomials; a dense K x K complex
    operator alone would take 15 MB, where each of the 16 x 16^3 complex
    tensors that the contractions hold takes 1 MB."""
    n = 16
    e = np.eye(n, dtype=int)
    f = PolynomialSystem.from_polys(n, [{tuple(3 * e[i]): 1.0, tuple(e[(i + 1) % n]): 2.0}
                                        for i in range(n)])
    rng = rng_for(90)
    H1, H2 = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    want = polysys_lie_derivative(f, H1, H2)  # warms the basis and tensor caches
    tracemalloc.start()
    try:
        got = polysys_lie_derivative(f, H1, H2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5e6
    assert np.array_equal(got.coeffs, want.coeffs)


def test_full_state_holds_a_few_tensors_at_a_time():
    """16 cubics in 16 variables: one full state holds a few 16 x 16^3 complex
    tensors, 1 MB each, where one m x (number of shifts) temporary over the
    39,168 shifts of the full basis would take 10 MB."""
    n = 16
    e = np.eye(n, dtype=int)
    f = PolynomialSystem.from_polys(n, [{tuple(3 * e[i]): 1.0, tuple(e[(i + 1) % n]): 2.0}
                                        for i in range(n)])
    rng = rng_for(91)
    X, Y = (np.eye(n) + 0.1 * rng.standard_normal((n, n)) for _ in range(2))
    g = GroupElement(GroupScheme.full(n, n, side="both"), X, Y)
    Dp = rng.standard_normal((n, n))
    want = _full_objective_state(f, Dp, g)  # warms the basis and tensor caches
    tracemalloc.start()
    try:
        got = _full_objective_state(f, Dp, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6
    assert got[0] == want[0] and got[2] == want[2]
    assert all(np.array_equal(a, b) for a, b in zip(got[1].left + got[1].right,
                                                    want[1].left + want[1].right))


def test_substituted_tensors_evaluate_to_f_of_y_inverse_x():
    """Degree d's tensor, contracted with x on all d axes and summed over d,
    is f(Y^-1 x)."""
    from geoprec.polysys import _substituted_tensors

    rng = rng_for(93)
    f = random_system(rng, 2, 3, 3, density=0.7)
    Y = complex_gaussian(rng, (3, 3))
    x = complex_gaussian(rng, 3)
    _, tensors = _substituted_tensors(Y, f)
    powers = [np.ones(1, dtype=complex)]
    for _ in tensors[1:]:
        powers.append(np.kron(powers[-1], x))
    got = sum(T @ p for T, p in zip(tensors, powers))
    want = evaluate_system(f, np.linalg.solve(Y, x)).values
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_full_state_builds_no_system_and_calls_no_change_of_variables(monkeypatch):
    """A full state reads its Gram matrix and side form off the tensors: it
    builds no PolynomialSystem and calls neither change_variables nor
    gram_matrix, and its value is still log ||(X, Y) . f||_W ||Y D^+ X^-1||_F."""
    import geoprec.polysys

    rng = rng_for(94)
    f = random_system(rng, 2, 2, 3)
    Dp = np.linalg.pinv(evaluate_system(f, complex_gaussian(rng, 2)).jacobian)
    X, Y = complex_gaussian(rng, (2, 2)), complex_gaussian(rng, (2, 2))
    g = GroupElement(GroupScheme.full(2, 2, side="both"), X, Y)
    want = math.log(bw_norm_system(shuffle(X, change_variables(Y, f)))
                    * np.linalg.norm(Y @ Dp @ np.linalg.inv(X)))

    def forbidden(*args, **kwargs):
        raise AssertionError("a full state must not build a system")

    for name in ("change_variables", "gram_matrix"):
        monkeypatch.setattr(geoprec.polysys, name, forbidden)
    monkeypatch.setattr(PolynomialSystem, "_from_arrays", classmethod(forbidden))
    value, _, _ = _full_objective_state(f, Dp, g)
    assert value == pytest.approx(want, rel=1e-12)


def test_precondition_shuffle_rejects_a_config_of_another_scheme(example2_system):
    cfg = OptimizerConfig(scheme=GroupScheme.diagonal(2), max_iters=5)
    with pytest.raises(DimensionMismatchError):
        precondition_shuffle(example2_system, [0.0, 0.0], GroupScheme.full(2), cfg)


def test_precondition_full_rejects_a_config_of_another_scheme(example2_system):
    cfg = OptimizerConfig(scheme=GroupScheme.full(2), max_iters=5)
    with pytest.raises(DimensionMismatchError):
        precondition_full(example2_system, [0.0, 0.0], GroupScheme.full(2, 2, side="both"), cfg)


def test_precondition_shuffle_stationary_at_orthonormal_unitary_jacobian():
    # orthonormal equations with a scaled-unitary Jacobian: identity optimal
    f = PolynomialSystem.from_polys(2, [{(1, 0): 1.0}, {(0, 1): 1.0}])
    sch = GroupScheme.full(2, side="left")
    cfg = OptimizerConfig(scheme=sch, target_eps=1e-6, max_iters=50)
    _, rep = precondition_shuffle(f, [0.0, 0.0], sch, cfg)
    assert rep.iterations[0].grad_norm <= 1e-12
    assert rep.iteration_count == 0


def test_precondition_shuffle_example2(example2_system):
    f = example2_system
    sch = GroupScheme.full(2, side="left")
    cfg = OptimizerConfig(scheme=sch, target_eps=1e-4, max_iters=2000)
    X_el, rep = precondition_shuffle(f, [0.0, 0.0], sch, cfg)
    mu0 = local_condition(f, [0, 0], "frobenius")
    jac = evaluate_system(f, [0, 0]).jacobian
    mu_ijs = local_condition(shuffle(np.linalg.inv(jac), f), [0, 0], "frobenius")
    mu_final = local_condition(shuffle(X_el.X, f), [0, 0], "frobenius")
    assert mu_final <= mu0 + 1e-9
    assert mu_final <= mu_ijs + 1e-9
    # the tracked cross condition is exactly the local condition number
    assert rep.final_kF == pytest.approx(mu_final, rel=1e-8)


def test_precondition_shuffle_random_descent():
    rng = rng_for(88)
    f = random_system(rng, 3, 3, 2, density=0.7)
    xi = complex_gaussian(rng, 3)
    sch = GroupScheme.full(3, side="left")
    cfg = OptimizerConfig(scheme=sch, target_eps=1e-2, max_iters=5000)
    _, rep = precondition_shuffle(f, xi, sch, cfg)
    vals = [r.value for r in rep.iterations]
    assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(len(vals) - 1))
    assert rep.termination is Termination.CERTIFIED
    assert rep.certificate <= 1e-2


def test_precondition_full_stationary_case():
    f = PolynomialSystem.from_polys(2, [{(1, 0): 1.0}, {(0, 1): 1.0}])
    sch = GroupScheme.full(2, 2, side="both")
    cfg = OptimizerConfig(scheme=sch, target_eps=1e-6, max_iters=50)
    _, rep = precondition_full(f, [0.0, 0.0], sch, cfg)
    assert rep.iterations[0].grad_norm <= 1e-12


def test_precondition_full_beats_shuffle_only():
    rng = rng_for(89)
    f = random_system(rng, 2, 2, 2)
    xi = complex_gaussian(rng, 2)
    schS = GroupScheme.full(2, side="left")
    cfgS = OptimizerConfig(scheme=schS, target_eps=1e-3, max_iters=5000)
    _, repS = precondition_shuffle(f, xi, schS, cfgS)
    schF = GroupScheme.full(2, 2, side="both")
    cfgF = OptimizerConfig(scheme=schF, target_eps=1e-3, max_iters=5000)
    _, repF = precondition_full(f, xi, schF, cfgF)
    vals = [r.value for r in repF.iterations]
    assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(len(vals) - 1))
    assert repF.final_kF <= repS.final_kF + 1e-8


def test_precondition_full_gradient_finite_differences():
    from geoprec.polysys import _full_objective_state
    from geoprec.group import GroupElement

    rng = rng_for(90)
    f = random_system(rng, 2, 2, 2)
    xi = complex_gaussian(rng, 2)
    Dp = np.linalg.pinv(evaluate_system(f, xi).jacobian)
    sch = GroupScheme.full(2, 2, side="both")
    X = sla.expm(0.3 * (lambda M: 0.5 * (M + M.conj().T))(complex_gaussian(rng, (2, 2))))
    Y = sla.expm(0.3 * (lambda M: 0.5 * (M + M.conj().T))(complex_gaussian(rng, (2, 2))))
    g = GroupElement(sch, X, Y)
    value, grad, _ = _full_objective_state(f, Dp, g)
    for _ in range(20):
        K1 = complex_gaussian(rng, (2, 2))
        K1 = 0.5 * (K1 + K1.conj().T)
        K2 = complex_gaussian(rng, (2, 2))
        K2 = 0.5 * (K2 + K2.conj().T)
        t = 1e-5
        gp = GroupElement(sch, sla.expm(t * K1) @ X, sla.expm(t * K2) @ Y)
        gm = GroupElement(sch, sla.expm(-t * K1) @ X, sla.expm(-t * K2) @ Y)
        fd = (_full_objective_state(f, Dp, gp)[0] - _full_objective_state(f, Dp, gm)[0]) / (2 * t)
        an = np.trace(K1 @ grad.H1).real + np.trace(K2 @ grad.H2).real
        scale = max(1.0, abs(fd))
        assert abs(fd - an) <= 1e-5 * scale


def test_full_objective_geodesic_convexity():
    from geoprec.polysys import _full_objective_state
    from geoprec.group import GroupElement

    rng = rng_for(91)
    f = random_system(rng, 2, 2, 2)
    xi = complex_gaussian(rng, 2)
    Dp = np.linalg.pinv(evaluate_system(f, xi).jacobian)
    sch = GroupScheme.full(2, 2, side="both")
    for _ in range(20):
        K1 = complex_gaussian(rng, (2, 2))
        K1 = 0.5 * (K1 + K1.conj().T)
        K2 = complex_gaussian(rng, (2, 2))
        K2 = 0.5 * (K2 + K2.conj().T)
        ts = np.linspace(-1.0, 1.0, 11)
        vals = {}
        for t in ts:
            g = GroupElement(sch, sla.expm(t * K1), sla.expm(t * K2))
            vals[t] = _full_objective_state(f, Dp, g)[0]
        for i, s in enumerate(ts):
            for t in ts[i:]:
                mid = 0.5 * (s + t)
                if mid in vals:
                    assert vals[mid] <= 0.5 * (vals[s] + vals[t]) + 1e-9


def test_mu_unitary_invariance():
    rng = rng_for(92)
    f = random_system(rng, 2, 2, 2)
    xi = complex_gaussian(rng, 2)
    u1, u2 = random_unitary(rng, 2), random_unitary(rng, 2)
    fu = shuffle(u1, change_variables(u2, f))
    lhs = local_condition(fu, u2 @ xi, "frobenius")
    rhs = local_condition(f, xi, "frobenius")
    assert abs(lhs - rhs) <= 1e-8 * rhs


def test_torus_penalty_uniform():
    assert torus_penalty([1.0, 1.0, 1.0], TorusPoint(np.ones(3))) == pytest.approx(math.log(3.0))


def test_torus_penalty_minimizer_balances():
    import scipy.optimize as sopt

    rng = rng_for(93)
    xi = complex_gaussian(rng, 2) + 2.0
    res = sopt.minimize(
        lambda u: torus_penalty(xi, TorusPoint(np.exp(u))),
        np.zeros(2),
        jac=lambda u: torus_penalty_gradient(xi, TorusPoint(np.exp(u))),
        method="L-BFGS-B",
        tol=1e-14,
    )
    r = np.abs(xi) / np.exp(res.x)
    assert r.max() / r.min() - 1.0 <= 1e-6


def test_torus_penalty_gradient_finite_differences():
    rng = rng_for(94)
    xi = complex_gaussian(rng, 3)
    t = TorusPoint(np.exp(rng.normal(0, 0.5, 3)))
    g = torus_penalty_gradient(xi, t)
    h = 1e-6
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        fd = (torus_penalty(xi, TorusPoint(t.t * np.exp(e)))
              - torus_penalty(xi, TorusPoint(t.t * np.exp(-e)))) / (2 * h)
        assert abs(fd - g[k]) <= 1e-7


def test_torus_penalty_midpoint_convexity():
    rng = rng_for(95)
    xi = complex_gaussian(rng, 3)
    t = TorusPoint(np.exp(rng.normal(0, 0.3, 3)))
    v = rng.standard_normal(3)
    phi = lambda s: torus_penalty(xi, TorusPoint(t.t * np.exp(s * v)))
    ss = np.linspace(-1, 1, 9)
    for i, a in enumerate(ss):
        for b in ss[i:]:
            mid = 0.5 * (a + b)
            if mid in ss:
                assert phi(mid) <= 0.5 * (phi(a) + phi(b)) + 1e-9


def test_torus_rescale_preserves_support():
    rng = rng_for(96)
    f = random_system(rng, 2, 3, 3, density=0.3)
    t = TorusPoint(np.exp(rng.normal(0, 1, 3)))
    out = torus_rescale(t, f)
    for p, q in zip(f.polynomials, out.polynomials):
        assert set(p) == set(q)


def test_torus_rescale_moves_root():
    f = PolynomialSystem.from_polys(2, [{(1, 0): 1.0, (0, 0): -2.0},
                                        {(0, 1): 1.0, (0, 0): -3.0}])
    # root (2, 3); after rescaling by t the root is (2/t1, 3/t2)
    t = TorusPoint(np.array([4.0, 0.5]))
    out = torus_rescale(t, f)
    vals = evaluate_system(out, np.array([0.5, 6.0])).values
    assert np.allclose(vals, 0.0, atol=1e-14)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_torus_point_rejects_non_finite_and_non_positive_entries(bad):
    """NaN and +-inf used to pass the positivity check."""
    with pytest.raises(ValueError, match="finite and strictly positive"):
        TorusPoint([bad, 1.0])


def test_sparse_state_of_an_overflowed_candidate_is_not_finite():
    """A candidate's own t is not validated: one that overflows gives a value
    that is not finite, which the halving rejects like an increase."""
    from geoprec.group import GroupElement
    from geoprec.polysys import _jacobian_pinv, _magnitudes, _omega, _sparse_state

    rng = rng_for(100)
    f = random_system(rng, 2, 2, 3, density=0.6)
    xi = complex_gaussian(rng, 2)
    pair = GroupScheme("both", 2, 2, (2,), (1, 1))
    t = np.array([math.inf, 1.0], dtype=complex).reshape(-1, 1, 1)
    g = GroupElement._from_blocks(pair, [np.eye(2, dtype=complex)[None]], [t])
    with np.errstate(all="ignore"):
        state = _sparse_state(f, _magnitudes(xi), _omega(2), _jacobian_pinv(f, xi), g)
    assert not math.isfinite(state.value)


def test_torus_objective_zero_coordinate_raises():
    f = PolynomialSystem.from_polys(2, [{(1, 0): 1.0}, {(0, 1): 1.0}])
    sch = GroupScheme.full(2, side="left")
    with pytest.raises(ZeroCoordinateError):
        torus_objective(f, [1.0, 0.0], sch.identity(), TorusPoint(np.ones(2)))


def test_precondition_sparse_balances_and_descends():
    rng = rng_for(97)
    f = random_system(rng, 2, 2, 3, density=0.5)
    xi = np.array([10.0, 0.1], dtype=complex)
    cfg = OptimizerConfig(scheme=GroupScheme.full(2, side="left"),
                          target_eps=1e-2, max_iters=600)
    X_el, t, rep = precondition_sparse(f, xi, cfg)
    vals = [r.value for r in rep.iterations]
    assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(len(vals) - 1))
    assert vals[-1] < vals[0]
    r = np.abs(xi) / t.t
    assert r.max() / r.min() <= 1.5
    # the tracked objective is reproducible from the returned pair
    assert torus_objective(f, xi, X_el, t) == pytest.approx(vals[-1], rel=1e-9)


def test_precondition_sparse_monotone_on_seeds():
    for seed in range(10):
        rng = rng_for(98, seed)
        f = random_system(rng, 2, 2, 2, density=0.7)
        xi = complex_gaussian(rng, 2)
        cfg = OptimizerConfig(scheme=GroupScheme.full(2, side="left"),
                              target_eps=1e-2, max_iters=150)
        _, _, rep = precondition_sparse(f, xi, cfg)
        vals = [r.value for r in rep.iterations]
        assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(len(vals) - 1))


@pytest.mark.parametrize("call,match", [
    (lambda f: PolynomialSystem(2, (2,), ({(2, 0): 1.0}, {(0, 1): 1.0})), "one degree bound"),
    (lambda f: evaluate_system(f, np.ones(3)), "point has length"),
    (lambda f: shuffle(np.eye(3), f), "shuffle matrix"),
    (lambda f: change_variables(np.eye(3), f), "change of variables"),
    (lambda f: torus_rescale(TorusPoint(np.ones(3)), f), "torus point length"),
    (lambda f: polysys_lie_derivative(f, np.eye(2), np.eye(3)), "direction shapes"),
    (lambda f: polysys_lie_derivative(f, np.eye(3), np.eye(2)), "direction shapes"),
    (lambda f: precondition_shuffle(f, np.ones(2), GroupScheme.full(2, 2, side="both"),
                                    OptimizerConfig(scheme=GroupScheme.full(2, 2, side="both"))),
     "left-only scheme"),
    (lambda f: precondition_sparse(f, np.ones(3),
                                   OptimizerConfig(scheme=GroupScheme.full(2, side="left"))),
     "point length"),
], ids=["one-bound-per-polynomial", "evaluate-point-length", "shuffle-shape",
        "change-variables-shape", "torus-length", "lie-derivative-H2", "lie-derivative-H1",
        "shuffle-scheme-side", "sparse-point-length"])
def test_polynomial_entry_points_reject_mismatched_shapes(call, match, example2_system):
    with pytest.raises(DimensionMismatchError, match=match):
        call(example2_system)


def test_degree_bound_validation():
    with pytest.raises(DimensionMismatchError):
        PolynomialSystem(2, (1,), ({(2, 0): 1.0},))


@pytest.mark.parametrize("degrees", [(2.5, 2), (True, 2), (np.float64(2.0), 2)],
                         ids=["fraction", "bool", "numpy-float"])
def test_degree_bounds_must_be_integers(degrees):
    """A bound of 2.5 was truncated to 2, and True taken as 1."""
    with pytest.raises(DimensionMismatchError, match="integers"):
        PolynomialSystem(2, degrees, ({(1, 0): 1.0}, {(0, 1): 1.0}))


def test_degree_bounds_accept_numpy_integers():
    f = PolynomialSystem(2, (np.int64(2), 1), ({(2, 0): 1.0}, {(0, 1): 1.0}))
    assert f.degrees == (2, 1) and all(type(d) is int for d in f.degrees)


@pytest.mark.parametrize("term", [{(1.5, 0): 1.0}, {(0, True): 2.0}, {(np.float64(1.0), 0): 1.0}],
                         ids=["fraction", "bool", "numpy-float"])
def test_exponents_must_be_integers(term):
    """(1.5, 0) was read as (1, 0), and (0, True) as (0, 1)."""
    with pytest.raises(DimensionMismatchError, match="integers"):
        PolynomialSystem(2, (2,), (term,))


def test_exponents_accept_numpy_integers():
    f = PolynomialSystem(2, (2,), ({(np.int64(2), np.int32(0)): 1.0, (0, 1): 3.0},))
    assert f.polynomials == ({(2, 0): 1.0, (0, 1): 3.0},)


def test_polynomial_actions_reject_other_schemes():
    rng = rng_for(99)
    f = random_system(rng, 2, 2, 2)
    xi = complex_gaussian(rng, 2)
    for scheme in (GroupScheme.diagonal(2), GroupScheme.full(3, side="left"),
                   GroupScheme.full(2, 2, side="both")):
        with pytest.raises(DimensionMismatchError):
            precondition_sparse(f, xi, OptimizerConfig(scheme=scheme))
    for scheme in (GroupScheme.diagonal(2, 2, side="both"), GroupScheme.full(2, side="left"),
                   GroupScheme.full(2, 3, side="both")):
        with pytest.raises(DimensionMismatchError):
            precondition_full(f, xi, scheme, OptimizerConfig(scheme=scheme))

