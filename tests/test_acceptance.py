"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines;
every tolerance and runtime budget is asserted, not just printed.
"""

import math
import time
from itertools import product

import numpy as np
import scipy.optimize as sopt
import scipy.sparse as sp

from conftest import complex_gaussian, random_direction, random_element, rng_for
from geoprec._rng import substream
from geoprec.bench import correlation_kF_kappa, run_gaussian_suite
from geoprec.group import GroupScheme, LieDirection, exp_action
from geoprec.matrix import condition_euclidean, condition_frobenius, jacobi_precondition
from geoprec.objective import evaluate, hessian_quadratic_form
from geoprec.optimize import OptimizerConfig, Termination, minimize_condition
from geoprec.polysys import (
    PolynomialSystem,
    TorusPoint,
    evaluate_system,
    gram_sqrt,
    local_condition,
    precondition_shuffle,
    precondition_sparse,
    shuffle,
    torus_penalty,
    torus_penalty_gradient,
)
from geoprec.stochastic import (
    EstimatorConfig,
    MatrixOperator,
    block_hutchinson,
    block_lanczos_inverse_block,
    hutchinson_diagonal_inverse,
)


def _report(num, label, ok, elapsed, budget):
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    print(f"[acceptance] criterion {num:2d} {status}  {label}  ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num}: {label}"
    assert elapsed <= budget, f"criterion {num} exceeded budget: {elapsed:.2f}s > {budget}s"


def test_criterion_01_worked_example_regression():
    t0 = time.perf_counter()
    a = np.array([[3, 0, 0], [1, 1, 0], [0, 3, 1]], dtype=complex)
    ok = (
        abs(condition_euclidean(a) - 11.77) <= 0.01
        and abs(condition_euclidean(jacobi_precondition(a, "left")) - 15.35) <= 0.01
        and abs(condition_euclidean(jacobi_precondition(a, "two_sided")) - 12.59) <= 0.01
    )
    _report(1, "3x3 worked example and its Jacobi scalings", ok, time.perf_counter() - t0, 1.0)


def _sweep_case(rng, k):
    """Scheme/shape pairs where the objective calculus is exact."""
    kind = k % 5
    if kind == 0:
        m = int(rng.integers(3, 21))
        n = int(rng.integers(m, 21))
        return GroupScheme.diagonal(m, side="left"), (m, n)
    if kind == 1:
        m = int(rng.integers(4, 21))
        n = int(rng.integers(m, 21))
        return GroupScheme.blocked(m, int(rng.integers(2, 4)), side="left"), (m, n)
    if kind == 2:
        m = int(rng.integers(3, 21))
        return GroupScheme.diagonal(m, m, side="both"), (m, m)
    if kind == 3:
        m = int(rng.integers(4, 21))
        b = int(rng.integers(2, 4))
        return GroupScheme.blocked(m, b, m, side="both", right_block_size=b), (m, m)
    m = int(rng.integers(3, 21))
    n = int(rng.integers(m, 21))
    return GroupScheme.full(m, side="left"), (m, n)


def test_criterion_02_gradient_finite_differences():
    t0 = time.perf_counter()
    rng = rng_for(200)
    worst = 0.0
    for k in range(50):
        scheme, shape = _sweep_case(rng, k)
        A = complex_gaussian(rng, shape)
        g = random_element(rng, scheme, spread=0.3)
        state = evaluate(A, g)
        for _ in range(20):
            h = random_direction(rng, scheme, norm=1.0)
            t = 1e-5
            up = evaluate(A, exp_action(g, h, t)).value
            dn = evaluate(A, exp_action(g, h, -t)).value
            fd = (up - dn) / (2 * t)
            an = np.trace(h.H1.conj().T @ state.grad.H1).real
            if h.H2 is not None:
                an += np.trace(h.H2.conj().T @ state.grad.H2).real
            worst = max(worst, abs(fd - an))
    _report(2, f"gradient vs central differences (worst {worst:.2e})", worst <= 1e-6,
            time.perf_counter() - t0, 30.0)


def test_criterion_03_hessian_and_convexity():
    t0 = time.perf_counter()
    rng = rng_for(201)
    min_q, worst_rel, worst_smooth = math.inf, 0.0, 0.0
    for k in range(1000):
        scheme, shape = _sweep_case(rng, k)
        A = complex_gaussian(rng, shape)
        g = random_element(rng, scheme, spread=0.2)
        state = evaluate(A, g)
        h = random_direction(rng, scheme, norm=1.0)
        q = hessian_quadratic_form(state, h)
        min_q = min(min_q, q)
        bound = 4.0 if scheme.side == "left" else 8.0
        worst_smooth = max(worst_smooth, q - bound)
        step = 1e-2
        vals = [evaluate(A, exp_action(g, h, j * step)).value for j in (-2, -1, 0, 1, 2)]
        fd = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * step**2)
        worst_rel = max(worst_rel, abs(q - fd) / (max(abs(q), abs(fd)) + 1e-9))
    ok = min_q >= -1e-9 and worst_rel <= 1e-4 and worst_smooth <= 1e-6
    _report(3, f"Hessian PSD (min {min_q:.1e}), FD match (rel {worst_rel:.1e}), smoothness",
            ok, time.perf_counter() - t0, 60.0)


def test_criterion_04_strong_convexity_bound():
    t0 = time.perf_counter()
    rng = rng_for(202)
    ok = True
    for _ in range(20):
        n = int(rng.integers(3, 9))
        A = complex_gaussian(rng, (n, n))
        scheme = GroupScheme.diagonal(n, side="left")
        state = evaluate(A, scheme.identity())
        h = random_direction(rng, scheme)
        H1 = h.H1 - np.trace(h.H1) / n * np.eye(n)
        h = LieDirection(scheme, H1)
        q = hessian_quadratic_form(state, h)
        ok &= q >= 4.0 / state.kF**2 * h.norm**2 - 1e-8
    _report(4, "traceless Hessian lower bound 4/kF^2", ok, time.perf_counter() - t0, 10.0)


def test_criterion_05_exact_optimum_recovery():
    t0 = time.perf_counter()
    a = np.diag([1.0, 10.0, 100.0])
    cfg = OptimizerConfig(scheme=GroupScheme.diagonal(3, side="left"), target_eps=1e-3)
    rep = minimize_condition(a, cfg)
    ok = (
        rep.termination is Termination.CERTIFIED
        and abs(rep.final_kF - 3.0) <= 1e-3
        and rep.certificate <= 1e-3
    )
    _report(5, f"diag(1,10,100) reaches kF={rep.final_kF:.6f} certified", ok,
            time.perf_counter() - t0, 5.0)


def _grid_min_kF(a):
    """Brute-force optimum over diagonal log-scalings, coarse grid then one
    refinement around the best cell."""
    r2 = np.sum(np.abs(a) ** 2, axis=1)
    c2 = np.sum(np.abs(np.linalg.inv(a)) ** 2, axis=0)

    def scan(h1, h2, h3):
        e1, e2, e3 = np.exp(2 * h1), np.exp(2 * h2), np.exp(2 * h3)
        s1 = e1[:, None, None] * r2[0] + e2[None, :, None] * r2[1] + e3[None, None, :] * r2[2]
        s2 = (1 / e1)[:, None, None] * c2[0] + (1 / e2)[None, :, None] * c2[1] \
            + (1 / e3)[None, None, :] * c2[2]
        prod = s1 * s2
        idx = np.unravel_index(np.argmin(prod), prod.shape)
        return math.sqrt(prod[idx]), (h1[idx[0]], h2[idx[1]], h3[idx[2]])

    coarse = np.arange(-3.0, 3.0 + 1e-9, 0.05)
    val, best = scan(coarse, coarse, coarse)
    fine = [np.arange(b - 0.1, b + 0.1 + 1e-9, 0.005) for b in best]
    val2, _ = scan(*fine)
    return min(val, val2)


def test_criterion_06_certificate_soundness():
    t0 = time.perf_counter()
    rng = rng_for(203)
    grid_err = 0.02  # gradient of log kF is at most 2 per log-scaling axis
    ok = True
    for _ in range(10):
        a = complex_gaussian(rng, (3, 3))
        cfg = OptimizerConfig(scheme=GroupScheme.diagonal(3, side="left"),
                              target_eps=1e-3, max_iters=100_000)
        rep = minimize_condition(a, cfg)
        ok &= rep.termination is Termination.CERTIFIED
        kf_star = _grid_min_kF(a)
        ok &= math.log(rep.final_kF / kf_star) <= rep.certificate + grid_err
    _report(6, "certified gap bounds the true gap (grid oracle)", ok,
            time.perf_counter() - t0, 300.0)


def test_criterion_07_strongly_convex_rate():
    t0 = time.perf_counter()
    a = np.diag([1.0, 10.0])
    cfg = OptimizerConfig(scheme=GroupScheme.diagonal(2, side="left"),
                          target_eps=1e-12, max_iters=250)
    rep = minimize_condition(a, cfg)
    fstar = math.log(2.0)
    slope_bound = math.log(1.0 - 1.0 / condition_frobenius(a) ** 2) + 0.01
    v0 = rep.iterations[0].value - fstar
    ok = True
    for rec in rep.iterations[1:201]:
        gap = rec.value - fstar
        if gap <= 1e-14:
            break  # reached the optimum to machine precision: faster than linear
        ok &= (math.log(gap) - math.log(v0)) / rec.iteration <= slope_bound
    _report(7, "linear convergence at the strongly convex rate", ok,
            time.perf_counter() - t0, 5.0)


def test_criterion_08_stochastic_estimators():
    t0 = time.perf_counter()
    # Hutchinson on a full-row-rank sparse instance (60 rows, 100 cols)
    hutch_hits = 0
    for seed in range(10):
        rng = substream(900, seed)
        a = sp.random(60, 100, density=0.08, random_state=np.random.RandomState(1000 + seed),
                      dtype=float).tolil()
        for i in range(60):
            a[i, i] = 2.0 + rng.uniform()
        a = a.tocsr().astype(complex)
        minv = np.linalg.inv((a @ a.conj().T).toarray())
        bound = 3.0 * np.linalg.norm(minv - np.diag(np.diag(minv)), "fro") / 20.0
        est = hutchinson_diagonal_inverse(
            MatrixOperator(a), EstimatorConfig(num_probes=400, seed=seed, cg_tol=1e-10)
        )
        hutch_hits += np.linalg.norm(est.diag_estimate - np.diag(minv).real) <= bound

    # block sketch of one 5x5 block of an SPD 80x80
    block_hits = 0
    for seed in range(10):
        rng = substream(905, seed)
        m = complex_gaussian(rng, (80, 80))
        m = m @ m.conj().T + 8.0 * np.eye(80)
        est = block_hutchinson(MatrixOperator(m), (0, 5), num_probes=300, seed=seed)
        rest = m.copy()
        rest[:5, :5] = 0.0
        bound = 3.0 * np.linalg.norm(rest, "fro") / math.sqrt(300)
        block_hits += np.linalg.norm(est - m[:5, :5]) <= bound

    # block Lanczos decay on a conditioned SPD 60x60
    rng = rng_for(204)
    q = np.linalg.qr(rng.standard_normal((60, 60)))[0]
    m = ((q * np.linspace(1.0, 100.0, 60)) @ q.T).astype(complex)
    true_block = np.linalg.inv(m)[:5, :5]
    errs = [
        np.linalg.norm(block_lanczos_inverse_block(MatrixOperator(m), (0, 5), it) - true_block)
        for it in (5, 10, 20, 40)
    ]
    decay_ok = all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))

    ok = hutch_hits >= 8 and block_hits >= 8 and decay_ok
    _report(8, f"estimators vs dense oracle (hutch {hutch_hits}/10, block {block_hits}/10)",
            ok, time.perf_counter() - t0, 120.0)


def test_criterion_09_polynomial_reduction_identity():
    t0 = time.perf_counter()
    rng = rng_for(205)
    monos = [a for a in product(range(3), repeat=2) if sum(a) <= 2]
    ok = True
    for _ in range(50):
        polys = []
        for _ in range(2):
            polys.append({a: complex(rng.standard_normal(), rng.standard_normal())
                          for a in monos})
        f = PolynomialSystem.from_polys(2, polys)
        xi = complex_gaussian(rng, 2)
        X = complex_gaussian(rng, (2, 2))
        S = gram_sqrt(f)
        Dp = np.linalg.pinv(evaluate_system(f, xi).jacobian)
        lhs = local_condition(shuffle(X, f), xi, "frobenius")
        rhs = np.linalg.norm(X @ S) * np.linalg.norm(Dp @ np.linalg.inv(X))
        ok &= abs(lhs - rhs) <= 1e-9 * rhs
    _report(9, "mu_F factors through the Gram square root", ok, time.perf_counter() - t0, 30.0)


def test_criterion_10_polynomial_worked_example():
    t0 = time.perf_counter()
    f = PolynomialSystem.from_polys(2, [
        {(2, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0},
        {(0, 2): 1.0, (1, 0): 1.0, (0, 1): -1.0},
    ])
    mu_op = local_condition(f, [0, 0], "operator")
    anchor_ok = abs(mu_op - math.sqrt(3.0)) <= 1e-9

    jac = evaluate_system(f, [0, 0]).jacobian
    mu0 = local_condition(f, [0, 0], "frobenius")
    mu_ijs = local_condition(shuffle(np.linalg.inv(jac), f), [0, 0], "frobenius")
    sch = GroupScheme.full(2, side="left")
    cfg = OptimizerConfig(scheme=sch, target_eps=1e-4, max_iters=2000)
    X_el, _ = precondition_shuffle(f, [0, 0], sch, cfg)
    mu_final = local_condition(shuffle(X_el.X, f), [0, 0], "frobenius")
    ok = anchor_ok and mu_final <= mu0 + 1e-9 and mu_final <= mu_ijs + 1e-9
    _report(10, f"mu(f,0)=sqrt(3) anchor; optimizer beats inverse-Jacobian scaling "
                f"(final {mu_final:.6f})", ok, time.perf_counter() - t0, 10.0)


def test_criterion_11_desk_scale_experiment_ordering():
    t0 = time.perf_counter()
    results = run_gaussian_suite(50, 30, block_size=5, seed=42, target_eps=1e-2,
                                 max_iters=1500)
    mean_diag = float(np.mean([r.improvement_diag for r in results]))
    mean_block = float(np.mean([r.improvement_block for r in results]))
    rho = correlation_kF_kappa(results)
    all_improve = all(
        r.improvement_diag >= 1.0 - 1e-9 and r.improvement_block >= 1.0 - 1e-9
        for r in results
    )
    ok = mean_block >= mean_diag and all_improve and rho > 0.3
    _report(11, f"block {mean_block:.2f}x >= diag {mean_diag:.2f}x, rho={rho:.2f}",
            ok, time.perf_counter() - t0, 600.0)


def test_criterion_12_sparse_torus():
    t0 = time.perf_counter()
    balance_ok = True
    for seed in range(10):
        rng = rng_for(206, seed)
        xi = complex_gaussian(rng, 3)
        res = sopt.minimize(
            lambda u: torus_penalty(xi, TorusPoint(np.exp(u))),
            np.zeros(3),
            jac=lambda u: torus_penalty_gradient(xi, TorusPoint(np.exp(u))),
            method="L-BFGS-B",
            tol=1e-15,
        )
        r = np.abs(xi) / np.exp(res.x)
        balance_ok &= (r.max() / r.min() - 1.0) <= 1e-6

    monotone_ok = True
    for seed in range(10):
        rng = rng_for(207, seed)
        monos = [a for a in product(range(3), repeat=2) if sum(a) <= 2]
        polys = []
        for _ in range(2):
            p = {a: complex(rng.standard_normal(), rng.standard_normal())
                 for a in monos if rng.uniform() < 0.7}
            if not p:
                p = {monos[1]: 1.0 + 0j}
            polys.append(p)
        f = PolynomialSystem.from_polys(2, polys, degrees=[2, 2])
        xi = complex_gaussian(rng, 2)
        cfg = OptimizerConfig(scheme=GroupScheme.full(2, side="left"),
                              target_eps=1e-2, max_iters=150)
        _, _, rep = precondition_sparse(f, xi, cfg)
        vals = [r.value for r in rep.iterations]
        monotone_ok &= all(vals[i + 1] <= vals[i] + 1e-12 for i in range(len(vals) - 1))

    ok = balance_ok and monotone_ok
    _report(12, "penalty minimizer balances |xi_i|/t_i; joint descent monotone",
            ok, time.perf_counter() - t0, 120.0)
