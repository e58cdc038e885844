"""Diagonal preconditioning of a small matrix: heuristics vs the optimizer.

The running example is a 3x3 triangular matrix for which both Jacobi
scalings make the Euclidean condition number worse.  Descending the log
Frobenius condition number over diagonal scalings always helps, and the run
ends with a duality-gap certificate bounding the distance to the true
optimum.
"""

import numpy as np

from geoprec import (
    GroupScheme,
    OptimizerConfig,
    apply,
    condition_euclidean,
    condition_frobenius,
    condition_skeel,
    jacobi_precondition,
    minimize_condition,
    sinkhorn_equilibrate,
)

A = np.array([[3.0, 0.0, 0.0],
              [1.0, 1.0, 0.0],
              [0.0, 3.0, 1.0]], dtype=complex)

print("input matrix A:")
print(A.real)
print(f"kappa(A)   = {condition_euclidean(A):.4f}")
print(f"kappa_F(A) = {condition_frobenius(A):.4f}")
print(f"kappa_S(A) = {condition_skeel(A):.4f}   (invariant under left diagonal scaling)")

print("\n-- heuristic baselines ------------------------------------------")
XA = jacobi_precondition(A, "left")
print(f"Jacobi left:      kappa = {condition_euclidean(XA):.4f}   (worse than A!)")
XAY = jacobi_precondition(A, "two_sided")
print(f"Jacobi two-sided: kappa = {condition_euclidean(XAY):.4f}   (still worse)")
sk = sinkhorn_equilibrate(A)
eq = apply(sk.element, A)
print(f"Sinkhorn:         kappa = {condition_euclidean(eq):.4f}   "
      f"(converged={sk.converged}: this zero pattern has no equilibrating limit,")
print("                  the scalings diverge and the scaled matrix degenerates)")

print("\n-- certified descent over diagonal scalings ---------------------")
config = OptimizerConfig(scheme=GroupScheme.diagonal(3, side="left"), target_eps=1e-4)
report = minimize_condition(A, config)
print(f"terminated: {report.termination.value} after {report.iteration_count} iterations")
print(f"kappa_F: {report.initial_kF:.4f} -> {report.final_kF:.4f}")
print(f"kappa:   {report.initial_kappa:.4f} -> {report.final_kappa:.4f}")
print(f"certificate: log-gap to the optimal diagonal scaling <= {report.certificate:.2e}")

B = apply(report.final_element, A)
print("\npreconditioned matrix X A (X = exp of the accumulated descent steps):")
print(np.round(B.real, 4))
