"""Matrix-free machinery for large sparse inputs.

For a sparse matrix B the gradient of the objective needs the (block)
diagonal of (B B*)^-1.  Probe estimators get there with matrix-vector
products only: Hutchinson probes for plain diagonals, a Gaussian sketch for
blocks, block Lanczos quadrature for a single block, all on top of a
conjugate-gradient solver.
"""

import numpy as np
import scipy.sparse as sp

from geoprec import (
    EstimatorConfig,
    GroupScheme,
    MatrixOperator,
    block_hutchinson,
    block_lanczos_inverse_block,
    estimate_gradient,
    evaluate,
    hutchinson_diagonal_inverse,
)
from geoprec._rng import substream

rng = substream(31, 0)
n = 120
A = sp.random(n, n, density=0.05, random_state=np.random.RandomState(31), dtype=float).tolil()
for i in range(n):
    A[i, i] = 2.0 + rng.uniform()
A = (sp.diags(np.exp(rng.normal(0.0, 1.0, n))) @ A.tocsr()).astype(complex)
print(f"sparse instance: {n}x{n} with {A.nnz} nonzeros")

op = MatrixOperator(A)
est = hutchinson_diagonal_inverse(op, EstimatorConfig(num_probes=400, seed=1, cg_tol=1e-8))
true = np.diag(np.linalg.inv((A @ A.conj().T).toarray())).real
err = np.linalg.norm(est.diag_estimate - true) / np.linalg.norm(true)
print(f"Hutchinson diag((AA*)^-1): rel error {err:.3e} from 400 probes "
      f"({op.matvec_count} matvecs, {op.rmatvec_count} adjoint matvecs)")
print(f"  mean per-coordinate standard error: {est.stderr.mean():.3e}")

spd = (A @ A.conj().T).toarray() / n
true_block = np.linalg.inv(spd)[:4, :4]
sk = block_hutchinson(MatrixOperator(np.linalg.inv(spd)), (0, 4), num_probes=300, seed=2)
lz = block_lanczos_inverse_block(MatrixOperator(spd), (0, 4), iters=40)
print(f"block sketch error:  {np.linalg.norm(sk - true_block):.3e}")
# about 1e-10, but the last digits move with the BLAS code path, so print the check
lz_err = np.linalg.norm(lz - true_block)
print(f"block Lanczos error below 1e-8: {'yes' if lz_err < 1e-8 else f'NO ({lz_err:.3e})'}")

print("\nstochastic vs exact gradient (diagonal scheme):")
scheme = GroupScheme.diagonal(n, side="left")
g = scheme.identity()
exact = evaluate(A.toarray(), g).grad
for probes in (100, 400, 1600):
    sg = estimate_gradient(A, g, EstimatorConfig(num_probes=probes, seed=3, cg_tol=1e-6))
    rel = np.linalg.norm(sg.H1 - exact.H1) / np.linalg.norm(exact.H1)
    print(f"  {probes:5d} probes: rel error {rel:.4f}")
print("the error follows the usual 1/sqrt(probes) Monte-Carlo rate")
