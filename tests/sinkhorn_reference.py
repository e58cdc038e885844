"""The three-pass Sinkhorn loop that ``geoprec.matrix.sinkhorn_equilibrate``
replaced, kept as the reference it is checked against bit for bit.

Each iteration forms the scaled matrix three times: before the row step,
before the column step and for the convergence test.  The new loop starts
each iteration from the matrix, and its row sums, that the previous test
formed.
"""

import numpy as np

from geoprec.errors import ZeroRowOrColumnError
from geoprec.matrix import as_dense


def sinkhorn(a, max_iters=1000, tol=1e-10):
    """(d, e, converged, iterations) with d[0] fixed to 1, as the old
    ``sinkhorn_equilibrate`` computed them (it returned diag(d) and diag(e))."""
    m = np.abs(as_dense(a))
    rows, cols = m.shape
    zr = np.nonzero(m.sum(axis=1) == 0)[0]
    if len(zr):
        raise ZeroRowOrColumnError(int(zr[0]), 0)
    zc = np.nonzero(m.sum(axis=0) == 0)[0]
    if len(zc):
        raise ZeroRowOrColumnError(int(zc[0]), 1)

    d = np.ones(rows)
    e = np.ones(cols)
    converged = False
    it = 0
    col_target = rows / cols
    for it in range(1, max_iters + 1):
        scaled = (d[:, None] * m) / e[None, :]
        rs = scaled.sum(axis=1)
        d = d / rs
        scaled = (d[:, None] * m) / e[None, :]
        cs = scaled.sum(axis=0)
        e = e * cs / col_target
        scaled = (d[:, None] * m) / e[None, :]
        rdev = np.max(np.abs(scaled.sum(axis=1) - 1.0))
        cdev = np.max(np.abs(scaled.sum(axis=0) - col_target)) / col_target
        if max(rdev, cdev) <= tol:
            converged = True
            break
    scale = d[0]
    return d / scale, e / scale, converged, it
