"""Real and complex matrices, norms, pseudoinverse, and condition numbers.

A :class:`ComplexMatrix` is a thin immutable wrapper holding either dense
row-major storage or canonical sparse coordinate triplets of real or complex
values: float64 when no entry has a nonzero imaginary part, complex128
otherwise.  Every operation in this module accepts either a ``ComplexMatrix``
or a plain array-like and produces identical results for dense and sparse
storage of the same matrix.

The diagonal baselines return what they compute, a preconditioner: row
balancing and Sinkhorn balancing return torus elements of ``geoprec.group``,
stored as vectors and applied with ``group.apply`` in O(mn), while Jacobi
scaling returns the scaled matrix itself.
"""

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import (
    DimensionMismatchError,
    ZeroDiagonalEntryError,
    ZeroMatrixError,
    ZeroRowOrColumnError,
)

__all__ = [
    "ComplexMatrix",
    "SvdFactorization",
    "frobenius_norm",
    "pseudoinverse",
    "svd_factorization",
    "singular_values",
    "rank_tolerance",
    "kappa_from_singular_values",
    "frobenius_from_singular_values",
    "condition_frobenius",
    "condition_euclidean",
    "condition_skeel",
    "condition_cross",
    "jacobi_precondition",
    "row_balance",
    "sinkhorn_equilibrate",
    "SinkhornResult",
]


def _field(values):
    """A C-ordered copy of values: float64 when none has a nonzero imaginary
    part, else complex128."""
    v = np.asarray(values)
    if np.iscomplexobj(v) and v.imag.any():
        return np.array(v, dtype=complex, order="C")
    return np.array(v.real, dtype=float, order="C")


class ComplexMatrix:
    """Dense or sparse matrix of real or complex values.

    The field is decided once, at construction: entries with no nonzero
    imaginary part are stored as float64, any others as complex128, and every
    view (``to_dense``, ``to_csr``, ``triplets``) has the stored dtype.
    Sparse storage is coordinate format, canonicalized at construction:
    entries sorted by (row, col), duplicates summed, exact zeros dropped.
    Instances are immutable and safe to share across threads.
    """

    __slots__ = ("rows", "cols", "_dense", "_coo")

    def __init__(self, rows, cols, dense=None, coo=None):
        if rows <= 0 or cols <= 0:
            raise DimensionMismatchError("matrix dimensions must be positive")
        self.rows = int(rows)
        self.cols = int(cols)
        self._dense = dense
        self._coo = coo

    @classmethod
    def dense(cls, array):
        a = _field(array)
        if a.ndim != 2:
            raise DimensionMismatchError("dense storage must be 2-dimensional")
        a.setflags(write=False)
        return cls(a.shape[0], a.shape[1], dense=a)

    @classmethod
    def sparse(cls, rows, cols, triplets):
        """Build from an iterable of (row, col, value) triplets, read in one pass.

        Indices are read as float64, so that ``coordinate`` sees and rejects
        one that is not an integer; integers are exact up to 2**53.
        """
        t = np.fromiter(map(tuple, triplets),
                        dtype=[("r", float), ("c", float), ("v", complex)])
        return cls.coordinate(rows, cols, t["r"], t["c"], t["v"])

    @classmethod
    def coordinate(cls, rows, cols, r, c, v):
        """Build from arrays of row indices, column indices and values.

        The entries are put in canonical form: sorted by (row, col), duplicates
        summed in the order given, exact zeros dropped.  An index out of bounds
        or not an integer (1.7, NaN) raises DimensionMismatchError.
        """
        r, c, v = np.asarray(r), np.asarray(c), np.asarray(v)
        bad = np.flatnonzero(~((0 <= r) & (r < rows) & (r == np.trunc(r))
                               & (0 <= c) & (c < cols) & (c == np.trunc(c))))
        if bad.size:
            raise DimensionMismatchError(
                f"index ({r[bad[0]]}, {c[bad[0]]}) out of bounds or not an integer")
        key = r.astype(np.int64, copy=False) * cols + c.astype(np.int64, copy=False)
        order = np.argsort(key, kind="stable")
        key = key[order]
        new = np.diff(key, prepend=-1) != 0  # the first of each run of equal keys
        vals = np.zeros(np.count_nonzero(new), dtype=np.promote_types(v.dtype, float))
        np.add.at(vals, np.cumsum(new) - 1, v[order])
        keep = vals != 0
        out_r, out_c = np.divmod(key[new][keep], cols)
        out_v = _field(vals[keep])
        for a in (out_r, out_c, out_v):
            a.setflags(write=False)
        return cls(rows, cols, coo=(out_r, out_c, out_v))

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def is_sparse(self):
        return self._coo is not None

    @property
    def nnz(self):
        if self.is_sparse:
            return len(self._coo[2])
        return int(np.count_nonzero(self._dense))

    def triplets(self):
        """(rows, cols, values) arrays in canonical order."""
        if self.is_sparse:
            return self._coo
        r, c = np.nonzero(self._dense)
        return r, c, self._dense[r, c]

    def to_dense(self):
        """Dense array in the stored dtype."""
        if self._dense is not None:
            return self._dense
        r, c, v = self._coo
        out = np.zeros((self.rows, self.cols), dtype=v.dtype)
        out[r, c] = v
        return out

    def to_csr(self):
        """CSR matrix of the stored entries, in the stored dtype."""
        r, c, v = self.triplets()
        return sp.csr_matrix((v, (r, c)), shape=self.shape)

    def __repr__(self):
        kind = "sparse" if self.is_sparse else "dense"
        return f"ComplexMatrix({self.rows}x{self.cols}, {kind})"


def as_dense(a):
    """Coerce a ComplexMatrix, scipy.sparse matrix or array-like to a dense ndarray.

    Real input stays real: the result is float64 for integer, boolean and real
    floating input, for a ComplexMatrix that holds real values too, and
    complex128 for complex input.
    """
    if isinstance(a, ComplexMatrix):
        return a.to_dense()
    if sp.issparse(a):
        a = a.toarray()
    out = np.asarray(a)
    out = out.astype(np.promote_types(out.dtype, float), copy=False)
    if out.ndim != 2:
        raise DimensionMismatchError("expected a 2-dimensional matrix")
    return out


def _dense_rows(csr, start, stop, order="C"):
    """Rows start:stop of a CSR matrix with no duplicate entries, as a dense array
    scattered from the stored entries: no ``toarray`` and no copy of the rest."""
    lo, hi = csr.indptr[start], csr.indptr[stop]
    out = np.zeros((stop - start, csr.shape[1]), dtype=csr.dtype, order=order)
    rows = np.repeat(np.arange(stop - start), np.diff(csr.indptr[start:stop + 1]))
    out[rows, csr.indices[lo:hi]] = csr.data[lo:hi]
    return out


def _require_nonzero(a):
    if not np.any(a):
        raise ZeroMatrixError("matrix is identically zero")


class SvdFactorization(NamedTuple):
    """Thin SVD with an explicit rank cutoff.

    Singular values are nonincreasing; values at or below ``rank_tolerance``
    count as zero for rank and pseudoinverse purposes.
    """

    left_vectors: np.ndarray
    singular_values: np.ndarray
    right_vectors: np.ndarray
    rank_tolerance: float

    @property
    def rank(self):
        return int(np.count_nonzero(self.singular_values > self.rank_tolerance))


def rank_tolerance(s, shape) -> float:
    """The cutoff max(m, n) * eps * sigma_max at or below which a singular value
    of a matrix of the given shape counts as zero.  ``s`` holds the singular
    values in nonincreasing order."""
    return max(shape) * np.finfo(float).eps * (s[0] if len(s) else 0.0)


def kappa_from_singular_values(s, shape) -> float:
    """sigma_max over the smallest singular value above the rank cutoff."""
    return float(s[0] / s[s > rank_tolerance(s, shape)][-1])


def singular_values(a) -> np.ndarray:
    """Nonincreasing singular values of a nonzero matrix, computed without vectors."""
    m = as_dense(a)
    _require_nonzero(m)
    return np.linalg.svd(m, compute_uv=False)


def svd_factorization(a) -> SvdFactorization:
    """Thin SVD of ``a`` with the cutoff max(m, n) * eps * sigma_max."""
    m = as_dense(a)
    _require_nonzero(m)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return SvdFactorization(u, s, vh.conj().T, rank_tolerance(s, m.shape))


def frobenius_norm(a) -> float:
    """sqrt of the sum of squared entry magnitudes."""
    if isinstance(a, ComplexMatrix) and a.is_sparse:
        return float(np.linalg.norm(a.triplets()[2]))
    return float(np.linalg.norm(as_dense(a)))


def pseudoinverse(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse with the singular values at or below
    max(m, n) * eps * sigma_max dropped."""
    f = svd_factorization(a)
    s = f.singular_values
    inv = np.where(s > f.rank_tolerance, 1.0 / np.where(s > 0, s, 1.0), 0.0)
    return (f.right_vectors * inv) @ f.left_vectors.conj().T


def frobenius_from_singular_values(s, shape) -> float:
    """||A||_F * ||A^+||_F, over the singular values above the rank cutoff."""
    return float(np.linalg.norm(s) * np.linalg.norm(1.0 / s[s > rank_tolerance(s, shape)]))


def condition_frobenius(a) -> float:
    """Frobenius condition number ||A||_F * ||A^+||_F, from the singular values alone."""
    m = as_dense(a)
    return frobenius_from_singular_values(singular_values(m), m.shape)


def condition_euclidean(a) -> float:
    """Euclidean (operator-norm) condition number sigma_max / sigma_min, from the
    singular values alone."""
    m = as_dense(a)
    return kappa_from_singular_values(singular_values(m), m.shape)


def condition_skeel(a) -> float:
    """Skeel condition number || |A^+| |A| ||_inf (max absolute row sum)."""
    m = as_dense(a)
    _require_nonzero(m)
    prod = np.abs(pseudoinverse(m)) @ np.abs(m)
    return float(np.max(np.sum(prod, axis=1)))


def condition_cross(a, b) -> float:
    """Cross condition number ||A||_F * ||B||_F of two independent matrices."""
    na, nb = frobenius_norm(a), frobenius_norm(b)
    if na == 0.0 or nb == 0.0:
        raise ZeroMatrixError("matrix is identically zero")
    return na * nb


def jacobi_precondition(a, mode: str = "left") -> np.ndarray:
    """Classical diagonal scaling by the matrix diagonal.

    ``left`` returns diag(A)^-1 A; ``two_sided`` returns
    diag(A)^-1/2 A diag(A)^-1/2.  Requires a square matrix with nonzero
    diagonal entries.
    """
    m = as_dense(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatchError("Jacobi scaling needs a square matrix")
    d = np.diag(m)
    zero = np.nonzero(d == 0)[0]
    if len(zero):
        raise ZeroDiagonalEntryError(int(zero[0]))
    if mode == "left":
        return m / d[:, None]
    if mode == "two_sided":
        r = np.emath.power(d, -0.5)  # principal root: complex where d < 0
        return (r[:, None] * m) * r[None, :]
    raise ValueError(f"unknown mode {mode!r}")


def row_balance(a):
    """The left torus element x_i = 1 / ||row_i A||_2 that gives every row of
    x A unit norm (van der Sluis, 1969); a baseline heuristic, not an optimizer.

    Returns a GroupElement of ``GroupScheme.diagonal(m)``, one float64 (m, 1, 1)
    stack, to be applied with ``group.apply``.  Each row is divided by its
    largest magnitude before its norm is taken, so graded rows neither
    overflow nor underflow.  A zero row raises ZeroRowOrColumnError, and a
    scaling beyond the float range (a row of subnormals) FloatingPointError.
    """
    from .group import GroupElement, GroupScheme  # group imports this module at load

    m = as_dense(a)
    scale = np.abs(m).max(axis=1)
    zero = np.nonzero(scale == 0)[0]
    if len(zero):
        raise ZeroRowOrColumnError(int(zero[0]), 0)
    with np.errstate(all="ignore"):  # the check below reports a scaling out of range
        x = 1.0 / (scale * np.linalg.norm(m / scale[:, None], axis=1))
    if not np.isfinite(x).all():
        raise FloatingPointError("row balance scaling is not finite")
    return GroupElement._from_blocks(GroupScheme.diagonal(len(x)), [x.reshape(-1, 1, 1)])


class SinkhornResult(NamedTuple):
    """The two-sided torus element (X, Y) = (diag d, diag e) of a Sinkhorn
    balance, applied as A -> X A Y^-1 by ``group.apply``: float64 (m, 1, 1)
    and (n, 1, 1) stacks, X[0, 0] fixed to 1."""

    element: "GroupElement"
    converged: bool
    iterations: int


def sinkhorn_equilibrate(a, max_iters: int = 1000, tol: float = 1e-10) -> SinkhornResult:
    """Diagonal X, Y making the row and column sums of |X A Y^-1| equal
    (Sinkhorn, 1964).

    Alternates row and column normalization on |A|, so both scalings are real
    and positive, float64 for real and complex A alike.  Each iteration forms
    the scaled matrix twice: the one formed to test convergence, and its row
    sums, start the next iteration.  The scaling pair is unique only up to a
    scalar; the ambiguity is fixed by forcing X[0,0] = 1.  A zero row or
    column raises ZeroRowOrColumnError, and a scaling that leaves the float
    range FloatingPointError.
    """
    from .group import GroupElement, GroupScheme  # group imports this module at load

    m = np.abs(as_dense(a))
    rows, cols = m.shape
    rs = m.sum(axis=1)  # the row sums of the scaled matrix at d = 1, e = 1
    for axis, sums in enumerate((rs, m.sum(axis=0))):
        zero = np.nonzero(sums == 0)[0]
        if len(zero):
            raise ZeroRowOrColumnError(int(zero[0]), axis)

    d = np.ones(rows)
    e = np.ones(cols)  # applied as division: column j scaled by 1/e[j]
    converged = False
    it = 0
    col_target = rows / cols  # after rows sum to 1, columns must sum to m/n
    for it in range(1, max_iters + 1):
        with np.errstate(all="ignore"):  # the check below reports a scaling out of range
            d = d / rs
            cs = ((d[:, None] * m) / e[None, :]).sum(axis=0)
            e = e * cs / col_target
        if not (np.isfinite(d).all() and np.isfinite(e).all()):
            raise FloatingPointError(f"Sinkhorn scaling is not finite at iteration {it}")
        scaled = (d[:, None] * m) / e[None, :]
        rs = scaled.sum(axis=1)
        rdev = np.max(np.abs(rs - 1.0))
        cdev = np.max(np.abs(scaled.sum(axis=0) - col_target)) / col_target
        if max(rdev, cdev) <= tol:
            converged = True
            break
    left, right = [[(v / d[0]).reshape(-1, 1, 1)] for v in (d, e)]  # fix the scalar ambiguity
    element = GroupElement._from_blocks(GroupScheme.diagonal(rows, cols, "both"), left, right)
    return SinkhornResult(element, converged, it)
