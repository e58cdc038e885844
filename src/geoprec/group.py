"""Block-diagonal preconditioner groups and their Lie-algebra machinery.

A scheme fixes the structure: a contiguous block partition of the row index
set (and of the column index set for two-sided preconditioning).  Block size
one gives the diagonal torus, a single block the full general linear group.

Elements and tangent directions are stored in that shape: each side holds one
(count, size, size) stack of diagonal blocks per run of equal-size
consecutive blocks (``GroupScheme.left_runs``), e.g. one (m, 1, 1) stack for
the torus, (2, 5, 5) and (1, 2, 2) for ``blocked(12, 5)``, (1, m, m) for
``full``.  Each group operation is one batched numpy call per run and forms
no m x m array.  ``X``, ``Y``, ``H1`` and ``H2`` are read-only dense views
built on first access; the constructors take such dense matrices and reject
entries outside the block pattern.

Stacks keep the dtype they are built with, and every operation works in the
dtype of its operands.  At a real element the gradient of a real matrix is
real symmetric, so a descent on a real input from the float64 identity stays
in float64: real positive definite blocks, real positive torus entries.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .errors import DimensionMismatchError, SingularBlockError
from .matrix import as_dense

__all__ = [
    "GroupScheme",
    "GroupElement",
    "LieDirection",
    "Run",
    "WeightData",
    "block_triplets",
    "split_blocks",
    "project_to_lie",
    "project_blocks",
    "exp_action",
    "apply",
    "apply_dual",
    "congruence",
    "repolarize",
    "weight_data",
]


class Run(NamedTuple):
    """count consecutive diagonal blocks of one size, the first at row start."""

    start: int
    count: int
    size: int

    @property
    def stop(self):
        return self.start + self.count * self.size


def _runs(sizes, total):
    sizes = tuple(int(s) for s in sizes)
    if any(s <= 0 for s in sizes) or sum(sizes) != total:
        raise DimensionMismatchError(f"block sizes {sizes} do not partition {total}")
    out = []
    for size, same in groupby(sizes):
        out.append(Run(out[-1].stop if out else 0, len(list(same)), size))
    return tuple(out)


def _even_sizes(total, block_size):
    if block_size < 1:
        raise DimensionMismatchError(f"block size must be at least 1, got {block_size}")
    q, r = divmod(total, block_size)
    return (block_size,) * q + ((r,) if r else ())


@dataclass(frozen=True)
class GroupScheme:
    """Structure of the preconditioner group.

    side is "left" (X only) or "both" (pair (X, Y) acting as A -> X A Y^-1).
    """

    side: str
    m: int
    n: int
    left_sizes: Tuple[int, ...]
    right_sizes: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if self.side not in ("left", "both"):
            raise ValueError(f"side must be 'left' or 'both', got {self.side!r}")
        object.__setattr__(self, "left_sizes", tuple(int(s) for s in self.left_sizes))
        _runs(self.left_sizes, self.m)
        if self.side == "both":
            if self.right_sizes is None:
                raise DimensionMismatchError("two-sided scheme needs right block sizes")
            object.__setattr__(self, "right_sizes", tuple(int(s) for s in self.right_sizes))
            _runs(self.right_sizes, self.n)
        elif self.right_sizes is not None:
            raise DimensionMismatchError("left-only scheme must not carry right blocks")

    @classmethod
    def blocked(cls, m, block_size, n=None, side="left", right_block_size=None):
        """Contiguous blocks of the given size; a ragged final block if needed."""
        n = m if n is None else n
        right = None
        if side == "both":
            right = _even_sizes(n, block_size if right_block_size is None else right_block_size)
        return cls(side, m, n, _even_sizes(m, block_size), right)

    @classmethod
    def diagonal(cls, m, n=None, side="left"):
        """Blocks of size 1: the diagonal torus."""
        return cls.blocked(m, 1, n, side)

    @classmethod
    def full(cls, m, n=None, side="left"):
        """One block a side: the full general linear group."""
        return cls.blocked(m, m, n, side, n)

    @cached_property
    def left_runs(self) -> Tuple[Run, ...]:
        """Maximal runs of equal-size consecutive left blocks: one stored stack each."""
        return _runs(self.left_sizes, self.m)

    @cached_property
    def right_runs(self) -> Optional[Tuple[Run, ...]]:
        return _runs(self.right_sizes, self.n) if self.side == "both" else None

    @cached_property
    def left_blocks(self):
        return _bounds(self.left_runs)

    @cached_property
    def right_blocks(self):
        return None if self.side == "left" else _bounds(self.right_runs)

    def identity(self, dtype=complex):
        """The identity element, its stacks of the given dtype: float64 for a run on a
        real input, where every element of the descent stays real."""
        def eye(runs):
            return [np.tile(np.eye(r.size, dtype=dtype), (r.count, 1, 1)) for r in runs]

        return GroupElement._from_blocks(self, eye(self.left_runs),
                                         self.right_runs and eye(self.right_runs))


def _bounds(runs):
    return tuple((a, a + r.size) for r in runs for a in range(r.start, r.stop, r.size))


def split_blocks(vals, runs):
    """Entries in block_triplets order as one (count, size, size) stack per run."""
    out, start = [], 0
    for r in runs:
        stop = start + r.count * r.size**2
        out.append(vals[start:stop].reshape(r.count, r.size, r.size))
        start = stop
    return out


def _square(mat, run):
    """The run's square of mat as a (count, size, count, size) view; [k, :, k] are its blocks."""
    sq = mat[run.start:run.stop, run.start:run.stop]
    return sq.reshape(run.count, run.size, run.count, run.size)


def _stacks(mat, runs, size, what, exact=False):
    """The diagonal blocks of a dense size x size matrix; with exact, none may be elsewhere."""
    mat = as_dense(mat)
    if mat.shape != (size, size):
        raise DimensionMismatchError(f"{what} must be {size}x{size}, got {mat.shape}")
    stacks = [_square(mat, r)[np.arange(r.count), :, np.arange(r.count)] for r in runs]
    if exact and np.count_nonzero(mat) != sum(np.count_nonzero(S) for S in stacks):
        raise DimensionMismatchError(f"{what} has entries outside the block pattern")
    return stacks


def _dense(stacks, runs, size):
    if stacks is None:
        return None
    out = np.zeros((size, size), dtype=np.result_type(*stacks))
    for S, r in zip(stacks, runs):
        _square(out, r)[np.arange(r.count), :, np.arange(r.count)] = S
    out.setflags(write=False)
    return out


class _Sides:
    """Block stacks for each side of a scheme (see the module doc); right is
    None for left-only schemes, and a missing second dense matrix of a
    two-sided scheme is the subclass's neutral matrix."""

    def __init__(self, scheme, first, second=None):
        right = None
        if scheme.side == "both":
            second = self._neutral(scheme.n) if second is None else second
            right = _stacks(second, scheme.right_runs, scheme.n, self._names[1], exact=True)
        self._hold(scheme, _stacks(first, scheme.left_runs, scheme.m, self._names[0], True), right)

    def _hold(self, scheme, left, right):
        self.scheme = scheme
        self.left = tuple(left)
        self.right = None if right is None else tuple(right)
        for S in self.left + (self.right or ()):
            S.setflags(write=False)

    @classmethod
    def _from_blocks(cls, scheme, left, right=None):
        """An instance holding the given stacks, unchecked: the group's own constructor."""
        obj = cls.__new__(cls)
        obj._hold(scheme, left, right)
        return obj

    def _dense_left(self):
        return _dense(self.left, self.scheme.left_runs, self.scheme.m)

    def _dense_right(self):
        return _dense(self.right, self.scheme.right_runs, self.scheme.n)


class GroupElement(_Sides):
    """A point (X, Y) of the group; Y is None for left-only schemes."""

    _names = ("X", "Y")
    _neutral = staticmethod(np.eye)
    X = cached_property(_Sides._dense_left)
    Y = cached_property(_Sides._dense_right)

    def __init__(self, scheme: GroupScheme, X, Y=None):
        super().__init__(scheme, X, Y)


class LieDirection(_Sides):
    """Hermitian block-diagonal tangent direction (H1, H2); H2 is None for left-only."""

    _names = ("H1", "H2")
    _neutral = staticmethod(lambda n: np.zeros((n, n)))
    H1 = cached_property(_Sides._dense_left)
    H2 = cached_property(_Sides._dense_right)

    def __init__(self, scheme: GroupScheme, H1, H2=None):
        super().__init__(scheme, H1, H2)

    @property
    def norm(self):
        """Norm under the real Frobenius inner product on the pair."""
        return math.sqrt(sum(np.linalg.norm(S) ** 2 for S in self.left + (self.right or ())))

    def scaled(self, c):
        right = self.right and [c * S for S in self.right]
        return LieDirection._from_blocks(self.scheme, [c * S for S in self.left], right)


class WeightData(NamedTuple):
    """Weight norm N and weight margin lower bound gamma of the group action."""

    weight_norm: float
    weight_margin: float


def weight_data(scheme: GroupScheme) -> WeightData:
    """Constants controlling smoothness (2 N^2) and the duality certificate."""
    if scheme.side == "left":
        return WeightData(math.sqrt(2.0), scheme.m ** -1.5)
    return WeightData(2.0, (scheme.m + scheme.n) ** -1.5)


def _adjoint(S):
    return S.conj().transpose(0, 2, 1)


def project_blocks(scheme: GroupScheme, left, right=None) -> LieDirection:
    """project_to_lie of the block-diagonal matrices whose diagonal blocks are
    the stacks left (and right): the Hermitian part of every block."""
    return LieDirection._from_blocks(scheme, [_hermitian(S) for S in left],
                                     right and [_hermitian(S) for S in right])


def _hermitian(S):
    """The Hermitian part of every block of a stack, a new array in the stack's
    dtype: of a 1x1 block, exactly its real part."""
    return S.real.astype(S.dtype) if S.shape[-1] == 1 else 0.5 * (S + _adjoint(S))


def project_to_lie(scheme: GroupScheme, M1, M2=None) -> LieDirection:
    """Orthogonal projection onto the Hermitian part of the Lie algebra.

    Entries outside the block pattern are zeroed and each retained block is
    Hermitian-symmetrized; this is the orthogonal projection under the real
    Frobenius inner product.  For the diagonal torus it reduces to taking the
    real part of the diagonal.
    """
    right = None
    if scheme.side == "both":
        if M2 is None:
            raise DimensionMismatchError("two-sided scheme needs M2")
        right = _stacks(M2, scheme.right_runs, scheme.n, "M2")
    return project_blocks(scheme, _stacks(M1, scheme.left_runs, scheme.m, "M1"), right)


def _bmm(a, b):
    """a @ b on stacks; a broadcast product when the inner dimension is one."""
    return a * b if a.shape[-1] == 1 else a @ b


def _expm_times(H, X, step):
    """exp(step H) X per block: Hermitian eigendecomposition, a scalar exp for 1x1 blocks."""
    if H.shape[-1] == 1:
        return np.exp(step * H) * X
    w, v = np.linalg.eigh(H)
    return ((v * np.exp(step * w)[:, None, :]) @ _adjoint(v)) @ X


def exp_action(g: GroupElement, H: LieDirection, step: float) -> GroupElement:
    """One-parameter flow (exp(step H1) X, exp(step H2) Y).

    Exponentials are exact per block via Hermitian eigendecomposition (a
    scalar exp for 1x1 blocks, real or complex as the direction's stack).
    No repolarization happens here, so flowing twice along the same
    direction composes exactly.
    """
    if H.scheme is not g.scheme and H.scheme != g.scheme:
        raise DimensionMismatchError("direction and element schemes differ")
    left = [_expm_times(h, x, step) for h, x in zip(H.left, g.left)]
    right = g.right and [_expm_times(h, y, step) for h, y in zip(H.right, g.right)]
    return GroupElement._from_blocks(g.scheme, left, right)


def _check_blocks(run, singular):
    """Raise SingularBlockError naming the first block flagged in singular."""
    bad = np.flatnonzero(singular)
    if bad.size:
        a, s = run.start + int(bad[0]) * run.size, run.size
        raise SingularBlockError(f"singular {s}x{s} block at {a} (rows {a}:{a + s})")


def _inverse(S, run):
    """The blockwise inverse of a stack."""
    if run.size == 1:
        if not S.all():
            _check_blocks(run, S == 0)
        return 1.0 / S
    try:
        return np.linalg.inv(S)
    except np.linalg.LinAlgError:
        _check_blocks(run, np.linalg.slogdet(S)[0] == 0)
        raise


def block_triplets(stacks, runs, invert=False):
    """Rows, columns and values of the entries of the block-diagonal matrix held
    in stacks (or of its inverse): block after block and row-major within each
    block, which is also row-major order overall and split_blocks' order."""
    rows, cols = [], []
    for r in runs:
        k, i, j = np.indices((r.count, r.size, r.size)).reshape(3, -1)
        rows.append(r.start + k * r.size + i)
        cols.append(r.start + k * r.size + j)
    if invert:
        stacks = [_inverse(S, r) for S, r in zip(stacks, runs)]
    return np.concatenate(rows), np.concatenate(cols), np.concatenate([S.ravel() for S in stacks])


def _times(stacks, runs, a):
    """M a for the block-diagonal M held in stacks, one row slab per run."""
    out = np.empty(a.shape, dtype=np.result_type(a, *stacks))
    for S, r in zip(stacks, runs):
        rows = a[r.start:r.stop].reshape(r.count, r.size, -1)
        out[r.start:r.stop] = _bmm(S, rows).reshape(r.count * r.size, -1)
    return out


def _times_inverse(a, stacks, runs):
    """a M^-1 for the block-diagonal M held in stacks, one column slab per run."""
    out = np.empty(a.shape, dtype=np.result_type(a, *stacks))
    k = a.shape[0]
    for S, r in zip(stacks, runs):
        cols = a[:, r.start:r.stop].reshape(k, r.count, r.size).transpose(1, 0, 2)
        out[:, r.start:r.stop] = _bmm(cols, _inverse(S, r)).transpose(1, 0, 2).reshape(k, -1)
    return out


def apply(g: GroupElement, A) -> np.ndarray:
    """Group action on a matrix: X A Y^-1 (or X A for left-only schemes).

    X and Y act through their diagonal blocks, so no m x m product is formed.
    """
    a = as_dense(A)
    sch = g.scheme
    if a.shape[0] != sch.m:
        raise DimensionMismatchError(f"matrix has {a.shape[0]} rows, scheme expects {sch.m}")
    if sch.side == "left":
        return _times(g.left, sch.left_runs, a)
    if a.shape[1] != sch.n:
        raise DimensionMismatchError(f"matrix has {a.shape[1]} cols, scheme expects {sch.n}")
    return _times_inverse(_times(g.left, sch.left_runs, a), g.right, sch.right_runs)


def apply_dual(g: GroupElement, b) -> np.ndarray:
    """Action on the second matrix of a cross pair: Y b X^-1 (b X^-1 for left-only schemes)."""
    b = as_dense(b)
    sch = g.scheme
    if sch.side == "both":
        if b.shape[0] != sch.n:
            raise DimensionMismatchError(f"matrix has {b.shape[0]} rows, scheme expects {sch.n}")
        b = _times(g.right, sch.right_runs, b)
    if b.shape[1] != sch.m:
        raise DimensionMismatchError(f"matrix has {b.shape[1]} cols, scheme expects {sch.m}")
    return _times_inverse(b, g.left, sch.left_runs)


def congruence(g: GroupElement, L, S):
    """The left stacks (X_b L_b)(X_b L_b)* and (S_b X_b^-1)* (S_b X_b^-1), one
    per run of left blocks.

    L and S hold factors of the diagonal blocks of the Gram matrices,
    A A* = L L* and D* D = S* S, stacked like g.left; the results are the
    same blocks for X A and D X^-1, so a left-only state reads them without
    acting on A or D.  Their diagonals are sums of squares.
    """
    T, U = [], []
    for x, l, s, r in zip(g.left, L, S, g.scheme.left_runs):  # 1x1: the adjoint is the conjugate
        f, h = _bmm(x, l), _bmm(s, _inverse(x, r))
        T.append(f * f.conj() if r.size == 1 else f @ _adjoint(f))
        U.append(h.conj() * h if r.size == 1 else _adjoint(h) @ h)
    return T, U


def _polar(X, run):
    """Hermitian PD factor P of X = U P per block, (X* X)^(1/2); |x| for 1x1 blocks.

    The eigendecomposition of X* X squares the condition number of a block,
    so it gives P only within the budget eps cond(X* X) <= 1e-12 that the
    Cholesky entry of ``optimize`` keeps, checked on every block of the run.
    A run outside it takes P from the SVD of X, accurate to eps cond(X)
    (Higham, SIAM J. Sci. Stat. Comput. 1986), and raises SingularBlockError
    for a block with sigma_min <= size eps sigma_max.
    """
    if run.size == 1:
        _check_blocks(run, X == 0)
        return np.abs(X).astype(X.dtype, copy=False)
    eps = np.finfo(float).eps
    w, v = np.linalg.eigh(_adjoint(X) @ X)
    if np.all((w[:, 0] > 0) & (eps * w[:, -1] <= 1e-12 * w[:, 0])):
        return (v * np.sqrt(w)[:, None, :]) @ _adjoint(v)
    _, s, vh = np.linalg.svd(X)
    _check_blocks(run, s[:, -1] <= s[:, 0] * eps * run.size)
    return (_adjoint(vh) * s[:, None, :]) @ vh


def repolarize(g: GroupElement) -> GroupElement:
    """Replace (X, Y) by the Hermitian PD polar factors of the same cosets.

    X = U P with U unitary leaves all condition numbers of the transformed
    matrix unchanged, so swapping X for P moves within the level set of the
    objective while keeping the element Hermitian positive definite.

    A descent calls it once, on the element it returns
    (``optimize._descend``), and never between steps: every state it reads
    is unitarily equivariant, from the entry inverse, Gram factors, squared
    moduli, a pair, the thin SVD of B or the unitarily invariant norms of a
    polynomial system.  The gradient at U P is U H U*, and
    exp(-s U H U*) U P = U exp(-s H) P, so steps taken without it pass
    through the same cosets, and one call on the last element gives the
    representative that a call after every step would.  A descent
    rejects a singular candidate when its state raises instead.
    P is accurate to about eps cond(X) per block, from X* X only where that
    squares no more than ``_polar``'s budget allows, else from the SVD of X;
    a block too close to singular raises SingularBlockError.
    """
    sch = g.scheme
    left = [_polar(x, r) for x, r in zip(g.left, sch.left_runs)]
    right = g.right and [_polar(y, r) for y, r in zip(g.right, sch.right_runs)]
    return GroupElement._from_blocks(sch, left, right)
