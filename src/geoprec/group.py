"""Block-diagonal preconditioner groups and their Lie-algebra machinery.

A scheme fixes the structure: a contiguous block partition of the row index
set (and of the column index set for two-sided preconditioning).  Block size
one gives the diagonal torus, a single block the full general linear group.
Group elements are stored as explicit Hermitian positive definite
block-diagonal matrices; tangent directions are Hermitian block-diagonal.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .errors import DimensionMismatchError, SingularBlockError
from .matrix import as_dense

__all__ = [
    "GroupScheme",
    "GroupElement",
    "LieDirection",
    "WeightData",
    "project_to_lie",
    "exp_action",
    "apply",
    "apply_dual",
    "repolarize",
    "weight_data",
]


def _blocks_from_sizes(sizes, total):
    sizes = tuple(int(s) for s in sizes)
    if any(s <= 0 for s in sizes) or sum(sizes) != total:
        raise DimensionMismatchError(f"block sizes {sizes} do not partition {total}")
    out = []
    start = 0
    for s in sizes:
        out.append((start, start + s))
        start += s
    return tuple(out)


def _even_sizes(total, block_size):
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
        _blocks_from_sizes(self.left_sizes, self.m)
        if self.side == "both":
            if self.right_sizes is None:
                raise DimensionMismatchError("two-sided scheme needs right block sizes")
            object.__setattr__(self, "right_sizes", tuple(int(s) for s in self.right_sizes))
            _blocks_from_sizes(self.right_sizes, self.n)
        elif self.right_sizes is not None:
            raise DimensionMismatchError("left-only scheme must not carry right blocks")

    @classmethod
    def diagonal(cls, m, n=None, side="left"):
        n = m if n is None else n
        right = (1,) * n if side == "both" else None
        return cls(side, m, n, (1,) * m, right)

    @classmethod
    def blocked(cls, m, block_size, n=None, side="left", right_block_size=None):
        """Contiguous blocks of the given size; a ragged final block if needed."""
        n = m if n is None else n
        right = None
        if side == "both":
            right = _even_sizes(n, right_block_size or block_size)
        return cls(side, m, n, _even_sizes(m, block_size), right)

    @classmethod
    def full(cls, m, n=None, side="left"):
        n = m if n is None else n
        right = (n,) if side == "both" else None
        return cls(side, m, n, (m,), right)

    @cached_property
    def left_blocks(self):
        return _blocks_from_sizes(self.left_sizes, self.m)

    @cached_property
    def right_blocks(self):
        if self.side != "both":
            return None
        return _blocks_from_sizes(self.right_sizes, self.n)

    def identity(self):
        y = np.eye(self.n, dtype=complex) if self.side == "both" else None
        return GroupElement(self, np.eye(self.m, dtype=complex), y)


def _check_square(mat, size, what):
    if mat.shape != (size, size):
        raise DimensionMismatchError(f"{what} must be {size}x{size}, got {mat.shape}")


def _freeze(arr):
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GroupElement:
    """A point (X, Y) of the group; Y is None for left-only schemes."""

    scheme: GroupScheme
    X: np.ndarray
    Y: Optional[np.ndarray] = None

    def __post_init__(self):
        x = _freeze(self.X)
        _check_square(x, self.scheme.m, "X")
        object.__setattr__(self, "X", x)
        if self.scheme.side == "both":
            y = _freeze(self.Y if self.Y is not None else np.eye(self.scheme.n))
            _check_square(y, self.scheme.n, "Y")
            object.__setattr__(self, "Y", y)
        else:
            object.__setattr__(self, "Y", None)


@dataclass(frozen=True)
class LieDirection:
    """Hermitian block-diagonal tangent direction (H1, H2); H2 is None for left-only."""

    scheme: GroupScheme
    H1: np.ndarray
    H2: Optional[np.ndarray] = None

    def __post_init__(self):
        h1 = _freeze(self.H1)
        _check_square(h1, self.scheme.m, "H1")
        object.__setattr__(self, "H1", h1)
        if self.scheme.side == "both":
            h2 = _freeze(self.H2 if self.H2 is not None else np.zeros((self.scheme.n, self.scheme.n)))
            _check_square(h2, self.scheme.n, "H2")
            object.__setattr__(self, "H2", h2)
        else:
            object.__setattr__(self, "H2", None)

    @property
    def norm(self):
        """Norm under the real Frobenius inner product on the pair."""
        s = np.linalg.norm(self.H1) ** 2
        if self.H2 is not None:
            s += np.linalg.norm(self.H2) ** 2
        return math.sqrt(s)

    def scaled(self, c):
        h2 = None if self.H2 is None else c * self.H2
        return LieDirection(self.scheme, c * self.H1, h2)


class WeightData(NamedTuple):
    """Weight norm N and weight margin lower bound gamma of the group action."""

    weight_norm: float
    weight_margin: float


def weight_data(scheme: GroupScheme) -> WeightData:
    """Constants controlling smoothness (2 N^2) and the duality certificate."""
    if scheme.side == "left":
        return WeightData(math.sqrt(2.0), scheme.m ** -1.5)
    return WeightData(2.0, (scheme.m + scheme.n) ** -1.5)


def _project_one(mat, blocks, size):
    out = np.zeros((size, size), dtype=complex)
    for a, b in blocks:
        blk = mat[a:b, a:b]
        out[a:b, a:b] = 0.5 * (blk + blk.conj().T)
    return out


def project_to_lie(scheme: GroupScheme, M1, M2=None) -> LieDirection:
    """Orthogonal projection onto the Hermitian part of the Lie algebra.

    Entries outside the block pattern are zeroed and each retained block is
    Hermitian-symmetrized; this is the orthogonal projection under the real
    Frobenius inner product.  For the diagonal torus it reduces to taking the
    real part of the diagonal.
    """
    m1 = as_dense(M1)
    _check_square(m1, scheme.m, "M1")
    h1 = _project_one(m1, scheme.left_blocks, scheme.m)
    if scheme.side == "left":
        return LieDirection(scheme, h1)
    if M2 is None:
        raise DimensionMismatchError("two-sided scheme needs M2")
    m2 = as_dense(M2)
    _check_square(m2, scheme.n, "M2")
    h2 = _project_one(m2, scheme.right_blocks, scheme.n)
    return LieDirection(scheme, h1, h2)


def _expm_herm_blocks(H, blocks, size, step):
    out = np.zeros((size, size), dtype=complex)
    for a, b in blocks:
        if b - a == 1:
            out[a, a] = np.exp(step * H[a, a])
        else:
            w, v = np.linalg.eigh(H[a:b, a:b])
            out[a:b, a:b] = (v * np.exp(step * w)) @ v.conj().T
    return out


def _block_matmul(E, X, blocks):
    out = np.zeros_like(X)
    for a, b in blocks:
        out[a:b, a:b] = E[a:b, a:b] @ X[a:b, a:b]
    return out


def exp_action(g: GroupElement, H: LieDirection, step: float) -> GroupElement:
    """One-parameter flow (exp(step H1) X, exp(step H2) Y).

    Exponentials are exact per block via Hermitian eigendecomposition (scalar
    exp for 1x1 blocks).  No repolarization happens here, so flowing twice
    along the same direction composes exactly.
    """
    if H.scheme is not g.scheme and H.scheme != g.scheme:
        raise DimensionMismatchError("direction and element schemes differ")
    sch = g.scheme
    e1 = _expm_herm_blocks(H.H1, sch.left_blocks, sch.m, step)
    x = _block_matmul(e1, g.X, sch.left_blocks)
    if sch.side == "left":
        return GroupElement(sch, x)
    e2 = _expm_herm_blocks(H.H2, sch.right_blocks, sch.n, step)
    y = _block_matmul(e2, g.Y, sch.right_blocks)
    return GroupElement(sch, x, y)


def _times(M, blocks, a):
    """M a for a block-diagonal M, one block at a time; a row scaling on the torus."""
    if len(blocks) == len(M):
        return np.diagonal(M)[:, None] * a
    out = np.empty(a.shape, dtype=complex)
    for lo, hi in blocks:
        out[lo:hi] = M[lo:hi, lo:hi] @ a[lo:hi]
    return out


def _times_inverse(a, M, blocks):
    """a M^-1 for a block-diagonal M, inverting one block at a time."""
    if len(blocks) == len(M):
        d = np.diagonal(M)
        zero = np.flatnonzero(d == 0)
        if zero.size:
            raise SingularBlockError(f"zero 1x1 block at {zero[0]}")
        return a * (1.0 / d)
    out = np.empty(a.shape, dtype=complex)
    for lo, hi in blocks:
        try:
            inv = np.linalg.inv(M[lo:hi, lo:hi])
        except np.linalg.LinAlgError as exc:
            raise SingularBlockError(f"singular block at rows {lo}:{hi}") from exc
        out[:, lo:hi] = a[:, lo:hi] @ inv
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
        return _times(g.X, sch.left_blocks, a)
    if a.shape[1] != sch.n:
        raise DimensionMismatchError(f"matrix has {a.shape[1]} cols, scheme expects {sch.n}")
    return _times_inverse(_times(g.X, sch.left_blocks, a), g.Y, sch.right_blocks)


def apply_dual(g: GroupElement, b) -> np.ndarray:
    """Action on the second matrix of a cross pair: Y b X^-1 (b X^-1 for left-only schemes)."""
    b = as_dense(b)
    sch = g.scheme
    if sch.side == "both":
        b = _times(g.Y, sch.right_blocks, b)
    return _times_inverse(b, g.X, sch.left_blocks)


def _polar_hpd(X, blocks):
    """Hermitian PD factor P of X = U P, computed as (X* X)^(1/2) per block."""
    out = np.zeros_like(X)
    for a, b in blocks:
        blk = X[a:b, a:b]
        w, v = np.linalg.eigh(blk.conj().T @ blk)
        if w[0] <= 0 or w[0] < w[-1] * np.finfo(float).eps * (b - a):
            raise SingularBlockError(f"singular block at rows {a}:{b}")
        out[a:b, a:b] = (v * np.sqrt(w)) @ v.conj().T
    return out


def repolarize(g: GroupElement) -> GroupElement:
    """Replace (X, Y) by the Hermitian PD polar factors of the same cosets.

    X = U P with U unitary leaves all condition numbers of the transformed
    matrix unchanged, so swapping X for P moves within the level set of the
    objective while keeping the element Hermitian positive definite.
    """
    sch = g.scheme
    x = _polar_hpd(g.X, sch.left_blocks)
    if sch.side == "left":
        return GroupElement(sch, x)
    y = _polar_hpd(g.Y, sch.right_blocks)
    return GroupElement(sch, x, y)
