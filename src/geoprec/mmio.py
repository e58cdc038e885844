"""Matrix Market reader and writer.

Supports coordinate and array formats with real, complex, integer, and
pattern fields and general/symmetric/hermitian/skew-symmetric storage.
Symmetric variants are expanded to full storage on load; pattern entries
become 1.0.  Values are written with 17 significant digits so a write/read
round trip is bit exact.
"""

import cmath
import itertools

import numpy as np

from .errors import ParseError, UnsupportedQualifierError
from .matrix import ComplexMatrix

__all__ = ["read_matrix", "write_matrix"]

_WIDTHS = {"real": 1, "integer": 1, "complex": 2, "pattern": 0}  # values per entry
_MIRRORS = {"symmetric": lambda v: v, "hermitian": np.conj, "skew-symmetric": lambda v: -v}
_SYMMETRIES = ("general", *_MIRRORS)


def _parse_header(line):
    parts = line.strip().split()
    if len(parts) != 5 or parts[0] != "%%MatrixMarket":
        raise ParseError(1, "malformed MatrixMarket header")
    _, obj, fmt, field, symmetry = (p.lower() for p in parts)
    if obj != "matrix":
        raise UnsupportedQualifierError(f"unsupported object {obj!r}")
    if fmt not in ("coordinate", "array"):
        raise UnsupportedQualifierError(f"unsupported format {fmt!r}")
    if field not in _WIDTHS:
        raise UnsupportedQualifierError(f"unsupported field {field!r}")
    if symmetry not in _SYMMETRIES:
        raise UnsupportedQualifierError(f"unsupported symmetry {symmetry!r}")
    if fmt == "array" and field == "pattern":
        raise UnsupportedQualifierError("array format cannot carry a pattern field")
    return fmt, field, symmetry


def _parse_value(tokens, field, lineno):
    try:
        if field == "complex":
            value = complex(float(tokens[0]), float(tokens[1]))
        elif field == "pattern":
            return 1.0 + 0.0j
        else:
            value = complex(float(tokens[0]))
    except (ValueError, IndexError) as exc:
        raise ParseError(lineno, f"bad value: {' '.join(tokens)}") from exc
    if not cmath.isfinite(value):
        raise ParseError(lineno, f"non-finite value: {' '.join(tokens)}")
    return value


def _ascii_lines(path):
    """The file's lines, split at \\n, \\r and \\r\\n as text-mode reads split
    them; a non-ASCII byte is a ParseError naming its line."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for lineno, line in enumerate(lines, 1):
        if not line.isascii():
            raise ParseError(lineno, "non-ASCII byte")
    return [line.decode("ascii") for line in lines]


def _coordinate_entries(lines, rows, cols, field):
    """Row indices, column indices and values of the listed entries."""
    width = _WIDTHS[field]
    i, j, v = [], [], []
    for ln, text in lines:
        tokens = text.split()
        if len(tokens) != 2 + width:
            raise ParseError(ln, f"expected {2 + width} fields, found {len(tokens)}")
        try:
            r, c = int(tokens[0]) - 1, int(tokens[1]) - 1
        except ValueError as exc:
            raise ParseError(ln, f"bad indices: {text}") from exc
        if not (0 <= r < rows and 0 <= c < cols):
            raise ParseError(ln, f"index ({r + 1}, {c + 1}) out of bounds")
        i.append(r)
        j.append(c)
        v.append(_parse_value(tokens[2:], field, ln))
    return i, j, v


def _array_entries(lines, rows, cols, field, symmetry, size_line):
    """Row indices, column indices and values of column-major array data: the
    whole matrix, or the lower triangle for the symmetric kinds."""
    width = _WIDTHS[field]
    v = []
    for ln, text in lines:
        tokens = text.split()
        if len(tokens) % width:
            raise ParseError(ln, f"expected groups of {width} values")
        for k in range(0, len(tokens), width):
            v.append(_parse_value(tokens[k : k + width], field, ln))
    if symmetry != "general" and rows != cols:
        raise ParseError(size_line, "symmetric array storage must be square")
    expected = rows * cols if symmetry == "general" else rows * (rows + 1) // 2
    if len(v) != expected:
        raise ParseError(lines[-1][0] if lines else size_line,
                         f"expected {expected} values, found {len(v)}")
    if symmetry == "general":
        j, i = np.divmod(np.arange(expected), rows)
    else:
        j, i = np.triu_indices(rows)  # ascending j, then i >= j
    return i, j, v


def _expanded(i, j, v, symmetry):
    """The entries of full storage.  For a symmetric kind each off-diagonal
    entry is followed by its mirror image, so an entry listed twice still sums
    in file order."""
    if symmetry == "general":
        return i, j, v
    i, j, v = np.asarray(i), np.asarray(j), np.asarray(v, dtype=complex)
    off = i != j
    copies = 1 + off
    i2, j2, v2 = (np.repeat(x, copies) for x in (i, j, v))
    mirror = np.cumsum(copies)[off] - 1
    i2[mirror], j2[mirror], v2[mirror] = j[off], i[off], _MIRRORS[symmetry](v[off])
    return i2, j2, v2


def read_matrix(path) -> ComplexMatrix:
    """Parse a Matrix Market file into a ComplexMatrix (indices 0-based)."""
    lines = _ascii_lines(path)
    if not lines:
        raise ParseError(1, "empty file")
    fmt, field, symmetry = _parse_header(lines[0])

    body = []
    for lineno, raw in enumerate(lines[1:], 2):
        stripped = raw.strip()
        if stripped and not stripped.startswith("%"):
            body.append((lineno, stripped))
    if not body:
        raise ParseError(len(lines), "missing size line")

    size_line, size_text = body[0]
    sizes = size_text.split()
    try:
        if fmt == "coordinate":
            rows, cols, nnz = (int(s) for s in sizes)
        else:
            rows, cols = (int(s) for s in sizes)
    except ValueError as exc:
        raise ParseError(size_line, f"bad size line: {size_text}") from exc
    if rows < 1 or cols < 1:
        raise ParseError(size_line, f"matrix dimensions must be positive: {size_text}")

    if fmt == "coordinate":
        if len(body) - 1 != nnz:
            raise ParseError(size_line, f"expected {nnz} entries, found {len(body) - 1}")
        i, j, v = _expanded(*_coordinate_entries(body[1:], rows, cols, field), symmetry)
        return ComplexMatrix.sparse(rows, cols, zip(i, j, v))
    i, j, v = _expanded(*_array_entries(body[1:], rows, cols, field, symmetry, size_line),
                        symmetry)
    dense = np.zeros((rows, cols), dtype=complex)
    dense[i, j] = v
    return ComplexMatrix.dense(dense)


def _fmt(x):
    return f"{x:.17g}"


def write_matrix(path, a, comment=None):
    """Write a ComplexMatrix or array in Matrix Market format.

    Sparse storage is emitted as coordinate data and dense storage as a
    column-major array; the field is real when every entry has zero
    imaginary part, complex otherwise.
    """
    if not isinstance(a, ComplexMatrix):
        a = ComplexMatrix.dense(np.asarray(a, dtype=complex))
    if a.is_sparse:
        r, c, entries = a.triplets()
        fmt, size = "coordinate", f"{a.rows} {a.cols} {len(entries)}"
        indices = (f"{i + 1} {j + 1} " for i, j in zip(r.tolist(), c.tolist()))
        values = entries
    else:
        entries = a.to_dense()
        fmt, size = "array", f"{a.rows} {a.cols}"
        indices = itertools.repeat("")
        values = entries.T.flat  # column-major
    real = not entries.imag.any()
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"%%MatrixMarket matrix {fmt} {'real' if real else 'complex'} general\n")
        for line in (comment or "").splitlines():
            fh.write(f"% {line}\n")
        fh.write(size + "\n")
        for index, v in zip(indices, values):
            fh.write(f"{index}{_fmt(v.real)}\n" if real
                     else f"{index}{_fmt(v.real)} {_fmt(v.imag)}\n")
