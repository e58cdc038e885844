"""Matrix Market reader and writer.

Supports coordinate and array formats with real, complex, integer, and
pattern fields and general/symmetric/hermitian/skew-symmetric storage.
Symmetric variants are expanded to full storage on load; pattern entries
become 1.0.  Values are written with 17 significant digits so a write/read
round trip is bit exact.
"""

import cmath

import numpy as np

from .errors import ParseError, UnsupportedQualifierError
from .matrix import ComplexMatrix

__all__ = ["read_matrix", "write_matrix"]

_FIELDS = ("real", "complex", "integer", "pattern")
_SYMMETRIES = ("general", "symmetric", "hermitian", "skew-symmetric")


def _parse_header(line):
    parts = line.strip().split()
    if len(parts) != 5 or parts[0] != "%%MatrixMarket":
        raise ParseError(1, "malformed MatrixMarket header")
    _, obj, fmt, field, symmetry = (p.lower() for p in parts)
    if obj != "matrix":
        raise UnsupportedQualifierError(f"unsupported object {obj!r}")
    if fmt not in ("coordinate", "array"):
        raise UnsupportedQualifierError(f"unsupported format {fmt!r}")
    if field not in _FIELDS:
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


def _value_width(field):
    return {"real": 1, "integer": 1, "complex": 2, "pattern": 0}[field]


def read_matrix(path) -> ComplexMatrix:
    """Parse a Matrix Market file into a ComplexMatrix (indices 0-based)."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()
    if not lines:
        raise ParseError(1, "empty file")
    fmt, field, symmetry = _parse_header(lines[0])

    lineno = 1
    body = []
    for raw in lines[1:]:
        lineno += 1
        stripped = raw.strip()
        if not stripped or stripped.startswith("%"):
            continue
        body.append((lineno, stripped))
    if not body:
        raise ParseError(lineno, "missing size line")

    size_line, size_text = body[0]
    sizes = size_text.split()
    try:
        if fmt == "coordinate":
            rows, cols, nnz = (int(s) for s in sizes)
        else:
            rows, cols = (int(s) for s in sizes)
            nnz = None
    except ValueError as exc:
        raise ParseError(size_line, f"bad size line: {size_text}") from exc

    width = _value_width(field)
    triplets = []
    if fmt == "coordinate":
        entries = body[1:]
        if len(entries) != nnz:
            raise ParseError(size_line, f"expected {nnz} entries, found {len(entries)}")
        for ln, text in entries:
            tokens = text.split()
            if len(tokens) != 2 + width:
                raise ParseError(ln, f"expected {2 + width} fields, found {len(tokens)}")
            try:
                i, j = int(tokens[0]) - 1, int(tokens[1]) - 1
            except ValueError as exc:
                raise ParseError(ln, f"bad indices: {text}") from exc
            if not (0 <= i < rows and 0 <= j < cols):
                raise ParseError(ln, f"index ({i + 1}, {j + 1}) out of bounds")
            v = _parse_value(tokens[2:], field, ln)
            triplets.append((i, j, v))
            if symmetry != "general" and i != j:
                if symmetry == "symmetric":
                    triplets.append((j, i, v))
                elif symmetry == "hermitian":
                    triplets.append((j, i, np.conj(v)))
                else:
                    triplets.append((j, i, -v))
        return ComplexMatrix.sparse(rows, cols, triplets)

    # array format: column-major dense, lower triangle only for symmetric kinds
    values = []
    for ln, text in body[1:]:
        for tok_group in _group_tokens(text.split(), width, ln):
            values.append(_parse_value(tok_group, field, ln))
    dense = np.zeros((rows, cols), dtype=complex)
    idx = 0
    if symmetry == "general":
        expected = rows * cols
        if len(values) != expected:
            raise ParseError(body[-1][0], f"expected {expected} values, found {len(values)}")
        for j in range(cols):
            for i in range(rows):
                dense[i, j] = values[idx]
                idx += 1
    else:
        if rows != cols:
            raise ParseError(size_line, "symmetric array storage must be square")
        expected = rows * (rows + 1) // 2
        if len(values) != expected:
            raise ParseError(body[-1][0], f"expected {expected} values, found {len(values)}")
        for j in range(cols):
            for i in range(j, rows):
                v = values[idx]
                idx += 1
                dense[i, j] = v
                if i != j:
                    if symmetry == "symmetric":
                        dense[j, i] = v
                    elif symmetry == "hermitian":
                        dense[j, i] = np.conj(v)
                    else:
                        dense[j, i] = -v
    return ComplexMatrix.dense(dense)


def _group_tokens(tokens, width, lineno):
    if width == 0:
        raise ParseError(lineno, "pattern entries are not valid in array format")
    if len(tokens) % width:
        raise ParseError(lineno, f"expected groups of {width} values")
    for k in range(0, len(tokens), width):
        yield tokens[k : k + width]


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
    sparse = a.is_sparse
    if sparse:
        r, c, v = a.triplets()
        entries = v
    else:
        entries = a.to_dense().ravel()
    field = "real" if np.all(entries.imag == 0) else "complex"

    with open(path, "w", encoding="ascii") as fh:
        fmt = "coordinate" if sparse else "array"
        fh.write(f"%%MatrixMarket matrix {fmt} {field} general\n")
        if comment:
            for line in comment.splitlines():
                fh.write(f"% {line}\n")
        if sparse:
            fh.write(f"{a.rows} {a.cols} {len(v)}\n")
            for i, j, val in zip(r, c, v):
                if field == "real":
                    fh.write(f"{i + 1} {j + 1} {_fmt(val.real)}\n")
                else:
                    fh.write(f"{i + 1} {j + 1} {_fmt(val.real)} {_fmt(val.imag)}\n")
        else:
            dense = a.to_dense()
            fh.write(f"{a.rows} {a.cols}\n")
            for j in range(a.cols):
                for i in range(a.rows):
                    val = dense[i, j]
                    if field == "real":
                        fh.write(f"{_fmt(val.real)}\n")
                    else:
                        fh.write(f"{_fmt(val.real)} {_fmt(val.imag)}\n")
