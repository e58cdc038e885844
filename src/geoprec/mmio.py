"""Matrix Market reader and writer.

Supports coordinate and array formats with real, complex, integer, and
pattern fields and general/symmetric/hermitian/skew-symmetric storage.
Symmetric variants are expanded to full storage on load; pattern entries
become 1.0.  Real, integer and pattern fields are parsed to float64, and a
ComplexMatrix stores a complex field with no nonzero imaginary part as
float64 too.  Values are written with 17 significant digits so a write/read
round trip is bit exact.

The reader takes the file in one read and parses its data section in chunks
of about 64 KiB of whole lines (``_CHUNK_BYTES``): each chunk is split into
tokens by ``str.split``, converted by ``map(int, ...)`` and ``map(float, ...)``
into numpy arrays, and checked with vectorized tests of its field counts,
bounds and finiteness.  Only a chunk that fails a check is parsed again line
by line, to name the first failing line.  So besides the file's bytes and the
arrays it returns, a read holds the Python objects of one chunk at a time,
some 10^4 tokens, where one object per entry would grow with the file.  The
writer formats ``_BLOCK`` entries per ``%`` call, with the same bound.
"""

import itertools

import numpy as np

from .errors import NonFiniteInputError, ParseError, UnsupportedQualifierError
from .matrix import ComplexMatrix

__all__ = ["read_matrix", "write_matrix"]

_WIDTHS = {"real": 1, "integer": 1, "complex": 2, "pattern": 0}  # values per entry
_MIRRORS = {"symmetric": lambda v: v, "hermitian": np.conj, "skew-symmetric": lambda v: -v}
_SYMMETRIES = ("general", *_MIRRORS)
_CHUNK_BYTES = 1 << 16  # whole lines of the data section parsed at a time
_BLOCK = 4096  # entries formatted per write
# str.split's whitespace, by byte: it separates tokens and makes a line blank
_SPACE = np.array([b < 128 and chr(b).isspace() for b in range(256)])


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


def _tokens(chunk, lines_needed=True):
    """The chunk-relative line of each token of a chunk's data lines, those
    neither blank nor comments, and the tokens.  The lines are None when not
    needed and the chunk holds no "%", as then every line is a data line."""
    tokens = chunk.decode("ascii").split()
    if not lines_needed and b"%" not in chunk:
        return None, tokens
    b = np.frombuffer(chunk, np.uint8)
    space = _SPACE[b]
    starts = np.flatnonzero(~space & np.concatenate(([True], space[:-1])))
    lines = np.searchsorted(np.flatnonzero(b == 10), starts)
    if b"%" in chunk:
        first = np.concatenate(([True], lines[1:] != lines[:-1]))
        data = ~np.isin(lines, lines[first & (b[starts] == 37)])  # 37 is "%"
        lines, tokens = lines[data], list(itertools.compress(tokens, data))
    return lines, tokens


def _floats(tokens):
    try:
        values = np.fromiter(map(float, tokens), float, len(tokens))
    except ValueError:
        raise ValueError(f"bad value: {' '.join(tokens)}") from None
    if not np.isfinite(values).all():
        raise ValueError(f"non-finite value: {' '.join(tokens)}")
    return values


def _parse(chunk, fmt, field, rows, cols):
    """The entries in a chunk of whole lines: (values,) of column-major array
    data, (rows, cols, values) of coordinate data.  A failed check raises
    ValueError, whose message fits the failing line when the chunk is that one
    line."""
    width = _WIDTHS[field]
    k = 2 + width if fmt == "coordinate" else width  # tokens per entry
    lines, tokens = _tokens(chunk, lines_needed=k > 1)
    if k > 1:
        groups = lines[: len(lines) // k * k].reshape(-1, k)
        whole = len(lines) % k == 0 and (groups[:, 0] == groups[:, -1]).all()
        if fmt == "array" and not whole:
            raise ValueError(f"expected groups of {width} values")
        if fmt == "coordinate" and not (whole and (groups[1:, 0] != groups[:-1, -1]).all()):
            raise ValueError(f"expected {k} fields, found {len(tokens)}")
    if fmt == "array":
        values = _floats(tokens)
        return (values.view(complex) if width == 2 else values,)
    try:
        i, j = (np.fromiter(map(int, tokens[s::k]), np.int64, len(groups)) - 1 for s in (0, 1))
    except (ValueError, OverflowError):  # not an integer, or beyond int64
        raise ValueError(f"bad indices: {chunk.decode('ascii').strip()}") from None
    bad = np.flatnonzero((i < 0) | (i >= rows) | (j < 0) | (j >= cols))
    if bad.size:
        raise ValueError(f"index ({i[bad[0]] + 1}, {j[bad[0]] + 1}) out of bounds")
    if width == 0:
        return i, j, np.ones(len(i))
    v = _floats(tokens[2::k] if width == 1 else
                list(itertools.chain.from_iterable(zip(tokens[2::k], tokens[3::k]))))
    return i, j, v.view(complex) if width == 2 else v


def _data_lines(chunks):
    """The line numbers of the data lines in (first line number, bytes) chunks."""
    return np.concatenate([lineno + np.unique(_tokens(chunk)[0]) for lineno, chunk in chunks]
                          + [np.empty(0, np.int64)])


def _line_end(data, pos):
    """The index of the \\n that ends the line at pos, or len(data)."""
    end = data.find(b"\n", pos)
    return len(data) if end < 0 else end


def _chunks(data, pos, lineno):
    """(first line number, bytes) of pieces of whole lines that tile data[pos:],
    each about _CHUNK_BYTES long unless one line is longer."""
    while pos < len(data):
        end = pos + _CHUNK_BYTES
        if end < len(data):
            cut = data.rfind(b"\n", pos, end)
            end = (cut if cut >= 0 else _line_end(data, end)) + 1
        chunk = data[pos:end]
        yield lineno, chunk
        lineno += chunk.count(b"\n")
        pos = end


def _expanded(i, j, v, symmetry):
    """The entries of full storage.  For a symmetric kind each off-diagonal
    entry is followed by its mirror image, so an entry listed twice still sums
    in file order."""
    if symmetry == "general":
        return i, j, v
    off = i != j
    copies = 1 + off
    i2, j2, v2 = (np.repeat(x, copies) for x in (i, j, v))
    mirror = np.cumsum(copies)[off] - 1
    i2[mirror], j2[mirror], v2[mirror] = j[off], i[off], _MIRRORS[symmetry](v[off])
    return i2, j2, v2


def read_matrix(path) -> ComplexMatrix:
    """Parse a Matrix Market file into a ComplexMatrix (indices 0-based).

    Lines end at \\n, \\r or \\r\\n.  A malformed file raises ParseError naming
    the first failing line, a non-ASCII byte included.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data.isascii():
        at = np.argmax(np.frombuffer(data, np.uint8) >= 128)
        raise ParseError(data.count(b"\n", 0, at) + 1, "non-ASCII byte")
    if not data:
        raise ParseError(1, "empty file")
    end = _line_end(data, 0)
    fmt, field, symmetry = _parse_header(data[:end].decode("ascii"))

    size_line, size_text = 1, ""
    while not size_text or size_text.startswith("%"):
        pos = end + 1
        if pos >= len(data):
            raise ParseError(size_line, "missing size line")
        size_line, end = size_line + 1, _line_end(data, pos)
        size_text = data[pos:end].decode("ascii").strip()
    try:
        if fmt == "coordinate":
            rows, cols, nnz = (int(s) for s in size_text.split())
        else:
            rows, cols = (int(s) for s in size_text.split())
    except ValueError as exc:
        raise ParseError(size_line, f"bad size line: {size_text}") from exc
    if rows < 1 or cols < 1:
        raise ParseError(size_line, f"matrix dimensions must be positive: {size_text}")
    if symmetry != "general" and rows != cols:
        raise ParseError(size_line, f"symmetric {fmt} storage must be square")

    parts = [_parse(b"", fmt, field, rows, cols)]  # empty arrays of the right dtypes
    chunks = _chunks(data, end + 1, size_line + 1)
    for lineno, chunk in chunks:
        try:
            parts.append(_parse(chunk, fmt, field, rows, cols))
        except ValueError:
            if fmt == "coordinate":  # a wrong entry count is reported before any entry
                found = sum(len(p[0]) for p in parts) + len(
                    _data_lines(itertools.chain([(lineno, chunk)], chunks)))
                if found != nnz:
                    raise ParseError(size_line,
                                     f"expected {nnz} entries, found {found}") from None
            for n, line in enumerate(chunk.split(b"\n"), lineno):
                try:
                    _parse(line, fmt, field, rows, cols)
                except ValueError as exc:
                    raise ParseError(n, str(exc)) from None
            raise  # every check reads one line, so some line fails alone
    *ij, v = map(np.concatenate, zip(*parts))

    if fmt == "coordinate":
        if len(v) != nnz:
            raise ParseError(size_line, f"expected {nnz} entries, found {len(v)}")
        return ComplexMatrix.coordinate(rows, cols, *_expanded(*ij, v, symmetry))
    expected = rows * cols if symmetry == "general" else rows * (rows + 1) // 2
    if len(v) != expected:
        lines = _data_lines(_chunks(data, end + 1, size_line + 1))
        raise ParseError(int(lines[-1]) if len(lines) else size_line,
                         f"expected {expected} values, found {len(v)}")
    if symmetry == "general":
        return ComplexMatrix.dense(v.reshape(cols, rows).T)
    j, i = np.triu_indices(rows)  # ascending j, then i >= j
    i, j, v = _expanded(i, j, v, symmetry)
    dense = np.zeros((rows, cols), dtype=v.dtype)
    dense[i, j] = v
    return ComplexMatrix.dense(dense)


def write_matrix(path, a, comment=None):
    """Write a ComplexMatrix or array in Matrix Market format.

    Sparse storage is emitted as coordinate data and dense storage as a
    column-major array; the field is real when the matrix holds real values,
    complex otherwise.  A NaN or infinite entry, which ``read_matrix`` would
    refuse, raises NonFiniteInputError before the file is opened.
    """
    if not isinstance(a, ComplexMatrix):
        a = ComplexMatrix.dense(a)
    if a.is_sparse:
        r, c, entries = a.triplets()
        fmt, size, values = "coordinate", f"{a.rows} {a.cols} {len(entries)}", entries
    else:
        entries = a.to_dense()
        fmt, size, values = "array", f"{a.rows} {a.cols}", entries.T.flat  # column-major
    if not np.isfinite(entries).all():
        raise NonFiniteInputError("matrix entries must be finite")
    real = not np.iscomplexobj(entries)
    line = ("%d %d " if a.is_sparse else "") + ("%.17g\n" if real else "%.17g %.17g\n")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"%%MatrixMarket matrix {fmt} {'real' if real else 'complex'} general\n")
        for text in (comment or "").splitlines():
            fh.write(f"% {text}\n")
        fh.write(size + "\n")
        for s in range(0, len(values), _BLOCK):
            v = values[s:s + _BLOCK]
            fields = [v] if real else [v.real, v.imag]
            if a.is_sparse:
                fields = [r[s:s + _BLOCK] + 1, c[s:s + _BLOCK] + 1, *fields]
            args = [None] * (len(v) * len(fields))
            for k, x in enumerate(fields):
                args[k::len(fields)] = x.tolist()
            fh.write(line * len(v) % tuple(args))
