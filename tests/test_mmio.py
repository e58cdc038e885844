"""The bulk Matrix Market reader and writer: round trips across chunk boundaries,
the line named by a bad token, and the memory a read or write holds."""

import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geoprec.errors import NonFiniteInputError, ParseError
from geoprec.matrix import ComplexMatrix
from geoprec.mmio import read_matrix, write_matrix

_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
_KINDS = ("general", "symmetric", "hermitian", "skew-symmetric")
_MIRRORS = {"symmetric": lambda v: v, "hermitian": np.conj, "skew-symmetric": lambda v: -v}
_BAD_TOKENS = (b"x", b"nan", b"inf", b"-1e999", b"1.0.0", b"0x10", b"--1", b"1e")


def _values(rng, n, complex_field):
    """n values over many binades, with some zeros, negative zeros and subnormals."""
    v = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    v[rng.uniform(size=n) < 0.1] = 0.0
    v[rng.uniform(size=n) < 0.05] = -0.0
    v[rng.uniform(size=n) < 0.05] = 5e-324 * rng.integers(1, 1000)
    if complex_field:
        return v + 1j * _values(rng, n, False)
    return v


@st.composite
def _matrices(draw):
    """(expected ComplexMatrix, text lines or None) of one Matrix Market file.

    General storage is left to write_matrix (None); the symmetric kinds list
    the lower triangle, formatted here as write_matrix formats values.  Sizes
    run from 1x1 to files of over 200 KB, past several 64 KiB chunks.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind, sparse = draw(st.sampled_from(_KINDS)), draw(st.booleans())
    complex_field = draw(st.booleans())
    rows = draw(st.integers(1, 70))
    cols = draw(st.integers(1, 70)) if kind == "general" else rows
    density = draw(st.sampled_from([0.05, 0.5, 1.0]))
    if kind == "general" and sparse:
        k = int(density * rows * cols) + 1
        r, c = rng.integers(0, rows, k), rng.integers(0, cols, k)
        return ComplexMatrix.coordinate(rows, cols, r, c, _values(rng, k, complex_field)), None
    if kind == "general":
        return ComplexMatrix.dense(_values(rng, rows * cols, complex_field)
                                   .reshape(rows, cols)), None
    j, i = np.triu_indices(rows)  # the lower triangle, column by column
    if sparse:
        keep = rng.uniform(size=len(i)) < density
        keep[0] = True
        i, j = i[keep], j[keep]
    v = _values(rng, len(i), complex_field)
    if sparse:
        v[v == 0] = 1.0  # a stored zero is dropped, so the read holds none
    full = np.zeros((rows, rows), dtype=v.dtype)
    full[i, j] = v
    off = i != j
    full[j[off], i[off]] = _MIRRORS[kind](v[off])
    fmt = "coordinate" if sparse else "array"
    field = "complex" if complex_field else "real"
    lines = [f"%%MatrixMarket matrix {fmt} {field} {kind}",
             f"{rows} {rows} {len(v)}" if sparse else f"{rows} {rows}"]
    value = "%.17g %.17g" if complex_field else "%.17g"
    for a, b, x in zip(i.tolist(), j.tolist(), v.tolist()):
        parts = (x.real, x.imag) if complex_field else (x,)
        lines.append((f"{a + 1} {b + 1} " if sparse else "") + value % parts)
    if sparse:
        r, c = np.nonzero(full)
        return ComplexMatrix.coordinate(rows, rows, r, c, full[r, c]), lines
    return ComplexMatrix.dense(full), lines


def _noisy_file(draw, path):
    """Draw a matrix and write it to path, with comment and blank lines put
    among its data lines and some lines ended by CRLF.  Returns the matrix and
    the 1-based number of each data line."""
    want, lines = draw(_matrices())
    if lines is None:
        write_matrix(path, want)
        lines = path.read_text().splitlines()
    inserts = draw(st.dictionaries(st.integers(2, len(lines) - 1),
                                   st.sampled_from(["% note", "", "   ", " \t% indented", "%"]),
                                   max_size=5)) if len(lines) > 2 else {}
    out, numbers = lines[:2], []
    for n, line in enumerate(lines[2:], 2):
        if n in inserts:
            out.append(inserts[n])
        numbers.append(len(out) + 1)
        out.append(line)
    crlf = draw(st.lists(st.booleans(), min_size=len(out), max_size=len(out)))
    path.write_bytes("".join(line + ("\r\n" if c else "\n")
                             for line, c in zip(out, crlf)).encode("ascii"))
    return want, numbers


def _same(got, want):
    assert got.is_sparse == want.is_sparse
    if want.is_sparse:
        for a, b in zip(got.triplets(), want.triplets()):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    got, want = got.to_dense(), want.to_dense()
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@_PROPERTY
@given(st.data())
def test_read_matrix_returns_what_was_written(tmp_path_factory, data):
    p = tmp_path_factory.mktemp("rt") / "m.mtx"
    want, _ = _noisy_file(data.draw, p)
    _same(read_matrix(p), want)


@_PROPERTY
@given(st.data())
def test_a_bad_token_names_its_line(tmp_path_factory, data):
    p = tmp_path_factory.mktemp("bad") / "m.mtx"
    _, numbers = _noisy_file(data.draw, p)
    assume(numbers)
    line = data.draw(st.sampled_from(numbers))
    file_lines = p.read_bytes().split(b"\n")
    tokens = file_lines[line - 1].split()
    tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(st.sampled_from(_BAD_TOKENS))
    file_lines[line - 1] = b" ".join(tokens)
    p.write_bytes(b"\n".join(file_lines))
    with pytest.raises(ParseError) as info:
        read_matrix(p)
    assert info.value.line == line


_COORD = "%%MatrixMarket matrix coordinate real general\n"


@pytest.mark.parametrize("text,line", [
    (_COORD + "2 2 2\n1 1 1.0 2 2 2.0\n2 2 2.0\n", 3),
    ("%%MatrixMarket matrix array complex general\n1 2\n1.0\n2.0 3.0 4.0\n", 3),
    (_COORD + "2 2 1\n1 1 1.0 % note\n", 3),
    ("%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2 1.0\n", 4),
    (_COORD + "2 2 3\n1 1 x\n% note\n2 2 1.0\n", 2),
    (_COORD + "2 2 2\n1 1 1.0\n99999999999999999999 1 1.0\n", 4),
], ids=["two-entries-on-one-line", "complex-pair-split", "trailing-comment",
        "pattern-extra-field", "wrong-count-before-bad-entry", "index-beyond-int64"])
def test_read_matrix_checks_each_line_of_a_chunk(tmp_path, text, line):
    """Token counts that are right for the chunk as a whole are still checked
    line by line, an index beyond int64 is out of bounds, and a wrong entry
    count is named before any bad entry."""
    p = tmp_path / "bad.mtx"
    p.write_text(text)
    with pytest.raises(ParseError) as info:
        read_matrix(p)
    assert info.value.line == line


@pytest.mark.parametrize("text", [
    "%%MatrixMarket matrix coordinate real skew-symmetric\n3 2 1\n3 1 1.0\n",
    "%%MatrixMarket matrix coordinate real symmetric\n3 2 1\n2 1 1.0\n",
    "%%MatrixMarket matrix array real hermitian\n% note\n3 2\n1.0\nx\n",
], ids=["coordinate-skew-symmetric", "coordinate-symmetric", "array-before-bad-value"])
def test_read_matrix_symmetric_storage_must_be_square(tmp_path, text):
    """A symmetric kind of storage with rows != cols is refused at its size
    line.  The coordinate files were read as a 3x2 matrix, or raised a
    DimensionMismatchError with a 0-based index."""
    p = tmp_path / "a.mtx"
    p.write_text(text)
    with pytest.raises(ParseError) as info:
        read_matrix(p)
    size_line = 3 if "% note" in text else 2
    assert str(info.value) == f"line {size_line}: symmetric {text.split()[2]} storage must be square"


def test_read_matrix_splits_tokens_at_every_ascii_whitespace(tmp_path):
    """\\x0b, \\x0c and \\x1c-\\x1f separate tokens, and make a line blank, as str.split has it."""
    p = tmp_path / "ws.mtx"
    p.write_text(_COORD + "2 2 2\n\x1c1\x0b1\x0c1.5\x1d\n\x1f\n2\x1e2\t-2.5\n")
    assert np.array_equal(read_matrix(p).to_dense(), [[1.5, 0.0], [0.0, -2.5]])


def _benchmark_inputs():
    """The seed-1 inputs of the benchmark's dense and sparse-estimator workloads."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    inputs = workloads.generate("dense", 1) + workloads.generate("sparse-estimator", 1)
    return {inp.name: inp.data for inp in inputs}


def _peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name,read_mb,write_mb", [("c0", 3.0, 1.5), ("s0", 2.25, 1.5)])
def test_read_and_write_hold_little_beside_the_matrix(tmp_path, name, read_mb, write_mb):
    """A 200x200 array file (c0, 0.8 MB) and a coordinate file of 6000 entries
    (s0): a per-line parse held 8.9 and 2.25 MB reading them."""
    a = _benchmark_inputs()[name]
    p = tmp_path / f"{name}.mtx"
    assert _peak_mb(lambda: write_matrix(p, a)) <= write_mb
    assert _peak_mb(lambda: read_matrix(p)) <= read_mb
    _same(read_matrix(p), a)


@pytest.mark.parametrize("matrix", [
    ComplexMatrix.dense(np.array([[1.0, np.nan], [0.0, 1.0]])),
    ComplexMatrix.dense(np.array([[1.0, complex(2.0, np.inf)], [0.0, 1.0]])),
    ComplexMatrix.coordinate(2, 2, [0, 1], [0, 1], [-np.inf, 1.0]),
], ids=["dense-nan", "dense-complex-inf", "coordinate-inf"])
def test_write_matrix_refuses_a_non_finite_entry(tmp_path, matrix):
    """read_matrix refuses a NaN or infinite value, so write_matrix raises
    before the file is opened: no file is created, and an existing one keeps
    its bytes."""
    new, old = tmp_path / "new.mtx", tmp_path / "old.mtx"
    write_matrix(old, np.eye(2))
    before = old.read_bytes()
    for path in (new, old):
        with pytest.raises(NonFiniteInputError):
            write_matrix(path, matrix)
    assert not new.exists() and old.read_bytes() == before
