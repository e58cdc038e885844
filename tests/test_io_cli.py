import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import geoprec
from conftest import complex_gaussian, rng_for
from geoprec.bench import run_matrix_suite
from geoprec.cli import _num, cli_dispatch
from geoprec.errors import (
    DegreeViolationError,
    ParseError,
    SingularBlockError,
    UnsupportedQualifierError,
    ZeroJacobianError,
)
from geoprec.group import GroupScheme
from geoprec.matrix import ComplexMatrix
from geoprec.mmio import read_matrix, write_matrix
from geoprec.optimize import OptimizerConfig, minimize_condition
from geoprec.polysys import PolynomialSystem, local_condition
from geoprec.sysio import read_polysys, write_polysys


def test_read_coordinate_real(tmp_path):
    p = tmp_path / "a.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 3.0\n2 2 4.0\n")
    m = read_matrix(p)
    assert np.allclose(m.to_dense(), np.diag([3.0, 4.0]))


def test_read_hermitian_expansion(tmp_path):
    p = tmp_path / "h.mtx"
    p.write_text(
        "%%MatrixMarket matrix coordinate complex hermitian\n"
        "2 2 2\n1 1 2.0 0.0\n2 1 1.0 -3.0\n"
    )
    m = read_matrix(p).to_dense()
    assert m[0, 1] == np.conj(m[1, 0])
    assert m[1, 0] == 1.0 - 3.0j


def test_read_symmetric_and_skew(tmp_path):
    p = tmp_path / "s.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n2 1 5.0\n")
    m = read_matrix(p).to_dense()
    assert m[0, 1] == m[1, 0] == 5.0
    p2 = tmp_path / "k.mtx"
    p2.write_text("%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 5.0\n")
    m2 = read_matrix(p2).to_dense()
    assert m2[0, 1] == -5.0 and m2[1, 0] == 5.0


def test_read_pattern(tmp_path):
    p = tmp_path / "p.mtx"
    p.write_text("%%MatrixMarket matrix coordinate pattern general\n2 3 2\n1 2\n2 3\n")
    m = read_matrix(p).to_dense()
    assert m[0, 1] == 1.0 and m[1, 2] == 1.0


def test_read_array_format(tmp_path):
    p = tmp_path / "d.mtx"
    p.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
    m = read_matrix(p).to_dense()
    # column-major order
    assert np.allclose(m, [[1.0, 3.0], [2.0, 4.0]])


def test_malformed_header(tmp_path):
    p = tmp_path / "bad.mtx"
    p.write_text("%%NotMatrixMarket nothing\n1 1 1\n1 1 1.0\n")
    with pytest.raises(ParseError) as info:
        read_matrix(p)
    assert info.value.line == 1


def test_unsupported_qualifier(tmp_path):
    p = tmp_path / "bad.mtx"
    p.write_text("%%MatrixMarket matrix coordinate quaternion general\n1 1 1\n1 1 1.0\n")
    with pytest.raises(UnsupportedQualifierError):
        read_matrix(p)


def test_bad_entry_reports_line(tmp_path):
    p = tmp_path / "bad.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real general\n% note\n2 2 2\n1 1 3.0\n2 x 4.0\n")
    with pytest.raises(ParseError) as info:
        read_matrix(p)
    assert info.value.line == 5


def test_roundtrip_sparse_bit_exact(tmp_path):
    rng = rng_for(100)
    triplets = [(i, j, complex(rng.standard_normal(), rng.standard_normal()))
                for i in range(5) for j in range(5) if rng.uniform() < 0.4]
    if not triplets:
        triplets = [(0, 0, 1.23456789012345678 + 0.5j)]
    m = ComplexMatrix.sparse(5, 5, triplets)
    p = tmp_path / "rt.mtx"
    write_matrix(p, m)
    back = read_matrix(p)
    assert np.array_equal(back.to_dense(), m.to_dense())


def test_roundtrip_dense_bit_exact(tmp_path):
    rng = rng_for(101)
    a = complex_gaussian(rng, (3, 4))
    p = tmp_path / "rt.mtx"
    write_matrix(p, a)
    assert np.array_equal(read_matrix(p).to_dense(), a)


@pytest.mark.parametrize("symmetry,expected", [
    ("symmetric", [[1.0, 2.0 + 1.0j], [2.0 + 1.0j, 3.0]]),
    ("hermitian", [[1.0, 2.0 - 1.0j], [2.0 + 1.0j, 3.0]]),
    ("skew-symmetric", [[1.0, -(2.0 + 1.0j)], [2.0 + 1.0j, 3.0]]),
])
def test_read_array_symmetric_kinds(tmp_path, symmetry, expected):
    """Array storage of the symmetric kinds lists the lower triangle column by column."""
    p = tmp_path / "s.mtx"
    p.write_text(f"%%MatrixMarket matrix array complex {symmetry}\n2 2\n1 0\n2 1\n3 0\n")
    m = read_matrix(p)
    assert not m.is_sparse
    assert np.array_equal(m.to_dense(), np.array(expected))


def test_read_symmetric_duplicates_sum_in_file_order(tmp_path):
    """Each mirrored entry sits next to its source, so (2,1) and (1,2) sum the same
    three values in the same order: 1e16 - 1e16 + 1, not 1 + 1e16 - 1e16 = 0."""
    p = tmp_path / "s.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n"
                 "2 1 1e16\n2 1 -1e16\n1 2 1\n")
    assert np.array_equal(read_matrix(p).to_dense(), [[0.0, 1.0], [1.0, 0.0]])


def test_read_array_rejects_pattern_field(tmp_path):
    p = tmp_path / "p.mtx"
    p.write_text("%%MatrixMarket matrix array pattern general\n2 2\n")
    with pytest.raises(UnsupportedQualifierError):
        read_matrix(p)


def test_read_array_bad_value_reports_line(tmp_path):
    p = tmp_path / "d.mtx"
    p.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n% note\n2\nx\n4\n")
    with pytest.raises(ParseError) as info:
        read_matrix(p)
    assert info.value.line == 6


_COORD = "%%MatrixMarket matrix coordinate real general\n"
_ARRAY = "%%MatrixMarket matrix array real general\n"


@pytest.mark.parametrize("text,line", [
    ("%%MatrixMarket matrix coordinate real general\n% caf\u00e9\n1 1 1\n1 1 1.0\n", 2),
    ("%%MatrixMarket matrix array real general\n-1 -1\n1\n", 2),
    ("%%MatrixMarket matrix coordinate real general\n0 2 0\n", 2),
    ("", 1),
    (_COORD + "% a comment\n\n", 3),
    (_COORD + "2 x 1\n1 1 1.0\n", 2),
    (_COORD + "2 2 2\n1 1 1.0\n2 2\n", 4),
    (_COORD + "2 2 1\n3 1 1.0\n", 3),
    (_COORD + "2 2 2\n1 1 1.0\n", 2),
    ("%%MatrixMarket matrix array complex general\n1 1\n1.0 2.0 3.0\n", 3),
    ("%%MatrixMarket matrix array real symmetric\n2 3\n1\n2\n3\n", 2),
    (_ARRAY + "2 2\n1\n2\n% note\n3\n", 6),
    (_ARRAY + "2 2\n", 2),
], ids=["non-ascii", "negative-size", "zero-size", "empty-file", "no-size-line",
        "bad-size-line", "coordinate-field-count",
        "coordinate-index-out-of-bounds", "coordinate-entry-count",
        "array-values-not-in-pairs", "symmetric-array-not-square", "array-value-count",
        "array-without-values"])
def test_read_matrix_rejects_malformed_file(tmp_path, text, line):
    p = tmp_path / "bad.mtx"
    p.write_bytes(text.encode("utf-8"))
    with pytest.raises(ParseError) as info:
        read_matrix(p)
    assert info.value.line == line


@pytest.mark.parametrize("header", [
    "%%MatrixMarket vector coordinate real general",
    "%%MatrixMarket matrix hashed real general",
    "%%MatrixMarket matrix coordinate real triangular",
], ids=["object", "format", "symmetry"])
def test_read_matrix_rejects_unsupported_qualifier(tmp_path, header):
    p = tmp_path / "bad.mtx"
    p.write_text(header + "\n1 1 1\n1 1 1.0\n")
    with pytest.raises(UnsupportedQualifierError):
        read_matrix(p)


_A_THIRD = 1.0 / 3.0


@pytest.mark.parametrize("matrix,comment,expected", [
    (ComplexMatrix.sparse(2, 3, [(0, 2, _A_THIRD), (1, 0, -2.5e-300)]), None,
     "%%MatrixMarket matrix coordinate real general\n2 3 2\n"
     "1 3 0.33333333333333331\n2 1 -2.5e-300\n"),
    (ComplexMatrix.sparse(2, 3, [(0, 2, _A_THIRD), (1, 0, 0.1 + 0.2j)]), None,
     "%%MatrixMarket matrix coordinate complex general\n2 3 2\n"
     "1 3 0.33333333333333331 0\n2 1 0.10000000000000001 0.20000000000000001\n"),
    (np.array([[_A_THIRD, 0.0], [-2.5e-300, 7.0]]), "one\ntwo",
     "%%MatrixMarket matrix array real general\n% one\n% two\n2 2\n"
     "0.33333333333333331\n-2.5e-300\n0\n7\n"),
    (np.array([[_A_THIRD, 0.0], [0.1 + 0.2j, 7.0]]), None,
     "%%MatrixMarket matrix array complex general\n2 2\n"
     "0.33333333333333331 0\n0.10000000000000001 0.20000000000000001\n0 0\n7 0\n"),
], ids=["sparse-real", "sparse-complex", "dense-real", "dense-complex"])
def test_write_matrix_bytes(tmp_path, matrix, comment, expected):
    p = tmp_path / "w.mtx"
    write_matrix(p, matrix, comment=comment)
    assert p.read_bytes() == expected.encode("ascii")


def example2_doc():
    return {
        "nvars": 2,
        "degrees": [2, 2],
        "polynomials": [
            [
                {"exponents": [2, 0], "coeff": [1.0, 0.0]},
                {"exponents": [1, 0], "coeff": [1.0, 0.0]},
                {"exponents": [0, 1], "coeff": [1.0, 0.0]},
            ],
            [
                {"exponents": [0, 2], "coeff": [1.0, 0.0]},
                {"exponents": [1, 0], "coeff": [1.0, 0.0]},
                {"exponents": [0, 1], "coeff": [-1.0, 0.0]},
            ],
        ],
        "point": [[0.0, 0.0], [0.0, 0.0]],
    }


def test_read_polysys_example(tmp_path):
    p = tmp_path / "sys.json"
    p.write_text(json.dumps(example2_doc()))
    system, point = read_polysys(p)
    assert system.max_degree == 2
    assert system.m == 2
    assert np.allclose(point, 0.0)
    assert system.polynomials[0] == {(2, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0}


def test_read_polysys_empty_list(tmp_path):
    doc = example2_doc()
    doc["polynomials"] = []
    doc["degrees"] = []
    p = tmp_path / "sys.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        read_polysys(p)


@pytest.mark.parametrize("edit", [
    lambda d: d.update(point=[[1.0, 0.0, 7.0], [2.0, 0.0]]),
    lambda d: d.update(point=[[1.0], [2.0, 0.0]]),
    lambda d: d.update(degrees=[2, True]),
    lambda d: d["polynomials"][1][1].update(exponents=[True, 0]),
    lambda d: d["polynomials"][0][0].update(coeff=[True, False]),
    lambda d: d.update(point=[[True, False], [0.0, 0.0]]),
], ids=["point-three-numbers", "point-one-number", "degrees-true", "exponents-true",
        "coeff-true", "point-true"])
def test_read_polysys_rejects_what_it_would_misread(tmp_path, edit):
    """Each edit was read without an error: a point entry cut to its first two
    numbers, JSON true taken as the integer 1 or the number 1."""
    doc = example2_doc()
    edit(doc)
    p = tmp_path / "sys.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        read_polysys(p)


@pytest.mark.parametrize("text_or_edit,reason", [
    ('{"nvars": 2,', "Expecting"),
    ("[1, 2]", "top-level value must be an object"),
    (lambda d: d.pop("degrees"), "missing field 'degrees'"),
    (lambda d: d.update(nvars=0), "nvars must be a positive integer"),
    (lambda d: d.update(degrees=[2]), "one bound per polynomial"),
    (lambda d: d["polynomials"].__setitem__(1, {"exponents": [0, 2], "coeff": [1.0, 0.0]}),
     "polynomial 1 must be a list of terms"),
    (lambda d: d.update(point=[[0.0, 0.0]]), "one [re, im] pair per variable"),
], ids=["invalid-json", "top-level-list", "missing-field", "nvars-zero",
        "degrees-length", "polynomial-not-list", "point-length"])
def test_read_polysys_rejects_malformed_document(tmp_path, text_or_edit, reason):
    if isinstance(text_or_edit, str):
        text = text_or_edit
    else:
        doc = example2_doc()
        text_or_edit(doc)
        text = json.dumps(doc)
    p = tmp_path / "sys.json"
    p.write_text(text)
    with pytest.raises(ParseError, match=re.escape(reason)):
        read_polysys(p)


def test_read_polysys_degree_violation(tmp_path):
    doc = example2_doc()
    doc["polynomials"][0].append({"exponents": [3, 0], "coeff": [1.0, 0.0]})
    p = tmp_path / "sys.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(DegreeViolationError) as info:
        read_polysys(p)
    assert info.value.poly_index == 0


def test_polysys_roundtrip_canonical(tmp_path):
    doc = example2_doc()
    # scrambled order and a zero term must canonicalize away
    doc["polynomials"][0] = list(reversed(doc["polynomials"][0]))
    doc["polynomials"][0].append({"exponents": [1, 1], "coeff": [0.0, 0.0]})
    p = tmp_path / "sys.json"
    p.write_text(json.dumps(doc))
    system, point = read_polysys(p)
    out = tmp_path / "canon.json"
    write_polysys(out, system, point)
    system2, _ = read_polysys(out)
    assert system2.polynomials == system.polynomials
    out2 = tmp_path / "canon2.json"
    write_polysys(out2, system2, point)
    assert out.read_text() == out2.read_text()


def _example1_file(tmp_path):
    a = np.array([[3, 0, 0], [1, 1, 0], [0, 3, 1]], dtype=complex)
    path = tmp_path / "ex1.mtx"
    write_matrix(path, ComplexMatrix.sparse(3, 3, [(i, j, a[i, j]) for i in range(3)
                                                   for j in range(3) if a[i, j] != 0]))
    return path


def test_cli_condition_example1(tmp_path, capsys):
    path = _example1_file(tmp_path)
    assert cli_dispatch(["condition", "--input", str(path), "--kind", "euclidean"]) == 0
    out = float(capsys.readouterr().out.strip())
    assert out == pytest.approx(11.77, abs=0.01)


def test_cli_precondition_diag_report(tmp_path, capsys):
    a = np.diag([1.0, 10.0])
    src = tmp_path / "d.mtx"
    write_matrix(src, a)
    out = tmp_path / "rep.csv"
    code = cli_dispatch([
        "precondition", "--input", str(src), "--scheme", "diag", "--side", "left",
        "--eps", "1e-3", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "iter,value,grad_norm,duality_bound,kF,kappa"
    summary = [l for l in lines if l.startswith("#")]
    assert any("termination=certified" in l for l in summary)
    final_kF = float([l for l in summary if "final_kF" in l][0].split("final_kF=")[1])
    assert final_kF == pytest.approx(2.0, abs=1e-3)


def test_cli_deterministic_output(tmp_path):
    rng = rng_for(102)
    a = complex_gaussian(rng, (6, 6))
    src = tmp_path / "a.mtx"
    write_matrix(src, a)
    outs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        code = cli_dispatch([
            "precondition", "--input", str(src), "--scheme", "block", "--block-size", "2",
            "--side", "both", "--eps", "1e-2", "--max-iters", "300",
            "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_stochastic_path(tmp_path):
    rng = rng_for(103)
    a = rng.standard_normal((8, 8)) + 4.0 * np.eye(8)
    src = tmp_path / "a.mtx"
    write_matrix(src, a)
    out = tmp_path / "r.csv"
    code = cli_dispatch([
        "precondition", "--input", str(src), "--scheme", "diag", "--side", "left",
        "--eps", "1e-2", "--max-iters", "60", "--stochastic", "--probes", "64",
        "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    assert out.read_text().startswith("iter,value")


def test_cli_stochastic_report_leaves_every_kappa_empty(tmp_path):
    """An estimator run computes no kappa: no row carries one, nor the summary.
    The left run takes its one closed-form step, the two-sided run all 4."""
    rng = rng_for(105)
    src = tmp_path / "a.mtx"
    write_matrix(src, np.diag(np.exp(rng.standard_normal(8))) @ (rng.standard_normal((8, 8))
                                                                 + 4.0 * np.eye(8)))
    out = tmp_path / "r.csv"
    for side, count in (("left", 2), ("both", 5)):
        assert cli_dispatch(["precondition", "--input", str(src), "--max-iters", "4",
                             "--side", side, "--stochastic", "--probes", "16",
                             "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        rows = [line.split(",") for line in lines if line[0].isdigit()]
        assert len(rows) == count and all(len(r) == 6 and r[5] == "" for r in rows)
        assert "# initial_kappa= final_kappa=" in lines


def test_cli_stochastic_rank_deficient_input_is_an_input_error(tmp_path):
    rng = rng_for(106)
    src = tmp_path / "a.mtx"
    write_matrix(src, rng.standard_normal((6, 4)) @ rng.standard_normal((4, 6)))
    proc = _run_cli(["precondition", "--input", str(src), "--stochastic", "--probes", "8",
                     "--out", str(tmp_path / "r.csv")])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "assumes a full-rank input" in proc.stderr


def test_cli_stochastic_block_wider_than_probes_is_an_input_error(tmp_path, capsys):
    rng = rng_for(104)
    a = np.diag(np.exp(rng.standard_normal(10))) @ (rng.standard_normal((10, 10)) + 4.0 * np.eye(10))
    src = tmp_path / "a.mtx"
    write_matrix(src, a)
    code = cli_dispatch([
        "precondition", "--input", str(src), "--stochastic", "--scheme", "block",
        "--block-size", "5", "--probes", "3", "--out", str(tmp_path / "r.csv"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "block size exceeds the probe count" in err
    assert "Traceback" not in err


def test_cli_emit_preconditioner(tmp_path):
    path = _example1_file(tmp_path)
    out = tmp_path / "rep.csv"
    xfile = tmp_path / "X.mtx"
    code = cli_dispatch([
        "precondition", "--input", str(path), "--scheme", "diag", "--side", "left",
        "--eps", "1e-2", "--out", str(out), "--emit-preconditioner", str(xfile),
    ])
    assert code == 0
    x = read_matrix(xfile).to_dense()
    assert x.shape == (3, 3)
    assert np.allclose(x, np.diag(np.diag(x)))  # diagonal scheme emits a diagonal X
    a = read_matrix(path).to_dense()
    from geoprec.matrix import condition_frobenius

    assert condition_frobenius(x @ a) < condition_frobenius(a)

    # blocks of 3 leave a ragged 1x1 tail; the emitted files hold the element exactly
    a7 = complex_gaussian(rng_for(120), (7, 7))
    path7 = tmp_path / "a7.mtx"
    write_matrix(path7, a7)
    for side, names in (("left", ["X7.mtx"]), ("both", ["X7b.mtx", "Y7b.mtx"])):
        files = [str(tmp_path / name) for name in names]
        code = cli_dispatch([
            "precondition", "--input", str(path7), "--scheme", "block", "--block-size", "3",
            "--side", side, "--max-iters", "40", "--out", str(tmp_path / "r7.csv"),
            "--emit-preconditioner", ",".join(files),
        ])
        assert code == 0
        scheme = GroupScheme.blocked(7, 3, side=side)
        g = minimize_condition(read_matrix(path7),
                               OptimizerConfig(scheme=scheme, max_iters=40)).final_element
        assert np.array_equal(read_matrix(files[0]).to_dense(), g.X)
        if side == "both":
            assert np.array_equal(read_matrix(files[1]).to_dense(), g.Y)
        for name, blocks in zip(files, (scheme.left_blocks, scheme.right_blocks)):
            emitted = read_matrix(name).to_dense()
            for a, b in blocks:  # the Hermitian positive definite representative
                block = emitted[a:b, a:b]
                assert np.abs(block - block.conj().T).max() <= 1e-12 * np.abs(block).max()
                assert np.linalg.eigvalsh(block).min() > 0


@pytest.mark.parametrize("flags", [
    ["--side", "both", "--emit-preconditioner", "X.mtx"],
    ["--scheme", "block", "--emit-preconditioner", "X.mtx"],
], ids=["one-path-for-two-sides", "block-without-size"])
def test_cli_precondition_checks_its_arguments_before_the_descent(tmp_path, flags, capsys):
    """A two-sided run given one --emit-preconditioner path, or a block scheme
    without --block-size, is a usage error (exit 1) found before the input is
    read: no report and no preconditioner file is written."""
    out, xfile = tmp_path / "rep.csv", tmp_path / "X.mtx"
    flags = [str(xfile) if f == "X.mtx" else f for f in flags]
    for path in (_example1_file(tmp_path), tmp_path / "missing.mtx"):
        code = cli_dispatch(["precondition", "--input", str(path), "--out", str(out), *flags])
        assert code == 1
        assert not out.exists() and not xfile.exists()
        assert "Traceback" not in capsys.readouterr().err


def test_cli_polysys_shuffle(tmp_path):
    p = tmp_path / "sys.json"
    p.write_text(json.dumps(example2_doc()))
    out = tmp_path / "rep.csv"
    code = cli_dispatch([
        "polysys-precondition", "--input", str(p), "--action", "shuffle",
        "--eps", "1e-3", "--out", str(out),
    ])
    assert code == 0
    assert out.read_text().startswith("iter,value")


def test_cli_polysys_missing_point(tmp_path):
    doc = example2_doc()
    del doc["point"]
    p = tmp_path / "sys.json"
    p.write_text(json.dumps(doc))
    out = tmp_path / "rep.csv"
    code = cli_dispatch([
        "polysys-precondition", "--input", str(p), "--action", "shuffle",
        "--eps", "1e-3", "--out", str(out),
    ])
    assert code == 2


def test_cli_usage_error():
    assert cli_dispatch(["condition", "--kind", "euclidean"]) == 1  # missing --input
    assert cli_dispatch(["nonsense"]) == 1


def _run_cli(flags):
    """Run the command line in a fresh interpreter on this checkout's package."""
    src = str(Path(geoprec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "geoprec", *flags], capture_output=True,
                          text=True, env=env, timeout=120)


@pytest.mark.parametrize("flags", [
    ["precondition", "--max-iters", "-1"],
    ["precondition", "--stochastic", "--probes", "0"],
    ["precondition", "--stochastic", "--seed", "-1"],
    ["precondition", "--eps", "0"],
    ["polysys-precondition", "--action", "full", "--max-iters", "-1"],
    ["bench", "--n", "3"],  # below twice the default --block-size 5
], ids=["max-iters", "probes", "seed", "eps", "polysys-max-iters", "bench-n"])
def test_cli_bad_numeric_flag_is_a_usage_error(tmp_path, flags):
    """A bad numeric flag is a usage error (exit 1) whose last line names it, never
    a traceback."""
    bad_flag = flags[-2]
    out = ["--out", str(tmp_path / "r.csv")]
    if flags[0] == "precondition":
        flags = flags + ["--input", str(_example1_file(tmp_path))] + out
    elif flags[0] == "polysys-precondition":
        p = tmp_path / "sys.json"
        p.write_text(json.dumps(example2_doc()))
        flags = flags + ["--input", str(p)] + out
    proc = _run_cli(flags)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert bad_flag in proc.stderr.strip().splitlines()[-1]


def _polysys_file(tmp_path, edit):
    doc = example2_doc()
    edit(doc)
    p = tmp_path / "sys.json"
    p.write_text(json.dumps(doc))
    return p


def _latin1_polysys_file(tmp_path):
    p = tmp_path / "sys.json"
    p.write_bytes(json.dumps(example2_doc()).replace("{", '{"note": "caf\u00e9", ', 1)
                  .encode("latin-1"))
    return p


def _non_ascii_mtx_file(tmp_path):
    p = tmp_path / "a.mtx"
    p.write_bytes("%%MatrixMarket matrix coordinate real general\n% caf\u00e9\n1 1 1\n1 1 2.0\n"
                  .encode("utf-8"))
    return p


@pytest.mark.parametrize("make_input", [
    _non_ascii_mtx_file,
    _latin1_polysys_file,
    lambda tmp: _polysys_file(tmp, lambda d: d.update(degrees=["2", "2"])),
    lambda tmp: _polysys_file(tmp, lambda d: d.update(degrees=[2.5, 2])),
    lambda tmp: _polysys_file(tmp, lambda d: d["polynomials"][0][0].update(exponents=5)),
    lambda tmp: _polysys_file(tmp, lambda d: d.update(point=[[1.0, 0.0, 7.0], [2.0, 0.0]])),
    lambda tmp: _polysys_file(tmp, lambda d: d.update(
        nvars=True, degrees=[1], polynomials=[[{"exponents": [1], "coeff": [1.0, 0.0]}]],
        point=[[1.0, 0.0]])),
    lambda tmp: _polysys_file(tmp, lambda d: d.update(degrees=[2, True])),
    lambda tmp: _polysys_file(tmp, lambda d: d["polynomials"][1][1].update(
        exponents=[True, 0])),
    lambda tmp: _polysys_file(tmp, lambda d: d["polynomials"][0][0].update(
        coeff=[True, False])),
    lambda tmp: _polysys_file(tmp, lambda d: d.update(point=[[True, False], [0.0, 0.0]])),
    lambda tmp: _polysys_file(tmp, lambda d: d["polynomials"][0][0].update(
        coeff=[10**400, 0])),
    lambda tmp: _polysys_file(tmp, lambda d: d.update(point=[[10**400, 0], [0.0, 0.0]])),
    lambda tmp: _polysys_file(tmp, lambda d: (d.update(degrees=[2**63, 2]),
                                              d["polynomials"][0][0].update(
                                                  exponents=[2**63, 0]))),
    lambda tmp: _polysys_file(tmp, lambda d: (d.update(degrees=[171, 2]),
                                              d["polynomials"][0][0].update(
                                                  exponents=[171, 0]))),
], ids=["mtx-non-ascii", "json-not-utf8", "degrees-strings", "degrees-fraction",
        "exponents-int", "point-three-numbers", "nvars-true", "degrees-true", "exponents-true",
        "coeff-true", "point-true", "coeff-401-digits", "point-401-digits",
        "exponent-above-int64", "degree-171"])
def test_cli_malformed_file_is_an_input_error(tmp_path, make_input):
    """A malformed input file exits 2 with a ParseError message, never a traceback."""
    path = make_input(tmp_path)
    if path.suffix == ".mtx":
        flags = ["condition", "--input", str(path), "--kind", "frobenius"]
    else:
        flags = ["polysys-precondition", "--input", str(path), "--action", "shuffle",
                 "--out", str(tmp_path / "r.csv")]
    proc = _run_cli(flags)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("line ")  # a ParseError names its line



def test_cli_input_error(tmp_path):
    assert cli_dispatch(["condition", "--input", str(tmp_path / "absent.mtx"),
                         "--kind", "skeel"]) == 2


def test_cli_baseline(tmp_path, capsys):
    path = _example1_file(tmp_path)
    assert cli_dispatch(["baseline", "--input", str(path), "--method", "jacobi-left"]) == 0
    text = capsys.readouterr().out
    assert "kappa" in text and "->" in text


def test_cli_bench_small(tmp_path):
    out = tmp_path / "bench.csv"
    code = cli_dispatch([
        "bench", "--suite", "gaussian", "--n", "10", "--samples", "3",
        "--seed", "1", "--block-size", "2", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("instance,n,kF_before")
    assert len([l for l in lines if not l.startswith("#")]) == 4  # header + 3 rows
    assert any(l.startswith("# correlation_kF_kappa=") for l in lines)


def test_cli_bench_dir_suite(tmp_path):
    """One row per .mtx file, in name order, for a real and a complex 12 x 12
    matrix; each row holds what run_matrix_suite returns for the file."""
    rng = rng_for(620)
    d = tmp_path / "mats"
    d.mkdir()
    write_matrix(d / "a_real.mtx", rng.standard_normal((12, 12)))
    write_matrix(d / "b_complex.mtx", complex_gaussian(rng, (12, 12)))
    (d / "notes.txt").write_text("not a matrix\n")
    out = tmp_path / "bench.csv"
    assert cli_dispatch(["bench", "--suite", "dir", "--dir", str(d), "--block-size", "3",
                         "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    assert len(header) == 12 and [r[0] for r in rows] == ["a_real.mtx", "b_complex.mtx"]
    want = run_matrix_suite([(r[0], read_matrix(d / r[0])) for r in rows], block_size=3)
    for row, res in zip(rows, want):
        assert dict(zip(header, row)) == {
            "instance": res.instance, "n": "12",
            **{k: _num(getattr(res, k)) for k in header[2:10]},
            "iterations_diag": str(res.iterations_diag),
            "iterations_block": str(res.iterations_block)}
        assert res.kF_after_block < res.kF_after_diag < res.kF_before
    means = [_num(np.mean([getattr(r, k) for r in want]))
             for k in ("improvement_diag", "improvement_block")]
    assert lines[-2:] == [f"# mean_improvement_diag={means[0]}",
                          f"# mean_improvement_block={means[1]}"]


def test_cli_bench_dir_suite_needs_a_directory_of_matrices(tmp_path, capsys):
    assert cli_dispatch(["bench", "--suite", "dir"]) == 1
    (tmp_path / "notes.txt").write_text("not a matrix\n")
    assert cli_dispatch(["bench", "--suite", "dir", "--dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "--dir is required" in err and "no .mtx files" in err


@pytest.mark.parametrize("action", ["shuffle", "full"])
def test_cli_polysys_zero_jacobian(tmp_path, capsys, action):
    """x^2 at 0: local_condition raises ZeroJacobianError, the command exits 2."""
    f = PolynomialSystem.from_polys(1, [{(2,): 1.0}])
    with pytest.raises(ZeroJacobianError):
        local_condition(f, [0.0])
    p = tmp_path / "sys.json"
    write_polysys(p, f, np.zeros(1))
    assert cli_dispatch(["polysys-precondition", "--input", str(p), "--action", action,
                         "--out", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert "Jacobian vanishes" in err and "Traceback" not in err


@pytest.mark.parametrize("field,entry", [
    ("real", "nan"), ("real", "inf"), ("complex", "1.0 -inf"), ("integer", "NaN"),
])
def test_cli_rejects_non_finite_matrix_entry(tmp_path, field, entry):
    p = tmp_path / "bad.mtx"
    first = "1 0" if field == "complex" else "1"
    p.write_text(f"%%MatrixMarket matrix coordinate {field} general\n2 2 2\n1 1 {first}\n2 2 {entry}\n")
    with pytest.raises(ParseError) as info:
        read_matrix(p)
    assert info.value.line == 4
    assert cli_dispatch(["precondition", "--input", str(p), "--out", str(tmp_path / "r.csv")]) == 2


@pytest.mark.parametrize("where", ["coeff", "point"])
def test_cli_rejects_non_finite_polysys_value(tmp_path, where):
    doc = example2_doc()
    if where == "coeff":
        doc["polynomials"][1][0]["coeff"] = [float("nan"), 0.0]
    else:
        doc["point"][1] = [0.0, float("inf")]
    p = tmp_path / "sys.json"
    p.write_text(json.dumps(doc))  # json writes NaN and Infinity tokens
    with pytest.raises(ParseError):
        read_polysys(p)
    code = cli_dispatch(["polysys-precondition", "--input", str(p), "--action", "shuffle",
                         "--out", str(tmp_path / "r.csv")])
    assert code == 2


def test_cli_linalg_error_exit_code(tmp_path, capsys, monkeypatch):
    """A failed SVD maps to exit 3 with its message and no traceback."""
    import geoprec.cli

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(geoprec.cli, "minimize_condition", no_convergence)
    path = _example1_file(tmp_path)
    assert cli_dispatch(["precondition", "--input", str(path), "--out", str(tmp_path / "r.csv")]) == 3
    err = capsys.readouterr().err
    assert "SVD did not converge" in err
    assert "Traceback" not in err


def test_cli_singular_block_exit_code(tmp_path, capsys, monkeypatch):
    """A group block that turns numerically singular inside a descent is a
    numerical failure: exit 3 with its message and no traceback."""
    import geoprec.cli

    def singular_block(*args, **kwargs):
        raise SingularBlockError("singular 4x4 block at 40 (rows 40:44)")

    monkeypatch.setattr(geoprec.cli, "minimize_condition", singular_block)
    path = _example1_file(tmp_path)
    assert cli_dispatch(["precondition", "--input", str(path), "--out", str(tmp_path / "r.csv")]) == 3
    err = capsys.readouterr().err
    assert "singular 4x4 block" in err
    assert "Traceback" not in err


def test_cli_non_finite_state_exit_code(tmp_path, capsys):
    """diag(1e300, 1e-300) overflows the norms: a non-finite first state, exit 3, no traceback."""
    p = tmp_path / "huge.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1e300\n2 2 1e-300\n")
    with np.errstate(all="ignore"):
        code = cli_dispatch(["precondition", "--input", str(p), "--out", str(tmp_path / "r.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert "is not finite" in err
    assert "Traceback" not in err


def test_cli_floating_point_error_exit_code(tmp_path, monkeypatch):
    import geoprec.cli

    def overflow(*args, **kwargs):
        raise FloatingPointError("overflow encountered in multiply")

    monkeypatch.setattr(geoprec.cli, "minimize_condition", overflow)
    path = _example1_file(tmp_path)
    assert cli_dispatch(["precondition", "--input", str(path), "--out", str(tmp_path / "r.csv")]) == 3
