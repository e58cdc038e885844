import json

import numpy as np
import pytest

from conftest import complex_gaussian, rng_for
from geoprec.cli import cli_dispatch
from geoprec.errors import DegreeViolationError, ParseError, UnsupportedQualifierError
from geoprec.matrix import ComplexMatrix
from geoprec.mmio import read_matrix, write_matrix
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


def test_cli_linalg_error_exit_code(tmp_path, capsys):
    """diag(1e300, 1e-300) overflows the norms and the SVD then fails: exit 3, no traceback."""
    p = tmp_path / "huge.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1e300\n2 2 1e-300\n")
    with np.errstate(all="ignore"):
        code = cli_dispatch(["precondition", "--input", str(p), "--out", str(tmp_path / "r.csv")])
    assert code == 3
    assert "SVD did not converge" in capsys.readouterr().err


def test_cli_floating_point_error_exit_code(tmp_path, monkeypatch):
    import geoprec.cli

    def overflow(*args, **kwargs):
        raise FloatingPointError("overflow encountered in multiply")

    monkeypatch.setattr(geoprec.cli, "minimize_condition", overflow)
    path = _example1_file(tmp_path)
    assert cli_dispatch(["precondition", "--input", str(path), "--out", str(tmp_path / "r.csv")]) == 3
