"""The array reader and writer of polynomial-system files and the array
constructor of PolynomialSystem, against the dict-based code and the json
writer they replaced (tests/polysys_reference.py)."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polysys_reference as ref
from test_io_cli import example2_doc
from geoprec.errors import (
    DegreeViolationError,
    DimensionMismatchError,
    NonFiniteInputError,
    ParseError,
)
from geoprec.polysys import PolynomialSystem
from geoprec.sysio import read_polysys, write_polysys

_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# -0.0, subnormals, the ends of the float range and integral floats, which
# repr writes in their own forms
_SPECIAL = (0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e-300, 1e-300, 1.0, -3.0,
            1e16, 2.0**53 + 2, 123456789.0)
_FLOATS = st.one_of(st.sampled_from(_SPECIAL),
                    st.floats(allow_nan=False, allow_infinity=False))


def _same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _same_system(system, arrays):
    for got, want in zip((system.exponents, system.weights, system.coeffs), arrays):
        _same_bits(got, want)


def _monomials(n, d):
    return [a for a in itertools.product(range(d + 1), repeat=n) if sum(a) <= d]


@st.composite
def _dict_systems(draw, values=_FLOATS):
    """(nvars, degrees, dicts): m <= 4 polynomials in n <= 4 variables of
    degree <= 3, any of them empty, with coefficients from values."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    degrees = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    polys = []
    for d in degrees:
        support = draw(st.lists(st.sampled_from(_monomials(n, d)), unique=True, max_size=8))
        polys.append({a: complex(draw(values), draw(values)) for a in support})
    return n, degrees, polys


@_PROPERTY
@given(_dict_systems(st.one_of(_FLOATS, st.sampled_from([np.nan, np.inf, -np.inf]))),
       st.one_of(st.none(), st.lists(_FLOATS, min_size=8, max_size=8)))
def test_write_polysys_writes_what_json_wrote(tmp_path_factory, case, point):
    n, degrees, polys = case
    system = PolynomialSystem(n, degrees, polys)
    if point is not None:
        point = np.array(point[:n]) + 1j * np.array(point[n:2 * n])
    path = tmp_path_factory.mktemp("w") / "sys.json"
    if not np.isfinite(system.coeffs).all():  # a file read_polysys would refuse
        with pytest.raises(NonFiniteInputError):
            write_polysys(path, system, point)
        assert not path.exists()
        return
    write_polysys(path, system, point)
    assert path.read_bytes() == ref.polysys_text(system, point).encode("utf-8")


def test_write_polysys_holds_one_polynomial_text_at_a_time(tmp_path):
    """16 full cubics in 8 variables (165 terms each, a 0.45 MB file): the
    writer that joined every polynomial's text into the file's text held about
    4 times the file's bytes."""
    rng = np.random.default_rng(3)
    support = _monomials(8, 3)
    f = PolynomialSystem.from_polys(8, [dict(zip(support, rng.standard_normal((165, 2)) @ [1, 1j]))
                                        for _ in range(16)], [3] * 16)
    point = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    path = tmp_path / "sys.json"
    write_polysys(path, f, point)  # warm up
    tracemalloc.start()
    try:
        write_polysys(path, f, point)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * path.stat().st_size
    assert path.read_bytes() == ref.polysys_text(f, point).encode("utf-8")


@_PROPERTY
@given(_dict_systems())
def test_constructor_matches_the_dict_constructor(case):
    n, degrees, polys = case
    want = ref.system_arrays(n, degrees, polys)
    _same_system(PolynomialSystem(n, degrees, polys), want)
    _same_system(PolynomialSystem.from_polys(n, polys, degrees), want)


@st.composite
def _documents(draw):
    """A system file's document whose terms repeat exponents, some summing
    to zero, and include zero, -0.0 and integer coefficients."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    degrees = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    number = st.one_of(_FLOATS, st.integers(-10**6, 10**6))
    polys = []
    for d in degrees:
        pool = draw(st.lists(st.sampled_from(_monomials(n, d)), min_size=1, max_size=4))
        terms = []
        for alpha in draw(st.lists(st.sampled_from(pool), max_size=10)):
            coeff = [draw(number), draw(number)]
            terms.append({"exponents": list(alpha), "coeff": coeff})
            if draw(st.booleans()):  # the same exponent again, cancelling
                terms.append({"exponents": list(alpha), "coeff": [-x for x in coeff]})
        polys.append(terms)
    return {"nvars": n, "degrees": degrees, "polynomials": polys}


@_PROPERTY
@given(_documents())
def test_read_polysys_matches_the_dict_reader(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("r") / "sys.json"
    path.write_text(json.dumps(doc))
    system, point = read_polysys(path)
    polys = ref.document_polynomials(doc)
    want = ref.system_arrays(doc["nvars"], doc["degrees"], polys)
    _same_system(system, want)
    assert point is None and system.degrees == tuple(doc["degrees"])
    _same_system(PolynomialSystem(doc["nvars"], doc["degrees"], polys), want)
    _same_system(PolynomialSystem.from_polys(doc["nvars"], polys, doc["degrees"]), want)


def test_read_polysys_sums_a_repeated_exponent_and_drops_one_that_cancels(tmp_path):
    doc = example2_doc()
    doc["polynomials"][0] += [{"exponents": [1, 1], "coeff": [2.5, -1.0]},
                              {"exponents": [1, 0], "coeff": [0.5, 0.0]},
                              {"exponents": [1, 1], "coeff": [-2.5, 1.0]}]
    p = tmp_path / "sys.json"
    p.write_text(json.dumps(doc))
    system, _ = read_polysys(p)
    assert system.exponents.tolist() == [[1, 0], [0, 1], [2, 0], [0, 2]]  # no (1, 1)
    assert system.polynomials[0] == {(1, 0): 1.5, (0, 1): 1.0, (2, 0): 1.0}
    _same_system(system, ref.system_arrays(2, [2, 2], ref.document_polynomials(doc)))


def test_a_coefficient_of_negative_zero_reads_as_zero_as_the_sum_from_zero_did(tmp_path):
    doc = example2_doc()
    doc["polynomials"][1].append({"exponents": [1, 1], "coeff": [-0.0, 2.0]})
    p = tmp_path / "sys.json"
    p.write_text(json.dumps(doc))
    c = read_polysys(p)[0].polynomials[1][(1, 1)]
    assert np.copysign(1.0, c.real) == 1.0 and c.imag == 2.0
    f = PolynomialSystem(2, (2,), ({(1, 1): complex(-0.0, 2.0)},))  # a dict keeps it
    assert np.copysign(1.0, f.coeffs[0, 0].real) == -1.0


def _file(tmp_path, edit):
    doc = example2_doc()
    edit(doc)
    p = tmp_path / "sys.json"
    p.write_text(json.dumps(doc))
    return p


@pytest.mark.parametrize("edit,message", [
    (lambda d: d["polynomials"][0][0].update(coeff=[10**400, 0]),
     "number out of range: int too large to convert to float"),
    (lambda d: d.update(point=[[10**400, 0], [0.0, 0.0]]),
     "number out of range: int too large to convert to float"),
    (lambda d: (d.update(degrees=[2**63, 2]), d["polynomials"][0][0].update(exponents=[2**63, 0])),
     "number out of range: Python int too large to convert to C long"),
    (lambda d: (d.update(degrees=[171, 2]), d["polynomials"][0][0].update(exponents=[171, 0])),
     "number out of range: int too large to convert to float"),
], ids=["coeff-401-digits", "point-401-digits", "exponent-above-int64", "degree-171"])
def test_read_polysys_overflow_is_a_parse_error(tmp_path, edit, message):
    with pytest.raises(ParseError) as info:
        read_polysys(_file(tmp_path, edit))
    assert info.value.line == 1
    assert str(info.value) == f"line 1: {message}"


def test_read_polysys_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    p = tmp_path / "sys.json"
    p.write_bytes(json.dumps(example2_doc(), indent=1).replace('"point"', '"café"')
                  .encode("latin-1"))
    line = p.read_bytes().split(b"\n").index(b' "caf\xe9": [') + 1
    with pytest.raises(ParseError) as info:
        read_polysys(p)
    assert info.value.line == line
    assert str(info.value) == f"line {line}: file is not UTF-8"


@pytest.mark.parametrize("edit,error,message", [
    # a malformed term after a term beyond its bound: the earlier fault
    (lambda d: (d["polynomials"][1][0].update(exponents=[3, 0]), d["polynomials"][1][1].pop("coeff")),
     DegreeViolationError, "polynomial 1: term (3, 0) exceeds the declared degree"),
    (lambda d: (d["polynomials"][1][0].pop("coeff"), d["polynomials"][1][1].update(exponents=[3, 0])),
     ParseError, "line 1: malformed term in polynomial 1: {'exponents': [0, 2]}"),
    # a coefficient that overflows after a term with bad exponents
    (lambda d: (d["polynomials"][0][1].update(exponents=[-1, 0]),
                d["polynomials"][0][2].update(coeff=[0, 10**400])),
     ParseError, "line 1: bad exponents [-1, 0] in polynomial 0"),
    # a polynomial that is not a list after a non-finite coefficient
    (lambda d: (d["polynomials"][0][2].update(coeff=[float("inf"), 0]),
                d["polynomials"].__setitem__(1, "")),
     ParseError, "line 1: non-finite coefficient of [0, 1] in polynomial 0"),
    (lambda d: d["polynomials"].__setitem__(1, ""),
     ParseError, "line 1: polynomial 1 must be a list of terms"),
    # an exponent beyond a machine integer is first a term beyond its bound
    (lambda d: d["polynomials"][0][0].update(exponents=[2**63, 0]),
     DegreeViolationError, f"polynomial 0: term ({2**63}, 0) exceeds the declared degree"),
    (lambda d: d["polynomials"][0][0].update(exponents=[2**62, 2**62]),
     DegreeViolationError, f"polynomial 0: term ({2**62}, {2**62}) exceeds the declared degree"),
], ids=["degree-then-malformed", "malformed-then-degree", "exponents-then-overflow",
        "non-finite-then-not-a-list", "empty-string-polynomial", "exponent-above-int64-bound-2",
        "degree-above-int64"])
def test_read_polysys_reports_the_first_fault_in_file_order(tmp_path, edit, error, message):
    with pytest.raises(error) as info:
        read_polysys(_file(tmp_path, edit))
    assert str(info.value) == message


@pytest.mark.parametrize("polys,message", [
    (({(2, 0): 1.0}, {(1, 0, 0): 1.0}), "polynomial 0 has a term of degree 2 > bound 1"),
    (({(2, 0): 0.0, (1, 0, 0): 1.0}, {}), "exponents (1, 0, 0): not 2 integers >= 0"),
    (({(1, 0): 1.0, (0, -1): 1.0}, {(2**63, 0): 1.0}), "exponents (0, -1): not 2 integers >= 0"),
    (({(1, 0): 1.0}, {(2**63, 0): 1.0}), f"polynomial 1 has a term of degree {2**63} > bound 1"),
    (({(1.5, 0): 1.0}, {(1, 0): "x"}), "exponents (1.5, 0): not 2 integers >= 0"),
], ids=["degree-then-length", "zero-term-then-length", "negative-then-overflow",
        "exponent-above-int64", "fraction-then-coefficient-not-a-number"])
def test_constructor_reports_the_first_fault_in_dict_order(polys, message):
    with pytest.raises(DimensionMismatchError) as info:
        PolynomialSystem(2, (1, 1), polys)
    assert str(info.value) == message


@pytest.mark.parametrize("point, coeff, error", [
    ([1, 2, 3], 1.0, DimensionMismatchError),
    ([[1, 0], [2, 0]], 1.0, DimensionMismatchError),
    ([np.nan, 1], 1.0, NonFiniteInputError),
    ([1, complex(0, np.inf)], 1.0, NonFiniteInputError),
    (None, np.inf, NonFiniteInputError),
    ([1, 2], complex(1, np.nan), NonFiniteInputError),
], ids=["long-point", "pairs-point", "nan-point", "inf-point", "inf-coeff", "nan-coeff"])
def test_write_polysys_refuses_what_read_polysys_refuses(tmp_path, point, coeff, error):
    """A point not of shape (nvars,), or a coefficient or coordinate that is not
    finite, raises before the file is opened: no file is created, and an
    existing one keeps its bytes."""
    f = PolynomialSystem.from_polys(2, [{(1, 0): coeff, (0, 1): 1.0}])
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    write_polysys(old, PolynomialSystem.from_polys(2, [{(1, 0): 1.0}]), [1, 2])
    before = old.read_bytes()
    for path in (new, old):
        with pytest.raises(error):
            write_polysys(path, f, point)
    assert not new.exists() and old.read_bytes() == before
