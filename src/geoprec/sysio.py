"""Polynomial system files.

A system is stored as a JSON document with top-level fields

    nvars        number of variables
    degrees      per-polynomial degree bounds
    polynomials  list of term lists; a term is
                 {"exponents": [int, ...], "coeff": [re, im]}
    point        optional evaluation point, list of [re, im] pairs

Parsing then serializing is canonical: terms in graded-lex order with zero
coefficients dropped.

The reader collects every term's exponents, coefficient and polynomial into
arrays in one pass and checks them in bulk; only a file that fails a check is
read again one term at a time, to report its first fault in file order.  A
coefficient -0.0 reads as 0.0 and a repeated exponent is summed in file
order, as a sum from zero does.  The writer emits json's indent-1 layout
itself, byte for byte what ``json.dump(doc, fh, indent=1)`` and a newline
wrote: one head per basis exponent, each polynomial's coefficients as text
from one ``json.dumps`` of their floats, and one write per polynomial, so
that the writer holds one polynomial's text at a time.
"""

import cmath
import json
from itertools import chain

import numpy as np

from .errors import DegreeViolationError, DimensionMismatchError, NonFiniteInputError, ParseError
from .polysys import PolynomialSystem, _beyond, _exponent_rows, _from_terms, _integers

__all__ = ["read_polysys", "write_polysys"]


def _complex(pair):
    """complex(re, im) of an [re, im] pair of JSON numbers (not bools); else TypeError."""
    if not (isinstance(pair, list) and len(pair) == 2
            and type(pair[0]) in (int, float) and type(pair[1]) in (int, float)):
        raise TypeError(f"not an [re, im] pair of numbers: {pair!r}")
    return complex(*pair)


def read_polysys(path):
    """Parse a system file; returns (PolynomialSystem, point-or-None).

    A number that overflows where it is read (a coefficient or coordinate
    beyond the float range, an exponent beyond a machine integer, a degree
    whose Bombieri-Weyl weight overflows) is a ParseError like any other
    malformed input.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(raw.count(b"\n", 0, exc.start) + 1, "file is not UTF-8") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.msg) from exc
    try:
        return _from_document(doc)
    except OverflowError as exc:
        raise ParseError(1, f"number out of range: {exc}") from exc


def _from_document(doc):
    """(PolynomialSystem, point-or-None) from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ParseError(1, "top-level value must be an object")
    for key in ("nvars", "degrees", "polynomials"):
        if key not in doc:
            raise ParseError(1, f"missing field {key!r}")
    nvars = doc["nvars"]
    degrees = doc["degrees"]
    polys_doc = doc["polynomials"]
    if not _integers([nvars]) or nvars < 1:
        raise ParseError(1, "nvars must be a positive integer")
    if not isinstance(polys_doc, list) or not polys_doc:
        raise ParseError(1, "polynomials must be a non-empty list")
    if not isinstance(degrees, list) or len(degrees) != len(polys_doc):
        raise ParseError(1, "degrees must list one bound per polynomial")
    if not _integers(degrees) or min(degrees) < 0:
        raise ParseError(1, f"degrees must be non-negative integers, got {degrees}")

    try:
        owner, exponents, values = _term_arrays(polys_doc, nvars, degrees)
    except (TypeError, KeyError, ValueError, OverflowError):
        _first_fault(polys_doc, nvars, degrees)
        raise  # an exponent beyond a machine integer, within its bound
    system = PolynomialSystem._from_arrays(nvars, tuple(degrees),
                                           *_from_terms(len(degrees), owner, exponents, values))

    point = None
    if doc.get("point") is not None:
        raw = doc["point"]
        if not isinstance(raw, list) or len(raw) != nvars:
            raise ParseError(1, "point must list one [re, im] pair per variable")
        try:
            point = np.array([_complex(p) for p in raw])
        except TypeError as exc:
            raise ParseError(1, "point entries must be [re, im] pairs of numbers") from exc
        if not np.isfinite(point).all():
            raise ParseError(1, "point coordinates must be finite")
    return system, point


def _term_arrays(polys_doc, nvars, degrees):
    """(owner, exponents, coefficients) of the terms in file order, owner[k]
    the polynomial of term k.  Checked in bulk: a term that fails a check
    raises TypeError, KeyError, ValueError or OverflowError, unnamed."""
    terms = list(chain.from_iterable(polys_doc))
    pairs = [t["coeff"] for t in terms]
    numbers = list(chain.from_iterable(pairs))
    if not (set(map(type, polys_doc)) <= {list} and set(map(len, pairs)) <= {2}
            and set(map(type, numbers)) <= {int, float}):
        raise TypeError("a malformed term")
    exponents = _exponent_rows([t["exponents"] for t in terms], nvars)
    owner = np.repeat(np.arange(len(polys_doc)), list(map(len, polys_doc)))
    # + 0.0: a sum starts from zero, so a coefficient -0.0 reads as 0.0
    values = np.fromiter(map(float, numbers), float, len(numbers)).view(complex) + 0.0
    if _beyond(degrees, owner, exponents).any() or not np.isfinite(values).all():
        raise ValueError("a term beyond its degree bound or with a coefficient not finite")
    return owner, exponents, values


def _first_fault(polys_doc, nvars, degrees):
    """Raise the first fault of the terms in file order, checked one at a time."""
    for pi, terms in enumerate(polys_doc):
        if not isinstance(terms, list):
            raise ParseError(1, f"polynomial {pi} must be a list of terms")
        for term in terms:
            try:
                exps, c = term["exponents"], _complex(term["coeff"])
            except (TypeError, KeyError) as exc:
                raise ParseError(1, f"malformed term in polynomial {pi}: {term!r}") from exc
            if (not isinstance(exps, list) or len(exps) != nvars
                    or not _integers(exps) or min(exps) < 0):
                raise ParseError(1, f"bad exponents {exps} in polynomial {pi}")
            if sum(exps) > degrees[pi]:
                raise DegreeViolationError(pi, tuple(exps))
            if not cmath.isfinite(c):
                raise ParseError(1, f"non-finite coefficient of {exps} in polynomial {pi}")


def _array(items, depth):
    """json's indent-1 text of a list at the given depth, from its items' texts."""
    pad = "\n" + " " * (depth + 1)
    return f"[{pad}{(',' + pad).join(items)}\n{' ' * depth}]" if items else "[]"


def _floats(x):
    """json's text of each value of a float array."""
    return json.dumps(x.tolist())[1:-1].split(", ")


def _terms(heads, row):
    """The texts of one polynomial's terms, from the head of each basis
    exponent and the polynomial's coefficients over the basis."""
    cols = np.flatnonzero(row)
    parts = _floats(row[cols].view(float))  # re, im of each term
    return [f"{heads[k]}{re},\n     {im}\n    ]\n   }}"
            for k, re, im in zip(cols.tolist(), parts[::2], parts[1::2])]


def write_polysys(path, system: PolynomialSystem, point=None):
    """Serialize in canonical form (graded-lex terms, no zero coefficients).

    Each polynomial's text is written on its own, so the writer holds one
    polynomial's text at a time, not the file's.  The input is checked, and
    the point formatted, before the file is opened, so that what
    ``read_polysys`` would refuse raises with nothing created or truncated:
    DimensionMismatchError for a point not of shape (nvars,),
    NonFiniteInputError for a coefficient or coordinate that is NaN or
    infinite.
    """
    if point is not None:
        point = np.array(point, dtype=complex)
        if point.shape != (system.nvars,):
            raise DimensionMismatchError(f"point has shape {point.shape}, not ({system.nvars},)")
    if not (np.isfinite(system.coeffs).all() and (point is None or np.isfinite(point).all())):
        raise NonFiniteInputError("coefficients and point coordinates must be finite")
    head = '{\n    "exponents": ' + _array(["%d"] * system.nvars, 4) + ',\n    "coeff": [\n     '
    heads = [head % tuple(alpha) for alpha in system.exponents.tolist()]
    tail = "\n ]"
    if point is not None:
        parts = _floats(point.view(float))
        tail += ',\n "point": ' + _array([_array(z, 2) for z in zip(parts[::2], parts[1::2])], 1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{\n "nvars": {system.nvars},\n "degrees": '
                 f'{_array(list(map(str, system.degrees)), 1)},\n "polynomials": [')
        for k, row in enumerate(system.coeffs):
            fh.write(("," if k else "") + "\n  " + _array(_terms(heads, row), 2))
        fh.write(tail + "\n}\n")
