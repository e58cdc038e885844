"""Polynomial system files.

A system is stored as a JSON document with top-level fields

    nvars        number of variables
    degrees      per-polynomial degree bounds
    polynomials  list of term lists; a term is
                 {"exponents": [int, ...], "coeff": [re, im]}
    point        optional evaluation point, list of [re, im] pairs

Parsing then serializing is canonical: terms in graded-lex order with zero
coefficients dropped.
"""

import cmath
import json

import numpy as np

from .errors import DegreeViolationError, ParseError
from .polysys import PolynomialSystem, _integers

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

    polys = []
    for pi, terms in enumerate(polys_doc):
        if not isinstance(terms, list):
            raise ParseError(1, f"polynomial {pi} must be a list of terms")
        poly = {}
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
            if c != 0:
                alpha = tuple(exps)
                poly[alpha] = poly.get(alpha, 0) + c
        polys.append(poly)
    system = PolynomialSystem(nvars, tuple(degrees), tuple(polys))

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


def write_polysys(path, system: PolynomialSystem, point=None):
    """Serialize in canonical form (graded-lex terms, no zero coefficients)."""
    doc = {
        "nvars": system.nvars,
        "degrees": list(system.degrees),
        "polynomials": [
            [
                {"exponents": list(alpha), "coeff": [c.real, c.imag]}
                for alpha, c in poly.items()
            ]
            for poly in system.polynomials
        ],
    }
    if point is not None:
        pt = np.asarray(point, dtype=complex)
        doc["point"] = [[z.real, z.imag] for z in pt]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
