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
from .polysys import PolynomialSystem, _grlex_key

__all__ = ["read_polysys", "write_polysys"]


def read_polysys(path):
    """Parse a system file; returns (PolynomialSystem, point-or-None)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.msg) from exc
    if not isinstance(doc, dict):
        raise ParseError(1, "top-level value must be an object")
    for key in ("nvars", "degrees", "polynomials"):
        if key not in doc:
            raise ParseError(1, f"missing field {key!r}")
    nvars = doc["nvars"]
    degrees = doc["degrees"]
    polys_doc = doc["polynomials"]
    if not isinstance(nvars, int) or nvars < 1:
        raise ParseError(1, "nvars must be a positive integer")
    if not isinstance(polys_doc, list) or not polys_doc:
        raise ParseError(1, "polynomials must be a non-empty list")
    if not isinstance(degrees, list) or len(degrees) != len(polys_doc):
        raise ParseError(1, "degrees must list one bound per polynomial")

    polys = []
    for pi, terms in enumerate(polys_doc):
        if not isinstance(terms, list):
            raise ParseError(1, f"polynomial {pi} must be a list of terms")
        poly = {}
        for term in terms:
            try:
                exps = term["exponents"]
                re, im = term["coeff"]
                c = complex(re, im)
            except (TypeError, KeyError, ValueError) as exc:
                raise ParseError(1, f"malformed term in polynomial {pi}: {term!r}") from exc
            if len(exps) != nvars or any((not isinstance(e, int)) or e < 0 for e in exps):
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
            point = np.array([complex(p[0], p[1]) for p in raw])
        except (TypeError, IndexError) as exc:
            raise ParseError(1, "point entries must be [re, im] pairs") from exc
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
                for alpha, c in sorted(poly.items(), key=_grlex_key)
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
