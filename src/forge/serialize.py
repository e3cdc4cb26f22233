"""Serialization helpers: exact rationals as "num/den", stable JSON, TSV."""

from __future__ import annotations

import json
from fractions import Fraction

from . import graphs
from .errors import BadParameter


def frac_str(x: Fraction) -> str:
    """Render a rational as num/den, keeping the /1 on integers."""
    return f"{x.numerator}/{x.denominator}"


def parse_frac(text: str) -> Fraction:
    """A rational spelled <int>, <int>/<int> or <int>.<digits>, within
    blanks.  Every integer in it is one that graphs._int_token reads, so
    no "+", "_", exponent or non-ASCII digit gets through; Fraction then
    refuses a zero or signed denominator and any other arrangement."""
    try:
        for piece in text.strip().replace("/", ".").split("."):
            graphs._int_token(piece)
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise BadParameter(f"not a rational: {text!r}") from exc


def jsonable(obj):
    """Recursively convert reports to JSON-encodable structures.

    Fractions become "num/den" strings, tuples become lists, dict keys
    become strings, and objects exposing to_jsonable() delegate to it.
    A NamedTuple record becomes its fields in declaration order, then
    the properties its own class defines, in definition order; TSV rows
    follow that order.  It is read as a record before the generic tuple
    rule.
    """
    if isinstance(obj, Fraction):
        return frac_str(obj)
    if hasattr(obj, "to_jsonable"):
        return jsonable(obj.to_jsonable())
    names = getattr(type(obj), "_fields", None)  # a NamedTuple record
    if names is not None:
        data = {name: getattr(obj, name) for name in names}
        for name, attr in vars(type(obj)).items():
            if isinstance(attr, property):
                data[name] = getattr(obj, name)
        return jsonable(data)
    if isinstance(obj, dict):
        return {_key(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, float) and obj == float("inf"):
        return "inf"
    return obj


def _key(k) -> str:
    if isinstance(k, (list, tuple)):
        return ",".join(str(part) for part in k)
    return str(k)


def dumps_json(obj) -> str:
    return json.dumps(jsonable(obj), indent=2, sort_keys=True) + "\n"


def dumps_tsv(rows, header=None) -> str:
    """Render rows of cells as TSV; Fractions use the num/den form."""
    out = []
    if header is not None:
        out.append("\t".join(str(h) for h in header))
    for row in rows:
        out.append("\t".join(_cell(c) for c in row))
    return "\n".join(out) + "\n"


def _cell(c) -> str:
    if isinstance(c, Fraction):
        return frac_str(c)
    return str(c)
