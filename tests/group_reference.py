"""The group product on GroupElements: the tests' reference for the table.

forge multiplies group elements only inside realize_window, whose
per-family step fills the window's integer table; every later reader
works on window indices.  This module keeps the element product that
forge used to carry, unchanged, so that the tests can rebuild a window's
elements along its BFS tree and check the table, the sphere oracle, the
samplers and the joint law against plain element arithmetic.
from_pairs builds a ProbabilityVector from (index, Fraction) pairs, as
the references that sum Fractions need.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from forge.cayley import GroupElement, _norm_vector, identity
from forge.errors import BadParameter, KindMismatch
from forge.hypergroup import ProbabilityVector


def _reduce_word(word) -> tuple[int, ...]:
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def multiply(g: GroupElement, h: GroupElement) -> GroupElement:
    if g.kind != h.kind:
        raise KindMismatch(f"cannot multiply {g.kind.describe()} by {h.kind.describe()}")
    kind = g.kind
    if kind.family == "vector":
        return GroupElement(kind, _norm_vector(kind, (a + b for a, b in zip(g.data, h.data))))
    if kind.family == "perm":
        return GroupElement(kind, tuple(g.data[h.data[x]] for x in range(kind.degree)))
    return GroupElement(kind, _reduce_word(g.data + h.data))


def from_pairs(pairs) -> ProbabilityVector:
    acc: dict[int, Fraction] = {}
    for k, w in pairs:
        if w:
            acc[k] = acc.get(k, Fraction(0)) + w
    items = sorted((k, w) for k, w in acc.items() if w)
    total = sum((w for _, w in items), Fraction(0))
    if any(w < 0 for _, w in items) or total != 1:
        raise BadParameter(f"not a probability vector (total {total})")
    den = lcm(*(w.denominator for _, w in items))
    return ProbabilityVector(den, tuple((k, w.numerator * (den // w.denominator)) for k, w in items))


def window_elements(pg) -> tuple[tuple[GroupElement, ...], dict]:
    """The elements of a realized window in vertex order, each the
    product of its BFS parent and the generator on via, and the index
    of each element."""
    data = pg.cayley
    elements = [identity(data.cg.kind)]
    for u, s in data.via[1:]:
        elements.append(multiply(elements[u], data.cg.generators[s]))
    return tuple(elements), {g: v for v, g in enumerate(elements)}
