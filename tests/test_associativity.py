"""Associativity on integer numerators against the Fraction reference.

`classify`, `associativity_defect` and `left_nested_product` mix table
rows through one integer kernel, `hypergroup.convex_combination`.  The
references below are the Fraction implementations the kernel replaced:
each side of a triple (and each step of PL) is a convex combination of
`ProbabilityVector` rows summed in `Fraction`s.  Every result, witness
Fractions, skipped triples and raised errors included, must agree, and
both must compute the same rows past the bound.
"""

from collections import Counter
from itertools import product

import pytest

from forge.errors import EmptySphere, ForgeError, RadiusExceeded
from forge.fixtures import resolve_spec
from forge.graphs import build_graph
from forge.hypergroup import (
    ClassificationReport,
    ProbabilityVector,
    Violation,
    associativity_defect,
    build_table,
    classify,
)
from forge.matrices import commute_check
from forge.search import _edges_from_neighbors, enumerate_connected_graphs
from forge.walks import left_nested_product, validate_pattern
from group_reference import from_pairs


def reference_combine(terms) -> ProbabilityVector:
    pairs = []
    for w, vec in terms:
        if not w:
            continue
        pairs.extend((k, w * c) for k, c in vec.items)
    return from_pairs(pairs)


def reference_first_difference(lhs, rhs):
    for k in sorted(set(lhs.support) | set(rhs.support)):
        if lhs.coefficient(k) != rhs.coefficient(k):
            return k
    return None


def reference_associativity_defect(table, h, i, j):
    left = reference_combine(
        (table.entry(h, i, l), table.row_extended(l, j))
        for l in table.row(h, i).support
    )
    right = reference_combine(
        (table.entry(i, j, l), table.row_extended(h, l))
        for l in table.row(i, j).support
    )
    return left, right


def reference_classify(table) -> ClassificationReport:
    witness = None
    commutative = True
    for i in table.indices:
        for j in table.indices:
            if i >= j:
                continue
            k = reference_first_difference(table.row(i, j), table.row(j, i))
            if k is not None:
                commutative = False
                witness = Violation(
                    "commutativity", (i, j, k), table.entry(i, j, k), table.entry(j, i, k)
                )
                break
        if not commutative:
            break
    associative = True
    skipped = 0
    assoc_witness = None
    for h in table.indices:
        for i in table.indices:
            for j in table.indices:
                try:
                    left, right = reference_associativity_defect(table, h, i, j)
                except RadiusExceeded:
                    skipped += 1
                    continue
                k = reference_first_difference(left, right)
                if k is not None:
                    associative = False
                    assoc_witness = Violation(
                        "associativity",
                        (h, i, j, k),
                        left.coefficient(k),
                        right.coefficient(k),
                    )
                    break
            if not associative:
                break
        if not associative:
            break
    if witness is None:
        witness = assoc_witness
    verdict = "Hypergroup" if commutative and associative else "PreHypergroupOnly"
    return ClassificationReport(verdict, commutative, associative, table.bound, witness, skipped)


def reference_left_nested_product(table, pattern, extended=False):
    pat = validate_pattern(pattern, table.bound)
    acc = ProbabilityVector.point(pat[0])
    for t, i_t in enumerate(pat[1:], start=2):
        if not extended:
            for l in acc.support:
                if l > table.bound:
                    raise RadiusExceeded(
                        f"intermediate support index {l} exceeds bound {table.bound} "
                        f"before step {t}"
                    )
        acc = reference_combine(
            (acc.coefficient(l), table.row_extended(l, i_t)) for l in acc.support
        )
    return acc


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ForgeError as exc:
        return type(exc).__name__, str(exc)


def twin_tables(pg):
    """Two tables of one graph, so that each side computes its own rows
    past the bound."""
    return build_table(pg), build_table(pg)


FINITE_FIXTURES = [
    *(f"cycle:{n}" for n in range(3, 9)),
    *(f"prism:{n}" for n in range(3, 7)),
    "bipartite:2,3",
    "bipartite:3,3",
    "odd:3",
    "odd:4",
    "figure:3",
    "figure:3:base=w0p",
    "figure:4",
    "figure:5",
    "figure:6",
    "zmod:2,2,2",
    "zmod:4,2",
    "zmod:3,3,3",
]
# Each window's witness kind and skipped triples, so that the comparison
# covers both witnesses and the skip rule.
WINDOWS = {
    "ladder:r=12": (None, 56),
    "ladder:r=30": (None, 680),
    "lattice:1:r=40": (None, 1540),
    "lattice:2:r=12": ("associativity", 0),
    "lattice:3:r=8": ("associativity", 0),
    "free:2:r=6": (None, 10),
    "free:2:r=7": (None, 4),
    "tree:binary:12": ("commutativity", 0),
}


def assert_classify_matches(pg):
    table, reference = twin_tables(pg)
    report = classify(table)
    assert report == reference_classify(reference), pg.name
    assert sorted(table.rows) == sorted(reference.rows), pg.name
    return report


@pytest.mark.parametrize("spec", FINITE_FIXTURES)
def test_classify_matches_reference_on_finite_fixtures(spec):
    assert_classify_matches(resolve_spec(spec))


@pytest.mark.parametrize("spec", list(WINDOWS))
def test_classify_matches_reference_on_windows(spec):
    report = assert_classify_matches(resolve_spec(spec))
    kind = report.witness.kind if report.witness else None
    assert (kind, report.skipped_triples) == WINDOWS[spec]


def enumerated_tables(max_vertices):
    """(name, graph, table) for every pointed graph with at most
    max_vertices vertices whose full table exists (at other bases some
    product meets an empty sphere)."""
    for n, neighbors, _ in enumerate_connected_graphs(max_vertices):
        edges = _edges_from_neighbors(neighbors)
        for base in range(n):
            pg = build_graph(edges, base, vertex_count=n)
            try:
                table = build_table(pg)
            except EmptySphere:
                continue
            yield f"{edges}@{base}", pg, table


def test_classify_and_commute_check_on_every_enumerated_table():
    """Up to 6 vertices, every base: classify matches the reference, and
    the transition matrices commute iff the table is associative."""
    kinds = Counter()
    for name, pg, table in enumerated_tables(6):
        report = classify(table)
        assert report == reference_classify(build_table(pg)), name
        kinds[report.witness.kind if report.witness else None] += 1
        commute = commute_check(table)
        assert commute.agrees_with_associative, name
        assert commute.commutes == (report.commutative and report.associative), name
    assert kinds == {None: 149, "commutativity": 227, "associativity": 59}


# What the triples of each table give: equal sides (True), a defect
# (False) or an error.
DEFECT_KINDS = {
    "tree:binary:12": {True, False, "RadiusExceeded"},
    "lattice:2:r=12": {True, False, "RadiusExceeded"},
    "ladder:r=12": {True, "RadiusExceeded"},
}
DEFECT_TABLES = list(DEFECT_KINDS)


@pytest.mark.parametrize("spec", DEFECT_TABLES)
def test_associativity_defect_matches_reference_on_every_triple(spec):
    table, reference = twin_tables(resolve_spec(spec))
    kinds = set()
    for h in table.indices:
        for i in table.indices:
            for j in table.indices:
                got = outcome(associativity_defect, table, h, i, j)
                want = outcome(reference_associativity_defect, reference, h, i, j)
                assert got == want, (spec, h, i, j)
                kinds.add(got[0] if isinstance(got[0], str) else got[0] == got[1])
    assert sorted(table.rows) == sorted(reference.rows)
    assert kinds == DEFECT_KINDS[spec]


# Fixed patterns, some past the bound of the smaller tables, and every
# triple of indices in 1..min(bound, 3).
PL_PATTERNS = [(1, 1), (1, 2, 1), (2, 3, 1), (3, 3, 3), (1, 1, 1, 1, 2), (4,)]
PL_TABLES = [
    "prism:3",
    "figure:4",
    "odd:4",
    "tree:binary:12",
    "lattice:2:r=12",
    "ladder:r=12",
    "free:2:r=6",
]


@pytest.mark.parametrize("spec", PL_TABLES)
@pytest.mark.parametrize("extended", [False, True])
def test_left_nested_product_matches_reference(spec, extended):
    table, reference = twin_tables(resolve_spec(spec))
    top = min(table.bound, 3)
    patterns = PL_PATTERNS + list(product(range(1, top + 1), repeat=3))
    for pattern in patterns:
        got = outcome(left_nested_product, table, pattern, extended=extended)
        want = outcome(reference_left_nested_product, reference, pattern, extended=extended)
        assert got == want, (spec, pattern)
    assert sorted(table.rows) == sorted(reference.rows)
