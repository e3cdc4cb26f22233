"""The recorded-value regression table.

Two entries are expected to mismatch: the jump law of the (1,1,2) walk
on the rooted binary tree and the geometric Rayleigh quotient on the
one-dimensional lattice window.  The recorded values for those two do
not survive exact recomputation; everything else must match.
"""

import time
from fractions import Fraction as F

from dense_reference import apply, matmul, transition_matrix

from forge.fixtures import resolve_spec
from forge.hypergroup import build_table
from forge.matrices import norm_sq
from forge.regression import paper_regression


EXPECTED_MISMATCHES = {"tree-j-112", "zline-rayleigh-geometric"}


def test_regression_table_shape():
    report = paper_regression()
    assert len(report.entries) == 34
    names = [e.name for e in report.entries]
    assert len(set(names)) == len(names)


def test_exactly_the_known_mismatches():
    report = paper_regression()
    assert {e.name for e in report.mismatches} == EXPECTED_MISMATCHES
    assert not report.passed


def test_mismatch_entries_record_both_values():
    report = paper_regression()
    by_name = {e.name: e for e in report.mismatches}
    tree = by_name["tree-j-112"]
    assert tree.expected != tree.computed and not tree.match
    rayleigh = by_name["zline-rayleigh-geometric"]
    assert rayleigh.expected != rayleigh.computed


def test_matching_entries_agree():
    report = paper_regression()
    for entry in report.entries:
        if entry.name not in EXPECTED_MISMATCHES:
            assert entry.match, entry.name
            assert entry.expected == entry.computed, entry.name


def test_regression_runtime_budget():
    start = time.monotonic()
    paper_regression()
    assert time.monotonic() - start < 10.0


def test_matrix_entries_match_the_dense_reference():
    """The two matrix entries read table rows; dense products and the
    row action give the same values."""
    computed = {e.name: e.computed for e in paper_regression().entries}
    c6 = build_table(resolve_spec("cycle:6"))
    p1, p2 = transition_matrix(c6, 1), transition_matrix(c6, 2)
    e0 = (F(1),) + (F(0),) * (p1.dim - 1)
    pushed = apply(matmul(matmul(p1, p2), p1), e0)
    assert computed["point-mass-through-matrices"] == {j: w for j, w in enumerate(pushed) if w}
    assert computed["point-mass-through-matrices"] == {0: F(1, 4), 2: F(3, 4)}
    line = transition_matrix(build_table(resolve_spec("lattice:1:r=24"), bound=12), 1)
    xi = tuple(F(1, 2) ** n for n in range(line.dim))
    assert computed["zline-rayleigh-geometric"] == norm_sq(apply(line, xi)) / norm_sq(xi)
    assert computed["zline-rayleigh-geometric"] == F(97867089, 89478484)
