"""Transition-matrix realization: products, norms, stationarity.

The dual row flags matter on truncated windows: a row can be entrywise
exact while its ambient mass leaves the stored index range, and only
fully complete rows may feed mass-based arguments.  The rooted binary
tree at bound 2 exercises both flags.
"""

import dataclasses
from fractions import Fraction as F

import pytest

from forge import matrices
from forge.cayley import parse_group_spec
from forge.errors import (
    DimensionMismatch,
    HypothesisNotMet,
    IndexOutOfRange,
    InternalError,
    RadiusExceeded,
    TruncatedMatrix,
)
from forge.fixtures import resolve_spec
from forge.hypergroup import build_table, classify
from forge.matrices import (
    apply,
    commute_check,
    irreducibility,
    matmul,
    matrix_combination,
    norm_bounds,
    norm_sq,
    stationary_check,
    transition_matrix,
    uniform_norm_bound,
    verify_maincoro,
    verify_regular_representation,
)


def test_transition_matrix_rows_are_products():
    table = build_table(resolve_spec("cycle:4"))
    p1 = transition_matrix(table, 1)
    assert p1.entry(0, 1) == 1
    assert p1.row(1) == (F(1, 2), F(0), F(1, 2))
    assert p1.row(2) == (F(0), F(1), F(0))
    assert all(p1.row_exact) and all(p1.row_complete)
    assert not p1.truncated


def test_row_zero_is_point_mass_at_k():
    table = build_table(resolve_spec("prism:3"))
    for k in table.indices:
        pk = transition_matrix(table, k)
        assert pk.row(0) == tuple(F(int(j == k)) for j in range(pk.dim))


def test_matmul_flag_propagation_on_window():
    table = build_table(resolve_spec("tree:binary:12"))
    prod = matmul(transition_matrix(table, 1), transition_matrix(table, 2))
    assert prod.row_exact == (True, True, False)
    assert prod.row_complete == (False, False, False)
    # visible part of row 0 is exact but most of x_2 o x_1 lies at index 3
    assert prod.row(0) == (F(0), F(1, 3), F(0))


def test_matrix_combination_and_apply():
    table = build_table(resolve_spec("lattice:1:r=12"), bound=6)
    comb = matrix_combination(
        [(F(1, 2), transition_matrix(table, 0)), (F(1, 2), transition_matrix(table, 2))]
    )
    assert comb.entry(1, 1) == F(3, 4)
    assert comb.entry(1, 3) == F(1, 4)
    p1 = transition_matrix(table, 1)
    e0 = tuple(F(int(n == 0)) for n in range(7))
    assert apply(p1, e0) == p1.row(0)
    with pytest.raises(DimensionMismatch):
        apply(p1, (F(1),))


def test_norm_sq():
    assert norm_sq((F(1, 2), F(1, 2))) == F(1, 2)


def test_regular_representation_on_lattice_window():
    report = verify_regular_representation(
        build_table(resolve_spec("lattice:1:r=12"), bound=6)
    )
    assert report.passed and report.hypothesis_met
    assert report.pairs_checked == 28
    assert report.rows_compared == 140
    assert report.pairs_skipped == 21


def test_regular_representation_on_finite_hypergroup():
    report = verify_regular_representation(build_table(resolve_spec("odd:3")))
    assert report.passed and report.pairs_skipped == 0


def test_commute_check_matches_classification():
    for spec, bound in [
        ("cycle:4", None),
        ("cycle:6", None),
        ("prism:3", None),
        ("odd:3", None),
        ("tree:binary:12", None),
        ("lattice:2:r=9", 3),
        ("lattice:1:r=12", 6),
    ]:
        table = build_table(resolve_spec(spec), bound=bound)
        report = commute_check(table)
        verdict = classify(table)
        assert report.commutes == (verdict.commutative and verdict.associative), spec
        assert report.agrees_with_associative, spec


def test_commute_witnesses():
    tree = commute_check(build_table(resolve_spec("tree:binary:12")))
    assert not tree.commutes
    assert tree.witness == (1, 2, 0, 1, F(1, 3), F(1, 5))
    plane = commute_check(build_table(resolve_spec("lattice:2:r=9"), bound=3))
    assert not plane.commutes
    assert plane.witness == (1, 2, 1, 2, F(17, 32), F(13, 24))


def test_norm_bounds_on_lattice():
    table = build_table(resolve_spec("lattice:1:r=12"), bound=6)
    nb = norm_bounds(table, 1)
    assert nb.c == F(5, 4)
    assert nb.d == 2
    assert nb.upper_sq == F(5, 2)
    assert F(1) <= nb.lower_sq <= nb.upper_sq
    assert nb.window_sup
    with pytest.raises(IndexOutOfRange):
        norm_bounds(table, 7)


def test_norm_bounds_stay_consistent_on_starved_windows():
    # at tree bound 2 only column 0 of P_2 is certified; c, d, and the
    # Rayleigh quotients must all describe that same block
    table = build_table(resolve_spec("tree:binary:12"))
    nb = norm_bounds(table, 2)
    assert nb.window_sup
    assert nb.upper_sq == F(1, 36)
    assert nb.lower_sq <= nb.upper_sq
    assert list(nb.col_supports) == [0]


def test_norm_bounds_accepts_custom_vectors():
    table = build_table(resolve_spec("lattice:1:r=24"), bound=12)
    vec = tuple(F(1, 2**n) for n in range(13))
    nb = norm_bounds(table, 1, extra_vectors=[vec])
    assert nb.lower_sq >= F(97867089, 89478484)
    p1 = transition_matrix(table, 1)
    assert norm_sq(apply(p1, vec)) / norm_sq(vec) == F(97867089, 89478484)


def test_uniform_norm_bound():
    zline = uniform_norm_bound(resolve_spec("lattice:1:r=8"))
    assert (zline.s, zline.bound) == (2, 4)
    ladder = uniform_norm_bound(resolve_spec("ladder:r=5"))
    assert (ladder.s, ladder.bound) == (4, 16)
    prism = uniform_norm_bound(resolve_spec("prism:3"))
    assert (prism.s, prism.bound) == (3, 9)
    assert "all vertices" in prism.scope


def test_stationary_distribution_on_finite_cayley():
    report = stationary_check(parse_group_spec("zmod:3,2"))
    assert report.pi == (F(1, 6), F(1, 2), F(1, 3))
    assert report.idempotent and report.pi_fixed and report.pi_fixed_all_k
    assert report.witness_k is None


def test_stationary_distribution_on_cycle():
    report = stationary_check(parse_group_spec("zmod:5"))
    assert report.pi == (F(1, 5), F(2, 5), F(2, 5))
    assert report.pi_fixed_all_k


def test_irreducibility_classes():
    table = build_table(resolve_spec("cycle:4"))
    assert irreducibility(transition_matrix(table, 1)).irreducible
    p2 = irreducibility(transition_matrix(table, 2))
    assert not p2.irreducible
    assert p2.classes == ((0, 2), (1,))
    p0 = irreducibility(transition_matrix(table, 0))
    assert p0.classes == ((0,), (1,), (2,))


def test_irreducibility_needs_complete_rows():
    table = build_table(resolve_spec("lattice:1:r=12"), bound=6)
    with pytest.raises(TruncatedMatrix):
        irreducibility(transition_matrix(table, 1))


def test_maincoro_identity():
    assert verify_maincoro(build_table(resolve_spec("odd:3")), (1, 2, 1)).passed
    assert verify_maincoro(build_table(resolve_spec("cycle:4")), (1, 1, 1, 1)).passed


def test_maincoro_informational_failure_without_hypothesis():
    table = build_table(resolve_spec("tree:binary:12"))
    report = verify_maincoro(table, (1, 1))
    assert not report.hypothesis_met
    with pytest.raises(HypothesisNotMet):
        verify_maincoro(table, (1, 1), require_hypothesis=True)


def test_maincoro_window_scope():
    table = build_table(resolve_spec("lattice:1:r=12"), bound=6)
    assert verify_maincoro(table, (1, 2, 3)).passed
    with pytest.raises(RadiusExceeded):
        verify_maincoro(table, (3, 3, 1))


def test_broken_invariants_raise_internal_error(monkeypatch):
    table = build_table(resolve_spec("cycle:6"))
    with monkeypatch.context() as m:
        m.setattr(table, "entry", lambda k, i, j: F(0))
        with pytest.raises(InternalError, match="sum to 1"):
            transition_matrix(table, 1)
    p1 = transition_matrix(table, 1)
    entries = [list(row) for row in p1.entries]
    entries[0][p1.dim - 1] = F(1)
    broken = dataclasses.replace(p1, entries=tuple(tuple(row) for row in entries))
    with monkeypatch.context() as m:
        m.setattr(matrices, "transition_matrix", lambda table, k: broken)
        with pytest.raises(InternalError, match="support bound"):
            norm_bounds(table, 1)
