"""Structure constants, classification, walk conditions, distance regularity.

Reference values here are computed from small fixtures where the products
can be checked by hand: the 4-cycle and triangular prism, the rooted binary
tree (the standard non-commutative example), and one- and two-dimensional
lattice windows.  On random small connected graphs (hypothesis) every
product row is checked against the defining sum over networkx distances.
"""

from fractions import Fraction as F
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forge import hypergroup
from forge.errors import (
    BadParameter,
    EmptySphere,
    ForgeError,
    IndexOutOfRange,
    InternalError,
    NotFinite,
    RadiusExceeded,
)
from forge.fixtures import resolve_spec
from forge.graphs import build_graph
from forge.hypergroup import (
    ProbabilityVector,
    associativity_defect,
    build_table,
    check_S1,
    check_S2,
    check_distance_regular,
    classify,
    product,
    sphere_sizes,
)
from group_reference import from_pairs


def test_probability_vector_basics():
    vec = from_pairs([(2, F(1, 3)), (0, F(2, 3))])
    assert vec.support == (0, 2)
    assert vec.coefficient(2) == F(1, 3)
    assert vec.coefficient(5) == 0
    assert vec == from_pairs([(0, F(2, 3)), (2, F(1, 3))])


def test_probability_vector_requires_unit_mass():
    with pytest.raises(BadParameter):
        from_pairs([(0, F(1, 2))])


def test_point_mass():
    e3 = ProbabilityVector.point(3)
    assert e3.support == (3,) and e3.coefficient(3) == 1


def test_integer_row_is_derived_once_per_vector():
    """A vector is its integer row in lowest terms, fixed when it is built:
    reading it back as Fractions and building again gives an equal tuple."""
    vec = from_pairs([(2, F(1, 6)), (0, F(1, 2)), (1, F(1, 3))])
    assert vec == (6, ((0, 3), (1, 2), (2, 1)))
    assert (vec.den, vec.entries) == vec
    assert ProbabilityVector(*vec) == vec
    assert vec.items == ((0, F(1, 2)), (1, F(1, 3)), (2, F(1, 6)))
    other = from_pairs(vec.items)
    assert vec == other and hash(vec) == hash(other)
    # Weights of a common denominator are reduced with the row.
    assert from_pairs([(0, F(2, 4)), (3, F(2, 4))]) == (2, ((0, 1), (3, 1)))


def test_structure_constants_on_one_dimensional_lattice():
    pg = resolve_spec("lattice:1:r=12")
    row = product(pg, 1, 1)
    assert row.coefficient(0) == F(1, 2)
    assert row.coefficient(2) == F(1, 2)
    assert row.coefficient(1) == 0
    assert product(pg, 2, 3).as_dict() == {1: F(1, 2), 5: F(1, 2)}


def test_unit_laws():
    table = build_table(resolve_spec("prism:3"))
    for n in table.indices:
        assert table.row(0, n) == ProbabilityVector.point(n)
        assert table.row(n, 0) == ProbabilityVector.point(n)


def test_prism_products():
    table = build_table(resolve_spec("prism:3"))
    assert table.row(1, 1).as_dict() == {0: F(1, 3), 1: F(2, 9), 2: F(4, 9)}
    assert table.row(1, 2).as_dict() == {1: F(2, 3), 2: F(1, 3)}
    assert table.row(2, 2).as_dict() == {0: F(1, 2), 1: F(1, 2)}


def test_tree_products_are_order_dependent():
    table = build_table(resolve_spec("tree:binary:12"))
    assert table.row(1, 1).as_dict() == {0: F(1, 3), 2: F(2, 3)}
    assert table.row(1, 2).as_dict() == {1: F(1, 5), 3: F(4, 5)}
    assert table.row(2, 1).as_dict() == {1: F(1, 3), 3: F(2, 3)}


def test_support_bound_and_zero_entry_rule():
    # supp(x_i o x_j) stays inside [|i-j|, i+j] and mass at 0 appears
    # exactly on the diagonal
    for spec in ("cycle:6", "prism:4", "odd:3", "lattice:1:r=12"):
        table = build_table(resolve_spec(spec))
        for i in table.indices:
            for j in table.indices:
                vec = table.row(i, j)
                assert all(abs(i - j) <= k <= i + j for k in vec.support), (spec, i, j)
                assert (vec.coefficient(0) != 0) == (i == j), (spec, i, j)


def test_table_bound_validation():
    window = resolve_spec("lattice:1:r=12")
    assert build_table(window).bound == 6
    with pytest.raises(RadiusExceeded):
        build_table(window, bound=7)
    finite = resolve_spec("cycle:6")
    with pytest.raises(IndexOutOfRange):
        build_table(finite, bound=4)


def test_row_extended_is_certified_per_entry():
    window = resolve_spec("lattice:1:r=12")
    table = build_table(window, bound=3)
    with pytest.raises(IndexOutOfRange):
        table.row(4, 2)
    assert table.row_extended(4, 2).as_dict() == {2: F(1, 2), 6: F(1, 2)}
    assert table.row_extended(6, 5).as_dict() == {1: F(1, 2), 11: F(1, 2)}
    with pytest.raises(RadiusExceeded):
        table.row_extended(7, 6)
    finite = resolve_spec("cycle:6")
    table = build_table(finite, bound=1)
    for i, j in ((2, 1), (1, 3), (3, 3)):
        row = table.row_extended(i, j)
        assert row == product(finite, i, j)
        assert table.rows[(i, j)] is row
    with pytest.raises(IndexOutOfRange):
        table.row_extended(4, 1)


def test_classify_hypergroups():
    for spec in ("cycle:4", "cycle:6", "prism:3", "bipartite:2,3", "odd:3"):
        report = classify(build_table(resolve_spec(spec)))
        assert report.verdict == "Hypergroup", spec
        assert report.commutative and report.associative
        assert report.witness is None


def test_classify_tree_flags_commutativity_first():
    report = classify(build_table(resolve_spec("tree:binary:12")))
    assert report.verdict == "PreHypergroupOnly"
    assert not report.commutative
    assert report.witness.kind == "commutativity"
    assert report.witness.indices == (1, 2, 1)
    assert (report.witness.lhs, report.witness.rhs) == (F(1, 5), F(1, 3))


def test_classify_plane_flags_associativity():
    table = build_table(resolve_spec("lattice:2:r=9"), bound=3)
    report = classify(table)
    assert report.verdict == "PreHypergroupOnly"
    assert report.commutative and not report.associative
    assert report.witness.kind == "associativity"
    assert report.witness.indices == (1, 1, 2, 2)
    assert (report.witness.lhs, report.witness.rhs) == (F(17, 32), F(13, 24))


def test_associativity_defect_values():
    table = build_table(resolve_spec("lattice:2:r=9"), bound=3)
    left, right = associativity_defect(table, 1, 2, 3)
    assert left != right
    assert left.coefficient(4) == F(113, 288)
    assert right.coefficient(4) == F(577, 1440)


def test_window_classification_counts_skipped_triples():
    report = classify(build_table(resolve_spec("lattice:1:r=12"), bound=6))
    assert report.verdict == "Hypergroup"
    assert report.skipped_triples == 56


def test_S1_S2_verdicts():
    tree = resolve_spec("tree:binary:12")
    s1 = check_S1(tree)
    assert not s1.passed and s1.witness[0] == 1
    assert check_S2(tree).passed

    plane = resolve_spec("lattice:2:r=9")
    assert check_S1(plane).passed
    assert not check_S2(plane).passed

    assert check_S1(resolve_spec("cycle:6")).passed
    assert not check_S2(resolve_spec("prism:3")).passed

    fig4 = resolve_spec("figure:4")
    assert not check_S1(fig4).passed and not check_S2(fig4).passed

    assert check_S2(resolve_spec("figure:3")).passed
    assert not check_S2(resolve_spec("figure:3:base=w0p")).passed


def test_condition_reports_carry_scope_and_counts():
    report = check_S1(resolve_spec("lattice:1:r=6"))
    assert report.passed and report.checked > 0
    assert "6" in report.scope


def test_broken_invariants_raise_internal_error(monkeypatch):
    assert not issubclass(InternalError, ForgeError)
    pg = resolve_spec("cycle:8")
    with monkeypatch.context() as m:
        m.setattr(hypergroup, "sphere_counts", lambda pg, v, top: [{4: 2}] * (top + 1))
        with pytest.raises(InternalError, match="support"):
            product(pg, 0, 0)
    with monkeypatch.context() as m:
        m.setattr(
            hypergroup, "_product_rows", lambda pg, i, js: [ProbabilityVector.point(0)] * len(js)
        )
        with pytest.raises(InternalError, match="unit"):
            build_table(pg)


def test_product_row_without_hermiticity_is_an_internal_error(monkeypatch):
    """x_1 o x_1 must charge index 0; counts that put S_1(v) on S_2 only
    keep the support bound but break hermiticity."""
    pg = resolve_spec("cycle:8")
    monkeypatch.setattr(hypergroup, "sphere_counts", lambda pg, v, top: [{2: 2}] * (top + 1))
    with pytest.raises(InternalError, match="hermiticity"):
        product(pg, 1, 1)


def test_combination_mass_is_an_internal_invariant(monkeypatch):
    """A row that is not a probability vector breaks the mass of every
    convex combination that reads it: an internal error, not bad input."""
    table = build_table(resolve_spec("prism:3"))
    broken = ProbabilityVector(4, ((1, 2), (2, 1)))  # mass 3/4
    monkeypatch.setitem(table.rows, (1, 2), broken)
    with pytest.raises(InternalError, match="mass"):
        classify(table)
    with pytest.raises(InternalError, match="mass"):
        associativity_defect(table, 0, 1, 2)


def test_distance_regular_verdicts():
    assert check_distance_regular(resolve_spec("odd:3")).passed
    assert check_distance_regular(resolve_spec("cycle:6")).passed
    assert check_distance_regular(resolve_spec("prism:4")).passed
    assert not check_distance_regular(resolve_spec("prism:3")).passed
    assert not check_distance_regular(resolve_spec("prism:5")).passed


def test_distance_regular_needs_finite_graph():
    with pytest.raises(NotFinite):
        check_distance_regular(resolve_spec("lattice:1:r=6"))


def test_intersection_numbers_reproduce_structure_constants():
    # On a distance-regular graph p[i,j][k] = Q[j,k | i] / Q[j,j | 0], where
    # Q[a,b | c] counts the x with d(v,x) = a and d(x,w) = b for any pair
    # at distance d(v,w) = c (Brouwer, Cohen and Neumaier 1989).
    for spec in ("odd:3", "odd:4", "cycle:7", "prism:4", "zmod:3,3,3"):
        pg = resolve_spec(spec)
        report = check_distance_regular(pg)
        assert report.passed, spec
        q = report.intersection_numbers
        table = build_table(pg)
        assert table.bound == report.diameter, spec
        for i in table.indices:
            for j in table.indices:
                expected = {
                    k: F(q[(j, k, i)], q[(j, j, 0)])
                    for k in table.indices
                    if q.get((j, k, i))
                }
                assert table.row(i, j).as_dict() == expected, (spec, i, j)


def test_sphere_sizes():
    assert sphere_sizes(resolve_spec("prism:3")) == (1, 3, 2)


@st.composite
def pointed_connected_graphs(draw):
    """A random connected graph on at most 10 vertices, a random spanning
    tree plus any further edges, pointed at a random vertex."""
    n = draw(st.integers(min_value=1, max_value=10))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [pair for pair in combinations(range(n), 2) if pair not in edges]
    edges |= set(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else set()
    return build_graph(sorted(edges), base=draw(st.integers(0, n - 1)), vertex_count=n)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(pointed_connected_graphs())
def test_product_rows_are_stochastic_bounded_and_hermitian(pg):
    graph = nx.Graph(pg.graph.edges())
    graph.add_nodes_from(range(pg.vertex_count))
    dist = dict(nx.all_pairs_shortest_path_length(graph))
    for i, sphere in pg.spheres.items():
        for j in pg.spheres:
            # p[i,j][k] = (1/|S_i|) sum over v in S_i of |S_j(v) ∩ S_k| / |S_j(v)|
            outer = [[w for w, d in dist[v].items() if d == j] for v in sphere]
            if not all(outer):
                with pytest.raises(EmptySphere):
                    product(pg, i, j)
                continue
            want = {}
            for ring in outer:
                for w in ring:
                    k = dist[pg.base][w]
                    want[k] = want.get(k, 0) + F(1, len(sphere) * len(ring))
            row = product(pg, i, j).as_dict()
            assert row == want
            assert sum(row.values()) == 1
            assert abs(i - j) <= min(row) and max(row) <= i + j
            assert (0 in row) == (i == j)
