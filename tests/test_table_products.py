"""The table's two products against dense matrices and the Fraction sums.

`StructureTable.left(h, law)` is x_h o law, the law as a row vector
times P_h, and `right(law, j)` is law o x_j, row j of sum_l law_l P_l.
Both are checked against the dense matrices of `dense_reference`, built
from a second table of the same graph at its full bound, while the table
under test is cut lower, so that its products read rows past its bound.
The step identity's right-hand side is checked against the Fraction sum
over table entries that it replaced.
"""

from fractions import Fraction as F
from functools import lru_cache

from dense_reference import apply, matrix_combination, transition_matrix
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import FINITE_CAYLEY
from test_associativity import FINITE_FIXTURES, WINDOWS

from forge.cayley import parse_group_spec, realize_full
from forge.fixtures import resolve_spec
from forge.hypergroup import build_table, sphere_sizes
from forge.walks import conditional_step_identity

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=300)


@lru_cache(maxsize=None)
def reference(spec):
    """(graph, full bound, P_0 .. P_bound dense) of one spec."""
    pg = resolve_spec(spec)
    full = build_table(pg)
    return pg, full.bound, [transition_matrix(full, k) for k in full.indices]


@lru_cache(maxsize=None)
def cut_table(spec, bound):
    """One table per spec and bound, shared by the examples, so that rows
    past the bound are computed by one example and read by later ones."""
    return build_table(reference(spec)[0], bound)


@st.composite
def products(draw):
    """(spec, table, index, integer law, dense law): the law's support
    and the index lie within the reference's bound, not the table's."""
    spec = draw(st.sampled_from(FINITE_FIXTURES + list(WINDOWS)))
    _, top, _ = reference(spec)
    table = cut_table(spec, draw(st.integers(0, top)))
    weights = draw(st.lists(st.integers(0, 5), min_size=top + 1, max_size=top + 1))
    if not any(weights):
        weights[draw(st.integers(0, top))] = 1
    den = sum(weights)  # the law is not in lowest terms in general
    law = (den, tuple((k, n) for k, n in enumerate(weights) if n))
    return spec, table, draw(st.integers(0, top)), law, [F(n, den) for n in weights]


def assert_matches(got, dense, top):
    """got is a probability vector that is the dense row on the
    reference's columns (all of them on a finite graph)."""
    assert sum(F(n, got.den) for _, n in got.entries) == 1
    assert [got.coefficient(k) for k in range(top + 1)] == list(dense)


def new_rows(table, product):
    """The rows that product adds to the table, in the order it adds them."""
    before = set(table.rows)
    product()
    return [key for key in table.rows if key not in before]


@SETTINGS
@given(products())
def test_left_is_the_law_times_p_h(case):
    spec, table, h, law, xi = case
    _, top, mats = reference(spec)
    added = new_rows(table, lambda: table.left(h, law))
    assert added == [(h, l) for l, _ in law[1] if (h, l) in added], spec
    assert_matches(table.left(h, law), apply(mats[h], xi), top)


@SETTINGS
@given(products())
def test_right_is_row_j_of_the_mixed_matrices(case):
    spec, table, j, law, xi = case
    _, top, mats = reference(spec)
    added = new_rows(table, lambda: table.right(law, j))
    assert added == [(l, j) for l, _ in law[1] if (l, j) in added], spec
    mixed = matrix_combination([(w, mats[l]) for l, w in enumerate(xi) if w])
    assert_matches(table.right(law, j), mixed.row(j), top)


def reference_step_identity(pg, alpha, i, j):
    """(rhs, uniform, sphere_identity) by the Fraction sums over table
    entries that conditional_step_identity used to form."""
    table, sizes, top = build_table(pg), sphere_sizes(pg), max(pg.spheres)
    rhs = sum((table.entry(i, k, j) * alpha.get(k, F(0)) * sizes[k] for k in range(top + 1)), F(0))
    uniform = all(alpha.get(k, F(0)) == F(1, pg.vertex_count) for k in range(top + 1))
    sphere_identity = None
    if uniform:
        sphere_identity = sizes[j] == sum((table.entry(i, k, j) * sizes[k] for k in range(top + 1)), F(0))
    return rhs, uniform, sphere_identity


def skewed(sizes, zero_at=None):
    """alpha_k proportional to k + 1, or 0 at zero_at, with sum alpha_k |S_k| = 1."""
    weights = [0 if k == zero_at else k + 1 for k in range(len(sizes))]
    total = sum(w * n for w, n in zip(weights, sizes))
    return {k: F(w, total) for k, w in enumerate(weights)}


def test_the_step_identity_matches_the_fraction_sums():
    for spec in FINITE_CAYLEY:
        cg = parse_group_spec(spec)
        pg = realize_full(cg)
        sizes = sphere_sizes(pg)
        uniform = {k: F(1, pg.vertex_count) for k in range(len(sizes))}
        for alpha in (None, skewed(sizes), skewed(sizes, zero_at=len(sizes) - 1)):
            weights = uniform if alpha is None else alpha
            for i in (i for i in range(len(sizes)) if weights[i]):  # P(Z_1 = i) > 0
                for j in range(len(sizes)):
                    report = conditional_step_identity(cg, alpha, i, j)
                    want = reference_step_identity(pg, weights, i, j)
                    assert (report.rhs, report.uniform, report.sphere_identity) == want, (spec, alpha, i, j)
                    assert report.lhs == report.rhs, (spec, alpha, i, j)
