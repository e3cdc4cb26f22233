"""m-fold product routes and the distance process.

The three routes (left-nested algebra product, jump-distribution DP,
literal enumeration) are compared on small Cayley graphs where all of
them are cheap, plus the known divergence cases: the left-nested product
differs from the jump law on the triangular prism, and pattern order
matters on the square lattice.
"""

import os
from fractions import Fraction as F

import pytest

from forge import walks
from forge.cayley import parse_group_spec, realize_window
from forge.errors import (
    BadParameter,
    EmptySphere,
    EnumerationCapExceeded,
    IndexOutOfRange,
    InternalError,
    NotCayley,
    NotFinite,
    PatternCapExceeded,
    RadiusExceeded,
    ZeroProbabilityCondition,
)
from forge.fixtures import resolve_spec
from forge.graphs import build_graph
from forge.hypergroup import build_table
from forge.walks import (
    brute_force_conditional,
    conditional_step_identity,
    joint_distance_law,
    jump_distribution,
    left_nested_product,
    markov_check,
    monte_carlo_conditional,
    permutation_invariance_check,
    uniform_distribution,
    validate_alpha,
    validate_pattern,
)


def test_validate_pattern():
    assert validate_pattern((1, 2, 0), 3) == (1, 2, 0)
    with pytest.raises(BadParameter):
        validate_pattern((), 3)
    with pytest.raises(IndexOutOfRange):
        validate_pattern((1, -1), 3)
    with pytest.raises(IndexOutOfRange):
        validate_pattern((4,), 3)


def test_prism_pl_differs_from_jump_law():
    prism = resolve_spec("prism:3")
    table = build_table(prism)
    pl = left_nested_product(table, (1, 2, 1))
    j = jump_distribution(prism, (1, 2, 1))
    assert pl.as_dict() == {0: F(2, 9), 1: F(10, 27), 2: F(11, 27)}
    assert j.as_dict() == {0: F(2, 9), 1: F(1, 3), 2: F(4, 9)}
    assert pl != j


def test_tree_pl_equals_jump_law():
    tree = resolve_spec("tree:binary:12")
    expected = {0: F(1, 9), 2: F(4, 9), 4: F(4, 9)}
    assert left_nested_product(build_table(tree), (1, 1, 2)).as_dict() == expected
    assert jump_distribution(tree, (1, 1, 2)).as_dict() == expected


def test_pl_matches_j_on_distance_regular_graphs():
    for spec in ("cycle:6", "prism:4", "odd:3", "bipartite:3,3"):
        pg = resolve_spec(spec)
        table = build_table(pg)
        top = max(pg.spheres)
        for pattern in [(1, 1), (1, 2), (2, 1), (1, 1, 1), (1, 2, 1)]:
            if max(pattern) > top:
                continue
            assert left_nested_product(table, pattern) == jump_distribution(
                pg, pattern
            ), (spec, pattern)


def test_left_nested_enforces_intermediate_bound():
    table = build_table(resolve_spec("lattice:1:r=12"), bound=3)
    with pytest.raises(RadiusExceeded):
        left_nested_product(table, (3, 3, 3))
    extended = left_nested_product(table, (3, 3, 3), extended=True)
    assert extended.as_dict() == {3: F(3, 4), 9: F(1, 4)}


def test_jump_distribution_window_scope():
    tree = resolve_spec("tree:binary:12")
    with pytest.raises(RadiusExceeded):
        jump_distribution(tree, (2, 2, 1))


def test_jump_law_names_the_least_vertex_with_an_empty_sphere():
    """K4 minus the edge {2, 3}, based at 2: after the steps 1, 1 the walk
    is on every vertex, and S_2(0) and S_2(1) are empty.  The walk reaches
    1 first, but its support is summed in vertex order, so the error
    names 0."""
    pg = build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)], 2)
    with pytest.raises(EmptySphere, match=r"^S_2\(0\) is empty for this pattern$"):
        jump_distribution(pg, (1, 1, 2))
    assert jump_distribution(pg, (1, 1, 1)).as_dict() == {0: F(1, 9), 1: F(7, 9), 2: F(1, 9)}


def test_brute_force_matches_jump_law():
    cg = parse_group_spec("zmod:3,2")
    prism = resolve_spec("prism:3")
    for pattern in [(1, 1), (1, 2), (2, 1), (1, 2, 1), (2, 2, 2)]:
        assert brute_force_conditional(cg, pattern) == jump_distribution(
            prism, pattern
        ), pattern


S4_FILE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "s4.txt")


@pytest.mark.parametrize(
    "spec,pattern",
    [
        ("free:2", (2, 2, 2)),
        ("free:2", (3, 1, 2)),
        ("free:3", (2, 1, 2)),
        ("lattice:2", (3, 3, 3)),
        ("ladder", (4, 4, 4)),
        (f"perm:{S4_FILE}", (2, 2, 2)),
        ("zmod:6,6", (0, 3, 1)),
    ],
    ids=lambda x: str(x).replace(S4_FILE, "s4.txt"),
)
def test_brute_force_equals_jump_law_on_windows_and_words(spec, pattern):
    """Free-group words, windows of infinite groups, S4 and an index-0 step."""
    cg = parse_group_spec(spec)
    law = jump_distribution(realize_window(cg, sum(pattern)), pattern)
    assert brute_force_conditional(cg, pattern) == law


def test_brute_force_reports_a_product_that_leaves_the_window(monkeypatch):
    """zmod:4,4 is bipartite with diameter 4: for the pattern 1,3 the window
    is the whole group, and the second letter of each word starts on S_0
    or S_2, no other letter on S_2.  With the row of one element of S_2
    broken, those products leave the window in the middle of a word, and
    the next letter must not read the window's last row, which is whole."""
    cg = parse_group_spec("zmod:4,4")
    realize = walks.cy.realize_window

    def broken(cg, radius):
        pg = realize(cg, radius)
        pg.cayley.right[pg.spheres[2][0]] = (-1,) * len(cg.generators)
        return pg

    monkeypatch.setattr(walks.cy, "realize_window", broken)
    with pytest.raises(InternalError, match="outside the realized window"):
        brute_force_conditional(cg, (1, 3))


@pytest.mark.parametrize(
    "pattern,error,message",
    [
        ((-5, 1), IndexOutOfRange, "pattern index -5 outside 0..inf"),
        ((1,) * 65, BadParameter, "pattern longer than the cap 64"),
    ],
    ids=["negative", "too-long"],
)
def test_pattern_is_checked_before_the_window_is_built(monkeypatch, pattern, error, message):
    def no_window(cg, radius):
        raise AssertionError("the window was built")

    monkeypatch.setattr(walks.cy, "realize_window", no_window)
    cg = parse_group_spec("free:2")
    with pytest.raises(error, match=f"^{message}$"):
        brute_force_conditional(cg, pattern)
    with pytest.raises(error, match=f"^{message}$"):
        monte_carlo_conditional(cg, pattern, 10)


def test_monte_carlo_refuses_a_negative_seed_before_the_window_is_built(monkeypatch):
    def no_window(cg, pattern):
        raise AssertionError("the window was built")

    monkeypatch.setattr(walks, "_pattern_window", no_window)
    with pytest.raises(BadParameter, match="^seed must be >= 0$"):
        monte_carlo_conditional(parse_group_spec("zmod:3"), (1,), 10, seed=-1)


def test_brute_force_needs_cayley_graph():
    with pytest.raises(NotCayley):
        brute_force_conditional(resolve_spec("prism:3"), (1, 1))


def test_brute_force_cap():
    with pytest.raises(EnumerationCapExceeded):
        brute_force_conditional(parse_group_spec("zmod:3,2"), (1, 1, 1), cap=10)


def test_monte_carlo_reproducible_and_seed_sensitive():
    cg = parse_group_spec("zmod:3,2")
    a = monte_carlo_conditional(cg, (1, 2, 1), 20_000, seed=0)
    b = monte_carlo_conditional(cg, (1, 2, 1), 20_000, seed=0)
    c = monte_carlo_conditional(cg, (1, 2, 1), 20_000, seed=1)
    assert a.counts == b.counts
    assert a.counts != c.counts
    assert sum(a.counts.values()) == 20_000


def test_monte_carlo_tracks_exact_law():
    cg = parse_group_spec("zmod:3,2")
    exact = jump_distribution(resolve_spec("prism:3"), (1, 2, 1))
    mc = monte_carlo_conditional(cg, (1, 2, 1), 50_000, seed=0)
    assert mc.max_deviation(exact) < 0.01
    for k in exact.support:
        assert mc.ci99(k) > 0


def test_monte_carlo_on_infinite_lattice():
    cg = parse_group_spec("lattice:1")
    exact = jump_distribution(resolve_spec("lattice:1:r=6"), (1, 2, 3))
    mc = monte_carlo_conditional(cg, (1, 2, 3), 50_000, seed=0)
    assert mc.max_deviation(exact) < 0.015


def test_uniform_distribution_and_alpha_validation():
    prism = resolve_spec("prism:3")
    alpha = uniform_distribution(prism)
    assert alpha == {0: F(1, 6), 1: F(1, 6), 2: F(1, 6)}
    assert validate_alpha(prism, alpha) == alpha
    with pytest.raises(BadParameter):
        validate_alpha(prism, {0: F(1, 2), 1: F(1, 12)})
    with pytest.raises(BadParameter):
        validate_alpha(prism, {0: F(3, 2), 1: F(-1, 6), 2: F(0)})
    with pytest.raises(IndexOutOfRange):
        validate_alpha(prism, {0: F(1, 2), 5: F(1, 2)})


def test_joint_law_uniform_alpha_factorizes():
    cg = parse_group_spec("zmod:4")
    law = joint_distance_law(cg, None, 3)
    sizes = (1, 2, 1)
    for pattern, p in law.law.items():
        expected = F(1)
        for i in pattern:
            expected *= F(sizes[i], 4)
        assert p == expected, pattern


def test_joint_law_requires_finite_group():
    with pytest.raises(NotFinite):
        joint_distance_law(parse_group_spec("lattice:1"), None, 2)


def test_joint_law_pattern_cap():
    with pytest.raises(PatternCapExceeded):
        joint_distance_law(parse_group_spec("zmod:4"), None, 4, pattern_cap=50)


def test_uniform_walk_is_iid():
    for spec in ("zmod:4", "zmod:3,2"):
        report = markov_check(joint_distance_law(parse_group_spec(spec), None, 3))
        assert report.is_markov and report.is_iid, spec


def test_skewed_cycle_walk_is_markov_not_iid():
    alpha = {0: F(1, 2), 1: F(1, 8), 2: F(1, 4)}
    report = markov_check(joint_distance_law(parse_group_spec("zmod:4"), alpha, 3))
    assert report.is_markov and not report.is_iid
    assert report.iid_witness is not None


def test_skewed_prism_walk_is_not_markov():
    alpha = {0: F(1, 4), 1: F(1, 6), 2: F(1, 8)}
    report = markov_check(joint_distance_law(parse_group_spec("zmod:3,2"), alpha, 3))
    assert not report.is_markov and not report.is_iid
    t, prefix_a, prefix_b, row_a, row_b = report.markov_witness
    assert t == 3
    assert prefix_a[-1] == prefix_b[-1]
    assert (prefix_a, prefix_b) == ((0, 1), (1, 1))
    assert row_a == {0: F(1, 6), 1: F(19, 36), 2: F(11, 36)}
    assert row_b == {0: F(1, 6), 1: F(241, 456), 2: F(139, 456)}


def test_conditional_step_identity_uniform():
    report = conditional_step_identity(parse_group_spec("zmod:3,2"), None, 1, 2)
    assert report.equal and report.uniform and report.sphere_identity
    assert report.lhs == F(1, 3)


def test_conditional_step_identity_skewed():
    alpha = {0: F(1, 4), 1: F(1, 6), 2: F(1, 8)}
    report = conditional_step_identity(parse_group_spec("zmod:3,2"), alpha, 1, 2)
    assert report.equal and not report.uniform
    assert report.sphere_identity is None


def test_conditional_step_identity_zero_condition():
    alpha = {0: F(1, 2), 1: F(0), 2: F(1, 2)}
    with pytest.raises(ZeroProbabilityCondition):
        conditional_step_identity(parse_group_spec("zmod:4"), alpha, 1, 1)


def test_permutation_invariance_on_cycle():
    report = permutation_invariance_check(resolve_spec("cycle:6"), (1, 2, 2))
    assert report.passed and report.hypothesis_met
    assert report.patterns_checked == 3


def test_permutation_invariance_fails_on_plane():
    report = permutation_invariance_check(resolve_spec("lattice:2:r=9"), (1, 1, 2), 3)
    assert not report.passed and not report.hypothesis_met
    pat_a, pat_b, k = report.witness
    assert sorted(pat_a) == sorted(pat_b) == [1, 1, 2]
    # The least index where PL(1, 1, 2) and PL(1, 2, 1) differ.
    assert report.witness == ((1, 1, 2), (1, 2, 1), 2)


def test_joint_law_that_loses_mass_raises_internal_error(monkeypatch):
    def half_mass(pg, alpha):
        return {i: F(1, 8) for i in pg.spheres}

    monkeypatch.setattr(walks, "validate_alpha", half_mass)
    with pytest.raises(InternalError, match="sum to 1"):
        joint_distance_law(parse_group_spec("zmod:4"), None, 2)
