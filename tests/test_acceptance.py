"""Acceptance gate: one pass/fail line per criterion clause.

Each test prints "CRITERION <n> (<clause>): PASS|FAIL" on the real
stdout so the gate is readable straight off a captured pytest run.
Values are pinned exactly (rationals compared with ==) except where a
criterion itself states a tolerance; runtime budgets are asserted where
the criterion states one.

Two clauses concern recorded worked examples that exact arithmetic
refutes: the jump law J(1,1,2) on the binary tree and the Rayleigh
certificate lower >= sqrt(3/2) on the integer line.  The gate pins the
exact values, each checked against an oracle written here without
forge's sphere or matrix code, and asserts that the recorded values are
refuted.  The errata themselves stay visible in `forge paper-regression`
(entries tree-j-112 and zline-rayleigh-geometric, exit 1), which
tests/test_regression.py pins.
"""

import sys
import time
from contextlib import contextmanager
from fractions import Fraction as F
from itertools import product as iproduct

import numpy as np
import pytest

from dense_reference import apply, matmul, transition_matrix

from forge.cayley import parse_group_spec, realize_full
from forge.fixtures import resolve_spec
from forge.hypergroup import (
    associativity_defect,
    build_table,
    check_S1,
    check_S2,
    check_distance_regular,
    classify,
)
from forge.matrices import (
    commute_check,
    irreducibility,
    norm_bounds,
    norm_sq,
    stationary_check,
    uniform_norm_bound,
    verify_maincoro,
)
from forge.search import replay_counterexample, search_conjecture
from forge.walks import (
    brute_force_conditional,
    joint_distance_law,
    jump_distribution,
    left_nested_product,
    markov_check,
    monte_carlo_conditional,
)


GATE_LINES: list[str] = []


def _record(line: str) -> None:
    GATE_LINES.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        _record(f"CRITERION {label}: FAIL")
        raise
    _record(f"CRITERION {label}: PASS")


ALL_FIXTURES = [
    ("cycle:3", None),
    ("cycle:4", None),
    ("cycle:5", None),
    ("cycle:6", None),
    ("cycle:7", None),
    ("cycle:8", None),
    ("prism:3", None),
    ("prism:4", None),
    ("prism:5", None),
    ("prism:6", None),
    ("bipartite:2,3", None),
    ("bipartite:3,3", None),
    ("odd:3", None),
    ("figure:3", None),
    ("figure:3:base=w0p", None),
    ("figure:4", None),
    ("figure:5", None),
    ("figure:6", None),
    ("tree:binary:12", None),
    ("lattice:1:r=12", 6),
    ("lattice:2:r=9", 3),
    ("ladder:r=5", None),
    ("free:2:r=3", None),
]

_TABLE_CACHE: dict = {}


def fixture_table(spec, bound):
    key = (spec, bound)
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = build_table(resolve_spec(spec), bound=bound)
    return _TABLE_CACHE[key]


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_prism_left_nested_product():
    with criterion("1 (prism left-nested product (1,2,1))"):
        pl = left_nested_product(fixture_table("prism:3", None), (1, 2, 1))
        assert pl.as_dict() == {0: F(6, 27), 1: F(10, 27), 2: F(11, 27)}


def test_criterion_1_prism_jump_law():
    with criterion("1 (prism jump law (1,2,1))"):
        j = jump_distribution(resolve_spec("prism:3"), (1, 2, 1))
        assert j.as_dict() == {0: F(2, 9), 1: F(3, 9), 2: F(4, 9)}


def test_criterion_1_tree_left_nested_product():
    with criterion("1 (tree left-nested product (1,1,2))"):
        pl = left_nested_product(fixture_table("tree:binary:12", None), (1, 1, 2))
        assert pl.as_dict() == {0: F(1, 9), 2: F(4, 9), 4: F(4, 9)}


def _tree_sphere(v, radius, count):
    """S_radius(v) in the binary tree on range(count), parent of v is (v-1)//2."""
    seen = {v}
    frontier = [v]
    for _ in range(radius):
        step = []
        for u in frontier:
            near = [2 * u + 1, 2 * u + 2] + ([(u - 1) // 2] if u else [])
            for w in near:
                if w < count and w not in seen:
                    seen.add(w)
                    step.append(w)
        frontier = step
    return frontier


def _tree_jump_law(depth, pattern):
    """Sphere walk from the root by BFS; the law of the end depth."""
    count = 2 ** (depth + 1) - 1
    mu = {0: F(1)}
    for radius in pattern:
        nxt = {}
        for v, mass in mu.items():
            sphere = _tree_sphere(v, radius, count)
            for w in sphere:
                nxt[w] = nxt.get(w, F(0)) + mass / len(sphere)
        mu = nxt
    law = [F(0)] * (sum(pattern) + 1)
    for v, mass in mu.items():
        law[(v + 1).bit_length() - 1] += mass
    return tuple(law)


def test_criterion_1_tree_jump_law_recorded_value():
    # after (1,1) mass 1/3 is at the root and 2/3 at depth 2; radius 2 takes
    # the root to depth 2 and a depth-2 vertex to root, sibling, grandchildren
    # as 1:1:4, so J = (1/9, 0, 4/9, 0, 4/9).  The recorded (1/6, 0, 1/6, 0,
    # 2/3) is that last step from depth 2 alone: it drops the mass at the root.
    with criterion(
        "1 (tree jump law (1,1,2) = (1/9,0,4/9,0,4/9); "
        "recorded (1/6,0,1/6,0,2/3) refuted)"
    ):
        j = jump_distribution(resolve_spec("tree:binary:12"), (1, 1, 2))
        expected = _tree_jump_law(12, (1, 1, 2))
        assert expected == (F(1, 9), 0, F(4, 9), 0, F(4, 9))
        assert j.as_dict() == {k: w for k, w in enumerate(expected) if w}
        assert expected != (F(1, 6), 0, F(1, 6), 0, F(2, 3))


def test_criterion_1_integer_line_product_law():
    with criterion("1 (integer line product law i,j <= 6)"):
        table = fixture_table("lattice:1:r=12", 6)
        for i in range(7):
            for j in range(7):
                expected = {}
                for target in (abs(i - j), i + j):
                    expected[target] = expected.get(target, F(0)) + F(1, 2)
                assert table.row(i, j).as_dict() == expected, (i, j)


def test_criterion_1_runtime_budget():
    with criterion("1 (worked examples recomputed under 10 s)"):
        start = time.monotonic()
        prism = resolve_spec("prism:3")
        tree = resolve_spec("tree:binary:12")
        left_nested_product(build_table(prism), (1, 2, 1))
        jump_distribution(prism, (1, 2, 1))
        left_nested_product(build_table(tree), (1, 1, 2))
        jump_distribution(tree, (1, 1, 2))
        build_table(resolve_spec("lattice:1:r=12"), bound=6)
        assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_prism_family():
    with criterion("2 (prisms 3, 5, 6 are hypergroups; prism 4 is DR)"):
        for n in (3, 5, 6):
            report = classify(fixture_table(f"prism:{n}", None))
            assert report.verdict == "Hypergroup", n
        assert check_distance_regular(resolve_spec("prism:4")).passed
        assert not check_distance_regular(resolve_spec("prism:3")).passed


def test_criterion_2_plane_associativity_failure():
    with criterion("2 (square lattice associativity fails, incl. (1,2,3))"):
        table = fixture_table("lattice:2:r=9", 3)
        report = classify(table)
        assert report.verdict == "PreHypergroupOnly"
        assert report.commutative and not report.associative
        assert report.witness.kind == "associativity"
        assert report.witness.indices == (1, 1, 2, 2)
        left, right = associativity_defect(table, 1, 2, 3)
        assert left != right
        assert (left.coefficient(4), right.coefficient(4)) == (F(113, 288), F(577, 1440))


def test_criterion_2_tree_commutativity_failure():
    with criterion("2 (binary tree commutativity fails)"):
        report = classify(fixture_table("tree:binary:12", None))
        assert report.verdict == "PreHypergroupOnly"
        assert not report.commutative
        assert report.witness.kind == "commutativity"


def test_criterion_2_transcribed_fixtures_are_hypergroups():
    with criterion("2 (K_2,3 and transcribed figures classify as hypergroups)"):
        for spec in (
            "bipartite:2,3",
            "figure:3",
            "figure:3:base=w0p",
            "figure:4",
            "figure:5",
            "figure:6",
        ):
            report = classify(fixture_table(spec, None))
            assert report.verdict == "Hypergroup", spec


def test_criterion_2_figure_4_fails_walk_conditions():
    with criterion("2 (figure 4 fails both walk conditions)"):
        fig4 = resolve_spec("figure:4")
        assert not check_S1(fig4).passed
        assert not check_S2(fig4).passed


# ---------------------------------------------------------------- criterion 3

CAYLEY_EQUIVALENCE = (
    ["zmod:%d" % n for n in range(3, 9)]
    + ["zmod:%d,2" % n for n in range(3, 7)]
    + ["zmod:2,2,2"]
)
DR_FIXTURES = [
    "cycle:3",
    "cycle:4",
    "cycle:5",
    "cycle:6",
    "cycle:7",
    "cycle:8",
    "prism:4",
    "bipartite:3,3",
    "odd:3",
]

_elapsed_criterion_3 = {}


def test_criterion_3_brute_force_equals_jump_law():
    with criterion("3 (brute force = jump law, all patterns len <= 4)"):
        start = time.monotonic()
        checked = 0
        for spec in CAYLEY_EQUIVALENCE:
            cg = parse_group_spec(spec)
            pg = realize_full(cg)
            top = max(pg.spheres)
            for m in range(1, 5):
                for pat in iproduct(range(top + 1), repeat=m):
                    assert brute_force_conditional(cg, pat) == jump_distribution(
                        pg, pat
                    ), (spec, pat)
                    checked += 1
        _elapsed_criterion_3["brute"] = time.monotonic() - start
        assert checked == 3650


def test_criterion_3_jump_law_equals_left_nested_on_dr():
    with criterion("3 (jump law = left-nested on distance-regular fixtures)"):
        start = time.monotonic()
        for spec in DR_FIXTURES:
            pg = resolve_spec(spec)
            assert check_distance_regular(pg).passed, spec
            table = build_table(pg)
            top = max(pg.spheres)
            for m in range(1, 5):
                for pat in iproduct(range(top + 1), repeat=m):
                    assert jump_distribution(pg, pat) == left_nested_product(
                        table, pat
                    ), (spec, pat)
        _elapsed_criterion_3["dr"] = time.monotonic() - start


def test_criterion_3_runtime_budget():
    with criterion("3 (oracle equivalence under 2 min)"):
        assert sum(_elapsed_criterion_3.values()) < 120.0
        assert set(_elapsed_criterion_3) == {"brute", "dr"}


# ---------------------------------------------------------------- criterion 4

TRIALS = 10**6


def test_criterion_4_monte_carlo_convergence():
    with criterion("4 (Monte Carlo within 5e-3 of exact at 1e6 trials)"):
        cases = [
            ("zmod:4", "cycle:4", (1, 1)),
            ("zmod:3,2", "prism:3", (1, 2, 1)),
            ("lattice:1", "lattice:1:r=6", (1, 2, 3)),
        ]
        for group, graph, pattern in cases:
            mc = monte_carlo_conditional(parse_group_spec(group), pattern, TRIALS)
            exact = jump_distribution(resolve_spec(graph), pattern)
            assert mc.seed == 0
            assert mc.max_deviation(exact) < 5e-3, (group, pattern)


def test_criterion_4_prism_identifies_the_jump_law():
    with criterion("4 (prism empirical law matches J, not PL)"):
        mc = monte_carlo_conditional(parse_group_spec("zmod:3,2"), (1, 2, 1), TRIALS)
        j = jump_distribution(resolve_spec("prism:3"), (1, 2, 1))
        pl = left_nested_product(fixture_table("prism:3", None), (1, 2, 1))
        assert mc.max_deviation(j) < 5e-3
        assert mc.max_deviation(pl) > 3e-2


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_integer_line_bounds():
    with criterion("5 (integer line c_1 = 5/4, d_1 = 2, upper = sqrt(5/2))"):
        nb = norm_bounds(fixture_table("lattice:1:r=12", 6), 1)
        assert nb.c == F(5, 4)
        assert nb.d == 2
        assert nb.upper_sq == F(5, 2)


def _line_row_action(dim, xi):
    """xi P_1 for P_1 built from x_1 o x_0 = x_1, x_1 o x_i = (x_{i-1} + x_{i+1})/2."""
    rows = [[F(0)] * dim for _ in range(dim)]
    rows[0][1] = F(1)
    for i in range(1, dim):
        for j in (i - 1, i + 1):
            if j < dim:
                rows[i][j] += F(1, 2)
    return tuple(sum(xi[i] * rows[i][j] for i in range(dim)) for j in range(dim))


def test_criterion_5_rayleigh_certificate_recorded_value():
    # on indices 0..12, xi P_1 = (1/4, 9/8, 5/4 2^-j for 2 <= j <= 11, 2^-12);
    # on the whole line the squared quotient tends to 35/32 (37/64 for the
    # column action P_1 xi), so the recorded 3/2 is out of reach.
    with criterion(
        "5 (geometric vector: squared quotient 97867089/89478484 < 35/32; "
        "recorded lower >= sqrt(3/2) refuted)"
    ):
        table = fixture_table("lattice:1:r=24", 12)
        p1 = transition_matrix(table, 1)
        assert p1.dim == 13
        xi = tuple(F(1, 2) ** n for n in range(13))
        image = _line_row_action(13, xi)
        expected = sum(x * x for x in image) / sum(x * x for x in xi)
        computed = apply(p1, xi)
        assert computed == image
        quotient_sq = norm_sq(computed) / norm_sq(xi)
        assert quotient_sq == expected == F(97867089, 89478484)
        assert quotient_sq < F(35, 32) < F(3, 2)


def test_criterion_5_norm_exceeds_one():
    with criterion("5 (integer line operator norm strictly exceeds 1)"):
        table = fixture_table("lattice:1:r=24", 12)
        p1 = transition_matrix(table, 1)
        xi = tuple(F(1, 2) ** n for n in range(p1.dim))
        assert norm_sq(apply(p1, xi)) / norm_sq(xi) > 1
        assert norm_bounds(table, 1).lower_sq > 1


def test_criterion_5_uniform_bounds():
    with criterion("5 (S = 2 on the integer line, S = 4 on the ladder)"):
        assert uniform_norm_bound(resolve_spec("lattice:1:r=8")).s == 2
        assert uniform_norm_bound(resolve_spec("ladder:r=5")).s == 4


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_commute_iff_associative():
    with criterion("6 (commuting matrices iff associative, all fixtures)"):
        for spec, bound in ALL_FIXTURES:
            table = fixture_table(spec, bound)
            report = commute_check(table)
            verdict = classify(table)
            assert report.agrees_with_associative, spec
            assert report.commutes == (
                verdict.commutative and verdict.associative
            ), spec


def test_criterion_6_cycle_irreducibility():
    with criterion("6 (C_4: P_1 irreducible, P_2 classes {0,2},{1})"):
        table = fixture_table("cycle:4", None)
        assert irreducibility(table, 1).irreducible
        report = irreducibility(table, 2)
        assert not report.irreducible
        assert report.classes == ((0, 2), (1,))


FINITE_CAYLEY = [
    "zmod:4",
    "zmod:5",
    "zmod:6",
    "zmod:7",
    "zmod:8",
    "zmod:3,2",
    "zmod:4,2",
    "zmod:5,2",
    "zmod:6,2",
    "zmod:2,2,2",
]


def test_criterion_6_stationary_distribution():
    with criterion("6 (pi_G fixed by every P_k and the averaging matrix idempotent)"):
        for spec in FINITE_CAYLEY:
            report = stationary_check(parse_group_spec(spec))
            assert report.idempotent, spec
            assert report.pi_fixed and report.pi_fixed_all_k, spec
            assert report.witness_k is None, spec


def test_criterion_6_maincoro_identity():
    with criterion("6 (matrix product identity on Petersen and C_4, len <= 4)"):
        for spec in ("odd:3", "cycle:4"):
            table = fixture_table(spec, None)
            top = table.bound
            for m in range(1, 5):
                for pat in iproduct(range(top + 1), repeat=m):
                    report = verify_maincoro(resolve_spec(spec), pat)
                    assert report.passed, (spec, pat)
                    assert report.hypothesis_met, (spec, pat)


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_uniform_joint_law_factorizes():
    with criterion("7 (uniform joint law factorizes and is i.i.d., depth <= 4)"):
        for spec in ("zmod:4", "zmod:3,2"):
            cg = parse_group_spec(spec)
            pg = realize_full(cg)
            sizes = tuple(len(pg.spheres[n]) for n in sorted(pg.spheres))
            order = pg.vertex_count
            for depth in range(1, 5):
                law = joint_distance_law(cg, None, depth)
                for pattern, p in law.law.items():
                    expected = F(1)
                    for i in pattern:
                        expected *= F(sizes[i], order)
                    assert p == expected, (spec, pattern)
                report = markov_check(law)
                assert report.is_markov and report.is_iid, (spec, depth)


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_conjecture_search():
    with criterion("8 (exhaustive search to 7 vertices, all bases)"):
        start = time.monotonic()
        report = search_conjecture(max_vertices=7, base_policy="all")
        elapsed = time.monotonic() - start
        assert elapsed < 600.0
        assert report.graph_counts[7] == 853
        assert report.pointed_examined == 6781
        assert report.rejected_condition == 2963
        assert report.rejected_walk == 3753
        assert len(report.classified) == 65
        if report.counterexamples:
            for entry in report.counterexamples:
                replayed = replay_counterexample(entry)[3]
                assert replayed.verdict == entry.verdict, entry
        else:
            assert report.conjecture_holds


# ------------------------------------------------------------------ invariants

def test_invariant_random_rayleigh_quotients_respect_upper():
    with criterion("invariant (random Rayleigh quotients <= upper + 1e-12)"):
        rng = np.random.default_rng(20260815)
        for spec, bound in ALL_FIXTURES:
            table = fixture_table(spec, bound)
            for k in table.indices:
                nb = norm_bounds(table, k)
                p = transition_matrix(table, k)
                cols = sorted(nb.col_supports)
                for _ in range(200):
                    draws = rng.integers(0, 64, size=p.dim)
                    if not draws.any():
                        continue
                    vec = tuple(F(int(x), 64) for x in draws)
                    image = apply(p, vec)
                    quotient = norm_sq(tuple(image[j] for j in cols)) / norm_sq(vec)
                    assert float(quotient) <= float(nb.upper_sq) + 1e-12, (spec, k)


def test_invariant_support_containments():
    with criterion("invariant (row/column supports within [|i-k|, i+k])"):
        for spec, bound in ALL_FIXTURES:
            table = fixture_table(spec, bound)
            for k in table.indices:
                p = transition_matrix(table, k)
                for i in range(p.dim):
                    assert all(
                        abs(i - k) <= j <= i + k for j in p.support_row(i)
                    ), (spec, k, i)
                for j in range(p.dim):
                    assert all(
                        abs(j - k) <= i <= j + k for i in p.support_col(j)
                    ), (spec, k, j)


POINT_MASS_FIXTURES = ["cycle:4", "cycle:6", "prism:4", "bipartite:3,3", "odd:3", "figure:5"]


def test_invariant_point_mass_propagation():
    with criterion("invariant (e0 through the matrices = jump law)"):
        for spec in POINT_MASS_FIXTURES:
            pg = resolve_spec(spec)
            assert check_S1(pg).passed and check_S2(pg).passed, spec
            table = fixture_table(spec, None)
            assert classify(table).verdict == "Hypergroup", spec
            mats = {k: transition_matrix(table, k) for k in table.indices}
            top = table.bound
            for m in range(1, 4):
                for pat in iproduct(range(top + 1), repeat=m):
                    product = mats[pat[-1]]
                    for idx in reversed(pat[:-1]):
                        product = matmul(product, mats[idx])
                    e0 = tuple(F(int(n == 0)) for n in range(product.dim))
                    law = {j: w for j, w in enumerate(apply(product, e0)) if w}
                    assert law == dict(
                        jump_distribution(pg, pat).as_dict()
                    ), (spec, pat)


def test_invariant_norm_bounds_ordering():
    with criterion("invariant (lower <= upper on every fixture and index)"):
        for spec, bound in ALL_FIXTURES:
            table = fixture_table(spec, bound)
            for k in table.indices:
                nb = norm_bounds(table, k)
                assert nb.lower_sq <= nb.upper_sq, (spec, k)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
