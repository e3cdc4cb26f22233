"""Transition-matrix realization: products, norms, stationarity.

The dual row flags matter on truncated windows: a row can be entrywise
exact while its ambient mass leaves the stored index range, and only
fully complete rows may feed mass-based arguments.  The rooted binary
tree at bound 2 exercises both flags.

The four verdicts (regular representation, commutation, the main
corollary, stationarity), the norm bounds and irreducibility read the
table's rows; the dense matrices of tests/dense_reference.py are their
oracle.  The reference_* functions below compute the same reports on
transition_matrix, matmul, matrix_combination and apply, and must give
the same reports and the same errors on every fixture, at every bound,
and on random connected graphs.
"""

from fractions import Fraction as F
from itertools import combinations, product as iproduct
from math import sqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import (
    DimensionMismatch,
    TransitionMatrix,
    apply,
    matmul,
    matrix_combination,
    transition_matrix,
)

import forge
from forge import errors, matrices
from forge.cayley import parse_group_spec, realize_full
from forge.errors import (
    EmptySphere,
    IndexOutOfRange,
    InternalError,
    RadiusExceeded,
    TruncatedMatrix,
)
from forge.fixtures import resolve_spec
from forge.graphs import build_graph
from forge.hypergroup import (
    ProbabilityVector,
    build_table,
    check_S1,
    check_S2,
    classify,
    sphere_sizes,
)
from forge.matrices import (
    CommuteReport,
    IrreducibilityReport,
    MaincoroReport,
    NormBound,
    RegRepReport,
    StationaryReport,
    commute_check,
    irreducibility,
    norm_bounds,
    norm_sq,
    stationary_check,
    uniform_norm_bound,
    verify_maincoro,
    verify_regular_representation,
)
from forge.serialize import dumps_json, jsonable
from forge.walks import jump_distribution, left_nested_product


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
    assert irreducibility(table, 1).irreducible
    p2 = irreducibility(table, 2)
    assert not p2.irreducible
    assert p2.classes == ((0, 2), (1,))
    p0 = irreducibility(table, 0)
    assert p0.classes == ((0,), (1,), (2,))


def test_irreducibility_needs_complete_rows():
    table = build_table(resolve_spec("lattice:1:r=12"), bound=6)
    with pytest.raises(TruncatedMatrix):
        irreducibility(table, 1)


def test_maincoro_identity():
    assert verify_maincoro(resolve_spec("odd:3"), (1, 2, 1)).passed
    assert verify_maincoro(resolve_spec("cycle:4"), (1, 1, 1, 1)).passed


def test_maincoro_informational_failure_without_hypothesis():
    tree = resolve_spec("tree:binary:12")
    report = verify_maincoro(tree, (1, 1))
    assert not report.hypothesis_met


def test_maincoro_window_scope():
    line = resolve_spec("lattice:1:r=12")
    assert verify_maincoro(line, (1, 2, 3), 6).passed
    with pytest.raises(RadiusExceeded):
        verify_maincoro(line, (3, 3, 1), 6)


def test_broken_invariants_raise_internal_error(monkeypatch):
    table = build_table(resolve_spec("cycle:6"))
    with monkeypatch.context() as m:
        m.setattr(table, "row", lambda k, i: ProbabilityVector.point(table.bound + 1))
        with pytest.raises(InternalError, match="sum to 1"):
            irreducibility(table, 1)
    # Row 0 of P_1 moved to the top index: x_1 o x_0 = x_3 breaks
    # |i - j| <= k <= i + j, and the row still sums to 1.
    row = table.row
    with monkeypatch.context() as m:
        m.setattr(
            table,
            "row",
            lambda k, i: ProbabilityVector.point(table.bound) if (k, i) == (1, 0) else row(k, i),
        )
        with pytest.raises(InternalError, match="support bound"):
            norm_bounds(table, 1)


@pytest.mark.parametrize("spec", ["odd:4", "cycle:6", "figure:3"])
def test_full_finite_tables_never_call_their_row_source(spec):
    """Every row a check reads on a finite graph's full table is stored, so
    a row source that raises changes no report."""

    def reports(table):
        return (
            classify(table),
            commute_check(table),
            verify_regular_representation(table),
            [norm_bounds(table, k) for k in table.indices],
            [left_nested_product(table, pat) for pat in iproduct(table.indices, repeat=3)],
        )

    def extend(i, j):
        raise AssertionError(f"row ({i},{j}) read from the row source")

    pg = resolve_spec(spec)
    expected = reports(build_table(pg))
    table = build_table(pg)
    table.extend = extend
    assert reports(table) == expected


def test_sub_bound_tables_of_finite_graphs_are_truncated():
    """A finite graph's table cut below its top index loses mass past the
    bound, like a window: rows may be incomplete, and every verdict and
    norm reports that scope instead of failing an internal check."""
    table = build_table(resolve_spec("cycle:6"), bound=1)
    p1 = transition_matrix(table, 1)
    assert p1.truncated
    assert p1.row_complete == (True, False)
    norms = norm_bounds(table, 0)
    assert norms.window_sup and norms.scope == "block of columns j <= 1 (window-sup)"
    assert commute_check(table).commutes
    assert verify_regular_representation(table).passed
    with pytest.raises(TruncatedMatrix):
        irreducibility(table, 1)
    with pytest.raises(IndexOutOfRange):
        verify_maincoro(resolve_spec("cycle:6"), (3, 3), 1)
    assert not transition_matrix(build_table(resolve_spec("cycle:6")), 1).truncated


# The dense verdicts, kept as the oracle of the row-based ones.


def reference_regular_representation(table):
    mats = {k: transition_matrix(table, k) for k in table.indices}
    hypothesis = classify(table).verdict == "Hypergroup"
    pairs = rows = skipped = 0
    witness = None
    for i in table.indices:
        for j in table.indices:
            support = table.row(i, j).support
            if any(k > table.bound for k in support):
                skipped += 1
                continue
            pairs += 1
            lhs = matmul(mats[i], mats[j])
            for a in range(lhs.dim):
                if not lhs.row_exact[a]:
                    continue
                rows += 1
                for b in range(lhs.dim):
                    rhs = sum((table.entry(i, j, k) * mats[k].entries[a][b] for k in support), F(0))
                    if lhs.entries[a][b] != rhs and witness is None:
                        witness = (i, j, a, b, lhs.entries[a][b], rhs)
    return RegRepReport(witness is None, hypothesis, pairs, rows, skipped, witness)


def reference_commute(table):
    mats = {k: transition_matrix(table, k) for k in table.indices}
    witness = None
    rows = 0
    for i in table.indices:
        for j in table.indices:
            if i >= j:
                continue
            ab = matmul(mats[i], mats[j])
            ba = matmul(mats[j], mats[i])
            for a in range(ab.dim):
                if not (ab.row_exact[a] and ba.row_exact[a]):
                    continue
                rows += 1
                if ab.entries[a] != ba.entries[a] and witness is None:
                    b = next(b for b in range(ab.dim) if ab.entries[a][b] != ba.entries[a][b])
                    witness = (i, j, a, b, ab.entries[a][b], ba.entries[a][b])
    report = classify(table)
    commutes = witness is None
    agrees = commutes == report.associative
    return CommuteReport(commutes, report.commutative, report.associative, agrees, rows, witness)


def reference_maincoro(pg, pattern, bound):
    table = build_table(pg, bound)
    pat = tuple(pattern)
    hypothesis = (
        check_S1(pg).passed
        and check_S2(pg).passed
        and classify(table).verdict == "Hypergroup"
    )
    tilde = jump_distribution(pg, pat)
    if any(k > table.bound for k in tilde.support):
        raise RadiusExceeded("pattern law reaches index beyond table bound")
    # transition_matrix raises IndexOutOfRange for a pattern index past the bound
    mats = {k: transition_matrix(table, k) for k in {*table.indices, *pat}}
    lhs = mats[pat[0]]
    for i_t in pat[1:]:
        lhs = matmul(lhs, mats[i_t])
    rhs = matrix_combination((tilde.coefficient(k), mats[k]) for k in tilde.support)
    rows = 0
    witness = None
    for a in range(lhs.dim):
        if not (lhs.row_exact[a] and rhs.row_exact[a]):
            continue
        rows += 1
        if lhs.entries[a] != rhs.entries[a] and witness is None:
            b = next(b for b in range(lhs.dim) if lhs.entries[a][b] != rhs.entries[a][b])
            witness = (a, b, lhs.entries[a][b], rhs.entries[a][b])
    return MaincoroReport(witness is None, hypothesis, pat, rows, witness)


def reference_stationary(cg):
    pg = realize_full(cg)
    sizes = sphere_sizes(pg)
    pi = tuple(F(n, pg.vertex_count) for n in sizes)
    dim = len(sizes)
    rows = tuple(tuple(pi) for _ in range(dim))
    flags = tuple(True for _ in range(dim))
    constant = TransitionMatrix(None, dim, rows, flags, flags, False, label="P")
    idempotent = matmul(constant, constant).entries == constant.entries
    pi_fixed = apply(constant, pi) == pi
    table = build_table(pg)
    witness = None
    for k in range(dim):
        if apply(transition_matrix(table, k), pi) != pi:
            witness = k
            break
    return StationaryReport(pi, idempotent, pi_fixed, witness is None, witness)


def reference_norm_bounds(table, k):
    p = transition_matrix(table, k)
    dim = p.dim
    truncated = p.truncated
    cols = tuple(j for j in range(dim) if not (truncated and j + k > table.bound))
    col_set = set(cols)
    col_supports = {}
    c = F(0)
    for j in cols:
        supp = p.support_col(j)
        col_supports[j] = supp
        if not all(abs(j - k) <= i <= j + k for i in supp):
            raise InternalError(f"column {j} of P_{k} breaks the support bound")
        c = max(c, sum((p.entries[i][j] ** 2 for i in supp), F(0)))
    row_supports = {}
    d = 0
    for i in range(dim):
        supp = tuple(j for j in p.support_row(i) if j in col_set)
        if supp:
            row_supports[i] = supp
            if not all(abs(i - k) <= j <= i + k for j in supp):
                raise InternalError(f"row {i} of P_{k} breaks the support bound")
            d = max(d, len(supp))
    if not d or c == 0:
        raise RadiusExceeded(f"no certified rows/columns for k={k} at this bound")
    candidates = [
        ("e0", tuple(F(int(n == 0)) for n in range(dim))),
        ("uniform", tuple(F(1) for _ in range(dim))),
        ("geometric-1/2", tuple(F(1, 2) ** n for n in range(dim))),
        ("geometric-1/4", tuple(F(1, 4) ** n for n in range(dim))),
        ("geometric-3/4", tuple(F(3, 4) ** n for n in range(dim))),
    ]
    lower_sq = F(0)
    best = ""
    for name, vec in candidates:
        image = apply(p, vec)
        quotient = norm_sq(tuple(image[j] for j in cols)) / norm_sq(vec)
        if quotient > lower_sq:
            lower_sq, best = quotient, name
    upper_sq = c * d
    if lower_sq > upper_sq:
        raise InternalError(f"lower bound {lower_sq} exceeds upper bound {upper_sq} for P_{k}")
    scope = (
        f"block of columns j <= {table.bound - k} (window-sup)"
        if truncated
        else "full index set"
    )
    return NormBound(
        k, c, d, upper_sq, sqrt(float(upper_sq)), lower_sq, sqrt(float(lower_sq)), best,
        truncated, scope, row_supports, col_supports,
    )


def reference_irreducibility(table, k):
    p = transition_matrix(table, k)
    if not all(p.row_complete):
        raise TruncatedMatrix("irreducibility needs a complete matrix")
    dim = p.dim
    forward = [set(p.support_row(i)) for i in range(dim)]

    def reach(start, adj):
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    backward = [set() for _ in range(dim)]
    for i in range(dim):
        for j in forward[i]:
            backward[j].add(i)
    assigned = [None] * dim
    classes = []
    for i in range(dim):
        if assigned[i] is not None:
            continue
        component = reach(i, forward) & reach(i, backward)
        for v in component:
            assigned[v] = len(classes)
        classes.append(tuple(sorted(component)))
    classes.sort(key=lambda c: c[0])
    return IrreducibilityReport(len(classes) == 1, tuple(classes))


def outcome(check, *args):
    """The report as its JSON text, or the name of the error raised."""
    try:
        return dumps_json(jsonable(check(*args)))
    except Exception as exc:
        return type(exc).__name__


REFERENCE_FIXTURES = [
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
    "lattice:1:r=12",
    "lattice:2:r=9",
    "free:2:r=6",
    "ladder:r=12",
    "tree:binary:12",
]
REFERENCE_PATTERNS = [
    (0,),
    (1,),
    (2,),
    (3,),
    (1, 1),
    (1, 2),
    (2, 1),
    (2, 2),
    (1, 3),
    (3, 3),
    (1, 1, 1),
    (1, 2, 1),
    (2, 3, 1),
    (1, 1, 1, 1),
]


def tables_at_every_bound(pg):
    """The tables of pg at bounds 0 to the default; a bound whose rows
    meet an empty sphere (irregular graphs) has no table."""
    top = int(pg.exact_radius) // 2 if pg.truncated else max(pg.spheres)
    for bound in range(top + 1):
        try:
            yield build_table(pg, bound)
        except EmptySphere:
            return


def assert_verdicts_match_reference(pg, table, patterns):
    assert outcome(verify_regular_representation, table) == outcome(
        reference_regular_representation, table
    )
    assert outcome(commute_check, table) == outcome(reference_commute, table)
    for pat in patterns:
        args = (pg, pat, table.bound)
        assert outcome(verify_maincoro, *args) == outcome(reference_maincoro, *args), pat
    for k in range(table.bound + 2):
        assert outcome(norm_bounds, table, k) == outcome(reference_norm_bounds, table, k), k
        assert outcome(irreducibility, table, k) == outcome(reference_irreducibility, table, k), k


@pytest.mark.parametrize("spec", REFERENCE_FIXTURES)
def test_verdicts_match_the_dense_reference(spec):
    pg = resolve_spec(spec)
    for table in tables_at_every_bound(pg):
        assert_verdicts_match_reference(pg, table, REFERENCE_PATTERNS)


@pytest.mark.parametrize(
    "spec",
    ["zmod:3,2", "zmod:5", "zmod:3,3,3", "zmod:6,6", "zmod:2,2,2", "cycle:7", "prism:4", "lattice:1:r=6"],
)
def test_stationary_matches_the_dense_reference(spec):
    cg = parse_group_spec(spec)
    assert outcome(stationary_check, cg) == outcome(reference_stationary, cg)


@st.composite
def pointed_connected_graphs(draw):
    """A random connected graph on at most 9 vertices (a random spanning
    tree plus further edges), pointed at a random vertex."""
    n = draw(st.integers(min_value=1, max_value=9))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [pair for pair in combinations(range(n), 2) if pair not in edges]
    edges |= set(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else set()
    return build_graph(sorted(edges), base=draw(st.integers(0, n - 1)), vertex_count=n)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(pointed_connected_graphs(), st.lists(st.integers(0, 4), min_size=1, max_size=3))
def test_verdicts_match_the_dense_reference_on_random_graphs(pg, pattern):
    for table in tables_at_every_bound(pg):
        assert_verdicts_match_reference(pg, table, [tuple(pattern)])


def test_rows_are_compared_up_to_the_bound_only():
    """Like the dense matrices, the comparison sees indices <= bound: two
    exact rows that differ only past it agree, and a row that is not
    exact is skipped."""
    table = build_table(resolve_spec("cycle:6"), bound=1)
    past = ((0,), (2, ((0, 1), (2, 1))), (2, ((0, 1), (3, 1))))
    inside = ((1,), (2, ((0, 1), (1, 1))), (1, ((0, 1),)))
    assert matrices._compare_rows(table, [past, ((0,), None, (1, ()))]) == (1, None)
    assert matrices._compare_rows(table, [past, inside]) == (2, (1, 0, F(1, 2), F(1)))


DENSE_NAMES = (
    "TransitionMatrix",
    "transition_matrix",
    "matmul",
    "matrix_combination",
    "apply",
    "DimensionMismatch",
)


def test_verdicts_build_no_dense_matrix():
    """The package has no dense P_k: every verdict reads table rows."""
    for module in (forge, matrices, errors):
        assert not [name for name in DENSE_NAMES if hasattr(module, name)], module.__name__
    assert not set(DENSE_NAMES) & set(forge.__all__)
    for spec in ("odd:4", "tree:binary:12", "lattice:2:r=9"):
        pg = resolve_spec(spec)
        table = build_table(pg)
        verify_regular_representation(table)
        commute_check(table)
        verify_maincoro(pg, (1, 1))
        for k in table.indices:
            try:
                norm_bounds(table, k)
            except RadiusExceeded:
                pass
            if not table.truncated:
                irreducibility(table, k)
    assert stationary_check(parse_group_spec("zmod:3,3,3")).passed
