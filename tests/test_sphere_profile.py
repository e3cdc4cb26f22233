"""The sphere-count kernel and the checks that reduce over it.

graphs.sphere_counts(pg, v, top) returns counts[n][k] = |S_n(v) ∩ S_k(base)|
for n = 0..top, from one source chosen by finiteness alone: a BFS cut at
the depth read on windows, Cayley windows included, and on finite graphs,
full Cayley groups included, the bitset spheres that
graphs.sphere_bitsets grows for all vertices at once.  It is checked
against networkx distances, and the Cayley translation oracle, which
check_S3 and the joint law read, against `cayley.multiply`.  product,
check_S1, check_S2, uniform_norm_bound, jump_distribution and condition
(iii), which reduce over it, are checked against their earlier versions
(kept here as reference_product, reference_check_S1, reference_check_S2,
reference_uniform_norm_bound, reference_jump_distribution and
reference_check_assumptions), which read one sphere at a time or sum
Fractions: equal rows, equal reports (witness, count and scope), and the
same errors, on seeded random graphs, on the finite catalog fixtures and
on windows of infinite graphs.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from operator import or_

import networkx as nx
import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from forge import cayley as cy
from forge import graphs, hypergroup
from forge.cayley import multiply, parse_group_spec, realize_full, realize_window
from forge.cli import main
from forge.errors import (
    DisconnectedGraph,
    EmptySphere,
    ForgeError,
    IndexOutOfRange,
    InternalError,
    RadiusExceeded,
)
from forge.fixtures import resolve_spec
from forge.graphs import (
    AssumptionReport,
    bfs_from,
    build_graph,
    check_assumptions,
    distance_row,
    load_graph_file,
    point_graph,
    sphere_at,
    sphere_bitsets,
    sphere_counts,
    sphere_sizes_at,
)
from forge.hypergroup import (
    ConditionReport,
    ProbabilityVector,
    build_table,
    check_S1,
    check_S2,
    check_distance_regular,
    classify,
    product,
)
from forge.matrices import UniformBound, uniform_norm_bound
from forge.walks import joint_distance_law, jump_distribution, validate_pattern

S4_GENERATORS = "(0 1)\n(1 2)\n(2 3)\n"


def reference_product(pg, i, j):
    """x_i o x_j as first written: one Fraction added per sphere element."""
    hypergroup._validate_index(pg, i, "i")
    hypergroup._validate_index(pg, j, "j")
    if pg.truncated and i + j > pg.exact_radius:
        raise RadiusExceeded(
            f"x_{i} o x_{j} needs i+j <= exact_radius={pg.exact_radius}"
        )
    base_sphere = pg.spheres.get(i, ())
    if not base_sphere:
        raise EmptySphere(f"S_{i}(base) is empty")
    size_i = len(base_sphere)
    acc = {}
    for v in base_sphere:
        ball = sphere_at(pg, v, j)
        if not ball:
            raise EmptySphere(f"S_{j}({v}) is empty; the product is undefined")
        unit = Fraction(1, size_i * len(ball))
        for u in ball:
            k = pg.dist[u]
            acc[k] = acc.get(k, Fraction(0)) + unit
    vec = ProbabilityVector.from_pairs(acc.items())
    lo, hi = abs(i - j), i + j
    if not all(lo <= k <= hi for k in vec.support):
        raise InternalError(f"x_{i} o x_{j} has support {vec.support} outside [{lo}, {hi}]")
    if (vec.coefficient(0) != 0) != (i == j):
        raise InternalError(f"x_{i} o x_{j} breaks hermiticity at index 0")
    return vec


def reference_check_S1(pg):
    """(S1) as first written: one sphere_at per (index, vertex)."""
    checked = 0
    if pg.truncated:
        radius = int(pg.exact_radius)
        scope = f"i >= 1, vertices with |v| + i <= {radius}"
        indices = range(1, radius + 1)
    else:
        radius = None
        scope = "all vertices, every index"
        indices = sorted(pg.spheres)
    for i in indices:
        expected = len(pg.spheres.get(i, ()))
        for v in range(pg.vertex_count):
            if pg.truncated and pg.dist[v] + i > radius:
                continue
            size = len(sphere_at(pg, v, i))
            checked += 1
            if size != expected:
                witness = (i, pg.label(v), size, expected)
                return ConditionReport("S1", False, witness, scope, checked)
    return ConditionReport("S1", True, None, scope, checked)


def reference_check_S2(pg):
    """(S2) as first written: S_i(v) fetched and rescanned for every j."""
    checked = 0
    if pg.truncated:
        radius = int(pg.exact_radius)
        scope = f"triples with k + i <= {radius}, j <= k + i"
        k_range = [n for n in sorted(pg.spheres) if n <= radius]
    else:
        radius = None
        scope = "all index triples and vertices"
        k_range = sorted(pg.spheres)
    for k in k_range:
        i_range = range(0, radius - k + 1) if pg.truncated else sorted(pg.spheres)
        for i in i_range:
            j_range = range(0, k + i + 1) if pg.truncated else sorted(pg.spheres)
            for j in j_range:
                expected = None
                ref_vertex = None
                for v in pg.spheres[k]:
                    ball = sphere_at(pg, v, i)
                    count = sum(1 for u in ball if pg.dist[u] == j)
                    checked += 1
                    if expected is None:
                        expected, ref_vertex = count, v
                    elif count != expected:
                        witness = (i, j, k, pg.label(ref_vertex), expected, pg.label(v), count)
                        return ConditionReport("S2", False, witness, scope, checked)
    return ConditionReport("S2", True, None, scope, checked)


def triple_loop_check_S2(pg):
    """(S2) before count rows were compared whole: every (i, j) looked up
    for every vertex of S_k, (D+1)^2 lookups per vertex."""
    checked = 0
    if pg.truncated:
        radius = int(pg.exact_radius)
        scope = f"triples with k + i <= {radius}, j <= k + i"
        k_range = [n for n in sorted(pg.spheres) if n <= radius]
    else:
        scope = "all index triples and vertices"
        k_range = sorted(pg.spheres)
    for k in k_range:
        sphere = pg.spheres[k]
        i_range = range(0, radius - k + 1) if pg.truncated else sorted(pg.spheres)
        profiles = [sphere_counts(pg, v, i_range[-1]) for v in sphere]
        for i in i_range:
            j_range = range(0, k + i + 1) if pg.truncated else sorted(pg.spheres)
            for j in j_range:
                expected = profiles[0][i].get(j, 0)
                for v, profile in zip(sphere, profiles):
                    count = profile[i].get(j, 0)
                    checked += 1
                    if count != expected:
                        first = pg.label(sphere[0])
                        witness = (i, j, k, first, expected, pg.label(v), count)
                        return ConditionReport("S2", False, witness, scope, checked)
    return ConditionReport("S2", True, None, scope, checked)


def reference_uniform_norm_bound(pg):
    """sup |S_k(v)| as first written: sphere_at on windows, BFS rows else."""
    s = 0
    if pg.truncated:
        radius = int(pg.exact_radius)
        scope = f"vertices and indices with |v| + k <= {radius}"
        for v in range(pg.vertex_count):
            if pg.dist[v] > radius:
                continue
            for k in range(radius - pg.dist[v] + 1):
                s = max(s, len(sphere_at(pg, v, k)))
    else:
        scope = "all vertices and indices"
        for v in range(pg.vertex_count):
            counts = {}
            for d in bfs_from(pg.graph, v):
                counts[d] = counts.get(d, 0) + 1
            s = max(s, max(counts.values()))
    return UniformBound(s, s * s, scope)


def reference_jump_distribution(pg, pattern):
    """J as first written: a Fraction per vertex, spread one sphere element
    at a time.  The support is visited in vertex order, so an EmptySphere
    names the least vertex whose sphere is empty, as the kernel's does."""
    top = pg.exact_radius if pg.truncated else max(pg.spheres)
    pat = validate_pattern(pattern, top)
    if pg.truncated and sum(pat) > pg.exact_radius:
        raise RadiusExceeded(f"pattern sum {sum(pat)} exceeds exact_radius {pg.exact_radius}")
    mu = {pg.base: Fraction(1)}
    for i_t in pat:
        nxt = {}
        for v, mass in sorted(mu.items()):
            ball = sphere_at(pg, v, i_t)
            if not ball:
                raise EmptySphere(f"S_{i_t}({pg.label(v)}) is empty for this pattern")
            unit = mass / len(ball)
            for w in ball:
                nxt[w] = nxt.get(w, Fraction(0)) + unit
        mu = nxt
    pairs = {}
    for v, mass in mu.items():
        k = pg.dist[v]
        pairs[k] = pairs.get(k, Fraction(0)) + mass
    return ProbabilityVector.from_pairs(pairs.items())


def reference_check_assumptions(pg):
    """The standing assumptions as first written: condition (iii) counts
    every vertex's spheres up to the top base index M."""
    graph = pg.graph
    simple = all(
        v not in adj and len(set(adj)) == len(adj) for v, adj in enumerate(graph.adjacency)
    )
    connected = all(d >= 0 for d in pg.dist)
    if pg.truncated:
        return AssumptionReport(simple, connected, True, "vacuous")
    top = max(pg.spheres)
    witness = None
    for v in range(graph.vertex_count):
        if not sphere_counts(pg, v, top)[top]:
            witness = v
            break
    verdict = "pass" if witness is None else "fail"
    return AssumptionReport(simple, connected, True, verdict, witness)


def jump_patterns(pg):
    """Four patterns per graph: short ones that usually succeed and long
    ones that raise EmptySphere, IndexOutOfRange or RadiusExceeded."""
    top = int(pg.exact_radius) if pg.truncated else max(pg.spheres)
    return [(1, 1), (1, 2, 1), (top, 1, top), (1, top, top)]


def outcome(fn, *args):
    """A result, or the type and message of the ForgeError raised."""
    try:
        return fn(*args)
    except ForgeError as exc:
        return type(exc), str(exc)


def random_pointed_graphs(count=50, seed=2024):
    """Seeded connected G(n, p) graphs, n <= 30, each at a seeded base."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        n = rng.randint(2, 30)
        p = rng.uniform(0.08, 0.5)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        try:
            graphs.append(build_graph(edges, rng.randrange(n), vertex_count=n))
        except DisconnectedGraph:
            continue
    return graphs


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
WINDOWS = ["lattice:2:r=9", "free:2:r=6", "ladder:r=12", "tree:binary:12"]


def assert_same_as_reference(pg):
    if pg.truncated:
        radius = int(pg.exact_radius)
        pairs = [(i, j) for i in range(radius + 1) for j in range(radius + 1 - i)]
    else:
        pairs = [(i, j) for i in pg.spheres for j in pg.spheres]
    for i, j in pairs:
        assert outcome(product, pg, i, j) == outcome(reference_product, pg, i, j), (
            pg.name,
            i,
            j,
        )
    for pattern in jump_patterns(pg):
        assert outcome(jump_distribution, pg, pattern) == outcome(
            reference_jump_distribution, pg, pattern
        ), (pg.name, pattern)
    assert check_assumptions(pg) == reference_check_assumptions(pg), pg.name
    assert check_S1(pg) == reference_check_S1(pg), pg.name
    assert uniform_norm_bound(pg) == reference_uniform_norm_bound(pg), pg.name
    report = check_S2(pg)
    assert report == reference_check_S2(pg), pg.name
    return report


def test_kernel_matches_reference_on_random_graphs():
    reports = [assert_same_as_reference(pg) for pg in random_pointed_graphs()]
    # Most random graphs fail (S2), so the witnesses are compared too.
    assert sum(not r.passed for r in reports) >= 40


@pytest.mark.parametrize("spec", FINITE_FIXTURES + WINDOWS)
def test_kernel_matches_reference_on_fixtures(spec):
    assert_same_as_reference(resolve_spec(spec))


@st.composite
def s2_inputs(draw):
    """A window of free:2, ladder or lattice:1 at a drawn radius, or a
    connected graph on at most 12 vertices at a drawn base: a circulant,
    perhaps with one edge toggled so that (S2) fails deep in the scan, or
    a random spanning tree plus edges."""
    shape = draw(st.sampled_from(["window", "circulant", "random"]))
    if shape == "window":
        spec, top = draw(st.sampled_from([("free:2", 6), ("ladder", 12), ("lattice:1", 16)]))
        return realize_window(parse_group_spec(spec), draw(st.integers(0, top)))
    n = draw(st.integers(1, 12))
    if shape == "circulant":
        offsets = draw(st.sets(st.integers(1, max(1, n // 2)), min_size=1))
        edges = {tuple(sorted((v, (v + d) % n))) for v in range(n) for d in offsets if d % n}
        if n > 1 and draw(st.booleans()):
            toggled = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            edges ^= {tuple(sorted(toggled))}
    else:
        edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
        pairs = [pair for pair in combinations(range(n), 2) if pair not in edges]
        edges |= set(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else set()
    try:
        return build_graph(sorted(edges), base=draw(st.integers(0, n - 1)), vertex_count=n)
    except DisconnectedGraph:
        assume(False)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(s2_inputs())
def test_check_s2_matches_the_triple_loop(pg):
    """Same verdict, witness, scope and checked count as the scan that
    looks up every (i, j) for every vertex."""
    assert check_S2(pg) == triple_loop_check_S2(pg)


@pytest.mark.parametrize("spec", ["cycle:200", "odd:6", "prism:12", "free:2:r=8"])
def test_check_s2_matches_the_triple_loop_on_large_graphs(spec):
    pg = resolve_spec(spec)
    assert check_S2(pg) == triple_loop_check_S2(pg)


def test_s1_and_uniform_bound_at_every_base():
    """The search points one graph at every base; (S1) and the uniform
    bound sum the sphere counts at each."""
    for pg in random_pointed_graphs(count=20, seed=77):
        for base in range(pg.vertex_count):
            at_base = point_graph(pg.graph, base)
            assert check_S1(at_base) == reference_check_S1(at_base), (pg.name, base)
            assert uniform_norm_bound(at_base) == reference_uniform_norm_bound(at_base)


@pytest.mark.parametrize("spec", FINITE_FIXTURES + WINDOWS)
def test_bfs_cache_holds_only_rows_by_vertex(spec):
    """After (iii), S1, S2, the uniform bound and, on finite graphs,
    distance regularity, a pointed graph's caches hold rows by vertex and
    nothing else: the count cache is keyed by its vertices, and each level
    of the bitset BFS, the spheres a finite graph grows for all its
    vertices together, holds one sphere per vertex.  A window grows none."""
    pg = resolve_spec(spec)
    check_assumptions(pg)
    check_S1(pg)
    check_S2(pg)
    uniform_norm_bound(pg)
    if not pg.truncated:
        check_distance_regular(pg)
    assert pg._count_cache
    assert all(isinstance(v, int) and 0 <= v < pg.vertex_count for v in pg._count_cache)
    if pg.truncated:
        assert pg._shells == []
    else:
        assert pg._shells and all(len(level) == pg.vertex_count for level in pg._shells)


def test_reference_patterns_cover_the_jump_law_errors():
    """The reference comparison meets every error J raises on these
    inputs, and (iii) fails on some random graphs."""
    graphs = random_pointed_graphs() + [resolve_spec(s) for s in FINITE_FIXTURES + WINDOWS]
    errors = {
        result[0]
        for pg in graphs
        for pattern in jump_patterns(pg)
        if isinstance(result := outcome(jump_distribution, pg, pattern), tuple)
    }
    assert {EmptySphere, IndexOutOfRange, RadiusExceeded} <= errors
    assert any(check_assumptions(pg).condition_iii == "fail" for pg in graphs)


def test_build_table_rows_equal_single_products():
    for spec in ["odd:4", "figure:4", "prism:5", "zmod:4,2", "free:2:r=6", "tree:binary:12"]:
        pg = resolve_spec(spec)
        table = build_table(pg)
        assert table.rows == {(i, j): product(pg, i, j) for i, j in table.rows}, spec


def networkx_graph(pg):
    graph = nx.Graph(pg.graph.edges())
    graph.add_nodes_from(range(pg.vertex_count))
    return graph


def networkx_counts(pg, graph, v, top, cutoff=None):
    """counts[n][k] for n = 0..top from networkx distances in graph."""
    counts = [{} for _ in range(top + 1)]
    for u, d in nx.single_source_shortest_path_length(graph, v, cutoff=cutoff).items():
        if d <= top:
            k = pg.dist[u]
            counts[d][k] = counts[d].get(k, 0) + 1
    return counts


def test_sphere_counts_count_by_base_distance():
    """Every vertex and index of finite graphs, with the spheres past the
    eccentricity of v empty."""
    specs = FINITE_FIXTURES + ["odd:4"]
    graphs = random_pointed_graphs(count=10, seed=7) + [resolve_spec(s) for s in specs]
    for pg in graphs:
        graph = networkx_graph(pg)
        top = max(pg.spheres) + 1
        for v in range(pg.vertex_count):
            counts = networkx_counts(pg, graph, v, top)
            eccentricity = max(n for n, sphere in enumerate(counts) if sphere)
            assert sphere_counts(pg, v) == counts[: eccentricity + 1], (pg.name, v)
            assert sphere_counts(pg, v, top) == counts, (pg.name, v)


def test_sphere_counts_on_windows_keep_the_scope_rule():
    """Inside the exact region, window distances are the ambient ones;
    a window serves n <= R - |v| and raises RadiusExceeded past it."""
    for spec in ["free:2:r=6", "lattice:2:r=8", "ladder:r=12", "tree:binary:12"]:
        pg = resolve_spec(spec)
        graph = networkx_graph(pg)
        radius = int(pg.exact_radius)
        for v in range(pg.vertex_count):
            limit = radius - pg.dist[v]
            if limit < 0:
                with pytest.raises(RadiusExceeded):
                    sphere_counts(pg, v)
                continue
            expected = networkx_counts(pg, graph, v, limit, cutoff=limit)
            assert sphere_counts(pg, v) == expected, (spec, v)
            assert sphere_counts(pg, v, limit // 2) == expected[: limit // 2 + 1]
            with pytest.raises(RadiusExceeded):
                sphere_counts(pg, v, limit + 1)
            with pytest.raises(RadiusExceeded):
                sphere_at(pg, v, limit + 1)


def test_sphere_counts_on_full_groups(tmp_path):
    s4 = tmp_path / "s4.txt"
    s4.write_text(S4_GENERATORS)
    for pg in [resolve_spec("zmod:3,3,3"), realize_full(parse_group_spec(f"perm:{s4}"))]:
        assert pg._sphere_oracle is not None and not pg.truncated
        graph = networkx_graph(pg)
        top = max(pg.spheres)
        for v in range(pg.vertex_count):
            assert sphere_counts(pg, v) == networkx_counts(pg, graph, v, top), (pg.name, v)
            for n in range(top + 2):
                assert sphere_at(pg, v, n) == tuple(
                    sorted(u for u, d in enumerate(bfs_from(pg.graph, v)) if d == n)
                )


def test_uniform_bound_drops_bfs_distances_past_the_scope():
    """tree:binary:12 is a BFS window (no Cayley oracle) with exact radius
    4: the distances its BFS rows reach past R - |v| must not count."""
    pg = resolve_spec("tree:binary:12")
    assert pg._sphere_oracle is None and pg.exact_radius == 4 and max(pg.spheres) == 12
    assert uniform_norm_bound(pg) == UniformBound(
        16, 256, "vertices and indices with |v| + k <= 4"
    )


@pytest.mark.parametrize(
    "spec,radius",
    [("free:2", 5), ("lattice:2", 6), ("ladder", 8), ("s5", 3), ("zmod:4,3", None), ("s4", None)],
)
def test_oracle_translates_the_base_ball(tmp_path, spec, radius):
    """oracle(v, top)[g] = index[elements[v] * elements[g]] for every g in
    B_top, top = R - |v| on windows and the diameter on full groups."""
    path = tmp_path / "gens.txt"
    path.write_text({"s5": "(0 1)\n(0 1 2 3 4)\n(0 4 3 2 1)\n", "s4": S4_GENERATORS}.get(spec, ""))
    cg = parse_group_spec(f"perm:{path}" if spec in ("s4", "s5") else spec)
    pg = realize_full(cg) if radius is None else realize_window(cg, radius)
    data = pg.cayley
    for v in range(pg.vertex_count):
        top = radius - pg.dist[v] if pg.truncated else max(pg.spheres)
        ball = pg._sphere_oracle(v, top)
        assert len(ball) == sum(1 for d in pg.dist if d <= top)
        assert ball == [
            data.index[multiply(data.elements[v], data.elements[g])] for g in range(len(ball))
        ]


def test_oracle_reports_a_translation_that_leaves_the_window():
    pg = realize_window(parse_group_spec("lattice:1"), 4)
    rim = pg.spheres[4][0]
    with pytest.raises(InternalError, match="leaves the window"):
        pg._sphere_oracle(rim, 1)


@pytest.mark.parametrize("radius,sample_cap", [(4, 200_000), (5, 200_000), (5, 500)])
def test_check_s3_reads_one_uncached_bfs_row_per_vertex(monkeypatch, radius, sample_cap):
    """check_S3 runs one BFS for each distinct v among the pairs it checks,
    cut at depth radius - |v|, the deepest any of v's pairs reads, and
    caches none of the rows in the window."""
    cg = parse_group_spec("free:2")
    window = realize_window(cg, radius)
    starts = Counter()
    real_bfs_ball = cy.bfs_ball

    def counting_bfs_ball(graph, v, depth):
        assert depth == radius - window.dist[v]
        starts[v] += 1
        ball = real_bfs_ball(graph, v, depth)
        full = bfs_from(graph, v)
        assert ball == {u: d for u, d in enumerate(full) if d <= depth}
        return ball

    def no_full_bfs(graph, v):
        raise AssertionError("check_S3 ran a full BFS without a mismatch")

    monkeypatch.setattr(cy, "realize_window", lambda cg, radius: window)
    monkeypatch.setattr(cy, "bfs_ball", counting_bfs_ball)
    monkeypatch.setattr(cy, "bfs_from", no_full_bfs)
    cached = dict(window._count_cache)
    report = cy.check_S3(cg, radius, sample_cap)
    pairs = [
        (v, w)
        for v in range(window.vertex_count)
        for w in range(1, window.vertex_count)
        if window.dist[v] + window.dist[w] <= radius
    ]
    stride = max(1, -(-len(pairs) // sample_cap))
    assert report.passed and report.checked == len(pairs[::stride])
    assert starts == Counter({v for v, _ in pairs[::stride]})
    assert window._count_cache == cached and window._shells == []


def test_check_s3_witness_reports_the_full_window_distance(monkeypatch):
    """A mismatch past the depth cut still reports d(v, vw) in the window."""
    cg = parse_group_spec("free:2")
    radius = 4
    window = realize_window(cg, radius)
    oracle = window._sphere_oracle
    v = 1
    row = bfs_from(window.graph, v)
    # A rim vertex on another branch: past v's cut at radius - |v|.
    far = next(u for u, d in enumerate(row) if d == radius + window.dist[v])

    def broken_oracle(u, top):
        ball = oracle(u, top)
        if u == v:
            ball[1] = far
        return ball

    window._sphere_oracle = broken_oracle
    monkeypatch.setattr(cy, "realize_window", lambda cg, radius: window)
    report = cy.check_S3(cg, radius)
    assert not report.passed
    assert report.checked == window.vertex_count  # every w for v = 0, then (v, 1)
    assert report.witness == (window.label(v), window.label(1), 1, radius + 1)


def test_window_checks_run_without_group_multiplication(monkeypatch):
    """After realize_window, every sphere reader uses the integer table."""
    window = realize_window(parse_group_spec("free:2"), 6)
    group = parse_group_spec("zmod:3,2")
    full = realize_full(group)

    def run_all():
        return (
            check_S1(window),
            check_S2(window),
            check_assumptions(window),
            build_table(window).rows,
            classify(build_table(window)),
            uniform_norm_bound(window),
            jump_distribution(window, (2, 1, 3)),
            cy.check_S3(parse_group_spec("free:2"), 6),
            check_assumptions(full),
            check_S1(full),
            joint_distance_law(group, None, 2).law,
        )

    expected = run_all()

    def no_multiply(g, h):
        raise AssertionError("multiply called after realize_window")

    monkeypatch.setattr(cy, "realize_window", lambda cg, radius: window)
    monkeypatch.setattr(cy, "realize_full", lambda cg: full)
    monkeypatch.setattr(cy, "multiply", no_multiply)
    assert run_all() == expected


def test_s2_on_a_bfs_window_caches_only_the_base_row():
    """tree:binary:12 is a window without a Cayley oracle: check_S2 reads
    each ball by a BFS cut at depth R - |v|, keeps no row but the base's
    distances, and grows no bitset spheres."""
    pg = resolve_spec("tree:binary:12")
    assert pg._sphere_oracle is None and pg.truncated
    assert check_S2(pg).passed
    radius = int(pg.exact_radius)
    assert all(len(counts) == radius - pg.dist[v] + 1 for v, counts in pg._count_cache.items())
    assert pg._shells == []


def test_sphere_counts_read_each_vertex_once(monkeypatch):
    """The source is chosen by finiteness alone, and the count cache keeps
    one entry per vertex, the deepest read so far.  (iii), (S1) and (S2)
    on a full group read the bitset spheres, never the translation
    oracle; (S1), (S2) and the table on a Cayley window run one BFS ball
    per vertex and grow no bitsets."""
    full = resolve_spec("zmod:3,3,3,3")

    def no_oracle(v, top):
        raise AssertionError("a sphere query translated a ball")

    full._sphere_oracle = no_oracle
    for check in (check_assumptions, check_S1, check_S2):
        check(full)
    assert len(full._shells) == max(full.spheres) + 1
    assert sorted(full._count_cache) == list(range(full.vertex_count))

    window = resolve_spec("free:2:r=6")
    calls, real_bfs_ball = Counter(), graphs.bfs_ball

    def counting_bfs_ball(graph, v, depth):
        calls[v] += 1
        return real_bfs_ball(graph, v, depth)

    monkeypatch.setattr(graphs, "bfs_ball", counting_bfs_ball)
    for check in (check_S1, check_S2, build_table):
        check(window)
    assert calls == Counter(range(window.vertex_count))
    assert window._shells == []


@pytest.mark.parametrize(
    "spec,args",
    [("free:2:r=5", ["free:2", "--radius", "5"]), ("ladder:r=8", ["ladder", "--radius", "8"])],
)
def test_a_cayley_window_reads_the_spheres_of_its_graph_json(tmp_path, spec, args):
    """A Cayley window and its graph-JSON round trip take the one window
    path: the same counts at every vertex and the same reports."""
    path = tmp_path / "window.json"
    result = CliRunner().invoke(main, ["--out", str(path), "cayley", "realize", *args])
    assert result.exit_code == 0, result.output
    window, loaded = resolve_spec(spec), load_graph_file(str(path))
    assert window.cayley is not None and loaded.cayley is None
    assert loaded.exact_radius == window.exact_radius and window.truncated
    for v in range(window.vertex_count):
        assert sphere_counts(loaded, v) == sphere_counts(window, v), (spec, v)
    assert classify(build_table(loaded)) == classify(build_table(window))
    assert check_S1(loaded) == check_S1(window)
    assert check_S2(loaded) == check_S2(window)

@pytest.mark.parametrize("spec", ["prism:5", "tree:binary:12", "free:2:r=5", "zmod:4,3"])
def test_a_shallower_top_is_a_prefix_of_the_cached_counts(spec):
    """counts[n] does not depend on top: after the deepest read, every
    shallower top equals a fresh computation at that top, and a finite
    graph read past an eccentricity still defaults to it."""
    pg = resolve_spec(spec)
    inside = [v for v in range(pg.vertex_count) if pg.dist[v] <= pg.exact_radius]
    deep = {v: sphere_counts(pg, v) for v in inside}
    for top in range(max(map(len, deep.values()))):
        fresh = resolve_spec(spec)
        for v, counts in deep.items():
            if top < len(counts):
                assert sphere_counts(pg, v, top) == sphere_counts(fresh, v, top) == counts[: top + 1]
    if not pg.truncated:
        top = max(pg.spheres)
        for v in inside:
            assert sphere_counts(pg, v, top + 2)[len(deep[v]) :] == [{}] * (top + 3 - len(deep[v]))
            assert sphere_counts(pg, v) == deep[v]


@st.composite
def off_centre_graphs(draw):
    """A connected graph on at most 14 vertices, a random spanning tree
    plus further edges, at a drawn base (rarely a centre), with a drawn
    first read (vertex, top) that grows the spheres part of the way."""
    n = draw(st.integers(1, 14))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [pair for pair in combinations(range(n), 2) if pair not in edges]
    edges |= set(draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n))) if pairs else set()
    pg = build_graph(sorted(edges), base=draw(st.integers(0, n - 1)), vertex_count=n)
    return pg, draw(st.integers(0, n - 1)), draw(st.integers(0, n))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(off_centre_graphs())
def test_bitset_spheres_match_networkx(case):
    """Counts, sizes, spheres and eccentricities of every vertex equal those
    of networkx's all-pairs distances, whatever depth was read first."""
    pg, first, first_top = case
    lengths = dict(nx.all_pairs_shortest_path_length(networkx_graph(pg)))
    sphere_counts(pg, first, first_top)
    assert len(pg._shells) == min(first_top, nx.diameter(networkx_graph(pg))) + 1
    for v in range(pg.vertex_count):
        eccentricity = max(lengths[v].values())
        counts = [{} for _ in range(eccentricity + 1)]
        for u, d in lengths[v].items():
            counts[d][pg.dist[u]] = counts[d].get(pg.dist[u], 0) + 1
        assert sphere_counts(pg, v) == counts, v
        assert sphere_sizes_at(pg, v) == tuple(sum(c.values()) for c in counts), v
        for n in range(eccentricity + 2):
            assert sphere_at(pg, v, n) == tuple(sorted(u for u, d in lengths[v].items() if d == n))
    levels = sphere_bitsets(pg)
    assert len(levels) == nx.diameter(networkx_graph(pg)) + 1
    for v in range(pg.vertex_count):
        row = [lengths[v][u] for u in range(pg.vertex_count)]
        assert list(distance_row([level[v] for level in levels], pg.vertex_count)) == row


def test_distance_rows_past_255():
    """A row's 32-bit digits hold distances past one byte: a path of 600
    vertices has diameter 599."""
    n = 600
    pg = build_graph([(u, u + 1) for u in range(n - 1)], base=0, vertex_count=n)
    levels = sphere_bitsets(pg)
    assert len(levels) == n
    for v in (0, 1, 299, n - 1):
        assert list(distance_row([level[v] for level in levels], n)) == list(bfs_from(pg.graph, v))


def test_counts_read_past_the_eccentricity_leave_the_default_at_it():
    """An explicit top past a vertex's eccentricity caches empty spheres
    past it, but top=None, the sizes and condition (iii) still stop at the
    eccentricity: (iii) fails where it failed on a fresh graph."""
    graphs_ = random_pointed_graphs(count=30, seed=11) + [resolve_spec("figure:5")]
    verdicts = []
    for pg in graphs_:
        fresh = point_graph(pg.graph, pg.base)
        lengths = dict(nx.all_pairs_shortest_path_length(networkx_graph(pg)))
        top = max(pg.spheres) + 2
        for v in range(pg.vertex_count):
            eccentricity = max(lengths[v].values())
            padded = sphere_counts(pg, v, top)
            assert len(padded) == top + 1 and padded[eccentricity + 1 :] == [{}] * (top - eccentricity)
            assert len(sphere_counts(pg, v)) == eccentricity + 1
            assert len(sphere_sizes_at(pg, v)) == eccentricity + 1
        report = check_assumptions(pg)
        assert report == check_assumptions(fresh) == reference_check_assumptions(fresh), pg.name
        verdicts.append(report.condition_iii)
    assert "fail" in verdicts and "pass" in verdicts


@pytest.fixture
def ball_steps(monkeypatch):
    """Counts the neighbour OR-reductions of sphere_bitsets, one per vertex
    and radius grown."""
    steps = Counter()
    real_reduce = graphs.reduce

    def counting_reduce(function, iterable, *initial):
        steps["or"] += function is or_
        return real_reduce(function, iterable, *initial)

    monkeypatch.setattr(graphs, "reduce", counting_reduce)
    return steps


@pytest.mark.parametrize("spec,bound", [("odd:5", 1), ("odd:5", 2), ("odd:6", 1)])
def test_a_small_bound_grows_the_spheres_only_as_deep_as_it_reads(ball_steps, spec, bound):
    """A table at bound b reads spheres to index b, so every vertex's ball
    grows b times and no more.  Classifying it reads rows x_i o x_l with
    l <= 2b past the bound, and condition (iii) grows the balls to the
    diameter (the top base index on these vertex-transitive graphs)."""
    pg = resolve_spec(spec)
    table = build_table(pg, bound)
    assert ball_steps["or"] == bound * pg.vertex_count
    assert len(pg._shells) == bound + 1
    classify(table)
    assert len(pg._shells) == min(2 * bound, max(pg.spheres)) + 1
    assert ball_steps["or"] == (len(pg._shells) - 1) * pg.vertex_count
    check_assumptions(pg)
    assert len(pg._shells) == max(pg.spheres) + 1
    assert ball_steps["or"] == max(pg.spheres) * pg.vertex_count


def test_finite_checks_share_one_growth_and_run_no_bfs(monkeypatch, ball_steps):
    """On a finite graph without an oracle, (iii), (S1), (S2), the table,
    the uniform bound, J and distance regularity read the one set of
    bitset spheres: no BFS runs once the graph is pointed, and the balls
    grow to the diameter once."""
    pg = resolve_spec("odd:4")

    def no_bfs(*args):
        raise AssertionError("a BFS ran on a finite graph")

    monkeypatch.setattr(graphs, "bfs_from", no_bfs)
    monkeypatch.setattr(graphs, "bfs_ball", no_bfs)
    assert check_assumptions(pg).passed and check_S1(pg).passed and check_S2(pg).passed
    build_table(pg)
    uniform_norm_bound(pg)
    jump_distribution(pg, (1, 2, 1))
    assert check_distance_regular(pg).passed
    assert ball_steps["or"] == max(pg.spheres) * pg.vertex_count
