"""Exhaustive small-graph search for the hypergroup conjecture.

Connected-graph counts up to seven vertices (1, 1, 2, 6, 21, 112, 853)
pin the canonical-form deduplication; the search itself is checked for
its aggregate bookkeeping and for replayability of whatever it reports.

The pruned canonical labelling is checked against two oracles: the
unpruned search it replaced (kept here as reference_canonical), which
must give the same certificate and the same first optimal ordering,
and networkx.is_isomorphic on the graph atlas.  The labelling that
stops refinement early and walks forced places in a loop is checked
against the pruned labelling without them (reference_pruned_canonical)
on every child of one attachment per orbit up to 7 vertices, the 4159
children the enumerator labelled before canonical deletion.

The enumerator labels one attachment per orbit of the parent's
automorphisms, and keeps a non-regular graph on its last level only
where the new vertex is a canonical deletion.  It is checked against the
enumerator that labelled every attachment and kept the first child of
each class (kept here as reference_enumerate): the same graphs below the
last level, the same classes once each on it, and the same regular
graphs in the same order.  Its orbits are checked against the
automorphism groups networkx's GraphMatcher finds, and each level's
class count against OEIS A001349.

The search decides a non-regular graph at all its bases from its
eccentricities.  It is checked against the search that pointed the graph
at every base and ran the checks there (kept here as
reference_search_conjecture) up to 7 vertices, and the eccentricity rule
against check_assumptions, check_S1 and networkx.eccentricity on random
connected non-regular graphs; the eccentricities, grown over neighbour
bitsets, against networkx.eccentricity on every enumerated graph up to
7 vertices.
"""

import hashlib
import itertools
import math
import random

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher
from conftest import run_forge
from hypothesis import assume, given, settings, strategies as st

from forge import search
from forge.errors import BadParameter, EnumerationCapExceeded, InternalError
from forge.graphs import Graph, check_assumptions, make_graph, point_graph
from forge.hypergroup import build_table, check_S1, check_S2, classify
from forge.search import (
    DEFAULT_GRAPH_CAP,
    SearchEntry,
    SearchReport,
    build_graph,
    enumerate_connected_graphs,
    replay_counterexample,
    search_conjecture,
)
from forge.serialize import jsonable


def reference_refine(neighbors, colors):
    """Color refinement as first written: one round at a time from the
    given coloring until the ranks stop changing."""
    n = len(neighbors)
    while True:
        signatures = []
        for v in range(n):
            hist = sorted(colors[w] for w in neighbors[v])
            signatures.append((colors[v], tuple(hist)))
        order = sorted(set(signatures))
        ranks = {sig: r for r, sig in enumerate(order)}
        new = [ranks[signatures[v]] for v in range(n)]
        if new == colors:
            return colors
        colors = new


def reference_canonical(neighbors, colors=None):
    """The labelling as first written: a DFS over every ordering compatible
    with the refined coloring, pruned only when its adjacency string is
    already worse than the best found, keeping the first optimal leaf."""
    n = len(neighbors)
    colors = reference_refine(neighbors, list(colors) if colors else [0] * n)
    best = None
    best_order = None

    def extend(prefix, used, rows):
        nonlocal best, best_order
        pos = len(prefix)
        if pos == n:
            if best is None or rows < best:
                best = list(rows)
                best_order = tuple(prefix)
            return
        eligible = [v for v in range(n) if v not in used]
        min_color = min(colors[v] for v in eligible)
        for v in eligible:
            if colors[v] != min_color:
                continue
            row = tuple(1 if prefix[i] in neighbors[v] else 0 for i in range(pos))
            candidate = rows + [row]
            if best is not None and candidate > best[: len(candidate)]:
                continue
            prefix.append(v)
            used.add(v)
            extend(prefix, used, candidate)
            prefix.pop()
            used.remove(v)

    extend([], set(), [])
    key = (tuple(colors.count(c) for c in sorted(set(colors))), tuple(best))
    return key, best_order


def reference_pruned_canonical(neighbors, colors=None):
    """The pruned labelling before forced steps: refinement confirmed by
    one more round, a recursive call for every place, and the key's
    0/1 rows built on every call.  Returns (key, ordering, generators)."""
    n = len(neighbors)
    colors = reference_refine(
        neighbors, list(colors) if colors else [len(nbrs) for nbrs in neighbors]
    )
    adjacency = [sum(1 << w for w in nbrs) for nbrs in neighbors]
    cells = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    cell_at = [cells[c] for c in sorted(colors)]
    best = None
    best_order = None
    generators = set()

    def extend(prefix, used, rows, row_of):
        nonlocal best, best_order
        pos = len(prefix)
        if pos == n:
            if best is None or rows < best:
                best = rows
                best_order = tuple(prefix)
            elif rows == best:
                image = [0] * n
                for u, w in zip(best_order, prefix):
                    image[u] = w
                generators.add(tuple(image))
            return
        eligible = [v for v in cell_at[pos] if not used >> v & 1]
        low = min([row_of[v] for v in eligible])
        rows = rows + [low]
        if best is not None and rows > best[: pos + 1]:
            return
        tried = []
        for v in eligible:
            if row_of[v] != low:
                continue
            nbrs = adjacency[v]
            twin = next(
                (u for u in tried if not (nbrs ^ adjacency[u]) & ~(1 << u | 1 << v)), None
            )
            if twin is not None:
                swap = list(range(n))
                swap[twin], swap[v] = v, twin
                generators.add(tuple(swap))
                continue
            tried.append(v)
            prefix.append(v)
            extend(
                prefix,
                used | 1 << v,
                rows,
                [row << 1 | adj >> v & 1 for row, adj in zip(row_of, adjacency)],
            )
            prefix.pop()

    extend([], 0, [], [0] * n)
    string = tuple(
        tuple(row >> (pos - 1 - i) & 1 for i in range(pos))
        for pos, row in enumerate(best)
    )
    key = (tuple(len(cells[c]) for c in sorted(cells)), string)
    return key, best_order, tuple(generators)


def _neighbor_sets(n, edges):
    neighbors = [set() for _ in range(n)]
    for u, v in edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    return neighbors


def _reference_leaves(neighbors, colors):
    """Orderings the reference may visit: the product of the factorials
    of the refined color classes."""
    n = len(neighbors)
    refined = reference_refine(neighbors, list(colors) if colors else [0] * n)
    return math.prod(math.factorial(refined.count(c)) for c in set(refined))


def reference_enumerate(max_vertices, cap=DEFAULT_GRAPH_CAP):
    """The enumerator as first written: every nonempty attachment subset
    of every parent is labelled, and the first child of each class kept."""
    total = 1
    level = [([set()], 0)]
    yield 1, [set()], 0
    for n in range(2, max_vertices + 1):
        seen = {}
        for parent, _ in level:
            for attach in range(1, 2 ** (n - 1)):
                subset = {i for i in range(n - 1) if attach >> i & 1}
                child = [set(s) for s in parent] + [set(subset)]
                for w in subset:
                    child[w].add(n - 1)
                key, ordering = search._canonical_with_automorphisms(child)[:2]
                if key in seen:
                    continue
                seen[key] = (child, ordering[0])
                total += 1
                if total > cap:
                    raise EnumerationCapExceeded(f"more than {cap} graphs")
        level = list(seen.values())
        for child, first in level:
            yield n, child, first


def networkx_automorphisms(neighbors):
    """Every automorphism of the graph, as a tuple g mapping v to g[v]."""
    graph = nx.Graph()
    graph.add_nodes_from(range(len(neighbors)))
    graph.add_edges_from((u, w) for u in range(len(neighbors)) for w in neighbors[u])
    return [
        tuple(m[v] for v in range(len(neighbors)))
        for m in GraphMatcher(graph, graph).isomorphisms_iter()
    ]


def subset_image(attach, g):
    return sum(1 << g[i] for i in range(len(g)) if attach >> i & 1)


def networkx_orbit_minima(neighbors):
    """The nonempty attachment subsets that are the least of their orbit
    under the full automorphism group."""
    automorphisms = networkx_automorphisms(neighbors)
    return [
        attach
        for attach in range(1, 2 ** len(neighbors))
        if all(subset_image(attach, g) >= attach for g in automorphisms)
    ]


def orbit_minimum_children(max_vertices):
    """Every child of a reference graph below max_vertices vertices by the
    least attachment of an orbit of its automorphisms (networkx's), in
    enumeration order."""
    children = []
    for n, parent, _first in reference_enumerate(max_vertices - 1):
        for attach in networkx_orbit_minima(parent):
            child = [set(s) for s in parent] + [{i for i in range(n) if attach >> i & 1}]
            for w in child[-1]:
                child[w].add(n)
            children.append(child)
    return children


def canonical_key(neighbors):
    return search._canonical_with_automorphisms(neighbors)[0]


def is_regular(neighbors):
    return len({len(nbrs) for nbrs in neighbors}) == 1


def assert_same_classes(graphs, reference, max_vertices):
    """graphs as the enumerator's contract requires against the reference
    output: equal below max_vertices, and on max_vertices the same classes
    once each, with the same regular graphs in the same order."""

    def listing(graphs):
        return [(n, [sorted(s) for s in nbrs], first) for n, nbrs, first in graphs]

    graphs, reference = listing(graphs), listing(reference)
    below = [g for g in graphs if g[0] < max_vertices]
    assert below == [g for g in reference if g[0] < max_vertices]
    last = [g for g in graphs if g[0] == max_vertices]
    ref_last = [g for g in reference if g[0] == max_vertices]
    keys = [canonical_key(nbrs) for _n, nbrs, _first in last]
    assert len(set(keys)) == len(keys)
    assert sorted(keys) == sorted(canonical_key(nbrs) for _n, nbrs, _first in ref_last)
    assert [g for g in last if is_regular(g[1])] == [g for g in ref_last if is_regular(g[1])]
    for _n, nbrs, first in last:
        assert first == search._canonical_with_automorphisms(nbrs)[1][0]


def record_labelled(max_vertices):
    """(neighbors, result) for every graph the enumerator labels."""
    labelled = []
    label = search._canonical_with_automorphisms

    def recording(neighbors, colors=None):
        result = label(neighbors, colors)
        labelled.append(([set(s) for s in neighbors], result))
        return result

    search._canonical_with_automorphisms = recording
    try:
        graphs = list(enumerate_connected_graphs(max_vertices))
    finally:
        search._canonical_with_automorphisms = label
    return graphs, labelled


def reference_search_conjecture(max_vertices, base_policy):
    """The search as first written: every graph is pointed at each base
    the policy names, and (iii), (S1) and (S2) run there in turn."""
    graph_counts = {}
    examined = rejected_condition = rejected_walk = 0
    classified = []
    for n, neighbors, first in enumerate_connected_graphs(max_vertices):
        graph_counts[n] = graph_counts.get(n, 0) + 1
        edges = tuple((u, v) for u in range(n) for v in neighbors[u] if u < v)
        bases = [first] if base_policy == "canonical" else list(range(n))
        graph = Graph(n, tuple(tuple(sorted(nbrs)) for nbrs in neighbors))
        for base in bases:
            examined += 1
            pg = point_graph(graph, base)
            if not check_assumptions(pg).passed:
                rejected_condition += 1
                continue
            if not (check_S1(pg).passed and check_S2(pg).passed):
                rejected_walk += 1
                continue
            report = classify(build_table(pg))
            classified.append(
                SearchEntry(
                    n,
                    edges,
                    base,
                    report.commutative,
                    report.associative,
                    report.verdict,
                    report.witness,
                )
            )
    counterexamples = tuple(e for e in classified if e.verdict != "Hypergroup")
    return SearchReport(
        max_vertices,
        base_policy,
        graph_counts,
        examined,
        rejected_condition,
        rejected_walk,
        tuple(classified),
        counterexamples,
    )


CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def test_connected_graph_counts():
    seen = {}
    for n, _neighbors, _first in enumerate_connected_graphs(6):
        seen[n] = seen.get(n, 0) + 1
    assert seen == {n: CONNECTED_COUNTS[n] for n in range(1, 7)}


def test_enumeration_cap():
    with pytest.raises(EnumerationCapExceeded):
        list(enumerate_connected_graphs(7, cap=100))


def test_canonical_key_is_labeling_invariant():
    square_a = [(1, 3), (0, 2), (1, 3), (0, 2)]
    square_b = [(2, 3), (2, 3), (0, 1), (0, 1)]
    assert (
        search._canonical_with_automorphisms(square_a)[0]
        == search._canonical_with_automorphisms(square_b)[0]
    )
    path = [(1,), (0, 2), (1,)]
    triangle = [(1, 2), (0, 2), (0, 1)]
    assert (
        search._canonical_with_automorphisms(path)[0]
        != search._canonical_with_automorphisms(triangle)[0]
    )


def test_canonical_base_is_deterministic():
    # Each graph comes with the vertex its canonical ordering places first,
    # the one base that --bases canonical tries.
    graphs = list(enumerate_connected_graphs(6))
    assert graphs == list(enumerate_connected_graphs(6))
    for _n, neighbors, first in graphs:
        assert first == search._canonical_with_automorphisms(neighbors)[1][0]


def test_search_bookkeeping_all_bases():
    report = search_conjecture(max_vertices=6)
    assert report.base_policy == "all"
    assert report.graph_counts == {n: CONNECTED_COUNTS[n] for n in range(1, 7)}
    assert report.pointed_examined == 810
    assert report.rejected_condition == 375
    assert report.rejected_walk == 387
    assert len(report.classified) == 48
    assert report.counterexamples == ()
    assert report.conjecture_holds


def test_search_canonical_base_policy():
    report = search_conjecture(max_vertices=5, base_policy="canonical")
    assert report.base_policy == "canonical"
    assert report.pointed_examined == 31
    assert report.conjecture_holds


def test_accounting_adds_up():
    report = search_conjecture(max_vertices=5)
    assert (
        report.rejected_condition + report.rejected_walk + len(report.classified)
        == report.pointed_examined
    )


def test_every_classified_entry_is_a_hypergroup_so_far():
    report = search_conjecture(max_vertices=6)
    assert all(e.verdict == "Hypergroup" for e in report.classified)
    assert all(e.commutative and e.associative for e in report.classified)


def test_replay_reproduces_classification():
    report = search_conjecture(max_vertices=5)
    entry = max(report.classified, key=lambda e: e.vertices)
    assumptions, s1, s2, classification = replay_counterexample(entry)
    assert assumptions.passed and s1.passed and s2.passed
    assert classification.verdict == entry.verdict


def test_replay_accepts_jsonable_entry():
    report = search_conjecture(max_vertices=4)
    entry = jsonable(report.classified[-1])
    _, _, _, classification = replay_counterexample(entry)
    assert classification.verdict == entry["verdict"]


def test_build_graph_from_entry_fields():
    report = search_conjecture(max_vertices=4)
    entry = max(report.classified, key=lambda e: len(e.edges))
    pg = build_graph(entry.edges, entry.base, vertex_count=entry.vertices)
    assert pg.vertex_count == entry.vertices


def test_max_vertices_below_one_is_rejected():
    for bad in (0, -3):
        with pytest.raises(BadParameter):
            search_conjecture(max_vertices=bad)


def test_canonical_matches_reference_on_enumerated_graphs():
    # One child per orbit of its parent's automorphisms: 388 of the 759
    # attachments of the parents up to 5 vertices.
    children = orbit_minimum_children(6)
    assert len(children) == 388
    for neighbors in children:
        key_and_ordering = search._canonical_with_automorphisms(neighbors)[:2]
        assert key_and_ordering == reference_canonical(neighbors)


def test_pruned_enumeration_matches_the_reference():
    for max_vertices in range(1, 8):
        assert_same_classes(
            enumerate_connected_graphs(max_vertices),
            reference_enumerate(max_vertices),
            max_vertices,
        )


@pytest.mark.parametrize("cap", [1, 2, 9, 10, 31, 32, 142, 143, 144])
def test_pruned_enumeration_hits_the_cap_where_the_reference_does(cap):
    def run(graphs):
        out = []
        try:
            for n, nbrs, first in graphs:
                out.append((n, [sorted(s) for s in nbrs], first))
        except EnumerationCapExceeded as exc:
            return out, str(exc)
        return out, None

    pruned, error = run(enumerate_connected_graphs(6, cap))
    reference, ref_error = run(reference_enumerate(6, cap))
    assert error == ref_error
    assert (error is None) == (cap >= 143)
    # A level that exceeds the cap yields nothing, so only a finished
    # enumeration reaches its last level.
    assert_same_classes(pruned, reference, 6)


def test_collected_generators_are_automorphisms():
    children = orbit_minimum_children(7)
    assert len(children) == 4159
    for neighbors in children:
        generators = search._canonical_with_automorphisms(neighbors)[2]
        n = len(neighbors)
        edges = {frozenset((u, w)) for u in range(n) for w in neighbors[u]}
        for g in generators:
            assert sorted(g) == list(range(n)) and list(g) != list(range(n))
            assert {frozenset((g[u], g[w])) for u, w in map(tuple, edges)} == edges


def test_generators_span_the_automorphism_group():
    for neighbors in orbit_minimum_children(6):
        generators = search._canonical_with_automorphisms(neighbors)[2]
        n = len(neighbors)
        group = {tuple(range(n))}
        frontier = list(group)
        while frontier:
            h = frontier.pop()
            for g in generators:
                gh = tuple(g[h[v]] for v in range(n))
                if gh not in group:
                    group.add(gh)
                    frontier.append(gh)
        assert group == set(networkx_automorphisms(neighbors))


def test_labelled_attachments_are_the_orbit_minima():
    # Every parent up to 5 vertices labels exactly one child per orbit of
    # Aut(parent) on attachment subsets, the least one.  A parent on 6
    # vertices labels some of those: every regular child, and a
    # non-regular one only where the new vertex may be a canonical
    # deletion, 1157 of the 3771 children.
    graphs, labelled = record_labelled(7)
    assert len(labelled) == 1545
    attached = {}
    for neighbors, _result in labelled:
        n = len(neighbors)
        parent = tuple(frozenset(s - {n - 1}) for s in neighbors[:-1])
        attach = sum(1 << w for w in neighbors[-1])
        attached.setdefault(parent, []).append(attach)
    parents = [tuple(frozenset(s) for s in nbrs) for n, nbrs, _ in graphs if n < 7]
    assert sorted(attached) == sorted(parents)
    last_level = 0
    for parent in parents:
        minima = networkx_orbit_minima(parent)
        if len(parent) < 6:
            assert attached[parent] == minima
            continue
        assert set(attached[parent]) <= set(minima)
        assert attached[parent] == sorted(attached[parent])
        for attach in minima:
            degrees = [len(s) + (attach >> v & 1) for v, s in enumerate(parent)]
            if set(degrees) == {bin(attach).count("1")}:
                assert attach in attached[parent]
        last_level += len(attached[parent])
    assert last_level == 1157


@st.composite
def colored_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=9))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    colors = draw(
        st.none() | st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n)
    )
    return _neighbor_sets(n, edges), colors


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(colored_graphs())
def test_canonical_matches_reference_on_random_colored_graphs(graph):
    neighbors, colors = graph
    # The reference may visit every compatible ordering (9! on the empty
    # graph); larger symmetric cases are covered by the enumeration test.
    if _reference_leaves(neighbors, colors) > math.factorial(7):
        return
    result = search._canonical_with_automorphisms(neighbors, colors)
    assert result[:2] == reference_canonical(neighbors, colors)
    # The generators found on the way preserve adjacency and the colors.
    n = len(neighbors)
    for g in result[2]:
        assert all({g[w] for w in neighbors[v]} == neighbors[g[v]] for v in range(n))
        assert colors is None or all(colors[g[v]] == colors[v] for v in range(n))


def test_canonical_matches_reference_on_symmetric_graphs():
    cases = [
        ("empty", 7, []),
        ("complete", 7, list(itertools.combinations(range(7), 2))),
        ("cycle", 9, [(v, (v + 1) % 9) for v in range(9)]),
        ("K3,3", 6, [(u, v) for u in range(3) for v in range(3, 6)]),
        ("petersen", 10, list(nx.petersen_graph().edges())),
    ]
    for name, n, edges in cases:
        neighbors = _neighbor_sets(n, edges)
        key_and_ordering = search._canonical_with_automorphisms(neighbors)[:2]
        assert key_and_ordering == reference_canonical(neighbors), name


def test_refining_from_degrees_matches_refining_from_uniform():
    # The labelling starts an uncolored graph from its degrees; the stable
    # coloring, numbering included, must be the one the uniform start gives.
    rng = random.Random(17)
    for _ in range(2000):
        n = rng.randint(0, 12)
        p = rng.random()
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        neighbors = _neighbor_sets(n, edges)
        degrees = [len(nbrs) for nbrs in neighbors]
        assert search._refine(neighbors, degrees) == reference_refine(neighbors, [0] * n)


def test_canonical_key_equality_is_isomorphism_on_the_atlas():
    rng = random.Random(6)
    graphs = []
    for graph in nx.graph_atlas_g()[1:]:
        n = graph.number_of_nodes()
        if n > 6 or not nx.is_connected(graph):
            continue
        perm = list(range(n))
        rng.shuffle(perm)
        graphs.append(graph)
        graphs.append(nx.relabel_nodes(graph, dict(enumerate(perm))))
    assert len(graphs) == 2 * sum(CONNECTED_COUNTS[n] for n in range(1, 7))
    buckets = {}
    for graph in graphs:
        n = graph.number_of_nodes()
        key = search._canonical_with_automorphisms(_neighbor_sets(n, graph.edges()))[0]
        buckets.setdefault((n, graph.number_of_edges()), []).append((key, graph))
    for bucket in buckets.values():
        for (key_a, a), (key_b, b) in itertools.combinations(bucket, 2):
            assert (key_a == key_b) == nx.is_isomorphic(a, b)


# sha256 of `--format json search conjecture --max-vertices 6` as written
# by the unpruned labelling that reference_canonical keeps.
SEARCH_6_SHA256 = {
    "all": "038853bb3e488fe2249dd6de7bb2bbe765db3a673048b7160710cbf81e758534",
    "canonical": "81a3d6b30c8f32bed9a4b0b8d0720b4fc4969cf14afb0b13b5544b872dc19628",
}


@pytest.mark.parametrize("bases", sorted(SEARCH_6_SHA256))
def test_search_report_bytes_are_pinned(bases):
    args = ["--format", "json", "search", "conjecture", "--max-vertices", "6", "--bases", bases]
    result = run_forge(args)
    assert result.exit_code == 0
    digest = hashlib.sha256(result.output.encode("utf-8")).hexdigest()
    assert digest == SEARCH_6_SHA256[bases]


# The same for `--max-vertices 7`, as written by the search that pointed
# every graph at each base (reference_search_conjecture).
SEARCH_7_SHA256 = {
    "all": "7b921f04d296db4cfe45e6ba3be2d9fe9ea7dc1067f12c2ff61acc06532a8e8f",
    "canonical": "2bebfc0ccfac47fc35709b45303343e7f8ecab83ed38cc02c77be4c1443cad0e",
}


@pytest.mark.parametrize("bases", sorted(SEARCH_7_SHA256))
def test_seven_vertex_search_report_bytes_are_pinned(bases):
    args = ["--format", "json", "search", "conjecture", "--max-vertices", "7", "--bases", bases]
    result = run_forge(args)
    assert result.exit_code == 0
    digest = hashlib.sha256(result.output.encode("utf-8")).hexdigest()
    assert digest == SEARCH_7_SHA256[bases]


# The same for `--max-vertices 8`, as written by the enumerator that kept
# the first child of each class on every level.
SEARCH_8_SHA256 = {
    "all": "bd7ba1dac1f21a5bb459d716a0175807a0b73635869f5b3046e9c607dabe8cee",
    "canonical": "e902e8962b6aacfb9d2b49e0e7f510f6d7dbcf963e06093d3ac115c1f69cac78",
}


@pytest.mark.parametrize("bases", sorted(SEARCH_8_SHA256))
def test_eight_vertex_search_report_bytes_are_pinned(bases):
    args = ["--format", "json", "search", "conjecture", "--max-vertices", "8", "--bases", bases]
    result = run_forge(args)
    assert result.exit_code == 0
    digest = hashlib.sha256(result.output.encode("utf-8")).hexdigest()
    assert digest == SEARCH_8_SHA256[bases]


def test_eight_vertex_enumeration_keeps_one_graph_per_class():
    last = [nbrs for n, nbrs, _first in enumerate_connected_graphs(8) if n == 8]
    assert len(last) == 11117
    assert len({canonical_key(nbrs) for nbrs in last}) == 11117
    assert sum(map(is_regular, last)) == 17


def test_each_level_must_hold_the_known_class_count(monkeypatch):
    # The prefilter that forgets cut vertices never labels the star K_1,3,
    # whose centre is its one vertex of largest degree; the deletion test
    # that accepts every labelled child keeps isomorphic children twice.
    assert search.CONNECTED_GRAPH_COUNTS[:7] == tuple(CONNECTED_COUNTS.values())
    for name, mutant in [
        ("_last_has_top_degree", lambda rows, degrees: degrees[-1] == max(degrees)),
        ("_last_is_canonical_deletion", lambda *args: True),
    ]:
        with monkeypatch.context() as patch:
            patch.setattr(search, name, mutant)
            for n in (5, 7):
                with pytest.raises(InternalError, match=f"connected graphs on {n} vertices"):
                    list(enumerate_connected_graphs(n))


def test_enumeration_below_one_vertex_is_empty():
    for bad in (0, -2):
        assert list(enumerate_connected_graphs(bad)) == []


def test_unknown_base_policy_is_a_bad_parameter():
    with pytest.raises(BadParameter, match="unknown base policy 'bogus'"):
        search_conjecture(3, "bogus")


@pytest.mark.parametrize("bases", ["all", "canonical"])
def test_search_matches_the_per_base_reference(bases):
    for n in range(1, 8):
        assert search_conjecture(n, bases) == reference_search_conjecture(n, bases), n


def test_only_regular_graphs_are_pointed(monkeypatch):
    # Up to 7 vertices the 16 regular graphs have 82 vertices between them;
    # every other graph is decided without a pointed graph.
    pointed = []

    def counting(graph, base, bfs_cache=None):
        pointed.append((graph, base))
        return point_graph(graph, base, bfs_cache)

    monkeypatch.setattr(search, "point_graph", counting)
    report = search_conjecture(7, "all")
    regular = [
        neighbors
        for _n, neighbors, _first in enumerate_connected_graphs(7)
        if len({len(nbrs) for nbrs in neighbors}) == 1
    ]
    assert len(regular) == 16
    assert len(pointed) == sum(len(neighbors) for neighbors in regular) == 82
    assert report.pointed_examined == 6781


@st.composite
def connected_non_regular_graphs(draw):
    """Edge lists of connected graphs on 3..10 vertices whose degrees are
    not all equal: a random spanning tree plus random further edges."""
    n = draw(st.integers(min_value=3, max_value=10))
    tree = [(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)]
    pairs = [e for e in itertools.combinations(range(n), 2) if e not in tree]
    extra = draw(st.lists(st.sampled_from(pairs), unique=True))
    edges = tree + extra
    degrees = [0] * n
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    assume(len(set(degrees)) > 1)
    return n, edges


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(connected_non_regular_graphs())
def test_eccentricity_rule_decides_non_regular_graphs(case):
    n, edges = case
    graph = make_graph(edges, vertex_count=n)
    ecc = search._eccentricities(graph.adjacency)
    reference = nx.Graph(edges)
    assert ecc == [nx.eccentricity(reference, v) for v in range(n)]
    for base in range(n):
        pg = point_graph(graph, base)
        assert check_assumptions(pg).passed == (ecc[base] == min(ecc))
        # (S1) fails at index 1, where it compares the degrees.
        s1 = check_S1(pg)
        assert not s1.passed and s1.witness[0] == 1


def test_eccentricities_match_networkx_on_every_enumerated_graph():
    # The bitset ball growth against networkx on every class up to 7
    # vertices (996 graphs, 980 of them not regular).
    checked = 0
    for n, neighbors, _first in enumerate_connected_graphs(7):
        reference = nx.Graph(search._edges_from_neighbors(neighbors))
        reference.add_nodes_from(range(n))
        assert search._eccentricities(neighbors) == [nx.eccentricity(reference, v) for v in range(n)]
        checked += 1
    assert checked == 996


def generated_group(n, generators):
    """Every permutation of range(n) the generators generate."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        h = frontier.pop()
        for g in generators:
            gh = tuple(g[h[v]] for v in range(n))
            if gh not in group:
                group.add(gh)
                frontier.append(gh)
    return group


def test_labelling_matches_the_pruned_reference_on_every_child():
    # Every child of one attachment per orbit up to 7 vertices: the same
    # key, the same first ordering and the same automorphism group as the
    # labelling without forced steps or the early stop of refinement.
    children = orbit_minimum_children(7)
    assert len(children) == 4159
    for neighbors in children:
        key, ordering, generators = search._canonical_with_automorphisms(neighbors)
        ref_key, ref_ordering, ref_generators = reference_pruned_canonical(neighbors)
        assert (key, ordering) == (ref_key, ref_ordering)
        n = len(neighbors)
        assert set(generators) == set(ref_generators) or generated_group(
            n, generators
        ) == generated_group(n, ref_generators)


def enumeration_error(max_vertices, cap):
    """The message the enumeration raises under cap, or None."""
    try:
        for _ in enumerate_connected_graphs(max_vertices, cap):
            pass
    except EnumerationCapExceeded as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("cap", [1, 2, 9, 10, 31, 32, 142, 143, 144, 996, 997])
def test_search_refuses_the_cap_before_enumerating(monkeypatch, cap):
    # With the enumerator emptied only the check against the known counts
    # can raise: it must raise where the enumeration does, with its message.
    monkeypatch.setattr(search, "enumerate_connected_graphs", lambda n, cap: iter(()))
    for n in range(1, 8):
        try:
            search_conjecture(n, cap=cap)
            early = None
        except EnumerationCapExceeded as exc:
            early = str(exc)
        assert early == enumeration_error(n, cap), n


def test_cli_refuses_nine_vertices_under_the_default_cap(monkeypatch):
    def no_enumeration(max_vertices, cap):
        raise AssertionError("the search enumerated graphs")

    monkeypatch.setattr(search, "enumerate_connected_graphs", no_enumeration)
    result = run_forge(["search", "conjecture", "--max-vertices", "9"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"error: EnumerationCapExceeded: more than {DEFAULT_GRAPH_CAP} graphs\n"
