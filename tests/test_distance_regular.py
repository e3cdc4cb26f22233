"""Distance regularity: the bitset kernel against independent oracles.

check_distance_regular decides the verdict from the intersection array:
every pair (v, w) at distance k must have the c = |S_{k-1}(v) ∩ S_1(w)|
and b = |S_{k+1}(v) ∩ S_1(w)| of the first pair at distance k, each a
popcount of two sphere bitsets.  Two oracles check it here: networkx
(is_distance_regular and intersection_array) on known distance-regular
and non-distance-regular graphs up to 600 vertices, and the direct O(V^3)
count over vertex triples, kept below as the reference for the full
report, witness included, on fixed graphs and on random connected graphs
drawn by hypothesis.
"""

import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forge.fixtures import resolve_spec
from forge.graphs import bfs_from, build_graph, sphere_counts
from forge.hypergroup import DRReport, check_distance_regular


def reference_distance_regular(pg) -> DRReport:
    """The direct scan: for every pair (v, w), count the x by (d(v,x), d(x,w))
    and compare with the first pair at the same distance in row-major order."""
    n = pg.vertex_count
    dist = [bfs_from(pg.graph, v) for v in range(n)]
    diameter = max(max(row) for row in dist)
    reference: dict[int, dict] = {}
    ref_pair: dict[int, tuple] = {}
    for v in range(n):
        for w in range(n):
            k = dist[v][w]
            counts: dict[tuple[int, int], int] = {}
            for x in range(n):
                key = (dist[v][x], dist[x][w])
                counts[key] = counts.get(key, 0) + 1
            if k not in reference:
                reference[k] = counts
                ref_pair[k] = (v, w)
                continue
            if counts != reference[k]:
                diff = sorted(set(counts) ^ set(reference[k]))
                if not diff:
                    diff = sorted(
                        key for key in counts if counts[key] != reference[k][key]
                    )
                i, j = diff[0]
                witness = (
                    k,
                    pg.label(ref_pair[k][0]),
                    pg.label(ref_pair[k][1]),
                    pg.label(v),
                    pg.label(w),
                    i,
                    j,
                    reference[k].get((i, j), 0),
                    counts.get((i, j), 0),
                )
                return DRReport(False, diameter, None, witness)
    numbers = {
        (i, j, k): count
        for k, counts in reference.items()
        for (i, j), count in counts.items()
    }
    return DRReport(True, diameter, numbers, None)


def _from_networkx(graph: nx.Graph, name: str, seed: int | None = None):
    """A pointed graph on the integer-relabelled networkx graph, with the
    vertex order shuffled when a seed is given."""
    nodes = list(graph.nodes)
    if seed is not None:
        random.Random(seed).shuffle(nodes)
    index = {u: i for i, u in enumerate(nodes)}
    edges = [(index[u], index[v]) for u, v in graph.edges]
    labels = [str(u) for u in nodes]
    return build_graph(edges, base=0, vertex_count=len(nodes), labels=labels, name=name)


def _to_networkx(pg) -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from(range(pg.vertex_count))
    graph.add_edges_from(pg.graph.edges())
    return graph


def _hamming(d: int, q: int) -> nx.Graph:
    graph = nx.complete_graph(q)
    for _ in range(d - 1):
        graph = nx.cartesian_product(graph, nx.complete_graph(q))
    return graph


def _johnson(n: int, k: int) -> nx.Graph:
    graph = nx.Graph()
    subsets = [frozenset(s) for s in combinations(range(n), k)]
    graph.add_nodes_from(subsets)
    graph.add_edges_from((s, t) for s, t in combinations(subsets, 2) if len(s & t) == k - 1)
    return nx.relabel_nodes(graph, {s: ",".join(map(str, sorted(s))) for s in subsets})


def _random_regular(degree: int, n: int, seed: int) -> nx.Graph:
    while True:
        graph = nx.random_regular_graph(degree, n, seed=seed)
        if nx.is_connected(graph):
            return graph
        seed += 1000


def _known_graphs():
    graphs = {
        "petersen": resolve_spec("odd:3"),
        "odd:4": resolve_spec("odd:4"),
        "cycle:7": resolve_spec("cycle:7"),
        "prism:3": resolve_spec("prism:3"),
        "prism:5": resolve_spec("prism:5"),
        "H(3,3)": resolve_spec("zmod:3,3,3"),
        "dodecahedron": _from_networkx(nx.dodecahedral_graph(), "dodecahedron", seed=1),
        "heawood": _from_networkx(nx.heawood_graph(), "heawood", seed=2),
        "H(3,3) relabelled": _from_networkx(_hamming(3, 3), "H(3,3)", seed=3),
        "J(6,3)": _from_networkx(_johnson(6, 3), "J(6,3)", seed=4),
    }
    for degree, n, seed in ((3, 10, 5), (3, 16, 6), (4, 12, 7), (5, 14, 8)):
        name = f"random {degree}-regular on {n}"
        graphs[name] = _from_networkx(_random_regular(degree, n, seed), name, seed=seed)
    return graphs


KNOWN = _known_graphs()


def _intersection_array(report):
    """[b_0..b_{d-1}, c_1..c_d], networkx's layout of the array."""
    q, d = report.intersection_numbers, report.diameter
    b = [q.get((i + 1, 1, i), 0) for i in range(d)]
    c = [q.get((i - 1, 1, i), 0) for i in range(1, d + 1)]
    return [b, c]


@pytest.mark.parametrize("name", sorted(KNOWN))
def test_verdict_and_intersection_array_match_networkx(name):
    pg = KNOWN[name]
    graph = _to_networkx(pg)
    report = check_distance_regular(pg)
    assert report.passed == nx.is_distance_regular(graph)
    assert report.diameter == nx.diameter(graph)
    if not report.passed:
        assert report.intersection_numbers is None and report.witness is not None
        return
    assert _intersection_array(report) == [list(x) for x in nx.intersection_array(graph)]


def test_known_distance_regular_graphs_pass():
    passing = {name for name, pg in KNOWN.items() if check_distance_regular(pg).passed}
    assert {
        "petersen",
        "odd:4",
        "cycle:7",
        "H(3,3)",
        "dodecahedron",
        "heawood",
        "H(3,3) relabelled",
        "J(6,3)",
    } <= passing
    assert "prism:3" not in passing and "prism:5" not in passing


def _connected_gnp(count: int):
    rng = random.Random(20201)
    graphs = []
    seed = 0
    while len(graphs) < count:
        seed += 1
        n = rng.randint(2, 30)
        p = rng.uniform(0.1, 0.7)
        graph = nx.gnp_random_graph(n, p, seed=seed)
        if nx.is_connected(graph):
            graphs.append(_from_networkx(graph, f"gnp-{seed}", seed=seed))
    return graphs


@pytest.mark.parametrize("pg", _connected_gnp(50), ids=lambda pg: pg.name)
def test_report_matches_reference_scan_on_random_graphs(pg):
    report = check_distance_regular(pg)
    assert report == reference_distance_regular(pg)


@pytest.mark.parametrize("name", sorted(KNOWN))
def test_report_matches_reference_scan_on_known_graphs(name):
    pg = KNOWN[name]
    report = check_distance_regular(pg)
    expected = reference_distance_regular(pg)
    assert report == expected
    if report.passed:
        assert list(report.intersection_numbers.items()) == sorted(
            expected.intersection_numbers.items()
        )
        assert all(type(n) is int for n in report.intersection_numbers.values())


def test_report_matches_reference_scan_on_a_mixed_sample():
    for pg in (*_connected_gnp(5), KNOWN["petersen"], KNOWN["prism:5"]):
        assert check_distance_regular(pg) == reference_distance_regular(pg)


def _random_cubic(n: int, seed: int):
    return _from_networkx(_random_regular(3, n, seed), f"random cubic on {n}", seed=seed)


LARGE = {
    "cycle:200": lambda: resolve_spec("cycle:200"),
    "prism:60": lambda: resolve_spec("prism:60"),
    "random cubic on 600": lambda: _random_cubic(600, 12),
}


@pytest.mark.parametrize("name", sorted(LARGE))
def test_large_graphs_match_networkx(name):
    pg = LARGE[name]()
    graph = _to_networkx(pg)
    report = check_distance_regular(pg)
    assert report.diameter == nx.diameter(graph)
    if name == "cycle:200":
        # networkx rejects every graph whose diameter exceeds 8 log2(n) / 3,
        # a bound shown only for valency >= 3, so it calls long cycles not
        # distance-regular.  C_2m has b = (2, 1, ..., 1), c = (1, ..., 1, 2).
        assert not nx.is_distance_regular(graph)
        assert report.passed
        assert _intersection_array(report) == [[2] + [1] * 99, [1] * 99 + [2]]
        return
    assert not nx.is_distance_regular(graph) and not report.passed
    # Both fail in the first row, so the direct scan stays cheap.
    assert report == reference_distance_regular(pg)


def _graph_from_edges(n, edges, labelled, name):
    labels = [f"v{u}" for u in range(n)] if labelled else None
    return build_graph(sorted(edges), base=0, vertex_count=n, labels=labels, name=name)


@st.composite
def connected_graphs(draw):
    """A random connected graph on at most 12 vertices: a random spanning
    tree plus any further edges, optionally labelled."""
    n = draw(st.integers(min_value=1, max_value=12))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u, v in combinations(range(n), 2) if (u, v) not in edges]
    edges |= set(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else set()
    return _graph_from_edges(n, edges, draw(st.booleans()), "random")


@st.composite
def relabelled_distance_regular_graphs(draw):
    """A distance-regular graph on at most 12 vertices under a random
    vertex order: a cycle, a complete or complete bipartite graph, the
    cube, the Petersen graph or the icosahedron."""
    graph = draw(
        st.sampled_from(
            [nx.cycle_graph(n) for n in range(3, 13)]
            + [nx.complete_graph(n) for n in range(1, 13)]
            + [nx.complete_bipartite_graph(m, m) for m in range(1, 7)]
            + [nx.hypercube_graph(3), nx.petersen_graph(), nx.icosahedral_graph()]
        )
    )
    graph = nx.convert_node_labels_to_integers(graph)
    order = draw(st.permutations(range(graph.number_of_nodes())))
    edges = {tuple(sorted((order[u], order[v]))) for u, v in graph.edges}
    return _graph_from_edges(graph.number_of_nodes(), edges, draw(st.booleans()), "dr")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(connected_graphs() | relabelled_distance_regular_graphs())
def test_report_matches_reference_scan_on_random_connected_graphs(pg):
    assert check_distance_regular(pg) == reference_distance_regular(pg)


def test_single_vertex_is_distance_regular():
    pg = build_graph([], base=0, vertex_count=1)
    report = check_distance_regular(pg)
    assert report == reference_distance_regular(pg)
    assert report.passed and report.intersection_numbers == {(0, 0, 0): 1}


def test_report_after_the_counts_grew_the_spheres_part_way():
    """The check reads the bitset spheres that the sphere counts grew to
    some depth first, and grows them on to the diameter: equal reports,
    and most random graphs fail, so the witness path is compared too."""
    reports = []
    for depth, pg in enumerate([*_connected_gnp(50), *_known_graphs().values()]):
        sphere_counts(pg, pg.vertex_count - 1, depth % 4)
        assert len(pg._shells) <= depth % 4 + 1
        report = check_distance_regular(pg)
        assert report == reference_distance_regular(pg), pg.name
        reports.append(report)
    assert sum(report.witness is not None for report in reports) >= 40
    assert sum(report.passed for report in reports) >= 8
