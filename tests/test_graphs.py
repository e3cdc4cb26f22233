"""Pointed-graph construction, spheres, and assumption checks."""

import itertools
import json

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from forge.errors import (
    BadParameter,
    DisconnectedGraph,
    DuplicateEdge,
    RadiusExceeded,
    SelfLoop,
)
from forge.fixtures import resolve_spec
from forge.graphs import (
    INFINITE,
    Graph,
    bfs_distances,
    build_graph,
    check_assumptions,
    index_set,
    load_graph_file,
    make_graph,
    parse_graph_json,
    point_graph,
    sphere_at,
)


def test_make_graph_rejects_self_loop():
    with pytest.raises(SelfLoop):
        make_graph([(0, 0)])


def test_make_graph_rejects_duplicate_edge():
    with pytest.raises(DuplicateEdge):
        make_graph([(0, 1), (1, 0)])


def test_make_graph_rejects_bad_edges():
    with pytest.raises(BadParameter):
        make_graph([(0,)])
    with pytest.raises(BadParameter):
        make_graph([(-1, 2)])


def test_build_graph_requires_connectivity():
    with pytest.raises(DisconnectedGraph):
        build_graph([(0, 1), (2, 3)], 0)


def test_isolated_vertex_is_disconnected():
    with pytest.raises(DisconnectedGraph):
        build_graph([(0, 1)], 0, vertex_count=3)


def test_path_spheres_from_endpoint():
    pg = build_graph([(0, 1), (1, 2), (2, 3)], 0)
    assert pg.dist == (0, 1, 2, 3)
    assert pg.spheres == {0: (0,), 1: (1,), 2: (2,), 3: (3,)}
    indices, top = index_set(pg)
    assert indices == (0, 1, 2, 3) and top == 3


def test_truncated_index_set_has_no_finite_top():
    pg = resolve_spec("lattice:1:r=4")
    indices, top = index_set(pg)
    assert indices == (0, 1, 2, 3, 4)
    assert top == INFINITE


def test_sphere_at_matches_bfs_on_finite_graphs():
    pg = resolve_spec("prism:4")
    for v in range(pg.vertex_count):
        dist = bfs_distances(pg, v)
        for n in range(max(dist) + 1):
            assert sphere_at(pg, v, n) == tuple(
                u for u in range(pg.vertex_count) if dist[u] == n
            )


def test_sphere_at_window_scope_enforced():
    pg = resolve_spec("lattice:1:r=6")
    v_at_3 = pg.spheres[3][0]
    assert len(sphere_at(pg, v_at_3, 3)) == 2
    with pytest.raises(RadiusExceeded):
        sphere_at(pg, v_at_3, 4)


def test_condition_iii_fails_off_center():
    # path with the base at an endpoint: the middle vertex has no sphere
    # at the top index 2
    pg = build_graph([(0, 1), (1, 2)], 0)
    report = check_assumptions(pg)
    assert not report.passed
    assert report.witness == 1


def test_condition_iii_passes_on_vertex_transitive():
    assert check_assumptions(resolve_spec("cycle:6")).passed
    assert check_assumptions(resolve_spec("odd:3")).passed


def test_parse_graph_json_validates_keys():
    with pytest.raises(BadParameter):
        parse_graph_json({"vertices": 2, "edges": [[0, 1]]})
    with pytest.raises(BadParameter):
        parse_graph_json([1, 2])


def test_graph_json_roundtrip(tmp_path):
    pg = resolve_spec("bipartite:2,3")
    path = tmp_path / "k23.json"
    path.write_text(json.dumps(pg.to_jsonable()))
    back = load_graph_file(str(path))
    assert back.vertex_count == pg.vertex_count
    assert back.dist == pg.dist
    assert back.base == pg.base
    assert sorted(back.graph.edges()) == sorted(pg.graph.edges())


def test_truncated_roundtrip_preserves_scope(tmp_path):
    pg = resolve_spec("lattice:1:r=5")
    path = tmp_path / "window.json"
    path.write_text(json.dumps(pg.to_jsonable()))
    back = load_graph_file(str(path))
    assert back.truncated and back.exact_radius == 5


def test_labels_roundtrip(tmp_path):
    pg = resolve_spec("figure:4")
    path = tmp_path / "fig4.json"
    path.write_text(json.dumps(pg.to_jsonable()))
    back = load_graph_file(str(path))
    n = pg.vertex_count
    assert [back.label(v) for v in range(n)] == [pg.label(v) for v in range(n)]


@st.composite
def connected_graphs(draw):
    """(n, edges): a random spanning tree plus random extra edges."""
    n = draw(st.integers(min_value=1, max_value=9))
    edges = {(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)}
    if n > 1:
        pairs = list(itertools.combinations(range(n), 2))
        edges |= set(draw(st.lists(st.sampled_from(pairs), unique=True)))
    return n, sorted(edges)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(connected_graphs())
def test_condition_iii_matches_networkx_eccentricity(case):
    """At every base, (iii) fails exactly when some vertex's eccentricity
    is below the base's, with the least such vertex as witness, whether
    or not the pointed graphs share one BFS cache."""
    n, edges = case
    reference = nx.Graph(edges)
    reference.add_nodes_from(range(n))
    eccentricity = nx.eccentricity(reference)
    graph = make_graph(edges, vertex_count=n)
    shared = {}
    for base in range(n):
        witness = next((v for v in range(n) if eccentricity[v] < eccentricity[base]), None)
        for pg in (point_graph(graph, base, shared), point_graph(graph, base)):
            report = check_assumptions(pg)
            assert report.condition_iii == ("pass" if witness is None else "fail")
            assert report.witness == witness


@pytest.mark.parametrize(
    "adjacency",
    [((0, 1), (0, 2), (1,)), ((1, 1), (0, 0, 2), (1,))],
    ids=["loop", "double-edge"],
)
def test_simplicity_is_decided_once_per_shared_graph(adjacency):
    """A graph that is not simple reports simple: false at every base that
    shares its BFS rows, and a simple one true, whichever base came first."""
    for graph, simple in ((Graph(3, adjacency), False), (make_graph([(0, 1), (1, 2)]), True)):
        shared = {}
        for base in (2, 0, 1, 2):
            report = check_assumptions(point_graph(graph, base, shared))
            assert report.simple is simple, base
            assert simple or not report.passed
