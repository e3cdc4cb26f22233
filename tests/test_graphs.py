"""Pointed-graph construction, spheres, and assumption checks."""

import itertools
import json
import os

import networkx as nx
import pytest
from conftest import run_forge
from hypothesis import given, settings, strategies as st


from forge import fixtures, graphs
from forge.errors import (
    FINITE_CAP,
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
    bfs_from,
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
        dist = bfs_from(pg.graph, v)
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


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
S4_FILE = os.path.join(ROOT, "tools", "s4.txt")

# One spec or more per catalog family, finite and windowed.
FAMILY_SPECS = [
    "cycle:5",
    "prism:4",
    "bipartite:2,3",
    "odd:3",
    "lattice:1:r=4",
    "lattice:2:r=3",
    "free:2:r=3",
    "ladder:r=4",
    "tree:binary:2",
    "tree:binary:6",
    "figure:3",
    "figure:3:base=w0p",
    "figure:4",
    "figure:5",
    "figure:6",
    "zmod:4",
    "zmod:3,3:r=1",
    f"perm:{S4_FILE}",
    f"perm:{S4_FILE}:r=2",
]


@pytest.mark.parametrize("spec", FAMILY_SPECS)
def test_truncated_is_a_finite_exact_radius(spec):
    """A pointed graph is truncated exactly when its exact radius is finite,
    and its JSON reads back with the same scope."""
    pg = resolve_spec(spec)
    assert pg.truncated == (pg.exact_radius < INFINITE)
    back = parse_graph_json(pg.to_jsonable())
    assert (back.truncated, back.exact_radius) == (pg.truncated, pg.exact_radius)


def test_graph_json_truncated_key_sets_the_exact_radius():
    path = {"vertices": 3, "edges": [[0, 1], [1, 2]], "base": 1}
    for data, radius in (
        (path, INFINITE),
        ({**path, "exact_radius": 1}, INFINITE),
        ({**path, "truncated": False, "exact_radius": 1}, INFINITE),
        ({**path, "truncated": True, "exact_radius": 1}, 1),
        ({**path, "truncated": True, "exact_radius": 0}, 0),
    ):
        pg = parse_graph_json(data)
        assert pg.exact_radius == radius, data
        assert pg.truncated == (radius < INFINITE) == pg.to_jsonable()["truncated"]


@pytest.mark.parametrize(
    "args, radius",
    [(["free:2", "--radius", "3"], 3), (["zmod:3,3", "--radius", "1"], 1), (["zmod:4"], INFINITE)],
)
def test_cayley_realize_output_reads_back_with_its_scope(args, radius):
    result = run_forge(["cayley", "realize", *args])
    assert result.exit_code == 0, result.output
    data = json.loads(result.output)
    pg = parse_graph_json(data)
    assert pg.exact_radius == radius
    assert pg.truncated == (radius < INFINITE) == data["truncated"]


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
    is below the base's, with the least such vertex as witness."""
    n, edges = case
    reference = nx.Graph(edges)
    reference.add_nodes_from(range(n))
    eccentricity = nx.eccentricity(reference)
    graph = make_graph(edges, vertex_count=n)
    for base in range(n):
        witness = next((v for v in range(n) if eccentricity[v] < eccentricity[base]), None)
        report = check_assumptions(point_graph(graph, base))
        assert report.condition_iii == ("pass" if witness is None else "fail")
        assert report.witness == witness


@pytest.mark.parametrize(
    "adjacency",
    [((0, 1), (0, 2), (1,)), ((1, 1), (0, 0, 2), (1,))],
    ids=["loop", "double-edge"],
)
def test_simplicity_is_reported_at_every_base(adjacency):
    """A graph that is not simple reports simple: false at every base, and
    a simple one true."""
    for graph, simple in ((Graph(3, adjacency), False), (make_graph([(0, 1), (1, 2)]), True)):
        for base in (2, 0, 1, 2):
            report = check_assumptions(point_graph(graph, base))
            assert report.simple is simple, base
            assert simple or not report.passed


def _refused_before_building(monkeypatch, args, line):
    """`forge args` exits 2 with one error line without building a graph."""

    def build(*_args, **_kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(graphs, "make_graph", build)
    monkeypatch.setattr(fixtures, "build_graph", build)
    result = run_forge(args)
    assert (result.exit_code, result.stdout, result.stderr) == (2, "", f"error: {line}\n")


@pytest.mark.parametrize("vertices", [FINITE_CAP + 1, 10**9])
def test_a_graph_file_over_the_vertex_cap_is_refused_before_it_is_built(tmp_path, monkeypatch, vertices):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"vertices": vertices, "edges": [[0, 1]], "base": 0}), encoding="utf-8")
    line = f"WindowOverflow: graph JSON: {vertices} vertices exceeds the cap {FINITE_CAP}"
    _refused_before_building(monkeypatch, ["graph", "check", str(path)], line)


def test_a_graph_file_endpoint_past_its_vertices_is_refused_before_allocation(tmp_path):
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"vertices": 3, "edges": [[0, 10**12]], "base": 0}), encoding="utf-8")
    result = run_forge(["graph", "check", str(path)])
    line = f"error: BadParameter: edge endpoint {10**12} outside vertex range 0..2\n"
    assert (result.exit_code, result.stdout, result.stderr) == (2, "", line)


@pytest.mark.parametrize("n, m", [(1415, 1414), (100000, 100000)])
def test_a_bipartite_spec_over_the_edge_cap_is_refused_before_it_is_built(monkeypatch, n, m):
    spec = f"bipartite:{n},{m}"
    line = f"WindowOverflow: {spec!r}: {n * m} edges exceeds the cap"
    _refused_before_building(monkeypatch, ["hyper", "table", spec], line)
