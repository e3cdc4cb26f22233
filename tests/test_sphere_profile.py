"""The sphere-profile kernel and the two checks that reduce over it.

graphs.sphere_profile counts |S_n(v) ∩ S_k(base)| by k.  It is checked
against networkx distances, and product and check_S2, which now reduce
over it, are checked against their first versions (kept here as
reference_product and reference_check_S2), which scan every sphere
element in Fractions: equal rows, equal reports (witness, count and
scope), and the same errors, on seeded random graphs, on the finite
catalog fixtures and on windows of infinite graphs.
"""

import random
from fractions import Fraction

import networkx as nx
import pytest

from forge import hypergroup
from forge.errors import (
    DisconnectedGraph,
    EmptySphere,
    ForgeError,
    InternalError,
    RadiusExceeded,
)
from forge.fixtures import resolve_spec
from forge.graphs import build_graph, sphere_at, sphere_profile
from forge.hypergroup import ConditionReport, ProbabilityVector, check_S2, product


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


def test_sphere_profile_counts_by_base_distance():
    for pg in random_pointed_graphs(count=10, seed=7) + [resolve_spec("odd:4")]:
        graph = nx.Graph(pg.graph.edges())
        graph.add_nodes_from(range(pg.vertex_count))
        lengths = dict(nx.all_pairs_shortest_path_length(graph))
        for v in range(pg.vertex_count):
            for n in range(max(pg.spheres) + 2):
                expected = {}
                for u, d in lengths[v].items():
                    if d == n:
                        k = lengths[pg.base][u]
                        expected[k] = expected.get(k, 0) + 1
                assert sphere_profile(pg, v, n) == expected, (v, n)


def test_sphere_profile_on_a_window_keeps_the_scope_rule():
    # Inside the exact region, window BFS distances are the ambient ones.
    pg = resolve_spec("free:2:r=6")
    graph = nx.Graph(pg.graph.edges())
    for v in range(0, pg.vertex_count, 7):
        lengths = nx.single_source_shortest_path_length(graph, v)
        for n in range(0, 7 - pg.dist[v]):
            expected = {}
            for u, d in lengths.items():
                if d == n:
                    expected[pg.dist[u]] = expected.get(pg.dist[u], 0) + 1
            assert sphere_profile(pg, v, n) == expected, (v, n)
        with pytest.raises(RadiusExceeded):
            sphere_profile(pg, v, 7 - pg.dist[v])
