"""realize_window and realize_full against the window as first built.

realize_window searches on raw element data, keeps only the integer
table, labels each element from its data, extends free-group labels
along via and reads the adjacency from the rows of right.
reference_window below is the earlier search: it multiplies
GroupElements with the reference product of tests/group_reference.py,
labels every element with element_str and sends the edge list through
make_graph.  Both must give the same elements (rebuilt along via), right,
via, labels, distances, spheres, scope and adjacency, and overflow at
the same vertex.
"""

from bisect import bisect_right

import pytest

from forge import cayley as cy
from forge.cayley import (
    GroupElement,
    element_str,
    identity,
    parse_group_spec,
    realize_full,
    realize_window,
)
from forge.errors import ForgeError, WindowOverflow
from forge.graphs import INFINITE, bfs_from, make_graph
from group_reference import multiply, window_elements

S4_TRANSPOSITIONS = "(0 1)\n(1 2)\n(2 3)\n"
S4_CYCLES = "(0 1 2 3)\n(0 3 2 1)\n(0 1)\n"


def reference_window(cg, radius, cap=cy.WINDOW_CAP):
    """(elements, index, right, via, saturated, graph) of the ball of the
    given radius, by a breadth-first search over GroupElements."""
    ident = identity(cg.kind)
    layers = [[ident]]
    index = {ident: 0}
    elements = [ident]
    via = [None]
    right = []
    while len(right) < len(elements):
        frontier = {}
        products = []
        for u in range(len(right), len(elements)):
            row = [multiply(elements[u], s) for s in cg.generators]
            if len(layers) <= radius:
                for s, h in enumerate(row):
                    if h not in index:
                        frontier.setdefault(h, (u, s))
            products.append(row)
        if frontier:
            if len(elements) + len(frontier) > cap:
                raise WindowOverflow(f"window would exceed {cap} vertices at radius {len(layers)}")
            layer = sorted(frontier, key=GroupElement.sort_key)
            for h in layer:
                index[h] = len(elements)
                elements.append(h)
                via.append(frontier[h])
            layers.append(layer)
        rows = [tuple([index.get(h, -1) for h in row]) for row in products]
        right.extend(rows)
    saturated = not any(-1 in row for row in rows)
    edges = [(u, v) for u, row in enumerate(right) for v in row if u < v]
    graph = make_graph(edges, vertex_count=len(elements), labels=[element_str(g) for g in elements])
    return tuple(elements), index, right, via, saturated, graph


def outcome(fn, *args):
    try:
        return fn(*args)
    except ForgeError as exc:
        return type(exc), str(exc)


def assert_same_window(pg, cg, radius, cap=cy.WINDOW_CAP):
    elements, index, right, via, saturated, graph = reference_window(cg, radius, cap)
    data = pg.cayley
    assert data.cg is cg and data.radius == radius
    assert window_elements(pg) == (elements, index)
    assert data.right == right
    assert data.via == via
    assert data.saturated == saturated
    assert pg.graph == graph  # vertex count, adjacency and labels
    assert pg.dist == bfs_from(graph, 0)
    spheres = {}
    for v, d in enumerate(pg.dist):
        spheres.setdefault(d, []).append(v)
    assert pg.spheres == {d: tuple(vs) for d, vs in spheres.items()}
    assert pg.base == 0
    assert pg.truncated == (not saturated)
    assert pg.exact_radius == (radius if pg.truncated else INFINITE)
    # The sphere oracle translates the base ball through the same rows.
    v = len(elements) - 1
    top = radius - pg.dist[v] if pg.truncated else max(pg.spheres)
    ball = pg._sphere_oracle(v, top)
    assert ball == [index[multiply(elements[v], g)] for g in elements[: bisect_right(pg.dist, top)]]


PERM_FILES = {"s4t.txt": S4_TRANSPOSITIONS, "s4c.txt": S4_CYCLES}
FINITE = ["zmod:2,3", "zmod:5", "perm:s4t.txt", "perm:s4c.txt"]


def group(tmp_path, spec):
    """The group of spec; a perm: spec names one of PERM_FILES."""
    head, _, name = spec.partition(":")
    if head == "perm":
        path = tmp_path / name
        path.write_text(PERM_FILES[name])
        spec = f"perm:{path}"
    return parse_group_spec(spec)


@pytest.mark.parametrize(
    "spec,top",
    [
        ("free:1", 6),
        ("free:2", 5),
        ("free:3", 4),
        ("lattice:1", 8),
        ("lattice:2", 4),
        ("ladder", 6),
        ("zmod:2,3", 4),
        ("zmod:5", 3),
        ("perm:s4t.txt", 7),
        ("perm:s4c.txt", 5),
    ],
)
def test_window_matches_the_element_search_at_every_radius(tmp_path, spec, top):
    cg = group(tmp_path, spec)
    for radius in range(top + 1):
        assert_same_window(realize_window(cg, radius), cg, radius)


@pytest.mark.parametrize("spec", FINITE)
def test_finite_groups_saturate_like_the_element_search(tmp_path, spec):
    cg = group(tmp_path, spec)
    pg = realize_full(cg)
    assert not pg.truncated and pg.name == cg.spec_name
    assert_same_window(pg, cg, cy.WINDOW_CAP)


def test_labels_of_large_free_ranks_are_joined_by_dots():
    cg = parse_group_spec("free:27")
    for radius in range(3):
        pg = realize_window(cg, radius)
        assert_same_window(pg, cg, radius)
    assert pg.label(pg.vertex_count - 1) == "g27.g27"


def test_zmod2_keeps_one_generator_for_plus_and_minus_one():
    cg = parse_group_spec("zmod:2,3")
    assert len(cg.generators) == 3
    pg = realize_window(cg, 1)
    assert pg.vertex_count == 4
    assert_same_window(pg, cg, 1)


@pytest.mark.parametrize(
    "spec,radius,size",
    [("free:2", 2, 17), ("lattice:2", 3, 25), ("ladder", 4, 16), ("zmod:2,3", 9, 6), ("zmod:5", 9, 5)],
)
def test_cap_is_inclusive_and_overflow_is_the_same(spec, radius, size):
    cg = parse_group_spec(spec)
    pg = realize_window(cg, radius, cap=size)
    assert pg.vertex_count == size
    assert_same_window(pg, cg, radius, cap=size)
    got = outcome(realize_window, cg, radius, size - 1)
    assert got[0] is WindowOverflow
    with pytest.raises(WindowOverflow) as want:
        reference_window(cg, radius, size - 1)
    assert got[1] == str(want.value)


def test_realize_full_overflows_by_one_vertex(tmp_path):
    cg = group(tmp_path, "perm:s4c.txt")
    assert realize_full(cg, cap=24).vertex_count == 24
    with pytest.raises(WindowOverflow) as want:
        reference_window(cg, 23, 23)
    assert outcome(realize_full, cg, 23) == (WindowOverflow, str(want.value))
