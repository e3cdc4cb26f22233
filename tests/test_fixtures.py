"""Named fixture specs: shapes, window scopes, and parameter validation."""

import re
from itertools import combinations
from math import prod

import pytest

from forge import cayley as cy
from forge import fixtures
from forge.cayley import parse_group
from forge.errors import BadParameter, UnknownFixture
from forge.fixtures import resolve_spec
from forge.graphs import build_graph


CATALOG_SHAPES = {
    "cycle:4": (4, (1, 2, 1)),
    "cycle:6": (6, (1, 2, 2, 1)),
    "prism:3": (6, (1, 3, 2)),
    "prism:4": (8, (1, 3, 3, 1)),
    "bipartite:2,3": (5, (1, 3, 1)),
    "bipartite:3,3": (6, (1, 3, 2)),
    "odd:3": (10, (1, 3, 6)),
    "figure:3": (7, (1, 4, 2)),
    "figure:4": (4, (1, 3)),
    "figure:5": (9, (1, 4, 4)),
    "figure:6": (8, (1, 5, 2)),
}


@pytest.mark.parametrize("spec", sorted(CATALOG_SHAPES))
def test_finite_fixture_shapes(spec):
    count, sizes = CATALOG_SHAPES[spec]
    pg = resolve_spec(spec)
    assert pg.vertex_count == count
    assert tuple(len(pg.spheres[n]) for n in sorted(pg.spheres)) == sizes
    assert not pg.truncated


def test_window_fixtures_have_scope():
    pg = resolve_spec("lattice:1:r=6")
    assert pg.truncated and pg.exact_radius == 6
    assert tuple(len(pg.spheres[n]) for n in sorted(pg.spheres)) == (1,) + (2,) * 6

    pg = resolve_spec("lattice:2:r=4")
    assert pg.vertex_count == 41
    assert tuple(len(pg.spheres[n]) for n in sorted(pg.spheres)) == (1, 4, 8, 12, 16)

    pg = resolve_spec("free:2:r=3")
    assert pg.vertex_count == 53
    assert tuple(len(pg.spheres[n]) for n in sorted(pg.spheres)) == (1, 4, 12, 36)

    pg = resolve_spec("ladder:r=5")
    assert tuple(len(pg.spheres[n]) for n in sorted(pg.spheres)) == (1, 3, 4, 4, 4, 4)


def test_tree_depth_sets_conservative_scope():
    # depth-D complete binary tree is only sphere-exact out to D//3 because
    # leaf-adjacent vertices see boundary effects beyond that
    pg = resolve_spec("tree:binary:12")
    assert pg.vertex_count == 2**13 - 1
    assert pg.truncated and pg.exact_radius == 4
    assert tuple(len(pg.spheres[n]) for n in range(5)) == (1, 2, 4, 8, 16)


@pytest.mark.parametrize("depth", range(1, 13))
def test_tree_equals_the_validated_edge_list_build(depth):
    """tree:binary:<d> builds its graph directly; it equals the graph that
    make_graph builds from the parent edges, with each label its parent's
    (less the root's "e") followed by the child's side."""
    count = 2 ** (depth + 1) - 1
    edges, labels = [], ["e"]
    for v in range(1, count):
        parent = (v - 1) // 2
        edges.append((parent, v))
        labels.append(labels[parent].replace("e", "") + str((v - 1) % 2))
    spec = f"tree:binary:{depth}"
    want = build_graph(edges, 0, count, labels, name=spec, exact_radius=depth // 3)
    pg = resolve_spec(spec)
    assert pg.graph.adjacency == want.graph.adjacency
    assert pg.graph.labels == want.graph.labels
    assert (pg.name, pg.exact_radius, pg.base, pg.dist) == (
        want.name, want.exact_radius, want.base, want.dist
    )


@pytest.mark.parametrize("n", range(2, 7))
def test_odd_equals_the_pairwise_build(n):
    """odd:<n> lists each subset's neighbours in its complement; it equals
    the graph that make_graph builds from every disjoint pair."""
    subsets = list(combinations(range(2 * n - 1), n - 1))
    edges = [
        (i, j)
        for i, s in enumerate(subsets)
        for j in range(i + 1, len(subsets))
        if not set(s) & set(subsets[j])
    ]
    labels = ["{" + ",".join(str(x) for x in s) + "}" for s in subsets]
    spec = f"odd:{n}"
    want = build_graph(edges, 0, len(subsets), labels, name=spec)
    pg = resolve_spec(spec)
    assert pg.graph.adjacency == want.graph.adjacency
    assert pg.graph.labels == want.graph.labels
    assert (pg.name, pg.exact_radius, pg.base, pg.dist) == (
        want.name, want.exact_radius, want.base, want.dist
    )


def test_figure_base_override():
    pg = resolve_spec("figure:3:base=w0p")
    assert pg.base != resolve_spec("figure:3").base
    assert pg.label(pg.base) == "F'"


def test_cayley_backed_fixture_carries_window():
    pg = resolve_spec("lattice:1:r=6")
    assert pg.cayley is not None
    assert pg.cayley.radius == 6


@pytest.mark.parametrize(
    "spec", ["cycle:7", "prism:4", "zmod:3,3", "zmod:3,3:r=2", "lattice:2:r=3", "free:2:r=4", "ladder:r=5"]
)
def test_group_fixtures_realize_the_parsed_group(spec):
    cg, radius = parse_group(spec)
    pg = resolve_spec(spec)
    assert pg.name == spec
    assert (pg.cayley.cg.kind, pg.cayley.cg.generators) == (cg.kind, cg.generators)
    if radius is None:
        assert not pg.truncated and pg.vertex_count == prod(cg.kind.mods)
    else:
        assert pg.cayley.radius == radius


@pytest.mark.parametrize("spec", ["lattice:1", "free:2", "ladder"])
def test_infinite_group_fixtures_need_a_radius(spec):
    with pytest.raises(BadParameter) as info:
        resolve_spec(spec)
    assert str(info.value) == f"{spec!r}: window radius required, e.g. {spec}:r=6"


def test_unknown_fixture():
    with pytest.raises(UnknownFixture):
        resolve_spec("mobius:5")


@pytest.mark.parametrize(
    "spec, error, message",
    [
        ("", BadParameter, "empty fixture spec"),
        ("  ", BadParameter, "empty fixture spec"),
        (":x", UnknownFixture, "no fixture named ''"),
        ("lattice:1", BadParameter, "'lattice:1': window radius required, e.g. lattice:1:r=6"),
    ],
)
def test_specs_that_name_no_graph_keep_their_error(spec, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        resolve_spec(spec)


def test_a_spec_is_resolved_without_its_surrounding_blanks():
    assert resolve_spec(" cycle:4 ").name == "cycle:4"
    assert resolve_spec(" odd:3").name == "odd:3"


def test_fixture_builders_and_group_families_are_disjoint():
    # resolve_spec tries the builders before the group families.
    assert fixtures._BUILDERS.keys().isdisjoint(cy.GROUP_FAMILIES)


class NoFamilyLookup(dict):
    def __contains__(self, head):
        raise AssertionError(f"group families consulted for {head!r}")


def test_a_head_with_a_slash_or_a_dot_names_no_group_family(tmp_path, monkeypatch):
    """Such a head is read as a path without consulting the group families,
    so a graph file never loads the cayley layer."""
    assert not any("/" in head or "." in head for head in cy.GROUP_FAMILIES)
    (tmp_path / "d").mkdir()
    graph = '{"vertices": 3, "edges": [[0, 1], [1, 2]], "base": 1}'
    (tmp_path / "d" / "path3").write_text(graph)
    (tmp_path / "path3.json").write_text(graph)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cy, "GROUP_FAMILIES", NoFamilyLookup(cy.GROUP_FAMILIES))
    for spec in ("d/path3", "path3.json", str(tmp_path / "path3.json")):
        assert resolve_spec(spec).vertex_count == 3
    with pytest.raises(UnknownFixture, match="no fixture named 'mobius.5'"):
        resolve_spec("mobius.5:3")
    for spec in ("odd:3", "bipartite:2,2", "tree:binary:2", "figure:4"):
        resolve_spec(spec)
    with pytest.raises(AssertionError, match="'perm'"):
        resolve_spec("perm:d/gens.txt")


@pytest.mark.parametrize(
    "spec",
    [
        "cycle:2",
        "prism:2",
        "bipartite:0,3",
        "lattice:0:r=4",
        "lattice:1",
        "free:2:R=3",
        "ladder:5",
        "tree:binary:0",
        "figure:1",
        "figure:3:base=nope",
    ],
)
def test_bad_parameters_rejected(spec):
    with pytest.raises((BadParameter, UnknownFixture)):
        resolve_spec(spec)
