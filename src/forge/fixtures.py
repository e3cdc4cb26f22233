"""The fixture catalog: named graphs built from short spec strings.

A spec is head:params, params joined by ":".  The Cayley-backed families
are the group specs of cayley.parse_group, realized as pointed graphs:

    cycle:<n>            n-cycle, n >= 3
    prism:<n>            circular ladder C_n x K_2
    lattice:<d>:r=<R>    Z^d window of radius R
    free:<n>:r=<R>       free-group window of radius R
    ladder:r=<R>         Z x Z/2 window of radius R
    zmod:<m1>[,<m2>...][:r=<R>]  finite vector group
    perm:<file>[:r=<R>]  permutation group from a generator file

Infinite groups require an explicit radius; finite groups are realized
whole unless a radius is given.  The other families build their graphs
here:

    bipartite:<n>,<m>    complete bipartite, base in the first part
    odd:<n>              odd graph O_n (O_3 = Petersen)
    tree:binary:<depth>  rooted binary tree truncated at the given depth
    figure:<n>[:base=<b>]  transcribed drawings, n in 3..6
"""

from __future__ import annotations

import json
import os
from importlib import resources
from itertools import combinations
from math import comb

from . import cayley as cy
from .errors import FINITE_CAP, BadParameter, UnknownFixture, WindowOverflow
from .graphs import Graph, PointedGraph, _expect, _int_param, _int_token, _split_params, build_graph
from .graphs import load_graph_file, parse_graph_json, point_graph


def _build_bipartite(spec, positional, keyed):
    (arg,) = _expect(spec, positional, 1, "parameters bipartite:<n>,<m>")
    _expect(spec, list(keyed), 0, "no keyword parameters")
    pieces = arg.split(",")
    if len(pieces) != 2:
        raise BadParameter(f"{spec!r}: expected two part sizes n,m")
    n = _int_param(spec, pieces[0], 1, "n")
    m = _int_param(spec, pieces[1], 1, "m")
    if n * m > FINITE_CAP:
        raise WindowOverflow(f"{spec!r}: {n * m} edges exceeds the cap")
    edges = [(a, n + b) for a in range(n) for b in range(m)]
    return build_graph(edges, base=0, vertex_count=n + m, name=spec)


def _build_odd(spec, positional, keyed):
    (n,) = _expect(spec, positional, 1, "one parameter: odd:<n>")
    n = _int_param(spec, n, 2, "n")
    _expect(spec, list(keyed), 0, "no keyword parameters")
    count = comb(2 * n - 1, n - 1)
    if count > FINITE_CAP:
        raise WindowOverflow(f"{spec!r}: {count} vertices exceeds the cap")
    ground = range(2 * n - 1)
    subsets = list(combinations(ground, n - 1))
    index = {s: i for i, s in enumerate(subsets)}
    # The neighbours of s are the n subsets of its complement that leave
    # out one of its n points.
    adjacency = []
    for s in subsets:
        rest = tuple(x for x in ground if x not in s)
        adjacency.append(tuple(sorted(index[rest[:j] + rest[j + 1 :]] for j in range(n))))
    labels = tuple("{" + ",".join(map(str, s)) + "}" for s in subsets)
    return point_graph(Graph(count, tuple(adjacency), labels), 0, name=spec)


def _build_tree(spec, positional, keyed):
    shape_depth = _expect(spec, positional, 2, "tree:binary:<depth>")
    if shape_depth[0] != "binary":
        raise UnknownFixture(f"{spec!r}: only tree:binary is available")
    depth = _int_param(spec, shape_depth[1], 1, "depth")
    _expect(spec, list(keyed), 0, "no keyword parameters")
    count = 2 ** (depth + 1) - 1
    if count > FINITE_CAP:
        raise WindowOverflow(f"{spec!r}: {count} vertices exceeds the cap")
    # Vertex v has parent (v - 1) // 2 and children 2v + 1 and 2v + 2, so
    # its path from the root is the binary digits of v + 1 after the first.
    adjacency = tuple(
        tuple(u for u in ((v - 1) // 2, 2 * v + 1, 2 * v + 2) if 0 <= u < count)
        for v in range(count)
    )
    labels = ("e", *(bin(v + 1)[3:] for v in range(1, count)))
    graph = Graph(count, adjacency, labels)
    return point_graph(graph, 0, name=spec, exact_radius=depth // 3)


def _figure_data(number: int) -> dict:
    ref = resources.files("forge").joinpath("fixtures_data", f"figure{number}.json")
    if not ref.is_file():
        raise UnknownFixture(f"no transcription for figure {number}")
    return json.loads(ref.read_text(encoding="utf-8"))


def _build_figure(spec, positional, keyed):
    (num,) = _expect(spec, positional, 1, "figure:<n>[:base=<b>]")
    number = _int_param(spec, num, 0, "figure number")
    data = _figure_data(number)
    base_arg = keyed.pop("base", None)
    _expect(spec, list(keyed), 0, "only base=<b> is accepted")
    if base_arg is not None:
        data = dict(data)
        data["base"] = _resolve_base(data, base_arg, spec)
    pg = parse_graph_json(data, name=spec)
    pg.name = spec
    return pg


def _resolve_base(data, base_arg, spec):
    named = data.get("bases", {})
    if base_arg in named:
        return named[base_arg]
    for vid, text in data.get("labels", {}).items():
        if text == base_arg:
            return vid
    try:
        vid = _int_token(base_arg)
    except ValueError:
        raise BadParameter(
            f"{spec!r}: base {base_arg!r} is neither a named base, a label, nor a vertex id"
        ) from None
    if not 0 <= vid < data["vertices"]:
        raise BadParameter(f"{spec!r}: base vertex {vid} out of range")
    return vid


_BUILDERS = {
    "bipartite": _build_bipartite,
    "odd": _build_odd,
    "tree": _build_tree,
    "figure": _build_figure,
}


def resolve_spec(spec: str) -> PointedGraph:
    """Resolve a CLI target by the head before its first ":": a fixture
    builder, else a Cayley group family (so perm:dir/gens.txt stays a
    group), else a JSON graph file if the spec looks like a path, else
    UnknownFixture."""
    name = spec.strip()
    head, *params = name.split(":")
    builder = _BUILDERS.get(head)
    if builder is not None:
        return builder(name, *_split_params(params))
    # A head holding "/" or "." names no group family, so a graph file is
    # resolved without loading the cayley layer.
    if "/" not in head and "." not in head and head in cy.GROUP_FAMILIES:
        cg, radius = cy.parse_group(name)
        if radius is None and not cg.finite:
            raise BadParameter(f"{name!r}: window radius required, e.g. {name}:r=6")
        pg = cy.realize_full(cg) if radius is None else cy.realize_window(cg, radius)
        pg.name = name
        return pg
    if spec.endswith(".json") or "/" in spec or os.path.isfile(spec):
        return load_graph_file(spec)
    if not name:
        raise BadParameter("empty fixture spec")
    raise UnknownFixture(f"no fixture named {head!r}")
