"""Pointed graphs: construction, spheres, and the standing assumptions.

A pointed graph is a simple connected locally finite graph with a chosen
base vertex.  Everything downstream is built from the sphere map
S_n(v) = {u : d(u, v) = n}; for the base vertex the spheres partition the
vertex set and their indices form the index set I of the graph.

One kernel, sphere_counts, counts |S_n(v) ∩ S_k(base)| for every n at
once, and sphere_at reads single spheres from the same source, chosen by
finiteness alone: a window runs a BFS cut at the depth the query reads,
and a finite graph, a full Cayley group included, reads the bitset
spheres of sphere_bitsets, grown for all vertices at once and only as
deep as a query reads: a count is then a popcount.  The counts are
cached once per vertex, the deepest read so far.  Each pointed graph
keeps its own caches.

Truncated windows (finite pieces of infinite graphs) carry an exactness
radius: spheres S_n(v) are only served when |v| + n stays within it, so
no query can silently see boundary artifacts.
"""

from __future__ import annotations

import json
import math
import sys
from collections import deque
from functools import cached_property, reduce
from itertools import accumulate
from operator import or_, xor
from typing import NamedTuple

from .errors import (
    BadParameter,
    DisconnectedGraph,
    DuplicateEdge,
    RadiusExceeded,
    SelfLoop,
)

INFINITE = math.inf


class Graph(NamedTuple):
    """Undirected simple graph on vertices 0..n-1 with sorted adjacency."""

    vertex_count: int
    adjacency: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = None

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.vertex_count) for v in self.adjacency[u] if u < v]

    def label(self, v: int) -> str:
        if self.labels is not None:
            return self.labels[v]
        return str(v)


class PointedGraph:
    """A graph with a base vertex, its BFS layers, and an exactness scope.

    dist[v] is the distance from the base; spheres maps n to the sorted
    vertices at distance n from the base.  For truncated windows,
    exact_radius bounds the region where sphere queries are honest;
    finite complete graphs use exact_radius = INFINITE, and a graph is
    truncated exactly when its exact_radius is finite.  Two pointed
    graphs are equal only when they are the same object.
    """

    def __init__(self, graph: Graph, base: int, dist: tuple[int, ...], spheres: dict[int, tuple[int, ...]],
                 exact_radius: float = INFINITE, name: str = "graph", cayley=None):
        self.graph, self.base, self.dist, self.spheres = graph, base, dist, spheres
        self.exact_radius, self.name, self.cayley = exact_radius, name, cayley
        # On Cayley graphs, pg.cayley.sphere_oracle, which perfbench's tracer
        # wraps here; no sphere query reads it.
        self._sphere_oracle = None
        self._count_cache = {}
        # sphere_bitsets' levels and outermost balls; no balls once all are whole.
        self._shells, self._balls = [], None

    @property
    def vertex_count(self) -> int:
        return self.graph.vertex_count

    @property
    def truncated(self) -> bool:
        return self.exact_radius < INFINITE

    def label(self, v: int) -> str:
        return self.graph.label(v)

    @cached_property
    def _sphere_masks(self) -> tuple[int, ...]:
        """The base spheres S_k as bitsets, k = 0, 1, ..."""
        return tuple(sum(1 << v for v in self.spheres[k]) for k in range(len(self.spheres)))

    def to_jsonable(self) -> dict:
        out = {
            "name": self.name,
            "vertices": self.vertex_count,
            "edges": [list(e) for e in self.graph.edges()],
            "base": self.base,
            "truncated": self.truncated,
        }
        if self.truncated:
            out["exact_radius"] = int(self.exact_radius)
        if self.graph.labels is not None:
            out["labels"] = {str(v): self.graph.labels[v] for v in range(self.vertex_count)}
        return out


def make_graph(edge_list, vertex_count=None, labels=None) -> Graph:
    """Validate an undirected edge list and build the adjacency structure."""
    edges = []
    seen = set()
    max_v = -1
    for e in edge_list:
        try:
            u, v = int(e[0]), int(e[1])
        except (TypeError, ValueError, IndexError) as exc:
            raise BadParameter(f"edge {e!r} is not a pair of vertex ids") from exc
        if u < 0 or v < 0:
            raise BadParameter(f"edge {e!r} has a negative vertex id")
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise DuplicateEdge(f"edge {key} listed more than once")
        seen.add(key)
        edges.append(key)
        max_v = max(max_v, u, v)
    n = max_v + 1 if vertex_count is None else int(vertex_count)
    if n <= 0:
        raise BadParameter("graph needs at least one vertex")
    if max_v >= n:
        raise BadParameter(f"edge endpoint {max_v} outside vertex range 0..{n - 1}")
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    if labels is not None:
        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise BadParameter(f"{len(labels)} labels for {n} vertices")
    return Graph(n, tuple(tuple(sorted(a)) for a in adj), labels)


def bfs_from(graph: Graph, start: int) -> tuple[int, ...]:
    """Distances from start; unreachable vertices get -1."""
    adjacency = graph.adjacency  # a NamedTuple field: read once, not per vertex
    dist = [-1] * graph.vertex_count
    dist[start] = 0
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in adjacency[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return tuple(dist)


def bfs_ball(graph: Graph, start: int, depth: int) -> dict[int, int]:
    """{u: d(start, u)} for every u within depth of start, in BFS order."""
    adjacency = graph.adjacency
    dist = {start: 0}
    layer = [start]
    for d in range(1, depth + 1):
        reached = []
        for u in layer:
            for w in adjacency[u]:
                if w not in dist:
                    dist[w] = d
                    reached.append(w)
        layer = reached
    return dist


def build_graph(
    edge_list,
    base: int,
    vertex_count=None,
    labels=None,
    name: str = "graph",
    exact_radius: float = INFINITE,
) -> PointedGraph:
    """Build a pointed graph, rejecting loops, duplicate edges, and
    disconnection from the base."""
    graph = make_graph(edge_list, vertex_count, labels)
    return point_graph(graph, base, name=name, exact_radius=exact_radius)


def point_graph(
    graph: Graph,
    base: int,
    dist: tuple[int, ...] | None = None,
    name: str = "graph",
    exact_radius: float = INFINITE,
) -> PointedGraph:
    """Point a validated graph at base, rejecting disconnection from it.

    dist is the base's BFS row when the caller already has it.
    """
    base = int(base)
    if not 0 <= base < graph.vertex_count:
        raise BadParameter(f"base {base} outside vertex range 0..{graph.vertex_count - 1}")
    if dist is None:
        dist = bfs_from(graph, base)
    if -1 in dist:
        missing = [v for v, d in enumerate(dist) if d < 0]
        raise DisconnectedGraph(
            f"{len(missing)} vertices unreachable from base {base} (first: {missing[0]})"
        )
    spheres: dict[int, list[int]] = {}
    for v, d in enumerate(dist):
        spheres.setdefault(d, []).append(v)
    sphere_map = {n: tuple(vs) for n, vs in spheres.items()}
    return PointedGraph(
        graph=graph,
        base=base,
        dist=dist,
        spheres=sphere_map,
        exact_radius=exact_radius,
        name=name,
    )


def index_set(pg: PointedGraph) -> tuple[tuple[int, ...], float]:
    """The occupied sphere indices I and their supremum M.

    For truncated windows M is reported as INFINITE: the window only
    bounds the visible part of the index set.
    """
    indices = tuple(sorted(pg.spheres))
    if pg.truncated:
        return indices, INFINITE
    return indices, indices[-1]


def sphere_bitsets(pg: PointedGraph, depth: float = INFINITE) -> list[list[int]]:
    """levels[n][v] = S_n(v) as a bitset (bit u set iff d(v, u) = n) on a
    finite graph, for n up to depth or the diameter.  All balls grow
    together, B_{n+1}(v) = B_n(v) | the B_n(x) of the neighbours x of v,
    and no further than a query reads; pg keeps them for the next one."""
    shells = pg._shells
    if not shells:
        pg._balls = [1 << v for v in range(pg.vertex_count)]
        shells.append(pg._balls)
    whole = (1 << pg.vertex_count) - 1
    while len(shells) <= depth and pg._balls is not None:
        balls = pg._balls
        if all(ball == whole for ball in balls):
            pg._balls = None
            break
        adjacency = pg.graph.adjacency
        grown = [reduce(or_, map(balls.__getitem__, adj), x) for x, adj in zip(balls, adjacency)]
        shells.append([outer ^ inner for outer, inner in zip(grown, balls)])
        pg._balls = grown
    return shells


_BIT_DIGITS = bytes.maketrans(b"01", b"\0\1")
_UNITS = f"utf-32-{sys.byteorder[0]}e"


def distance_row(spheres, n: int) -> list[int]:
    """row[u] = d(v, u) for u < n, from v's spheres S_0(v), S_1(v), ... as
    bitsets.  Bit j of d(v, u) is set iff u lies in some B_b(v) - B_a(v)
    with a = (2m+1)2^j - 1 and b = a + 2^j, a union of nested differences
    that one XOR of the balls gives; that plane adds 2^j to the 32-bit
    digit of each of its members in one integer holding the row."""
    balls, total = list(accumulate(spheres, or_)), 0
    for j in range((len(balls) - 1).bit_length()):
        inner, outer = balls[(1 << j) - 1 :: 2 << j], balls[(2 << j) - 1 :: 2 << j]
        if len(outer) < len(inner):
            outer.append(balls[-1])
        plane = reduce(xor, inner + outer)
        digits = format(plane, f"0{n}b")[::-1].encode(_UNITS).translate(_BIT_DIGITS)
        total += int.from_bytes(digits, sys.byteorder) << j
    return memoryview(total.to_bytes(4 * n, sys.byteorder)).cast("I").tolist()


def _certified_top(pg: PointedGraph, v: int, top: int | None) -> int:
    """The sphere index a query at v reads to: top, checked, or when None
    the largest index v certifies, exact_radius - |v| on windows, else its
    eccentricity."""
    if not 0 <= v < pg.vertex_count:
        raise BadParameter(f"vertex {v} outside range 0..{pg.vertex_count - 1}")
    if top is not None and top < 0:
        raise BadParameter(f"sphere index {top} is negative")
    if pg.truncated:
        limit = int(pg.exact_radius) - pg.dist[v]
        top = max(limit, 0) if top is None else top
        if top > limit:
            raise RadiusExceeded(
                f"S_{top}({v}) reaches outside the exact region "
                f"(|v|={pg.dist[v]}, exact_radius={pg.exact_radius})"
            )
        return top
    if top is not None:
        return top
    shells = sphere_bitsets(pg)
    return next(n for n in reversed(range(len(shells))) if shells[n][v])


def sphere_at(pg: PointedGraph, v: int, n: int) -> tuple[int, ...]:
    """The sorted sphere S_n(v), from the source of sphere_counts."""
    _certified_top(pg, v, n)
    if not pg.truncated:
        shells = sphere_bitsets(pg, n)
        bits = format(shells[n][v], "b")[::-1] if n < len(shells) else ""
        return tuple(u for u, bit in enumerate(bits) if bit == "1")
    return tuple(sorted(u for u, d in bfs_ball(pg.graph, v, n).items() if d == n))


def sphere_counts(pg: PointedGraph, v: int, top: int | None = None) -> list[dict[int, int]]:
    """counts[n][k] = |S_n(v) ∩ S_k(base)| for n = 0..top, nonzero k only.

    Every per-vertex sphere check reduces over these counts.  top defaults
    to the largest index v certifies; past a window's radius it raises
    RadiusExceeded, past the eccentricity of v the spheres are empty.
    counts[n] does not depend on top, so one entry per vertex is cached,
    the deepest read so far, and a shallower top is served as its prefix:
    do not modify the counts.
    """
    top = _certified_top(pg, v, top)
    counts = pg._count_cache.get(v)
    if counts is None or len(counts) <= top:
        if not pg.truncated:
            # S_n(v) meets S_k(base) only for |n - |v|| <= k <= n + |v|.
            levels, masks, r = sphere_bitsets(pg, top), pg._sphere_masks, pg.dist[v]
            counts = []
            for n in range(top + 1):
                sphere = levels[n][v] if n < len(levels) else 0
                ks = range(abs(n - r), min(n + r, len(masks) - 1) + 1) if sphere else ()
                counts.append({k: c for k in ks if (c := (sphere & masks[k]).bit_count())})
        else:
            ball = bfs_ball(pg.graph, v, top)
            counts = [{} for _ in range(top + 1)]
            for n, k in zip(ball.values(), map(pg.dist.__getitem__, ball)):
                sphere = counts[n]
                sphere[k] = sphere.get(k, 0) + 1
        pg._count_cache[v] = counts
    return counts[: top + 1]


def sphere_sizes_at(pg: PointedGraph, v: int) -> tuple[int, ...]:
    """(|S_0(v)|, |S_1(v)|, ...) out to the largest index v certifies: the
    popcounts of its spheres on finite graphs, else the sums of
    sphere_counts."""
    if not pg.truncated:
        top = _certified_top(pg, v, None)
        return tuple(level[v].bit_count() for level in pg._shells[: top + 1])
    return tuple(sum(counts.values()) for counts in sphere_counts(pg, v))


class AssumptionReport(NamedTuple):
    """Verdicts for the three standing assumptions.

    condition_iii is the non-degeneracy requirement that the outermost
    occupied base sphere index M is attained from every vertex; it is
    checked on finite complete graphs and reported as vacuous on windows.
    """

    simple: bool
    connected: bool
    locally_finite: bool
    condition_iii: str
    witness: int | None = None

    @property
    def passed(self) -> bool:
        return (
            self.simple
            and self.connected
            and self.locally_finite
            and self.condition_iii in ("pass", "vacuous")
        )


def check_assumptions(pg: PointedGraph) -> AssumptionReport:
    """Re-verify simplicity and connectivity, then test condition (iii):
    every vertex has a nonempty sphere at the top base index M."""
    graph = pg.graph
    simple = all(
        v not in adj and len(set(adj)) == len(adj) for v, adj in enumerate(graph.adjacency)
    )
    connected = min(pg.dist) >= 0
    locally_finite = True
    if pg.truncated:
        return AssumptionReport(simple, connected, locally_finite, "vacuous")
    # S_M(v) is nonempty iff the eccentricity of v, one less than the length
    # of its sphere sizes, is at least M.
    top = max(pg.spheres)
    short = (v for v in range(graph.vertex_count) if len(sphere_sizes_at(pg, v)) <= top)
    witness = next(short, None)
    verdict = "pass" if witness is None else "fail"
    return AssumptionReport(simple, connected, locally_finite, verdict, witness)


def _int_field(value, what: str) -> int:
    """An integer field of a graph JSON: a whole number or a string that
    _int_token reads, never a boolean, which int() would also accept."""
    try:
        if isinstance(value, str):
            return _int_token(value)
        if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
            raise ValueError(value)
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadParameter(f"graph JSON {what} must be an integer, got {value!r}") from exc


def parse_graph_json(data: dict, name: str = "file") -> PointedGraph:
    """Build a pointed graph from the JSON object format:
    {"vertices": n, "edges": [[u,v],...], "base": b, "labels": {...}?}."""
    if not isinstance(data, dict):
        raise BadParameter("graph JSON must be an object")
    for key in ("vertices", "edges", "base"):
        if key not in data:
            raise BadParameter(f"graph JSON missing {key!r}")
    vertex_count = _int_field(data["vertices"], "vertices")
    labels = None
    if "labels" in data and data["labels"] is not None:
        raw = data["labels"]
        if not isinstance(raw, dict):
            raise BadParameter("labels must map vertex ids to strings")
        labels = [str(v) for v in range(vertex_count)]
        named = set()
        for k, text in raw.items():
            idx = _int_field(k, "label key")
            if not 0 <= idx < vertex_count:
                raise BadParameter(f"label for unknown vertex {idx}")
            if idx in named:
                raise BadParameter(f"labels name vertex {idx} twice")
            named.add(idx)
            labels[idx] = str(text)
    truncated = data.get("truncated", False)
    if not isinstance(truncated, bool):
        raise BadParameter(f"graph JSON truncated must be true or false, got {truncated!r}")
    exact_radius = data.get("exact_radius", INFINITE)
    if truncated:
        exact_radius = _int_field(exact_radius, "exact_radius")
    edges = data["edges"]
    if not isinstance(edges, list):
        raise BadParameter(f"graph JSON edges must be a list of vertex pairs, got {edges!r}")
    for e in edges:
        # make_graph would read [0, 1, 2] or "01" as the pair (0, 1).
        if not (isinstance(e, list) and len(e) == 2):
            raise BadParameter(f"graph JSON edge {e!r} is not a pair of vertex ids")
    # make_graph's int() would read an endpoint 1.5 as 1 and true as 1.
    edges = [[_int_field(x, "edge endpoint") for x in e] for e in edges]
    return build_graph(
        edges,
        _int_field(data["base"], "base"),
        vertex_count=vertex_count,
        labels=labels,
        name=str(data.get("name", name)),
        exact_radius=exact_radius if truncated else INFINITE,
    )


def load_graph_file(path: str) -> PointedGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise BadParameter(f"cannot read graph file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BadParameter(f"graph file {path} is not valid JSON: {exc}") from exc
    return parse_graph_json(data, name=path)


def _split_params(params):
    """Split spec parameters (a spec is head:params, params joined by ":")
    into positional values and key=value pairs."""
    positional, keyed = [], {}
    for p in params:
        if "=" in p:
            k, _, v = p.partition("=")
            if not k or not v:
                raise BadParameter(f"malformed parameter {p!r}")
            if k in keyed:
                raise BadParameter(f"parameter {k!r} given more than once")
            keyed[k] = v
        else:
            positional.append(p)
    return positional, keyed


def _int_token(text: str) -> int:
    """The one reader of an integer in a spec, an option or a file: ASCII
    digits after an optional "-", else ValueError.  int() would also take
    "+", "_", blanks and any Unicode digit: many spellings of one graph."""
    if not (text.isascii() and text.removeprefix("-").isdecimal()):
        raise ValueError(f"invalid int value: {text!r}")
    return int(text)


def _int_param(spec, value, minimum, what):
    try:
        n = _int_token(value)
    except ValueError as exc:
        raise BadParameter(f"{spec!r}: {what} must be an integer") from exc
    if n < minimum:
        raise BadParameter(f"{spec!r}: {what} must be >= {minimum}")
    return n


def _expect(spec, positional, count, what):
    if len(positional) != count:
        raise BadParameter(f"{spec!r}: expected {what}")
    return positional
