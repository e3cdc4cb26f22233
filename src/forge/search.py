"""Exhaustive search for hypergroup counterexamples on small graphs.

Connected graphs are generated by vertex augmentation with canonical
dedup (color refinement plus an ordered minimum adjacency string).  A
graph whose degrees differ is decided at all its bases at once from its
eccentricities: condition (iii) holds exactly at the bases of least
eccentricity, and there (S1) fails at index 1, which compares degrees.
A regular graph is pointed at each base, and each pointed graph that
satisfies the two random-walk conditions is classified exactly.

The labelling of a kept graph also yields generators of its automorphism
group, and its children are labelled for one attachment subset per orbit
of that group only, the least one: each other subset gives a child
isomorphic to an earlier one of the same parent, so the kept graphs, and
where the graph cap is hit, do not change.

On the last level a non-regular child is kept only if its new vertex is
a canonical deletion (McKay 1998): it lies in the automorphism orbit of
the first vertex of the canonical ordering among the non-cut vertices of
largest degree.  Deleting that vertex leaves one class, whose kept graph
is the one parent of the class, and one orbit of its attachments gives
the class with the new vertex there, so each class is kept once without
comparing keys; a child whose new vertex lacks that degree is not even
labelled.  A non-regular graph is reported only through its class and
the eccentricity at its canonical first vertex, so the reports do not
change.  Regular graphs, whose edges are reported, and the levels below
the last, which are the parents, keep the first child of each class.
Each level's class count is checked against the known counts.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import DEFAULT_GRAPH_CAP, BadParameter, EnumerationCapExceeded, InternalError
from .graphs import Graph, build_graph, check_assumptions, point_graph
from .hypergroup import build_table, check_S1, check_S2, classify

# Connected graphs on n = 1, 2, ... vertices up to isomorphism (OEIS A001349).
CONNECTED_GRAPH_COUNTS = (1, 1, 2, 6, 21, 112, 853, 11117, 261080, 11716571)


def _refine(neighbors, colors):
    """One-dimensional color refinement to a stable partition: the ranks
    of the first round that splits no cell or leaves each vertex a cell
    of its own.  They renumber the cells in order, so a further round
    would only return them again."""
    n, cells = len(colors), len(set(colors))
    while True:
        signatures = [
            (colors[v], tuple(sorted(map(colors.__getitem__, nbrs))))
            for v, nbrs in enumerate(neighbors)
        ]
        order = sorted(set(signatures))
        ranks = {sig: r for r, sig in enumerate(order)}
        colors = [ranks[sig] for sig in signatures]
        if len(order) == cells or len(order) == n:
            return colors
        cells = len(order)


@lru_cache(maxsize=1 << 12)
def _bits(length: int, row: int) -> tuple:
    """row as a 0/1 tuple of the given length, most significant bit first."""
    return tuple(row >> (length - 1 - i) & 1 for i in range(length))


def _canonical_with_automorphisms(neighbors, colors=None) -> tuple:
    """(key, ordering, generators): the minimum upper-triangle adjacency
    string over orderings compatible with the refined coloring, the first
    ordering (in vertex-index DFS order) attaining it, and generators of
    the automorphism group of the colored graph, each a tuple g mapping v
    to g[v].

    Row k of the string is vertex k's adjacency to the k vertices placed
    before it, held as an int with the first-placed vertex as the most
    significant bit, so rows of equal length order like 0/1 tuples.  Two
    exact prunings: only vertices whose next row is the least among the
    eligible ones are extended (every optimal ordering has that row
    there), and a twin (same color, N(v) - {w} = N(w) - {v}) of a vertex
    already tried at this depth is skipped (swapping the two fixes the
    prefix, so its subtree repeats the same strings later).

    The labelling finds the generators as it goes: each twin it skips
    gives the transposition of the two twins, and each leaf whose string
    equals the best one gives the map best_order[i] -> order[i].  Every
    optimal ordering is a leaf or lies in a subtree a twin swap maps onto
    one, so these generate the whole group.
    """
    n = len(neighbors)
    # Refining the uniform coloring splits it by degree first, so an
    # uncolored graph starts from its degrees: a round depends only on the
    # order of the colors, so this reaches the same stable coloring.
    colors = _refine(
        neighbors, list(colors) if colors else [len(nbrs) for nbrs in neighbors]
    )
    adjacency = [sum([1 << w for w in nbrs]) for nbrs in neighbors]
    # The refined colors are ranks 0, 1, ...: cells[c] lists color c.
    cells: list[list[int]] = [[] for _ in range(len(set(colors)))]
    for v, c in enumerate(colors):
        cells[c].append(v)
    cell_at = [cells[c] for c in sorted(colors)]
    # The last place of a cell has one vertex left for it: a forced step.
    # The leaf's place n is not one, so a run of them stops there.
    forced = [pos + 1 == n or cell_at[pos + 1] is not cell_at[pos] for pos in range(n)]
    forced.append(False)
    best: list | None = None
    best_order: tuple | None = None
    generators: set[tuple] = set()

    def extend(prefix, used, rows, row_of, pending):
        # row_of[v]: v's adjacency row against the prefix without its last
        # vertices, pending, whose bits are appended only where needed.
        nonlocal best, best_order
        pos = len(prefix)
        # A forced step has no choice and no twin to skip, so a run of them
        # is placed here at once.  The pruning test below, or the leaf's,
        # sees the whole run: a prefix worse than best stays worse when
        # extended.  A run vertex's row is its row_of entry followed by its
        # bits for the pending vertices and the run vertices before it, so
        # row_of is rebuilt only where a choice follows.
        if forced[pos]:
            rows = rows.copy()
            while forced[pos]:
                for v in cell_at[pos]:
                    if not used >> v & 1:
                        break
                row, adj = row_of[v], adjacency[v]
                for u in pending:
                    row = row << 1 | adj >> u & 1
                rows.append(row)
                prefix += (v,)
                pending += (v,)
                used |= 1 << v
                pos += 1
        if pos == n:
            if best is None or rows < best:
                best = rows
                best_order = prefix
            elif rows == best:
                image = [0] * n
                for u, w in zip(best_order, prefix):
                    image[u] = w
                generators.add(tuple(image))
            return
        for u in pending:
            row_of = [row << 1 | adj >> u & 1 for row, adj in zip(row_of, adjacency)]
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
            for u in tried:
                if not (nbrs ^ adjacency[u]) & ~(1 << u | 1 << v):
                    swap = list(range(n))
                    swap[u], swap[v] = v, u
                    generators.add(tuple(swap))
                    break
            else:
                tried.append(v)
                extend(prefix + (v,), used | 1 << v, rows, row_of, (v,))

    extend((), 0, [], [0] * n, ())
    if best_order is None:
        raise InternalError("canonical labelling reached no leaf")
    string = tuple(map(_bits, range(n), best))
    key = (tuple(map(len, cells)), string)
    return key, best_order, tuple(generators)


def _edges_from_neighbors(neighbors) -> tuple:
    return tuple(
        (u, v) for u in range(len(neighbors)) for v in neighbors[u] if u < v
    )


def _eccentricities(neighbors) -> list[int]:
    """Each vertex's eccentricity in the connected graph with these
    neighbour sets: how often its ball grows over the neighbour bitsets
    until it holds every vertex."""
    rows = [sum(1 << u for u in nbrs) for nbrs in neighbors]
    everything = (1 << len(rows)) - 1
    eccentricities = []
    for v in range(len(rows)):
        ball = frontier = 1 << v
        radius = 0
        while ball != everything:
            frontier = _neighbourhood(rows, frontier) & ~ball
            ball |= frontier
            radius += 1
        eccentricities.append(radius)
    return eccentricities


def _neighbourhood(rows, bits: int) -> int:
    """The union of the adjacency bitsets rows of the vertices in bits."""
    grown = 0
    while bits:
        low = bits & -bits
        grown |= rows[low.bit_length() - 1]
        bits ^= low
    return grown


def _orbit_minima(n: int, generators):
    """The nonempty subsets of range(n), as bitmasks in increasing order,
    that are the least of their orbit under the generated group."""
    images = []
    for g in generators:
        image = [0] * (1 << n)
        for s in range(1, 1 << n):
            low = s & -s
            image[s] = image[s ^ low] | 1 << g[low.bit_length() - 1]
        images.append(image)
    reached = bytearray(1 << n)
    for attach in range(1, 1 << n):
        if reached[attach]:
            continue
        yield attach
        reached[attach] = 1
        orbit = [attach]
        for s in orbit:
            for image in images:
                t = image[s]
                if not reached[t]:
                    reached[t] = 1
                    orbit.append(t)


def _is_cut_vertex(rows, u: int) -> bool:
    """Whether deleting u disconnects the connected graph whose adjacency
    bitsets are rows."""
    rest = (1 << len(rows)) - 1 ^ 1 << u
    reach = frontier = rest & -rest
    while frontier:
        frontier = _neighbourhood(rows, frontier) & rest & ~reach
        reach |= frontier
    return reach != rest


def _last_has_top_degree(rows, degrees) -> bool:
    """Whether the last vertex, never a cut vertex of a child, has the
    largest degree among the vertices that are not cut vertices."""
    top = degrees[-1]
    return not any(
        d > top and not _is_cut_vertex(rows, u) for u, d in enumerate(degrees)
    )


def _last_is_canonical_deletion(rows, degrees, ordering, generators) -> bool:
    """Whether the last vertex lies in the automorphism orbit of the
    canonical deletion vertex: the first vertex of the canonical ordering
    among the non-cut vertices of largest degree.  That degree is the last
    vertex's, as _last_has_top_degree has found."""
    last, top = len(rows) - 1, degrees[-1]
    mark = next(
        u
        for u in ordering
        if degrees[u] == top and (u == last or not _is_cut_vertex(rows, u))
    )
    orbit = [mark]
    for u in orbit:
        if u == last:
            return True
        for g in generators:
            if g[u] not in orbit:
                orbit.append(g[u])
    return False


def enumerate_connected_graphs(max_vertices: int, cap: int = DEFAULT_GRAPH_CAP):
    """Yield (n, neighbor-lists, first) for one representative per
    isomorphism class of connected graphs on 1..max_vertices vertices;
    first is the vertex its canonical ordering places first.

    A child joins a new vertex to a nonempty subset of its parent.  Only
    the least subset of each orbit of the parent's automorphisms is
    labelled: the others give children isomorphic to one already labelled
    from the same parent.  Below max_vertices, and for regular graphs at
    it, the first child of each class is kept.  A non-regular child on
    max_vertices vertices is kept iff its new vertex is a canonical
    deletion (McKay 1998), and labelled only if its degree allows that.
    Each level must hold as many classes as A001349 counts, or
    InternalError is raised.
    """
    if max_vertices < 1:
        return
    total = 1
    # (neighbor sets, first vertex, automorphism generators, adjacency bitsets)
    level = [([set()], 0, (), [0])]
    yield 1, [set()], 0
    for n in range(2, max_vertices + 1):
        new = 1 << n - 1
        seen = set()
        kept = []
        for parent, _, automorphisms, rows in level:
            for attach in _orbit_minima(n - 1, automorphisms):
                child_rows = [
                    row | new if attach >> i & 1 else row for i, row in enumerate(rows)
                ]
                child_rows.append(attach)
                degrees = [row.bit_count() for row in child_rows]
                # A regular graph's edges are reported, so its first child
                # stays the representative.
                deletion = n == max_vertices and degrees.count(degrees[-1]) != n
                if deletion and not _last_has_top_degree(child_rows, degrees):
                    continue
                subset = {i for i in range(n - 1) if attach >> i & 1}
                child = [set(s) for s in parent] + [set(subset)]
                for w in subset:
                    child[w].add(n - 1)
                key, ordering, generators = _canonical_with_automorphisms(child)
                if deletion:
                    if not _last_is_canonical_deletion(
                        child_rows, degrees, ordering, generators
                    ):
                        continue
                elif key in seen:
                    continue
                else:
                    seen.add(key)
                kept.append((child, ordering[0], generators, child_rows))
                total += 1
                if total > cap:
                    raise EnumerationCapExceeded(f"more than {cap} graphs")
        if n <= len(CONNECTED_GRAPH_COUNTS) and len(kept) != CONNECTED_GRAPH_COUNTS[n - 1]:
            raise InternalError(
                f"{len(kept)} connected graphs on {n} vertices, "
                f"expected {CONNECTED_GRAPH_COUNTS[n - 1]}"
            )
        level = kept
        for child, first, _, _ in level:
            yield n, child, first


class SearchEntry(NamedTuple):
    """One classified pointed graph from the sweep."""

    vertices: int
    edges: tuple
    base: int
    commutative: bool
    associative: bool
    verdict: str
    witness: tuple | None


class SearchReport(NamedTuple):
    """Outcome of the exhaustive sweep up to max_vertices."""

    max_vertices: int
    base_policy: str
    graph_counts: dict
    pointed_examined: int
    rejected_condition: int
    rejected_walk: int
    classified: tuple
    counterexamples: tuple

    @property
    def conjecture_holds(self) -> bool:
        return not self.counterexamples


def search_conjecture(
    max_vertices: int = 6,
    base_policy: str = "all",
    cap: int = DEFAULT_GRAPH_CAP,
) -> SearchReport:
    """Scan connected pointed graphs up to max_vertices vertices for one
    whose walk conditions hold but whose product table is not a hermitian
    hypergroup.  base_policy "all" examines every vertex as base;
    "canonical" only the first vertex of the canonical ordering.

    The enumerated graphs are simple and connected, so (iii) holds at a
    base b iff no vertex has a smaller eccentricity than b, and a base is
    rejected on condition without a pointed graph.  On a graph whose
    degrees differ, (S1) fails at index 1 wherever (iii) holds, so those
    bases are rejected on the walk.  Only regular graphs are pointed,
    checked and classified."""
    if base_policy not in ("all", "canonical"):
        raise BadParameter(f"unknown base policy {base_policy!r}")
    if max_vertices < 1:
        raise BadParameter(f"max_vertices must be >= 1, got {max_vertices}")
    # The enumeration would exceed the cap exactly when the known counts do,
    # so refuse before enumerating anything.
    if sum(CONNECTED_GRAPH_COUNTS[:max_vertices]) > cap:
        raise EnumerationCapExceeded(f"more than {cap} graphs")
    graph_counts: dict[int, int] = {}
    examined = rejected_condition = rejected_walk = 0
    classified = []
    for n, neighbors, first in enumerate_connected_graphs(max_vertices, cap):
        graph_counts[n] = graph_counts.get(n, 0) + 1
        bases = [first] if base_policy == "canonical" else range(n)
        examined += len(bases)
        # (iii) holds exactly at the bases of least eccentricity.
        ecc = _eccentricities(neighbors)
        radius = min(ecc)
        centre = [base for base in bases if ecc[base] == radius]
        rejected_condition += len(bases) - len(centre)
        degree = len(neighbors[0])
        if any(len(nbrs) != degree for nbrs in neighbors):
            # (S1) fails at index 1 at every base, since the degrees differ.
            rejected_walk += len(centre)
            continue
        # The enumerator's graphs are simple and connected: no validation.
        graph = Graph(n, tuple(tuple(sorted(nbrs)) for nbrs in neighbors))
        for base in centre:
            pg = point_graph(graph, base)
            if not (check_S1(pg).passed and check_S2(pg).passed):
                rejected_walk += 1
                continue
            report = classify(build_table(pg))
            classified.append(
                SearchEntry(
                    n,
                    _edges_from_neighbors(neighbors),
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


def replay_counterexample(entry) -> tuple:
    """Rebuild a search entry's pointed graph and re-derive its verdicts;
    returns (assumptions, s1, s2, classification)."""
    if isinstance(entry, SearchEntry):
        n, edges, base = entry.vertices, entry.edges, entry.base
    else:
        n = entry["vertices"]
        edges = tuple(tuple(e) for e in entry["edges"])
        base = entry["base"]
    pg = build_graph(edges, base, vertex_count=n)
    assumptions = check_assumptions(pg)
    s1 = check_S1(pg)
    s2 = check_S2(pg)
    classification = classify(build_table(pg))
    return assumptions, s1, s2, classification
