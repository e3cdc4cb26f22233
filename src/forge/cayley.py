"""Cayley graphs over a few concrete group families.

Supported kinds: integer vector groups Z^a x Z/m_1 x ... (family
"vector", one modulus per coordinate, 0 marking a free coordinate),
permutation groups given by generator files (family "perm"), and free
groups on the standard symmetric basis (family "free").  parse_group
reads every group spec, head:params[:r=<R>], once: the CLI's group
commands take its group, and the fixture catalog realizes it.

realize_window produces a PointedGraph for the ball of a chosen radius
around the identity and an integer table of its products by generators:
its per-family step is the one group product, and the table is the
realized group.  graphs reads its spheres as it reads any other graph's.
The table serves where the group product is the object: by the
translation identity d(u, v) = |u^-1 v|, its sphere oracle translates
the base ball to any vertex, for check_S3, which cross-validates it
against raw BFS, and for walks.joint_distance_law's multiplication
table; walks' brute force and Monte Carlo move along its words.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import NamedTuple

from .errors import (
    WINDOW_CAP,
    BadParameter,
    ContainsIdentity,
    InternalError,
    KindMismatch,
    NotFinite,
    NotGenerating,
    NotSymmetric,
    WindowOverflow,
)
from .graphs import INFINITE, Graph, PointedGraph, _expect, _int_param, _int_token, _split_params, bfs_ball, bfs_from, point_graph


class GroupKind(NamedTuple):
    """Identity of a group: family plus its shape parameters."""

    family: str
    mods: tuple[int, ...] = ()
    degree: int = 0
    rank: int = 0

    def describe(self) -> str:
        if self.family == "vector":
            parts = ["Z" if m == 0 else f"Z/{m}" for m in self.mods]
            return " x ".join(parts)
        if self.family == "perm":
            return f"perm(degree={self.degree})"
        return f"free(rank={self.rank})"


class GroupElement(NamedTuple):
    kind: GroupKind
    data: tuple

    def sort_key(self):
        if self.kind.family == "free":
            return (len(self.data), self.data)
        return self.data


def identity(kind: GroupKind) -> GroupElement:
    if kind.family == "vector":
        return GroupElement(kind, (0,) * len(kind.mods))
    if kind.family == "perm":
        return GroupElement(kind, tuple(range(kind.degree)))
    return GroupElement(kind, ())


def _norm_vector(kind: GroupKind, coords) -> tuple[int, ...]:
    return tuple(
        c % m if m else c for c, m in zip(coords, kind.mods)
    )


def inverse(g: GroupElement) -> GroupElement:
    kind = g.kind
    if kind.family == "vector":
        return GroupElement(kind, _norm_vector(kind, (-c for c in g.data)))
    if kind.family == "perm":
        inv = [0] * kind.degree
        for x, y in enumerate(g.data):
            inv[y] = x
        return GroupElement(kind, tuple(inv))
    return GroupElement(kind, tuple(-x for x in reversed(g.data)))


def element_str(g: GroupElement) -> str:
    kind = g.kind
    if kind.family == "vector":
        return ",".join(str(c) for c in g.data)
    if kind.family == "perm":
        return _cycle_str(g.data)
    if not g.data:
        return "e"
    return _free_sep(kind).join([_free_letter(kind, x) for x in g.data])


def _free_letter(kind: GroupKind, x: int) -> str:
    """The letter of free generator x: a..z up to rank 26, else g<i>; inverses upper-case."""
    i = abs(x)
    if kind.rank <= 26:
        letter = chr(ord("a") + i - 1)
        return letter.upper() if x < 0 else letter
    return f"G{i}" if x < 0 else f"g{i}"


def _free_sep(kind: GroupKind) -> str:
    """What joins the letters of a free word: nothing, or '.' between g<i> letters."""
    return "" if kind.rank <= 26 else "."


def _cycle_str(mapping: tuple[int, ...]) -> str:
    seen = [False] * len(mapping)
    cycles = []
    for start in range(len(mapping)):
        if seen[start] or mapping[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        x = mapping[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = mapping[x]
        cycles.append("(" + " ".join(str(v) for v in cyc) + ")")
    return "".join(cycles) if cycles else "e"


class CayleyGraph:
    """A group kind with a validated symmetric generating set."""

    def __init__(self, kind: GroupKind, generators: tuple[GroupElement, ...], spec_name: str, finite: bool):
        self.kind, self.generators, self.spec_name, self.finite = kind, generators, spec_name, finite


def _radius(spec, keyed):
    """The window radius r=<R>, or None when the spec gives none; any
    other keyword parameter is refused."""
    _expect(spec, [k for k in keyed if k != "r"], 0, "no keyword parameters other than r=<R>")
    return _int_param(spec, keyed["r"], 0, "radius r") if "r" in keyed else None


def _standard(kind: GroupKind, name: str) -> CayleyGraph:
    return build_cayley(kind, default_generators(kind), spec_name=name)


# Each family reads (spec, positional, keyed) and returns (group, radius).
# cycle and prism are named by their zmod group.  lattice and free are
# named as typed, or, once the radius is dropped, by their integer
# parameter.


def _cycle(spec, positional, keyed):
    (n,) = _expect(spec, positional, 1, "one parameter: cycle:<n>")
    n = _int_param(spec, n, 3, "n")
    _expect(spec, list(keyed), 0, "no keyword parameters")
    return _standard(GroupKind("vector", mods=(n,)), f"zmod:{n}"), None


def _prism(spec, positional, keyed):
    (n,) = _expect(spec, positional, 1, "one parameter: prism:<n>")
    n = _int_param(spec, n, 3, "n")
    _expect(spec, list(keyed), 0, "no keyword parameters")
    return _standard(GroupKind("vector", mods=(n, 2)), f"zmod:{n},2"), None


def _lattice(spec, positional, keyed):
    (d,) = _expect(spec, positional, 1, "lattice:<d>:r=<R>")
    d = _int_param(spec, d, 1, "dimension")
    radius = _radius(spec, keyed)
    name = f"lattice:{d}" if keyed else spec
    return _standard(GroupKind("vector", mods=(0,) * d), name), radius


def _free(spec, positional, keyed):
    (n,) = _expect(spec, positional, 1, "free:<n>:r=<R>")
    n = _int_param(spec, n, 1, "rank")
    radius = _radius(spec, keyed)
    name = f"free:{n}" if keyed else spec
    return _standard(GroupKind("free", rank=n), name), radius


def _ladder(spec, positional, keyed):
    _expect(spec, positional, 0, "ladder:r=<R>")
    radius = _radius(spec, keyed)
    return _standard(GroupKind("vector", mods=(0, 2)), "ladder"), radius


def _zmod(spec, positional, keyed):
    (mods,) = _expect(spec, positional, 1, "zmod:<m1>[,<m2>...][:r=<R>]")
    radius = _radius(spec, keyed)
    try:
        moduli = tuple(_int_token(m) for m in mods.split(","))
    except ValueError as exc:
        raise BadParameter(f"bad zmod spec {spec!r}") from exc
    if min(moduli) < 2:
        raise BadParameter(f"zmod moduli must all be >= 2: {spec!r}")
    return _standard(GroupKind("vector", mods=moduli), f"zmod:{mods}"), radius


def _perm(spec, positional, keyed):
    if not positional:
        raise BadParameter(f"{spec!r}: perm:<file>[:r=<R>]")
    radius = _radius(spec, keyed)
    path = ":".join(positional)
    if not path:
        raise BadParameter("perm spec needs a generator file: perm:<path>")
    gens, degree = parse_perm_file(path)
    kind = GroupKind("perm", degree=degree)
    elements = tuple(GroupElement(kind, g) for g in gens)
    return build_cayley(kind, elements, spec_name=f"perm:{path}"), radius


GROUP_FAMILIES = {
    "cycle": _cycle,
    "prism": _prism,
    "lattice": _lattice,
    "free": _free,
    "ladder": _ladder,
    "zmod": _zmod,
    "perm": _perm,
}


def parse_group(spec: str) -> tuple[CayleyGraph, int | None]:
    """A group spec's Cayley graph with its default generators, and its
    window radius, None when the spec gives no r=<R>.

    Forms, each head:params[:r=<R>]: cycle:<n> and prism:<n> (Z/n and
    Z/n x Z/2), lattice:<d> (Z^d), free:<n>, ladder (Z x Z/2),
    zmod:<m1>[,<m2>...] (finite vector groups), perm:<file> (generators
    in cycle notation, one per line).  Any other keyword parameter is
    refused; cycle and prism take none.
    """
    spec = spec.strip()
    head, *params = spec.split(":")
    family = GROUP_FAMILIES.get(head)
    if family is None:
        raise BadParameter(f"unknown group spec {spec!r}")
    return family(spec, *_split_params(params))


def parse_group_spec(spec: str) -> CayleyGraph:
    """The Cayley graph of a group spec (see parse_group); its radius, if
    any, is not realized."""
    return parse_group(spec)[0]


def default_generators(kind: GroupKind) -> tuple[GroupElement, ...]:
    """The standard symmetric generating set: +-e_i per coordinate or
    a_i^{+-1} per free rank."""
    gens = []
    if kind.family == "vector":
        n = len(kind.mods)
        for i in range(n):
            e = [0] * n
            e[i] = 1
            gens.append(GroupElement(kind, _norm_vector(kind, e)))
            e[i] = -1
            gens.append(GroupElement(kind, _norm_vector(kind, e)))
    elif kind.family == "free":
        for i in range(1, kind.rank + 1):
            gens.append(GroupElement(kind, (i,)))
            gens.append(GroupElement(kind, (-i,)))
    else:
        raise BadParameter("permutation groups take their generators from a file")
    seen = []
    for g in gens:
        if g not in seen:
            seen.append(g)
    return tuple(seen)


def parse_perm_file(path: str) -> tuple[list[tuple[int, ...]], int]:
    """Read one permutation per line in cycle notation, e.g. (0 1 2)(3 4)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise BadParameter(f"cannot read permutation file {path}: {exc}") from exc
    cycle_lists = []
    max_point = -1
    for ln, raw in enumerate(lines, 1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if not re.fullmatch(r"(\(\s*\d+(\s+\d+)*\s*\))+", text, re.ASCII):
            raise BadParameter(f"{path}:{ln}: not cycle notation: {text!r}")
        cycles = [
            [_int_token(tok) for tok in body.split()]
            for body in re.findall(r"\(([^()]*)\)", text)
        ]
        for cyc in cycles:
            if len(set(cyc)) != len(cyc):
                raise BadParameter(f"{path}:{ln}: repeated point inside a cycle")
            max_point = max(max_point, *cyc)
        cycle_lists.append(cycles)
    if not cycle_lists:
        raise BadParameter(f"{path}: no generators found")
    degree = max_point + 1
    perms = []
    for cycles in cycle_lists:
        mapping = list(range(degree))
        moved = set()
        for cyc in cycles:
            if moved & set(cyc):
                raise BadParameter(f"{path}: cycles within one line must be disjoint")
            moved |= set(cyc)
            for i, x in enumerate(cyc):
                mapping[x] = cyc[(i + 1) % len(cyc)]
        perms.append(tuple(mapping))
    return perms, degree


def _spans_full_lattice(rows, n: int) -> bool:
    """True iff the integer row span equals Z^n (all HNF pivots are 1)."""
    mat = [list(r) for r in rows if any(r)]
    pivots = 0
    for col in range(n):
        while True:
            nz = [r for r in range(pivots, len(mat)) if mat[r][col] != 0]
            if not nz:
                return False
            r_min = min(nz, key=lambda r: abs(mat[r][col]))
            mat[pivots], mat[r_min] = mat[r_min], mat[pivots]
            clean = True
            for r in range(pivots + 1, len(mat)):
                if mat[r][col] != 0:
                    q = mat[r][col] // mat[pivots][col]
                    mat[r] = [a - q * b for a, b in zip(mat[r], mat[pivots])]
                    if mat[r][col] != 0:
                        clean = False
            if clean:
                break
        if abs(mat[pivots][col]) != 1:
            return False
        pivots += 1
    return True


def build_cayley(
    kind: GroupKind, generators, spec_name: str | None = None
) -> CayleyGraph:
    """Validate a generating set: symmetric, identity-free, generating."""
    gens = tuple(generators)
    if not gens:
        raise BadParameter("empty generator set")
    for g in gens:
        if not isinstance(g, GroupElement) or g.kind != kind:
            raise KindMismatch("generator kind does not match the group kind")
    ident = identity(kind)
    if ident in gens:
        raise ContainsIdentity("generator set contains the identity")
    if len(set(gens)) != len(gens):
        raise BadParameter("generator set has repeated elements")
    gen_set = set(gens)
    for g in gens:
        if inverse(g) not in gen_set:
            raise NotSymmetric(f"generator {element_str(g)} has no inverse in the set")
    if kind.family == "vector":
        n = len(kind.mods)
        rows = [list(g.data) for g in gens]
        for i, m in enumerate(kind.mods):
            if m:
                rel = [0] * n
                rel[i] = m
                rows.append(rel)
        if not _spans_full_lattice(rows, n):
            raise NotGenerating("generators do not span the group")
        finite = all(m > 0 for m in kind.mods)
    elif kind.family == "free":
        basis = set()
        for g in gens:
            if len(g.data) != 1:
                raise BadParameter(
                    "free-group generator sets other than the standard basis are not supported"
                )
            basis.add(abs(g.data[0]))
        if basis != set(range(1, kind.rank + 1)):
            raise NotGenerating("free-group generators must cover every basis letter")
        finite = False
    elif kind.family == "perm":
        finite = True
    else:
        raise BadParameter(f"unknown group family {kind.family!r}")
    gens = tuple(sorted(gens, key=GroupElement.sort_key))
    name = spec_name if spec_name is not None else kind.describe()
    return CayleyGraph(kind, gens, name, finite)


class WindowData:
    """Cayley bookkeeping attached to a realized window.

    Vertex v is the group element g_v.  right[v][s] is the index of
    g_v * generators[s], or -1 outside the window.  via[v] = (u, s), the
    pair whose product first reached v in the BFS, so following via from
    v back to 0 spells a geodesic word (word).  Vertices are in BFS
    order, dist[v] = |g_v|: each base ball B_n is a prefix of them.
    sphere_oracle translates B_n to any vertex, for check_S3 and the
    joint law; no sphere query of the window's PointedGraph reads it.
    """

    def __init__(self, cg: CayleyGraph, saturated: bool, radius: int, right: list, via: list, dist: tuple[int, ...]):
        self.cg, self.saturated, self.radius, self.right, self.via, self.dist = cg, saturated, radius, right, via, dist

    def word(self, v: int) -> list[int]:
        """g_v's geodesic word as generator indices, read back along via."""
        letters = []
        while v:
            v, s = self.via[v]
            letters.append(s)
        letters.reverse()
        return letters

    def sphere_oracle(self, v: int, top: int) -> list[int]:
        """The index of g_v * g for each g in B_top, in order."""
        right = self.right
        ball = [v]
        for u, s in self.via[1 : bisect_right(self.dist, top)]:
            ball.append(right[ball[u]][s])
        if -1 in ball:
            raise InternalError(f"B_{top} translated to vertex {v} leaves the window")
        return ball


def realize_window(cg: CayleyGraph, radius: int, cap: int = WINDOW_CAP) -> PointedGraph:
    """The ball of the given radius around the identity as a pointed graph.

    If BFS exhausts the group before the radius, the window is the whole
    Cayley graph and is exact everywhere; otherwise it is truncated with
    exact_radius = radius, since a geodesic from v stays in the window
    while its length is at most radius - |v|.
    """
    if radius < 0:
        raise BadParameter("radius must be >= 0")
    kind, mods = cg.kind, cg.kind.mods
    # The product of element data g by a generator's data s, per family.
    step = {
        "vector": lambda g, s: tuple([(a + b) % m if m else a + b for a, b, m in zip(g, s, mods)]),
        "perm": lambda g, s: tuple(map(g.__getitem__, s)),
        # A free generator is one letter (build_cayley): cancel it or append it.
        "free": lambda g, s: g[:-1] if g and g[-1] == -s[0] else g + s,
    }[kind.family]
    gens = [s.data for s in cg.generators]
    datas = [identity(kind).data]
    index = {datas[0]: 0}
    dist = [0]
    via = [None]
    right = []
    # Each pass multiplies the newest layer by every generator once: while
    # the radius allows, new products form the next layer, and the rows of
    # right are filled after that.
    while len(right) < len(datas):
        depth = dist[-1] + 1
        frontier = {}
        products = []
        for u in range(len(right), len(datas)):
            row = [step(datas[u], s) for s in gens]
            if depth <= radius:
                for s, h in enumerate(row):
                    if h not in index:
                        frontier.setdefault(h, (u, s))
            products.append(row)
        if frontier:
            if len(datas) + len(frontier) > cap:
                raise WindowOverflow(f"window would exceed {cap} vertices at radius {depth}")
            # The words of one layer have one length, so data order is
            # GroupElement.sort_key's order in every family.
            for h in sorted(frontier):
                index[h] = len(datas)
                datas.append(h)
                via.append(frontier[h])
                dist.append(depth)
        rows = [tuple([index.get(h, -1) for h in row]) for row in products]
        right.extend(rows)
    saturated = not any(-1 in row for row in rows)
    if kind.family == "free":
        # via spells a geodesic word, so each label extends its parent's.
        letters = [_free_letter(kind, s[0]) for s in gens]
        sep = _free_sep(kind)
        labels = ["e"]
        for u, s in via[1:]:
            labels.append(labels[u] + sep + letters[s] if u else letters[s])
    else:
        labels = [element_str(GroupElement(kind, h)) for h in datas]
    adjacency = tuple(tuple(sorted([v for v in row if v >= 0])) for row in right)
    dist = tuple(dist)
    pg = point_graph(
        Graph(len(datas), adjacency, tuple(labels)),
        0,
        dist,
        name=f"window({cg.spec_name},r={radius})",
        exact_radius=INFINITE if saturated else radius,
    )
    pg.cayley = WindowData(cg, saturated, radius, right, via, dist)
    pg._sphere_oracle = pg.cayley.sphere_oracle
    return pg


def realize_full(cg: CayleyGraph, cap: int = WINDOW_CAP) -> PointedGraph:
    """Realize the complete Cayley graph of a finite group."""
    if not cg.finite:
        raise NotFinite(f"{cg.spec_name} is infinite; give a window radius instead")
    pg = realize_window(cg, cap, cap)
    if not pg.cayley.saturated:
        raise WindowOverflow(f"{cg.spec_name} exceeds {cap} vertices")
    pg.name = cg.spec_name
    return pg


class S3Report(NamedTuple):
    """Outcome of checking d(v, vw) = |w| on a window."""

    passed: bool
    checked: int
    witness: tuple | None
    scope: str


def check_S3(cg: CayleyGraph, radius: int, sample_cap: int = 200_000) -> S3Report:
    """Cross-validate the sphere oracle's vw against raw window BFS.

    Covers every pair (v, w) with |v| + |w| <= radius, where geodesics
    cannot leave the window; beyond sample_cap pairs a deterministic
    stride sample is used and the scope says so.
    """
    pg = realize_window(cg, radius)
    dist = pg.dist
    pairs = [
        (v, w)
        for v in range(pg.vertex_count)
        for w in range(1, bisect_right(dist, radius - dist[v]))
    ]
    stride = max(1, -(-len(pairs) // sample_cap))
    scope = f"pairs with |v|+|w| <= {radius}"
    if stride > 1:
        scope += f", stride-{stride} sample"
    checked = 0
    ball_of = None
    for v, w in pairs[::stride]:
        if ball_of != v:
            depth = radius - dist[v]
            ball_of, ball = v, pg._sphere_oracle(v, depth)
            cut = bfs_ball(pg.graph, v, depth)  # not cached: read once
        actual = cut.get(ball[w], -1)
        checked += 1
        if actual != dist[w]:
            # The cut ball has no d(v, vw) > depth: report the true distance.
            actual = bfs_from(pg.graph, v)[ball[w]]
            witness = (pg.label(v), pg.label(w), dist[w], actual)
            return S3Report(False, checked, witness, scope)
    return S3Report(True, checked, None, scope)

