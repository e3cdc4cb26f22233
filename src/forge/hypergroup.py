"""Structure constants of a pointed graph and the hypergroup axioms.

For a pointed graph with base spheres S_n = S_n(v0), the product of the
formal elements x_i, x_j is the probability vector

    p[i,j][k] = (1 / |S_i|) * sum over v in S_i of |S_j(v) ∩ S_k| / |S_j(v)|

computed here in exact rational arithmetic.  The family always satisfies
the unit law, the support bound |i-j| <= k <= i+j, hermiticity
(p[i,j][0] != 0 iff i = j), and row-stochasticity; commutativity and
associativity can fail, and classify() decides them within a bound.

Separate checks cover the two sphere-regularity conditions (constant
sphere sizes; constant sphere intersections) and full distance
regularity.  The products, (S1) and (S2) reduce over the integer counts
|S_n(v) ∩ S_k| that graphs.sphere_counts returns, read once per vertex.

A structure table is its rows plus a row source for rows past its
bound; only build_table reads a graph to fill one.

A probability vector is its integer row in lowest terms, and one
kernel, convex_combination, sums every exact law on those rows: the
product rows (mixtures of the rows of the v in S_i), both sides of
associativity, the left-nested product PL and the jump law J in walks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import gcd, lcm
from typing import NamedTuple

from .errors import (
    BadParameter,
    EmptySphere,
    IndexOutOfRange,
    InternalError,
    NotFinite,
    RadiusExceeded,
)
from .graphs import PointedGraph, distance_row, sphere_bitsets, sphere_counts, sphere_sizes_at


class ProbabilityVector(NamedTuple):
    """Finitely supported probability vector over sphere indices, held as
    its integer row: entries n_k / den, sorted by k, in lowest terms, so
    two vectors are equal iff they are equal tuples.  Fractions are formed
    only when the vector is read."""

    den: int
    entries: tuple[tuple[int, int], ...]

    @classmethod
    def point(cls, k: int) -> "ProbabilityVector":
        return cls(1, ((k, 1),))

    @property
    def items(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple((k, Fraction(n, self.den)) for k, n in self.entries)

    def coefficient(self, k: int) -> Fraction:
        for idx, n in self.entries:
            if idx == k:
                return Fraction(n, self.den)
        return Fraction(0)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self.entries)

    def as_dict(self) -> dict[int, Fraction]:
        return dict(self.items)

    def to_jsonable(self) -> dict:
        return {str(k): w for k, w in self.items}


def convex_combination(den: int, terms) -> ProbabilityVector:
    """The mixture sum of (a / den) * row over a list of terms (a, row),
    exactly.

    A row is an integer row (d, ((k, n_k), ...)) with entries n_k / d,
    such as a ProbabilityVector.  The mixture is summed on integers over
    den * lcm(d) and returned as a vector: sorted by k in lowest terms.
    The entries must sum to the denominator: the weights and every row
    are probability vectors.
    """
    scale = lcm(*(d for _, (d, _) in terms))
    acc: dict[int, int] = {}
    for a, (d, entries) in terms:
        a *= scale // d
        for k, n in entries:
            acc[k] = acc.get(k, 0) + a * n
    total = den * scale
    mass = sum(acc.values())
    if mass != total:
        raise InternalError(f"convex combination has mass {mass}/{total}, not 1")
    g = gcd(total, *acc.values())
    return ProbabilityVector(total // g, tuple(sorted((k, n // g) for k, n in acc.items())))


def sphere_sizes(pg: PointedGraph) -> tuple[int, ...]:
    return tuple(len(pg.spheres[n]) for n in sorted(pg.spheres))


def _require_int(n, what: str) -> int:
    """n when it is an int other than a bool; anything else is refused, not converted."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise BadParameter(f"{what} must be an integer, got {n!r}")
    return n


def _validate_index(pg: PointedGraph, n: int, what: str) -> int:
    if _require_int(n, what) < 0:
        raise BadParameter(f"{what} must be >= 0, got {n}")
    if not pg.truncated and n not in pg.spheres:
        top = max(pg.spheres)
        raise IndexOutOfRange(f"{what}={n} outside the index set 0..{top}")
    return n


def product(pg: PointedGraph, i: int, j: int) -> ProbabilityVector:
    """The full product row x_i o x_j as a probability vector."""
    _validate_index(pg, i, "i")
    _validate_index(pg, j, "j")
    if pg.truncated and i + j > pg.exact_radius:
        raise RadiusExceeded(f"x_{i} o x_{j} needs i+j <= exact_radius={pg.exact_radius}")
    return _product_rows(pg, i, (j,))[0]


def _product_rows(pg: PointedGraph, i: int, js) -> list[ProbabilityVector]:
    """The rows x_i o x_j for each j in js, reading each v in S_i once.

    x_i o x_j is the uniform mixture over v in S_i of the integer rows
    (|S_j(v)|, |S_j(v) ∩ S_k| by k), summed by convex_combination.
    """
    base_sphere = pg.spheres.get(i, ())
    if not base_sphere:
        raise EmptySphere(f"S_{i}(base) is empty")
    profiles = [sphere_counts(pg, v, max(js)) for v in base_sphere]
    rows = []
    for j in js:
        terms = []
        for v, profile in zip(base_sphere, profiles):
            size = sum(profile[j].values())
            if not size:
                raise EmptySphere(f"S_{j}({v}) is empty; the product is undefined")
            terms.append((1, (size, profile[j].items())))
        row = convex_combination(len(base_sphere), terms)
        support = row.support
        lo, hi = abs(i - j), i + j
        if not lo <= support[0] <= support[-1] <= hi:
            raise InternalError(f"x_{i} o x_{j} has support {tuple(support)} outside [{lo}, {hi}]")
        if (support[0] == 0) != (i == j):
            raise InternalError(f"x_{i} o x_{j} breaks hermiticity at index 0")
        rows.append(row)
    return rows


class StructureTable:
    """The products x_i o x_j for i, j up to a bound, plus a row source:
    extend(i, j) certifies a row past the bound or raises.  truncated:
    rows may lose mass past the bound (a window, or a finite graph's
    table cut below its top index)."""

    def __init__(self, name: str, bound: int, rows: dict, truncated: bool, extend):
        self.name = name
        self.bound = bound
        self.rows = rows
        self.truncated = truncated
        self.extend = extend

    def row(self, i: int, j: int) -> ProbabilityVector:
        if i > self.bound or j > self.bound or i < 0 or j < 0:
            raise IndexOutOfRange(f"row ({i},{j}) outside bound {self.bound}")
        return self.rows[(i, j)]

    def entry(self, i: int, j: int, k: int) -> Fraction:
        return self.row(i, j).coefficient(k)

    def row_extended(self, i: int, j: int) -> ProbabilityVector:
        """Row lookup allowed past the bound, certified per entry."""
        if (i, j) not in self.rows:
            self.rows[i, j] = self.extend(i, j)
        return self.rows[i, j]

    @property
    def indices(self) -> range:
        return range(self.bound + 1)

    def to_jsonable(self) -> dict:
        return {
            "bound": self.bound,
            "graph": self.name,
            "rows": {f"{i},{j}": self.rows[(i, j)] for (i, j) in sorted(self.rows)},
        }


def build_table(pg: PointedGraph, bound: int | None = None) -> StructureTable:
    """Compute all products with i, j <= bound; rows past it come from pg.

    Finite graphs default to the full index set; truncated windows
    require 2 * bound <= exact_radius so every row is ambient-exact.
    """
    if bound is None:
        if pg.truncated:
            bound = int(pg.exact_radius) // 2
        else:
            bound = max(pg.spheres)
    if bound < 0:
        raise BadParameter("bound must be >= 0")
    if pg.truncated:
        if 2 * bound > pg.exact_radius:
            raise RadiusExceeded(
                f"bound {bound} needs 2*bound <= exact_radius={pg.exact_radius}"
            )
    elif bound > max(pg.spheres):
        raise IndexOutOfRange(f"bound {bound} exceeds the top index {max(pg.spheres)}")
    rows = {}
    indices = range(bound + 1)
    for i in indices:
        rows.update(zip([(i, j) for j in indices], _product_rows(pg, i, indices)))
    for n in range(bound + 1):
        unit = ProbabilityVector.point(n)
        if rows[(0, n)] != unit or rows[(n, 0)] != unit:
            raise InternalError(f"x_0 is not the unit on row {n}")
    truncated = pg.truncated or bound < max(pg.spheres)
    return StructureTable(pg.name, bound, rows, truncated, partial(product, pg))


class Violation(NamedTuple):
    kind: str
    indices: tuple[int, ...]
    lhs: Fraction | None
    rhs: Fraction | None


class ClassificationReport(NamedTuple):
    """Hypergroup vs pre-hypergroup verdict within a bound.

    skipped_triples counts associativity triples a truncated window could
    not certify; associative refers to the certified scope only.
    """

    verdict: str
    commutative: bool
    associative: bool
    bound: int
    witness: Violation | None
    skipped_triples: int = 0


def _first_difference(left, right):
    """(k, lhs, rhs) at the least index where two integer rows differ,
    with both entries as Fractions; None when they are equal."""
    if left == right:
        return None
    (dl, nl), (dr, nr) = left, right
    lhs, rhs = dict(nl), dict(nr)
    for k in sorted(lhs.keys() | rhs.keys()):
        a, b = lhs.get(k, 0), rhs.get(k, 0)
        if a * dr != b * dl:
            return k, Fraction(a, dl), Fraction(b, dr)
    return None


def _associativity_sides(table: StructureTable, h: int, i: int, j: int):
    """Both sides of (x_h o x_i) o x_j = x_h o (x_i o x_j).

    The left side is formed first, and each side reads its rows in the
    order of its outer row's support, so a side past a window's exact
    radius raises RadiusExceeded after the same rows were computed.
    """
    row = table.row_extended
    den, weights = row(h, i)
    left = convex_combination(den, [(a, row(l, j)) for l, a in weights])
    den, weights = row(i, j)
    right = convex_combination(den, [(a, row(h, l)) for l, a in weights])
    return left, right


def associativity_defect(table: StructureTable, h: int, i: int, j: int):
    """Both sides of (x_h o x_i) o x_j = x_h o (x_i o x_j)."""
    table.row(h, i)  # both outer rows lie inside the bound
    table.row(i, j)
    return _associativity_sides(table, h, i, j)


def classify(table: StructureTable) -> ClassificationReport:
    """Decide commutativity and associativity for indices up to the bound.

    Scans are lexicographic and the first violation of the first failing
    axiom (commutativity scanned first) becomes the witness.  On windows,
    associativity triples whose sums leave the exact region are skipped
    and counted instead of silently passing.  Both sides of every triple
    are compared as integer rows; only a witness forms Fractions.
    """
    witness = None
    commutative = True
    for i in table.indices:
        for j in table.indices:
            if i >= j:
                continue
            diff = _first_difference(table.row(i, j), table.row(j, i))
            if diff is not None:
                commutative = False
                witness = Violation("commutativity", (i, j, diff[0]), diff[1], diff[2])
                break
        if not commutative:
            break
    associative = True
    skipped = 0
    assoc_witness = None
    for h in table.indices:
        for i in table.indices:
            for j in table.indices:
                try:
                    left, right = _associativity_sides(table, h, i, j)
                except RadiusExceeded:
                    skipped += 1
                    continue
                diff = _first_difference(left, right)
                if diff is not None:
                    associative = False
                    assoc_witness = Violation(
                        "associativity", (h, i, j, diff[0]), diff[1], diff[2]
                    )
                    break
            if not associative:
                break
        if not associative:
            break
    if witness is None:
        witness = assoc_witness
    verdict = "Hypergroup" if commutative and associative else "PreHypergroupOnly"
    return ClassificationReport(verdict, commutative, associative, table.bound, witness, skipped)


class ConditionReport(NamedTuple):
    """Outcome of one sphere-regularity condition over a stated scope."""

    condition: str
    passed: bool
    witness: tuple | None
    scope: str
    checked: int


def check_S1(pg: PointedGraph) -> ConditionReport:
    """Does |S_i(v)| depend only on i?  Windows check every pair with
    |v| + i inside the exact radius."""
    checked = 0
    if pg.truncated:
        radius = int(pg.exact_radius)
        scope = f"i >= 1, vertices with |v| + i <= {radius}"
        indices = range(1, radius + 1)
    else:
        scope = "all vertices, every index"
        indices = sorted(pg.spheres)
    sizes: dict[int, tuple[int, ...]] = {}
    for i in indices:
        expected = len(pg.spheres.get(i, ()))
        for v in range(pg.vertex_count):
            if pg.dist[v] + i > pg.exact_radius:
                continue
            if v not in sizes:
                sizes[v] = sphere_sizes_at(pg, v)
            size = sizes[v][i] if i < len(sizes[v]) else 0
            checked += 1
            if size != expected:
                witness = (i, pg.label(v), size, expected)
                return ConditionReport("S1", False, witness, scope, checked)
    return ConditionReport("S1", True, None, scope, checked)


def check_S2(pg: PointedGraph) -> ConditionReport:
    """Is |S_i(v) ∩ S_j(base)| constant over v in S_k(base)?  Each v compares
    its whole count row for S_i(v) with the first vertex's; checked counts
    the lookups of a scan by k, i, j, then v, up to the first mismatch."""
    checked, top = 0, max(pg.spheres)
    if pg.truncated:
        radius = int(pg.exact_radius)
        scope = f"triples with k + i <= {radius}, j <= k + i"
        k_range = [n for n in sorted(pg.spheres) if n <= radius]
    else:
        scope = "all index triples and vertices"
        k_range = sorted(pg.spheres)
    for k in k_range:
        sphere = pg.spheres[k]
        i_top = radius - k if pg.truncated else top
        rows = [sphere_counts(pg, v, i_top) for v in sphere]
        for i in range(i_top + 1):
            ref = rows[0][i]
            # (j, position) of each differing vertex's least differing j.  The
            # scan runs j from 0, then v; no count has j > k + i.
            firsts = [
                (min(j for j in row[i].keys() | ref.keys() if row[i].get(j, 0) != ref.get(j, 0)), at)
                for at, row in enumerate(rows)
                if row[i] != ref
            ]
            if not firsts:
                checked += ((k + i if pg.truncated else top) + 1) * len(sphere)
                continue
            j, at = min(firsts)
            checked += j * len(sphere) + at + 1
            first, v = pg.label(sphere[0]), pg.label(sphere[at])
            witness = (i, j, k, first, ref.get(j, 0), v, rows[at][i].get(j, 0))
            return ConditionReport("S2", False, witness, scope, checked)
    return ConditionReport("S2", True, None, scope, checked)


class DRReport(NamedTuple):
    """Distance regularity verdict with the intersection numbers on success,
    keyed (i, j, k) in increasing order."""

    passed: bool
    diameter: int
    intersection_numbers: dict | None
    witness: tuple | None


def _pair_counts(row_v, row_w) -> dict[tuple[int, int], int]:
    """|{x : d(v,x)=i, d(x,w)=j}| keyed by (i, j), nonzero counts only, from
    the distance rows of v and w."""
    counts: dict[tuple[int, int], int] = {}
    for key in zip(row_v, row_w):
        counts[key] = counts.get(key, 0) + 1
    return counts


def check_distance_regular(pg: PointedGraph) -> DRReport:
    """Are the counts |{x : d(v,x)=i, d(x,w)=j}| functions of d(v,w) alone?

    A connected graph is distance-regular iff every pair (v, w) at distance
    k has the c = |S_{k-1}(v) ∩ S_1(w)| and b = |S_{k+1}(v) ∩ S_1(w)| of the
    first such pair in row-major order (Brouwer, Cohen and Neumaier 1989,
    §4.1): two popcounts per pair on the bitset spheres that the sphere
    counts share (graphs.sphere_bitsets), with the row of distances of v
    read from them when the scan reaches v.  The witness is the first pair
    whose whole profile differs, at or before the first (c, b) failure.
    Finite graphs only: a window is not the ambient graph.
    """
    if pg.truncated:
        raise NotFinite("distance regularity is only decided on finite graphs")
    n, shells = pg.vertex_count, sphere_bitsets(pg)
    diameter = len(shells) - 1
    # levels[k + 1][v] = S_k(v), between the empty S_{-1} and S_{diameter+1}.
    levels = [[0] * n, *shells, [0] * n]
    masks, neighbours = list(zip(*levels)), levels[2]

    def row(v):
        return distance_row(masks[v][1:-1], n)

    # The first pair at distance k: the first v with a vertex at distance k,
    # and the least such vertex.
    first = [
        next((v, (sphere & -sphere).bit_length() - 1) for v, sphere in enumerate(level) if sphere)
        for level in shells
    ]
    rows = {u: row(u) for u in {u for pair in first for u in pair}}
    profiles = [_pair_counts(rows[v], rows[w]) for v, w in first]
    c = [profile.get((k - 1, 1), 0) for k, profile in enumerate(profiles)]
    b = [profile.get((k + 1, 1), 0) for k, profile in enumerate(profiles)]
    for bad_row, below in enumerate(masks):
        above = below[2:]
        for k, nb in zip(rows.get(bad_row) or row(bad_row), neighbours):
            if (below[k] & nb).bit_count() != c[k] or (above[k] & nb).bit_count() != b[k]:
                break
        else:
            continue
        break
    else:
        numbers = sorted(
            ((i, j, k), count)
            for k, profile in enumerate(profiles)
            for (i, j), count in profile.items()
        )
        return DRReport(True, diameter, dict(numbers), None)
    # Matching every reference count (they sum to n) leaves no other key.
    v, w = next(
        (v, w)
        for v in range(bad_row + 1)
        for w, k in enumerate(row(v))
        if any(
            (masks[v][i + 1] & masks[w][j + 1]).bit_count() != count
            for (i, j), count in profiles[k].items()
        )
    )
    k = row(v)[w]
    reference, counts = profiles[k], _pair_counts(row(v), row(w))
    diff = set(counts) ^ set(reference)
    i, j = min(diff or {key for key in counts if counts[key] != reference[key]})
    labels = [pg.label(u) for u in (*first[k], v, w)]
    witness = (k, *labels, i, j, reference.get((i, j), 0), counts.get((i, j), 0))
    return DRReport(False, diameter, None, witness)

