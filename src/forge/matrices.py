"""Transition matrices P_k = (p[k,i][j]) and their exact verifications.

Row-vector convention: (xi P)_j = sum_i xi_i P[i][j], so P_k realizes
left multiplication by x_k on coefficient rows, and row i of P_k is the
table row x_k o x_i.  P_k is those rows; no dense matrix is built.  Row
a of P_i P_j mixes the table rows (j, c) by row (i, a), so the four
verdicts read integer rows through convex_combination: a product row is
exact iff each intermediate row stays inside the bound, and only exact
rows, cut to the bound, are compared.  The norm bounds read the rows'
entries and supports and form xi P_k through _image, and
irreducibility reads their supports.
"""

from __future__ import annotations

from fractions import Fraction
from math import sqrt
from typing import NamedTuple

from .errors import (
    IndexOutOfRange,
    InternalError,
    NotFinite,
    RadiusExceeded,
    TruncatedMatrix,
)
from .graphs import PointedGraph, sphere_sizes_at
from .hypergroup import (
    StructureTable,
    _first_difference,
    build_table,
    check_S1,
    check_S2,
    classify,
    convex_combination,
    sphere_sizes,
)
from .walks import jump_distribution

ZERO = Fraction(0)
ONE = Fraction(1)


def _rows(table: StructureTable, k: int) -> list:
    """The rows of P_k: row i is the table row x_k o x_i as (j, p[k,i][j])
    pairs, sorted by j, possibly reaching past the bound on a truncated
    table."""
    if not 0 <= k <= table.bound:
        raise IndexOutOfRange(f"k={k} outside table bound {table.bound}")
    rows = [table.row(k, i).items for i in table.indices]
    if not table.truncated:
        for i, row in enumerate(rows):
            if not _inside(table, row):
                raise InternalError(f"row {i} of P_{k} does not sum to 1")
    return rows


def _inside(table: StructureTable, row) -> bool:
    """Does the row's support stay within the bound (its visible mass is 1)?"""
    return row[-1][0] <= table.bound


def norm_sq(vec) -> Fraction:
    return sum((Fraction(x) * Fraction(x) for x in vec), ZERO)


def _image(rows, xi, cols) -> dict:
    """xi P on the columns cols, for P given by its rows of (j, w) pairs:
    {j: sum_i xi_i P[i][j]}; entries in other columns are dropped."""
    image = dict.fromkeys(cols, ZERO)
    for x, row in zip(xi, rows):
        if x:
            for j, w in row:
                if j in image:
                    image[j] += x * w
    return image


class RegRepReport(NamedTuple):
    """Does P_i P_j = sum_k p[i,j][k] P_k hold entrywise?"""

    passed: bool
    hypothesis_met: bool
    pairs_checked: int
    rows_compared: int
    pairs_skipped: int
    witness: tuple | None


def _product_row(table: StructureTable, pattern, a: int):
    """Row a of P_{i_1} ... P_{i_m} as an integer row: each factor mixes
    the rows (i_t, c) by the row so far.  None (not exact) when a row
    before the last factor leaves the bound, as unseen columns feed it."""
    row = table.row(pattern[0], a)
    for i_t in pattern[1:]:
        den, weights = row
        if weights[-1][0] > table.bound:
            return None
        row = convex_combination(den, [(w, table.row(i_t, c)) for c, w in weights])
    return row


def _combination_row(table: StructureTable, law, a: int):
    """Row a of sum_k (n_k / d) P_k for an integer law (d, ((k, n_k), ...))."""
    den, weights = law
    return convex_combination(den, [(w, table.row(k, a)) for k, w in weights])


def _compare_rows(table: StructureTable, sides):
    """Compare (key, lhs, rhs) row pairs, cut to the bound, where both are
    exact: the count compared and the first difference (*key, b, lhs_b,
    rhs_b), or None."""
    rows, witness = 0, None
    for key, *pair in sides:
        if None in pair:
            continue
        rows += 1
        if witness is None:
            cut = [(d, tuple((k, n) for k, n in row if k <= table.bound)) for d, row in pair]
            diff = _first_difference(*cut)
            witness = None if diff is None else (*key, *diff)
    return rows, witness


def verify_regular_representation(table: StructureTable) -> RegRepReport:
    """Exact check of the regular-representation identity on all pairs
    whose right-hand side stays inside the matrix family."""
    hypothesis = classify(table).verdict == "Hypergroup"
    laws = {(i, j): table.row(i, j) for i in table.indices for j in table.indices}
    inside = [(ij, law) for ij, law in laws.items() if law.entries[-1][0] <= table.bound]
    rows, witness = _compare_rows(
        table,
        (
            ((*ij, a), _product_row(table, ij, a), _combination_row(table, law, a))
            for ij, law in inside
            for a in table.indices
        ),
    )
    skipped = len(laws) - len(inside)
    return RegRepReport(witness is None, hypothesis, len(inside), rows, skipped, witness)


class CommuteReport(NamedTuple):
    """Pairwise commutation of the P_k, cross-referenced with classify()."""

    commutes: bool
    classify_commutative: bool
    classify_associative: bool
    agrees_with_associative: bool
    rows_compared: int
    witness: tuple | None


def commute_check(table: StructureTable) -> CommuteReport:
    """Do the transition matrices mutually commute (within certified rows)?

    The verdict is compared against the associativity verdict of the
    classification on the same bound; the two agree on every fixture.
    """
    rows, witness = _compare_rows(
        table,
        (
            ((i, j, a), _product_row(table, (i, j), a), _product_row(table, (j, i), a))
            for i in table.indices
            for j in table.indices
            if i < j
            for a in table.indices
        ),
    )
    commutes = witness is None
    report = classify(table)
    agrees = commutes == report.associative
    return CommuteReport(commutes, report.commutative, report.associative, agrees, rows, witness)


class NormBound(NamedTuple):
    """Certified ||.||-bounds for P_k over one column-certified block.

    c, d, upper_sq, and lower_sq all refer to the restriction of P_k to
    the columns whose full ambient support fits inside the table, so
    lower <= upper holds unconditionally; on finite tables that block is
    the whole operator and upper also bounds the ambient norm, while on
    windows it is a sup over the certified part only (window_sup).  upper
    and lower are the square roots of upper_sq and lower_sq, for display."""

    k: int
    c: Fraction
    d: int
    upper_sq: Fraction
    upper: float
    lower_sq: Fraction
    lower: float
    best_vector: str
    window_sup: bool
    scope: str
    row_supports: dict
    col_supports: dict


def norm_bounds(table: StructureTable, k: int) -> NormBound:
    """Exact c_k, d_k and Rayleigh lower bounds for P_k on its certified block.

    A column j is certified when its full ambient support [|j-k|, j+k]
    fits inside the table; c_k maximizes column square-sums and d_k row
    support sizes over that block, and the Cauchy-Schwarz bound
    ||xi P_k|_block||^2 <= c_k d_k ||xi||^2 then holds for every vector.
    Lower bounds evaluate that block quotient in exact rationals over
    the test vectors point mass, uniform and geometric ratios 1/2, 1/4,
    3/4; each certified column is ambient-complete, so every quotient is
    also a valid lower certificate for the ambient operator norm.  All
    of it reads the rows of P_k cut to the certified columns.
    """
    rows = _rows(table, k)
    dim = len(rows)
    truncated = table.truncated
    cols = range(table.bound - k + 1 if truncated else dim)
    block = [[(j, w) for j, w in row if j in cols] for row in rows]
    col_supports = {j: [] for j in cols}
    col_sums = dict.fromkeys(cols, ZERO)
    for i, row in enumerate(block):
        for j, w in row:
            col_supports[j].append(i)
            col_sums[j] += w * w
    # An entry breaks its row's support bound iff it breaks its column's:
    # both say |i - j| <= k <= i + j.
    for j, supp in col_supports.items():
        if not all(abs(j - k) <= i <= j + k for i in supp):
            raise InternalError(f"column {j} of P_{k} breaks the support bound")
    col_supports = {j: tuple(supp) for j, supp in col_supports.items()}
    c = max(col_sums.values())
    row_supports = {i: tuple(j for j, _ in row) for i, row in enumerate(block) if row}
    d = max(map(len, row_supports.values()), default=0)
    if not d or c == 0:
        raise RadiusExceeded(f"no certified rows/columns for k={k} at this bound")
    # The test vectors are geometric, xi_n = r^n: the point mass e0 is
    # r = 0 (as 0^0 = 1) and the uniform vector r = 1.
    ratios = {
        "e0": ZERO,
        "uniform": ONE,
        "geometric-1/2": Fraction(1, 2),
        "geometric-1/4": Fraction(1, 4),
        "geometric-3/4": Fraction(3, 4),
    }
    lower_sq = ZERO
    best = ""
    for name, ratio in ratios.items():
        vec = [ratio**n for n in range(dim)]
        quotient = norm_sq(_image(block, vec, cols).values()) / norm_sq(vec)
        if quotient > lower_sq:
            lower_sq, best = quotient, name
    upper_sq = c * d
    if lower_sq > upper_sq:
        raise InternalError(f"lower bound {lower_sq} exceeds upper bound {upper_sq} for P_{k}")
    scope = (
        f"block of columns j <= {table.bound - k} (window-sup)"
        if truncated
        else "full index set"
    )
    upper, lower = sqrt(float(upper_sq)), sqrt(float(lower_sq))
    return NormBound(
        k, c, d, upper_sq, upper, lower_sq, lower, best, truncated, scope,
        row_supports, col_supports,
    )


class UniformBound(NamedTuple):
    """S = sup |S_k(v)| over the certified region; ||P_k|| <= S^2 for all k."""

    s: int
    bound: int
    scope: str


def uniform_norm_bound(pg: PointedGraph) -> UniformBound:
    s = 0
    for v in range(pg.vertex_count):
        if pg.dist[v] <= pg.exact_radius:
            s = max(s, *sphere_sizes_at(pg, v))
    scope = "all vertices and indices"
    if pg.truncated:
        scope = f"vertices and indices with |v| + k <= {int(pg.exact_radius)}"
    return UniformBound(s, s * s, scope)


class StationaryReport(NamedTuple):
    """pi_G = (1, |S_1|, ..., |S_M|)/|G| and its fixed-vector verdicts."""

    pi: tuple
    idempotent: bool
    pi_fixed: bool
    pi_fixed_all_k: bool
    witness_k: int | None

    @property
    def passed(self) -> bool:
        return self.idempotent and self.pi_fixed and self.pi_fixed_all_k


def stationary_check(cg) -> StationaryReport:
    """Distance-process stationary distribution for a finite Cayley graph
    under the uniform step law."""
    from . import cayley as cy

    if not isinstance(cg, cy.CayleyGraph):
        raise NotFinite("stationary distributions need a finite Cayley graph")
    pg = cy.realize_full(cg)
    sizes = sphere_sizes(pg)
    order = pg.vertex_count
    pi = tuple(Fraction(n, order) for n in sizes)
    pi_row = (order, tuple(enumerate(sizes)))  # lowest terms, as |S_0| = 1
    # Every row of the constant matrix 1 pi is pi, so a row of its square
    # and pi times it are one mixture: the rows pi weighted by pi.
    idempotent = pi_fixed = convex_combination(order, [(n, pi_row) for n in sizes]) == pi_row
    table = build_table(pg)
    witness = None
    for k in table.indices:
        terms = [(n, table.row(k, i)) for i, n in enumerate(sizes)]
        if convex_combination(order, terms) != pi_row:
            witness = k
            break
    return StationaryReport(pi, idempotent, pi_fixed, witness is None, witness)


class IrreducibilityReport(NamedTuple):
    irreducible: bool
    classes: tuple


def irreducibility(table: StructureTable, k: int) -> IrreducibilityReport:
    """Communicating classes of P_k = strongly connected components of the
    digraph i -> j for j in the support of row i."""
    rows = _rows(table, k)
    if not all(_inside(table, row) for row in rows):
        raise TruncatedMatrix("irreducibility needs a complete matrix")
    dim = len(rows)
    forward = [{j for j, _ in row} for row in rows]

    def reach(start: int, adj) -> set:
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    backward = [set() for _ in range(dim)]
    for i in range(dim):
        for j in forward[i]:
            backward[j].add(i)
    assigned = [None] * dim
    classes = []
    for i in range(dim):
        if assigned[i] is not None:
            continue
        component = reach(i, forward) & reach(i, backward)
        for v in component:
            assigned[v] = len(classes)
        classes.append(tuple(sorted(component)))
    classes.sort(key=lambda c: c[0])
    return IrreducibilityReport(len(classes) == 1, tuple(classes))


class MaincoroReport(NamedTuple):
    """(P_{i_1} ... P_{i_m})_{i,j} = sum_k J(pat)_k p[k,i][j], rowwise."""

    passed: bool
    hypothesis_met: bool
    pattern: tuple
    rows_compared: int
    witness: tuple | None


def verify_maincoro(pg: PointedGraph, pattern, bound: int | None = None) -> MaincoroReport:
    """Check the product of transition matrices against the jump law on pg's table."""
    table = build_table(pg, bound)
    pat = tuple(pattern)  # jump_distribution checks each entry before pat is read
    hypothesis = (
        check_S1(pg).passed and check_S2(pg).passed and classify(table).verdict == "Hypergroup"
    )
    tilde = jump_distribution(pg, pat)
    if any(k > table.bound for k in tilde.support):
        raise RadiusExceeded(
            f"pattern law reaches index beyond table bound {table.bound}"
        )
    if max(pat) > table.bound:
        raise IndexOutOfRange(f"pattern index {max(pat)} outside table bound {table.bound}")
    rows, witness = _compare_rows(
        table,
        (
            ((a,), _product_row(table, pat, a), _combination_row(table, tilde, a))
            for a in table.indices
        ),
    )
    return MaincoroReport(witness is None, hypothesis, pat, rows, witness)
