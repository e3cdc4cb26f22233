"""m-fold products and the distance process of the sphere walk.

Three routes to the law of |v_1 ... v_m| are computed and cross-checked:
the left-nested algebra product PL over a structure table, the exact
jump law J over vertex distributions, and (on Cayley graphs) the literal
conditional probability by tuple enumeration or Monte-Carlo sampling,
both walking geodesic words through the window's integer table.  PL, J
and the enumeration sum on integer rows by hypergroup.convex_combination.
The joint law of the distance process Z_n = |X_n| under a per-element
step distribution alpha supports Markov and i.i.d. checks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product as iter_product
from math import lcm, sqrt
from typing import NamedTuple

from . import cayley as cy
from .errors import (
    ENUMERATION_CAP,
    PATTERN_CAP,
    BadParameter,
    EmptySphere,
    EnumerationCapExceeded,
    IndexOutOfRange,
    InternalError,
    NotCayley,
    NotFinite,
    PatternCapExceeded,
    RadiusExceeded,
    ZeroProbabilityCondition,
)
from .graphs import INFINITE, PointedGraph, sphere_at
from .hypergroup import (
    ProbabilityVector,
    StructureTable,
    _first_difference,
    build_table,
    check_S2,
    convex_combination,
    sphere_sizes,
)

PATTERN_LENGTH_CAP = 64
MC_BLOCK = 1 << 16  # Monte-Carlo trials walked at once
Z99 = 2.5758293035489004


def validate_pattern(pattern, top_index: float) -> tuple[int, ...]:
    """Normalize a jump pattern and bound-check each index."""
    pat = tuple(int(i) for i in pattern)
    if not pat:
        raise BadParameter("pattern must have at least one index")
    if len(pat) > PATTERN_LENGTH_CAP:
        raise BadParameter(f"pattern longer than the cap {PATTERN_LENGTH_CAP}")
    for i in pat:
        if i < 0 or i > top_index:
            raise IndexOutOfRange(f"pattern index {i} outside 0..{top_index}")
    return pat


def left_nested_product(
    table: StructureTable, pattern, extended: bool = False
) -> ProbabilityVector:
    """PL(i_1,...,i_m): fold the table product from the left.

    Intermediate supports must stay within the table bound; the final
    support may exceed it.  With extended=True, rows past the bound are
    read from the table's row source as long as it can certify them,
    which the permutation-invariance comparison needs.
    """
    pat = validate_pattern(pattern, table.bound)
    law = ProbabilityVector.point(pat[0])
    for t, i_t in enumerate(pat[1:], start=2):
        den, weights = law
        if not extended:
            for l, _ in weights:
                if l > table.bound:
                    raise RadiusExceeded(
                        f"intermediate support index {l} exceeds bound {table.bound} "
                        f"before step {t}"
                    )
        law = convex_combination(den, [(a, table.row_extended(l, i_t)) for l, a in weights])
    return law


def jump_distribution(pg: PointedGraph, pattern) -> ProbabilityVector:
    """J(i_1,...,i_m): exact law of the end distance of the sphere walk.

    The walk's law is an integer row over vertices, starting as a point
    mass at the base.  Each step mixes the uniform rows of the spheres
    S_{i_t}(v) by the current masses, and one last step maps every vertex
    to its base distance; convex_combination sums all of them.
    """
    top = pg.exact_radius if pg.truncated else max(pg.spheres)
    pat = validate_pattern(pattern, top)
    if pg.truncated and sum(pat) > pg.exact_radius:
        raise RadiusExceeded(
            f"pattern sum {sum(pat)} exceeds exact_radius {pg.exact_radius}"
        )
    den, masses = 1, ((pg.base, 1),)
    for i_t in pat:
        terms = []
        for v, mass in masses:
            ball = sphere_at(pg, v, i_t)
            if not ball:
                raise EmptySphere(f"S_{i_t}({pg.label(v)}) is empty for this pattern")
            terms.append((mass, (len(ball), [(w, 1) for w in ball])))
        den, masses = convex_combination(den, terms)
    return convex_combination(den, [(mass, (1, ((pg.dist[v], 1),))) for v, mass in masses])


def _pattern_window(cg: cy.CayleyGraph, pattern):
    """The window of radius sum(pattern) and the validated pattern, whose
    length and signs are checked before the window is built."""
    pat = validate_pattern(pattern, INFINITE)
    pg = cy.realize_window(cg, sum(pat))
    validate_pattern(pat, pg.exact_radius if pg.truncated else max(pg.spheres))
    for i in pat:
        if not pg.spheres.get(i, ()):
            raise EmptySphere(f"S_{i}(identity) is empty")
    return pg, pat


def brute_force_conditional(
    cg: cy.CayleyGraph, pattern, cap: int = ENUMERATION_CAP
) -> ProbabilityVector:
    """The conditional law by full enumeration of sphere tuples on window
    indices: the first factor is its sphere element, and each later factor
    moves the running product along its geodesic word through the
    window's generator table.  Ends are summed onto their distances by
    convex_combination."""
    if not isinstance(cg, cy.CayleyGraph):
        raise NotCayley("brute-force products need a Cayley graph")
    pg, pat = _pattern_window(cg, pattern)
    data = pg.cayley
    total = 1
    for i in pat:
        total *= len(pg.spheres[i])
        if total > cap:
            raise EnumerationCapExceeded(f"{total} tuples exceed the cap {cap}")
    words = [[data.word(v) for v in pg.spheres[i]] for i in pat[1:]]
    # A row of -1 appended to the table: a product that left the window
    # (index -1) reads it, not the window's last row, and stays at -1.
    right = data.right + [(-1,) * len(cg.generators)]
    ends = [0] * len(right)
    for first in pg.spheres[pat[0]]:
        for tup in iter_product(*words):
            g = first
            for word in tup:
                for s in word:
                    g = right[g][s]
            ends[g] += 1
    if ends[-1]:
        raise InternalError("a product of sphere elements lies outside the realized window")
    return convex_combination(total, [(c, (1, ((k, 1),))) for k, c in zip(pg.dist, ends) if c])


class EmpiricalDistribution(NamedTuple):
    """Monte-Carlo tally with the seed that reproduces it."""

    counts: dict
    trials: int
    seed: int
    pattern: tuple[int, ...]

    def estimate(self, k: int) -> float:
        return self.counts.get(k, 0) / self.trials

    def ci99(self, k: int) -> float:
        p = self.estimate(k)
        return Z99 * sqrt(p * (1.0 - p) / self.trials)

    def max_deviation(self, exact: ProbabilityVector) -> float:
        keys = set(self.counts) | set(exact.support)
        return max(abs(self.estimate(k) - float(exact.coefficient(k))) for k in keys)

    def to_jsonable(self) -> dict:
        est = {
            str(k): {
                "count": self.counts[k],
                "estimate": self.estimate(k),
                "ci99": self.ci99(k),
            }
            for k in sorted(self.counts)
        }
        return {
            "trials": self.trials,
            "seed": self.seed,
            "pattern": list(self.pattern),
            "outcomes": est,
        }


def _step_rng(seed: int, step: int):
    """The numpy Generator of one pattern step."""
    import numpy as np

    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, step])))


def monte_carlo_conditional(
    cg: cy.CayleyGraph, pattern, trials: int, seed: int = 0
) -> EmpiricalDistribution:
    """Sample each jump uniformly from its sphere and tally end distances.

    One counter-based Philox stream per pattern step, keyed by (seed,
    step).  The trials run in blocks of MC_BLOCK: each block draws its
    next MC_BLOCK values from every step's stream, so the draws, and the
    tally, are those of one call over all trials, and memory is bounded
    by the block and the window, not by the trial count.  Each trial moves
    along the geodesic word of its drawn sphere element through the
    window's generator table; when the step's |window| x |S_i| table is
    smaller than the trials and fits in MC_BLOCK entries, every start is
    walked through every word once and each trial reads its end there.
    Ends are counted per window element and folded onto their distances
    at the end.
    """
    if not isinstance(cg, cy.CayleyGraph):
        raise NotCayley("Monte-Carlo products need a Cayley graph")
    if trials < 1:
        raise BadParameter("trials must be >= 1")
    if seed < 0:
        raise BadParameter("seed must be >= 0")
    pg, pat = _pattern_window(cg, pattern)
    data = pg.cayley
    import numpy as np

    # One row per window element plus a row of -1 at the end, flattened:
    # g_v times generator s is right[v * width + s], and a product that
    # left the window (index -1) reads the last row and stays at -1.
    width = len(cg.generators)
    right = np.array(data.right + [(-1,) * width], dtype=np.intp).ravel()
    rows = len(data.right) + 1

    def walk(ends, columns):
        for column in columns:
            ends = right.take(ends * width + column)
        return ends

    steps = []
    for step, i in enumerate(pat):
        sphere = pg.spheres[i]
        # letters[j, e]: letter j of the geodesic word of sphere element e.
        letters = np.array([data.word(v) for v in sphere], dtype=np.intp).reshape(len(sphere), i).T
        # A |window| x |S_i| table smaller than the trials and no larger
        # than a block is walked once: ends[v * |S_i| + e] is where the
        # word of element e leads from v.
        entries = rows * len(sphere)
        compose = i > 1 and entries < trials and entries <= MC_BLOCK
        ends = walk(np.arange(rows)[:, None], letters).ravel() if compose else None
        steps.append((_step_rng(seed, step), len(sphere), letters, ends))
    tally = np.zeros(rows, dtype=np.int64)
    for done in range(0, trials, MC_BLOCK):
        pos = np.zeros(min(MC_BLOCK, trials - done), dtype=np.intp)
        for rng, size, letters, ends in steps:
            draws = rng.integers(0, size, size=len(pos))
            if ends is None:
                pos = walk(pos, (column.take(draws) for column in letters))
            else:
                pos = ends.take(pos * size + draws)
        if (pos < 0).any():
            raise InternalError("a sampled element lies outside the realized window")
        tally += np.bincount(pos, minlength=rows)
    # Window elements come in BFS order, so the distances arrive sorted.
    counts: dict[int, int] = {}
    for k, c in zip(pg.dist, tally.tolist()):
        if c:
            counts[k] = counts.get(k, 0) + c
    return EmpiricalDistribution(counts, trials, seed, pat)


def uniform_distribution(pg: PointedGraph) -> dict[int, Fraction]:
    """The uniform per-element step law alpha_i = 1/|G| for every index."""
    order = pg.vertex_count
    return {i: Fraction(1, order) for i in sorted(pg.spheres)}


def validate_alpha(pg: PointedGraph, alpha) -> dict[int, Fraction]:
    """Check a per-element step distribution: alpha_i >= 0 with
    sum_i alpha_i |S_i| = 1 exactly."""
    cleaned = {}
    for i, w in dict(alpha).items():
        i = int(i)
        if i not in pg.spheres:
            raise IndexOutOfRange(f"alpha index {i} outside the index set")
        w = Fraction(w)
        if w < 0:
            raise BadParameter(f"alpha_{i} is negative")
        if w:
            cleaned[i] = w
    total = sum(
        (w * len(pg.spheres[i]) for i, w in cleaned.items()), Fraction(0)
    )
    if total != 1:
        raise BadParameter(f"sum alpha_i |S_i| = {total}, expected 1")
    return cleaned


class JointLaw(NamedTuple):
    """Exact joint law of (Z_1,...,Z_depth) for a finite Cayley walk."""

    name: str
    depth: int
    law: dict
    alpha: dict

    def prefix_law(self, t: int) -> dict:
        out: dict[tuple[int, ...], Fraction] = {}
        for pattern, p in self.law.items():
            key = pattern[:t]
            out[key] = out.get(key, Fraction(0)) + p
        return out

    def marginal(self, t: int) -> dict:
        """Law of Z_t alone, by increasing distance."""
        out: dict[int, Fraction] = {}
        for pattern, p in self.law.items():
            k = pattern[t - 1]
            out[k] = out.get(k, Fraction(0)) + p
        return dict(sorted(out.items()))

    def conditional_rows(self, t: int) -> dict:
        """P(Z_t = j | Z_1..Z_{t-1}) for every positive-probability prefix,
        each row sorted by j."""
        prefixes = self.prefix_law(t - 1)
        longer = self.prefix_law(t)
        rows: dict[tuple[int, ...], dict[int, Fraction]] = {}
        for key, p in sorted(longer.items()):
            head, j = key[:-1], key[-1]
            rows.setdefault(head, {})[j] = p / prefixes[head]
        return rows

    def to_jsonable(self) -> dict:
        return {
            "graph": self.name,
            "depth": self.depth,
            "alpha": {str(i): w for i, w in sorted(self.alpha.items())},
            "law": {
                ",".join(str(i) for i in pattern): p
                for pattern, p in sorted(self.law.items())
            },
        }


def joint_distance_law(
    cg: cy.CayleyGraph, alpha, depth: int, pattern_cap: int = PATTERN_CAP
) -> JointLaw:
    """Exact DP over (distance history, current element) for a finite group."""
    if not isinstance(cg, cy.CayleyGraph):
        raise NotCayley("the distance process is defined over a Cayley graph")
    if not cg.finite:
        raise NotFinite(f"{cg.spec_name} is infinite; joint laws need a finite group")
    if depth < 1:
        raise BadParameter("depth must be >= 1")
    pg = cy.realize_full(cg)
    alpha = validate_alpha(pg, alpha if alpha is not None else uniform_distribution(pg))
    top = max(pg.spheres)
    if (top + 1) ** depth > pattern_cap:
        raise PatternCapExceeded(
            f"(M+1)^depth = {(top + 1) ** depth} exceeds the cap {pattern_cap}"
        )
    n = pg.vertex_count
    dist = pg.dist
    # rows[v][g] is the index of elements[v] * elements[g]: B_top is the group.
    rows = [pg._sphere_oracle(v, top) for v in range(n)]
    # Masses are integers: the mass of a path of t steps is
    # its integer weight over scale**t.
    scale = lcm(*(w.denominator for w in alpha.values()))
    weighted = [
        (g, int(alpha[dist[g]] * scale))
        for g in range(n)
        if alpha.get(dist[g])
    ]
    states: dict[tuple, dict[int, int]] = {(): {pg.base: 1}}
    for _ in range(depth):
        nxt: dict[tuple, dict[int, int]] = {}
        for prefix, masses in states.items():
            acc = [0] * n
            # Buckets follow the order in which targets are first reached;
            # that order fixes the law's pattern order (and its TSV rows).
            reached = []
            for v, mass in masses.items():
                row = rows[v]
                for g, w in weighted:
                    target = row[g]
                    if not acc[target]:
                        reached.append(target)
                    acc[target] += mass * w
            for target in reached:
                nxt.setdefault(prefix + (dist[target],), {})[target] = acc[target]
        states = nxt
    denominator = scale**depth
    totals = {prefix: sum(masses.values()) for prefix, masses in states.items()}
    if sum(totals.values()) != denominator:
        raise InternalError("the joint distance law does not sum to 1")
    law = {prefix: Fraction(num, denominator) for prefix, num in totals.items()}
    return JointLaw(pg.name, depth, law, alpha)


class MarkovWitness(NamedTuple):
    """Two next-step rows at one position that a verdict needs equal:
    row_a follows prefix_a and row_b follows prefix_b, each sorted by index."""

    position: int
    prefix_a: tuple[int, ...]
    prefix_b: tuple[int, ...]
    row_a: dict
    row_b: dict


class MarkovReport(NamedTuple):
    """Markov / i.i.d. verdicts for a joint distance law."""

    is_markov: bool
    is_iid: bool
    depth: int
    markov_witness: MarkovWitness | None
    iid_witness: MarkovWitness | None


def markov_check(law: JointLaw) -> MarkovReport:
    """Compare conditional next-step rows across histories.

    Markov: rows agree whenever the current distance Z_{t-1} agrees.
    i.i.d.: every row equals the single-step law.
    """
    step_law = law.marginal(1)
    is_markov, is_iid = True, True
    markov_witness = None
    iid_witness = None
    for t in range(2, law.depth + 1):
        rows = law.conditional_rows(t)
        by_last: dict[int, tuple] = {}
        for prefix in sorted(rows):
            row = rows[prefix]
            last = prefix[-1]
            if last in by_last:
                ref_prefix, ref_row = by_last[last]
                if ref_row != row and is_markov:
                    is_markov = False
                    markov_witness = MarkovWitness(t, ref_prefix, prefix, ref_row, row)
            else:
                by_last[last] = (prefix, row)
            if row != step_law and is_iid:
                is_iid = False
                iid_witness = MarkovWitness(t, prefix, prefix, row, step_law)
    return MarkovReport(is_markov, is_iid, law.depth, markov_witness, iid_witness)


class StepIdentityReport(NamedTuple):
    """Both sides of P(Z_2 = j | Z_1 = i) = sum_k p[i,k][j] alpha_k |S_k|."""

    i: int
    j: int
    lhs: Fraction
    rhs: Fraction
    equal: bool
    uniform: bool
    sphere_identity: bool | None


def conditional_step_identity(cg: cy.CayleyGraph, alpha, i: int, j: int) -> StepIdentityReport:
    """Check the two-step conditional law against the structure constants."""
    if not isinstance(cg, cy.CayleyGraph):
        raise NotCayley("the step identity is defined over a Cayley graph")
    pg = cy.realize_full(cg)
    law = joint_distance_law(cg, alpha, 2)
    alpha = law.alpha
    top = max(pg.spheres)
    if not 0 <= i <= top or not 0 <= j <= top:
        raise IndexOutOfRange(f"indices ({i},{j}) outside 0..{top}")
    first = law.marginal(1)
    if first.get(i, Fraction(0)) == 0:
        raise ZeroProbabilityCondition(f"P(Z_1 = {i}) = 0 under this alpha")
    joint_ij = sum(
        (p for pattern, p in law.law.items() if pattern == (i, j)), Fraction(0)
    )
    lhs = joint_ij / first[i]
    table = build_table(pg)
    sizes = sphere_sizes(pg)
    rhs = sum(
        (
            table.entry(i, k, j) * alpha.get(k, Fraction(0)) * sizes[k]
            for k in range(top + 1)
        ),
        Fraction(0),
    )
    uniform = all(
        alpha.get(k, Fraction(0)) == Fraction(1, pg.vertex_count)
        for k in range(top + 1)
    )
    sphere_identity = None
    if uniform:
        sphere_identity = sizes[j] == sum(
            (table.entry(i, k, j) * sizes[k] for k in range(top + 1)), Fraction(0)
        )
    return StepIdentityReport(i, j, lhs, rhs, lhs == rhs, uniform, sphere_identity)


class PermutationWitness(NamedTuple):
    """Two reorderings of a pattern whose PL differ first at index."""

    pattern_a: tuple[int, ...]
    pattern_b: tuple[int, ...]
    index: int


class PermutationReport(NamedTuple):
    """Is PL invariant under reordering the pattern?"""

    passed: bool
    pattern: tuple[int, ...]
    patterns_checked: int
    hypothesis_met: bool
    witness: PermutationWitness | None


def permutation_invariance_check(
    pg: PointedGraph, pattern, bound: int | None = None
) -> PermutationReport:
    """Compare PL over all distinct reorderings of the pattern on pg's table.

    The invariance theorem assumes a Cayley graph with constant sphere
    intersections; the result is informational when that hypothesis
    fails, and hypothesis_met records it.
    """
    table = build_table(pg, bound)
    pat = validate_pattern(pattern, table.bound)
    if len(pat) > 8:
        raise BadParameter("permutation check capped at pattern length 8")
    hypothesis = pg.cayley is not None and check_S2(pg).passed
    variants = sorted(set(permutations(pat)))
    reference = left_nested_product(table, variants[0], extended=True)
    for other in variants[1:]:
        diff = _first_difference(reference, left_nested_product(table, other, extended=True))
        if diff is not None:
            witness = PermutationWitness(variants[0], other, diff[0])
            return PermutationReport(False, pat, len(variants), hypothesis, witness)
    return PermutationReport(True, pat, len(variants), hypothesis, None)
