"""Independent known answers for the benchmark's jobs.

Nothing here imports forge.  Finite graphs are decided from a scipy
distance matrix and networkx's distance-regularity routines; Cayley
windows from closed-form word lengths and direct enumeration of group
elements; the search from networkx's graph atlas.  Every comparison
returns a list of problems, empty when the report is right.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import combinations
from math import sqrt
from statistics import NormalDist

import networkx as nx
import numpy as np
from scipy.sparse.csgraph import shortest_path

# Monte-Carlo tallies are accepted when every outcome lies within a band
# that a correct sampler leaves with probability below 1e-6 over all
# outcomes of one report (Bonferroni over at most MC_MAX_OUTCOMES).
MC_FAMILY_ALPHA = 1e-6
MC_MAX_OUTCOMES = 16
MC_Z = NormalDist().inv_cdf(1 - MC_FAMILY_ALPHA / (2 * MC_MAX_OUTCOMES))


def frac_text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def law_json(law: dict) -> dict:
    return {str(k): frac_text(w) for k, w in sorted(law.items())}


def expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


# ---------------------------------------------------------------- finite graphs


def distance_matrix(g: nx.Graph) -> np.ndarray:
    n = g.number_of_nodes()
    adj = nx.to_scipy_sparse_array(g, nodelist=range(n), format="csr")
    dist = shortest_path(adj, directed=False, unweighted=True)
    if np.isinf(dist).any():
        raise ValueError("graph is disconnected")
    return dist.astype(np.int64)


def sphere_profile(dist: np.ndarray, base: int) -> np.ndarray:
    """prof[v, i, j] = |S_i(v) ∩ S_j(base)|."""
    n = dist.shape[0]
    width = int(dist.max()) + 1
    codes = dist * width + dist[base][None, :] + (np.arange(n) * width * width)[:, None]
    return np.bincount(codes.ravel(), minlength=n * width * width).reshape(n, width, width)


def pair_counts(dist: np.ndarray, v: int, w: int) -> dict:
    """{(i, j): |{x : d(v,x) = i, d(x,w) = j}|} over nonzero counts."""
    keys, counts = np.unique(np.stack([dist[v], dist[:, w]]), axis=1, return_counts=True)
    return {(int(i), int(j)): int(c) for (i, j), c in zip(keys.T, counts)}


class FiniteGraph:
    """A finite pointed graph's sphere structure, decided without forge."""

    def __init__(self, g: nx.Graph, base: int = 0, dist=None):
        self.g = g
        self.base = base
        self.dist = distance_matrix(g) if dist is None else dist
        self.n = self.dist.shape[0]
        self.top = int(self.dist[base].max())
        self.prof = sphere_profile(self.dist, base)
        self.sizes = self.prof.sum(axis=2)
        self._table = None
        self._is_dr = None

    def is_distance_regular(self) -> bool:
        if self._is_dr is None:
            self._is_dr = nx.is_distance_regular(self.g)
        return self._is_dr

    # condition (iii): the top base index is attained from every vertex
    def condition_iii(self):
        bad = np.nonzero(self.dist.max(axis=1) < self.top)[0]
        return ("fail", int(bad[0])) if bad.size else ("pass", None)

    def s1_passes(self) -> bool:
        r = self.top + 1
        return bool((self.sizes[:, :r] == self.sizes[self.base, :r]).all())

    def s2_passes(self) -> bool:
        r = self.top + 1
        layer = self.dist[self.base]
        for k in range(r):
            block = self.prof[layer == k][:, :r, :r]
            if not (block == block[0]).all():
                return False
        return True

    def table(self) -> dict:
        """{(i, j): {k: p[i,j][k]}} for i, j over the whole index set."""
        if self._table is None:
            r = self.top + 1
            layer = self.dist[self.base]
            rows = {}
            for i in range(r):
                members = np.nonzero(layer == i)[0]
                for j in range(r):
                    block = self.prof[members, j, :]
                    totals = block.sum(axis=1)
                    acc = defaultdict(Fraction)
                    for t in np.unique(totals):
                        summed = block[totals == t].sum(axis=0)
                        for k in np.nonzero(summed)[0]:
                            acc[int(k)] += Fraction(int(summed[k]), int(t) * len(members))
                    rows[(i, j)] = dict(acc)
            self._table = rows
        return self._table


def _verdict(problems: list, name: str, section: dict, passes: bool, checked, witness_holds) -> None:
    """A pass must have checked `checked` cases (when given); a reported
    failure must carry a witness for which witness_holds(*witness) is true."""
    expect(problems, f"{name}.passed", section["passed"], passes)
    if passes and checked is not None:
        expect(problems, f"{name}.checked", section["checked"], checked)
    elif not section["passed"]:
        witness = section["witness"]
        if witness is None:
            problems.append(f"{name} failed without a witness")
        elif not witness_holds(*witness):
            problems.append(f"{name} witness {witness} does not hold")


def check_conditions(report: dict, fg: FiniteGraph) -> list:
    """`hyper conditions` on a finite graph whose vertex labels are its
    vertex ids: assumptions, S1, S2 and distance regularity."""
    problems: list = []
    a = report["assumptions"]
    iii, _ = fg.condition_iii()
    for key in ("simple", "connected", "locally_finite"):
        expect(problems, f"assumptions.{key}", a[key], True)
    expect(problems, "condition_iii", a["condition_iii"], iii)
    expect(problems, "assumptions.passed", a["passed"], iii == "pass")
    if iii == "fail" and a["witness"] is not None and fg.dist[int(a["witness"])].max() >= fg.top:
        problems.append(f"condition (iii) witness {a['witness']} attains the top index")
    r, n, layer = fg.top + 1, fg.n, fg.dist[fg.base]

    def s1_holds(i, v, size, want):
        return fg.sizes[int(v), i] == size and fg.sizes[fg.base, i] == want and size != want

    def s2_holds(i, j, k, ref, want, v, got):
        ref, v = int(ref), int(v)
        return layer[ref] == k == layer[v] and fg.prof[ref, i, j] == want and fg.prof[v, i, j] == got != want

    def dr_holds(k, rv, rw, v, w, i, j, want, got):
        rv, rw, v, w = int(rv), int(rw), int(v), int(w)
        return (
            fg.dist[rv, rw] == k == fg.dist[v, w]
            and pair_counts(fg.dist, rv, rw).get((i, j), 0) == want
            and pair_counts(fg.dist, v, w).get((i, j), 0) == got != want
        )

    _verdict(problems, "S1", report["S1"], fg.s1_passes(), r * n, s1_holds)
    _verdict(problems, "S2", report["S2"], fg.s2_passes(), r * r * n, s2_holds)
    dr = report.get("distance_regular")
    if dr is None:
        problems.append("finite graph without a distance_regular verdict")
        return problems
    is_dr = fg.is_distance_regular()
    _verdict(problems, "distance_regular", dr, is_dr, None, dr_holds)
    expect(problems, "diameter", dr["diameter"], int(fg.dist.max()))
    if is_dr:
        problems += _check_intersection_numbers(dr["intersection_numbers"] or {}, fg)
    return problems


def _check_intersection_numbers(reported: dict, fg: FiniteGraph) -> list:
    problems: list = []
    want = {}
    for k in range(int(fg.dist.max()) + 1):
        v, w = (int(x[0]) for x in np.nonzero(fg.dist == k))
        for (i, j), c in pair_counts(fg.dist, v, w).items():
            want[f"{i},{j},{k}"] = c
    expect(problems, "intersection numbers", reported, want)
    b, c = nx.intersection_array(fg.g)
    for k, bk in enumerate(b):
        if reported.get(f"{k + 1},1,{k}") != bk:
            problems.append(f"b_{k} disagrees with networkx ({bk})")
    for k, ck in enumerate(c, start=1):
        if reported.get(f"{k - 1},1,{k}") != ck:
            problems.append(f"c_{k} disagrees with networkx ({ck})")
    return problems


# ---------------------------------------------------------------- classification


def _first_difference(lhs: dict, rhs: dict):
    for k in sorted(set(lhs) | set(rhs)):
        if lhs.get(k, 0) != rhs.get(k, 0):
            return k
    return None


def _combine(terms) -> dict:
    out = defaultdict(Fraction)
    for w, row in terms:
        for k, c in row.items():
            out[k] += w * c
    return {k: c for k, c in out.items() if c}


def classify(row, bound: int, radius=None) -> dict:
    """Commutativity then associativity over indices <= bound, scanned in
    lexicographic order; row(i, j) returns the exact product as {k: p}.
    With a window radius, triples that need a row (l, m) with
    l + m > radius are skipped and counted."""
    witness = None
    commutative = True
    for i in range(bound + 1):
        for j in range(i + 1, bound + 1):
            k = _first_difference(row(i, j), row(j, i))
            if k is not None:
                commutative = False
                witness = _violation("commutativity", (i, j, k), row(i, j).get(k, 0), row(j, i).get(k, 0))
                break
        if not commutative:
            break
    associative, skipped, assoc_witness = True, 0, None
    for h in range(bound + 1):
        for i in range(bound + 1):
            for j in range(bound + 1):
                left_rows, right_rows = sorted(row(h, i)), sorted(row(i, j))
                if radius is not None and (
                    any(l + j > radius for l in left_rows) or any(h + l > radius for l in right_rows)
                ):
                    skipped += 1
                    continue
                left = _combine((row(h, i)[l], row(l, j)) for l in left_rows)
                right = _combine((row(i, j)[l], row(h, l)) for l in right_rows)
                k = _first_difference(left, right)
                if k is not None:
                    associative = False
                    assoc_witness = _violation(
                        "associativity", (h, i, j, k), left.get(k, 0), right.get(k, 0)
                    )
                    break
            if not associative:
                break
        if not associative:
            break
    return {
        "verdict": "Hypergroup" if commutative and associative else "PreHypergroupOnly",
        "commutative": commutative,
        "associative": associative,
        "bound": bound,
        "witness": witness or assoc_witness,
        "skipped_triples": skipped,
    }


def _violation(kind, indices, lhs, rhs) -> dict:
    return {
        "kind": kind,
        "indices": list(indices),
        "lhs": frac_text(Fraction(lhs)),
        "rhs": frac_text(Fraction(rhs)),
    }


def check_classify(report: dict, want: dict) -> list:
    problems: list = []
    for key, value in want.items():
        expect(problems, f"classify.{key}", report.get(key), value)
    return problems


def matrices(table: dict, bound: int) -> dict:
    """P_k[i][j] = p[k,i][j] for a complete finite table."""
    dim = bound + 1
    return {
        k: [[table[(k, i)].get(j, Fraction(0)) for j in range(dim)] for i in range(dim)]
        for k in range(dim)
    }


def matmul(a, b):
    n = len(a)
    return [[sum((a[i][l] * b[l][j] for l in range(n)), Fraction(0)) for j in range(n)] for i in range(n)]


def check_commute(report: dict, fg: FiniteGraph) -> list:
    table, bound = fg.table(), fg.top
    mats = matrices(table, bound)
    commutes = all(
        matmul(mats[i], mats[j]) == matmul(mats[j], mats[i])
        for i, j in combinations(range(bound + 1), 2)
    )
    verdict = classify(lambda i, j: table[(i, j)], bound)
    problems: list = []
    expect(problems, "commutes", report["commutes"], commutes)
    expect(problems, "classify_commutative", report["classify_commutative"], verdict["commutative"])
    expect(problems, "classify_associative", report["classify_associative"], verdict["associative"])
    expect(problems, "agrees_with_associative", report["agrees_with_associative"], commutes == verdict["associative"])
    pairs = (bound + 1) * bound // 2
    expect(problems, "rows_compared", report["rows_compared"], pairs * (bound + 1))
    return problems


def check_regular_rep(report: dict, fg: FiniteGraph) -> list:
    table, bound = fg.table(), fg.top
    mats = matrices(table, bound)
    dim = bound + 1
    holds = True
    for i in range(dim):
        for j in range(dim):
            lhs = matmul(mats[i], mats[j])
            rhs = [
                [sum((w * mats[k][a][b] for k, w in table[(i, j)].items()), Fraction(0)) for b in range(dim)]
                for a in range(dim)
            ]
            holds = holds and lhs == rhs
    verdict = classify(lambda i, j: table[(i, j)], bound)
    problems: list = []
    expect(problems, "passed", report["passed"], holds)
    expect(problems, "hypothesis_met", report["hypothesis_met"], verdict["verdict"] == "Hypergroup")
    expect(problems, "pairs_checked", report["pairs_checked"], dim * dim)
    expect(problems, "rows_compared", report["rows_compared"], dim**3)
    expect(problems, "pairs_skipped", report["pairs_skipped"], 0)
    return problems


# ---------------------------------------------------------------- Cayley groups


class Group:
    """A Cayley graph given by its word-length function and a way to list
    spheres around the identity, with its own multiplication."""

    def __init__(self, mul, norm, spheres):
        self.mul = mul
        self.norm = norm
        self._spheres = spheres
        self._cache: dict = {}

    def sphere(self, n: int) -> list:
        if n not in self._cache:
            self._cache[n] = self._spheres(n)
        return self._cache[n]


def free_group(rank: int) -> Group:
    """Reduced words over letters ±1..±rank; |w| is the reduced length."""

    def mul(a, b):
        out = list(a)
        for x in b:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        return tuple(out)

    letters = [s * i for i in range(1, rank + 1) for s in (1, -1)]

    def spheres(n):
        words = [()]
        for _ in range(n):
            words = [w + (x,) for w in words for x in letters if not (w and w[-1] == -x)]
        if len(words) != (1 if n == 0 else 2 * rank * (2 * rank - 1) ** (n - 1)):
            raise ValueError(f"free-group sphere {n} has the wrong size")
        return words

    return Group(mul, len, spheres)


def vector_group(mods: tuple) -> Group:
    """Z^a x Z/m... with generators ±e_i; 0 marks a free coordinate.  The
    word length is the sum of per-coordinate (cyclic) distances."""

    def reduce(c, m):
        return c % m if m else c

    def coord_len(c, m):
        return min(c, m - c) if m else abs(c)

    def mul(a, b):
        return tuple(reduce(x + y, m) for x, y, m in zip(a, b, mods))

    def norm(a):
        return sum(coord_len(c, m) for c, m in zip(a, mods))

    def spheres(n):
        ranges = [range(m) if m else range(-n, n + 1) for m in mods]
        out = [()]
        for rng in ranges:
            out = [p + (c,) for p in out for c in rng]
        return [p for p in out if norm(p) == n]

    return Group(mul, norm, spheres)


def perm_closure(gens) -> dict:
    """Word lengths of every element generated by permutations gens."""
    ident = tuple(range(len(gens[0])))
    lengths = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = tuple(g[s[x]] for x in range(len(s)))
                if h not in lengths:
                    lengths[h] = lengths[g] + 1
                    nxt.append(h)
        frontier = nxt
    return lengths


def group_product(group: Group, i: int, j: int) -> dict:
    """p[i,j][k] = mean over v in S_i of |{w in S_j : |vw| = k}| / |S_j|,
    using d(v, vw) = |w| on Cayley graphs."""
    si, sj = group.sphere(i), group.sphere(j)
    counts: dict = defaultdict(int)
    for v in si:
        for w in sj:
            counts[group.norm(group.mul(v, w))] += 1
    total = len(si) * len(sj)
    return {k: Fraction(c, total) for k, c in counts.items()}


def pattern_law(group: Group, pattern) -> dict:
    """Exact law of |g_1 ... g_m| with g_t uniform on S_{i_t}."""
    mass = {group.sphere(0)[0]: Fraction(1)}
    for i in pattern:
        sphere = group.sphere(i)
        step: dict = defaultdict(Fraction)
        for g, p in mass.items():
            share = p / len(sphere)
            for s in sphere:
                step[group.mul(g, s)] += share
        mass = step
    law: dict = defaultdict(Fraction)
    for g, p in mass.items():
        law[group.norm(g)] += p
    return dict(law)


class Window:
    """Ambient products of a Cayley graph, served under a window radius."""

    def __init__(self, group: Group, radius: int):
        self.group = group
        self.radius = radius
        self._rows: dict = {}
        self._verdict = None

    def row(self, i: int, j: int) -> dict:
        if (i, j) not in self._rows:
            self._rows[(i, j)] = group_product(self.group, i, j)
        return self._rows[(i, j)]

    def classify(self) -> dict:
        if self._verdict is None:
            self._verdict = classify(self.row, self.radius // 2, self.radius)
        return self._verdict

    def table_json(self, name: str) -> dict:
        bound = self.radius // 2
        return {
            "bound": bound,
            "graph": name,
            "rows": {
                f"{i},{j}": law_json(self.row(i, j))
                for i in range(bound + 1)
                for j in range(bound + 1)
            },
        }


def window_condition_counts(sizes, radius: int) -> tuple[int, int]:
    """How many (v, i) pairs S1 and (v, i, j) triples S2 check on a
    window, from its sphere sizes |S_0|, ..., |S_radius|."""
    ball = [sum(sizes[: m + 1]) for m in range(radius + 1)]
    s1 = sum(ball[radius - i] for i in range(1, radius + 1))
    s2 = sum(sizes[k] * (k + i + 1) for k in range(radius + 1) for i in range(radius - k + 1))
    return s1, s2


def check_window_conditions(report: dict, group: Group, radius: int) -> list:
    sizes = [len(group.sphere(n)) for n in range(radius + 1)]
    s1_checked, s2_checked = window_condition_counts(sizes, radius)
    problems: list = []
    a = report["assumptions"]
    expect(problems, "condition_iii", a["condition_iii"], "vacuous")
    expect(problems, "assumptions.passed", a["passed"], True)
    expect(problems, "S1.passed", report["S1"]["passed"], True)
    expect(problems, "S1.checked", report["S1"]["checked"], s1_checked)
    expect(problems, "S2.passed", report["S2"]["passed"], True)
    expect(problems, "S2.checked", report["S2"]["checked"], s2_checked)
    if "distance_regular" in report:
        problems.append("a truncated window reported a distance-regularity verdict")
    return problems


def check_norms(report: dict, group: Group, radius: int, k: int) -> list:
    """matrix norms on a window: c_k, d_k and the Rayleigh lower bound."""
    bound = radius // 2
    dim = bound + 1
    window = Window(group, radius)
    p = [[window.row(k, i).get(j, Fraction(0)) for j in range(dim)] for i in range(dim)]
    cols = [j for j in range(dim) if j + k <= bound]
    c = max(sum((p[i][j] ** 2 for i in range(dim)), Fraction(0)) for j in cols)
    d = max(sum(1 for j in cols if p[i][j]) for i in range(dim))
    candidates = [
        ("e0", [Fraction(int(n == 0)) for n in range(dim)]),
        ("uniform", [Fraction(1)] * dim),
    ] + [
        (f"geometric-{r}", [r**n for n in range(dim)])
        for r in (Fraction(1, 2), Fraction(1, 4), Fraction(3, 4))
    ]
    lower, best = Fraction(0), ""
    for name, vec in candidates:
        image = [sum((vec[i] * p[i][j] for i in range(dim)), Fraction(0)) for j in cols]
        q = sum((x * x for x in image), Fraction(0)) / sum((x * x for x in vec), Fraction(0))
        if q > lower:
            lower, best = q, name
    problems: list = []
    expect(problems, "c", report["c"], frac_text(c))
    expect(problems, "d", report["d"], d)
    expect(problems, "upper_sq", report["upper_sq"], frac_text(c * d))
    expect(problems, "lower_sq", report["lower_sq"], frac_text(lower))
    expect(problems, "best_vector", report["best_vector"], best)
    expect(problems, "window_sup", report["window_sup"], True)
    return problems


def check_law(report: dict, law: dict, pattern) -> list:
    problems: list = []
    expect(problems, "pattern", report["pattern"], list(pattern))
    expect(problems, "law", report["law"], law_json(law))
    return problems


def check_monte_carlo(report: dict, law: dict, pattern, trials: int, seed: int) -> list:
    """Tallies against the exact law: counts add up, no impossible outcome,
    and every estimate within the simultaneous band MC_Z.  Prints how many
    outcomes fell inside forge's own per-outcome 99% interval."""
    problems: list = []
    expect(problems, "pattern", report["pattern"], list(pattern))
    expect(problems, "trials", report["trials"], trials)
    expect(problems, "seed", report["seed"], seed)
    outcomes = {int(k): v for k, v in report["outcomes"].items()}
    expect(problems, "sum of counts", sum(v["count"] for v in outcomes.values()), trials)
    if len(law) > MC_MAX_OUTCOMES:
        problems.append(f"law has {len(law)} outcomes, more than the band allows")
    inside_ci99 = 0
    for k in sorted(set(law) | set(outcomes)):
        p = float(law.get(k, 0))
        got = outcomes.get(k, {"count": 0, "ci99": 0.0})
        est = got["count"] / trials
        if p in (0.0, 1.0):
            if est != p:
                problems.append(f"outcome {k}: estimate {est} for an outcome of probability {p}")
            continue
        sd = sqrt(p * (1 - p) / trials)
        if abs(est - p) > MC_Z * sd:
            problems.append(f"outcome {k}: estimate {est} is {abs(est - p) / sd:.1f} sd from {p}")
        inside_ci99 += abs(est - p) <= got["ci99"]
    print(f"note: Monte-Carlo pattern {list(pattern)}: {inside_ci99}/{len(law)} outcomes inside their reported 99% interval")
    return problems


# ---------------------------------------------------------------- search


class Pointed:
    """A small pointed graph with an isomorphism-invariant key."""

    def __init__(self, g: nx.Graph, base: int, sizes):
        self.g = g.copy()
        nx.set_node_attributes(self.g, {v: v == base for v in g}, "base")
        degrees = tuple(sorted(d for _, d in g.degree))
        self.key = (g.number_of_nodes(), g.number_of_edges(), degrees, tuple(sizes))

    def same(self, other: "Pointed") -> bool:
        return self.key == other.key and nx.is_isomorphic(
            self.g, other.g, node_match=lambda x, y: x["base"] == y["base"]
        )


class AtlasSearch:
    """Every connected graph on 1..max_vertices vertices from the atlas,
    with the walk conditions decided at every base."""

    def __init__(self, max_vertices: int):
        from networkx.generators.atlas import graph_atlas_g

        self.graph_counts: dict = defaultdict(int)
        self.examined = self.rejected_condition = self.rejected_walk = 0
        self.classified: list = []
        self.all_bases_pass: list = []
        self.some_base_passes: list = []
        for g in graph_atlas_g():
            n = g.number_of_nodes()
            if not 1 <= n <= max_vertices or not nx.is_connected(g):
                continue
            self.graph_counts[n] += 1
            dist = distance_matrix(g)
            passing = 0
            for base in range(n):
                self.examined += 1
                fg = FiniteGraph(g, base, dist)
                if fg.condition_iii()[0] == "fail":
                    self.rejected_condition += 1
                elif not (fg.s1_passes() and fg.s2_passes()):
                    self.rejected_walk += 1
                else:
                    passing += 1
                    self.classified.append(Pointed(g, base, fg.sizes[base]))
            if passing:
                self.some_base_passes.append(g)
            if passing == n:
                self.all_bases_pass.append(g)

    def check(self, report: dict, policy: str) -> list:
        problems: list = []
        counts = {str(n): c for n, c in sorted(self.graph_counts.items())}
        expect(problems, "graph_counts", report["graph_counts"], counts)
        expect(problems, "replay_verified", report["replay_verified"], True)
        entries = report["classified"]
        found = []
        for e in entries:
            g = nx.Graph()
            g.add_nodes_from(range(e["vertices"]))
            g.add_edges_from(map(tuple, e["edges"]))
            fg = FiniteGraph(g, e["base"])
            if fg.condition_iii()[0] != "pass" or not (fg.s1_passes() and fg.s2_passes()):
                problems.append(f"classified entry {e['edges']} base {e['base']} fails the conditions")
                continue
            table = fg.table()
            want = classify(lambda i, j: table[(i, j)], fg.top)
            for key in ("commutative", "associative", "verdict", "witness"):
                expect(problems, f"entry {e['edges']}@{e['base']} {key}", e[key], want[key])
            found.append(Pointed(g, e["base"], fg.sizes[e["base"]]))
        bad = [e for e in entries if e["verdict"] != "Hypergroup"]
        expect(problems, "counterexamples", report["counterexamples"], bad)
        expect(problems, "conjecture_holds", report["conjecture_holds"], not bad)
        if policy == "all":
            expect(problems, "pointed_examined", report["pointed_examined"], self.examined)
            expect(problems, "rejected_condition", report["rejected_condition"], self.rejected_condition)
            expect(problems, "rejected_walk", report["rejected_walk"], self.rejected_walk)
            if not _same_multiset(found, self.classified):
                problems.append("classified pointed graphs differ from the atlas")
        else:
            total = sum(self.graph_counts.values())
            expect(problems, "pointed_examined", report["pointed_examined"], total)
            expect(
                problems,
                "examined = rejected + classified",
                report["rejected_condition"] + report["rejected_walk"] + len(entries),
                total,
            )
            graphs = [p.g for p in found]
            if not (_covers(graphs, self.all_bases_pass) and _covers(self.some_base_passes, graphs)):
                problems.append("classified graphs are not between the always- and sometimes-passing atlas graphs")
        return problems


def _same_multiset(found: list, expected: list) -> bool:
    if len(found) != len(expected):
        return False
    pool = list(expected)
    for p in found:
        hit = next((idx for idx, q in enumerate(pool) if p.same(q)), None)
        if hit is None:
            return False
        pool.pop(hit)
    return True


def _covers(bigger: list, smaller: list) -> bool:
    """Every graph of smaller is isomorphic to some graph of bigger."""
    return all(any(nx.is_isomorphic(h, g) for h in bigger if h.number_of_nodes() == g.number_of_nodes()) for g in smaller)
