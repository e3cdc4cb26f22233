"""Seeded inputs for the benchmark workloads.

Everything the program reads is generated here from the workload seed
and written to a work directory; the program never sees the seed.  The
same seed always gives byte-identical files.
"""

from __future__ import annotations

import json
import os
import random
from itertools import combinations, product

import networkx as nx

# The random regular graphs of the `finite` workload: (degree, smallest n,
# largest n).  They fail the walk conditions quickly with a witness.
RANDOM_REGULAR = ((3, 150, 200), (4, 150, 200), (3, 150, 200))

# Standard generators of S_5 in cycle notation: a transposition, a
# 5-cycle and its inverse (a symmetric generating set).
S5_GENERATORS = ((0, 1),), ((0, 1, 2, 3, 4),), ((0, 4, 3, 2, 1),)


def rng_for(seed: int, purpose: str) -> random.Random:
    """An independent, reproducible stream per (seed, purpose)."""
    return random.Random(f"perfbench:{seed}:{purpose}")


def hamming_graph(d: int, q: int) -> nx.Graph:
    """H(d, q): words of length d over q letters, adjacent at distance 1."""
    words = list(product(range(q), repeat=d))
    index = {w: i for i, w in enumerate(words)}
    g = nx.Graph()
    g.add_nodes_from(range(len(words)))
    for w in words:
        for pos in range(d):
            for letter in range(q):
                if letter != w[pos]:
                    u = w[:pos] + (letter,) + w[pos + 1 :]
                    g.add_edge(index[w], index[u])
    return g


def johnson_graph(n: int, k: int) -> nx.Graph:
    """J(n, k): k-subsets of an n-set, adjacent when they share k-1 points."""
    subsets = list(combinations(range(n), k))
    g = nx.Graph()
    g.add_nodes_from(range(len(subsets)))
    for a, s in enumerate(subsets):
        for b in range(a + 1, len(subsets)):
            if len(set(s) & set(subsets[b])) == k - 1:
                g.add_edge(a, b)
    return g


def odd_graph(n: int) -> nx.Graph:
    """O_n in the vertex order the fixture catalog uses for odd:<n>."""
    subsets = list(combinations(range(2 * n - 1), n - 1))
    g = nx.Graph()
    g.add_nodes_from(range(len(subsets)))
    for a, s in enumerate(subsets):
        for b in range(a + 1, len(subsets)):
            if set(s).isdisjoint(subsets[b]):
                g.add_edge(a, b)
    return g


def relabel(g: nx.Graph, rng: random.Random) -> nx.Graph:
    """A uniformly random relabelling onto 0..n-1."""
    perm = list(range(g.number_of_nodes()))
    rng.shuffle(perm)
    return nx.relabel_nodes(g, dict(zip(sorted(g.nodes), perm)))


def random_regular(degree: int, lo: int, hi: int, rng: random.Random) -> nx.Graph:
    """A connected random regular graph with a seeded vertex count."""
    while True:
        n = rng.randrange(lo, hi + 1)
        if n * degree % 2:
            continue
        g = nx.random_regular_graph(degree, n, seed=rng.randrange(2**32))
        if nx.is_connected(g):
            return g


def graph_json(g: nx.Graph, name: str) -> dict:
    """The forge graph-JSON object, base vertex 0, no labels."""
    edges = sorted((min(u, v), max(u, v)) for u, v in g.edges)
    return {"name": name, "vertices": g.number_of_nodes(), "edges": edges, "base": 0}


def cycle_text(mapping) -> str:
    """A permutation (tuple of images) in cycle notation."""
    seen, cycles = set(), []
    for start in range(len(mapping)):
        if start in seen or mapping[start] == start:
            continue
        cyc, x = [start], mapping[start]
        seen.add(start)
        while x != start:
            cyc.append(x)
            seen.add(x)
            x = mapping[x]
        cycles.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(cycles)


def conjugated_s5(rng: random.Random) -> list[tuple[int, ...]]:
    """The standard generators of S_5 conjugated by a seeded permutation."""
    sigma = list(range(5))
    rng.shuffle(sigma)
    inv = [0] * 5
    for x, y in enumerate(sigma):
        inv[y] = x
    gens = []
    for cycles in S5_GENERATORS:
        base = list(range(5))
        for cyc in cycles:
            for i, x in enumerate(cyc):
                base[x] = cyc[(i + 1) % len(cyc)]
        # sigma o g o sigma^-1
        gens.append(tuple(sigma[base[inv[x]]] for x in range(5)))
    return gens


class Inputs:
    """The generated files of one workload plus the graphs behind them.

    graphs maps a short name to the networkx graph exactly as written
    (after relabelling); files maps the same names to file paths.
    """

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.graphs: dict[str, nx.Graph] = {}
        self.files: dict[str, str] = {}
        self.s5: list[tuple[int, ...]] = []

    def add_graph(self, key: str, g: nx.Graph) -> None:
        path = os.path.join(self.workdir, f"{key}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(graph_json(g, key), fh)
        self.graphs[key] = g
        self.files[key] = path

    def add_s5(self, gens) -> None:
        path = os.path.join(self.workdir, "s5.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(cycle_text(g) + "\n" for g in gens))
        self.s5 = list(gens)
        self.files["s5"] = path


def generate(workload: str, seed: int, workdir: str) -> Inputs:
    """Write the inputs of one workload under workdir."""
    os.makedirs(workdir, exist_ok=True)
    out = Inputs(workdir)
    if workload == "finite":
        rng = rng_for(seed, "relabel")
        out.add_graph("h53", relabel(hamming_graph(5, 3), rng))
        out.add_graph("j94", relabel(johnson_graph(9, 4), rng))
        out.add_graph("h43", relabel(hamming_graph(4, 3), rng))
        rng = rng_for(seed, "random-regular")
        for idx, (degree, lo, hi) in enumerate(RANDOM_REGULAR):
            out.add_graph(f"rr{idx}", random_regular(degree, lo, hi, rng))
    elif workload == "cayley":
        out.add_s5(conjugated_s5(rng_for(seed, "s5")))
    return out
