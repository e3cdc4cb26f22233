"""Walk laws on the window's integer generator table.

`monte_carlo_conditional` walks every trial along the geodesic words of
its sampled sphere elements through `WindowData.right`, and
`joint_distance_law` composes its multiplication rows from the same
table and runs its DP on integer numerators.  Both are checked here
against the element-by-element code they replaced, kept below as
reference functions: the coordinate-packing sampler for vector groups,
the per-trial sampler for free and permutation groups, and the Fraction
DP over the element product of tests/group_reference.py.  The sampler runs its trials in blocks drawn
from the same per-step streams and tallies the ends per window element,
so it is also checked against the whole-array table sampler it replaced,
at several block sizes and at trial counts around the block boundaries;
its traced memory must not grow with the trial count, and a walk that
leaves the window must be caught in whichever block it runs.  The table
itself is checked entry by entry against that product, the words read
back along via against the window's elements, and the exact conditional
law by enumeration against the jump DP on random finite abelian groups
(hypothesis).
"""

import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forge import cayley as cy
from forge import walks
from forge.cayley import element_str, parse_group_spec, realize_full, realize_window
from forge.errors import InternalError
from forge.walks import (
    _step_rng,
    brute_force_conditional,
    joint_distance_law,
    jump_distribution,
    monte_carlo_conditional,
    uniform_distribution,
    validate_alpha,
    validate_pattern,
)
from group_reference import multiply, window_elements

S5_GENERATORS = "(0 1)\n(0 1 2 3 4)\n(0 4 3 2 1)\n"
S4_GENERATORS = "(0 1)\n(1 2)\n(2 3)\n"


@pytest.fixture()
def perm_specs(tmp_path):
    s5 = tmp_path / "s5.txt"
    s5.write_text(S5_GENERATORS)
    s4 = tmp_path / "s4.txt"
    s4.write_text(S4_GENERATORS)
    return {"s5": f"perm:{s5}", "s4": f"perm:{s4}"}


# ---------------------------------------------------------------- references


def reference_monte_carlo(cg, pattern, trials, seed):
    """The tally of the sampler before the generator table: coordinate
    packing for vector groups, one multiply per step and trial else."""
    pat = tuple(int(i) for i in pattern)
    pg = realize_window(cg, sum(pat))
    data = pg.cayley
    top = max(pg.spheres) if data.saturated else pg.exact_radius
    pat = validate_pattern(pat, top)
    if cg.kind.family == "vector":
        return reference_mc_vector(pg, pat, trials, seed)
    return reference_mc_generic(pg, pat, trials, seed)


def reference_mc_vector(pg, pat, trials, seed):
    data = pg.cayley
    elements, _ = window_elements(pg)
    kind = data.cg.kind
    mods = np.array(kind.mods, dtype=np.int64)
    torsion = mods > 0
    dims = len(kind.mods)
    acc = np.zeros((trials, dims), dtype=np.int64)
    for step, i in enumerate(pat):
        elems = np.array([elements[u].data for u in pg.spheres[i]], dtype=np.int64)
        idx = _step_rng(seed, step).integers(0, len(elems), size=trials)
        acc += elems[idx]
        if torsion.any():
            acc[:, torsion] %= mods[torsion]
    span = sum(pat)
    offsets = np.where(torsion, 0, span)
    sizes = np.where(torsion, mods, 2 * span + 1)
    strides = np.ones(dims, dtype=np.int64)
    for d in range(dims - 2, -1, -1):
        strides[d] = strides[d + 1] * sizes[d + 1]
    window = np.array([g.data for g in elements], dtype=np.int64)
    window_codes = ((window + offsets) * strides).sum(axis=1)
    order = np.argsort(window_codes)
    sorted_codes = window_codes[order]
    dist = np.array(pg.dist, dtype=np.int64)[order]
    codes = ((acc + offsets) * strides).sum(axis=1)
    pos = np.searchsorted(sorted_codes, codes)
    if (pos == len(sorted_codes)).any() or (sorted_codes[pos] != codes).any():
        raise InternalError("a sampled element lies outside the realized window")
    values, tallies = np.unique(dist[pos], return_counts=True)
    return {int(v): int(c) for v, c in zip(values, tallies)}


def reference_mc_generic(pg, pat, trials, seed):
    elements, index = window_elements(pg)
    spheres = {i: [elements[u] for u in pg.spheres[i]] for i in pat}
    draws = [
        _step_rng(seed, step).integers(0, len(spheres[i]), size=trials)
        for step, i in enumerate(pat)
    ]
    counts = {}
    for t in range(trials):
        g = spheres[pat[0]][draws[0][t]]
        for step in range(1, len(pat)):
            g = multiply(g, spheres[pat[step]][draws[step][t]])
        k = pg.dist[index[g]]
        counts[k] = counts.get(k, 0) + 1
    return counts


def reference_mc_one_shot(cg, pattern, trials, seed):
    """The table sampler before blocks: every array holds all the trials,
    steps move them with 2-D gathers, and np.unique tallies the distances."""
    pg, pat = walks._pattern_window(cg, pattern)
    data = pg.cayley
    table = np.array(data.right + [(-1,) * len(cg.generators)], dtype=np.intp)
    pos = np.zeros(trials, dtype=np.intp)
    for step, i in enumerate(pat):
        sphere = pg.spheres[i]
        letters = np.empty((len(sphere), i), dtype=np.intp)
        for e, v in enumerate(sphere):
            for j in reversed(range(i)):
                v, letters[e, j] = data.via[v]
        draws = _step_rng(seed, step).integers(0, len(sphere), size=trials)
        compose = i > 1 and len(table) * len(sphere) < trials
        ends, words = (np.arange(len(table))[:, None], letters) if compose else (pos, letters[draws])
        for j in range(i):
            ends = table[ends, words[:, j]]
        pos = ends[pos, draws] if compose else ends
    if (pos < 0).any():
        raise InternalError("a sampled element lies outside the realized window")
    values, tallies = np.unique(np.array(pg.dist)[pos], return_counts=True)
    return {int(v): int(c) for v, c in zip(values, tallies)}


def reference_joint_law(cg, alpha, depth):
    """The Fraction DP over (distance history, current element)."""
    pg = realize_full(cg)
    alpha = validate_alpha(pg, alpha if alpha is not None else uniform_distribution(pg))
    elements, index = window_elements(pg)
    n = pg.vertex_count
    mult = [[index[multiply(elements[v], elements[g])] for g in range(n)] for v in range(n)]
    weights = [alpha.get(pg.dist[g], F(0)) for g in range(n)]
    states = {(): {pg.base: F(1)}}
    for _ in range(depth):
        nxt = {}
        for prefix, dist_map in states.items():
            for v, mass in dist_map.items():
                row = mult[v]
                for g in range(n):
                    w = weights[g]
                    if not w:
                        continue
                    target = row[g]
                    key = prefix + (pg.dist[target],)
                    bucket = nxt.setdefault(key, {})
                    bucket[target] = bucket.get(target, F(0)) + mass * w
        states = nxt
    return {prefix: sum(d.values(), F(0)) for prefix, d in states.items()}


# ---------------------------------------------------------------- the table


TABLE_WINDOWS = [
    ("zmod:6,6", None),
    ("zmod:3,2", None),
    ("lattice:1", 5),
    ("lattice:2", 4),
    ("lattice:3", 3),
    ("ladder", 5),
    ("free:2", 3),
    ("free:3", 2),
    ("s5", None),
    ("s5", 2),
    ("s4", 0),
]


@pytest.mark.parametrize("spec,radius", TABLE_WINDOWS, ids=lambda x: str(x))
def test_generator_table_matches_multiply(spec, radius, perm_specs):
    cg = parse_group_spec(perm_specs.get(spec, spec))
    pg = realize_full(cg) if radius is None else realize_window(cg, radius)
    data = pg.cayley
    assert len(data.right) == len(data.via) == pg.vertex_count
    # The elements, rebuilt along via by the reference product, carry the
    # labels realize_window formed from its own data.
    elements, index = window_elements(pg)
    assert [element_str(g) for g in elements] == [pg.label(v) for v in range(pg.vertex_count)]
    outside = 0
    for v, g in enumerate(elements):
        assert len(data.right[v]) == len(cg.generators)
        for s, gen in enumerate(cg.generators):
            expected = index.get(multiply(g, gen), -1)
            assert data.right[v][s] == expected, (spec, v, s)
            outside += expected < 0
    assert (outside == 0) == data.saturated
    assert data.via[0] is None
    for v, g in enumerate(elements):
        word = data.word(v)
        assert len(word) == pg.dist[v]
        rebuilt = cy.identity(cg.kind)
        for s in word:
            rebuilt = multiply(rebuilt, cg.generators[s])
        assert rebuilt == g, (spec, v)
        if v:
            u, s = data.via[v]
            assert pg.dist[u] == pg.dist[v] - 1 and word[-1] == s


def test_window_edges_come_from_the_table():
    pg = realize_window(parse_group_spec("free:2"), 3)
    right = pg.cayley.right
    for u in range(pg.vertex_count):
        inside = {v for v in right[u] if v >= 0}
        assert set(pg.graph.neighbors(u)) == inside


# ---------------------------------------------------------------- Monte-Carlo


# With 3000 trials, the steps of index > 1 on zmod:6,6, zmod:5 and
# lattice:1 walk their |window| x |S_i| table once; on the free groups the
# table is larger than the trial count and each trial walks its own word.
MC_CASES = [
    ("zmod:6,6", [(1, 2, 3), (2, 2), (3,), (0, 1)]),
    ("zmod:5", [(1, 1), (2, 1, 2), (0, 2)]),
    ("lattice:1", [(1, 2, 3), (5, 5), (0, 3), (40, 3, 25)]),
    ("lattice:2", [(1, 1, 1), (2, 3), (4,)]),
    ("lattice:3", [(2, 2), (1, 1, 1), (3,)]),
    ("ladder", [(1, 1), (2, 3, 1), (4,)]),
    ("free:2", [(2, 2, 2), (1, 1), (3, 1)]),
    ("free:3", [(1, 2), (2, 2), (1, 1, 1)]),
    ("s5", [(1, 2, 3), (3, 3), (5, 5, 1), (10,)]),
]


@pytest.mark.parametrize("spec,patterns", MC_CASES, ids=[c[0] for c in MC_CASES])
def test_monte_carlo_tallies_match_reference(spec, patterns, perm_specs):
    cg = parse_group_spec(perm_specs.get(spec, spec))
    for pattern in patterns:
        for seed in (0, 11):
            got = monte_carlo_conditional(cg, pattern, 3000, seed=seed)
            want = reference_monte_carlo(cg, pattern, 3000, seed)
            assert got.counts == want, (spec, pattern, seed)
            assert got.pattern == pattern and got.trials == 3000 and got.seed == seed


def test_monte_carlo_rejects_a_walk_that_leaves_the_window(monkeypatch):
    realize = walks.cy.realize_window

    def broken(cg, radius):
        pg = realize(cg, radius)
        pg.cayley.right[0] = (-1,) * len(cg.generators)
        return pg

    # Every other row of the whole group Z/5 is complete, so a walk that
    # read row -1 as the last row would come back into the group.
    monkeypatch.setattr(walks.cy, "realize_window", broken)
    with pytest.raises(InternalError, match="outside the realized window"):
        monte_carlo_conditional(parse_group_spec("zmod:5"), (1, 1), 100)
    # Steps of index 2 with 100 trials walk a 6 x 2 composed table once;
    # its row for -1 must stay -1.
    with pytest.raises(InternalError, match="outside the realized window"):
        monte_carlo_conditional(parse_group_spec("zmod:5"), (2, 2), 100)


# Block sizes to patch in: one trial per block, blocks that leave odd
# remainders, and the module's own constant (None).
BLOCKS = [1, 7, 1000, None]


@pytest.mark.parametrize("block", BLOCKS, ids=lambda b: f"block={b or walks.MC_BLOCK}")
def test_monte_carlo_tally_does_not_depend_on_the_block_size(block, monkeypatch, perm_specs):
    if block is not None:
        monkeypatch.setattr(walks, "MC_BLOCK", block)
    b = walks.MC_BLOCK
    cases = [(spec, patterns, 3000) for spec, patterns in MC_CASES]
    # Trial counts on both sides of one and two block boundaries.
    cases += [
        (spec, patterns, trials)
        for spec, patterns in MC_CASES
        if spec in ("zmod:6,6", "free:2", "lattice:1")
        for trials in (b - 1, b, b + 1, 2 * b + 3)
        if trials >= 1
    ]
    for spec, patterns, trials in cases:
        cg = parse_group_spec(perm_specs.get(spec, spec))
        for pattern in patterns:
            got = monte_carlo_conditional(cg, pattern, trials, seed=11)
            want = reference_mc_one_shot(cg, pattern, trials, 11)
            assert got.counts == want, (spec, pattern, trials)
            assert list(got.counts) == list(want), (spec, pattern, trials)


def _traced_peak(cg, pattern, trials):
    tracemalloc.start()
    try:
        monte_carlo_conditional(cg, pattern, trials)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_monte_carlo_memory_does_not_grow_with_the_trials():
    cg = parse_group_spec("zmod:6,6")
    monte_carlo_conditional(cg, (1, 2, 3), 10)  # numpy.random loads before tracing
    small = _traced_peak(cg, (1, 2, 3), 10**5)
    large = _traced_peak(cg, (1, 2, 3), 10**6)
    assert large < 8 * 2**20
    assert large - small < 2**20


def test_monte_carlo_memory_does_not_grow_once_a_step_could_compose():
    """free:4's window of radius 3 has 458 rows with the sentinel and
    |S_3| = 392: a table of 179536 entries, more than a block.  Past that
    many trials the step still walks each block's trials, so the traced
    peak stays where it is below it."""
    cg = parse_group_spec("free:4")
    monte_carlo_conditional(cg, (3,), 10)  # numpy.random loads before tracing
    small = _traced_peak(cg, (3,), 100_000)
    large = _traced_peak(cg, (3,), 400_000)
    assert large - small < 2**19


class _Scripted:
    """A step stream that hands out fixed draws in order."""

    def __init__(self, draws):
        self.draws, self.at = draws, 0

    def integers(self, low, high, size):
        self.at += size
        return self.draws[self.at - size : self.at]


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("composed", [False, True], ids=["per-trial", "composed"])
def test_monte_carlo_checks_the_window_in_every_block(block, composed, monkeypatch):
    cg = parse_group_spec("zmod:6,6")
    pattern = (2, 2)
    pg = realize_window(cg, sum(pattern))
    sphere = pg.spheres[2]
    # Steps of index 2 walk a composed table once the trials exceed it and
    # it fits in a block.
    threshold = (pg.vertex_count + 1) * len(sphere)
    if composed:
        # Each block then draws every element of S_2, so step 0 draws from a
        # script instead: the last element once, in a middle block, else
        # the first; step 1 draws the first.
        block += threshold - 1
        trials, target = 3 * block + 1, len(sphere) - 1
        hits = np.array([block + block // 2])
        draws = np.zeros(trials, dtype=np.intp)
        draws[hits] = target
        scripts = {0: draws, 1: np.zeros(trials, dtype=np.intp)}
        monkeypatch.setattr(walks, "_step_rng", lambda seed, step: _Scripted(scripts[step]))
    else:
        draws = _step_rng(0, 0).integers(0, len(sphere), size=threshold)
        # Break the row of an element of S_2 that the first block never
        # draws at step 0.
        target = min(set(range(len(sphere))) - set(draws[:block].tolist()))
        hits = np.flatnonzero(draws == target)
        assert len(hits) and hits[0] >= block

        def only_middle_blocks_leave(t):
            last = (t - 1) // block * block
            return hits[0] < last and not ((hits >= last) & (hits < t)).any()

        trials = next(t for t in range(1, threshold + 1) if only_middle_blocks_leave(t))
    # The torus is bipartite, so no other walk of either step stands on
    # the broken element: exactly the trials that drew it leave the
    # window, in their second step.
    realize = walks.cy.realize_window

    def broken(cg, radius):
        pg = realize(cg, radius)
        pg.cayley.right[sphere[target]] = (-1,) * len(cg.generators)
        return pg

    monkeypatch.setattr(walks, "MC_BLOCK", block)
    monkeypatch.setattr(walks.cy, "realize_window", broken)
    with pytest.raises(InternalError, match="outside the realized window"):
        monte_carlo_conditional(cg, pattern, trials)
    if not composed:
        # The trials before the first that draws it all stay inside.
        monte_carlo_conditional(cg, pattern, int(hits[0]))


# ---------------------------------------------------------------- joint law


def _alphas(cg):
    """The uniform law and two others: weight growing with the index, and
    weight on the even indices only (so some elements never move)."""
    pg = realize_full(cg)
    sizes = {i: len(pg.spheres[i]) for i in pg.spheres}
    growing = F(1, sum((i + 1) * s for i, s in sizes.items()))
    even = F(1, sum(s for i, s in sizes.items() if i % 2 == 0))
    return [
        None,
        {i: growing * (i + 1) for i in sizes},
        {i: even if i % 2 == 0 else F(0) for i in sizes},
    ]


@pytest.mark.parametrize(
    "spec,depths",
    [
        ("zmod:4", (1, 2, 3)),
        ("zmod:3,2", (1, 2, 3)),
        ("zmod:2,2,2", (1, 2, 3)),
        ("zmod:6,6", (1, 2)),
        ("s4", (1, 2, 3)),
        ("s5", (1, 2)),
    ],
)
def test_joint_law_matches_fraction_reference(spec, depths, perm_specs):
    cg = parse_group_spec(perm_specs.get(spec, spec))
    for alpha in _alphas(cg):
        for depth in depths:
            got = joint_distance_law(cg, alpha, depth)
            want = reference_joint_law(cg, alpha, depth)
            assert got.law == want, (spec, alpha, depth)
            # The patterns come in the reference's order too, which TSV
            # reports that list a law's entries follow.
            assert list(got.law) == list(want)
            assert got.depth == depth


# ---------------------------------------------------------------- oracle


@st.composite
def zmod_cases(draw):
    mods = draw(st.lists(st.integers(2, 6), min_size=1, max_size=3))
    top = sum(m // 2 for m in mods)
    pattern = draw(st.lists(st.integers(0, top), min_size=1, max_size=3))
    return mods, pattern


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(zmod_cases())
def test_brute_force_equals_jump_law_on_random_finite_abelian_groups(case):
    mods, pattern = case
    cg = parse_group_spec("zmod:" + ",".join(map(str, mods)))
    assert brute_force_conditional(cg, pattern) == jump_distribution(realize_full(cg), pattern)
