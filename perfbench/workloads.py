"""The benchmark's workloads: forge CLI jobs with their known answers.

A job is the argument list of one `forge` invocation (after the global
`--format json --seed <n>` options), the inputs it builds before any
verdict (for the set-up probe), and a check that compares its exit code
and JSON report with an answer computed by `oracle`, never by forge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import oracle
from inputs import hamming_graph, odd_graph

WORKLOADS = ("finite", "cayley", "search")
PAPER_ERRATA = {"tree-j-112", "zline-rayleigh-geometric"}
SEARCH_MAX_VERTICES = 7


@dataclass
class Job:
    name: str
    argv: list
    build: list  # set-up steps: ["spec", s] | ["window", group, radius] | ["full", group]
    check: Callable  # (report) -> (expected exit code, problems)
    cwd: str | None = None


def _conditions(fg, report):
    problems = oracle.check_conditions(report, fg)
    ok = report["assumptions"]["passed"] and report["S1"]["passed"] and report["S2"]["passed"]
    return (0 if ok else 1), problems


def finite_jobs(inputs, seed: int) -> list:
    graphs = {key: oracle.FiniteGraph(g) for key, g in inputs.graphs.items()}
    odd5 = oracle.FiniteGraph(odd_graph(5))
    jobs = [Job("conditions:odd5", ["hyper", "conditions", "odd:5"], [["spec", "odd:5"]], lambda r: _conditions(odd5, r))]
    for key in ("h53", "j94", "h43"):
        path = inputs.files[key]
        jobs.append(
            Job(f"conditions:{key}", ["hyper", "conditions", path], [["spec", path]],
                lambda r, fg=graphs[key]: _conditions(fg, r))
        )
    h53, j94 = inputs.files["h53"], inputs.files["j94"]

    def classify_h53(report):
        fg = graphs["h53"]
        table = fg.table()
        want = oracle.classify(lambda i, j: table[(i, j)], fg.top)
        return 0, oracle.check_classify(report, want)

    def commute_h53(report):
        return (0 if report["commutes"] else 1), oracle.check_commute(report, graphs["h53"])

    def regular_rep_j94(report):
        return (0 if report["passed"] else 1), oracle.check_regular_rep(report, graphs["j94"])

    jobs += [
        Job("classify:h53", ["hyper", "classify", h53], [["spec", h53]], classify_h53),
        Job("commute:h53", ["matrix", "commute", h53], [["spec", h53]], commute_h53),
        Job("regular-rep:j94", ["matrix", "regular-rep", j94], [["spec", j94]], regular_rep_j94),
    ]
    for key in sorted(k for k in inputs.files if k.startswith("rr")):
        path = inputs.files[key]
        jobs.append(
            Job(f"conditions:{key}", ["hyper", "conditions", path], [["spec", path]],
                lambda r, fg=graphs[key]: _conditions(fg, r))
        )
    jobs.append(Job("paper-regression", ["paper-regression"], [], _paper_regression))
    return jobs


def _paper_regression(report):
    problems = []
    wrong = {e["name"] for e in report["entries"] if not e["match"]}
    oracle.expect(problems, "mismatching entries", wrong, PAPER_ERRATA)
    oracle.expect(problems, "mismatching", report["mismatching"], len(PAPER_ERRATA))
    oracle.expect(problems, "passed", report["passed"], False)
    return 1, problems


def cayley_jobs(inputs, seed: int) -> list:
    free2 = oracle.free_group(2)
    ladder = oracle.vector_group((0, 2))
    line = oracle.vector_group((0,))
    z66 = oracle.vector_group((6, 6))
    z55 = oracle.vector_group((5, 5))
    h43 = oracle.FiniteGraph(hamming_graph(4, 3))
    ladder30, free7 = oracle.Window(ladder, 30), oracle.Window(free2, 7)

    def classify(window):
        return lambda r: (0, oracle.check_classify(r, window.classify()))

    def table(r):
        problems = []
        oracle.expect(problems, "table", r, free7.table_json("free:2:r=7"))
        return 0, problems

    def monte_carlo(group, pattern, trials):
        law = oracle.pattern_law(group, pattern)
        return lambda r: (0, oracle.check_monte_carlo(r, law, pattern, trials, seed))

    def law(group, pattern):
        want = oracle.pattern_law(group, pattern)
        return lambda r: (0, oracle.check_law(r, want, pattern))

    order = len(oracle.perm_closure(inputs.s5))

    def markov(r):
        problems = []
        # A uniform step makes X_1, X_2, ... i.i.d. uniform on the group,
        # so the distance process is i.i.d. and hence Markov.
        oracle.expect(problems, "group order", order, 120)
        for key, want in (("is_markov", True), ("is_iid", True), ("depth", 3),
                          ("markov_witness", None), ("iid_witness", None)):
            oracle.expect(problems, key, r[key], want)
        return 0, problems

    mc_free_trials, mc_zmod_trials = 100_000, 1_000_000
    return [
        Job("conditions:free2r6", ["hyper", "conditions", "free:2:r=6"], [["spec", "free:2:r=6"]],
            lambda r: (0, oracle.check_window_conditions(r, free2, 6))),
        Job("classify:ladder-r30", ["hyper", "classify", "ladder:r=30"], [["spec", "ladder:r=30"]], classify(ladder30)),
        Job("classify:free2r7", ["hyper", "classify", "free:2:r=7"], [["spec", "free:2:r=7"]], classify(free7)),
        Job("table:free2r7", ["hyper", "table", "free:2:r=7"], [["spec", "free:2:r=7"]], table),
        Job("conditions:zmod3^4", ["hyper", "conditions", "zmod:3,3,3,3"], [["spec", "zmod:3,3,3,3"]],
            lambda r: _conditions(h43, r)),
        Job("norms:lattice1r40", ["matrix", "norms", "lattice:1:r=40", "--k", "1"], [["spec", "lattice:1:r=40"]],
            lambda r: (0, oracle.check_norms(r, line, 40, 1))),
        Job("mc:free2", ["product", "mc", "free:2", "--pattern", "2,2,2", "--trials", str(mc_free_trials)],
            [["window", "free:2", 6]], monte_carlo(free2, (2, 2, 2), mc_free_trials)),
        Job("mc:zmod6,6", ["product", "mc", "zmod:6,6", "--pattern", "1,2,3", "--trials", str(mc_zmod_trials)],
            [["window", "zmod:6,6", 6]], monte_carlo(z66, (1, 2, 3), mc_zmod_trials)),
        Job("j:free2r7", ["product", "j", "free:2:r=7", "--pattern", "2,3,2"], [["spec", "free:2:r=7"]],
            law(free2, (2, 3, 2))),
        Job("brute:zmod5,5", ["product", "brute", "zmod:5,5", "--pattern", "2,2,2"], [["window", "zmod:5,5", 6]],
            law(z55, (2, 2, 2))),
        # resolve_spec reads any spec containing "/" as a graph-JSON path,
        # so the permutation file is passed by bare name from its directory.
        Job("markov:s5", ["walk", "markov", "perm:s5.txt", "--depth", "3"], [["full", "perm:s5.txt"]], markov,
            cwd=inputs.workdir),
    ]


def search_jobs(inputs, seed: int) -> list:
    atlas = oracle.AtlasSearch(SEARCH_MAX_VERTICES)
    n = str(SEARCH_MAX_VERTICES)
    return [
        Job(f"search:{policy}", ["search", "conjecture", "--max-vertices", n, "--bases", policy], [],
            lambda r, p=policy: (0, atlas.check(r, p)))
        for policy in ("all", "canonical")
    ]


JOB_LISTS = {"finite": finite_jobs, "cayley": cayley_jobs, "search": search_jobs}


def build(workload: str, inputs, seed: int) -> list:
    return JOB_LISTS[workload](inputs, seed)
