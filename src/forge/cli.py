"""forge: exact random-walk products, verdicts, and searches over pointed graphs.

Exit codes: 0 = result produced, 1 = a verified property failed,
2 = usage or input error.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from fractions import Fraction

# Layer functions are looked up on their modules at call time.  forge's
# __init__ registers the modules lazily, so a command runs only the layers
# it touches, and a function rebound on its module is the one called.
from . import cayley as cy, fixtures, graphs, hypergroup, matrices, regression, search, serialize, walks
from .errors import DEFAULT_GRAPH_CAP, ENUMERATION_CAP, PATTERN_CAP, WINDOW_CAP, BadParameter, ForgeError

FAIL = 1
USAGE = 2


def _tsv_rows(data, prefix=""):
    """(field, value) rows; None and an empty list or dict give one empty value."""
    if isinstance(data, (dict, list)) and data:
        pairs = data.items() if isinstance(data, dict) else enumerate(data)
        for key, item in pairs:
            yield from _tsv_rows(item, f"{prefix}.{key}" if prefix else str(key))
    else:
        yield (prefix, "" if data is None or isinstance(data, (dict, list)) else data)


def _emit(cfg, payload, ok: bool = True) -> None:
    """Write the report; exit 1 after it when a verified property failed."""
    data = serialize.jsonable(payload)
    if cfg.format == "json":
        text = serialize.dumps_json(data)
    else:
        text = serialize.dumps_tsv(_tsv_rows(data), header=("field", "value"))
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise BadParameter(f"cannot write --out {cfg.out!r}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)
        sys.stdout.flush()
    if not ok:
        sys.exit(FAIL)


def _int_arg(text: str) -> int:
    """An integer as every input is read (graphs._int_token)."""
    try:
        return graphs._int_token(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _pattern_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(_int_arg(x) for x in text.split(","))
    except argparse.ArgumentTypeError:
        raise BadParameter(f"--pattern must be comma-separated integers: {text!r}") from None


def _out_arg(path: str) -> str:
    """Refuse, before anything is computed, a path that is a directory,
    names one by its trailing "/", or whose parent is not one."""
    if os.path.isdir(path):
        raise BadParameter(f"--out {path!r} is a directory")
    try:  # "<parent>/." exists only when the parent is a directory
        os.stat(os.path.join(os.path.dirname(path.rstrip("/")), "."))
        if path.endswith("/"):  # open() would refuse it only after the run
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
    except OSError as exc:
        raise BadParameter(f"cannot write --out {path!r}: {exc.strerror}") from None
    return path


def _alpha_arg(text: str):
    """'uniform' or a JSON file mapping index -> rational weight."""
    if text == "uniform":
        return None
    try:
        with open(text, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise BadParameter(f"cannot read alpha file {text}: {exc}")
    except json.JSONDecodeError as exc:
        raise BadParameter(f"alpha file {text} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise BadParameter("alpha file must be a JSON object of index -> weight")
    alpha = {}
    for key, value in raw.items():
        try:
            idx = _int_arg(key)
        except argparse.ArgumentTypeError:
            raise BadParameter(f"alpha file key {key!r} is not an integer index")
        if idx in alpha:
            raise BadParameter(f"alpha file names index {idx} twice")
        if isinstance(value, str):
            alpha[idx] = serialize.parse_frac(value)
        elif isinstance(value, int) and not isinstance(value, bool):
            alpha[idx] = Fraction(value)
        else:
            try:
                alpha[idx] = Fraction(str(value))
            except ValueError:
                raise BadParameter(f"alpha weight {value!r} of index {idx} is not a rational")
    return alpha


class Option:
    """One argument of a command: an option that takes a value (forge has
    no flags besides --help), or the positional SPEC, which `reads` turns
    into the object the command receives."""

    def __init__(self, name, type=str, default=None, help="", required=False, choices=None, reads=None):
        self.name, self.type, self.default, self.help, self.required, self.choices = name, type, default, help, required, choices
        self.dest, self.reads = name.lstrip("-").replace("-", "_"), reads


# A command's SPEC, by what the command is called with: the pointed
# graph, its table cut at --bound, or the group.
GRAPH = Option("spec", reads=lambda cfg: fixtures.resolve_spec(cfg.spec))
TABLE = Option("spec", reads=lambda cfg: hypergroup.build_table(GRAPH.reads(cfg), bound=cfg.bound))
GROUP = Option("spec", reads=lambda cfg: cy.parse_group_spec(cfg.spec))
BOUND = Option("--bound", _int_arg)
PATTERN = Option("--pattern", _pattern_arg, required=True)

ROOT_HELP = "Exact hypergroup products, walk laws, and operator bounds on pointed graphs."
ROOT_OPTIONS = (
    Option("--out", _out_arg, help="Write the report to a file instead of stdout."),
    Option("--format", default="json", help="Report serialization.", choices=("json", "tsv")),
    Option("--seed", _int_arg, 0, "Monte-Carlo seed."),
    Option("--cap-enumeration", _int_arg, ENUMERATION_CAP, "Max step tuples that `product brute` enumerates."),
    Option("--cap-pattern", _int_arg, PATTERN_CAP, "Max distance patterns in the joint law of `walk joint` and `walk markov`."),
    Option("--cap-graphs", _int_arg, DEFAULT_GRAPH_CAP, "Max graphs that `search conjecture` enumerates."),
    Option("--cap-window", _int_arg, WINDOW_CAP, "Max vertices that `cayley realize` builds; fixtures and other commands keep the 200000 default."),
)
GROUPS = {
    "graph": "Pointed-graph loading and assumption checks.",
    "cayley": "Cayley-graph realization and translation checks.",
    "hyper": "Structure constants, classification, walk conditions.",
    "product": "m-fold products: left-nested, jump DP, brute force, Monte Carlo.",
    "walk": "The distance process Z_n of a group random walk.",
    "matrix": "Transition matrices P_k and operator-norm bounds.",
    "search": "Counterexample search over small connected graphs.",
}
# "group name" or "name" -> (function, its options); the function's
# docstring is the command's help.
COMMANDS: dict = {}


def _command(path: str, *options: Option):
    def register(fn):
        COMMANDS[path] = (fn, options)
        return fn

    return register


@_command("graph check", GRAPH)
def graph_check(cfg, pg):
    """Verify simplicity, connectivity, local finiteness, and condition (iii)."""
    report = graphs.check_assumptions(pg)
    indices, top = graphs.index_set(pg)
    index_set = {"indices": indices, "top": top}
    payload = {"graph": pg.name, "vertices": pg.vertex_count, "index_set": index_set, "assumptions": report}
    _emit(cfg, payload, ok=report.passed)


@_command("cayley realize", GROUP, Option("--radius", _int_arg, help="Window radius; omit to realize a finite group fully."))
def cayley_realize(cfg, cg):
    """Realize a group window as a pointed-graph JSON object."""
    if cfg.radius is None:
        _emit(cfg, cy.realize_full(cg, cap=cfg.cap_window))
    else:
        _emit(cfg, cy.realize_window(cg, cfg.radius, cap=cfg.cap_window))


@_command("cayley s3", GROUP, Option("--radius", _int_arg, help="Window radius for the translation identity check.", required=True))
def cayley_s3(cfg, cg):
    """Check d(v, vw) = |w| against raw window BFS."""
    report = cy.check_S3(cg, cfg.radius)
    _emit(cfg, report, ok=report.passed)


@_command("hyper table", TABLE, Option("--bound", _int_arg, help="Largest row index; defaults to the full/certifiable range."))
def hyper_table(cfg, table):
    """The table of products x_i o x_j up to the bound."""
    _emit(cfg, table)


@_command("hyper classify", TABLE, BOUND)
def hyper_classify(cfg, table):
    """Hypergroup / PreHypergroupOnly verdict with the first witness."""
    _emit(cfg, hypergroup.classify(table))


@_command("hyper conditions", GRAPH)
def hyper_conditions(cfg, pg):
    """Assumptions, both walk conditions, and (finite only) distance regularity."""
    assumptions = graphs.check_assumptions(pg)
    s1 = hypergroup.check_S1(pg)
    s2 = hypergroup.check_S2(pg)
    payload = {"graph": pg.name, "assumptions": assumptions, "S1": s1, "S2": s2}
    if not pg.truncated:
        payload["distance_regular"] = hypergroup.check_distance_regular(pg)
    _emit(cfg, payload, ok=assumptions.passed and s1.passed and s2.passed)


@_command("product pl", TABLE, PATTERN, BOUND)
def product_pl(cfg, table):
    """Left-nested product PL(i_1, ..., i_m)."""
    _emit(cfg, {"pattern": cfg.pattern, "law": walks.left_nested_product(table, cfg.pattern)})


@_command("product j", GRAPH, PATTERN)
def product_j(cfg, pg):
    """Jump distribution J(i_1, ..., i_m)."""
    _emit(cfg, {"pattern": cfg.pattern, "law": walks.jump_distribution(pg, cfg.pattern)})


@_command("product brute", GROUP, PATTERN)
def product_brute(cfg, cg):
    """Exact conditional law by full enumeration (Cayley graphs)."""
    law = walks.brute_force_conditional(cg, cfg.pattern, cap=cfg.cap_enumeration)
    _emit(cfg, {"pattern": cfg.pattern, "law": law})


@_command("product mc", GROUP, PATTERN, Option("--trials", _int_arg, 100_000))
def product_mc(cfg, cg):
    """Monte-Carlo estimate of the conditional law (Cayley graphs)."""
    _emit(cfg, walks.monte_carlo_conditional(cg, cfg.pattern, cfg.trials, seed=cfg.seed))


@_command(
    "walk joint",
    GROUP,
    Option("--alpha", default="uniform", help="'uniform' or a JSON file of index -> weight."),
    Option("--depth", _int_arg, 2),
)
def walk_joint(cfg, cg):
    """Exact joint law of (Z_1, ..., Z_depth) for a finite Cayley walk."""
    _emit(cfg, walks.joint_distance_law(cg, _alpha_arg(cfg.alpha), cfg.depth, pattern_cap=cfg.cap_pattern))


@_command("walk markov", GROUP, Option("--alpha", default="uniform"), Option("--depth", _int_arg, 3))
def walk_markov(cfg, cg):
    """Markov / i.i.d. verdicts for the distance process."""
    law = walks.joint_distance_law(cg, _alpha_arg(cfg.alpha), cfg.depth, pattern_cap=cfg.cap_pattern)
    report = walks.markov_check(law)
    _emit(cfg, report, ok=report.is_markov)


@_command("matrix norms", TABLE, Option("--k", _int_arg, required=True), BOUND)
def matrix_norms(cfg, table):
    """Exact c_k, d_k, and Rayleigh lower bounds for ||P_k||."""
    _emit(cfg, matrices.norm_bounds(table, cfg.k))


@_command("matrix uniform-bound", GRAPH)
def matrix_uniform_bound(cfg, pg):
    """S = sup |S_k(v)| and the uniform bound S^2 on every ||P_k||."""
    _emit(cfg, matrices.uniform_norm_bound(pg))


@_command("matrix commute", TABLE, BOUND)
def matrix_commute(cfg, table):
    """Do all P_i P_j = P_j P_i? Cross-checked against classification."""
    report = matrices.commute_check(table)
    _emit(cfg, report, ok=report.commutes)


@_command("matrix regular-rep", TABLE, BOUND)
def matrix_regular_rep(cfg, table):
    """Verify P_i P_j = sum_k p[i,j][k] P_k entrywise."""
    report = matrices.verify_regular_representation(table)
    _emit(cfg, report, ok=report.passed)


@_command("matrix stationary", GROUP)
def matrix_stationary(cfg, cg):
    """pi_G = (|S_0|, ..., |S_M|)/|G| as a fixed vector of every P_k."""
    report = matrices.stationary_check(cg)
    _emit(cfg, report, ok=report.passed)


@_command("matrix maincoro", GRAPH, PATTERN, BOUND)
def matrix_maincoro(cfg, pg):
    """Check the product of transition matrices against the jump law."""
    report = matrices.verify_maincoro(pg, cfg.pattern, cfg.bound)
    _emit(cfg, report, ok=report.passed)


@_command("matrix irreducible", TABLE, Option("--k", _int_arg, required=True), BOUND)
def matrix_irreducible(cfg, table):
    """Communicating classes of P_k."""
    _emit(cfg, matrices.irreducibility(table, cfg.k))


@_command(
    "search conjecture",
    Option("--max-vertices", _int_arg, 6),
    Option("--bases", default="all", choices=("all", "canonical")),
)
def search_cmd(cfg):
    """Scan for graphs that satisfy the walk conditions without being hypergroups."""
    if cfg.max_vertices > 10:
        raise BadParameter("--max-vertices capped at 10")
    report = search.search_conjecture(cfg.max_vertices, base_policy=cfg.bases, cap=cfg.cap_graphs)
    replay_ok = all([search.replay_counterexample(e)[3].verdict == e.verdict for e in report.counterexamples])
    payload = serialize.jsonable(report)
    payload["replay_verified"] = replay_ok
    _emit(cfg, payload, ok=replay_ok)


@_command("paper-regression")
def paper_regression_cmd(cfg):
    """Recompute every published worked example; any mismatch fails the run."""
    report = regression.paper_regression()
    _emit(cfg, report, ok=report.passed)


class _Parser(argparse.ArgumentParser):
    """Options are never abbreviated, and a usage error raises BadParameter,
    so that it exits 2 with one `error:` line like every other bad input."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise BadParameter(message)


def _add(parser, option: Option) -> None:
    if not option.name.startswith("-"):
        parser.add_argument(option.dest, metavar=option.name.upper())
        return
    note = "required" if option.required else f"default: {option.default}"
    parser.add_argument(option.name, type=option.type, default=option.default, required=option.required,
                        choices=option.choices, help=f"{option.help} [{note}]".lstrip())


def _parser(prog_name: str, only: str | None = None) -> _Parser:
    """The command tree, or only the branch of the command path `only`."""
    root = _Parser(prog=prog_name, description=ROOT_HELP)
    for option in ROOT_OPTIONS:
        _add(root, option)
    commands = root.add_subparsers(dest="command", required=True)
    groups = {}
    for path in (only,) if only else COMMANDS:
        fn, options = COMMANDS[path]
        *group, name = path.split()
        if group and group[0] not in groups:
            sub = commands.add_parser(group[0], help=GROUPS[group[0]], description=GROUPS[group[0]])
            groups[group[0]] = sub.add_subparsers(dest="subcommand", required=True)
        leaf = (groups[group[0]] if group else commands).add_parser(name, help=fn.__doc__, description=fn.__doc__)
        for option in options:
            _add(leaf, option)
        leaf.set_defaults(path=path)
    return root


# Every option takes a value.  Each is joined to its value as --opt=value
# before parsing, so that a value starting with "-" (the pattern -5,1)
# stays a value.
_ROOT_NAMES = {o.name for o in ROOT_OPTIONS}
_VALUED = _ROOT_NAMES | {o.name for _, opts in COMMANDS.values() for o in opts if o.name.startswith("--")}


def _joined(args) -> list[str]:
    out = []
    for arg in args:
        if out and out[-1] in _VALUED:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _named_path(args) -> str | None:
    """The command path that the joined args name right after the root
    options (each one --opt=value token), unless a token could be read as
    the help flag.  Otherwise None: the whole tree lists every command."""
    if any(arg.startswith(("-h", "--h")) for arg in args):
        return None
    i = next((i for i, arg in enumerate(args) if arg.split("=")[0] not in _ROOT_NAMES), len(args))
    named = (" ".join(args[i : i + 2]), " ".join(args[i : i + 1]))
    return next((path for path in named if path in COMMANDS), None)


def main(args=None, prog_name: str = "forge") -> None:
    """Run `forge <args>` (default sys.argv[1:]): the report on stdout, exit 1
    when a verified property failed, exit 2 with one `error:` line on stderr
    for bad usage or input."""
    try:
        args = _joined(sys.argv[1:] if args is None else args)
        cfg = _parser(prog_name, _named_path(args)).parse_args(args)
        for option in ROOT_OPTIONS:
            if option.name.startswith("--cap-") and getattr(cfg, option.dest) < 1:
                raise BadParameter(f"{option.name} must be positive")
        fn, options = COMMANDS[cfg.path]
        fn(cfg, *(option.reads(cfg) for option in options if option.reads))
    except ForgeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(USAGE)


# perfbench/trace_run.py calls the entry point as click spelled it:
# main.main(args=..., prog_name="forge", standalone_mode=False).
main.main = lambda args=None, prog_name="forge", standalone_mode=True: main(args, prog_name)


if __name__ == "__main__":
    main()
