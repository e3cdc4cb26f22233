"""forge: exact random-walk products, verdicts, and searches over pointed graphs.

Exit codes: 0 = result produced, 1 = a verified property failed,
2 = usage or input error.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import click

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


def _emit(ctx, payload, ok: bool = True) -> None:
    """Write the report; exit 1 after it when a verified property failed."""
    cfg = ctx.obj
    data = serialize.jsonable(payload)
    if cfg["format"] == "json":
        text = serialize.dumps_json(data)
    else:
        text = serialize.dumps_tsv(_tsv_rows(data), header=("field", "value"))
    if cfg["out"]:
        with open(cfg["out"], "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)
    if not ok:
        sys.exit(FAIL)


class _ForgeGroup(click.Group):
    """The root group: any ForgeError from a subcommand exits 2 with one line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ForgeError as exc:
            click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(USAGE)


def _pattern_arg(text: str) -> tuple[int, ...]:
    try:
        pat = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise click.UsageError(f"--pattern must be comma-separated integers: {text!r}")
    if not pat:
        raise click.UsageError("--pattern must be nonempty")
    return pat


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
            idx = int(key)
        except ValueError:
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


@click.group(cls=_ForgeGroup, context_settings={"help_option_names": ["-h", "--help"]})
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write the report to a file instead of stdout.")
@click.option("--format", "fmt", type=click.Choice(["json", "tsv"]), default="json", show_default=True, help="Report serialization.")
@click.option("--seed", type=int, default=0, show_default=True, help="Monte-Carlo seed.")
@click.option("--cap-enumeration", type=int, default=ENUMERATION_CAP, help="Max step tuples that `product brute` enumerates.")
@click.option("--cap-pattern", type=int, default=PATTERN_CAP, help="Max distance patterns in the joint law of `walk joint` and `walk markov`.")
@click.option("--cap-graphs", type=int, default=DEFAULT_GRAPH_CAP, help="Max graphs that `search conjecture` enumerates.")
@click.option("--cap-window", type=int, default=WINDOW_CAP, help="Max vertices that `cayley realize` builds; fixtures and other commands keep the 200000 default.")
@click.pass_context
def main(ctx, out, fmt, seed, cap_enumeration, cap_pattern, cap_graphs, cap_window):
    """Exact hypergroup products, walk laws, and operator bounds on pointed graphs."""
    for name, cap in (
        ("--cap-enumeration", cap_enumeration),
        ("--cap-pattern", cap_pattern),
        ("--cap-graphs", cap_graphs),
        ("--cap-window", cap_window),
    ):
        if cap < 1:
            raise click.UsageError(f"{name} must be positive")
    ctx.obj = {
        "out": out,
        "format": fmt,
        "seed": seed,
        "cap_enumeration": cap_enumeration,
        "cap_pattern": cap_pattern,
        "cap_graphs": cap_graphs,
        "cap_window": cap_window,
    }


@main.group()
def graph():
    """Pointed-graph loading and assumption checks."""


@graph.command("check")
@click.argument("spec")
@click.pass_context
def graph_check(ctx, spec):
    """Verify simplicity, connectivity, local finiteness, and condition (iii)."""
    pg = fixtures.resolve_spec(spec)
    report = graphs.check_assumptions(pg)
    indices, top = graphs.index_set(pg)
    _emit(
        ctx,
        {
            "graph": pg.name,
            "vertices": pg.vertex_count,
            "index_set": {"indices": indices, "top": top},
            "assumptions": report,
        },
        ok=report.passed,
    )


@main.group()
def cayley():
    """Cayley-graph realization and translation checks."""


@cayley.command("realize")
@click.argument("spec")
@click.option("--radius", type=int, default=None, help="Window radius; omit to realize a finite group fully.")
@click.pass_context
def cayley_realize(ctx, spec, radius):
    """Realize a group window as a pointed-graph JSON object."""
    cg = cy.parse_group_spec(spec)
    cap = ctx.obj["cap_window"]
    if radius is None:
        pg = cy.realize_full(cg, cap=cap)
    else:
        pg = cy.realize_window(cg, radius, cap=cap)
    _emit(ctx, pg)


@cayley.command("s3")
@click.argument("spec")
@click.option("--radius", type=int, required=True, help="Window radius for the translation identity check.")
@click.pass_context
def cayley_s3(ctx, spec, radius):
    """Check d(v, vw) = |w| against raw window BFS."""
    report = cy.check_S3(cy.parse_group_spec(spec), radius)
    _emit(ctx, report, ok=report.passed)


@main.group()
def hyper():
    """Structure constants, classification, walk conditions."""


@hyper.command("table")
@click.argument("spec")
@click.option("--bound", type=int, default=None, help="Largest row index; defaults to the full/certifiable range.")
@click.pass_context
def hyper_table(ctx, spec, bound):
    """The table of products x_i o x_j up to the bound."""
    _emit(ctx, hypergroup.build_table(fixtures.resolve_spec(spec), bound=bound))


@hyper.command("classify")
@click.argument("spec")
@click.option("--bound", type=int, default=None)
@click.pass_context
def hyper_classify(ctx, spec, bound):
    """Hypergroup / PreHypergroupOnly verdict with the first witness."""
    _emit(ctx, hypergroup.classify(hypergroup.build_table(fixtures.resolve_spec(spec), bound=bound)))


@hyper.command("conditions")
@click.argument("spec")
@click.pass_context
def hyper_conditions(ctx, spec):
    """Assumptions, both walk conditions, and (finite only) distance regularity."""
    pg = fixtures.resolve_spec(spec)
    assumptions = graphs.check_assumptions(pg)
    s1 = hypergroup.check_S1(pg)
    s2 = hypergroup.check_S2(pg)
    payload = {"graph": pg.name, "assumptions": assumptions, "S1": s1, "S2": s2}
    if not pg.truncated:
        payload["distance_regular"] = hypergroup.check_distance_regular(pg)
    _emit(ctx, payload, ok=assumptions.passed and s1.passed and s2.passed)


@main.group()
def product():
    """m-fold products: left-nested, jump DP, brute force, Monte Carlo."""


@product.command("pl")
@click.argument("spec")
@click.option("--pattern", required=True)
@click.option("--bound", type=int, default=None)
@click.pass_context
def product_pl(ctx, spec, pattern, bound):
    """Left-nested product PL(i_1, ..., i_m)."""
    pat = _pattern_arg(pattern)
    table = hypergroup.build_table(fixtures.resolve_spec(spec), bound=bound)
    _emit(ctx, {"pattern": pat, "law": walks.left_nested_product(table, pat)})


@product.command("j")
@click.argument("spec")
@click.option("--pattern", required=True)
@click.pass_context
def product_j(ctx, spec, pattern):
    """Jump distribution J(i_1, ..., i_m)."""
    pat = _pattern_arg(pattern)
    _emit(ctx, {"pattern": pat, "law": walks.jump_distribution(fixtures.resolve_spec(spec), pat)})


@product.command("brute")
@click.argument("spec")
@click.option("--pattern", required=True)
@click.pass_context
def product_brute(ctx, spec, pattern):
    """Exact conditional law by full enumeration (Cayley graphs)."""
    pat = _pattern_arg(pattern)
    cg = cy.parse_group_spec(spec)
    law = walks.brute_force_conditional(cg, pat, cap=ctx.obj["cap_enumeration"])
    _emit(ctx, {"pattern": pat, "law": law})


@product.command("mc")
@click.argument("spec")
@click.option("--pattern", required=True)
@click.option("--trials", type=int, default=100_000, show_default=True)
@click.pass_context
def product_mc(ctx, spec, pattern, trials):
    """Monte-Carlo estimate of the conditional law (Cayley graphs)."""
    pat = _pattern_arg(pattern)
    cg = cy.parse_group_spec(spec)
    _emit(ctx, walks.monte_carlo_conditional(cg, pat, trials, seed=ctx.obj["seed"]))


@main.group()
def walk():
    """The distance process Z_n of a group random walk."""


@walk.command("joint")
@click.argument("spec")
@click.option("--alpha", default="uniform", show_default=True, help="'uniform' or a JSON file of index -> weight.")
@click.option("--depth", type=int, default=2, show_default=True)
@click.pass_context
def walk_joint(ctx, spec, alpha, depth):
    """Exact joint law of (Z_1, ..., Z_depth) for a finite Cayley walk."""
    cg = cy.parse_group_spec(spec)
    _emit(ctx, walks.joint_distance_law(cg, _alpha_arg(alpha), depth, pattern_cap=ctx.obj["cap_pattern"]))


@walk.command("markov")
@click.argument("spec")
@click.option("--alpha", default="uniform", show_default=True)
@click.option("--depth", type=int, default=3, show_default=True)
@click.pass_context
def walk_markov(ctx, spec, alpha, depth):
    """Markov / i.i.d. verdicts for the distance process."""
    cg = cy.parse_group_spec(spec)
    law = walks.joint_distance_law(cg, _alpha_arg(alpha), depth, pattern_cap=ctx.obj["cap_pattern"])
    report = walks.markov_check(law)
    _emit(ctx, report, ok=report.is_markov)


@main.group()
def matrix():
    """Transition matrices P_k and operator-norm bounds."""


@matrix.command("norms")
@click.argument("spec")
@click.option("--k", type=int, required=True)
@click.option("--bound", type=int, default=None)
@click.pass_context
def matrix_norms(ctx, spec, k, bound):
    """Exact c_k, d_k, and Rayleigh lower bounds for ||P_k||."""
    table = hypergroup.build_table(fixtures.resolve_spec(spec), bound=bound)
    _emit(ctx, matrices.norm_bounds(table, k))


@matrix.command("uniform-bound")
@click.argument("spec")
@click.pass_context
def matrix_uniform_bound(ctx, spec):
    """S = sup |S_k(v)| and the uniform bound S^2 on every ||P_k||."""
    _emit(ctx, matrices.uniform_norm_bound(fixtures.resolve_spec(spec)))


@matrix.command("commute")
@click.argument("spec")
@click.option("--bound", type=int, default=None)
@click.pass_context
def matrix_commute(ctx, spec, bound):
    """Do all P_i P_j = P_j P_i? Cross-checked against classification."""
    report = matrices.commute_check(hypergroup.build_table(fixtures.resolve_spec(spec), bound=bound))
    _emit(ctx, report, ok=report.commutes)


@matrix.command("regular-rep")
@click.argument("spec")
@click.option("--bound", type=int, default=None)
@click.pass_context
def matrix_regular_rep(ctx, spec, bound):
    """Verify P_i P_j = sum_k p[i,j][k] P_k entrywise."""
    report = matrices.verify_regular_representation(hypergroup.build_table(fixtures.resolve_spec(spec), bound=bound))
    _emit(ctx, report, ok=report.passed)


@matrix.command("stationary")
@click.argument("spec")
@click.pass_context
def matrix_stationary(ctx, spec):
    """pi_G = (|S_0|, ..., |S_M|)/|G| as a fixed vector of every P_k."""
    report = matrices.stationary_check(cy.parse_group_spec(spec))
    _emit(ctx, report, ok=report.passed)


@matrix.command("maincoro")
@click.argument("spec")
@click.option("--pattern", required=True)
@click.option("--bound", type=int, default=None)
@click.pass_context
def matrix_maincoro(ctx, spec, pattern, bound):
    """Check the product of transition matrices against the jump law."""
    report = matrices.verify_maincoro(fixtures.resolve_spec(spec), _pattern_arg(pattern), bound)
    _emit(ctx, report, ok=report.passed)


@matrix.command("irreducible")
@click.argument("spec")
@click.option("--k", type=int, required=True)
@click.option("--bound", type=int, default=None)
@click.pass_context
def matrix_irreducible(ctx, spec, k, bound):
    """Communicating classes of P_k."""
    table = hypergroup.build_table(fixtures.resolve_spec(spec), bound=bound)
    _emit(ctx, matrices.irreducibility(table, k))


@main.group("search")
def search_group():
    """Counterexample search over small connected graphs."""


@search_group.command("conjecture")
@click.option("--max-vertices", type=int, default=6, show_default=True)
@click.option("--bases", type=click.Choice(["all", "canonical"]), default="all", show_default=True)
@click.pass_context
def search_cmd(ctx, max_vertices, bases):
    """Scan for graphs that satisfy the walk conditions without being hypergroups."""
    if max_vertices > 10:
        raise click.UsageError("--max-vertices capped at 10")
    report = search.search_conjecture(max_vertices, base_policy=bases, cap=ctx.obj["cap_graphs"])
    replay_ok = True
    for entry in report.counterexamples:
        replayed = search.replay_counterexample(entry)[3]
        if replayed.verdict != entry.verdict:
            replay_ok = False
    payload = serialize.jsonable(report)
    payload["replay_verified"] = replay_ok
    _emit(ctx, payload, ok=replay_ok)


@main.command("paper-regression")
@click.pass_context
def paper_regression_cmd(ctx):
    """Recompute every published worked example; any mismatch fails the run."""
    report = regression.paper_regression()
    _emit(ctx, report, ok=report.passed)


if __name__ == "__main__":
    main()
