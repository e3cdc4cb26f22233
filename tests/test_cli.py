"""End-to-end CLI contract: subcommands, formats, and exit codes.

Exit code 0 means a result was produced, 1 means a verified property
failed, 2 means the request itself was unusable.
"""

import contextlib
import hashlib
import inspect
import io
import json
import os
import re
import subprocess
import sys

import pytest
from conftest import run_forge

from forge import cayley as cy
from forge import cli, fixtures, hypergroup, search
from forge.cli import COMMANDS, ROOT_OPTIONS
from forge.errors import BadParameter, WindowOverflow


@pytest.fixture()
def runner():
    return run_forge


def run(runner, args):
    return runner(args)


def payload(result):
    return json.loads(result.output)


def test_graph_check_passes(runner):
    result = run(runner, ["graph", "check", "cycle:5"])
    assert result.exit_code == 0
    data = payload(result)
    assert data["assumptions"]["passed"] is True
    assert data["index_set"]["indices"] == [0, 1, 2]


def test_graph_check_condition_failure_exits_1(runner, tmp_path):
    path = tmp_path / "path3.json"
    path.write_text(json.dumps({"vertices": 3, "edges": [[0, 1], [1, 2]], "base": 0}))
    result = run(runner, ["graph", "check", str(path)])
    assert result.exit_code == 1
    assert payload(result)["assumptions"]["condition_iii"] == "fail"


def test_input_error_exits_2_with_error_line(runner, tmp_path):
    path = tmp_path / "disconnected.json"
    path.write_text(
        json.dumps({"vertices": 4, "edges": [[0, 1], [2, 3]], "base": 0})
    )
    result = run(runner, ["graph", "check", str(path)])
    assert result.exit_code == 2
    assert "error: DisconnectedGraph:" in result.stderr


def test_unknown_fixture_exits_2(runner):
    result = run(runner, ["hyper", "classify", "mobius:7"])
    assert result.exit_code == 2
    assert "error: UnknownFixture:" in result.stderr


def test_cayley_realize_roundtrip(runner, tmp_path):
    out = tmp_path / "window.json"
    result = run(
        runner,
        ["--out", str(out), "cayley", "realize", "lattice:1", "--radius", "6"],
    )
    assert result.exit_code == 0
    data = json.loads(out.read_text())
    assert data["vertices"] == 13
    assert data["truncated"] is True and data["exact_radius"] == 6
    check = run(runner, ["graph", "check", str(out)])
    assert check.exit_code == 0


def test_cayley_s3(runner):
    result = run(runner, ["cayley", "s3", "zmod:6", "--radius", "3"])
    assert result.exit_code == 0
    assert payload(result)["passed"] is True


def test_cayley_commands_accept_cayley_backed_fixtures(runner):
    result = run(runner, ["cayley", "s3", "cycle:5", "--radius", "2"])
    assert result.exit_code == 0
    assert payload(result)["passed"] is True
    prism = run(runner, ["cayley", "realize", "prism:4"])
    assert prism.exit_code == 0
    assert prism.stdout == run(runner, ["cayley", "realize", "zmod:4,2"]).stdout


def test_hyper_table_and_classify(runner):
    table = run(runner, ["hyper", "table", "prism:3"])
    assert table.exit_code == 0
    rows = payload(table)["rows"]
    assert rows["1,1"] == {"0": "1/3", "1": "2/9", "2": "4/9"}

    verdict = run(runner, ["hyper", "classify", "prism:3"])
    assert verdict.exit_code == 0
    assert payload(verdict)["verdict"] == "Hypergroup"

    tree = run(runner, ["hyper", "classify", "tree:binary:12"])
    assert tree.exit_code == 0
    data = payload(tree)
    assert data["verdict"] == "PreHypergroupOnly"
    assert data["witness"]["kind"] == "commutativity"


def test_hyper_conditions_exit_codes(runner):
    good = run(runner, ["hyper", "conditions", "cycle:6"])
    assert good.exit_code == 0
    assert payload(good)["distance_regular"]["passed"] is True

    bad = run(runner, ["hyper", "conditions", "tree:binary:12"])
    assert bad.exit_code == 1
    data = payload(bad)
    assert data["S1"]["passed"] is False
    assert "distance_regular" not in data


def test_product_commands_agree(runner):
    args = ["--pattern", "1,2,1"]
    pl = run(runner, ["product", "pl", "prism:3", *args])
    j = run(runner, ["product", "j", "prism:3", *args])
    brute = run(runner, ["product", "brute", "prism:3", *args])
    assert pl.exit_code == j.exit_code == brute.exit_code == 0
    assert payload(pl)["law"] == {"0": "2/9", "1": "10/27", "2": "11/27"}
    assert payload(j)["law"] == {"0": "2/9", "1": "1/3", "2": "4/9"}
    assert payload(brute)["law"] == payload(j)["law"]


def assert_one_error_line(result, line):
    assert (result.exit_code, result.stdout, result.stderr) == (2, "", f"error: {line}\n")


def test_product_pattern_validation(runner):
    result = run(runner, ["product", "j", "prism:3", "--pattern", "1,x"])
    assert_one_error_line(result, "BadParameter: --pattern must be comma-separated integers: '1,x'")
    result = run(runner, ["product", "j", "prism:3", "--pattern", "9"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: IndexOutOfRange: ") and result.stderr.count("\n") == 1


def test_product_mc_respects_seed(runner):
    base = ["product", "mc", "zmod:4", "--pattern", "1,1", "--trials", "5000"]
    a = run(runner, ["--seed", "7", *base])
    b = run(runner, ["--seed", "7", *base])
    c = run(runner, ["--seed", "8", *base])
    assert a.exit_code == 0
    assert payload(a) == payload(b)
    assert payload(a) != payload(c)
    assert payload(a)["seed"] == 7


def test_walk_joint_and_markov(runner, tmp_path):
    joint = run(runner, ["walk", "joint", "zmod:4", "--depth", "2"])
    assert joint.exit_code == 0
    assert payload(joint)["law"]["0,0"] == "1/16"

    markov = run(runner, ["walk", "markov", "zmod:4"])
    assert markov.exit_code == 0
    assert payload(markov)["is_iid"] is True

    alpha = tmp_path / "alpha.json"
    alpha.write_text(json.dumps({"0": "1/4", "1": "1/6", "2": "1/8"}))
    skew = run(runner, ["walk", "markov", "zmod:3,2", "--alpha", str(alpha)])
    assert skew.exit_code == 1
    assert payload(skew)["is_markov"] is False


def test_matrix_norms_and_uniform_bound(runner):
    norms = run(
        runner, ["matrix", "norms", "lattice:1:r=12", "--k", "1", "--bound", "6"]
    )
    assert norms.exit_code == 0
    data = payload(norms)
    assert data["c"] == "5/4" and data["d"] == 2
    assert data["upper_sq"] == "5/2"

    bound = run(runner, ["matrix", "uniform-bound", "ladder:r=5"])
    assert bound.exit_code == 0
    assert payload(bound)["s"] == 4 and payload(bound)["bound"] == 16


def test_matrix_commute_exit_codes(runner):
    good = run(runner, ["matrix", "commute", "cycle:4"])
    assert good.exit_code == 0
    bad = run(runner, ["matrix", "commute", "lattice:2:r=9", "--bound", "3"])
    assert bad.exit_code == 1
    assert payload(bad)["agrees_with_associative"] is True


def test_matrix_regular_rep(runner):
    result = run(runner, ["matrix", "regular-rep", "lattice:1:r=12", "--bound", "6"])
    assert result.exit_code == 0
    assert payload(result)["pairs_skipped"] == 21


def test_matrix_stationary(runner):
    result = run(runner, ["matrix", "stationary", "zmod:3,2"])
    assert result.exit_code == 0
    assert payload(result)["pi"] == ["1/6", "1/2", "1/3"]


def test_matrix_maincoro(runner):
    result = run(runner, ["matrix", "maincoro", "odd:3", "--pattern", "1,2,1"])
    assert result.exit_code == 0
    tree = run(runner, ["matrix", "maincoro", "tree:binary:12", "--pattern", "1,1"])
    assert tree.exit_code == 1


def test_matrix_irreducible(runner):
    result = run(runner, ["matrix", "irreducible", "cycle:4", "--k", "2"])
    assert result.exit_code == 0
    assert payload(result)["classes"] == [[0, 2], [1]]


# `matrix stationary` reports pinned as (exit code, sha256 of `--format
# json` stdout), taken from the dense-matrix check.
STATIONARY_JSON = {
    "zmod:3,2": (0, "94d3d4dac7c9706f3e93a6bc8c8f775616fe26eb250ad093c17b6a611a83ddc7"),
    "zmod:5": (0, "20d4c08e187a54f363e1846d1f44f7cea4588bf6892b9c725ec469d5e29da150"),
    "zmod:3,3,3": (0, "b50fdedbedf88cee3c838244ddc5cee79ee79327e5f689b34bb1b2e33cd95d02"),
    "zmod:6,6": (0, "206fdfe81b3054ab5b6c5f444dd20ddeb486002610c8e25ab2838d35cab74ea8"),
}


@pytest.mark.parametrize("spec", list(STATIONARY_JSON))
def test_stationary_reports_are_pinned(runner, spec):
    result = run(runner, ["--format", "json", "matrix", "stationary", spec])
    digest = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()
    assert (result.exit_code, digest) == STATIONARY_JSON[spec]


@pytest.mark.parametrize(
    "line, code",
    [
        ("matrix commute cycle:6 --bound 1", 0),
        ("matrix regular-rep cycle:6 --bound 1", 0),
        ("matrix maincoro cycle:6 --bound 1 --pattern 1", 0),
        ("matrix norms cycle:6 --bound 1 --k 1", 0),
        ("matrix commute odd:4 --bound 2", 0),
        ("matrix irreducible cycle:6 --bound 1 --k 1", 2),
        ("matrix maincoro cycle:6 --bound 1 --pattern 3,3", 2),
    ],
)
def test_matrix_commands_on_a_finite_graph_below_its_top_index(runner, line, code):
    """A finite graph's table cut below its top index is truncated like a
    window: a report, or bad input as one error line, never a traceback."""
    result = run(runner, line.split())
    assert result.exit_code == code
    assert "Traceback" not in result.output
    if code == 2:
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1
    else:
        assert payload(result)


def test_norms_below_the_top_index_report_the_window_scope(runner):
    result = run(runner, ["matrix", "norms", "cycle:6", "--bound", "1", "--k", "0"])
    assert result.exit_code == 0
    data = payload(result)
    assert data["window_sup"] is True
    assert data["scope"] == "block of columns j <= 1 (window-sup)"


def test_search_conjecture(runner):
    result = run(runner, ["search", "conjecture", "--max-vertices", "5"])
    assert result.exit_code == 0
    data = payload(result)
    assert data["counterexamples"] == []
    assert data["replay_verified"] is True
    result = run(runner, ["search", "conjecture", "--max-vertices", "11"])
    assert_one_error_line(result, "BadParameter: --max-vertices capped at 10")


def test_paper_regression_reports_known_mismatches(runner):
    result = run(runner, ["paper-regression"])
    assert result.exit_code == 1
    data = payload(result)
    names = {e["name"] for e in data["entries"] if not e["match"]}
    assert names == {"tree-j-112", "zline-rayleigh-geometric"}


def tsv_fields(result):
    return [line.split("\t")[0] for line in result.output.splitlines()]


def test_tsv_rows_follow_report_field_order(runner):
    result = run(runner, ["--format", "tsv", "hyper", "conditions", "prism:3"])
    assert result.exit_code == 1
    assert tsv_fields(result) == [
        "field",
        "graph",
        "assumptions.simple",
        "assumptions.connected",
        "assumptions.locally_finite",
        "assumptions.condition_iii",
        "assumptions.witness",
        "assumptions.passed",
        "S1.condition",
        "S1.passed",
        "S1.witness",
        "S1.scope",
        "S1.checked",
        "S2.condition",
        "S2.passed",
        *(f"S2.witness.{i}" for i in range(7)),
        "S2.scope",
        "S2.checked",
        "distance_regular.passed",
        "distance_regular.diameter",
        "distance_regular.intersection_numbers",
        *(f"distance_regular.witness.{i}" for i in range(9)),
    ]


def test_tsv_rows_of_a_search_follow_report_field_order(runner):
    args = ["search", "conjecture", "--max-vertices", "4"]
    entries = payload(run(runner, args))["classified"]
    result = run(runner, ["--format", "tsv", *args])
    assert result.exit_code == 0
    expected = [
        "field",
        "max_vertices",
        "base_policy",
        *(f"graph_counts.{n}" for n in range(1, 5)),
        "pointed_examined",
        "rejected_condition",
        "rejected_walk",
    ]
    for idx, entry in enumerate(entries):
        row = f"classified.{idx}"
        expected.append(f"{row}.vertices")
        edges = [f"{row}.edges.{e}.{end}" for e in range(len(entry["edges"])) for end in (0, 1)]
        # An empty list keeps one row with an empty value.
        expected += edges or [f"{row}.edges"]
        expected += [
            f"{row}.{name}"
            for name in ("base", "commutative", "associative", "verdict", "witness")
        ]
    expected += ["counterexamples", "conjecture_holds", "replay_verified"]
    assert len(entries) == 14
    assert tsv_fields(result) == expected
    assert "counterexamples\t" in result.stdout.splitlines()
    assert "classified.0.edges\t" in result.stdout.splitlines()


def test_tsv_format(runner):
    result = run(runner, ["--format", "tsv", "hyper", "classify", "cycle:4"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "field\tvalue"
    assert any(line.startswith("verdict\tHypergroup") for line in lines)


def test_bad_cap_rejected(runner):
    result = run(runner, ["--cap-window", "0", "graph", "check", "cycle:4"])
    assert_one_error_line(result, "BadParameter: --cap-window must be positive")


def test_perm_fixture_with_generator_file_in_a_subdirectory(runner, tmp_path, monkeypatch):
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "s5.txt").write_text("(0 1)\n(0 1 2 3 4)\n(0 4 3 2 1)\n")
    monkeypatch.chdir(tmp_path)
    result = run(runner, ["hyper", "conditions", "perm:d/s5.txt:r=2"])
    assert result.exit_code == 0
    data = payload(result)
    assert data["graph"] == "perm:d/s5.txt:r=2"
    assert data["S1"]["passed"] and data["S2"]["passed"]


def test_a_group_above_the_window_cap_exits_2_with_one_line(runner, tmp_path, monkeypatch):
    """A permutation group is bounded by the window cap when it is
    realized, not when its spec is parsed: S5 (120 elements) under a cap
    of 119, through --cap-window and through realize_full's default."""
    path = tmp_path / "s5.txt"
    path.write_text("(0 1)\n(0 1 2 3 4)\n(0 4 3 2 1)\n")
    spec = f"perm:{path}"
    cg = cy.parse_group_spec(spec)
    monkeypatch.setattr(cy.realize_full, "__defaults__", (119,))
    for args in (["--cap-window", "119", "cayley", "realize", spec], ["hyper", "conditions", spec]):
        result = run(runner, args)
        assert result.exit_code == 2, args
        assert result.stderr.startswith("error: WindowOverflow: ")
        assert result.stderr.count("\n") == 1 and result.stdout == ""
    with pytest.raises(WindowOverflow):
        cy.realize_full(cg)
    monkeypatch.undo()
    assert cy.realize_full(cg).vertex_count == 120


def _spec_args(path, options, spec):
    """The command on a spec, with "1" for each required option."""
    args = [*path.split(), spec]
    for option in options:
        if option.required:
            args += [option.name, "1"]
    return args


SPEC_COMMANDS = [
    _spec_args(path, options, "nosuch:1")
    for path, (_, options) in sorted(COMMANDS.items())
    if any(option.reads for option in options)
]


def test_every_spec_command_is_walked():
    assert len(SPEC_COMMANDS) == 19


@pytest.mark.parametrize(
    "args",
    [*SPEC_COMMANDS, ["search", "conjecture", "--max-vertices", "0"]],
    ids=" ".join,
)
def test_bad_input_exits_2_with_one_error_line(runner, args):
    """Exit-code contract: bad input is exit 2 with an `error:` line, no
    report and no traceback (an uncaught exception would fail the run)."""
    result = run(runner, args)
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize(
    "graph",
    [
        {"vertices": "three", "edges": [[0, 1], [1, 2]], "base": 0},
        {"vertices": 3, "edges": [[0, 1], [1, 2]], "base": 0, "labels": {"a": "x"}},
        {"vertices": 3, "edges": [[0, 1], [1, 2]], "base": 0, "truncated": True},
        {"vertices": 3.9, "edges": [[0, 1], [1, 2]], "base": 0},
        {"vertices": True, "edges": [], "base": 0},
        {"vertices": 3, "edges": [[0, 1], [1, 2]], "base": 0.7},
        {"vertices": 3, "edges": [[0, 1], [1.5, 2]], "base": 0},
        {"vertices": 3, "edges": [[0, 1], [1, 2]], "base": 0, "truncated": True, "exact_radius": 2.9},
        {"vertices": 3, "edges": [[0, 1], [1, 2]], "base": 0, "truncated": "no"},
        {"vertices": 3, "edges": 5, "base": 0},
        {"vertices": 3, "edges": [[0, 1, 2], [1, 2]], "base": 0},
        {"vertices": 3, "edges": ["01", "12"], "base": 0},
        {"vertices": 3, "edges": [[0, 1], [1, 2]], "base": 0, "labels": {"0": "a", "00": "b"}},
    ],
    ids=[
        "vertices-not-integer",
        "label-key-not-integer",
        "window-without-radius",
        "vertices-fractional",
        "vertices-boolean",
        "base-fractional",
        "edge-endpoint-fractional",
        "exact-radius-fractional",
        "truncated-not-boolean",
        "edges-not-a-list",
        "edge-not-a-pair",
        "edge-is-a-string",
        "label-key-repeated",
    ],
)
def test_malformed_graph_json_exits_2(runner, tmp_path, graph):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(graph))
    result = run(runner, ["graph", "check", str(path)])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: BadParameter:")
    assert result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize(
    "alpha",
    [
        {"a": "1/2"},
        {"1": [1, 2]},
        {"0": None},
        {"0": True},
        {"0": False, "1": "1/2"},
        {"0": "1/2", "1": "1/4", "01": "1/8", "2": "1/4"},
    ],
    ids=[
        "key-not-integer",
        "weight-is-a-list",
        "weight-is-null",
        "weight-is-true",
        "weight-is-false",
        "index-repeated",
    ],
)
def test_malformed_alpha_file_exits_2(runner, tmp_path, alpha):
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps(alpha))
    result = run(runner, ["walk", "joint", "zmod:4", "--alpha", str(path)])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: BadParameter: alpha")
    assert result.stderr.count("\n") == 1
    assert "Usage:" not in result.stderr
    if list(alpha) == ["0"]:
        line = f"error: BadParameter: alpha weight {alpha['0']!r} of index 0 is not a rational\n"
        assert result.stderr == line
    assert "Traceback" not in result.output + result.stderr


@pytest.mark.parametrize("max_vertices", ["0", "-3"])
def test_search_max_vertices_below_one_exits_2(runner, max_vertices):
    result = run(runner, ["search", "conjecture", "--max-vertices", max_vertices])
    assert result.exit_code == 2
    assert "error: BadParameter:" in result.stderr
    assert result.stdout == ""


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _python(*args):
    """Run a fresh interpreter with this checkout's src first on the path."""
    src = os.path.join(REPO, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_numpy_is_imported_only_when_needed():
    script = (
        "import os, sys\n"
        "import forge.cli\n"
        "print('numpy' in sys.modules)\n"
        "forge.cli.main(['--out', os.devnull, 'search', 'conjecture', '--max-vertices', '4'])\n"
        "print('numpy' in sys.modules)\n"
    )
    done = _python("-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False"]


def _loaded_at_exit(args, *modules):
    """(exit code, whether any of modules, by default numpy, was imported)
    for `forge args` run as its own process, read by an exit hook after the
    CLI has exited."""
    modules = modules or ("numpy",)
    script = (
        "import atexit, sys\n"
        f"atexit.register(lambda: print(any(m in sys.modules for m in {modules!r}), file=sys.stderr))\n"
        "from forge.cli import main\n"
        "main(sys.argv[1:], prog_name='forge')\n"
    )
    done = _python("-c", script, *args)
    return done.returncode, done.stderr.split()[-1]


def test_finite_graph_runs_do_not_import_numpy(tmp_path):
    # Distance regularity is decided on integer bitsets, so the finite
    # graph commands and the regression suite never load numpy; only the
    # Monte-Carlo sampler does.
    petersen = tmp_path / "petersen.json"
    petersen.write_text(json.dumps({
        "vertices": 10,
        "edges": [[u, (u + 1) % 5] for u in range(5)] + [[u, u + 5] for u in range(5)]
        + [[5 + u, 5 + (u + 2) % 5] for u in range(5)],
        "base": 0,
    }))
    assert _loaded_at_exit(["hyper", "conditions", str(petersen)]) == (0, "False")
    assert _loaded_at_exit(["hyper", "conditions", "prism:3"]) == (1, "False")
    assert _loaded_at_exit(["paper-regression"]) == (1, "False")
    mc = ["product", "mc", "zmod:5", "--pattern", "1,2", "--trials", "10"]
    assert _loaded_at_exit(mc) == (0, "True")


@pytest.mark.parametrize(
    "args, code",
    [
        (["hyper", "conditions", "odd:3"], 0),
        (["product", "mc", "zmod:5", "--pattern", "1,2", "--trials", "10"], 0),
        (["paper-regression"], 1),
        (["product", "j", "prism:3", "--pattern", "1,x"], 2),
        (["--help"], 0),
    ],
    ids=["hyper", "mc", "paper-regression", "usage-error", "help"],
)
def test_no_command_imports_click(args, code):
    # The CLI parses with the standard library's argparse.
    assert _loaded_at_exit(args, "click") == (code, "False")


@pytest.mark.parametrize(
    "args, code",
    [
        (["hyper", "conditions", "odd:3"], 0),
        (["search", "conjecture", "--max-vertices", "4"], 0),
        (["paper-regression"], 1),
        (["cayley", "realize", "free:2", "--radius", "2"], 0),
        (["--help"], 0),
        (["product", "j", "prism:3", "--pattern", "1,x"], 2),
    ],
    ids=["hyper", "search", "paper-regression", "cayley", "help", "usage-error"],
)
def test_no_command_imports_dataclasses_or_inspect(args, code):
    # No forge class is a dataclass, so no job pays for importing
    # dataclasses and, through it, inspect, ast, dis and tokenize.
    assert _loaded_at_exit(args, "dataclasses", "inspect") == (code, "False")


@pytest.mark.parametrize("path", ["", *sorted(COMMANDS)])
def test_help_lists_every_option_with_its_default_and_help(runner, monkeypatch, path):
    monkeypatch.setenv("COLUMNS", "1000")  # one line per option
    result = run(runner, [*path.split(), "--help"])
    assert (result.exit_code, result.stderr) == (0, "")
    assert result.stdout.startswith(f"usage: forge {path}".rstrip() + " ")
    # Each option's entry: its line and the indented lines below it.
    entries = re.split(r"\n(?=  -)", result.stdout.split("\noptions:\n")[1])
    options = COMMANDS[path][1] if path else ROOT_OPTIONS
    for option in options:
        if option.reads:
            assert "SPEC" in result.stdout.splitlines()[0]
            continue
        (entry,) = [e for e in entries if e.startswith(f"  {option.name} ")]
        text = " ".join(entry.split())
        assert option.help in text
        assert ("[required]" if option.required else f"[default: {option.default}]") in text


@pytest.mark.parametrize(
    "args, line",
    [
        (["product", "j", "prism:3", "--pattern", "1,x"], "--pattern must be comma-separated integers: '1,x'"),
        (["search", "conjecture", "--max-vertices", "11"], "--max-vertices capped at 10"),
        (["--cap-window", "0", "graph", "check", "cycle:4"], "--cap-window must be positive"),
        (["graph", "check", "cycle:4", "--bound", "1"], "unrecognized arguments: --bound=1"),
        (["hyper", "table", "cycle:4", "--bou", "1"], "unrecognized arguments: --bou 1"),
        (["graph", "check"], "the following arguments are required: SPEC"),
        (["--format", "xml", "graph", "check", "cycle:4"], "argument --format: invalid choice: 'xml' (choose from 'json', 'tsv')"),
        (["matrix", "norms", "cycle:5", "--k", "x"], "argument --k: invalid int value: 'x'"),
        (["graph", "draw", "cycle:4"], "argument subcommand: invalid choice: 'draw' (choose from 'check')"),
        (["product", "j", "prism:3"], "the following arguments are required: --pattern"),
    ],
    ids=[
        "pattern", "max-vertices", "cap", "unknown-option", "abbreviated-option",
        "missing-spec", "format", "integer", "unknown-command", "missing-option",
    ],
)
def test_usage_errors_exit_2_with_one_error_line(runner, args, line):
    assert_one_error_line(run(runner, args), f"BadParameter: {line}")


def test_a_spec_is_never_joined_to_the_next_argument(runner):
    # Only the -- options take the next argument as their value.
    assert all(name.startswith("--") for name in cli._VALUED)
    assert_one_error_line(run(runner, ["hyper", "table", "spec", "--bound", "1"]), "UnknownFixture: no fixture named 'spec'")


def test_an_option_value_may_start_with_a_dash(runner, tmp_path):
    result = run(runner, ["product", "brute", "free:2", "--pattern", "-5,1"])
    assert_one_error_line(result, "IndexOutOfRange: pattern index -5 outside 0..inf")
    assert_one_error_line(
        run(runner, ["--out", str(tmp_path), "graph", "check", "cycle:4"]),
        f"BadParameter: --out {str(tmp_path)!r} is a directory",
    )


def _valid_args(path, options):
    """The command with every option given: "prism:5" as its SPEC, a
    choice's last value, "1" for any other option."""
    args = ["--format", "tsv", "--seed", "3", *path.split()]
    for option in options:
        if option.reads:
            args.append("prism:5")
        else:
            args += [option.name, option.choices[-1] if option.choices else "1"]
    return cli._joined(args)


def _parsed(args, only=None):
    """What the parser (the whole tree, or the branch of `only`) makes of
    args: the Namespace, the --help text, or the usage error."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return vars(cli._parser("forge", only).parse_args(args))
    except SystemExit:
        return out.getvalue()
    except BadParameter as exc:
        return f"error: {exc}"


@pytest.mark.parametrize("path", sorted(COMMANDS))
def test_one_branch_parses_like_the_whole_tree(monkeypatch, path):
    monkeypatch.setenv("COLUMNS", "80")
    options = COMMANDS[path][1]
    valid = _valid_args(path, options)
    assert cli._named_path(valid) == path
    runs = [valid, [*path.split(), "--help"], [*valid, "--nosuch=1"], ["--format=xml", *valid[2:]]]
    if any(option.reads for option in options):
        runs.append([arg for arg in valid if arg != "prism:5"])  # no SPEC
    runs += [[*valid, f"{option.name}=x"] for option in options if option.choices]
    for args in runs:
        assert _parsed(args, path) == _parsed(args), args
    assert isinstance(_parsed(valid, path), dict)


@pytest.mark.parametrize(
    "args, path",
    [
        (["--format", "tsv", "--out", "r.json", "hyper", "table", "cycle:4"], "hyper table"),
        (["paper-regression", "extra"], "paper-regression"),
        (["hyper", "table", "table"], "hyper table"),
        (["--help", "hyper", "conditions", "odd:3"], None),
        (["hyper", "classify", "cycle:4", "--help"], None),
        (["hyper", "classify", "cycle:4", "-h"], None),
        (["hyper", "--bound=3", "classify", "cycle:4"], None),
        (["hyper", "nosuch", "cycle:4"], None),
        (["nosuch"], None),
        (["--bound=3", "hyper", "table", "cycle:4"], None),
        ([], None),
    ],
)
def test_main_builds_one_branch_only_for_a_named_command_without_help(runner, monkeypatch, args, path):
    built = []
    monkeypatch.setattr(cli, "_parser", lambda prog, only=None, parser=cli._parser: built.append(only) or parser(prog, only))
    monkeypatch.setattr(fixtures, "resolve_spec", lambda spec: sys.exit(0))  # stop after parsing
    run(runner, args)
    assert built == [path]


def test_root_help_lists_every_command_wherever_help_is_asked():
    assert run_forge(["--help", "hyper", "conditions", "odd:3"]) == run_forge(["--help"])


@pytest.mark.parametrize("value", [" 1", "+1", "1_0", "\u0663", "1 ", "", "-", "--1"])
def test_integer_options_read_ascii_digits_only(runner, value):
    result = run(runner, ["hyper", "classify", "cycle:4", "--bound", value])
    assert_one_error_line(result, f"BadParameter: argument --bound: invalid int value: {value!r}")


def test_integer_options_keep_a_leading_minus(runner):
    assert_one_error_line(run(runner, ["hyper", "classify", "cycle:4", "--bound", "-1"]), "BadParameter: bound must be >= 0")
    assert run(runner, ["hyper", "classify", "cycle:4", "--bound", "01"]) == run(runner, ["hyper", "classify", "cycle:4", "--bound", "1"])


@pytest.mark.parametrize("pattern", ["+1", "1,1_0", "1, 2", "\u0663"])
def test_pattern_entries_read_ascii_digits_only(runner, pattern):
    result = run(runner, ["product", "j", "prism:3", "--pattern", pattern])
    assert_one_error_line(result, f"BadParameter: --pattern must be comma-separated integers: {pattern!r}")


@pytest.mark.parametrize("key", ["+1", " 1", "1_0", "\u0661"])
def test_alpha_keys_read_ascii_digits_only(runner, tmp_path, key):
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps({key: "1"}))
    result = run(runner, ["walk", "joint", "zmod:4", "--alpha", str(path)])
    assert_one_error_line(result, f"BadParameter: alpha file key {key!r} is not an integer index")


def test_out_into_a_missing_directory_is_refused_before_the_search(runner, tmp_path, monkeypatch):
    def search_conjecture(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(search, "search_conjecture", search_conjecture)
    out = tmp_path / "missing" / "r.json"
    result = run(runner, ["--out", str(out), "search", "conjecture", "--max-vertices", "8"])
    assert_one_error_line(result, f"BadParameter: cannot write --out {str(out)!r}: No such file or directory")
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker / "r.json", blocker / "sub" / "r.json"):
        result = run(runner, ["--out", str(out), "search", "conjecture", "--max-vertices", "8"])
        assert_one_error_line(result, f"BadParameter: cannot write --out {str(out)!r}: Not a directory")


def test_out_naming_a_new_directory_is_refused_before_the_search(runner, tmp_path, monkeypatch):
    def search_conjecture(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(search, "search_conjecture", search_conjecture)
    out = f"{tmp_path / 'newdir'}/"
    result = run(runner, ["--out", out, "search", "conjecture", "--max-vertices", "8"])
    assert_one_error_line(result, f"BadParameter: cannot write --out {out!r}: Is a directory")
    assert not os.path.exists(out)


LAYERS = ("serialize", "fixtures", "graphs", "cayley", "hypergroup", "matrices", "walks", "search", "regression")


def test_importing_the_cli_loads_every_layer_module():
    # The benchmark's tracer imports forge.cli, then reads every layer from
    # sys.modules and wraps the public functions it finds in vars(layer).
    # The layers are registered lazily: each is in sys.modules from the
    # start, and vars() runs its code on first access.
    script = (
        "import inspect, sys, forge.cli\n"
        "print(*sorted(sys.modules))\n"
        "for layer in sys.argv[1:]:\n"
        "    module = sys.modules[f'forge.{layer}']\n"
        "    print(layer, *sorted(name for name, value in vars(module).items()\n"
        "        if inspect.isfunction(value) and value.__module__ == module.__name__))\n"
    )
    done = _python("-c", script, *LAYERS)
    assert done.returncode == 0, done.stderr
    loaded, *listings = done.stdout.splitlines()
    assert {f"forge.{layer}" for layer in ("cli", *LAYERS)} <= set(loaded.split())
    for layer, listing in zip(LAYERS, listings, strict=True):
        module = sys.modules[f"forge.{layer}"]
        functions = sorted(
            name for name, value in vars(module).items()
            if inspect.isfunction(value) and value.__module__ == module.__name__
        )
        assert functions and listing.split() == [layer, *functions]


@pytest.mark.parametrize(
    "layer, function, args",
    [
        ("serialize", "dumps_json", ["hyper", "table", "cycle:5"]),
        ("fixtures", "resolve_spec", ["graph", "check", "cycle:5"]),
        ("graphs", "check_assumptions", ["graph", "check", "cycle:5"]),
        ("cayley", "check_S3", ["cayley", "s3", "zmod:5", "--radius", "2"]),
        ("hypergroup", "check_S1", ["hyper", "conditions", "cycle:5"]),
        ("matrices", "norm_bounds", ["matrix", "norms", "cycle:5", "--k", "1"]),
        ("walks", "jump_distribution", ["product", "j", "cycle:5", "--pattern", "1,1"]),
        ("search", "search_conjecture", ["search", "conjecture", "--max-vertices", "3"]),
        ("regression", "paper_regression", ["paper-regression"]),
    ],
)
def test_the_cli_calls_each_layer_function_through_its_module(runner, monkeypatch, layer, function, args):
    # The tracer wraps a function by rebinding it on its module, so the CLI
    # must look it up there at call time.
    def patched(*_args, **_kwargs):
        raise BadParameter(f"patched {layer}.{function}")

    monkeypatch.setattr(sys.modules[f"forge.{layer}"], function, patched)
    result = run(runner, args)
    assert (result.exit_code, result.stderr) == (2, f"error: BadParameter: patched {layer}.{function}\n")


def _modules_run(args):
    """(exit code, sorted names of the forge modules whose code ran) for
    `import forge.cli` and then, when args are given, `forge args`, in a
    fresh process.  An audit hook sees the exec of each module's code,
    whether it was compiled from source or read from bytecode."""
    script = (
        "import atexit, importlib.util, os, sys\n"
        "forge_dir = importlib.util.find_spec('forge').submodule_search_locations[0]\n"
        "ran = set()\n"
        "def hook(event, hook_args):\n"
        "    path = getattr(hook_args[0], 'co_filename', '') if event == 'exec' else ''\n"
        "    if os.path.dirname(path) == forge_dir:\n"
        "        ran.add(os.path.basename(path).removesuffix('.py'))\n"
        "sys.addaudithook(hook)\n"
        "atexit.register(lambda: print(*sorted(ran), file=sys.stderr))\n"
        "from forge.cli import main\n"
        "if sys.argv[1:]:\n"
        "    main(sys.argv[1:], prog_name='forge')\n"
    )
    done = _python("-c", script, *args)
    return done.returncode, done.stderr.splitlines()[-1].split()


IMPORT_CLI = ["__init__", "cli", "errors"]


@pytest.mark.parametrize(
    "args, code, modules",
    [
        ([], 0, []),
        # Finite fixtures and graph files never load the Cayley layer.
        (["hyper", "conditions", "odd:3"], 0, ["fixtures", "graphs", "hypergroup", "serialize"]),
        (["search", "conjecture", "--max-vertices", "4"], 0, ["graphs", "hypergroup", "search", "serialize"]),
        (
            ["matrix", "norms", "cycle:5", "--k", "1"],
            0,
            ["cayley", "fixtures", "graphs", "hypergroup", "matrices", "serialize", "walks"],
        ),
        # The regression suite reads every layer but the search.
        (
            ["paper-regression"],
            1,
            ["cayley", "fixtures", "graphs", "hypergroup", "matrices", "regression", "serialize", "walks"],
        ),
        (["graph", "check", os.path.join(REPO, "tools", "cubic20.json")], 0, ["fixtures", "graphs", "serialize"]),
        (["hyper", "conditions", "prism:3"], 1, ["cayley", "fixtures", "graphs", "hypergroup", "serialize"]),
    ],
)
def test_a_command_runs_only_the_layers_it_needs(args, code, modules):
    assert _modules_run(args) == (code, sorted(IMPORT_CLI + modules))


def test_the_package_names_resolve_to_their_layer_objects():
    import forge

    names = (
        "CayleyGraph ForgeError PointedGraph ProbabilityVector StructureTable associativity_defect"
        " brute_force_conditional build_cayley build_graph build_table check_S1 check_S2 check_S3"
        " check_assumptions check_distance_regular classify commute_check conditional_step_identity"
        " enumerate_connected_graphs index_set irreducibility joint_distance_law jump_distribution"
        " left_nested_product load_graph_file markov_check monte_carlo_conditional norm_bounds"
        " paper_regression parse_group_spec permutation_invariance_check product realize_full"
        " realize_window replay_counterexample resolve_spec search_conjecture sphere_at sphere_sizes"
        " stationary_check uniform_distribution uniform_norm_bound validate_alpha verify_maincoro"
        " verify_regular_representation"
    ).split()
    assert forge.__all__ == names
    assert set(names) <= set(dir(forge))
    star = {}
    exec("from forge import *", star)
    for name in names:
        value = getattr(forge, name)
        assert value.__module__.startswith("forge.") and value is getattr(sys.modules[value.__module__], name)
        assert star[name] is value
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        forge.no_such_name
    with pytest.raises(ImportError):
        exec("from forge import no_such_name", {})


# `--format json` reports pinned as (exit code, sha256 of stdout), taken
# from the reports written before products and (S2) shared one kernel.
GOLDEN_FIXTURES = [
    "cycle:5",
    "cycle:6",
    "prism:3",
    "prism:4",
    "bipartite:2,3",
    "odd:3",
    "figure:3",
    "figure:3:base=w0p",
    "figure:4",
    "tree:binary:12",
    "lattice:1:r=12",
    "lattice:2:r=9",
    "ladder:r=5",
    "free:2:r=3",
    "zmod:3,2",
]
GOLDEN_COMMANDS = [
    ("hyper conditions", ""),
    ("hyper table", ""),
    ("hyper classify", ""),
    ("matrix norms", "--k 1"),
    ("matrix commute", ""),
    ("matrix regular-rep", ""),
    ("matrix maincoro", "--pattern 1,1"),
    ("matrix uniform-bound", ""),
    ("product pl", "--pattern 1,1"),
    ("product j", "--pattern 1,1"),
    ("product j", "--pattern 1,2,1"),
]
GOLDEN_JSON = {
    "hyper conditions cycle:5": (0, "88b688366c2f737e7a5bd90f1a822a4fc2e0c3af6a75489363b043902ae39ae4"),
    "hyper conditions cycle:6": (0, "24485a912b029196e6b32bd9d5a89ca71dc272848a07ce1d527a2a9a96f628a8"),
    "hyper conditions prism:3": (1, "2767608d535cdf54ffc09e376d0e29ca4add7c75271ebc3f2fd82eac9f3af062"),
    "hyper conditions prism:4": (0, "52cf643d731e7efa774481a328876c3db28c4d6b088a7e45c0d6392dcaa54313"),
    "hyper conditions bipartite:2,3": (1, "9a909aac768d2ed09a76f6569d4bd001d11ab67ef375215a87c6b39dfdcf9c5f"),
    "hyper conditions odd:3": (0, "f5de28e1e698b96ab5a896f95c3e81c1d768a03f23b2e907ce0ac424f7e65b2e"),
    "hyper conditions figure:3": (0, "d0402c40bab893256a7797c9bd24195650560089f7e97d22e91a1f859d9c97a0"),
    "hyper conditions figure:3:base=w0p": (1, "93e17ff125d8221ec5c2f15899971fdc200ae98e0084dad20625e85707e28ea3"),
    "hyper conditions figure:4": (1, "6f54231fd1dad51f2410e119dede5adc28d847d54d87c6e236efdcbc3442bc63"),
    "hyper conditions tree:binary:12": (1, "77bad6db9810f0295de555c9edba63e3417698134eb49cf82984e21b05155f8e"),
    "hyper conditions lattice:1:r=12": (0, "efd88cafea25429164dce96a17d790420dd4dee594174e254dc26f03b137d1e4"),
    "hyper conditions lattice:2:r=9": (1, "1768b0a79e22baf6972a6a233dc7c340d7e3f050beb6f5386729c7bfc159258c"),
    "hyper conditions ladder:r=5": (1, "05cd2a4de62cb70de398182ee393569678cd2a4836025ad2a6860603f883b6e2"),
    "hyper conditions free:2:r=3": (0, "12a46aa0f7097c91f9d53d6a54a5093bcef6edd7e63ab7fde9afac562e2bd9a8"),
    "hyper conditions zmod:3,2": (1, "23b9df9f12f7ea57da3e6d647d39f442874afab05a4b6d3a2c5d1548dcd806ef"),
    "hyper table cycle:5": (0, "357093b6c3728783b0f9c25a6e99899cc43d2fd1088a985ca4cb17f428ffcfce"),
    "hyper table cycle:6": (0, "ac1775989f51eb52c16511a3fb12747d36c0e37cf60c65d046135d0843eebb9a"),
    "hyper table prism:3": (0, "c9d93a1581165e7f299f2b1f8af532d63579050dd5424d39df37aa5c2d9894f4"),
    "hyper table prism:4": (0, "93604aea709fb80ca3301d46ca427ff2dced0a9b1b30717520033e2a2ea5066c"),
    "hyper table bipartite:2,3": (0, "f57f979cfa66f6a49b47b1e7cf59f2a0b61d737c509e0f70b89ae279d41cdb01"),
    "hyper table odd:3": (0, "01029e5241606983a23a0b467f1333d0eeabf695e024872911c43115f603dc5d"),
    "hyper table figure:3": (0, "5efd0d1dc16a9913da8bae1a7e16a27cf8d648eec75326825490f11bde9d2a96"),
    "hyper table figure:3:base=w0p": (0, "b842bc8be5613ebfb3309070afe574e361e865b578ac506d7ed1d4af35b2c6f8"),
    "hyper table figure:4": (0, "97e550533d603b355587c1020df40998baf4b170333a2e08994b7d37f3006d08"),
    "hyper table tree:binary:12": (0, "002071788908c07dab68cad7a5d29eba1da8ece801fd0404912ac2693c35c4f3"),
    "hyper table lattice:1:r=12": (0, "4db23e84f1dfbec3ad5105b64f7b76c49e6db26e76f90e429aa54655805cb0ea"),
    "hyper table lattice:2:r=9": (0, "4655451330641cdbe7b162e1722d46ca666eeb6a4fafc8c55babbceb0ae91ec9"),
    "hyper table ladder:r=5": (0, "35018f0e2c9423808435aa3a44a7606651f8ab2b3e4638dcef39ac61d2d4eea6"),
    "hyper table free:2:r=3": (0, "8002db187adb589725066f30f0e0addcd057961be5a4a815643206d273c804ca"),
    "hyper table zmod:3,2": (0, "7dcdc21d27aa1daeb5203c8b39d76f4b035d8963da6f149ac0279eedeaaa749c"),
    "hyper classify cycle:5": (0, "851f65d8d79f4fa3e08badd85cbb759137c20184ae63a5a9777e5a7acd8bb33f"),
    "hyper classify cycle:6": (0, "724bf6c35e3b5f1e1e9f74ff143fccb692c327f479f850b8c5f1b67a5233f45a"),
    "hyper classify prism:3": (0, "851f65d8d79f4fa3e08badd85cbb759137c20184ae63a5a9777e5a7acd8bb33f"),
    "hyper classify prism:4": (0, "724bf6c35e3b5f1e1e9f74ff143fccb692c327f479f850b8c5f1b67a5233f45a"),
    "hyper classify bipartite:2,3": (0, "851f65d8d79f4fa3e08badd85cbb759137c20184ae63a5a9777e5a7acd8bb33f"),
    "hyper classify odd:3": (0, "851f65d8d79f4fa3e08badd85cbb759137c20184ae63a5a9777e5a7acd8bb33f"),
    "hyper classify figure:3": (0, "851f65d8d79f4fa3e08badd85cbb759137c20184ae63a5a9777e5a7acd8bb33f"),
    "hyper classify figure:3:base=w0p": (0, "851f65d8d79f4fa3e08badd85cbb759137c20184ae63a5a9777e5a7acd8bb33f"),
    "hyper classify figure:4": (0, "2f59293c63265897c56f1bf114cb3a2beb7b1535609cb49483cd98ca6879666c"),
    "hyper classify tree:binary:12": (0, "b60def4ef6a929ac6d32fcc0f0f09f10012fc5aee65fc5385181416ebd9eacc6"),
    "hyper classify lattice:1:r=12": (0, "3b8ed2767d27ca31bf611dbc5b7bb9cadab74d1776be030d8a1a1c4f4733af25"),
    "hyper classify lattice:2:r=9": (0, "a26639b66b38e425ffa85a064ad36afc0d81a16629961dd14bd19a6745a753e9"),
    "hyper classify ladder:r=5": (0, "0c2d4ea8f30cd6b31ab3be5bb3d649840b81fa78cf9bbeeb82e7e5adba06585b"),
    "hyper classify free:2:r=3": (0, "2f59293c63265897c56f1bf114cb3a2beb7b1535609cb49483cd98ca6879666c"),
    "hyper classify zmod:3,2": (0, "851f65d8d79f4fa3e08badd85cbb759137c20184ae63a5a9777e5a7acd8bb33f"),
    "matrix norms cycle:5 --k 1": (0, "c061eb6dd00f8f2e315085f4c846143ddc79da54ea8df1d693b8bb8334ff63b0"),
    "matrix norms cycle:6 --k 1": (0, "5dbeacf76dadec24c00cb81350254ec40ceb4f6c2699370d0a6d021f7cf4d1fc"),
    "matrix norms prism:3 --k 1": (0, "2d45f5fcbd12259c3b2892eb7a2b083221d155cb5288dda2aba07f4f00abdece"),
    "matrix norms prism:4 --k 1": (0, "2ad8819998df854ac2d9eb7a13614aaf860aa97676d4a7163effc7dcc67e3c7a"),
    "matrix norms bipartite:2,3 --k 1": (0, "85aa2a48a8697fb551b27bc6ca875c5f51ab7f25523293ef37115262944da13b"),
    "matrix norms odd:3 --k 1": (0, "32402d764d23636e7fbedc7050edba8be4f5821811071867f6f73f49a3b953e9"),
    "matrix norms figure:3 --k 1": (0, "4cdff531f90bd710129e50ccf99eb27381a77b2293493e1b171cf5fa94d00f37"),
    "matrix norms figure:3:base=w0p --k 1": (0, "ff4941c833a71a851a2e312715831856313c994c73fed90d4ff0ea0307acfe93"),
    "matrix norms figure:4 --k 1": (0, "8a37117d4bb48d4151d305961939dd79fe06c5381276eeb54f1ffff342cb7b98"),
    "matrix norms tree:binary:12 --k 1": (0, "1135b519473db6fc73d18185b488ef7b869cd130d9e8e48c2a5473355646df8a"),
    "matrix norms lattice:1:r=12 --k 1": (0, "1a54c4f48cef30c150dd1a2e1784802c8a2ff18482d9b9f08c2367d263eb4ed6"),
    "matrix norms lattice:2:r=9 --k 1": (0, "522e19438ec2b7288d488f05608c2888380fbf70ca5115c56b2cb9947fb086c4"),
    "matrix norms ladder:r=5 --k 1": (0, "ed1e016defaf3e500a626234f2c496c5116b3663e36fdeadebb7dfeb72e48c4f"),
    "matrix norms free:2:r=3 --k 1": (0, "526c7bb783996d6b5541fd6086810a61431a086b3349aaed8c5c30e87f597ca7"),
    "matrix norms zmod:3,2 --k 1": (0, "2d45f5fcbd12259c3b2892eb7a2b083221d155cb5288dda2aba07f4f00abdece"),
    "matrix commute cycle:5": (0, "807ef7c5fac1d364997d24fb1ed8af75a751846ed1c51041f963146bb0656149"),
    "matrix commute cycle:6": (0, "23862d1963bb1ab07e8e2a5e19a7a4f8449d1508ffa7f05cc6c2208a9a8eb4fd"),
    "matrix commute prism:3": (0, "807ef7c5fac1d364997d24fb1ed8af75a751846ed1c51041f963146bb0656149"),
    "matrix commute prism:4": (0, "23862d1963bb1ab07e8e2a5e19a7a4f8449d1508ffa7f05cc6c2208a9a8eb4fd"),
    "matrix commute bipartite:2,3": (0, "807ef7c5fac1d364997d24fb1ed8af75a751846ed1c51041f963146bb0656149"),
    "matrix commute odd:3": (0, "807ef7c5fac1d364997d24fb1ed8af75a751846ed1c51041f963146bb0656149"),
    "matrix commute figure:3": (0, "807ef7c5fac1d364997d24fb1ed8af75a751846ed1c51041f963146bb0656149"),
    "matrix commute figure:3:base=w0p": (0, "807ef7c5fac1d364997d24fb1ed8af75a751846ed1c51041f963146bb0656149"),
    "matrix commute figure:4": (0, "1cdf04e89ca8a60eeca9665684010c29f1994d13806f66faef94519783310851"),
    "matrix commute tree:binary:12": (1, "d2e5fc24cba32f2e4f56e1d13d05c7e40f8b4bd7ddecb74c59fa4a58f35495e7"),
    "matrix commute lattice:1:r=12": (0, "4fb863d6889e3976fd93da7bf4ac3072b450fd95612d8bc0c3e6306a56d778f1"),
    "matrix commute lattice:2:r=9": (1, "4c73e436e18eeb6f7fe06e719097f70d784d8a60ee75741ec39cc0657abadab9"),
    "matrix commute ladder:r=5": (0, "c2e56136d8eb8fa8f8147f541d6dcdac87d1556e9c3db0a2b117025750320cda"),
    "matrix commute free:2:r=3": (0, "cd7a1c6837620d418090c94eb36fe345be7e05bab81b7ad796d210a3777aa9e9"),
    "matrix commute zmod:3,2": (0, "807ef7c5fac1d364997d24fb1ed8af75a751846ed1c51041f963146bb0656149"),
    "matrix regular-rep cycle:5": (0, "647489b369a13a7b26870501d4541da0de7356b9058850872438f3d2eb15f183"),
    "matrix regular-rep cycle:6": (0, "c6d8f4c27b7d217f69b7c1ff032bfdec8c1ca825b05c79cd95b238a678c2d319"),
    "matrix regular-rep prism:3": (0, "647489b369a13a7b26870501d4541da0de7356b9058850872438f3d2eb15f183"),
    "matrix regular-rep prism:4": (0, "c6d8f4c27b7d217f69b7c1ff032bfdec8c1ca825b05c79cd95b238a678c2d319"),
    "matrix regular-rep bipartite:2,3": (0, "647489b369a13a7b26870501d4541da0de7356b9058850872438f3d2eb15f183"),
    "matrix regular-rep odd:3": (0, "647489b369a13a7b26870501d4541da0de7356b9058850872438f3d2eb15f183"),
    "matrix regular-rep figure:3": (0, "647489b369a13a7b26870501d4541da0de7356b9058850872438f3d2eb15f183"),
    "matrix regular-rep figure:3:base=w0p": (0, "647489b369a13a7b26870501d4541da0de7356b9058850872438f3d2eb15f183"),
    "matrix regular-rep figure:4": (0, "b6be3330dcf050686e9edab45a8fcdb7ba7ee192f5874ba3fd74c05f567abc5e"),
    "matrix regular-rep tree:binary:12": (1, "de8d4af765def72856becebfbee33901177e8421f9dafea03af26cb558e11cf5"),
    "matrix regular-rep lattice:1:r=12": (0, "87591c2a1cfa9f5f344ebc688d147e151bfc57b8fb3bc042a3f1462ef3782930"),
    "matrix regular-rep lattice:2:r=9": (1, "a6dd81f1f11c57e8ad897e15debecb6832a3abaa9f941c91506c0d349cdc145b"),
    "matrix regular-rep ladder:r=5": (0, "04fdfe77dc60d9bb26112fa13cf8da9b8c1263b4a45a596c8eee719850d583e6"),
    "matrix regular-rep free:2:r=3": (0, "4d268f0a8e0a367add6c23984938c8ee08ab1e0951fd0b7e3a0c4e45a6eea07e"),
    "matrix regular-rep zmod:3,2": (0, "647489b369a13a7b26870501d4541da0de7356b9058850872438f3d2eb15f183"),
    "matrix maincoro cycle:5 --pattern 1,1": (0, "71957028d25b4716e3b7bad866d0a455a52b1f0c3a3e1c75132edb65a8720cc8"),
    "matrix maincoro cycle:6 --pattern 1,1": (0, "fbdc3ed91be986bc72ec3ec55547c6b0978ee21453eb6ae949a88ea24ef25caa"),
    "matrix maincoro prism:3 --pattern 1,1": (0, "97c9b82c4ff59ac4d2fc73ffae359c567c5c4a7d98bd64ea34e1378c8929035a"),
    "matrix maincoro prism:4 --pattern 1,1": (0, "fbdc3ed91be986bc72ec3ec55547c6b0978ee21453eb6ae949a88ea24ef25caa"),
    "matrix maincoro bipartite:2,3 --pattern 1,1": (0, "97c9b82c4ff59ac4d2fc73ffae359c567c5c4a7d98bd64ea34e1378c8929035a"),
    "matrix maincoro odd:3 --pattern 1,1": (0, "71957028d25b4716e3b7bad866d0a455a52b1f0c3a3e1c75132edb65a8720cc8"),
    "matrix maincoro figure:3 --pattern 1,1": (0, "71957028d25b4716e3b7bad866d0a455a52b1f0c3a3e1c75132edb65a8720cc8"),
    "matrix maincoro figure:3:base=w0p --pattern 1,1": (0, "97c9b82c4ff59ac4d2fc73ffae359c567c5c4a7d98bd64ea34e1378c8929035a"),
    "matrix maincoro figure:4 --pattern 1,1": (0, "2565789b596cc8b796187fd6eab0966121e1f4a803aa4ec5f1cbcedfd799eb35"),
    "matrix maincoro tree:binary:12 --pattern 1,1": (1, "64ab13c6fadd2feb414035886bb867261dcd9b277ca650e3fd878f156fd0b36d"),
    "matrix maincoro lattice:1:r=12 --pattern 1,1": (0, "3ed14b0df9e2c202aa1e84e075776b3ce0bed7da348b15f49956bbe0e98ceada"),
    "matrix maincoro lattice:2:r=9 --pattern 1,1": (1, "dbf6c4ddbab1b500f668e6bd54a4afa958fe8f4ed3c4f22e70746d87dc75b52d"),
    "matrix maincoro ladder:r=5 --pattern 1,1": (0, "2565789b596cc8b796187fd6eab0966121e1f4a803aa4ec5f1cbcedfd799eb35"),
    "matrix maincoro free:2:r=3 --pattern 1,1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "matrix maincoro zmod:3,2 --pattern 1,1": (0, "97c9b82c4ff59ac4d2fc73ffae359c567c5c4a7d98bd64ea34e1378c8929035a"),
    "matrix uniform-bound cycle:5": (0, "cf92a14f2315e84866a25905cca4a966e585464f54ae0d9e910edaef05252b14"),
    "matrix uniform-bound cycle:6": (0, "cf92a14f2315e84866a25905cca4a966e585464f54ae0d9e910edaef05252b14"),
    "matrix uniform-bound prism:3": (0, "031136a5924cab93a11d306c53d63b5504995e54de8e1437892907d3561b62c7"),
    "matrix uniform-bound prism:4": (0, "031136a5924cab93a11d306c53d63b5504995e54de8e1437892907d3561b62c7"),
    "matrix uniform-bound bipartite:2,3": (0, "031136a5924cab93a11d306c53d63b5504995e54de8e1437892907d3561b62c7"),
    "matrix uniform-bound odd:3": (0, "5ebd434b3d056447a3e8876f6d31ec750c183529942413b257d66f4c5c51427e"),
    "matrix uniform-bound figure:3": (0, "3e84d09c5cda15da1c43d9bdab470b19f168a17300e88cf651521f7970fcd104"),
    "matrix uniform-bound figure:3:base=w0p": (0, "3e84d09c5cda15da1c43d9bdab470b19f168a17300e88cf651521f7970fcd104"),
    "matrix uniform-bound figure:4": (0, "031136a5924cab93a11d306c53d63b5504995e54de8e1437892907d3561b62c7"),
    "matrix uniform-bound tree:binary:12": (0, "1374fe4a159342d2a9b4bc8176392832219a4ba3127381c184ae9d7fe210977d"),
    "matrix uniform-bound lattice:1:r=12": (0, "d3f5d62b7ea3c98879aa942c9f552bdfef71c23620a7c3b7f282f64a90c1562c"),
    "matrix uniform-bound lattice:2:r=9": (0, "94154381c8a1390e2c75418e40d26040b7307b6d93f72eab87e8b2ea76304dbf"),
    "matrix uniform-bound ladder:r=5": (0, "c56f0c22d66a3c432b07c08693854d21d28af04a1c6ff62b98b9dd99b7dde849"),
    "matrix uniform-bound free:2:r=3": (0, "f2c71e436e2819119bb18547bd1c624f31cfed74256bb6d9907ce68c253c12af"),
    "matrix uniform-bound zmod:3,2": (0, "031136a5924cab93a11d306c53d63b5504995e54de8e1437892907d3561b62c7"),
    "product pl cycle:5 --pattern 1,1": (0, "dc6bbb110de6975e3ea9fd2c104249a7db97ea6bcb0039a6167c2281593d0186"),
    "product pl cycle:6 --pattern 1,1": (0, "dc6bbb110de6975e3ea9fd2c104249a7db97ea6bcb0039a6167c2281593d0186"),
    "product pl prism:3 --pattern 1,1": (0, "6d017fc90365bc10ee9990db07e90598a91c1d05c4968ec2bf8de2e4650748a8"),
    "product pl prism:4 --pattern 1,1": (0, "c9428d4a52b0d20388273b4a82b209b3a767a583bdc12dcb0b4bdc5049c39f20"),
    "product pl bipartite:2,3 --pattern 1,1": (0, "dc6bbb110de6975e3ea9fd2c104249a7db97ea6bcb0039a6167c2281593d0186"),
    "product pl odd:3 --pattern 1,1": (0, "c9428d4a52b0d20388273b4a82b209b3a767a583bdc12dcb0b4bdc5049c39f20"),
    "product pl figure:3 --pattern 1,1": (0, "a1d4ad9c3687cf277cf2e49a8fc7376d11302b5b9b7b72c963621099e459d538"),
    "product pl figure:3:base=w0p --pattern 1,1": (0, "418bd62fbc579d21d821f88285315eb155836eaee9cc9dd9ec367a2f62204e65"),
    "product pl figure:4 --pattern 1,1": (0, "0dd77940a9fab52965d82da2cc0cdbfbf72c572eca09d756aa994c7343b344ad"),
    "product pl tree:binary:12 --pattern 1,1": (0, "c9428d4a52b0d20388273b4a82b209b3a767a583bdc12dcb0b4bdc5049c39f20"),
    "product pl lattice:1:r=12 --pattern 1,1": (0, "dc6bbb110de6975e3ea9fd2c104249a7db97ea6bcb0039a6167c2281593d0186"),
    "product pl lattice:2:r=9 --pattern 1,1": (0, "a3212dfe2226b75ccfd5aa3d8340a2f7720fa431ad7b3ee2df9ce860b1380ac7"),
    "product pl ladder:r=5 --pattern 1,1": (0, "c9428d4a52b0d20388273b4a82b209b3a767a583bdc12dcb0b4bdc5049c39f20"),
    "product pl free:2:r=3 --pattern 1,1": (0, "a3212dfe2226b75ccfd5aa3d8340a2f7720fa431ad7b3ee2df9ce860b1380ac7"),
    "product pl zmod:3,2 --pattern 1,1": (0, "6d017fc90365bc10ee9990db07e90598a91c1d05c4968ec2bf8de2e4650748a8"),
    "product j cycle:5 --pattern 1,1": (0, "dc6bbb110de6975e3ea9fd2c104249a7db97ea6bcb0039a6167c2281593d0186"),
    "product j cycle:6 --pattern 1,1": (0, "dc6bbb110de6975e3ea9fd2c104249a7db97ea6bcb0039a6167c2281593d0186"),
    "product j prism:3 --pattern 1,1": (0, "6d017fc90365bc10ee9990db07e90598a91c1d05c4968ec2bf8de2e4650748a8"),
    "product j prism:4 --pattern 1,1": (0, "c9428d4a52b0d20388273b4a82b209b3a767a583bdc12dcb0b4bdc5049c39f20"),
    "product j bipartite:2,3 --pattern 1,1": (0, "dc6bbb110de6975e3ea9fd2c104249a7db97ea6bcb0039a6167c2281593d0186"),
    "product j odd:3 --pattern 1,1": (0, "c9428d4a52b0d20388273b4a82b209b3a767a583bdc12dcb0b4bdc5049c39f20"),
    "product j figure:3 --pattern 1,1": (0, "a1d4ad9c3687cf277cf2e49a8fc7376d11302b5b9b7b72c963621099e459d538"),
    "product j figure:3:base=w0p --pattern 1,1": (0, "418bd62fbc579d21d821f88285315eb155836eaee9cc9dd9ec367a2f62204e65"),
    "product j figure:4 --pattern 1,1": (0, "0dd77940a9fab52965d82da2cc0cdbfbf72c572eca09d756aa994c7343b344ad"),
    "product j tree:binary:12 --pattern 1,1": (0, "c9428d4a52b0d20388273b4a82b209b3a767a583bdc12dcb0b4bdc5049c39f20"),
    "product j lattice:1:r=12 --pattern 1,1": (0, "dc6bbb110de6975e3ea9fd2c104249a7db97ea6bcb0039a6167c2281593d0186"),
    "product j lattice:2:r=9 --pattern 1,1": (0, "a3212dfe2226b75ccfd5aa3d8340a2f7720fa431ad7b3ee2df9ce860b1380ac7"),
    "product j ladder:r=5 --pattern 1,1": (0, "c9428d4a52b0d20388273b4a82b209b3a767a583bdc12dcb0b4bdc5049c39f20"),
    "product j free:2:r=3 --pattern 1,1": (0, "a3212dfe2226b75ccfd5aa3d8340a2f7720fa431ad7b3ee2df9ce860b1380ac7"),
    "product j zmod:3,2 --pattern 1,1": (0, "6d017fc90365bc10ee9990db07e90598a91c1d05c4968ec2bf8de2e4650748a8"),
    "product j cycle:5 --pattern 1,2,1": (0, "4e6cae1298fa8dcc33551a8b7f8030f81150aae9d9108dd5c3a1369f8a31eb95"),
    "product j cycle:6 --pattern 1,2,1": (0, "8a82f05f2b81643ed52c0e008854d16404d9ddc7de036001ac7f6d10bdde7b81"),
    "product j prism:3 --pattern 1,2,1": (0, "0a4545d3438711c58ba56649cc8346a4f4017495979d360879e5c3388139b73c"),
    "product j prism:4 --pattern 1,2,1": (0, "71e7d47290b4e087892a11fb3fbce13ae05839424ef5e46e890b31cd66139b43"),
    "product j bipartite:2,3 --pattern 1,2,1": (0, "53bfa4116d0687421224fe3eff2052d09bf67f4147e5f9a048de33c7916d4fdd"),
    "product j odd:3 --pattern 1,2,1": (0, "efe56bc7bc17193eaa867fb0fbe7738874576487b3ffbeee7d75cbaf5288c8a8"),
    "product j figure:3 --pattern 1,2,1": (0, "4e6cae1298fa8dcc33551a8b7f8030f81150aae9d9108dd5c3a1369f8a31eb95"),
    "product j figure:3:base=w0p --pattern 1,2,1": (0, "d646202e770a845b097f1a5250f7f32af5e4bd25d3e688e4fbf8b04f9aebdb9b"),
    "product j figure:4 --pattern 1,2,1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "product j tree:binary:12 --pattern 1,2,1": (0, "4411102c658209d5d9d1b7dd6436b3e68cd779f3b0dd44b8715763fd394af970"),
    "product j lattice:1:r=12 --pattern 1,2,1": (0, "3e1c723b162eab4fb0009e60790c69eeb372a54401131b2cd5b1fffacc17160a"),
    "product j lattice:2:r=9 --pattern 1,2,1": (0, "2f3d3c469eaf0596b1163ee1d48398a374f3822a36d01a71d7bb0fdfda9a9853"),
    "product j ladder:r=5 --pattern 1,2,1": (0, "7dfce1e1ae0c679792ca28e6f2c511c2af16822f76994ace38394d278c014483"),
    "product j free:2:r=3 --pattern 1,2,1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "product j zmod:3,2 --pattern 1,2,1": (0, "0a4545d3438711c58ba56649cc8346a4f4017495979d360879e5c3388139b73c"),
}


def test_golden_pins_cover_every_command_and_fixture():
    assert list(GOLDEN_JSON) == [
        " ".join(filter(None, (command, spec, options)))
        for command, options in GOLDEN_COMMANDS
        for spec in GOLDEN_FIXTURES
    ]


@pytest.mark.parametrize(
    "command", list(dict.fromkeys(command for command, _ in GOLDEN_COMMANDS))
)
def test_json_reports_are_pinned(runner, command):
    changed = []
    for line, pin in GOLDEN_JSON.items():
        if not line.startswith(command + " "):
            continue
        result = run(runner, ["--format", "json", *line.split()])
        digest = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()
        if (result.exit_code, digest) != pin:
            changed.append(line)
    assert changed == []


# Walk-law reports pinned as (exit code, sha256 of `--format json`
# stdout), taken from the reports of the element-by-element samplers and
# the Fraction DP.  `product mc` runs with `--seed 5`; the files are
# written by `walk_files` into the working directory.
WALK_FILES = {
    "s5.txt": "(0 1)\n(0 1 2 3 4)\n(0 4 3 2 1)\n",
    "skew4.json": json.dumps({"0": "1/2", "1": "1/8", "2": "1/4"}),
    "skew32.json": json.dumps({"0": "1/4", "1": "1/6", "2": "1/8"}),
    # alpha_i = (i + 1)/755 on S5, whose spheres have 1, 3, 6, 10, 16,
    # 24, 29, 21, 6, 3, 1 elements under these generators.
    "skew_s5.json": json.dumps({str(i): f"{i + 1}/755" for i in range(11)}),
}
WALK_JSON = {
    "product mc zmod:6,6 --pattern 1,2,3 --trials 20000": (0, "53c17f5b3400df3b93c97abbe740455483cd7ce14a252806ed1d0a075826afe1"),
    "product mc lattice:2 --pattern 1,2,1 --trials 20000": (0, "7be00cd50a6f5da26766a88f2d51a076199d529c2cc81e9732774caff571336f"),
    "product mc ladder --pattern 2,1 --trials 20000": (0, "06e7b4e2ed77d85409a2fd81358c5118c060a65e15baf9daeb28a26214f62c74"),
    "product mc free:2 --pattern 2,2,2 --trials 20000": (0, "13e85eae767d37a9ebc938596a04f45d369d63d352d913e54683fa6c243ea65d"),
    "product mc perm:s5.txt --pattern 1,2,3 --trials 20000": (0, "3a9de6d25e4102267a21f1ead5054bce7ee543835e057fc0d07d488101836548"),
    "product mc free:2:r=3 --pattern 3,1 --trials 20000": (0, "2dc04a55cbcc3796ff1afcb3168d93ab246db995dddcd3e4491e813ba7f7a2f2"),
    "walk joint zmod:3,2 --depth 3": (0, "75c7892a70e9f0a6c044ea74a8c5d87697ee027c32d2988537c3f0a510b965ea"),
    "walk joint zmod:3,2 --alpha skew32.json --depth 3": (0, "9b2f38be818c9d83dd7354d48d9404c4f41ef1a257cd764f75fc573ae9ed2614"),
    "walk joint perm:s5.txt --depth 2": (0, "1cdd6df0b3b46c8679e1200a2dcda15da0afc7ad37ebbce1af42b9cdfa720f78"),
    "walk joint perm:s5.txt --alpha skew_s5.json --depth 2": (0, "53dc7f54e1948927652bf99d71693f339a8dae237cd702a589cd22420962b4ce"),
    "walk markov zmod:3,2": (0, "b48e6b6dd7a0e75fc68f151197b093fb806bfb09d0afc5d967337bd60d5a7549"),
    "walk markov zmod:3,2 --alpha skew32.json": (1, "d2df152a0caf52d1aeb48a0026ce7599520e43ebfe1d0b8d1273ffcaaa0632c0"),
    "walk markov zmod:4 --alpha skew4.json": (0, "45407e2408456963883436bffa89cb243314abd1e8a070c032f2874bd4ac543f"),
    "walk markov perm:s5.txt --alpha skew_s5.json --depth 3": (1, "01a8f1076d96f4dafac5a9dffba471f607d12b6916a07ba7b7fec12b88222596"),
}


# The benchmark's slowest inputs to `classify`, `commute_check` and PL,
# pinned like GOLDEN_JSON, taken from the reports of the Fraction scan.
CLASSIFY_JSON = {
    "hyper classify ladder:r=30": (0, "4c749429cb03630b24493aa404593dba0b626905aaf8d0bd0ebc7fbc39d271b2"),
    "hyper classify free:2:r=7": (0, "e6075c3c358d51fff22752b6f516cf14e10b0d073a865dd1d14af609985fa6ab"),
    "matrix commute lattice:2:r=12": (1, "02732b06c8142a5655630b8984629b16d7c87c4fe324e0fa3ff32dc4ab588348"),
    "product pl free:2:r=6 --pattern 3,3": (0, "c5536c47580e6775e5830d1715350743a4e5d8d7cb5efa80540766c4e36ddc3b"),
}


@pytest.mark.parametrize("line", list(CLASSIFY_JSON))
def test_classify_reports_are_pinned(runner, line):
    result = run(runner, ["--format", "json", *line.split()])
    digest = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()
    assert (result.exit_code, digest) == CLASSIFY_JSON[line]


@pytest.fixture()
def walk_files(tmp_path, monkeypatch):
    for name, text in WALK_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("line", list(WALK_JSON))
def test_walk_reports_are_pinned(runner, walk_files, line):
    seed = ["--seed", "5"] if line.startswith("product") else []
    result = run(runner, ["--format", "json", *seed, *line.split()])
    digest = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()
    assert (result.exit_code, digest) == WALK_JSON[line]


# (S3) reports pinned like GOLDEN_JSON, taken from the reports written
# while the check still multiplied group elements.
S3_JSON = {
    "cayley s3 free:2 --radius 4": (0, "628d0cf32d944ac3b24562cc348d644345cf1e0d4e344a1ffd68f13479db3a22"),
    "cayley s3 lattice:2 --radius 5": (0, "f9a75d5cc537fd18de75ef09210ce757b9d5ffa4ab801bf7ab787142ef10b726"),
    "cayley s3 ladder --radius 6": (0, "c9884bb1f12604492734d311a74bc9bf8ecbf1c29e5a6c5f9e4a48b17ebc7627"),
    "cayley s3 zmod:4,3 --radius 5": (0, "990438d6ee32bc1ad17597c396b78cd5cf27fb2f8177d5d4aec0d40116bd4717"),
    "cayley s3 cycle:5 --radius 2": (0, "cebda59a34e643882f96f56f487f0d29fe2ebf73ad0faecaf0e3fdb211137aca"),
    "cayley s3 perm:s5.txt --radius 3": (0, "96c5e72b94c4cee3ecf96e3fd9d00e18e240cee322147b367b51da686b76ede8"),
}


@pytest.mark.parametrize("line", list(S3_JSON))
def test_s3_reports_are_pinned(runner, walk_files, line):
    result = run(runner, ["--format", "json", *line.split()])
    digest = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()
    assert (result.exit_code, digest) == S3_JSON[line]


def test_fixture_group_is_read_without_realizing_its_window(runner):
    """free:2:r=11 would realize more vertices than the window cap; its
    group is all a walk command needs."""
    args = ["product", "mc", "--pattern", "1", "--trials", "10"]
    fixture = run(runner, [*args[:2], "free:2:r=11", *args[2:]])
    group = run(runner, [*args[:2], "free:2", *args[2:]])
    assert fixture.exit_code == 0
    assert fixture.stdout == group.stdout


@pytest.mark.parametrize(
    "spec,line",
    [
        ("free:2:r=x", "error: BadParameter: 'free:2:r=x': radius r must be an integer"),
        ("free:x:r=2", "error: BadParameter: 'free:x:r=2': rank must be an integer"),
        ("lattice:0:r=2", "error: BadParameter: 'lattice:0:r=2': dimension must be >= 1"),
        ("cycle:2", "error: BadParameter: 'cycle:2': n must be >= 3"),
        ("prism:x", "error: BadParameter: 'prism:x': n must be an integer"),
        ("zmod:4:r=-1", "error: BadParameter: 'zmod:4:r=-1': radius r must be >= 0"),
        ("ladder:x:r=2", "error: BadParameter: 'ladder:x:r=2': expected ladder:r=<R>"),
        ("odd:3", "error: BadParameter: unknown group spec 'odd:3'"),
        ("nosuch:1", "error: BadParameter: unknown group spec 'nosuch:1'"),
    ],
)
def test_malformed_group_fixture_keeps_its_error_line(runner, spec, line):
    result = run(runner, ["product", "mc", spec, "--pattern", "1", "--trials", "10"])
    assert result.exit_code == 2
    assert result.stderr == line + "\n"
    assert result.stdout == ""


@pytest.mark.parametrize(
    "command", [["hyper", "table"], ["product", "mc", "--pattern", "1"]], ids=["table", "mc"]
)
@pytest.mark.parametrize(
    "spec",
    ["lattice:1:x=1:r=3", "free:2:r=3:y=2", "ladder:r=2:q=1", "zmod:6,6:R=3", "perm:s4.txt:q=1"],
)
def test_group_specs_refuse_unknown_keys(runner, command, spec):
    result = run(runner, [*command, spec])
    assert result.exit_code == 2
    assert result.stderr == (
        f"error: BadParameter: {spec!r}: expected no keyword parameters other than r=<R>\n"
    )
    assert result.stdout == ""


@pytest.mark.parametrize(
    "command,key",
    [
        (["hyper", "classify", "lattice:1:r=3:r=5"], "r"),
        (["graph", "check", "zmod:4:r=1:r=2"], "r"),
        (["graph", "check", "figure:3:base=w0:base=w0p"], "base"),
        (["product", "mc", "free:2:r=2:r=3", "--pattern", "1"], "r"),
    ],
    ids=["lattice", "zmod", "figure", "free"],
)
def test_specs_refuse_a_repeated_keyword(runner, command, key):
    """A keyword given twice is refused, not read as its last value."""
    result = run(runner, command)
    assert result.exit_code == 2
    assert result.stderr == f"error: BadParameter: parameter {key!r} given more than once\n"
    assert result.stdout == ""


def test_group_commands_build_no_fixture(runner, monkeypatch):
    """A spec that is not a group is refused before any graph is built."""

    def resolve_spec(spec):
        raise AssertionError(f"fixture {spec!r} built")

    monkeypatch.setattr(fixtures, "resolve_spec", resolve_spec)
    result = run(runner, ["product", "mc", "tree:binary:18", "--pattern", "1"])
    assert result.exit_code == 2
    assert result.stderr == "error: BadParameter: unknown group spec 'tree:binary:18'\n"


def test_out_into_a_missing_directory_exits_2_and_writes_nothing(runner, tmp_path):
    out = tmp_path / "no-such-dir" / "r.json"
    result = run(runner, ["--out", str(out), "hyper", "table", "cycle:4"])
    assert_one_error_line(result, f"BadParameter: cannot write --out {str(out)!r}: No such file or directory")
    assert list(tmp_path.iterdir()) == []


def test_a_negative_seed_exits_2_only_where_the_seed_is_read(runner):
    mc = ["product", "mc", "zmod:3", "--pattern", "1", "--trials", "10"]
    assert_one_error_line(run(runner, ["--seed", "-1", *mc]), "BadParameter: seed must be >= 0")
    for args in (["hyper", "classify", "prism:3"], ["product", "brute", "zmod:3", "--pattern", "1"]):
        assert run(runner, ["--seed", "-1", *args]) == run(runner, args)


def _readme_command_lines():
    """The lines of README's command block, below "## Command-line tool"."""
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## Command-line tool\n")[1]
    return section.split("```\n")[1].splitlines()


@pytest.mark.parametrize("path", sorted(COMMANDS))
def test_readme_lists_every_command_with_its_options(path):
    (line,) = [line for line in _readme_command_lines() if line.startswith(f"forge {path} ")]
    for option in COMMANDS[path][1]:
        if option.reads:
            # A group command names its SPEC <group>, every other one <spec>.
            assert ("<group>" if option is cli.GROUP else "<spec>") in line
        else:
            assert re.search(rf"{option.name}(?![\w-])", line), option.name


def test_table_commands_read_the_table_and_no_graph(runner, monkeypatch):
    """The seven table commands print the same from a prebuilt table whose
    rows past its bound cannot be extended, with no spec resolvable."""
    commands = [_spec_args(path, options, "prism:5") for path, (_, options) in COMMANDS.items() if cli.TABLE in options]
    assert len(commands) == 7
    expected = [run(runner, args) for args in commands]
    assert all(result.exit_code in (0, 1) and result.stdout for result in expected)
    table = hypergroup.build_table(fixtures.resolve_spec("prism:5"))

    def no_graph(*args):
        raise AssertionError("a graph was read")

    table.extend = no_graph
    monkeypatch.setattr(cli.TABLE, "reads", lambda cfg: table)
    monkeypatch.setattr(fixtures, "resolve_spec", no_graph)
    assert [run(runner, args) for args in commands] == expected


@pytest.mark.parametrize(
    "args",
    [
        _spec_args(path, options, "prism:5")
        for path, (_, options) in sorted(COMMANDS.items())
        if any(option.reads for option in options)
    ],
    ids=" ".join,
)
def test_each_spec_command_resolves_its_spec_once(runner, monkeypatch, args):
    calls = []
    for module, name in ((fixtures, "resolve_spec"), (cy, "parse_group_spec")):
        monkeypatch.setattr(module, name, lambda spec, fn=getattr(module, name): calls.append(spec) or fn(spec))
    result = run(runner, args)
    assert result.exit_code in (0, 1) and result.stderr == ""
    assert calls == ["prism:5"]
