"""End-to-end CLI contract: subcommands, formats, and exit codes.

Exit code 0 means a result was produced, 1 means a verified property
failed, 2 means the request itself was unusable.
"""

import json
import os
import subprocess
import sys

import click
import pytest
from click.testing import CliRunner

from forge.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, args, **kwargs):
    return runner.invoke(main, args, catch_exceptions=False, **kwargs)


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


def test_product_pattern_validation(runner):
    result = run(runner, ["product", "j", "prism:3", "--pattern", "1,x"])
    assert result.exit_code == 2
    result = run(runner, ["product", "j", "prism:3", "--pattern", "9"])
    assert result.exit_code == 2


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


def test_search_conjecture(runner):
    result = run(runner, ["search", "conjecture", "--max-vertices", "5"])
    assert result.exit_code == 0
    data = payload(result)
    assert data["counterexamples"] == []
    assert data["replay_verified"] is True
    result = run(runner, ["search", "conjecture", "--max-vertices", "11"])
    assert result.exit_code == 2


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
        for e in range(len(entry["edges"])):
            expected += [f"{row}.edges.{e}.0", f"{row}.edges.{e}.1"]
        expected += [
            f"{row}.{name}"
            for name in ("base", "commutative", "associative", "verdict", "witness")
        ]
    expected += ["conjecture_holds", "replay_verified"]
    assert len(entries) == 14
    assert tsv_fields(result) == expected


def test_tsv_format(runner):
    result = run(runner, ["--format", "tsv", "hyper", "classify", "cycle:4"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "field\tvalue"
    assert any(line.startswith("verdict\tHypergroup") for line in lines)


def test_bad_cap_rejected(runner):
    result = run(runner, ["--cap-window", "0", "graph", "check", "cycle:4"])
    assert result.exit_code == 2


def test_perm_fixture_with_generator_file_in_a_subdirectory(runner, tmp_path, monkeypatch):
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "s5.txt").write_text("(0 1)\n(0 1 2 3 4)\n(0 4 3 2 1)\n")
    monkeypatch.chdir(tmp_path)
    result = run(runner, ["hyper", "conditions", "perm:d/s5.txt:r=2"])
    assert result.exit_code == 0
    data = payload(result)
    assert data["graph"] == "perm:d/s5.txt:r=2"
    assert data["S1"]["passed"] and data["S2"]["passed"]


def _leaf_commands(group, path=()):
    for name, command in sorted(group.commands.items()):
        if isinstance(command, click.Group):
            yield from _leaf_commands(command, (*path, name))
        else:
            yield (*path, name), command


def _unknown_spec_args(path, command):
    """The command on an unknown fixture, with "1" for each required option."""
    args = [*path, "nosuch:1"]
    for param in command.params:
        if isinstance(param, click.Option) and param.required:
            args += [param.opts[0], "1"]
    return args


SPEC_COMMANDS = [
    _unknown_spec_args(path, command)
    for path, command in _leaf_commands(main)
    if any(param.name == "spec" for param in command.params)
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
    ],
    ids=["vertices-not-integer", "label-key-not-integer", "window-without-radius"],
)
def test_malformed_graph_json_exits_2(runner, tmp_path, graph):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(graph))
    result = run(runner, ["graph", "check", str(path)])
    assert result.exit_code == 2
    assert "error: BadParameter:" in result.stderr


@pytest.mark.parametrize(
    "alpha",
    [{"a": "1/2"}, {"1": [1, 2]}],
    ids=["key-not-integer", "weight-is-a-list"],
)
def test_malformed_alpha_file_exits_2(runner, tmp_path, alpha):
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps(alpha))
    result = run(runner, ["walk", "joint", "zmod:4", "--alpha", str(path)])
    assert result.exit_code == 2
    assert "Error: alpha" in result.stderr
    assert "Traceback" not in result.output + result.stderr


@pytest.mark.parametrize("max_vertices", ["0", "-3"])
def test_search_max_vertices_below_one_exits_2(runner, max_vertices):
    result = run(runner, ["search", "conjecture", "--max-vertices", max_vertices])
    assert result.exit_code == 2
    assert "error: BadParameter:" in result.stderr
    assert result.stdout == ""


def test_numpy_is_imported_only_when_needed():
    script = (
        "import sys\n"
        "from click.testing import CliRunner\n"
        "import forge.cli\n"
        "print('numpy' in sys.modules)\n"
        "args = ['search', 'conjecture', '--max-vertices', '4']\n"
        "result = CliRunner().invoke(forge.cli.main, args, catch_exceptions=False)\n"
        "print(result.exit_code, 'numpy' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.split() == ["False", "0", "False"]
