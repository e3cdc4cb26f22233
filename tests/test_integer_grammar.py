"""One integer grammar for everything forge reads from outside.

Every integer in a spec, an option, a --pattern entry, an alpha-file key,
a permutation file or a string field of a graph JSON is ASCII digits
after an optional "-" (graphs._int_token).  A "+", a "_", a blank inside
the spec or a non-ASCII digit is refused with exit 2 and one error line.
"""

import json

import pytest
from conftest import run_forge
from hypothesis import given, settings
from hypothesis import strategies as st

from forge.graphs import _int_token


def assert_refused(result):
    """Exit 2 with nothing on stdout and exactly one `error:` line."""
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


def _arabic(text: str) -> str:
    """text with each ASCII digit written as its Arabic-Indic digit."""
    return "".join(chr(0x660 + int(c)) if c.isdigit() else c for c in text)


# One malformed spelling of a valid integer v for each way int() would
# still read it: a sign, a "_" between digits, a non-ASCII digit and a
# blank that the strip around a whole spec does not remove.
MALFORMED = {
    "plus": lambda v: "+" + v,
    "underscore": lambda v: "0_" + v,
    "arabic": _arabic,
    "blank": lambda v: " " + v,
}

# Every integer position of a spec, as a template around one valid value.
SPEC_POSITIONS = [
    ("cycle:{}", "4"),
    ("prism:{}", "3"),
    ("lattice:{}:r=2", "1"),
    ("lattice:1:r={}", "3"),
    ("free:{}:r=1", "2"),
    ("free:2:r={}", "1"),
    ("ladder:r={}", "2"),
    ("zmod:{},4", "3"),
    ("zmod:3,{}", "4"),
    ("zmod:3:r={}", "1"),
    ("bipartite:{},2", "1"),
    ("bipartite:1,{}", "2"),
    ("odd:{}", "3"),
    ("tree:binary:{}", "3"),
    ("figure:{}", "3"),
    ("figure:3:base={}", "5"),
]


@pytest.mark.parametrize("kind", MALFORMED)
@pytest.mark.parametrize("template, value", SPEC_POSITIONS)
def test_a_spec_integer_outside_the_grammar_is_refused(template, value, kind):
    assert run_forge(["hyper", "table", template.format(value)]).exit_code == 0
    assert_refused(run_forge(["hyper", "table", template.format(MALFORMED[kind](value))]))


@pytest.mark.parametrize("kind", ["arabic", "blank"])
def test_a_perm_file_point_outside_the_grammar_is_refused(tmp_path, kind):
    # A "+" or a "_" was never cycle notation; a non-ASCII digit or blank
    # matched the Unicode classes \d and \s.
    malformed = {"arabic": "(٠ 1)\n", "blank": "(0\u2003" "1)\n"}[kind]
    for name, text in (("good.txt", "(0 1)\n"), ("bad.txt", malformed)):
        (tmp_path / name).write_text(text + "(1 2)\n", encoding="utf-8")
    assert run_forge(["hyper", "table", f"perm:{tmp_path / 'good.txt'}"]).exit_code == 0
    assert_refused(run_forge(["hyper", "table", f"perm:{tmp_path / 'bad.txt'}"]))


def _square(field, text):
    """The 4-cycle as graph JSON, with one integer field the string text."""
    data = {"vertices": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]], "base": 0}
    if field == "vertices":
        data["vertices"] = text
    elif field == "base":
        data["base"] = text
    elif field == "edge endpoint":
        data["edges"] = [[0, text], [1, 2], [2, 3], [3, 0]]
    elif field == "label key":
        data["labels"] = {text: "b"}
    else:
        data.update(truncated=True, exact_radius=text)
    return data


GRAPH_FIELDS = {"vertices": "4", "base": "0", "edge endpoint": "1", "label key": "1", "exact_radius": "1"}


@pytest.mark.parametrize("kind", MALFORMED)
@pytest.mark.parametrize("field", GRAPH_FIELDS)
def test_a_graph_json_string_outside_the_grammar_is_refused(tmp_path, field, kind):
    value = GRAPH_FIELDS[field]
    for name, text in (("good.json", value), ("bad.json", MALFORMED[kind](value))):
        (tmp_path / name).write_text(json.dumps(_square(field, text)), encoding="utf-8")
    assert run_forge(["hyper", "table", str(tmp_path / "good.json")]).exit_code == 0
    result = run_forge(["hyper", "table", str(tmp_path / "bad.json")])
    assert_refused(result)
    assert f"graph JSON {field} must be an integer" in result.stderr


@pytest.mark.parametrize("kind", MALFORMED)
def test_an_option_pattern_or_alpha_integer_outside_the_grammar_is_refused(tmp_path, kind):
    bad = MALFORMED[kind]("1")
    alpha = tmp_path / "alpha.json"
    alpha.write_text(json.dumps({"0": "1/4", bad: "1/4"}), encoding="utf-8")
    for args in (
        ["hyper", "table", "cycle:4", "--bound", bad],
        ["product", "j", "cycle:4", "--pattern", f"1,{bad}"],
        ["walk", "joint", "zmod:4", "--alpha", str(alpha)],
    ):
        assert_refused(run_forge(args))


def test_the_reader_keeps_a_minus_and_leading_zeros():
    assert [_int_token(t) for t in ("0", "05", "-3", "-0")] == [0, 5, -3, 0]
    for text in ("", "-", "--1", "+1", "1_0", " 1", "1 ", "٣", "1.0", "0x1"):
        with pytest.raises(ValueError):
            _int_token(text)


# The grammar as a property: each family drawn as literal text and integer
# slots, in the ranges where `hyper table` realizes it.
FAMILIES = [
    ("cycle:", (3, 8)),
    ("prism:", (3, 5)),
    ("lattice:", (1, 2), ":r=", (0, 3)),
    ("free:", (1, 2), ":r=", (0, 2)),
    ("ladder:r=", (0, 3)),
    ("zmod:", (2, 4)),
    ("zmod:", (2, 4), ",", (2, 3), ":r=", (0, 2)),
    ("bipartite:", (1, 2), ",", (2, 3)),
    ("odd:", (2, 3)),
    ("tree:binary:", (1, 4)),
    ("figure:", (3, 6)),
    ("figure:3:base=", (0, 6)),
]


@st.composite
def spellings(draw):
    """(parts, slots): a valid spec as a list of text pieces, and the
    indices of its integer tokens, some with a leading zero."""
    parts, slots = [], []
    for piece in draw(st.sampled_from(FAMILIES)):
        if isinstance(piece, tuple):
            slots.append(len(parts))
            piece = draw(st.sampled_from(["", "0"])) + str(draw(st.integers(*piece)))
        parts.append(piece)
    return parts, slots


def _run(spec, seed):
    result = run_forge(["--seed", seed, "hyper", "table", spec])
    assert result.exit_code in (0, 1, 2) and "Traceback" not in result.output
    return result


SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=300)


@SETTINGS
@given(spellings(), st.sampled_from(["", " ", "\t"]), st.integers(0, 10**6))
def test_a_spec_in_the_grammar_realizes_under_a_name_that_reparses(spelling, pad, seed):
    spec = pad + "".join(spelling[0]) + pad
    result = _run(spec, str(seed))
    assert result.exit_code == 0, result.stderr
    name = json.loads(result.stdout)["graph"]
    assert name == spec.strip()
    assert _run(name, str(seed)) == result


@SETTINGS
@given(spellings(), st.sampled_from(sorted(MALFORMED)), st.integers(-1, 4), st.integers(0, 10**6))
def test_one_malformed_integer_token_exits_2_with_one_error_line(spelling, kind, slot, seed):
    parts, slots = spelling
    seed = str(seed)
    if slot < 0:  # the option's integer, else one of the spec's
        seed = MALFORMED[kind](seed)
    else:
        i = slots[slot % len(slots)]
        parts = [*parts[:i], MALFORMED[kind](parts[i]), *parts[i + 1 :]]
    assert_refused(_run("".join(parts), seed))
