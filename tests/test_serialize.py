"""Rational rendering, report JSON conversion, TSV output."""

import json
from fractions import Fraction as F

import pytest

from forge.errors import BadParameter
from forge.fixtures import resolve_spec
from forge.hypergroup import build_table, classify
from forge.search import SearchEntry, SearchReport
from forge.serialize import dumps_json, dumps_tsv, frac_str, jsonable, parse_frac


def test_frac_str_keeps_denominator():
    assert frac_str(F(2, 4)) == "1/2"
    assert frac_str(F(3)) == "3/1"


def test_parse_frac():
    assert parse_frac(" 2/6 ") == F(1, 3)
    assert parse_frac("5") == F(5)
    with pytest.raises(BadParameter):
        parse_frac("1/0")
    with pytest.raises(BadParameter):
        parse_frac("three halves")


def test_jsonable_handles_reports_and_fractions():
    report = classify(build_table(resolve_spec("tree:binary:12")))
    data = jsonable(report)
    assert data["verdict"] == "PreHypergroupOnly"
    assert data["witness"]["lhs"] == "1/5"
    json.dumps(data)


def test_search_entry_with_a_violation_witness_serializes():
    report = classify(build_table(resolve_spec("tree:binary:12")))
    entry = SearchEntry(
        3, ((0, 1), (1, 2)), 0, report.commutative, report.associative, report.verdict, report.witness
    )
    data = json.loads(dumps_json(entry))
    assert data["witness"] == {"indices": [1, 2, 1], "kind": "commutativity", "lhs": "1/5", "rhs": "1/3"}
    assert data["edges"] == [[0, 1], [1, 2]]
    search = SearchReport(3, "all", {3: 1}, 3, 0, 2, (entry,), (entry,))
    data = json.loads(dumps_json(search))
    assert data["counterexamples"][0]["witness"]["kind"] == "commutativity"
    assert data["conjecture_holds"] is False


def test_dumps_json_is_stable():
    a = dumps_json({"b": F(1, 2), "a": (1, 2)})
    b = dumps_json({"a": (1, 2), "b": F(1, 2)})
    assert a == b
    assert json.loads(a) == {"a": [1, 2], "b": "1/2"}


def test_dumps_tsv():
    text = dumps_tsv([("x", F(1, 3)), ("y", 2)], header=("field", "value"))
    lines = text.strip().splitlines()
    assert lines[0] == "field\tvalue"
    assert lines[1] == "x\t1/3"
    assert lines[2] == "y\t2"
