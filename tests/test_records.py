"""The contract of forge's result records.

Immutable results are NamedTuples, ProbabilityVector (an integer row)
among them; only three classes stay dataclasses: the mutable
PointedGraph, CayleyGraph and WindowData.  A dataclass definition costs
about a millisecond of every process's start-up, so the last test fails
when a new one appears.

Every record serializes as its fields in declaration order, then the
properties its own class defines; the key lists below are the report
layout and are pinned.  Only six classes write their own to_jsonable,
because their report is not their fields: PointedGraph, StructureTable,
ProbabilityVector (by its support), EmpiricalDistribution, JointLaw and
RegressionReport.  The layouts that DRReport, NormBound,
StepIdentityReport, MarkovReport and PermutationReport once wrote by
hand are kept below as reference functions, and the record rule must
give the same report, key order and TSV rows included.  Records compare
and hash by value and cannot be changed; being tuples, they also equal
the plain tuple of their items.  The benchmark's tracer keys PointedGraph
and StructureTable in a WeakKeyDictionary, so both must accept weak
references.
"""

import dataclasses
import importlib
import inspect
import weakref
from fractions import Fraction

import pytest

from test_distance_regular import KNOWN

from forge import cayley as cy
from forge.cli import _tsv_rows
from forge.errors import RadiusExceeded
from forge.fixtures import resolve_spec
from forge.graphs import check_assumptions
from forge.hypergroup import build_table, check_distance_regular, check_S1, classify
from forge.matrices import (
    commute_check,
    irreducibility,
    norm_bounds,
    stationary_check,
    uniform_norm_bound,
    verify_maincoro,
    verify_regular_representation,
)
from forge.regression import paper_regression
from forge.search import search_conjecture
from forge.serialize import jsonable
from forge.walks import (
    conditional_step_identity,
    joint_distance_law,
    markov_check,
    monte_carlo_conditional,
    permutation_invariance_check,
)

MODULES = (
    "cli",
    "serialize",
    "fixtures",
    "graphs",
    "cayley",
    "hypergroup",
    "matrices",
    "walks",
    "search",
    "regression",
    "errors",
)
DATACLASSES = {"PointedGraph", "CayleyGraph", "WindowData"}

# Top-level keys of jsonable(record), in order, for every record class.
KEYS = {
    "GroupKind": ["family", "mods", "degree", "rank"],
    "GroupElement": ["kind", "data"],
    "S3Report": ["passed", "checked", "witness", "scope"],
    "Graph": ["vertex_count", "adjacency", "labels", "edge_count"],
    "AssumptionReport": ["simple", "connected", "locally_finite", "condition_iii", "witness", "passed"],
    "ProbabilityVector": ["0", "2"],
    "Violation": ["kind", "indices", "lhs", "rhs"],
    "ClassificationReport": ["verdict", "commutative", "associative", "bound", "witness", "skipped_triples"],
    "ConditionReport": ["condition", "passed", "witness", "scope", "checked"],
    "DRReport": ["passed", "diameter", "intersection_numbers", "witness"],
    "RegRepReport": ["passed", "hypothesis_met", "pairs_checked", "rows_compared", "pairs_skipped", "witness"],
    "CommuteReport": [
        "commutes",
        "classify_commutative",
        "classify_associative",
        "agrees_with_associative",
        "rows_compared",
        "witness",
    ],
    "NormBound": [
        "k",
        "c",
        "d",
        "upper_sq",
        "upper",
        "lower_sq",
        "lower",
        "best_vector",
        "window_sup",
        "scope",
        "row_supports",
        "col_supports",
    ],
    "UniformBound": ["s", "bound", "scope"],
    "StationaryReport": ["pi", "idempotent", "pi_fixed", "pi_fixed_all_k", "witness_k", "passed"],
    "IrreducibilityReport": ["irreducible", "classes"],
    "MaincoroReport": ["passed", "hypothesis_met", "pattern", "rows_compared", "witness"],
    "SearchEntry": ["vertices", "edges", "base", "commutative", "associative", "verdict", "witness"],
    "SearchReport": [
        "max_vertices",
        "base_policy",
        "graph_counts",
        "pointed_examined",
        "rejected_condition",
        "rejected_walk",
        "classified",
        "counterexamples",
        "conjecture_holds",
    ],
    "RegressionEntry": ["name", "claim", "expected", "computed", "match"],
    "RegressionReport": ["total", "mismatching", "passed", "entries"],
    "EmpiricalDistribution": ["trials", "seed", "pattern", "outcomes"],
    "JointLaw": ["graph", "depth", "alpha", "law"],
    "MarkovReport": ["is_markov", "is_iid", "depth", "markov_witness", "iid_witness"],
    "MarkovWitness": ["position", "prefix_a", "prefix_b", "row_a", "row_b"],
    "StepIdentityReport": ["i", "j", "lhs", "rhs", "equal", "uniform", "sphere_identity"],
    "PermutationReport": ["passed", "pattern", "patterns_checked", "hypothesis_met", "witness"],
    "PermutationWitness": ["pattern_a", "pattern_b", "index"],
}
# The classes whose report is not their fields.
TO_JSONABLE = {
    "PointedGraph",
    "StructureTable",
    "ProbabilityVector",
    "EmpiricalDistribution",
    "JointLaw",
    "RegressionReport",
}
SKEW_4 = {0: Fraction(1, 2), 1: Fraction(1, 8), 2: Fraction(1, 4)}
SKEW_32 = {0: Fraction(1, 4), 1: Fraction(1, 6), 2: Fraction(1, 8)}


def forge_classes():
    """Every class defined in a forge module, by name."""
    out = {}
    for name in MODULES:
        module = importlib.import_module(f"forge.{name}")
        for attr, value in vars(module).items():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                out[attr] = value
    return out


@pytest.fixture(scope="module")
def records():
    """One real instance of every record class."""
    c4 = resolve_spec("cycle:4")
    table = build_table(c4)
    tree = classify(build_table(resolve_spec("tree:binary:12")))
    z4 = cy.parse_group_spec("zmod:4")
    search = search_conjecture(4)
    regression = paper_regression()
    law = joint_distance_law(z4, None, 2)
    skewed = markov_check(joint_distance_law(cy.parse_group_spec("zmod:3,2"), SKEW_32, 3))
    plane = resolve_spec("lattice:2:r=9")
    found = [
        c4.graph,
        check_assumptions(c4),
        z4.kind,
        z4.generators[0],
        cy.check_S3(z4, 2),
        table.row(1, 1),
        tree.witness,
        tree,
        check_S1(c4),
        check_distance_regular(c4),
        verify_regular_representation(table),
        commute_check(table),
        norm_bounds(table, 1),
        uniform_norm_bound(c4),
        stationary_check(z4),
        irreducibility(table, 1),
        verify_maincoro(c4, (1, 1)),
        search.classified[0],
        search,
        regression.entries[0],
        regression,
        monte_carlo_conditional(z4, (1, 1), 100, seed=3),
        law,
        markov_check(law),
        skewed.markov_witness,
        conditional_step_identity(z4, None, 1, 1),
        permutation_invariance_check(c4, (1, 2)),
        permutation_invariance_check(plane, (1, 1, 2), 3).witness,
    ]
    return {type(obj).__name__: obj for obj in found}


def _holds_dict(value) -> bool:
    if isinstance(value, dict):
        return True
    return isinstance(value, tuple) and any(_holds_dict(v) for v in value)


def test_every_record_class_is_covered(records):
    classes = forge_classes()
    named = {name for name, cls in classes.items() if issubclass(cls, tuple) and hasattr(cls, "_fields")}
    assert named == set(KEYS) == set(records)
    for name, obj in records.items():
        assert type(obj) is classes[name]


def test_jsonable_gives_fields_then_own_properties(records):
    for name, obj in records.items():
        assert list(jsonable(obj)) == KEYS[name], name
        if not hasattr(obj, "to_jsonable"):
            own = [attr for attr, value in vars(type(obj)).items() if isinstance(value, property)]
            assert KEYS[name] == [*obj._fields, *own], name


def test_records_are_immutable_and_equal_and_hash_by_value(records):
    for name, obj in records.items():
        field = obj._fields[0]
        with pytest.raises(AttributeError):
            setattr(obj, field, getattr(obj, field))
        twin = type(obj)(**obj._asdict())
        assert twin == obj and twin is not obj, name
        if _holds_dict(obj):
            with pytest.raises(TypeError):
                hash(obj)
        else:
            assert hash(twin) == hash(obj), name


def test_records_differ_when_a_field_differs(records):
    violation = records["Violation"]
    assert violation != violation._replace(lhs=Fraction(0))
    report = records["ClassificationReport"]
    assert report._replace(skipped_triples=report.skipped_triples + 1) != report


def test_records_are_tuples_equal_to_their_items(records):
    # A NamedTuple is a tuple: it equals the plain tuple of its items (and so
    # any other record with the same items), and it indexes and unpacks.
    for name, obj in records.items():
        assert isinstance(obj, tuple) and obj == tuple(obj), name
        assert len(obj) == len(obj._fields) and obj[0] == getattr(obj, obj._fields[0]), name
    g = records["GroupElement"]
    kind, data = g
    assert g == (kind, data)


def test_tracer_keys_accept_weak_references():
    pg = resolve_spec("cycle:5")
    table = build_table(pg)
    keys = weakref.WeakKeyDictionary()
    keys[pg] = 0
    keys[table] = 1
    assert weakref.ref(pg)() is pg and weakref.ref(table)() is table
    assert keys[pg] == 0 and keys[table] == 1


def test_only_the_three_listed_classes_are_dataclasses():
    found = {name for name, cls in forge_classes().items() if dataclasses.is_dataclass(cls)}
    assert found == DATACLASSES


def test_only_the_six_listed_classes_define_to_jsonable():
    found = {name for name, cls in forge_classes().items() if "to_jsonable" in vars(cls)}
    assert found == TO_JSONABLE


# The hand-written layouts the record rule replaced, kept as references.
def reference_dr_report(r) -> dict:
    numbers = None
    if r.intersection_numbers is not None:
        numbers = {f"{i},{j},{k}": n for (i, j, k), n in sorted(r.intersection_numbers.items())}
    return {
        "passed": r.passed,
        "diameter": r.diameter,
        "intersection_numbers": numbers,
        "witness": list(r.witness) if r.witness else None,
    }


def reference_norm_bound(r) -> dict:
    return {
        "k": r.k,
        "c": r.c,
        "d": r.d,
        "upper_sq": r.upper_sq,
        "upper": r.upper,
        "lower_sq": r.lower_sq,
        "lower": r.lower,
        "best_vector": r.best_vector,
        "window_sup": r.window_sup,
        "scope": r.scope,
        "row_supports": {str(i): list(s) for i, s in sorted(r.row_supports.items())},
        "col_supports": {str(j): list(s) for j, s in sorted(r.col_supports.items())},
    }


def reference_step_identity(r) -> dict:
    return {
        "i": r.i,
        "j": r.j,
        "lhs": r.lhs,
        "rhs": r.rhs,
        "equal": r.lhs == r.rhs,
        "uniform": r.uniform,
        "sphere_identity": r.sphere_identity,
    }


def reference_markov_report(r) -> dict:
    def _wit(w):
        if w is None:
            return None
        t, pa, pb, ra, rb = w
        return {
            "position": t,
            "prefix_a": list(pa),
            "prefix_b": list(pb),
            "row_a": {str(k): v for k, v in sorted(ra.items())},
            "row_b": {str(k): v for k, v in sorted(rb.items())},
        }

    return {
        "is_markov": r.is_markov,
        "is_iid": r.is_iid,
        "depth": r.depth,
        "markov_witness": _wit(r.markov_witness),
        "iid_witness": _wit(r.iid_witness),
    }


def reference_permutation_report(r) -> dict:
    witness = None
    if r.witness is not None:
        pat_a, pat_b, k = r.witness
        witness = {"pattern_a": list(pat_a), "pattern_b": list(pat_b), "index": k}
    return {
        "passed": r.passed,
        "pattern": list(r.pattern),
        "patterns_checked": r.patterns_checked,
        "hypothesis_met": r.hypothesis_met,
        "witness": witness,
    }


def _ordered(data):
    """data with every dict as its list of items, so order is compared too."""
    if isinstance(data, dict):
        return [(key, _ordered(value)) for key, value in data.items()]
    if isinstance(data, list):
        return [_ordered(value) for value in data]
    return data


def assert_same_layout(record, reference):
    got, want = jsonable(record), jsonable(reference(record))
    assert _ordered(got) == _ordered(want), record
    assert list(_tsv_rows(got)) == list(_tsv_rows(want)), record


FINITE_FIXTURES = [
    *(f"cycle:{n}" for n in range(3, 9)),
    *(f"prism:{n}" for n in range(3, 7)),
    "bipartite:2,3",
    "bipartite:3,3",
    "odd:3",
    "odd:4",
    "odd:5",
    "figure:3",
    "figure:3:base=w0p",
    "figure:4",
    "figure:5",
    "figure:6",
    "zmod:2,2,2",
    "zmod:4,2",
    "zmod:3,3,3",
]
WINDOWS = ["lattice:1:r=40", "lattice:2:r=9", "free:2:r=6", "ladder:r=12", "tree:binary:12"]


@pytest.mark.parametrize("graph", [*FINITE_FIXTURES, *sorted(set(KNOWN) - set(FINITE_FIXTURES))])
def test_distance_regular_reports_keep_their_layout(graph):
    pg = KNOWN[graph] if graph in KNOWN else resolve_spec(graph)
    assert_same_layout(check_distance_regular(pg), reference_dr_report)


@pytest.mark.parametrize("spec", FINITE_FIXTURES + WINDOWS)
def test_norm_bounds_keep_their_layout(spec):
    table = build_table(resolve_spec(spec))
    accepted = 0
    for k in table.indices:
        try:
            report = norm_bounds(table, k)
        except RadiusExceeded:
            continue
        accepted += 1
        assert_same_layout(report, reference_norm_bound)
    assert accepted


def test_walk_reports_keep_their_layout():
    z4, z32 = cy.parse_group_spec("zmod:4"), cy.parse_group_spec("zmod:3,2")
    uniform = markov_check(joint_distance_law(z4, None, 3))
    iid_only = markov_check(joint_distance_law(z4, SKEW_4, 3))
    both = markov_check(joint_distance_law(z32, SKEW_32, 3))
    assert uniform.markov_witness is None and uniform.iid_witness is None
    assert iid_only.markov_witness is None and iid_only.iid_witness is not None
    assert both.markov_witness is not None and both.iid_witness is not None
    for report in (uniform, iid_only, both):
        assert_same_layout(report, reference_markov_report)
    for alpha in (None, SKEW_32):
        for i in range(3):
            for j in range(3):
                report = conditional_step_identity(z32, alpha, i, j)
                assert report.equal == (report.lhs == report.rhs)
                assert_same_layout(report, reference_step_identity)
    passing = permutation_invariance_check(resolve_spec("cycle:6"), (1, 2, 2))
    failing = permutation_invariance_check(resolve_spec("lattice:2:r=9"), (1, 1, 2), 3)
    assert passing.passed and not failing.passed
    for report in (passing, failing):
        assert_same_layout(report, reference_permutation_report)
