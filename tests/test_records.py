"""The contract of forge's result records.

Immutable results are NamedTuples, ProbabilityVector (an integer row)
among them; only four classes stay dataclasses: TransitionMatrix (tests
call dataclasses.replace on it) and the mutable PointedGraph,
CayleyGraph and WindowData.  A dataclass definition costs about a
millisecond of every process's start-up, so the last test fails when a
new one appears.

Every record serializes as its fields in declaration order, then the
properties its own class defines (or through its to_jsonable: a
probability vector by its support); the key lists below are the report
layout and are pinned.  Records compare and hash by value and cannot be
changed; being tuples, they also equal the plain tuple of their items.
The benchmark's tracer keys PointedGraph and StructureTable in a
WeakKeyDictionary, so both must accept weak references.
"""

import dataclasses
import importlib
import inspect
import weakref
from fractions import Fraction

import pytest

from forge import cayley as cy
from forge.fixtures import resolve_spec
from forge.graphs import check_assumptions
from forge.hypergroup import build_table, check_distance_regular, check_S1, classify
from forge.matrices import (
    commute_check,
    irreducibility,
    norm_bounds,
    stationary_check,
    transition_matrix,
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
DATACLASSES = {"TransitionMatrix", "PointedGraph", "CayleyGraph", "WindowData"}

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
    "StepIdentityReport": ["i", "j", "lhs", "rhs", "equal", "uniform", "sphere_identity"],
    "PermutationReport": ["passed", "pattern", "patterns_checked", "hypothesis_met", "witness"],
}


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
        irreducibility(transition_matrix(table, 1)),
        verify_maincoro(table, (1, 1)),
        search.classified[0],
        search,
        regression.entries[0],
        regression,
        monte_carlo_conditional(z4, (1, 1), 100, seed=3),
        law,
        markov_check(law),
        conditional_step_identity(z4, None, 1, 1),
        permutation_invariance_check(table, (1, 2)),
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


def test_group_elements_hash_their_data(records):
    g = records["GroupElement"]
    assert hash(g) == hash(g.data)
    assert {g: 1}[cy.GroupElement(g.kind, tuple(g.data))] == 1


def test_tracer_keys_accept_weak_references():
    pg = resolve_spec("cycle:5")
    table = build_table(pg)
    keys = weakref.WeakKeyDictionary()
    keys[pg] = 0
    keys[table] = 1
    assert weakref.ref(pg)() is pg and weakref.ref(table)() is table
    assert keys[pg] == 0 and keys[table] == 1


def test_only_the_four_listed_classes_are_dataclasses():
    found = {name for name, cls in forge_classes().items() if dataclasses.is_dataclass(cls)}
    assert found == DATACLASSES
