"""Exact random-walk products, hypergroup verdicts, and operator bounds
for pointed graphs.

The core pipeline: realize a pointed graph (fixture, file, or Cayley
window), compute rational structure constants from sphere intersections,
classify the resulting algebra, and cross-validate pattern products,
distance-process laws, and transition-matrix identities.
"""

from .cayley import (
    CayleyGraph,
    build_cayley,
    check_S3,
    parse_group_spec,
    realize_full,
    realize_window,
)
from .errors import ForgeError
from .fixtures import resolve_spec
from .graphs import (
    PointedGraph,
    build_graph,
    check_assumptions,
    index_set,
    load_graph_file,
    sphere_at,
)
from .hypergroup import (
    ProbabilityVector,
    StructureTable,
    associativity_defect,
    build_table,
    check_S1,
    check_S2,
    check_distance_regular,
    classify,
    product,
    sphere_sizes,
)
from .matrices import (
    commute_check,
    irreducibility,
    norm_bounds,
    stationary_check,
    uniform_norm_bound,
    verify_maincoro,
    verify_regular_representation,
)
from .regression import paper_regression
from .search import enumerate_connected_graphs, replay_counterexample, search_conjecture
from .walks import (
    brute_force_conditional,
    conditional_step_identity,
    joint_distance_law,
    jump_distribution,
    left_nested_product,
    markov_check,
    monte_carlo_conditional,
    permutation_invariance_check,
    uniform_distribution,
    validate_alpha,
)

__version__ = "0.1.0"

__all__ = [
    "CayleyGraph",
    "ForgeError",
    "PointedGraph",
    "ProbabilityVector",
    "StructureTable",
    "associativity_defect",
    "brute_force_conditional",
    "build_cayley",
    "build_graph",
    "build_table",
    "check_S1",
    "check_S2",
    "check_S3",
    "check_assumptions",
    "check_distance_regular",
    "classify",
    "commute_check",
    "conditional_step_identity",
    "enumerate_connected_graphs",
    "index_set",
    "irreducibility",
    "joint_distance_law",
    "jump_distribution",
    "left_nested_product",
    "load_graph_file",
    "markov_check",
    "monte_carlo_conditional",
    "norm_bounds",
    "paper_regression",
    "parse_group_spec",
    "permutation_invariance_check",
    "product",
    "realize_full",
    "realize_window",
    "replay_counterexample",
    "resolve_spec",
    "search_conjecture",
    "sphere_at",
    "sphere_sizes",
    "stationary_check",
    "uniform_distribution",
    "uniform_norm_bound",
    "validate_alpha",
    "verify_maincoro",
    "verify_regular_representation",
]
