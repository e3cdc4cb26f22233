"""Exact random-walk products, hypergroup verdicts, and operator bounds
for pointed graphs.

The core pipeline: realize a pointed graph (fixture, file, or Cayley
window), compute rational structure constants from sphere intersections,
classify the resulting algebra, and cross-validate pattern products,
distance-process laws, and transition-matrix identities.

Every module but `cli` is registered lazily (importlib's LazyLoader): it
is in sys.modules from `import forge` on, but runs its code only on first
attribute access, so a command runs only the layers it touches.  The
names below resolve through the module `__getattr__` (PEP 562).
"""

import importlib.util
import sys

__version__ = "0.1.0"

# Each re-exported name and the module that defines it.
_LAYER_OF = {
    name: layer
    for layer, names in {
        "cayley": "CayleyGraph build_cayley check_S3 parse_group_spec realize_full realize_window",
        "errors": "ForgeError",
        "fixtures": "resolve_spec",
        "graphs": "PointedGraph build_graph check_assumptions index_set load_graph_file sphere_at",
        "hypergroup": "ProbabilityVector StructureTable associativity_defect build_table check_S1 check_S2"
        " check_distance_regular classify product sphere_sizes",
        "matrices": "commute_check irreducibility norm_bounds stationary_check uniform_norm_bound"
        " verify_maincoro verify_regular_representation",
        "regression": "paper_regression",
        "search": "enumerate_connected_graphs replay_counterexample search_conjecture",
        "walks": "brute_force_conditional conditional_step_identity joint_distance_law jump_distribution"
        " left_nested_product markov_check monte_carlo_conditional permutation_invariance_check"
        " uniform_distribution validate_alpha",
    }.items()
    for name in names.split()
}
__all__ = sorted(_LAYER_OF)


def _lazy(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


globals().update(
    (name, _lazy(name))
    for name in ("errors", "serialize", "graphs", "cayley", "fixtures", "hypergroup", "walks", "matrices", "search", "regression")
)


def __getattr__(name: str):
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_LAYER_OF[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})
