"""Exact induced-density and inducibility toolkit for small graphs.

Each public name is imported from its submodule on first use (PEP 562), so
a command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "brightness": "BrightnessReport brightness_exact brightness_lower_bounds brightness_mc"
    " brightness_report is_bright",
    "bounds": "BoundReport DegreeGapReport SelectorParams find_degree_gap find_sparse_alpha"
    " high_degree_bound high_degree_pair_bound non_uniform_predicate phi regime_selector"
    " solve_epsilon sparse_regime_bound uniform_degree_bound",
    "coloring": "ColoredTrace ColoringSummary run_trial simulate",
    "constructions": "ConstructionReport dtame_blowup gnp_construction split_construction"
    " split_plus_edge",
    "density": "DensityResult count_induced induced_density induced_density_mc",
    "errors": "CheckpointError Graph6Error InputError PreconditionError UnsupportedSizeError",
    "graphs": "DegreeProfile Graph automorphism_count canonical_code"
    " canonical_key complement degree_profile disjoint_union induced_subgraph is_isomorphic"
    " non_isolated_core parse_graph6 to_graph6 with_isolated",
    "proba": "HypergeomParams LambdaSplit binom_point binom_point_max_bound hypergeom_point"
    " lambda_split multi_hypergeom_joint poly_exp_check",
    "search": "IndResult enumerate_graphs ind_exact ind_local_search",
    "structure": "TameWitness VertexClassification classify_vertices is_obscure_oracle"
    " is_tamed_by minimal_taming_number tame_witness_from",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
