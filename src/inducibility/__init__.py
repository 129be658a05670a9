"""Exact induced-density and inducibility toolkit for small graphs."""

__version__ = "0.1.0"

from .brightness import (
    BrightnessReport,
    brightness_exact,
    brightness_lower_bounds,
    brightness_mc,
    brightness_report,
    is_bright,
)
from .bounds import (
    BoundReport,
    DegreeGapReport,
    SelectorParams,
    find_degree_gap,
    find_sparse_alpha,
    high_degree_bound,
    high_degree_pair_bound,
    non_uniform_predicate,
    phi,
    regime_selector,
    solve_epsilon,
    sparse_regime_bound,
    uniform_degree_bound,
)
from .coloring import ColoredTrace, ColoringSummary, run_trial, simulate
from .constructions import (
    ConstructionReport,
    dtame_blowup,
    gnp_construction,
    split_construction,
    split_plus_edge,
)
from .density import DensityResult, count_induced, induced_density, induced_density_mc
from .errors import (
    CheckpointError,
    Graph6Error,
    InputError,
    PreconditionError,
    UnsupportedSizeError,
)
from .graphs import (
    CanonicalCode,
    DegreeProfile,
    Graph,
    automorphism_count,
    canonical_code,
    canonical_key,
    complement,
    degree_profile,
    disjoint_union,
    induced_subgraph,
    is_isomorphic,
    non_isolated_core,
    parse_graph6,
    relabel,
    to_graph6,
    with_isolated,
)
from .proba import (
    HypergeomParams,
    LambdaSplit,
    binom_point,
    binom_point_max_bound,
    hypergeom_point,
    lambda_split,
    multi_hypergeom_joint,
    poly_exp_check,
)
from .search import (
    IndResult,
    enumerate_graphs,
    ind_exact,
    ind_local_search,
)
from .structure import (
    TameWitness,
    VertexClassification,
    classify_vertices,
    is_obscure_oracle,
    is_tamed_by,
    minimal_taming_number,
    tame_witness_from,
)
