"""Exact invariants of toric pairs and toric contractions.

Fans are combinatorial data over integer lattices; every computed
quantity is an int or a Fraction.  The modules build on each other in
order: lattice, fan, divisors, pair, fibration, cover, serialize,
catalog, experiments, cli.
"""

from . import errors
from .catalog import builtin_fixtures, contraction_suite, fixture, generate_family
from .cover import (
    CoverData,
    CoverReport,
    crepant_pullback_pair,
    fiber_relation_vector,
    pr_cover,
    quotient_by_sublattice,
)
from .divisors import (
    InvariantDivisor,
    SupportFunction,
    cartier_index,
    class_reduce,
    classes_equal,
    is_ample,
    is_cartier,
    is_nef,
    is_principal_class,
)
from .experiments import (
    ExperimentConfig,
    run_delta_experiment,
    run_monotonicity_experiment,
    run_multiplicity_experiment,
)
from .fan import (
    Cone,
    Fan,
    classify_fan,
    product_fan,
    star_subdivide,
    validate_fan,
)
from .fibration import (
    ToricContraction,
    base_lct_infimum,
    discriminant_divisor,
    fiber_multiplicities_over,
    general_fiber_and_split,
    is_fano_contraction,
    is_mori_fiber_space,
    lct_box_oracle,
    lct_over_direction,
    relative_triviality,
    tower_consistency_check,
    validate_contraction,
)
from .lattice import IntMatrix, Sublattice, kernel_basis, primitive_part, snf_decompose
from .pair import (
    BoundaryData,
    GenericMember,
    ToricPair,
    average_boundary,
    build_pair,
    crepant_transfer,
    has_terminal_singularities,
    log_discrepancy_at,
    mld_and_eps_check,
)
from .serialize import Instance, load_document, parse_text, to_json_text

__all__ = [
    "errors",
    "BoundaryData",
    "Cone",
    "CoverData",
    "CoverReport",
    "ExperimentConfig",
    "Fan",
    "GenericMember",
    "Instance",
    "IntMatrix",
    "InvariantDivisor",
    "Sublattice",
    "SupportFunction",
    "ToricContraction",
    "ToricPair",
    "average_boundary",
    "base_lct_infimum",
    "build_pair",
    "builtin_fixtures",
    "cartier_index",
    "class_reduce",
    "classes_equal",
    "classify_fan",
    "contraction_suite",
    "crepant_pullback_pair",
    "crepant_transfer",
    "discriminant_divisor",
    "fiber_multiplicities_over",
    "fiber_relation_vector",
    "fixture",
    "general_fiber_and_split",
    "generate_family",
    "has_terminal_singularities",
    "is_ample",
    "is_cartier",
    "is_fano_contraction",
    "is_mori_fiber_space",
    "is_nef",
    "is_principal_class",
    "kernel_basis",
    "lct_box_oracle",
    "lct_over_direction",
    "load_document",
    "log_discrepancy_at",
    "mld_and_eps_check",
    "parse_text",
    "pr_cover",
    "primitive_part",
    "product_fan",
    "quotient_by_sublattice",
    "relative_triviality",
    "run_delta_experiment",
    "run_monotonicity_experiment",
    "run_multiplicity_experiment",
    "snf_decompose",
    "star_subdivide",
    "to_json_text",
    "tower_consistency_check",
    "validate_contraction",
    "validate_fan",
]
