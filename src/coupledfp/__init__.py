"""Coupled fixed points of mixed-monotone two-variable maps on ordered
metric spaces.

The library realizes the ambient space as R^d with a coordinatewise order
and a complete norm metric, runs the coupled Picard iteration with
geometric a-priori and a-posteriori error bounds, and treats every
hypothesis it cannot prove (mixed monotonicity, the rational contraction
inequality, uniqueness) as a runtime-checkable, falsifiable property backed
by seeded sampling.
"""

from .certificate import (
    CertificateReport,
    ParamEstimate,
    SamplePair,
    SampleSet,
    certify_region,
    directed_pairs,
    estimate_params,
    evaluate_samples,
    explicit_pairs,
    sample_comparable_pairs,
)
from .errors import (
    ComparabilityError,
    CoupledFPError,
    DimensionMismatchError,
    DivergenceError,
    DomainError,
    ExpressionError,
    InputError,
)
from .expressions import Expression, parse_expression
from .iteration import (
    ChainReport,
    IterationConfig,
    IterationTrace,
    SeedRun,
    SolveResult,
    TraceEntry,
    UniquenessReport,
    apriori_gap_bound,
    apriori_iteration_count,
    check_monotone_chain,
    check_seed_condition,
    iterate,
    uniqueness_probe,
    verify_coupled_fixed_point,
)
from .maps import (
    ContractionParams,
    CoupledMap,
    MonotoneReport,
    contraction_margin,
    dass_gupta_margin,
    margin_terms,
    mixed_monotone_check,
    rational_min_term,
)
from .problems import (
    BUILTINS,
    ProblemSpec,
    build_problem,
    get_builtin,
    load_problem,
)
from .spaces import (
    METRICS,
    Pair,
    SpaceDescriptor,
    as_point,
    comparable,
    distance,
    find_bridge,
    leq,
    product_leq,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTINS",
    "CertificateReport",
    "ChainReport",
    "ComparabilityError",
    "ContractionParams",
    "CoupledFPError",
    "CoupledMap",
    "DimensionMismatchError",
    "DivergenceError",
    "DomainError",
    "Expression",
    "ExpressionError",
    "InputError",
    "IterationConfig",
    "IterationTrace",
    "METRICS",
    "MonotoneReport",
    "Pair",
    "ParamEstimate",
    "ProblemSpec",
    "SamplePair",
    "SampleSet",
    "SeedRun",
    "SolveResult",
    "SpaceDescriptor",
    "TraceEntry",
    "UniquenessReport",
    "apriori_gap_bound",
    "apriori_iteration_count",
    "as_point",
    "build_problem",
    "certify_region",
    "check_monotone_chain",
    "check_seed_condition",
    "comparable",
    "contraction_margin",
    "dass_gupta_margin",
    "directed_pairs",
    "distance",
    "estimate_params",
    "evaluate_samples",
    "explicit_pairs",
    "find_bridge",
    "get_builtin",
    "iterate",
    "leq",
    "load_problem",
    "margin_terms",
    "mixed_monotone_check",
    "parse_expression",
    "product_leq",
    "rational_min_term",
    "sample_comparable_pairs",
    "uniqueness_probe",
    "verify_coupled_fixed_point",
]
