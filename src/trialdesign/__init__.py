"""Robust covariate-aware treatment allocation for two-arm trials.

Public surface: covariate validation and encoding, the design
objectives, the exact cutting-plane solver, the single-level
lower-bound approximation, randomized benchmarks, and evaluation
utilities.  See the README for the command line interface.
"""

from .baselines import (
    RAND_LEVELS,
    RandBenchmark,
    quantile_nearest_rank,
    rand_benchmark,
    random_balanced_allocations,
)
from .bqp import BqpResult, CutSet, minimize_max_quadratic
from .covariates import (
    CovariateMatrix,
    CovariateSchema,
    SchemaColumn,
    SyntheticSpec,
    encode_csv,
    encode_rows,
    generate_synthetic,
    matrix_hash,
    validate,
)
from .cutting_plane import solve_exact
from .errors import (
    AllConfounded,
    ConfoundedDesign,
    DuplicateCut,
    EmptyAfterExclusion,
    FirstColumnNotOnes,
    IllConditioned,
    RankDeficient,
    TooFewRows,
    TrialDesignError,
    UnknownLevel,
)
from .evaluation import (
    FittedModel,
    GapPair,
    SimulationSpec,
    VarianceReductionReport,
    fit_interaction_model,
    recommend,
    sample_z0,
    simulate_responses,
    surrogate_gap_scan,
    variance_reduction,
)
from .inner_max import InnerMaxProblem, InnerMaxResult, solve_inner_max, solve_inner_max_group
from .limits import SolveLimits
from .lower_bound import solve_lb
from .objective import (
    Allocation,
    CovariateSpace,
    SpectralCache,
    lb_matrix,
    lb_value,
    original_value,
    psi,
    psi_stack,
    sigma_beta,
    sigma_beta_stack,
    spectral_cache,
    surrogate_matrix,
    surrogate_value,
    upsilon,
)
from .report import (
    DesignReport,
    read_allocation_csv,
    read_matrix_csv,
    write_allocation_csv,
    write_matrix_csv,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "AllConfounded",
    "BqpResult",
    "ConfoundedDesign",
    "CovariateMatrix",
    "CovariateSchema",
    "CovariateSpace",
    "CutSet",
    "DesignReport",
    "DuplicateCut",
    "EmptyAfterExclusion",
    "FirstColumnNotOnes",
    "FittedModel",
    "GapPair",
    "IllConditioned",
    "InnerMaxProblem",
    "InnerMaxResult",
    "RAND_LEVELS",
    "RandBenchmark",
    "RankDeficient",
    "SchemaColumn",
    "SimulationSpec",
    "SolveLimits",
    "SpectralCache",
    "SyntheticSpec",
    "TooFewRows",
    "TrialDesignError",
    "UnknownLevel",
    "VarianceReductionReport",
    "encode_csv",
    "encode_rows",
    "fit_interaction_model",
    "generate_synthetic",
    "lb_matrix",
    "lb_value",
    "matrix_hash",
    "minimize_max_quadratic",
    "original_value",
    "psi",
    "psi_stack",
    "quantile_nearest_rank",
    "rand_benchmark",
    "random_balanced_allocations",
    "read_allocation_csv",
    "read_matrix_csv",
    "recommend",
    "sample_z0",
    "sigma_beta",
    "sigma_beta_stack",
    "simulate_responses",
    "solve_exact",
    "solve_inner_max",
    "solve_inner_max_group",
    "solve_lb",
    "spectral_cache",
    "surrogate_gap_scan",
    "surrogate_matrix",
    "surrogate_value",
    "upsilon",
    "validate",
    "variance_reduction",
    "write_allocation_csv",
    "write_matrix_csv",
]
