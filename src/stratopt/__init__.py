"""Exact univariate stratification under proportional allocation.

Given a population sorted by a size variable, this package finds the stratum
boundaries that minimize the variance of the estimated total when the sample
is spread proportionally across strata. Boundaries can only sit between
distinct values, every stratum must contain at least two distinct values,
and the optimum is found exactly as the cheapest path with one arc per
stratum through a layered graph of candidate segments. An exhaustive oracle
covers small instances so the solver can always be cross-checked.
"""

from __future__ import annotations

from .errors import (
    DEFAULT_ORACLE_CAP,
    ConsistencyError,
    DataError,
    DegenerateAllocationError,
    EmptyPopulationError,
    InfeasibleAllocationError,
    InfeasibleProblemError,
    InputSchemaError,
    InvalidSpecError,
    OracleTooLargeError,
    StratificationError,
    UndefinedCVError,
    UndefinedVarianceError,
)
from .graph import Arc, LayeredGraph, arc_counts, attach_costs, build_layered_graph, count_solutions
from .moments import (
    PrefixMoments,
    ProblemSpec,
    SegmentStats,
    allocate_neyman,
    allocate_proportional,
    build_prefix_moments,
    coefficient_of_variation,
    segment_stats,
    segment_stats_direct,
    total_variance_proportional,
    unit_cost,
    variance_factor,
    variance_general,
)
from .population import (
    FrequencyTable,
    Population,
    build_frequency_table,
    load_population,
)
from .solver import (
    PathSolution,
    StratificationSolution,
    StratumReport,
    path_to_solution,
    solve,
    solve_problem,
)

__version__ = "0.1.0"


# solving never needs the exhaustive oracle, so it loads on first use
def __getattr__(name: str) -> object:
    """brute_force_solve, imported from .oracle on first access (PEP 562)."""
    if name != "brute_force_solve":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    value = globals()[name] = getattr(oracle, name)
    return value

__all__ = [
    "Arc",
    "ConsistencyError",
    "DEFAULT_ORACLE_CAP",
    "DataError",
    "DegenerateAllocationError",
    "EmptyPopulationError",
    "FrequencyTable",
    "InfeasibleAllocationError",
    "InfeasibleProblemError",
    "InputSchemaError",
    "InvalidSpecError",
    "LayeredGraph",
    "OracleTooLargeError",
    "PathSolution",
    "Population",
    "PrefixMoments",
    "ProblemSpec",
    "SegmentStats",
    "StratificationError",
    "StratificationSolution",
    "StratumReport",
    "UndefinedCVError",
    "UndefinedVarianceError",
    "allocate_neyman",
    "allocate_proportional",
    "arc_counts",
    "attach_costs",
    "brute_force_solve",
    "build_frequency_table",
    "build_layered_graph",
    "build_prefix_moments",
    "coefficient_of_variation",
    "count_solutions",
    "load_population",
    "path_to_solution",
    "segment_stats",
    "segment_stats_direct",
    "solve",
    "solve_problem",
    "total_variance_proportional",
    "unit_cost",
    "variance_factor",
    "variance_general",
]
