"""Exception types raised by the stratification pipeline.

Every error that reaches a caller derives from StratificationError, so the
command line layer can map error families onto exit codes without string
matching.
"""

from __future__ import annotations


class StratificationError(Exception):
    """Base class for all errors raised by this package."""


class InputSchemaError(StratificationError):
    """The input table lacks a required column."""


class DataError(StratificationError):
    """A cell could not be parsed to a finite number, or sums of y overflow."""


class EmptyPopulationError(StratificationError):
    """The input contains no data rows."""


class InvalidSpecError(StratificationError):
    """Problem parameters violate 1 <= n <= N or L >= 1."""


class InfeasibleProblemError(StratificationError):
    """Fewer than 2L distinct values: every stratum needs at least two."""


class UndefinedVarianceError(StratificationError):
    """A segment holding a single unit has no defined dispersion."""


class InfeasibleAllocationError(StratificationError):
    """A per-stratum sample size outside (0, N_h] makes the variance formula blow up."""


class DegenerateAllocationError(StratificationError):
    """Every stratum has zero dispersion, so dispersion-weighted shares are undefined."""


class UndefinedCVError(StratificationError):
    """The coefficient of variation is undefined when the population total is zero."""


class OracleTooLargeError(StratificationError):
    """Exhaustive enumeration would exceed the configured evaluation cap."""


class ConsistencyError(StratificationError):
    """Two independent computation routes disagreed beyond tolerance."""
