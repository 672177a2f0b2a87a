"""Exception types raised by the stratification pipeline, and the oracle's
default cap.

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
    """The input is not UTF-8 text or not well-formed CSV; a cell is missing
    or does not parse to a finite number; a frequency table's fields differ
    in length, a group holds fewer than one unit or x does not ascend
    strictly; or a sum of y or y^2, a squared y total, a segment cost, a
    total cost or the variance overflows a float."""


class EmptyPopulationError(StratificationError):
    """The input has no header row, or no data rows below it."""


class InvalidSpecError(StratificationError):
    """Problem parameters violate 1 <= n <= N or L >= 1, or L, n or N is not
    an integer; the spec's N differs from its table's; or stratum sizes are
    not integers or do not sum to N."""


class InfeasibleProblemError(StratificationError):
    """Fewer than 2L distinct values: every stratum needs at least two."""


class UndefinedVarianceError(StratificationError):
    """A segment holding a single unit has no defined dispersion."""


class InfeasibleAllocationError(StratificationError):
    """A per-stratum sample size outside (0, N_h] makes the variance formula blow up."""


class DegenerateAllocationError(StratificationError):
    """Every stratum has zero dispersion, so dispersion-weighted shares are undefined."""


class UndefinedCVError(StratificationError):
    """The coefficient of variation is undefined when the population total is
    zero or too close to zero."""


class OracleTooLargeError(StratificationError):
    """Exhaustive enumeration would exceed the configured evaluation cap."""


# kept here, so the command line shows it without loading the oracle
DEFAULT_ORACLE_CAP = 10_000_000


class ConsistencyError(StratificationError):
    """Two independent computation routes disagreed beyond tolerance."""
