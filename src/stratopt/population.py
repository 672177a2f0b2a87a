"""Load raw observations and group them into a distinct-value table.

The pipeline works on a population grouped by a size variable x, with a study
variable y riding along (y defaults to x when the caller names no y column).
All downstream stages see only the per-distinct-value aggregates, never the
raw rows.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from operator import mul
from typing import Iterable

from .errors import DataError, EmptyPopulationError, InputSchemaError


@dataclass(frozen=True, slots=True)
class Population:
    """All units grouped by exact x: each distinct x, in the order it first
    appears, maps to the y values of its units in input order."""

    groups: dict[float, list[float]]

    @property
    def N(self) -> int:
        return sum(map(len, self.groups.values()))


@dataclass(frozen=True, slots=True)
class FrequencyTable:
    """Per-distinct-x aggregates, ascending in x.

    q holds the K distinct values, count their multiplicities, and y_sum and
    y_sumsq the per-group totals of y and y squared. Groups are formed by
    exact float equality, never by an epsilon merge.
    """

    q: tuple[float, ...]
    count: tuple[int, ...]
    y_sum: tuple[float, ...]
    y_sumsq: tuple[float, ...]

    @property
    def K(self) -> int:
        return len(self.q)

    @property
    def N(self) -> int:
        return sum(self.count)


def load_population(
    source: Iterable[str],
    x_column: str = "x",
    y_column: str | None = None,
    delimiter: str = ",",
) -> Population:
    """Read delimiter-separated text with a header row into a Population.

    Each row is parsed in one step, one float() per column. Only a row that
    step refuses (blank, short, or with a cell that is not a finite number)
    goes through the per-cell checks, which skip blank rows and raise the
    same messages, naming the same row, as checking every row would.

    Args:
        source: iterable of text lines (an open file works).
        x_column: header name of the size variable.
        y_column: header name of the study variable, or None to reuse x.
        delimiter: field separator, "," or "\\t" in practice.

    Returns:
        Population grouped by exact x, unsorted.

    Raises:
        InputSchemaError: a named column is missing from the header.
        DataError: the input is not UTF-8 text, a CSV field is malformed or
            a cell is not a finite number (the message names the row if it can).
        EmptyPopulationError: the input has no data rows.
    """
    # strict: a quoted field still open at the end of the input is an error,
    # not a field that swallows the rest of the file
    reader = csv.reader(source, delimiter=delimiter, strict=True)
    groups: dict[float, list[float]] = {}
    # a record starts on the line after the one the previous record ended
    # on, so a quoted field spanning lines does not shift later row numbers
    end = 0
    try:
        header = next(reader, None)
        if header is None:
            raise EmptyPopulationError("input has no header row")
        header = [cell.strip() for cell in header]
        x_index = _column_index(header, x_column)
        y_index = None if y_column is None else _column_index(header, y_column)

        end = reader.line_num
        for row in reader:
            # a row with a cell float() accepts is not blank, so a clean row
            # needs no per-cell check; x - x is nonzero only for inf and nan
            try:
                x = float(row[x_index])
                y = x if y_index is None else float(row[y_index])
            except (ValueError, IndexError):
                x = y = math.nan
            if x - x != 0.0 or y - y != 0.0:  # the per-cell checks, in order
                if not row or all(cell.strip() == "" for cell in row):
                    end = reader.line_num
                    continue
                x = _parse_cell(row, x_index, x_column, end + 1)
                y = x if y_index is None else _parse_cell(row, y_index, y_column, end + 1)
            groups.setdefault(x, []).append(y)
            end = reader.line_num
    except UnicodeDecodeError:
        # text decodes ahead of the parser in buffered chunks, so no row is named
        raise DataError("input is not UTF-8 text") from None
    except csv.Error as exc:
        raise DataError(f"row {end + 1}: malformed CSV: {exc}") from None

    if not groups:
        raise EmptyPopulationError("input has a header but no data rows")
    return Population(groups)


def build_frequency_table(population: Population) -> FrequencyTable:
    """Collapse a grouped population into per-distinct-value aggregates,
    ascending in x. Only the K distinct keys are sorted. Raises DataError
    when a group's sum of squared y overflows a float."""
    if not population.groups:
        raise EmptyPopulationError("cannot tabulate an empty population")
    q: list[float] = []
    count: list[int] = []
    y_sum: list[float] = []
    y_sumsq: list[float] = []
    for value in sorted(population.groups):
        ys = population.groups[value]
        try:
            total_sq = math.fsum(map(mul, ys, ys))
        except OverflowError:  # finite squares whose sum is not
            total_sq = math.inf
        if not math.isfinite(total_sq):
            raise DataError(
                f"y values too large: the sum of squared y overflows in group x={value!r}"
            )
        q.append(value)
        count.append(len(ys))
        y_sum.append(math.fsum(ys))
        y_sumsq.append(total_sq)
    return FrequencyTable(tuple(q), tuple(count), tuple(y_sum), tuple(y_sumsq))


def _column_index(header: list[str], name: str) -> int:
    try:
        return header.index(name)
    except ValueError:
        raise InputSchemaError(
            f"column {name!r} not found in header {header}"
        ) from None


def _parse_cell(row: list[str], index: int, name: str | None, row_number: int) -> float:
    if index >= len(row):
        raise DataError(f"row {row_number}: missing value for column {name!r}")
    text = row[index].strip()
    try:
        value = float(text)
    except ValueError:
        raise DataError(
            f"row {row_number}: cannot parse {name}={text!r} as a number"
        ) from None
    if not math.isfinite(value):
        raise DataError(f"row {row_number}: non-finite {name}={text!r}")
    return value
