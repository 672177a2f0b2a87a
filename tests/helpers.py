"""Shared test data builders and independent reference computations.

Reference values here deliberately avoid the package's prefix-moment route:
statistics.variance works on exact fractions internally, which makes it a
trustworthy independent scorer for small instances.
"""

from __future__ import annotations

import csv
import io
import math
import random
import statistics
from fractions import Fraction
from functools import cache
from itertools import combinations, repeat
from operator import add
from typing import Iterable, Iterator

from stratopt import (
    DataError,
    EmptyPopulationError,
    FrequencyTable,
    InputSchemaError,
    LayeredGraph,
    PathSolution,
    Population,
    PrefixMoments,
    ProblemSpec,
    StratificationSolution,
    build_frequency_table,
    build_prefix_moments,
    count_solutions,
    load_population,
    path_to_solution,
    segment_stats,
    unit_cost,
    variance_factor,
)
from stratopt.graph import Bounds, CostTable
from stratopt.moments import exact_cost_units

# sorts to the worked example multiset (2, 4, 4, 8, 10, 10, 10, 15, 15)
DESK_X = (10, 2, 4, 8, 10, 4, 15, 10, 15)

DESK_CSV = "x\n" + "\n".join(str(x) for x in DESK_X) + "\n"


def population_from_pairs(pairs) -> Population:
    """Write (x, y) pairs as exact repr text and load them, so tests group
    rows through the same path as real input."""
    text = "x,y\n" + "".join(f"{float(x)!r},{float(y)!r}\n" for x, y in pairs)
    return load_population(io.StringIO(text), "x", "y")


def table_from_pairs(pairs) -> FrequencyTable:
    return build_frequency_table(population_from_pairs(pairs))


def desk_table() -> FrequencyTable:
    return table_from_pairs((x, x) for x in DESK_X)


def random_pairs(
    rng: random.Random, L: int, k_max: int = 25, k_min: int = 0
) -> list[tuple[float, float]]:
    """Raw (x, y) rows with an exact count of distinct x in
    [max(2L, k_min), k_max].

    x values are cumulative positive gaps, so they are distinct by
    construction; y is lognormal.
    """
    k = rng.randint(max(2 * L, k_min), k_max)
    values = []
    x = 0.0
    for _ in range(k):
        x += rng.lognormvariate(0.0, 1.0)
        values.append(x)
    pairs = []
    for value in values:
        for _ in range(rng.randint(1, 4)):
            pairs.append((value, rng.lognormvariate(0.0, 1.0)))
    return pairs


def random_instance(
    rng: random.Random, L: int, k_max: int = 25, k_min: int = 0
) -> FrequencyTable:
    return table_from_pairs(random_pairs(rng, L, k_max, k_min))


def tie_heavy_pairs(rng: random.Random, K: int) -> list[tuple[float, float]]:
    """Raw (x, y) rows with K distinct integer-spaced x and y drawn from
    {1, 2}, so many splits share a cost exactly."""
    pairs = []
    x = 0.0
    for _ in range(K):
        x += rng.randint(1, 3)
        for _ in range(rng.randint(1, 3)):
            pairs.append((x, float(rng.choice((1, 2)))))
    return pairs


def skewed_table(n_units: int = 900, k_distinct: int = 272, seed: int = 20240917) -> FrequencyTable:
    """Deterministic skewed population: many small units, a long right tail."""
    rng = random.Random(seed)
    values = []
    x = 0.0
    for _ in range(k_distinct):
        x += rng.lognormvariate(0.0, 1.0)
        values.append(x)
    counts = [1] * k_distinct
    for _ in range(n_units - k_distinct):
        index = min(int(rng.expovariate(1.0 / 40.0)), k_distinct - 1)
        counts[index] += 1
    pairs = [(v, v) for v, c in zip(values, counts) for _ in range(c)]
    return table_from_pairs(pairs)


def random_composition(rng: random.Random, K: int, L: int) -> tuple[int, ...]:
    """Uniformly random feasible composition: L parts >= 2 summing to K."""
    if L == 1:
        return (K,)
    slack = K - 2 * L
    slots = slack + L - 1
    bars = sorted(rng.sample(range(slots), L - 1))
    parts = []
    previous = -1
    for bar in bars:
        parts.append(bar - previous - 1)
        previous = bar
    parts.append(slots - 1 - previous)
    return tuple(part + 2 for part in parts)


def enumerate_compositions(K: int, L: int) -> Iterator[tuple[int, ...]]:
    """Yield every feasible composition once, in lexicographic order.

    Stars and bars: the L widths less one each are L positive parts of
    K - L, one per set of L - 1 cuts in 1..K-L-1, and cut sets in
    lexicographic order give compositions in lexicographic order. The stream
    is empty when K < 2L. Its length always equals count_solutions(K, L).
    """
    if not count_solutions(K, L):
        return
    for cuts in combinations(range(1, K - L), L - 1):
        ends = (0, *cuts, K - L)
        yield tuple(b - a + 1 for a, b in zip(ends, ends[1:]))


def nodes_from_composition(widths) -> tuple[int, ...]:
    nodes = [1]
    for width in widths:
        nodes.append(nodes[-1] + width)
    return tuple(nodes)


def reference_variance(pairs, widths, spec: ProblemSpec) -> float:
    """Score one composition straight from raw rows, sharing no code with
    the prefix-moment route."""
    ordered = sorted(pairs, key=lambda p: p[0])
    distinct = sorted({x for x, _ in ordered})
    assert sum(widths) == len(distinct)
    costs = []
    start = 0
    for width in widths:
        block = set(distinct[start : start + width])
        ys = [y for x, y in ordered if x in block]
        costs.append(len(ys) * statistics.variance(ys))
        start += width
    return variance_factor(spec) * sum(costs)


def reference_brute_force_solve(
    ft: FrequencyTable, spec: ProblemSpec
) -> StratificationSolution:
    """Per-composition exhaustive scorer: every composition from
    enumerate_compositions is scored segment by segment through
    segment_stats, in exact integer units, and a strict < keeps the first
    composition enumerated among ties."""
    pm = build_prefix_moments(ft)
    segment_units: dict[tuple[int, int], int] = {}
    best_nodes: tuple[int, ...] | None = None
    best_total: int | None = None
    for widths in enumerate_compositions(ft.K, spec.L):
        nodes = nodes_from_composition(widths)
        total = 0
        for i, j in zip(nodes, nodes[1:]):
            units = segment_units.get((i, j))
            if units is None:
                units = exact_cost_units(unit_cost(segment_stats(pm, i, j)))
                segment_units[(i, j)] = units
            total += units
        if best_total is None or total < best_total:
            best_total = total
            best_nodes = nodes
    assert best_nodes is not None and best_total is not None
    path = PathSolution(best_nodes, units_to_float(best_total))
    return path_to_solution(path, pm, ft, spec)


def exact_brute_force_nodes(pairs, L: int) -> tuple[int, ...]:
    """Leftmost optimal node sequence with every composition scored in
    exact rationals straight from the raw (x, y) floats: the sum of
    N_h * S2_h as a Fraction, no float rounding anywhere."""
    groups: dict[float, list[Fraction]] = {}
    for x, y in pairs:
        groups.setdefault(float(x), []).append(Fraction(y))
    ys_by_group = [groups[x] for x in sorted(groups)]
    best_nodes: tuple[int, ...] | None = None
    best_total: Fraction | None = None
    for widths in enumerate_compositions(len(ys_by_group), L):
        nodes = nodes_from_composition(widths)
        total = Fraction(0)
        for i, j in zip(nodes, nodes[1:]):
            ys = [y for group in ys_by_group[i - 1 : j - 1] for y in group]
            total += len(ys) * statistics.variance(ys)
        if best_total is None or total < best_total:
            best_total = total
            best_nodes = nodes
    assert best_nodes is not None
    return best_nodes


def exact_dp_nodes(pairs, L: int) -> tuple[int, ...]:
    """Lexicographically smallest node sequence of least exact cost, by
    Bellman's dynamic program over the layers in exact rationals.

    Each group's sum of y and of y^2 are Fractions summed from the raw
    (x, y) floats, so a stratum of groups i..j-1 holding n units, whose y
    sum to s and whose y^2 sum to q, costs N_h * S2_h =
    (n q - s^2) / (n - 1) exactly, whatever the shift or scale of y. A
    node's completion is the least cost of the strata left from it, and
    its head the smallest one reaching that least cost, so the path read
    forward from node 1 is the smallest of least cost. It shares no code
    with the package's costing or search.
    """
    groups: dict[float, list[Fraction]] = {}
    for x, y in pairs:
        groups.setdefault(float(x), []).append(Fraction(y))
    # prefix count, sum of y and sum of y^2 over the groups in x order;
    # exact, so differences of them do not cancel
    counts, sums, squares = [0], [Fraction(0)], [Fraction(0)]
    for x in sorted(groups):
        ys = groups[x]
        counts.append(counts[-1] + len(ys))
        sums.append(sums[-1] + sum(ys))
        squares.append(squares[-1] + sum(y * y for y in ys))
    K = len(groups)
    if K < 2 * L:
        raise ValueError(f"K={K} distinct values cannot form L={L} strata")

    @cache  # a segment is an arc of several layers
    def cost(i: int, j: int) -> Fraction:
        n = counts[j - 1] - counts[i - 1]
        s = sums[j - 1] - sums[i - 1]
        return (n * (squares[j - 1] - squares[i - 1]) - s * s) / (n - 1)

    # completion[j] is the least exact cost from node j to K + 1 over the
    # strata left; choices maps each layer's tails to their heads, the
    # last layer first
    completion = {K + 1: Fraction(0)}
    choices: list[dict[int, int]] = []
    for h in range(L - 1, -1, -1):
        tails = range(2 * h + 1, K + 2 - 2 * (L - h)) if h else (1,)
        best = {
            i: min((cost(i, j) + total, j) for j, total in completion.items() if j >= i + 2)
            for i in tails
        }
        completion = {i: total for i, (total, _) in best.items()}
        choices.append({i: j for i, (_, j) in best.items()})
    nodes = [1]
    for choice in reversed(choices):
        nodes.append(choice[nodes[-1]])
    return tuple(nodes)


def count_paths(graph: LayeredGraph) -> int:
    """Number of source to terminal paths using one arc per layer."""
    ways = {1: 1}
    for layer in graph.layers:
        onward: dict[int, int] = {}
        for arc in layer:
            weight = ways.get(arc.tail)
            if weight:
                onward[arc.head] = onward.get(arc.head, 0) + weight
        ways = onward
    return ways.get(graph.K + 1, 0)


def reference_cost_table(
    pm: PrefixMoments, bounds: Bounds, clamped: list[tuple[int, int]] | None = None
) -> CostTable:
    """cost_table as it ran before each row was costed in one float pass:
    one (n_pop, s2, y_total) tuple per segment from the int unit counts,
    then n_pop * s2 of each, row by row in tail order. A squared y total
    that overflows anywhere in a row raises before a cost of that row that
    overflows. cost_table must match it bit for bit, error for error.
    clamped, when given, collects the (i, j) of every segment whose sum of
    squares was clamped to 0."""
    K = pm.K
    *inner, (last_tails, _, _) = bounds
    row_stop: dict[int, int] = {}
    for tails, _, head_stop in inner:
        for i in tails:
            row_stop[i] = max(row_stop.get(i, 0), head_stop)
    rows: list[list[float]] = [[] for _ in range(K + 1)]
    final: list[float | None] = [None] * (K + 1)
    for i in sorted(row_stop.keys() | set(last_tails)):
        heads = list(range(i + 2, row_stop.get(i, i + 2)))
        if i in last_tails:
            heads.append(K + 1)
        segments = _reference_segment_row(pm, i, heads, clamped)
        row = [n_pop * s2 for n_pop, s2, _ in segments]
        if math.inf in row:
            j = heads[row.index(math.inf)]
            raise DataError(
                f"y values too large: the cost of groups {i}..{j - 1} "
                "overflows a float"
            )
        if i in last_tails:
            final[i] = row.pop()
        rows[i] = row
    return rows, final


def _reference_segment_row(
    pm: PrefixMoments,
    i: int,
    heads: Iterable[int],
    clamped: list[tuple[int, int]] | None,
) -> list[tuple[int, float, float]]:
    cum_count, cum_y, cum_y2 = pm.cum_count, pm.cum_y, pm.cum_y2
    count_before, y_before, y2_before = cum_count[i - 1], cum_y[i - 1], cum_y2[i - 1]
    row = []
    for j in heads:
        n_pop = cum_count[j - 1] - count_before
        y_total = cum_y[j - 1] - y_before
        ss = cum_y2[j - 1] - y2_before - y_total * y_total / n_pop
        if ss < 0.0:
            if math.isinf(y_total * y_total):
                raise DataError(
                    f"y values too large: the squared y total of groups "
                    f"{i}..{j - 1} overflows a float"
                )
            ss = 0.0
            if clamped is not None:
                clamped.append((i, j))
        row.append((n_pop, ss / (n_pop - 1), y_total))
    return row


def units_to_float(units: int) -> float:
    """A count of 2^-1074 units rounded once to the nearest float: integer
    true division rounds correctly, and raises OverflowError past the float
    range."""
    return units / (1 << 1074)


def units_table(table: CostTable) -> tuple[list[list[int]], list[int | None]]:
    """A cost_table with every cost embedded in exact 2^-1074 units."""
    rows, final = table
    return (
        [[exact_cost_units(cost) for cost in row] for row in rows],
        [None if cost is None else exact_cost_units(cost) for cost in final],
    )


def reference_walk_compositions(
    rows: list[list[int]], final: list[int | None], K: int, L: int
) -> tuple[tuple[int, ...], int, int]:
    """The exhaustive walk as it ran before the oracle grouped its prefixes,
    over a units_table: cheapest node sequence, its total in 2^-1074 units,
    and the number of compositions scored.

    The prefixes 1 = n_0 < ... < n_{L-3} come in lexicographic order, each
    with its total summed from the table, and n_{L-2} = i runs over every
    position after each of them. For each i, one pass over rows[i] scores
    every split j of the last two strata as rows[i][j-i-2] + final[j]; a
    strict < and the leftmost min keep the first composition enumerated
    among ties.
    """
    if L == 1:
        return (1, K + 1), final[1], 1
    if L == 2:
        prefixes: Iterable[tuple[int, ...]] = [()]
        reach = range(1, 2)
    else:
        # n_h - h for h = 1..L-3 rises strictly from 2 to at most K-L-2
        prefixes = (
            (1, *(m + h for h, m in enumerate(shifted, start=1)))
            for shifted in combinations(range(2, K - L - 1), L - 3)
        )
        reach = range(2 * L - 3, K - 2)
    finals = {i: final[i + 2 : K] for i in reach}
    best_nodes: tuple[int, ...] = ()
    best_total: int | None = None
    scored = 0
    for prefix in prefixes:
        if prefix:
            a = prefix[-1]
            base = sum(rows[t][h - t - 2] for t, h in zip(prefix, prefix[1:]))
            # zip stops at the range before map reads past head K-3
            tails = zip(range(a + 2, K - 2), map(add, repeat(base), rows[a]))
        else:
            tails = ((1, 0),)
        for i, total in tails:
            sub = list(map(add, rows[i], finals[i]))
            low = min(sub)
            scored += len(sub)
            if best_total is None or total + low < best_total:
                best_total = total + low
                best_nodes = (*prefix, i, i + 2 + sub.index(low), K + 1)
    assert best_total is not None
    return best_nodes, best_total, scored


def reference_cheapest_path(
    bounds: Bounds, rows: list[list[int]], final: list[int | None]
) -> tuple[tuple[int, ...], int]:
    """The layered dynamic program run wholly in exact integer units, over
    a units_table: the reference the solver's float dynamic program with its
    tie certificate must match, node for node and unit for unit.

    Each (layer, tail) keeps its leftmost cheapest head, so following the
    choices forward yields the lexicographically smallest optimal node
    sequence.
    """
    *inner, (_, terminal, _) = bounds
    completion = final
    choices: list[dict[int, int]] = []
    for tails, _, head_stop in reversed(inner):
        here: list[int | None] = [None] * terminal
        choice: dict[int, int] = {}
        for i in tails:
            totals = list(map(add, rows[i], completion[i + 2 : head_stop]))
            best = min(totals)
            here[i] = best
            choice[i] = i + 2 + totals.index(best)
        completion = here
        choices.append(choice)
    nodes = [1]
    for choice in reversed(choices):
        nodes.append(choice[nodes[-1]])
    nodes.append(terminal)
    return tuple(nodes), completion[1]


def reference_load_population(
    source: Iterable[str],
    x_column: str = "x",
    y_column: str | None = None,
    delimiter: str = ",",
) -> Population:
    """The loader as it was before clean rows skipped the per-cell checks:
    every record passes the blank-row rule and one checked parse per cell.
    The one-step loader must match it group for group and error for error."""
    rows = _reference_read_rows(source, delimiter)
    try:
        header = [cell.strip() for cell in next(rows)[1]]
    except StopIteration:
        raise EmptyPopulationError("input has no header row") from None

    x_index = _reference_column_index(header, x_column)
    y_index = None if y_column is None else _reference_column_index(header, y_column)

    groups: dict[float, list[float]] = {}
    for row_number, row in rows:
        if not row or all(cell.strip() == "" for cell in row):
            continue
        x = _reference_parse_cell(row, x_index, x_column, row_number)
        y = x if y_index is None else _reference_parse_cell(row, y_index, y_column, row_number)
        groups.setdefault(x, []).append(y)

    if not groups:
        raise EmptyPopulationError("input has a header but no data rows")
    return Population(groups)


def _reference_read_rows(
    source: Iterable[str], delimiter: str
) -> Iterator[tuple[int, list[str]]]:
    reader = csv.reader(source, delimiter=delimiter)
    line = 1
    try:
        for row in reader:
            yield line, row
            line = reader.line_num + 1
    except UnicodeDecodeError:
        raise DataError("input is not UTF-8 text") from None
    except csv.Error as exc:
        raise DataError(f"row {reader.line_num}: malformed CSV: {exc}") from None


def _reference_column_index(header: list[str], name: str) -> int:
    try:
        return header.index(name)
    except ValueError:
        raise InputSchemaError(
            f"column {name!r} not found in header {header}"
        ) from None


def _reference_parse_cell(
    row: list[str], index: int, name: str | None, row_number: int
) -> float:
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
