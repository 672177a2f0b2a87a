"""Exhaustive ground truth for small instances.

A stratification is a composition of the K distinct values into L runs of at
least two, so small instances can be enumerated outright and every one of
them scored. The path solver must never disagree with this.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import replace
from itertools import chain, combinations, repeat
from operator import add, mul
from typing import Iterator

from .errors import ConsistencyError, OracleTooLargeError
from .graph import cost_table
from .moments import ProblemSpec, build_prefix_moments, exact_cost_units
from .population import FrequencyTable
from .solver import StratificationSolution, _report, check_problem

Composition = tuple[int, ...]
"""Distinct-value counts per stratum: every entry >= 2, entries summing to K."""

DEFAULT_ORACLE_CAP = 10_000_000


def count_solutions(K: int, L: int) -> int:
    """Number of feasible stratifications, comb(K - L - 1, L - 1).

    Exact at any size (Python integers). Returns 0 when K < 2L, where no
    feasible stratification exists.
    """
    if L < 1:
        raise ValueError(f"stratum count must be at least 1, got L={L}")
    if K < 2 * L:
        return 0
    return math.comb(K - L - 1, L - 1)


def enumerate_compositions(K: int, L: int) -> Iterator[Composition]:
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


def brute_force_solve(
    ft: FrequencyTable, spec: ProblemSpec, cap: int = DEFAULT_ORACLE_CAP
) -> StratificationSolution:
    """Score every feasible stratification and report the best.

    A match with solve_problem certifies that no feasible stratification
    scores lower on the same float cost table, and that ties went to the
    smallest node sequence. The costs are not recomputed, so a costing
    error reaches both sides; the test suite checks the table's layout
    against a per-segment reference scorer. Nothing else is shared with the
    solver's dynamic program. The costs become exact integer units whose
    size the table's least positive cost sets, so totals do not depend on
    summation order and cost ties are genuine. Raises InfeasibleProblemError
    and InvalidSpecError from check_problem, before the cap is tested;
    OracleTooLargeError when the enumeration would exceed cap;
    ConsistencyError when the walk scores a number of compositions other
    than count_solutions(K, L); and otherwise what solve_problem raises
    after its check.
    """
    start = time.perf_counter()
    bounds = check_problem(ft, spec)
    m = count_solutions(ft.K, spec.L)
    if m > cap:
        raise OracleTooLargeError(
            f"enumeration needs {m} evaluations, above the cap of {cap}"
        )
    pm = build_prefix_moments(ft)
    # scored in exact units, independent of the solver's tie certificate
    rows, final = _exact_units(*cost_table(pm, bounds))
    nodes, scored = _walk_compositions(rows, final, ft.K, spec.L)
    if scored != m:
        raise ConsistencyError(
            f"exhaustive walk scored {scored} compositions, expected {m}"
        )
    solution = _report(nodes, pm, ft, spec)
    return replace(solution, elapsed=time.perf_counter() - start)


def _exact_units(
    rows: list[list[float]], final: list[float | None]
) -> tuple[list[list[int]], list[int | None]]:
    """The cost table as exact integer counts of one unit, 2**-s.

    A float c > 0 is a 53-bit integer times 2**(e - 53), e = frexp(c)[1], so
    s = 53 - e with e that of the least positive cost makes every cost an
    integer, and c * 2**s forms it exactly as a float while that product
    stays in range. The table's own precision thus sets the unit, which
    keeps the integers narrow. A table whose costs span too wide a range for
    that takes 2**-1074 units, which hold any float. Totals in these units
    are only compared, never converted back, so s is not kept.
    """
    costs = [cost for cost in final if cost is not None]
    least = min(filter(None, chain(*rows, costs)), default=math.inf)
    shift = 0 if least == math.inf else max(0, 53 - math.frexp(least)[1])
    if shift <= 1023 and max(chain(*rows, costs)) * 2.0**shift < math.inf:
        factor = 2.0**shift

        def units(row: list[float]) -> Iterator[int]:
            return map(int, map(mul, row, repeat(factor)))

    else:

        def units(row: list[float]) -> Iterator[int]:
            return map(exact_cost_units, row)

    final_units = units(costs)
    return (
        [list(units(row)) for row in rows],
        [None if cost is None else next(final_units) for cost in final],
    )


def _walk_compositions(
    rows: list[list[int]], final: list[int | None], K: int, L: int
) -> tuple[tuple[int, ...], int]:
    """Cheapest node sequence by scoring every composition, and the number
    of compositions scored.

    The last two strata, i..j-1 and j..K, cost rows[i][j-i-2] + final[j];
    that list over j is formed once per i. For L >= 3 the prefixes
    1 = n_0 < ... < n_{L-3} = a are grouped by a, and one flat list per
    group holds the group's first prefix total plus rows[a][i-a-2] plus the
    last-two list of i for every i, in (i, j) order: that prefix's full
    totals, whose least it keeps with no pass of its own. Every other prefix
    forms its full totals, its difference from the first prefix total plus
    each flat entry, in one C-level pass and keeps the least. Nothing is
    pruned: every composition's total is formed once and compared. Totals are
    exact integers, so ties are genuine: min keeps the leftmost within a
    prefix, and across prefixes, whose groups leave lexicographic order
    once L >= 5, the smaller node sequence wins, so the answer is the first
    composition enumerated among ties. Memory stays within a constant
    factor of the table's, as each flat list is freed before the next is
    built.
    """
    if L == 1:
        return (1, K + 1), 1
    reach = range(1, 2) if L == 2 else range(2 * L - 3, K - 2)
    last_two = {i: list(map(add, rows[i], final[i + 2 : K])) for i in reach}
    if L == 2:
        totals = last_two[1]
        return (1, 3 + totals.index(min(totals)), K + 1), len(totals)
    best_nodes: tuple[int, ...] = ()
    best_total: float = math.inf
    scored = 0
    for a, prefixes in _prefix_groups(K, L):
        lead = _prefix_units(rows, prefixes[0])
        flat: list[int] = []
        starts: list[int] = []
        # zip stops at the range before reading past head K-3 of rows[a]
        for i, cost in zip(range(a + 2, K - 2), rows[a]):
            starts.append(len(flat))
            flat += map(add, repeat(lead + cost), last_two[i])
        for prefix in prefixes:
            base = _prefix_units(rows, prefix) - lead
            low = min(map(add, repeat(base), flat)) if base else min(flat)
            scored += len(flat)
            if low <= best_total:
                at = flat.index(low - base)
                block = bisect_right(starts, at) - 1
                i = a + 2 + block
                nodes = (*prefix, i, i + 2 + at - starts[block], K + 1)
                if low < best_total or nodes < best_nodes:
                    best_nodes, best_total = nodes, low
        del flat
    return best_nodes, scored


def _prefix_groups(K: int, L: int) -> Iterator[tuple[int, list[tuple[int, ...]]]]:
    """Every prefix 1 = n_0 < ... < n_{L-3} of an L >= 3 stratification,
    grouped by its last node a, lexicographic within each group."""
    if L == 3:
        yield 1, [(1,)]
        return
    # n_h - h for h = 1..L-3 rises strictly from 2 to at most K-L-2 (stars
    # and bars, as in enumerate_compositions), so a runs over 2L-5..K-5
    for a in range(2 * L - 5, K - 4):
        yield a, [
            (1, *(m + h for h, m in enumerate(shifted, start=1)), a)
            for shifted in combinations(range(2, a - L + 3), L - 4)
        ]


def _prefix_units(rows: list[list[int]], prefix: tuple[int, ...]) -> int:
    """Total units of the strata that the node prefix closes."""
    return sum(rows[t][h - t - 2] for t, h in zip(prefix, prefix[1:]))
