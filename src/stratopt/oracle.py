"""Exhaustive ground truth for small instances.

A stratification is a composition of the K distinct values into L runs of at
least two, so small instances can be enumerated outright and every one of
them scored. The path solver must never disagree with this.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from itertools import combinations, repeat
from operator import add
from typing import Iterable, Iterator

from .errors import ConsistencyError, OracleTooLargeError
from .graph import cost_table, layer_bounds
from .moments import (
    ProblemSpec,
    build_prefix_moments,
    cost_units_to_float,
    exact_cost_units,
)
from .population import FrequencyTable
from .solver import PathSolution, StratificationSolution, path_to_solution

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
    if L < 1:
        raise ValueError(f"stratum count must be at least 1, got L={L}")
    if K < 2 * L:
        return
    for cuts in combinations(range(1, K - L), L - 1):
        ends = (0, *cuts, K - L)
        yield tuple(b - a + 1 for a, b in zip(ends, ends[1:]))


def brute_force_solve(
    ft: FrequencyTable, spec: ProblemSpec, cap: int = DEFAULT_ORACLE_CAP
) -> StratificationSolution:
    """Score every feasible stratification and report the best.

    Segment costs come from the solver's cost table, turned into exact
    integer units as they are taken, so totals do not depend on summation
    order, cost ties are genuine, and they resolve to the first composition
    enumerated: the lexicographically smallest node sequence. Nothing else
    is shared with the solver's dynamic program; since the table is shared,
    its layout is checked only against a per-segment reference scorer in
    the test suite. Raises
    OracleTooLargeError when the enumeration would exceed cap, and
    ConsistencyError when the walk scores a number of compositions other
    than count_solutions(K, L).
    """
    start = time.perf_counter()
    bounds = layer_bounds(ft.K, spec.L)
    m = count_solutions(ft.K, spec.L)
    if m > cap:
        raise OracleTooLargeError(
            f"enumeration needs {m} evaluations, above the cap of {cap}"
        )
    pm = build_prefix_moments(ft)
    rows, final = cost_table(pm, bounds)
    # scored in exact units, independent of the solver's tie certificate
    rows = [list(map(exact_cost_units, row)) for row in rows]
    final = [None if cost is None else exact_cost_units(cost) for cost in final]
    nodes, total, scored = _walk_compositions(rows, final, ft.K, spec.L)
    if scored != m:
        raise ConsistencyError(
            f"exhaustive walk scored {scored} compositions, expected {m}"
        )
    path = PathSolution(nodes, cost_units_to_float(total))
    solution = path_to_solution(path, pm, ft, spec)
    return replace(solution, elapsed=time.perf_counter() - start)


def _walk_compositions(
    rows: list[list[int]], final: list[int | None], K: int, L: int
) -> tuple[tuple[int, ...], int, int]:
    """Cheapest node sequence by scoring every composition, its total in
    units, and the number of compositions scored.

    The prefixes 1 = n_0 < ... < n_{L-3} come in lexicographic order (stars
    and bars, as in enumerate_compositions), each with its total summed
    from the table, and n_{L-2} = i runs over every position after each of
    them. For each i, one pass over the row rows[i] scores every split j of
    the last two strata, i..j-1 and j..K, as rows[i][j-i-2] + final[j].
    Totals are exact integers, so the total up to i plus the min of the
    pass is the least full total among the compositions through i; a
    strict < and the leftmost min keep the first composition enumerated
    among ties. Memory stays within a constant factor of the table's.
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
    # final[i+2:K] for each i the walk reaches, cut once: cutting it inside
    # every pass measured ~10% slower on instances of K 30-60, L 3-6
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
            # rows[i] and finals[i] both cover the heads i+2..K-1
            sub = list(map(add, rows[i], finals[i]))
            low = min(sub)
            scored += len(sub)
            if best_total is None or total + low < best_total:
                best_total = total + low
                best_nodes = (*prefix, i, i + 2 + sub.index(low), K + 1)
    assert best_total is not None
    return best_nodes, best_total, scored
