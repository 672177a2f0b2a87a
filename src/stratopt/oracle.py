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
from itertools import chain, combinations, compress, count, repeat
from operator import add, eq, getitem, mul, sub
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
    """Find the cheapest feasible stratification by exhaustive search and
    report it.

    A match with solve_problem certifies that no feasible stratification
    scores lower on the same float cost table, and that ties went to the
    smallest node sequence. The costs are not recomputed, so a costing
    error reaches both sides; the test suite checks the table's layout
    against a per-segment reference scorer. The costs become exact integer
    units whose size the table's least positive cost sets, so totals do not
    depend on summation order and cost ties are genuine. The compositions
    are grouped by the node a at which their last min(3, ceil(L/2)) strata
    start: the last two at L = 3 and 4, the last three from L = 5 up, so
    neither side of a short path holds most of its strata. Every total of
    the strata before a and every total of the strata from a on is formed,
    and a group's least total is the least of the first plus the least of
    the second, exact in integer units. Its smallest tied composition is
    the smallest tied prefix followed by the first tied suffix. Nothing
    else is shared with the solver's dynamic program.

    Raises InfeasibleProblemError and InvalidSpecError from check_problem,
    before the cap is tested; OracleTooLargeError when the enumeration
    would exceed cap; ConsistencyError when the groups cover a number of
    compositions other than count_solutions(K, L); and otherwise what
    solve_problem raises after its check.
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
    """Cheapest node sequence over every composition, and the number of
    compositions covered.

    The last two strata, i..j-1 and j..K, cost rows[i][j-i-2] + final[j];
    that list over j is the last-two list of i. For L >= 3 each path is
    split at a node a into a suffix of its last e = min(3, ceil(L/2))
    strata, two at L = 3 and 4 and three from L = 5 up, and a prefix
    1 = n_0 < ... < n_p = a of the other p = L - e. Every two-stratum prefix
    ending at node t is formed in one pass down column t of the table,
    rows[1][s-3] + rows[s][t-s-2] for s = 3..t-2. Deeper prefix totals are
    formed one arc at a time: the list of every d-stratum prefix ending at
    t is, for each earlier end node s in ascending order, the list of
    (d-1)-stratum prefixes ending at s plus rows[s][t-s-2]. A list holds
    integers only and comes with a lead, each prefix's total being the lead
    plus its entry: the first total for a list built one arc at a time, 0
    for a two-stratum list.

    The compositions through a form one group, built when it is scored: its
    lead and bases, the totals of every prefix ending at a, and its flat
    list of every suffix total from a. With two suffix strata the flat list
    is the last-two list of a, formed then, as no other group reads it;
    with three it is rows[a][i-a-2] plus the last-two list of i, for every
    i, in (i, j) order, each of those lists formed once before the first
    group. Any prefix ending at a and any suffix starting there make a
    composition, and its total is the lead plus a base plus a flat entry,
    so the group's least total is lead + min(bases) + min(flat), exact
    because the totals are integers. The group covers len(bases) *
    len(flat) compositions. The path is split once, at a, and no minimum is
    taken within either side: every prefix total and every suffix total is
    formed, and nothing follows the solver's recurrence.

    Ties are genuine, and the smallest node sequence among them wins. A
    composition of the group reaches its least total only with a least base
    and a least flat entry, and every prefix ends at a, so the smallest is
    the smallest prefix with a least base followed by the first least flat
    entry, (i, j) order being lexicographic. List order is colexicographic,
    so every prefix with a least base is unranked from its position through
    the block offsets of the lists, one level for all of them at a time,
    and the smallest is kept. A tie with the best so far is followed up
    only while the smallest prefix a group can hold, 1, 3, ..., a, is below
    the best nodes; otherwise every prefix of the group is above them.

    Memory holds the table, every last-two list with three suffix strata,
    the block offsets of every prefix list of depth 3 and up, the integer
    lists of depth p-1 (and of depth p-2 while those are built), and one
    group's bases and flat list, freed before the next group is built.
    Only while a group's tie is followed up does it hold the positions and
    nodes of its prefixes with a least base.
    """
    if L == 1:
        return (1, K + 1), 1

    def last_two(i: int) -> list[int]:
        return list(map(add, rows[i], final[i + 2 : K]))

    if L == 2:
        totals = last_two(1)
        return (1, 3 + totals.index(min(totals)), K + 1), len(totals)
    e = 2 if L < 5 else 3
    depth = L - e
    # with three suffix strata every group reads the last-two lists past
    # its node; with two, a group reads only its own
    if e == 3:
        suffixes = {i: last_two(i) for i in range(2 * L - 3, K - 2)}
    # a d-stratum prefix ends at a node t in 2d+1 .. K+1-2(L-d); in its
    # list, the block of end node s starts at starts_at[d][t][s - 2d + 1]
    level: dict[int, tuple[int, list[int]]] = {}
    starts_at: list[dict[int, list[int]]] = [{} for _ in range(depth + 1)]
    for d in range(2, depth):
        previous, level = level, {}
        for t in range(2 * d + 1, K + 2 - 2 * (L - d)):
            if d == 2:
                level[t] = 0, _two_strata_totals(rows, t)
            else:
                level[t], starts_at[d][t] = _prefix_totals(rows, previous, t)
        del previous

    def smallest_prefix(positions: list[int]) -> tuple[int, ...]:
        # unrank every position one level at a time: the block holding it
        # names its node one level down and its offset in that node's list;
        # at depth 2 each block holds one prefix, so n_1 = position + 3
        ends = [a] * len(positions)
        columns = []
        for d in range(depth, 2, -1):
            starts = list(map(starts_at[d].__getitem__, ends))
            blocks = list(map(bisect_right, starts, positions))
            offsets = map(getitem, starts, map(add, blocks, repeat(-1)))
            positions = list(map(sub, positions, offsets))
            ends = list(map(add, blocks, repeat(2 * d - 2)))
            columns.append(ends)
        columns.append(map(add, positions, repeat(3)))
        return (1, *min(zip(*reversed(columns))), a)

    def suffix_nodes(at: int) -> tuple[int, ...]:
        if e == 2:
            return a + 2 + at, K + 1
        block = bisect_right(splits, at) - 1
        i = a + 2 + block
        return i, i + 2 + at - splits[block], K + 1

    best_nodes: tuple[int, ...] = ()
    best_total: float = math.inf
    scored = 0
    for a in range(2 * depth + 1, K + 2 - 2 * e):
        if depth == 1:
            lead, bases = rows[1][a - 3], [0]
        elif depth == 2:
            lead, bases = 0, _two_strata_totals(rows, a)
        else:
            (lead, bases), starts_at[depth][a] = _prefix_totals(rows, level, a)
        if e == 2:
            flat = last_two(a)
        else:
            flat = []
            splits: list[int] = []
            # zip stops at the range before reading past head K-3 of rows[a]
            for i, cost in zip(range(a + 2, K - 2), rows[a]):
                splits.append(len(flat))
                flat += map(add, repeat(cost), suffixes[i])
        scored += len(bases) * len(flat)
        base, entry = min(bases), min(flat)
        low = lead + base + entry
        # no prefix ending at a is smaller than this one, so a group whose
        # floor is above the best nodes cannot win a tie
        floor = (*range(1, 2 * depth, 2), a)
        if low < best_total or low == best_total and floor < best_nodes:
            if len(bases) == 1:  # the group's one prefix is its floor
                prefix = floor
            else:
                prefix = smallest_prefix(
                    list(compress(count(), map(eq, bases, repeat(base))))
                )
            nodes = (*prefix, *suffix_nodes(flat.index(entry)))
            if low < best_total or nodes < best_nodes:
                best_nodes, best_total = nodes, low
        del flat, bases
    return best_nodes, scored


def _two_strata_totals(rows: list[list[int]], t: int) -> list[int]:
    """The total of every two-stratum prefix 1, s, t, with s ascending from
    3: rows[1][s-3] + rows[s][t-s-2], read down column t in one pass."""
    column = map(getitem, rows[3 : t - 1], range(t - 5, -1, -1))
    return list(map(add, rows[1], column))


def _prefix_totals(
    rows: list[list[int]], level: dict[int, tuple[int, list[int]]], t: int
) -> tuple[tuple[int, list[int]], list[int]]:
    """Every prefix ending at node t with one stratum more than those of
    level, which maps each end node, ascending, to a lead and its prefixes'
    totals less that lead. Returns the first total at t and every total
    less it, each prefix formed by one arc from its end node s, and the
    position at which each s's block starts."""
    first = next(iter(level))
    units, before = level[first]
    lead = units + before[0] + rows[first][t - first - 2]
    differences: list[int] = []
    starts: list[int] = []
    for s, (units, before) in level.items():
        if s > t - 2:
            break
        starts.append(len(differences))
        differences += map(add, before, repeat(units + rows[s][t - s - 2] - lead))
    return (lead, differences), starts
