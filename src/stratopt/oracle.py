"""Exhaustive ground truth for small instances.

A stratification is a composition of the K distinct values into L runs of at
least two, so small instances can be enumerated outright and every one of
them scored. The path solver must never disagree with this.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from itertools import chain, compress, count, repeat
from operator import add, eq, getitem, mul, sub
from typing import Iterable, Iterator

from .errors import DEFAULT_ORACLE_CAP, ConsistencyError, OracleTooLargeError
from .graph import cost_table
from .moments import ProblemSpec, exact_cost_units
from .population import FrequencyTable
from .solver import StratificationSolution, _report, _take_kept, check_problem


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
    are grouped by the node a at which their last ceil(L/2) strata start,
    so neither side of a path holds most of its strata. Every total of the
    strata before a and every total of the strata from a on is formed,
    and a group's least total is the least of the first plus the least of
    the second, exact in integer units. Its smallest tied composition is
    the smallest tied prefix followed by the first tied suffix.

    The check first empties the solver's kept slot. When the solver's
    _take_kept hands it the outcome of a solve_problem of this very table
    and an equal spec, it skips check_problem, as the solve validated these
    inputs; it still tests its cap. It scores the kept cost table, the one
    cost_table would build from the same inputs, bit for bit, and drops it
    before the walk. When its walk lands on the solve's nodes it returns
    the solve's report with its own elapsed, the one _report would rebuild
    from the same inputs; otherwise it reports its own nodes. Every other
    check validates and costs its own, and no check leaves anything kept.
    The two searches share the validated inputs, the cost table, and the
    report of nodes both reach; never a choice of nodes.

    Raises InfeasibleProblemError, InvalidSpecError and DataError from
    check_problem, the one validation point of both searches, before the
    cap is tested; OracleTooLargeError when the enumeration would exceed
    cap; ConsistencyError when the groups cover a number of compositions
    other than count_solutions(K, L); and otherwise what solve_problem
    raises after its check.
    """
    start = time.perf_counter()
    # the last solve's outcome leaves the slot whatever this check does
    solved = _take_kept(ft, spec)
    if solved is None:
        bounds, pm = check_problem(ft, spec)
    else:
        pm = solved.pm
    m = count_solutions(ft.K, spec.L)
    if m > cap:
        raise OracleTooLargeError(
            f"enumeration needs {m} evaluations, above the cap of {cap}"
        )
    # scored in exact units, independent of the solver's tie certificate
    rows, final = _exact_units(*(solved.table if solved else cost_table(pm, bounds)))
    reported = solved.solution if solved else None
    del solved  # the walk reads only the units
    nodes, scored = _walk_compositions(rows, final, ft.K, spec.L)
    if scored != m:
        raise ConsistencyError(
            f"exhaustive walk scored {scored} compositions, expected {m}"
        )
    if reported is not None and nodes == reported.nodes:
        return reported._replace(elapsed=time.perf_counter() - start)
    return _report(nodes, pm, ft, spec, start)


def _exact_units(
    rows: list[list[float]], final: list[float | None]
) -> tuple[list[list[int]], list[int | None]]:
    """The cost table as exact integer counts of one unit, 2**-s.

    A float c > 0 is a 53-bit integer times 2**(e - 53), e = frexp(c)[1], so
    s = 53 - e with e that of the least positive cost makes every cost an
    integer, and c * 2**s forms it exactly as a float while that product
    stays in range. The table's own precision thus sets the unit, which
    keeps the integers narrow. A table whose costs span too wide a range for
    that takes 2**-1074 units, which hold any float. The table is converted
    in one pass: 2**s past the float range, or a product that overflows to
    inf, raises OverflowError on its way to an integer, and the table then
    takes 2**-1074 units. Totals in these units are only compared, never
    converted back, so s is not kept. Each product is a whole float, so
    math.floor forms its integer exactly, as int would; on a float it runs
    in about two thirds of int's time, which dominates the pass.
    """
    # filter(None, ...) drops the zeros and the None entries of final
    least = min(filter(None, chain(*rows, final)), default=math.inf)
    shift = 0 if least == math.inf else max(0, 53 - math.frexp(least)[1])
    try:
        factor = 2.0**shift
        return (
            [list(map(math.floor, map(mul, row, repeat(factor)))) for row in rows],
            [None if cost is None else math.floor(cost * factor) for cost in final],
        )
    except OverflowError:
        return (
            [list(map(exact_cost_units, row)) for row in rows],
            [None if cost is None else exact_cost_units(cost) for cost in final],
        )


def _walk_compositions(
    rows: list[list[int]], final: list[int | None], K: int, L: int
) -> tuple[tuple[int, ...], int]:
    """Cheapest node sequence over every composition, and the number of
    compositions covered.

    A path 1 = n_0 < ... < n_L = K + 1 is split at a node a into a prefix
    of p = floor(L/2) strata ending at a and a suffix of e = ceil(L/2)
    strata starting there; at L = 1 and 2 the one path, or the K - 3 paths,
    are scored directly. Both sides are formed by one list builder
    (_lists). The list of every d-stratum prefix ending at t is, for each
    end node s before t in ascending order, the block of (d-1)-stratum
    prefixes ending at s plus the arc s -> t; the list of every d-stratum
    suffix starting at i is, for each node j after i in ascending order,
    the arc i -> j plus the block of (d-1)-stratum suffixes starting at j.
    Lists hold plain integer totals, prefix lists in colexicographic order
    and suffix lists in lexicographic order. Their block starts are
    counted, never stored, both by the hockey-stick identity: in a
    d-stratum prefix list the block of s starts at comb(s-d-1, d-1),
    whatever the list's end node, and in the d-stratum suffix list of i the
    block of j starts at comb(K-i-d, d-1) - comb(K+2-j-d, d-1).

    The compositions through a form one group, built when it is scored:
    its bases, the totals of every p-stratum prefix ending at a, and its
    flat list, the totals of every e-stratum suffix starting there. Any
    prefix ending at a and any suffix starting there make a composition,
    so the group covers len(bases) * len(flat) compositions and its least
    total is min(bases) + min(flat), exact because the totals are integers.
    The path is split once, at a, and no minimum is taken within either
    side: every prefix total and every suffix total is formed, and nothing
    follows the solver's recurrence.

    Ties go by the (exact total, nodes) order: the walk keeps best, the
    least (total, nodes) pair so far, so a lower total wins and an equal
    one, a genuine tie, goes to the smaller node sequence. A composition of
    the group reaches its least total only with a least base and a least
    flat entry, and every prefix ends at a, so the group's least pair holds
    the smallest prefix with a least base followed by the first least flat
    entry. Every prefix with a least base is unranked from its position
    through the counted block starts, one level for all of them at a time,
    and the smallest is kept; the first least flat entry is unranked the
    same way. No prefix ending at a is smaller than floor = (1, 3, ..., a),
    so a group is followed up only when (low, floor) < best, and is then
    kept by best = min(best, (low, nodes)).

    Memory holds the table, the prefix lists of depth p-1 and the suffix
    lists of depth e-1 of every node (and of one depth less while those are
    built), and one group's bases and flat list, freed before the next
    group is built. Only while a group's tie is followed up does it hold
    the block starts of each depth, and the positions and nodes of its
    prefixes with a least base.
    """
    if L == 1:
        return (1, K + 1), 1
    if L == 2:
        totals = list(map(add, rows[1], final[3:K]))
        return (1, 3 + totals.index(min(totals)), K + 1), len(totals)
    p, e = L // 2, L - L // 2
    # the lists one stratum short of each side's groups, indexed by node, a
    # list of one total held as that total: the one-stratum prefix ending
    # at t totals rows[1][t-3] (the zero-stratum prefix, at node 1, 0) and
    # the one-stratum suffix starting at j totals final[j]
    heads = [0, 0] if p == 1 else [0, 0, 0, *rows[1]]
    tails = final[:-1]
    # a d-stratum prefix ends at a node in 2d+1 .. K+1-2(L-d), and a
    # d-stratum suffix starts at one in 2(L-d)+1 .. K+1-2d
    for d in range(2, p):
        span = range(2 * d + 1, K + 2 - 2 * (L - d))
        heads = [[]] * span.start + list(_lists(rows, d, heads, span))
    for d in range(2, e):
        span = range(2 * (L - d) + 1, K + 2 - 2 * d)
        tails = [[]] * span.start + list(_lists(rows, d, tails, span, True))
    best: tuple[float, tuple[int, ...]] = (math.inf, ())
    scored = 0
    groups = range(2 * p + 1, K + 2 - 2 * e)
    for a, bases, flat in zip(
        groups, _lists(rows, p, heads, groups), _lists(rows, e, tails, groups, True)
    ):
        scored += len(bases) * len(flat)
        base, entry = min(bases), min(flat)
        low = base + entry
        # no prefix ending at a is smaller than floor, so no composition of
        # a group whose (low, floor) is not below best can win
        floor = (*range(1, 2 * p, 2), a)
        if (low, floor) < best:
            if len(bases) == 1:  # the group's one prefix is its floor
                prefix = floor
            else:
                # the block holding a position names its node one level
                # down and its offset in that node's list; at depth 2 each
                # block holds one prefix, so n_1 = position + 3
                positions = list(compress(count(), map(eq, bases, repeat(base))))
                columns = []
                for d in range(p, 2, -1):
                    # starts[s - 2d + 1] is where the block of end node s starts
                    starts = [math.comb(s - d - 1, d - 1) for s in range(2 * d - 1, a)]
                    blocks = [bisect_right(starts, at) - 1 for at in positions]
                    positions = list(map(sub, positions, map(starts.__getitem__, blocks)))
                    columns.append(list(map(add, blocks, repeat(2 * d - 1))))
                columns.append(map(add, positions, repeat(3)))
                prefix = (1, *min(zip(*reversed(columns))), a)
            # the first least flat entry is the smallest suffix
            nodes, at = prefix, flat.index(entry)
            for d in range(e, 2, -1):
                # starts[j - i - 2] is where the block of node j starts
                i = nodes[-1]
                top = math.comb(K - i - d, d - 1)
                starts = [top - math.comb(m, d - 1) for m in range(K - i - d, d - 2, -1)]
                block = bisect_right(starts, at) - 1
                nodes, at = (*nodes, i + 2 + block), at - starts[block]
            nodes = (*nodes, nodes[-1] + 2 + at, K + 1)
            best = min(best, (low, nodes))
        del flat, bases
    return best[1], scored


def _lists(
    rows: list[list[int]], d: int, below: list, nodes: Iterable[int], suffix: bool = False
) -> Iterator[list[int]]:
    """For each node n of nodes, the total of every d-stratum prefix ending
    at n, or with suffix set of every d-stratum suffix starting at n, each
    list formed by one step from the (d-1)-stratum lists in below. below is
    indexed by node and, on the suffix side, ends after the last node a
    (d-1)-stratum suffix starts at. A prefix list is, for each end node s
    before n in ascending order, the block of s plus rows[s][n-s-2]; a
    suffix list is, for each node j after n in ascending order,
    rows[n][j-n-2] plus the block of j. Up to d = 2 each block is one total,
    held as that total, and the list is formed in one C-level pass."""
    for n in nodes:
        if suffix:
            blocks, costs = below[n + 2 :], rows[n]
        else:
            blocks = below[2 * d - 1 :]
            costs = map(getitem, rows[2 * d - 1 : n - 1], range(n - 2 * d - 1, -1, -1))
        if d <= 2:
            yield list(map(add, blocks, costs))
            continue
        totals: list[int] = []
        for block, cost in zip(blocks, costs):
            totals += map(add, block, repeat(cost))
        yield totals
