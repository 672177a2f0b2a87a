"""Exhaustive ground truth for small instances.

A stratification is a composition of the K distinct values into L runs of at
least two, so small instances can be enumerated outright and every one of
them scored. The path solver must never disagree with this. The walk splits
each composition around one middle stratum, forms every total of the strata
on either side of it in exact integer units, and counts the compositions
its groups cover, which must be all of them. It prices every group in batch
passes first and follows up only the groups that reach the least total.
"""

from __future__ import annotations

import math
import time
from itertools import accumulate, chain, compress, repeat
from operator import add, eq, getitem, mul, sub
from typing import Iterable, Iterator

from .errors import DEFAULT_ORACLE_CAP, ConsistencyError, OracleTooLargeError
from .graph import cost_table, count_solutions
from .moments import ProblemSpec, exact_cost_units
from .population import FrequencyTable
from .solver import StratificationSolution, _report, _take_kept, check_problem


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
    depend on summation order and cost ties are genuine. Each composition
    is split around one middle stratum a -> b, floor((L-1)/2) strata
    ending at a and floor(L/2) starting at b, so no side of a path holds
    most of its strata. Every total of the strata before a and every total
    of the strata from b on is formed. The compositions through a form a
    group, whose least total is the least of the first plus the least,
    over b, of the middle arc plus the least of the second, exact in
    integer units. Every group is priced before any is followed up, and
    only the groups whose least total is the least of all are: in each, the
    smallest tied composition is the smallest tied prefix, then the
    smallest tied b, then the first tied suffix of b. The groups must cover
    count_solutions(K, L) compositions in all, a count taken from the
    lengths of the lists formed.

    The check first empties the solver's kept slot. When the solver's
    _take_kept hands it the outcome of a solve_problem of this very table
    and an equal spec, which the solve keeps only where the default cap
    admits its check, it skips check_problem, as the solve validated these
    inputs; it still tests its cap. It scores the kept cost table, the one
    cost_table would build from the same inputs, bit for bit, and drops it
    before the walk. When its walk lands on the solve's nodes it returns
    the solve's report with its own elapsed, the one _report would rebuild
    from the same inputs; otherwise it reports its own nodes. Every other
    check validates and costs its own, and no check leaves anything kept.
    The two searches share the validated inputs, the cost table, and the
    report of nodes both reach; never a choice of nodes.

    Raises InfeasibleProblemError, InvalidSpecError and DataError from
    check_problem, the one check of a spec against its table in both
    searches, before the cap is tested (the table checked its own groups
    when it was made); OracleTooLargeError when the enumeration would exceed
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
    keeps the integers narrow. The least positive cost is the least of the
    row minima and of final's positive entries when no row minimum is 0;
    only a row holding a 0 sends the search through every entry. A table
    whose costs span too wide a range for that takes 2**-1074 units, which
    hold any float. The table is converted in one pass: 2**s past the float
    range, or a product that overflows to inf, raises OverflowError on its
    way to an integer, and the table then takes 2**-1074 units. Totals in
    these units are only compared, never converted back, so s is not kept.
    Each product is a whole float, so math.floor forms its integer exactly,
    as int would; on a float it runs in about two thirds of int's time,
    which dominates the pass.
    """
    # filter(None, ...) drops the empty rows, and the zeros and the None
    # entries of final
    least = min(chain(map(min, filter(None, rows)), filter(None, final)), default=math.inf)
    if not least:
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

    A path 1 = n_0 < ... < n_L = K + 1 is split around one middle stratum
    a -> b into a prefix of p = floor((L-1)/2) strata ending at a, the
    middle arc, and a suffix of e = floor(L/2) strata starting at b; at
    L = 1 and 2 the one path, or the K - 3 paths, are scored directly. Both
    sides are formed by one list builder (_lists) and priced by one
    function (_priced). The list of every d-stratum prefix ending at t is,
    for each end node s before t in ascending order, the block of
    (d-1)-stratum prefixes ending at s plus the arc s -> t; the list of
    every d-stratum suffix starting at i is, for each node j after i in
    ascending order, the arc i -> j plus the block of (d-1)-stratum
    suffixes starting at j. Lists hold plain integer totals.

    The walk runs in two phases. The first prices every group before any
    is followed up. _priced prices one side at a time: every p-stratum
    prefix list, then every e-stratum suffix list, is formed once and only
    its least total and its length are kept, by node; the list is dropped.
    A one-stratum side forms no list: its least totals are its one-stratum
    totals, its lengths 1. The compositions through a form one group, whose
    bases are the totals of every p-stratum prefix ending at a. One
    C-level pass then takes, for each a, the least over b of the middle arc
    a -> b plus the least suffix total of b. Any prefix ending at a, any
    middle arc from a and any suffix starting at its b make a composition,
    so the group covers len(bases) times the summed suffix list lengths of
    those b, and its least total is min(bases) plus its least priced arc,
    exact because the totals are integers. Every prefix total and every
    suffix total is formed, and the count comes from the lengths of the
    lists formed; a least is taken over one side list at a time and over
    the middle arcs, and nothing follows the solver's recurrence. The
    caller checks that the groups cover count_solutions(K, L)
    compositions.

    The second phase follows up, in ascending a, only the groups whose
    least total equals the least over all groups. Ties go by the (exact
    total, nodes) order: the walk keeps best, the least (total, nodes) pair
    so far, so a lower total wins and an equal one, a genuine tie, goes to
    the smaller node sequence. A composition of the group reaches its least
    total only with a least base, a b whose priced arc is least and a least
    suffix of that b, and every prefix ends at a, so the group's least pair
    holds the smallest prefix with a least base, then the smallest such b,
    then the smallest least suffix of b. One search (_first) finds each
    side's: the first p-stratum path 1 -> a whose total is the least base,
    and the first e-stratum path b -> K + 1 whose total is the least suffix
    total of b, phase 1 having found both targets. No prefix ending at a is
    smaller than floor = (1, 3, ..., a), so a group is followed up only
    when (low, floor) < best, and is then kept by
    best = min(best, (low, nodes)).

    Memory holds the table and the deeper lists of one side at a time:
    those of depth d-1 of every node, d being p and then e (and of one
    depth less while those are built), dropped once that side is priced. By
    node it holds each side's least totals and list lengths, a running
    suffix count, and each group's least total: O(K) integers beside the
    deeper lists. Of the lists the first phase forms it holds one at a
    time, while its least and length are taken. Only while a group is
    followed up does it hold its priced middle arcs and, on the search's
    stack, one path of one side.
    """
    if L == 1:
        return (1, K + 1), 1
    if L == 2:
        totals = list(map(add, rows[1], final[3:K]))
        return (1, 3 + totals.index(min(totals)), K + 1), len(totals)
    p, e = (L - 1) // 2, L // 2
    # by node, the least total and the length of each side's lists: the
    # one-stratum prefix ending at t totals rows[1][t-3], and the
    # one-stratum suffix starting at j totals final[j]
    lows, sizes = _priced(rows, [0, 0, 0, *rows[1]], p, L)
    least, lengths = _priced(rows, final[:-1], e, L, True)
    # by group, its least base plus its least middle arc a -> b plus least
    # suffix of b, over b ascending from a + 2
    groups = range(2 * p + 1, K - 2 * e)
    firsts = range(groups.start + 2, groups.stop + 2)
    suffixes = map(least.__getitem__, map(slice, firsts, repeat(None)))
    arcs = map(map, repeat(add), rows[groups.start : groups.stop], suffixes)
    totals = list(map(add, lows[groups.start :], map(min, arcs)))
    # a's row reaches every b a suffix starts at, so the group of a covers
    # its bases times every suffix starting after a + 1
    before = list(accumulate(lengths, initial=0))
    after = map(sub, repeat(before[-1]), before[firsts.start : firsts.stop])
    scored = sum(map(mul, sizes[groups.start :], after))
    low = min(totals)
    best: tuple[float, tuple[int, ...]] = (math.inf, ())
    for a in compress(groups, map(eq, totals, repeat(low))):
        # no prefix ending at a is smaller than floor, so no composition of
        # a group whose (low, floor) is not below best can win
        floor = (*range(1, 2 * p, 2), a)
        if (low, floor) < best:
            base = lows[a]
            # the smallest b whose middle arc plus least suffix is least
            b = a + 2 + list(map(add, rows[a], least[a + 2 :])).index(low - base)
            suffix = _first(rows, final, e, b, K + 1, least[b])
            best = min(best, (low, _first(rows, final, p, 1, a, base) + suffix))
    return best[1], scored


def _priced(
    rows: list[list[int]], ones: list, d: int, L: int, suffix: bool = False
) -> tuple[list, list]:
    """By node, the least total and the length of the list of every
    d-stratum prefix ending there, or with suffix set of every d-stratum
    suffix starting there, in an L-stratum path; 0 and 0 at a node no such
    list reaches. ones holds by node the total of the one-stratum prefix
    ending there, or suffix starting there, as _lists takes it. The lists
    of each depth up to d - 1 are formed from those of the depth before
    (_lists) and held by node; each d-stratum list is dropped once its
    least and its length are taken. At d = 1 each list is its one total,
    so ones is returned with lengths of 1."""
    if d == 1:
        return ones, [1] * len(ones)
    below, K = ones, len(rows) - 1
    for depth in range(2, d + 1):
        # a c-stratum prefix ends at a node in 2c+1 .. K+1-2(L-c), where a
        # suffix of L - c strata starts
        c = L - depth if suffix else depth
        nodes = range(2 * c + 1, K + 2 - 2 * (L - c))
        lists = _lists(rows, depth, below, nodes, suffix)
        if depth < d:
            below = [[]] * nodes.start + list(lists)
    lows, lengths = zip(*[(min(totals), len(totals)) for totals in lists])
    return [0] * nodes.start + list(lows), [0] * nodes.start + list(lengths)


def _first(
    rows: list[list[int]], final: list[int | None], d: int, u: int, v: int, target: int
) -> tuple[int, ...]:
    """The lexicographically first path u -> v of d strata whose total is
    target, which some such path must reach. Its last stratum t -> v costs
    final[t] when v is the terminal K + 1, len(final). The search runs
    depth first, heads ascending, on an explicit stack, so any d fits;
    costs are integer units >= 0, so a branch ends as soon as its total
    passes target."""
    if d == 1:
        return u, v
    # a frame: its node, the total left for the strata from it, and the
    # (head, arc cost) pairs left to try; d - i strata leave the node of
    # frame i, so its heads stop where d - i - 1 strata of two fit before v
    stack = [(u, target, zip(range(u + 2, v + 3 - 2 * d), rows[u]))]
    while True:
        _, total, arcs = stack[-1]
        for h, cost in arcs:
            left = total - cost
            if left < 0:
                continue
            if len(stack) < d - 1:
                heads = range(h + 2, v + 3 - 2 * (d - len(stack)))
                stack.append((h, left, zip(heads, rows[h])))
                break
            # h starts the last stratum, h -> v
            if (final[h] if v == len(final) else rows[h][v - h - 2]) == left:
                return (*(frame[0] for frame in stack), h, v)
        else:
            stack.pop()


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
    rows[n][j-n-2] plus the block of j. d is at least 2; at d = 2 each
    block is a one-stratum total, held in below as that total, and the list
    is formed in one C-level pass."""
    for n in nodes:
        if suffix:
            blocks, costs = below[n + 2 :], rows[n]
        else:
            blocks = below[2 * d - 1 :]
            costs = map(getitem, rows[2 * d - 1 : n - 1], range(n - 2 * d - 1, -1, -1))
        if d == 2:
            yield list(map(add, blocks, costs))
            continue
        totals: list[int] = []
        for block, cost in zip(blocks, costs):
            totals += map(add, block, repeat(cost))
        yield totals
