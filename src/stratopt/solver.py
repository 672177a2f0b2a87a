"""Minimum-cost path with exactly L arcs, and its survey-report translation.

The variance of the estimated total under proportional allocation is a fixed
population factor times the summed arc costs of a source to terminal path,
so the best stratification is the cheapest path using one arc per layer.
"""

from __future__ import annotations

import math
import time
from operator import add
from typing import NamedTuple

from .errors import DEFAULT_ORACLE_CAP, ConsistencyError, DataError, InvalidSpecError
from .graph import Bounds, CostTable, LayeredGraph, cost_table, count_solutions, layer_bounds
from .moments import (
    PrefixMoments,
    ProblemSpec,
    allocate_proportional,
    build_prefix_moments,
    coefficient_of_variation,
    exact_cost_units,
    segment_stats,
    segment_stats_direct,
    unit_cost,
    variance_factor,
)
from .population import FrequencyTable

# the self-check's tolerances, which path_to_solution derives
_SELF_CHECK_RTOL = 1e-7
_SELF_CHECK_FLOOR = 8 * 2.0**-53
_SUBNORMAL_SPACING = 2.0**-1074


class PathSolution(NamedTuple):
    """Node sequence of one source to terminal path and its summed cost."""

    nodes: tuple[int, ...]
    total_unit_cost: float


class StratumReport(NamedTuple):
    """Reported figures for one stratum."""

    size: int
    variance: float
    y_total: float
    sample_fraction: float
    sample_size: int


class StratificationSolution(NamedTuple):
    """Complete answer for one problem.

    boundaries holds the L-1 upper stratum boundaries (distinct x values),
    nodes the winning path, and variance the total-estimator variance, which
    always equals variance_factor(spec) * total_unit_cost.
    """

    boundaries: tuple[float, ...]
    strata: tuple[StratumReport, ...]
    nodes: tuple[int, ...]
    total_unit_cost: float
    variance: float
    cv: float
    elapsed: float

    @property
    def N(self) -> int:
        return sum(report.size for report in self.strata)

    @property
    def K(self) -> int:
        return self.nodes[-1] - 1


class _Solved(NamedTuple):
    """One solve_problem's outcome, kept for a check of the same problem:
    the table and spec it was handed, their prefix moments, its cost table
    and its report. Only this module reads or writes the slot that holds
    it; a check takes it through _take_kept."""

    ft: FrequencyTable
    spec: ProblemSpec
    pm: PrefixMoments
    table: CostTable
    solution: StratificationSolution


# the outcome of the last solve_problem that reported, if a check under the
# default cap can take it, until the next search takes or drops it; at most
# one entry
_kept: list[_Solved] = []


def _take_kept(ft: FrequencyTable, spec: ProblemSpec) -> _Solved | None:
    """Empty the slot, returning the kept outcome when its solve was
    handed the very same table object and an equal spec, else None.

    A FrequencyTable's fields are tuples and _cheapest_path only reads the
    cost table's rows, so the outcome returned holds the inputs as the
    solve validated them and the table as it costed it.
    """
    solved = _kept.pop() if _kept else None
    return solved if solved is not None and solved.ft is ft and solved.spec == spec else None


def solve(graph: LayeredGraph) -> PathSolution:
    """Cheapest path from source to terminal using one arc per layer.

    An inspection view: runs solve_problem's dynamic program over the
    cost_table that attach_costs attached, without building any arc, and
    totals the path's costs from that table as path_to_solution does.
    """
    if graph.table is None:
        raise ValueError("graph has no costs attached")
    rows, final = graph.table
    nodes = _cheapest_path(layer_bounds(graph.K, graph.L), rows, final)
    # only the last arc reaches the terminal, so its cost sits in final
    costs = [rows[i][j - i - 2] for i, j in zip(nodes, nodes[1:-1])]
    return PathSolution(nodes, _total_cost([*costs, final[nodes[-2]]]))


def path_to_solution(
    path: PathSolution,
    pm: PrefixMoments,
    ft: FrequencyTable,
    spec: ProblemSpec,
) -> StratificationSolution:
    """Expand a path into boundaries, per-stratum figures, variance, and CV.

    Every stratum is recomputed through the direct per-group route, the one
    consistency check of the cost route: a unit-count mismatch, or a cost
    gap beyond both 1e-7 relative and the rounding floor of the prefix route
    (8 * 2^-53 * n_h/(n_h - 1) times the stratum's own sum of y^2), raises
    ConsistencyError. A gap below the floor is rounding the stratum's own
    values cannot avoid: a stratum whose exact cost is 0 still reads a
    little noise. The floor scales with the stratum, not with the running
    sum: a large y^2 in an earlier stratum must not hide a cost that
    cancellation wiped out later. Where a stratum's y^2 falls below
    2^-1022, floats are 2^-1074 apart: a product or quotient landing there
    can be off by 2^-1075 whatever its size, while sums there are exact
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    section 2.1). So the floor adds (3 (j - i) + n_h + 3) * 2^-1074 for a
    stratum of groups i..j-1: the direct route rounds three products per
    group and the prefix route two operations in all; the cost carries
    that sum-of-squares error times n_h/(n_h - 1) <= 2, plus each route's
    quotient by n_h - 1 times n_h and its last product. As j - i <= n_h,
    the allowance stays below N * 2e-323, far below the cancellation gaps
    the check must catch. The costs are summed once, and the variance is
    variance_factor(spec) times that exactly rounded total. Raises
    ValueError when the path does not span the table in spec.L arcs or a
    stratum spans fewer than two groups, as no arc of the graph does,
    InvalidSpecError from allocate_proportional when spec.N differs from
    the table's N, DataError when the total or the variance overflows a
    float, and the errors of segment_stats and coefficient_of_variation.

    elapsed is 0.0, as no search is timed here. A search's elapsed is its
    wall-clock seconds, which the text report prints as CPU (s).
    """
    return _report(path.nodes, pm, ft, spec)


def _report(
    nodes: tuple[int, ...],
    pm: PrefixMoments,
    ft: FrequencyTable,
    spec: ProblemSpec,
    start: float | None = None,
) -> StratificationSolution:
    """path_to_solution on the bare nodes that the searches return.

    elapsed is the search's wall-clock seconds from start, a
    time.perf_counter() reading, to the report, or 0.0 without a start;
    the text report prints it as CPU (s).
    """
    if not nodes or nodes[0] != 1 or nodes[-1] != ft.K + 1:
        raise ValueError(f"path {nodes} does not span groups 1..{ft.K}")
    if len(nodes) - 1 != spec.L:
        raise ValueError(f"path has {len(nodes) - 1} arcs, spec wants {spec.L}")
    for h, (i, j) in enumerate(zip(nodes, nodes[1:]), start=1):
        if j - i < 2:
            raise ValueError(
                f"stratum {h} runs from node {i} to node {j}; a stratum spans at least two groups"
            )

    costs: list[float] = []
    stats_by_stratum = []
    for i, j in zip(nodes, nodes[1:]):
        fast = segment_stats(pm, i, j)
        slow = segment_stats_direct(ft, i, j)
        if fast.n_pop != slow.n_pop:
            raise ConsistencyError(
                f"unit counts disagree for groups {i}..{j - 1}: "
                f"{fast.n_pop} vs {slow.n_pop}"
            )
        fast_cost = unit_cost(fast)
        slow_cost = unit_cost(slow)
        gap = abs(fast_cost - slow_cost)
        if gap > max(
            _SELF_CHECK_RTOL * max(abs(fast_cost), abs(slow_cost)),
            _SELF_CHECK_FLOOR
            * fast.n_pop
            / (fast.n_pop - 1)
            * math.fsum(ft.y_sumsq[i - 1 : j - 1])
            + (3 * (j - i) + fast.n_pop + 3) * _SUBNORMAL_SPACING,
        ):
            raise ConsistencyError(
                f"segment cost mismatch for groups {i}..{j - 1}: "
                f"{fast_cost} vs {slow_cost}"
            )
        costs.append(fast_cost)
        stats_by_stratum.append(fast)

    fractional, rounded = allocate_proportional(
        [s.n_pop for s in stats_by_stratum], spec
    )
    total = _total_cost(costs)
    variance = variance_factor(spec) * total
    if not math.isfinite(variance):
        raise DataError("y values too large: the variance overflows a float")
    cv = coefficient_of_variation(variance, math.fsum(ft.y_sum))
    boundaries = tuple(ft.q[node - 2] for node in nodes[1:-1])
    strata = tuple(
        StratumReport(s.n_pop, s.s2, s.y_total, frac, size)
        for s, frac, size in zip(stats_by_stratum, fractional, rounded)
    )
    elapsed = 0.0 if start is None else time.perf_counter() - start
    return StratificationSolution(boundaries, strata, nodes, total, variance, cv, elapsed)


def _total_cost(costs: list[float]) -> float:
    """A path's costs summed exactly and rounded once to a float; raises
    DataError when that total lies beyond the float range."""
    try:
        return math.fsum(costs)
    except OverflowError:
        raise DataError("y values too large: a total cost overflows a float") from None


def check_problem(ft: FrequencyTable, spec: ProblemSpec) -> tuple[Bounds, PrefixMoments]:
    """The layer bounds and prefix moments of a problem whose spec fits
    its table.

    The one check of a spec against its table, which both searches run
    before any costing, the oracle before its cap too; the table checked
    its own groups when it was made. Raises InfeasibleProblemError when
    K < 2L, then InvalidSpecError when spec.N differs from the table's N,
    then DataError from build_prefix_moments when a running sum of y or y^2
    overflows a float.
    """
    bounds = layer_bounds(ft.K, spec.L)
    if spec.N != ft.N:
        raise InvalidSpecError(f"spec N={spec.N} does not match table N={ft.N}")
    return bounds, build_prefix_moments(ft)


def solve_problem(ft: FrequencyTable, spec: ProblemSpec) -> StratificationSolution:
    """Solve one stratification problem end to end.

    Runs _cheapest_path over the cost_table of every arc's segment; no Arc
    or LayeredGraph is built. L = 1 is the one-layer case. The result
    carries wall-clock elapsed seconds.

    Once reported, the solve's outcome stays kept in this module until the
    next search: the frequency table and spec it was handed, their prefix
    moments, its cost table of about K^2/2 floats, and its report. It is
    kept only where a check under the default cap can take it, when
    count_solutions(K, L) <= DEFAULT_ORACLE_CAP; above that, a check with
    a larger cap validates and costs its own table, which gives the same
    answer more slowly. The next solve_problem drops any kept outcome
    before it costs its own table. The next brute_force_solve empties the
    slot through _take_kept, which hands it the outcome only for the very
    same table object and an equal spec: the check then skips
    check_problem, scores the kept table in place of costing its own, and
    returns the kept report, its elapsed replaced, when its walk lands on
    the same nodes. A solve that raises keeps nothing.

    Raises InfeasibleProblemError, InvalidSpecError and DataError from
    check_problem, before any costing; DataError also when a segment cost,
    the optimal total or the variance overflows a float; UndefinedCVError
    when the population total is zero or too close to zero for a finite
    CV, and ConsistencyError when path_to_solution's self-check fails.
    """
    start = time.perf_counter()
    bounds, pm = check_problem(ft, spec)
    # an earlier table goes before this one is costed, so two are never held
    _kept.clear()
    table = cost_table(pm, bounds)
    solution = _report(_cheapest_path(bounds, *table), pm, ft, spec, start)
    if count_solutions(ft.K, spec.L) <= DEFAULT_ORACLE_CAP:
        _kept.append(_Solved(ft, spec, pm, table, solution))
    return solution


def _cheapest_path(
    bounds: Bounds, rows: list[list[float]], final: list[float | None]
) -> tuple[int, ...]:
    """Nodes of the least-total path from node 1 to K+1 taking one arc per
    layer.

    rows and final are a cost_table over bounds. Three passes:

    - Backward, values only: each tail's float completion is the least of
      its row plus the next layer's completions at those heads. A layer's
      completions are indexed by node, like rows and final, None off its
      tails, so the completions at a row's heads are the slice at the
      heads themselves.
    - Top-down, floats only: from node 1, each node the answer can pass
      through certifies its one row. Its candidate heads are those whose
      float total is within bound (below) of the row's best; they are the
      next layer's needed nodes.
    - Bottom-up, exact: each needed node keeps its least (exact total,
      head) pair over its candidates, the exact total being the node's own
      cost plus the candidate's exact completion, in a new table per layer;
      the path is read forward from these tables. Without near-ties each
      needed node has one candidate, so only the winning path is converted.

    Ties go by the (exact total, nodes) order, one tuple minimum per needed
    node: the least exact total wins, and among heads tied at it the
    smallest, whose own completion was chosen the same way. So the nodes
    are the lexicographically smallest sequence of least exact total.

    The certificate. Costs are >= 0, so a float sum of m <= L of them lies
    within a factor (1 +- u)^m, inside 1 +- gamma_L, of its exact value,
    gamma_L = L*u / (1 - L*u) with u = 2^-53 (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 4); additions that land in the
    subnormal range are exact. A float completion is the float sum along
    the chain of its float argmins, so it is at least (1 - u)^m times that
    chain's exact sum, hence times the exact optimum. Rounding is
    monotone, so it is also at most the float sum along an exactly optimal
    chain, at most (1 + u)^m times the optimum. Every head's float total is
    therefore within 1 +- gamma_L of its exact total, and a head whose
    float total exceeds bound, a rounded-up best * (1 + gamma_L) /
    (1 - gamma_L), is exactly dearer than the best head. Every exactly
    cheapest head is thus a candidate, and each needed node's exact
    completion is exact along its candidates. A total that overflowed to
    inf, or a bound that did, leaves every head a candidate.
    """
    *inner, (_, terminal, _) = bounds
    # (1 + gamma_L) / (1 - gamma_L) = 1 / (1 - 2Lu) <= 1 + 4Lu while Lu <= 1/4
    widen = 1.0 + len(bounds) * 2.0**-51
    # completions[h][j] is the float completion of node j, a tail of the
    # layer h places after the first, and None off its tails; the last
    # entry is final
    completions: list[list[float | None]] = [final]
    for tails, _, head_stop in reversed(inner):
        completion = completions[-1]
        # rows[i] may run past this layer's head stop; map stops there
        completions.append([None] * tails.start + [
            min(map(add, rows[i], completion[i + 2 : head_stop])) for i in tails
        ])
    completions.reverse()

    needed = {1}
    # candidates[h] maps each needed tail of layer h to its candidate heads
    candidates: list[dict[int, list[int]]] = []
    for (_, _, head_stop), completion in zip(inner, completions[1:]):
        heads_of = {}
        for i in needed:
            totals = list(map(add, rows[i], completion[i + 2 : head_stop]))
            bound = math.nextafter(min(totals) * widen, math.inf)
            heads_of[i] = [j for j, total in enumerate(totals, i + 2) if total <= bound]
        candidates.append(heads_of)
        needed = {j for heads in heads_of.values() for j in heads}

    # choices[h] maps each needed tail of the layer h places before the last
    # to its least (exact units, head) pair; the last layer's one head is
    # the terminal
    choices = [{j: (exact_cost_units(final[j]), terminal) for j in needed}]
    for heads_of in reversed(candidates):
        choice = choices[-1]
        choices.append({
            i: min((exact_cost_units(rows[i][j - i - 2]) + choice[j][0], j) for j in heads)
            for i, heads in heads_of.items()
        })
    nodes = [1]
    for choice in reversed(choices):
        nodes.append(choice[nodes[-1]][1])
    return tuple(nodes)
