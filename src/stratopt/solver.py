"""Minimum-cost path with exactly L arcs, and its survey-report translation.

The variance of the estimated total under proportional allocation is a fixed
population factor times the summed arc costs of a source to terminal path,
so the best stratification is the cheapest path using one arc per layer.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from operator import add

from .errors import ConsistencyError, DataError, InvalidSpecError
from .graph import Bounds, LayeredGraph, cost_table, layer_bounds
from .moments import (
    PrefixMoments,
    ProblemSpec,
    allocate_proportional,
    build_prefix_moments,
    coefficient_of_variation,
    cost_units_to_float,
    exact_cost_units,
    segment_stats,
    segment_stats_direct,
    unit_cost,
    variance_factor,
)
from .population import FrequencyTable

# relative gap between the prefix and direct segment routes that flags a bug
_SELF_CHECK_RTOL = 1e-7


@dataclass(frozen=True, slots=True)
class PathSolution:
    """Node sequence of one source to terminal path and its summed cost."""

    nodes: tuple[int, ...]
    total_unit_cost: float


@dataclass(frozen=True, slots=True)
class StratumReport:
    """Reported figures for one stratum."""

    size: int
    variance: float
    y_total: float
    sample_fraction: float
    sample_size: int


@dataclass(frozen=True, slots=True)
class StratificationSolution:
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


def solve(graph: LayeredGraph) -> PathSolution:
    """Cheapest path from source to terminal using one arc per layer.

    An inspection view: runs solve_problem's dynamic program over the
    cost_table that attach_costs attached, without building any arc.
    """
    if graph.table is None:
        raise ValueError("graph has no costs attached")
    nodes, units = _cheapest_path(layer_bounds(graph.K, graph.L), *graph.table)
    return PathSolution(nodes, cost_units_to_float(units))


def path_to_solution(
    path: PathSolution,
    pm: PrefixMoments,
    ft: FrequencyTable,
    spec: ProblemSpec,
) -> StratificationSolution:
    """Expand a path into boundaries, per-stratum figures, variance, and CV.

    Every stratum is recomputed through the direct per-group route, the one
    consistency check of the cost route: a unit-count mismatch or a relative
    cost gap beyond 1e-7 raises ConsistencyError. The costs are summed once,
    and the variance is variance_factor(spec) times that total. Raises
    DataError when the total or the variance overflows a float,
    InvalidSpecError when spec.N differs from the table's N, and the errors
    of segment_stats and coefficient_of_variation.
    """
    nodes = path.nodes
    if nodes[0] != 1 or nodes[-1] != ft.K + 1:
        raise ValueError(f"path {nodes} does not span groups 1..{ft.K}")
    if len(nodes) - 1 != spec.L:
        raise ValueError(f"path has {len(nodes) - 1} arcs, spec wants {spec.L}")
    if spec.N != ft.N:
        raise InvalidSpecError(f"spec N={spec.N} does not match table N={ft.N}")

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
        if gap > _SELF_CHECK_RTOL * max(abs(fast_cost), abs(slow_cost)):
            raise ConsistencyError(
                f"segment cost mismatch for groups {i}..{j - 1}: "
                f"{fast_cost} vs {slow_cost}"
            )
        costs.append(fast_cost)
        stats_by_stratum.append(fast)

    fractional, rounded = allocate_proportional(
        [s.n_pop for s in stats_by_stratum], spec
    )
    try:
        total = math.fsum(costs)
    except OverflowError:
        raise DataError("y values too large: a total cost overflows a float") from None
    variance = variance_factor(spec) * total
    if not math.isfinite(variance):
        raise DataError("y values too large: the variance overflows a float")
    cv = coefficient_of_variation(variance, math.fsum(ft.y_sum))
    boundaries = tuple(ft.q[node - 2] for node in nodes[1:-1])
    strata = tuple(
        StratumReport(s.n_pop, s.s2, s.y_total, frac, size)
        for s, frac, size in zip(stats_by_stratum, fractional, rounded)
    )
    return StratificationSolution(
        boundaries=boundaries,
        strata=strata,
        nodes=nodes,
        total_unit_cost=total,
        variance=variance,
        cv=cv,
        elapsed=0.0,
    )


def solve_problem(ft: FrequencyTable, spec: ProblemSpec) -> StratificationSolution:
    """Solve one stratification problem end to end.

    Costs every segment that is an arc of some layer once, into a
    cost_table of floats, and runs the layered dynamic program over node
    indexes; no Arc or LayeredGraph is built (build_layered_graph,
    attach_costs and solve are inspection views over the same table and
    dynamic program). L = 1 is the one-layer case. The result carries
    wall-clock elapsed seconds.

    Raises InfeasibleProblemError when K < 2L (each stratum must get at
    least two distinct values, so a lone distinct value cannot even fill a
    single stratum), InvalidSpecError from path_to_solution when spec.N
    differs from the table's N, DataError when a segment cost, the optimal
    total or the variance overflows a float, UndefinedCVError when the
    population total is zero or too close to zero for a finite CV, and
    ConsistencyError when path_to_solution's self-check fails.
    """
    start = time.perf_counter()
    bounds = layer_bounds(ft.K, spec.L)
    pm = build_prefix_moments(ft)
    nodes, total = _cheapest_path(bounds, *cost_table(pm, bounds))
    path = PathSolution(nodes, cost_units_to_float(total))
    solution = path_to_solution(path, pm, ft, spec)
    return replace(solution, elapsed=time.perf_counter() - start)


def _cheapest_path(
    bounds: Bounds, rows: list[list[float]], final: list[float | None]
) -> tuple[tuple[int, ...], int]:
    """Least total over paths from node 1 to K+1 taking one arc per layer,
    and that total in exact 2^-1074 integer units.

    rows and final are a cost_table over bounds. completion[i] is the float
    cost from node i to the terminal along its optimal chain through the
    layers already processed, from the last one back; final is that for the
    last layer alone. Each earlier layer pairs a tail i with the heads i+2,
    i+3, ... up to its head stop, whose costs open rows[i]. Each (layer,
    tail) keeps its leftmost exactly cheapest head, so following the choices
    forward yields the lexicographically smallest optimal node sequence.

    The sums run in floats, and an exact tie certificate decides the head.
    Costs are >= 0, so a float sum of at most L of them lies within a factor
    1 +- gamma_L of its exact value, gamma_L = L*u / (1 - L*u) with
    u = 2^-53 (Higham, Accuracy and Stability of Numerical Algorithms, ch.
    4); additions that land in the subnormal range are exact. A head whose
    float total exceeds bound, a rounded-up best * (1 + gamma_L) /
    (1 - gamma_L), is exactly dearer than the best head. When no head but
    the float argmin is within bound, it is the answer; otherwise every head
    within bound is resolved in exact units: its own cost plus the exact
    completion of its head, computed once per (layer, node) along the chosen
    chains. Each completion is the float sum along an exactly optimal chain,
    so the bound holds at every layer. A total that overflowed to inf, or a
    bound that did, leaves every head within bound.
    """
    *inner, (_, terminal, _) = bounds
    # (1 + gamma_L) / (1 - gamma_L) = 1 / (1 - 2Lu) <= 1 + 4Lu while Lu <= 1/4
    widen = 1.0 + len(bounds) * 2.0**-51
    inf, nextafter = math.inf, math.nextafter
    completion = final
    # choices[level - 1] and known[level] belong to the tails of the layer
    # `level` places before the last one; level 0 is the last layer
    choices: list[dict[int, int]] = []
    known: list[dict[int, int]] = [{}]

    def exact_completion(level: int, j: int) -> int:
        """Exact units of the chosen chain from node j, a tail at level."""
        walked = []
        while level and j not in known[level]:
            head = choices[level - 1][j]
            walked.append((level, j, head))
            level, j = level - 1, head
        units = known[level].get(j)
        if units is None:
            units = known[0][j] = exact_cost_units(final[j])
        for level, t, head in reversed(walked):
            units += exact_cost_units(rows[t][head - t - 2])
            known[level][t] = units
        return units

    for tails, _, head_stop in reversed(inner):
        level = len(choices)
        here: list[float | None] = [None] * terminal
        choice: dict[int, int] = {}
        for i in tails:
            # rows[i] may run past this layer's head stop; map stops there
            totals = list(map(add, rows[i], completion[i + 2 : head_stop]))
            best = min(totals)
            k = totals.index(best)
            bound = nextafter(best * widen, inf)
            totals[k] = inf
            second = min(totals)
            totals[k] = best
            if second <= bound:
                row = rows[i]
                k = min(
                    (index for index, total in enumerate(totals) if total <= bound),
                    key=lambda index: exact_cost_units(row[index])
                    + exact_completion(level, i + 2 + index),
                )
            here[i] = totals[k]
            choice[i] = i + 2 + k
        completion = here
        choices.append(choice)
        known.append({})
    nodes = [1]
    for choice in reversed(choices):
        nodes.append(choice[nodes[-1]])
    nodes.append(terminal)
    return tuple(nodes), exact_completion(len(choices), 1)
