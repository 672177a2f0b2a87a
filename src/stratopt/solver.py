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
from typing import Iterable, Iterator, Sequence

from .errors import ConsistencyError, InvalidSpecError
from .graph import LayeredGraph, cost_table, layer_bounds
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
    total_variance_proportional,
    unit_cost,
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

    An inspection view: the graph's arc costs feed the same dynamic program
    solve_problem runs over its cost table. Each layer must list the heads
    of a tail contiguously, as build_layered_graph does.
    """
    layers = []
    for layer in graph.layers:
        rows: list[tuple[int, int, list[int]]] = []
        for arc in layer:
            if arc.cost is None:
                raise ValueError("graph has no costs attached")
            if not rows or rows[-1][0] != arc.tail:
                rows.append((arc.tail, arc.head, []))
            tail, first_head, units = rows[-1]
            if arc.head != first_head + len(units):
                raise ValueError(
                    f"heads of tail {tail} in layer {arc.layer} are not contiguous"
                )
            units.append(exact_cost_units(arc.cost))
        layers.append(rows)
    nodes, units = _cheapest_path(graph.K, layers)
    return PathSolution(nodes, cost_units_to_float(units))


def path_to_solution(
    path: PathSolution,
    pm: PrefixMoments,
    ft: FrequencyTable,
    spec: ProblemSpec,
    elapsed: float = 0.0,
) -> StratificationSolution:
    """Expand a path into boundaries, per-stratum figures, variance, and CV.

    Every stratum is recomputed through the direct per-group route as a
    self-check against the prefix-difference costs; a relative gap beyond
    1e-7 raises ConsistencyError.
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
    variance = total_variance_proportional(costs, spec)
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
        total_unit_cost=math.fsum(costs),
        variance=variance,
        cv=cv,
        elapsed=elapsed,
    )


def solve_problem(ft: FrequencyTable, spec: ProblemSpec) -> StratificationSolution:
    """Solve one stratification problem end to end.

    Costs every segment that is an arc of some layer once, into a table of
    exact integer units, and runs the layered dynamic program over node
    indexes; the LayeredGraph is never built (build_layered_graph,
    attach_costs and solve are inspection views of the same computation).
    L = 1 is the one-layer case. The result carries wall-clock elapsed
    seconds.

    Raises InfeasibleProblemError when K < 2L (each stratum must get at
    least two distinct values, so a lone distinct value cannot even fill a
    single stratum).
    """
    start = time.perf_counter()
    if spec.N != ft.N:
        raise InvalidSpecError(f"spec N={spec.N} does not match table N={ft.N}")
    bounds = layer_bounds(ft.K, spec.L)
    pm = build_prefix_moments(ft)
    units = [
        [None if cost is None else exact_cost_units(cost) for cost in row]
        for row in cost_table(pm, bounds)
    ]
    layers = [_table_layer(units, *layer) for layer in bounds]
    nodes, total = _cheapest_path(ft.K, layers)
    path = PathSolution(nodes, cost_units_to_float(total))
    solution = path_to_solution(path, pm, ft, spec)
    return replace(solution, elapsed=time.perf_counter() - start)


def _table_layer(
    units: list[list[int | None]], tails: range, first_head: int, head_stop: int
) -> Iterator[tuple[int, int, list[int]]]:
    """One layer's rows, cut from the unit table by its node bounds."""
    for i in tails:
        first = max(i + 2, first_head)
        yield i, first, units[i][first - i - 2 : head_stop - i - 2]


def _cheapest_path(
    K: int, layers: Sequence[Iterable[tuple[int, int, list[int]]]]
) -> tuple[tuple[int, ...], int]:
    """Least total over paths from node 1 to K+1 taking one arc per layer.

    Each layer yields (tail, first head, units): the tail's arcs to heads
    first, first+1, ... with their costs in exact integer units, so sums do
    not depend on summation order and equal-cost paths are genuinely tied.
    completion[i] is the least cost from node i to the terminal through the
    layers already processed, from the last one back. Each (layer, tail)
    keeps its leftmost cheapest head, so following the choices forward
    yields the lexicographically smallest optimal node sequence.
    """
    completion: list[int | None] = [None] * (K + 2)
    completion[K + 1] = 0
    choices: list[dict[int, int]] = []
    for layer in reversed(layers):
        here: list[int | None] = [None] * (K + 2)
        choice: dict[int, int] = {}
        for tail, first, units in layer:
            totals = list(map(add, units, completion[first : first + len(units)]))
            best = min(totals)
            here[tail] = best
            choice[tail] = first + totals.index(best)
        completion = here
        choices.append(choice)
    nodes = [1]
    for choice in reversed(choices):
        nodes.append(choice[nodes[-1]])
    return tuple(nodes), completion[1]
