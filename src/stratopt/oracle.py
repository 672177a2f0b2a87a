"""Exhaustive ground truth for small instances.

A stratification is a composition of the K distinct values into L runs of at
least two, so small instances can be enumerated outright and scored one by
one. The path solver must never disagree with this.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from typing import Iterator

from .errors import InvalidSpecError, OracleTooLargeError
from .graph import check_feasible
from .moments import (
    ProblemSpec,
    build_prefix_moments,
    cost_units_to_float,
    exact_cost_units,
    segment_stats,
    unit_cost,
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

    The stream is empty when K < 2L. Its length always equals
    count_solutions(K, L).
    """
    if L < 1:
        raise ValueError(f"stratum count must be at least 1, got L={L}")
    if K < 2 * L:
        return
    yield from _compositions(L, K)


def brute_force_solve(
    ft: FrequencyTable, spec: ProblemSpec, cap: int = DEFAULT_ORACLE_CAP
) -> StratificationSolution:
    """Score every feasible stratification and report the best.

    Totals are accumulated in exact integer units, the same representation
    the path solver compares in, so cost ties are genuine and resolve to the
    first composition enumerated: the lexicographically smallest node
    sequence. Raises OracleTooLargeError when the enumeration would exceed
    cap.
    """
    start = time.perf_counter()
    if spec.N != ft.N:
        raise InvalidSpecError(f"spec N={spec.N} does not match table N={ft.N}")
    check_feasible(ft.K, spec.L)
    m = count_solutions(ft.K, spec.L)
    if m > cap:
        raise OracleTooLargeError(
            f"enumeration needs {m} evaluations, above the cap of {cap}"
        )
    pm = build_prefix_moments(ft)
    segment_units: dict[tuple[int, int], int] = {}
    best_nodes: tuple[int, ...] | None = None
    best_total: int | None = None
    for widths in enumerate_compositions(ft.K, spec.L):
        nodes = [1]
        for width in widths:
            nodes.append(nodes[-1] + width)
        total = 0
        for i, j in zip(nodes, nodes[1:]):
            units = segment_units.get((i, j))
            if units is None:
                units = exact_cost_units(unit_cost(segment_stats(pm, i, j)))
                segment_units[(i, j)] = units
            total += units
        if best_total is None or total < best_total:
            best_total = total
            best_nodes = tuple(nodes)
    assert best_nodes is not None and best_total is not None
    path = PathSolution(best_nodes, cost_units_to_float(best_total))
    solution = path_to_solution(path, pm, ft, spec)
    return replace(solution, elapsed=time.perf_counter() - start)


def _compositions(slots: int, total: int) -> Iterator[Composition]:
    if slots == 1:
        yield (total,)
        return
    for first in range(2, total - 2 * (slots - 1) + 1):
        for rest in _compositions(slots - 1, total - first):
            yield (first, *rest)
