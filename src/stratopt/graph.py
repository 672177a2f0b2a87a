"""Layered DAG of candidate strata over distinct-value indexes.

Nodes are the group indexes 1..K plus a terminal node K+1. An arc (i, j)
placed at layer h stands for stratum h covering groups i..j-1, and a source
to terminal path with exactly L arcs is a complete stratification. Arcs with
j - i = 1 never appear: a one-group stratum cannot be guaranteed two units
of every candidate split, so each stratum must span at least two groups.

The solver never materialises the graph. It runs over layer_bounds and the
cost_table of segment costs, plain floats; LayeredGraph is a view of that
same table that builds its Arc objects only when its layers are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import DataError, InfeasibleProblemError
from .moments import PrefixMoments


@dataclass(frozen=True, slots=True)
class Arc:
    """Candidate stratum covering groups tail..head-1, usable at one layer."""

    tail: int
    head: int
    layer: int
    cost: float | None = None


Bounds = tuple[tuple[range, int, int], ...]
"""Per layer: its tails, its first head, and one past its last head."""

CostTable = tuple[list[list[float]], list[float | None]]
"""(rows, final) segment costs N_h * S2_h, as cost_table lays them out."""


@dataclass(frozen=True, slots=True)
class LayeredGraph:
    """The graph for K distinct values and L strata, with its costs as a
    cost_table, or None while uncosted.

    layers lists the arcs per layer, each layer ordered by (tail, head); it
    is built from layer_bounds on every read, each cost read from the table.
    """

    K: int
    L: int
    table: CostTable | None = None

    @property
    def source(self) -> int:
        return 1

    @property
    def sink(self) -> int:
        return self.K + 1

    @property
    def layers(self) -> tuple[tuple[Arc, ...], ...]:
        def cost(i: int, j: int) -> float | None:
            if self.table is None:
                return None
            rows, final = self.table
            # only the last layer reaches the terminal K+1
            return final[i] if j > self.K else rows[i][j - i - 2]

        return tuple(
            tuple(
                Arc(i, j, h, cost(i, j))
                for i in tails
                for j in range(max(i + 2, first_head), head_stop)
            )
            for h, (tails, first_head, head_stop) in enumerate(
                layer_bounds(self.K, self.L), start=1
            )
        )


def check_feasible(K: int, L: int) -> None:
    """Raise InfeasibleProblemError when K < 2L: every stratum needs at least
    two distinct values."""
    if K < 2 * L:
        raise InfeasibleProblemError(
            f"{K} distinct values cannot form {L} strata of at least two "
            "distinct values each"
        )


def layer_bounds(K: int, L: int) -> Bounds:
    """Node bounds of every layer, after the feasibility check.

    Layer h holds the arcs (i, j) with i in its tails and
    max(i + 2, first head) <= j < its head stop. The bounds keep every arc on
    some full source to terminal path: layer 1 starts at node 1 only, layer
    L ends at node K+1 only, and a middle layer h spans tails
    2h-1..K-1-2(L-h) with heads up to K+1-2(L-h). Every head sits at least
    two past its tail.
    """
    check_feasible(K, L)
    bounds = []
    for h in range(1, L + 1):
        tails = range(1, 2) if h == 1 else range(2 * h - 1, K - 2 * (L - h))
        first_head = K + 1 if h == L else 2 * h + 1
        bounds.append((tails, first_head, K + 2 - 2 * (L - h)))
    return tuple(bounds)


def build_layered_graph(K: int, L: int) -> LayeredGraph:
    """The uncosted graph for K distinct values and L strata.

    Raises InfeasibleProblemError when K < 2L. L must be at least 2; a
    single stratum needs no graph.
    """
    if L < 2:
        raise ValueError(f"layered graph needs at least two strata, got L={L}")
    check_feasible(K, L)
    return LayeredGraph(K, L)


def arc_counts(K: int, L: int) -> tuple[int, int, int, int]:
    """Closed-form layer sizes (first, last, each middle, total)."""
    if L < 2:
        raise ValueError(f"arc counts are defined for L >= 2, got L={L}")
    check_feasible(K, L)
    span = K - 2 * L + 1
    middle = span * (span + 1) // 2
    return span, span, middle, 2 * span + (L - 2) * middle


def cost_table(pm: PrefixMoments, bounds: Bounds) -> CostTable:
    """N_h * S2_h of every segment that is an arc of some layer, each once.

    Returns (rows, final). rows[i][j - i - 2] is the cost of (i, j) for the
    heads j = i+2, i+3, ... that layers 1..L-1 pair with tail i; each of
    those layers starts its heads at i + 2, so a row has no gaps. final[i]
    is the cost of the last stratum i..K for each tail of layer L, whose one
    head is K+1, and None at every other node. Memory thus follows the arc
    count (linear in K for L <= 2), and no segment outside the graph is ever
    costed. Each tail's segments, final one included, are costed in one
    float pass over its slices of the prefix moments (_cost_row), with the
    unit counts as floats, built once per table; every cost is the float
    that segment_stats and unit_cost give, bit for bit. Every cost is a
    finite float >= 0, which the solver's tie certificate relies on: raises
    DataError at the first segment of a row whose squared y total
    overflows, else at the first whose cost does.
    """
    K = pm.K
    *inner, (last_tails, _, _) = bounds
    # head stops rise with the layer, so the last layer holding a tail sets
    # the end of its row
    row_stop = {i: head_stop for tails, _, head_stop in inner for i in tails}
    # exact: a unit count stays below 2^53
    counts = tuple(map(float, pm.cum_count))
    rows: list[list[float]] = [[] for _ in range(K + 1)]
    final: list[float | None] = [None] * (K + 1)
    for i in sorted(row_stop.keys() | set(last_tails)):
        stop = row_stop.get(i, i + 2)
        last = i in last_tails
        row = _cost_row(counts, pm, i, stop, last)
        # without an overflow mark, a row's finite costs summed past the
        # float range, which is no error
        if not math.isfinite(sum(row)):
            heads = [*range(i + 2, stop), *((K + 1,) if last else ())]
            for mark, what in ((-math.inf, "squared y total"), (math.inf, "cost")):
                if mark in row:
                    j = heads[row.index(mark)]
                    raise DataError(
                        f"y values too large: the {what} of groups {i}..{j - 1} "
                        "overflows a float"
                    )
        if last:
            final[i] = row.pop()
        rows[i] = row
    return rows, final


def _cost_row(
    counts: tuple[float, ...], pm: PrefixMoments, i: int, stop: int, last: bool
) -> list[float]:
    """N_h * S2_h of the segments i..j-1 for the heads j = i+2 .. stop-1,
    then for j = K+1 when last, with counts the prefix unit counts as floats.

    The float operations of segment_stats in the same order, so each cost
    matches it bit for bit, a negative sum of squares clamped to 0 alike.
    A segment whose squared y total overflowed, which makes its sum of
    squares -inf, is marked -inf; a cost that overflows stays inf.
    cost_table names the overflow from these marks alone.
    """
    c0, y0, q0 = counts[i - 1], pm.cum_y[i - 1], pm.cum_y2[i - 1]
    ends = slice(i + 1, stop - 1)
    ns, ts, qs = counts[ends], pm.cum_y[ends], pm.cum_y2[ends]
    if last:
        ns, ts, qs = ns + counts[-1:], ts + pm.cum_y[-1:], qs + pm.cum_y2[-1:]
    inf = math.inf
    return [
        m * (ss / (m - 1.0))
        if (ss := q - q0 - (u := t - y0) * u / (m := n - c0)) >= 0.0
        else 0.0 if ss > -inf else -inf
        for n, t, q in zip(ns, ts, qs)
    ]


def attach_costs(graph: LayeredGraph, pm: PrefixMoments) -> LayeredGraph:
    """Return the graph with its cost_table attached, so that every arc
    reads its cost N_h * S2_h.

    Every arc spans at least two groups and every group holds at least one
    unit, so no segment can be degenerate here.
    """
    if pm.K != graph.K:
        raise ValueError(
            f"prefix moments cover {pm.K} groups, graph expects {graph.K}"
        )
    return replace(graph, table=cost_table(pm, layer_bounds(graph.K, graph.L)))


def dump_arcs(graph: LayeredGraph) -> str:
    """Debug listing, one arc per line: layer, tail, head, cost."""
    lines = []
    for layer in graph.layers:
        for arc in layer:
            cost = "" if arc.cost is None else repr(arc.cost)
            lines.append(f"{arc.layer}\t{arc.tail}\t{arc.head}\t{cost}")
    return "\n".join(lines)
