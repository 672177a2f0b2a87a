"""Layered DAG of candidate strata over distinct-value indexes.

Nodes are the group indexes 1..K plus a terminal node K+1. An arc (i, j)
placed at layer h stands for stratum h covering groups i..j-1, and a source
to terminal path with exactly L arcs is a complete stratification. Arcs with
j - i = 1 never appear: a one-group stratum cannot be guaranteed two units
of every candidate split, so each stratum must span at least two groups.

The solver never materialises the graph. It runs over layer_bounds and the
cost_table of segment costs, plain floats; LayeredGraph is a view of that
same table that builds its Arc objects only when its layers are read.
cost_table zips the prefix moments once into a list of (count, y total,
squared y total) triples and costs each tail's row in one pass over a slice
of it, the row's end read from layer_bounds through a node-indexed list.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import NamedTuple

from .errors import DataError, InfeasibleProblemError
from .moments import PrefixMoments


class Arc(NamedTuple):
    """Candidate stratum covering groups tail..head-1, usable at one layer."""

    tail: int
    head: int
    layer: int
    cost: float | None = None


Bounds = tuple[tuple[range, int, int], ...]
"""Per layer: its tails, its first head, and one past its last head."""

CostTable = tuple[list[list[float]], list[float | None]]
"""(rows, final) segment costs N_h * S2_h, as cost_table lays them out."""


class LayeredGraph(NamedTuple):
    """The graph for K distinct values and L strata, with its costs as a
    cost_table, or None while uncosted.

    layers lists the arcs per layer, each layer ordered by (tail, head); it
    is built from layer_bounds on every read, each cost read from the table.
    """

    K: int
    L: int
    table: CostTable | None = None

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
    costed.

    The prefix moments are zipped once into one list of (count, y total,
    squared y total) triples, index t for groups 1..t, the counts as floats.
    A node-indexed list holds where each tail's row ends: i + 2 for a tail
    of layer L alone, else the head stop of the last inner layer holding
    it, head stops rising with the layer. Tails are costed in ascending
    order, each row in one float pass over a slice of the triples, with the
    terminal triple appended for a tail of layer L (_cost_row). Every cost
    is a finite float >= 0, which the solver's tie certificate relies on:
    raises DataError at the first segment of a row whose squared y total
    overflows, else at the first whose cost does, the last stratum being
    the row's last segment.
    """
    K = pm.K
    *inner, (last_tails, _, _) = bounds
    # 0 at a node that tails no layer
    stops = [0] * (K + 1)
    stops[last_tails.start : last_tails.stop] = range(
        last_tails.start + 2, last_tails.stop + 2
    )
    for tails, _, head_stop in inner:
        stops[tails.start : tails.stop] = repeat(head_stop, len(tails))
    # exact: a unit count stays below 2^53
    prefix = list(zip(map(float, pm.cum_count), pm.cum_y, pm.cum_y2))
    rows: list[list[float]] = [[] for _ in range(K + 1)]
    final: list[float | None] = [None] * (K + 1)
    for i, stop in enumerate(stops):
        if not stop:
            continue
        last = i in last_tails
        row = _cost_row(prefix, i, stop, last)
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
    prefix: list[tuple[float, float, float]], i: int, stop: int, last: bool
) -> list[float]:
    """N_h * S2_h of the segments i..j-1 for the heads j = i+2 .. stop-1,
    then for j = K+1 when last, from the prefix triples of cost_table.

    The float operations of segment_stats in the same order, so each cost
    matches it bit for bit, a negative sum of squares clamped to 0 alike.
    A segment whose squared y total overflowed, which makes its sum of
    squares -inf, is marked -inf; a cost that overflows stays inf.
    cost_table names the overflow from these marks alone.
    """
    c0, y0, q0 = prefix[i - 1]
    ends = prefix[i + 1 : stop - 1]
    if last:
        ends += prefix[-1:]
    inf = math.inf
    return [
        m * (ss / (m - 1.0))
        if (ss := q - q0 - (u := t - y0) * u / (m := n - c0)) >= 0.0
        else 0.0 if ss > -inf else -inf
        for n, t, q in ends
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
    return graph._replace(table=cost_table(pm, layer_bounds(graph.K, graph.L)))
