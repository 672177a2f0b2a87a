"""Layered DAG of candidate strata over distinct-value indexes.

Nodes are the group indexes 1..K plus a terminal node K+1. An arc (i, j)
placed at layer h stands for stratum h covering groups i..j-1, and a source
to terminal path with exactly L arcs is a complete stratification. Arcs with
j - i = 1 never appear: a one-group stratum cannot be guaranteed two units
of every candidate split, so each stratum must span at least two groups.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InfeasibleProblemError
from .moments import PrefixMoments, segment_row


@dataclass(frozen=True, slots=True)
class Arc:
    """Candidate stratum covering groups tail..head-1, usable at one layer."""

    tail: int
    head: int
    layer: int
    cost: float | None = None


@dataclass(frozen=True, slots=True)
class LayeredGraph:
    """Arcs grouped per stratum layer, each layer ordered by (tail, head)."""

    K: int
    L: int
    layers: tuple[tuple[Arc, ...], ...]

    @property
    def source(self) -> int:
        return 1

    @property
    def sink(self) -> int:
        return self.K + 1


Bounds = tuple[tuple[range, int, int], ...]
"""Per layer: its tails, its first head, and one past its last head."""


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
    """Construct the uncosted graph for K distinct values and L strata.

    An inspection view: solve_problem runs the same layer_bounds without
    building arcs. Raises InfeasibleProblemError when K < 2L. L must be at
    least 2; a single stratum needs no graph.
    """
    if L < 2:
        raise ValueError(f"layered graph needs at least two strata, got L={L}")
    layers = tuple(
        tuple(
            Arc(i, j, h)
            for i in tails
            for j in range(max(i + 2, first_head), head_stop)
        )
        for h, (tails, first_head, head_stop) in enumerate(layer_bounds(K, L), start=1)
    )
    span = K - 2 * L + 1
    assert len(layers[0]) == span and len(layers[-1]) == span
    assert all(len(mid) == span * (span + 1) // 2 for mid in layers[1:-1])
    return LayeredGraph(K, L, layers)


def arc_counts(K: int, L: int) -> tuple[int, int, int, int]:
    """Closed-form layer sizes (first, last, each middle, total)."""
    if L < 2:
        raise ValueError(f"arc counts are defined for L >= 2, got L={L}")
    check_feasible(K, L)
    span = K - 2 * L + 1
    middle = span * (span + 1) // 2
    return span, span, middle, 2 * span + (L - 2) * middle


def cost_table(pm: PrefixMoments, bounds: Bounds) -> list[list[float | None]]:
    """N_h * S2_h of every segment that is an arc of some layer, each once.

    Row i holds the segments with tail i, the cost of (i, j) at
    table[i][j - i - 2], all costed by one segment_row call; heads that no
    layer pairs with tail i hold None, so no segment outside the graph is
    ever costed.
    """
    reach: dict[int, list[tuple[int, int]]] = {}
    for tails, first_head, head_stop in bounds:
        for i in tails:
            reach.setdefault(i, []).append((max(i + 2, first_head), head_stop))
    table: list[list[float | None]] = [[] for _ in range(pm.K + 1)]
    for i, spans in reach.items():
        heads: list[int] = []
        for start, stop in sorted(spans):
            # the spans of different layers overlap; each head joins once
            first_new = max(start, heads[-1] + 1) if heads else start
            heads.extend(range(first_new, stop))
        row: list[float | None] = [None] * (heads[-1] - i - 1)
        for j, (n_pop, s2, _) in zip(heads, segment_row(pm, i, heads)):
            row[j - i - 2] = n_pop * s2
        table[i] = row
    return table


def attach_costs(graph: LayeredGraph, pm: PrefixMoments) -> LayeredGraph:
    """Return a copy of the graph with every arc costed as N_h * S2_h.

    An inspection view over cost_table. Every arc spans at least two groups
    and every group holds at least one unit, so no segment can be degenerate
    here.
    """
    if pm.K != graph.K:
        raise ValueError(
            f"prefix moments cover {pm.K} groups, graph expects {graph.K}"
        )
    table = cost_table(pm, layer_bounds(graph.K, graph.L))
    layers = tuple(
        tuple(
            Arc(arc.tail, arc.head, arc.layer, table[arc.tail][arc.head - arc.tail - 2])
            for arc in layer
        )
        for layer in graph.layers
    )
    return LayeredGraph(graph.K, graph.L, layers)


def dump_arcs(graph: LayeredGraph) -> str:
    """Debug listing, one arc per line: layer, tail, head, cost."""
    lines = []
    for layer in graph.layers:
        for arc in layer:
            cost = "" if arc.cost is None else repr(arc.cost)
            lines.append(f"{arc.layer}\t{arc.tail}\t{arc.head}\t{cost}")
    return "\n".join(lines)
