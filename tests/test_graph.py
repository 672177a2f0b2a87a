"""Layered graph construction, arc counting, and costing tests."""

from __future__ import annotations

import math
import random
import sys

import pytest

import stratopt.graph
from stratopt import (
    Arc,
    DataError,
    InfeasibleProblemError,
    arc_counts,
    attach_costs,
    build_layered_graph,
    build_prefix_moments,
    count_solutions,
    segment_stats,
    solve,
    unit_cost,
)
from stratopt.graph import cost_table, layer_bounds
from stratopt.moments import exact_cost_units

from helpers import (
    count_paths,
    desk_table,
    random_pairs,
    reference_cost_table,
    skewed_table,
    table_from_pairs,
    tie_heavy_pairs,
    units_to_float,
)


def arc_pairs(graph, layer):
    return [(a.tail, a.head) for a in graph.layers[layer - 1]]


class TestBuildLayeredGraph:
    def test_eight_values_three_strata_exact_arcs(self):
        """All 12 arcs for K=8, L=3, worked out by hand from the layer
        bounds. No arc may span a single group."""
        g = build_layered_graph(8, 3)
        assert arc_pairs(g, 1) == [(1, 3), (1, 4), (1, 5)]
        assert arc_pairs(g, 2) == [(3, 5), (3, 6), (3, 7), (4, 6), (4, 7), (5, 7)]
        assert arc_pairs(g, 3) == [(5, 9), (6, 9), (7, 9)]

    def test_five_values_two_strata_exact_arcs(self):
        g = build_layered_graph(5, 2)
        assert arc_pairs(g, 1) == [(1, 3), (1, 4)]
        assert arc_pairs(g, 2) == [(3, 6), (4, 6)]

    def test_minimal_graph_single_path(self):
        """K = 2L leaves exactly one arc per layer through the odd nodes."""
        g = build_layered_graph(6, 3)
        assert arc_pairs(g, 1) == [(1, 3)]
        assert arc_pairs(g, 2) == [(3, 5)]
        assert arc_pairs(g, 3) == [(5, 7)]

    @pytest.mark.parametrize("K,L", [(5, 3), (3, 2), (15, 8)])
    def test_infeasible_rejected(self, K, L):
        with pytest.raises(InfeasibleProblemError):
            build_layered_graph(K, L)

    def test_single_stratum_rejected(self):
        with pytest.raises(ValueError):
            build_layered_graph(5, 1)

    def test_layer_tags_and_uncosted_arcs(self):
        g = build_layered_graph(8, 3)
        for index, layer in enumerate(g.layers, start=1):
            assert all(a.layer == index for a in layer)
            assert all(a.cost is None for a in layer)

    def test_arcs_span_at_least_two_groups(self):
        for L in range(2, 7):
            for K in range(2 * L, 31):
                g = build_layered_graph(K, L)
                for layer in g.layers:
                    assert all(a.head - a.tail >= 2 for a in layer)

    def test_arcs_sorted_within_layers(self):
        g = build_layered_graph(12, 4)
        for layer in g.layers:
            pairs = [(a.tail, a.head) for a in layer]
            assert pairs == sorted(pairs)


class TestArcCounts:
    def test_eight_values_three_strata(self):
        assert arc_counts(8, 3) == (3, 3, 6, 12)

    def test_hundred_values_five_strata_total(self):
        """Span 91: 2*91 + 3*(91*92/2) = 12740 arcs."""
        assert arc_counts(100, 5)[3] == 12740

    def test_minimal_graph(self):
        assert arc_counts(8, 4) == (1, 1, 1, 4)

    def test_grid_matches_built_graphs(self):
        for L in range(2, 9):
            for K in range(2 * L, 61):
                first, last, middle, total = arc_counts(K, L)
                g = build_layered_graph(K, L)
                sizes = [len(layer) for layer in g.layers]
                assert sizes[0] == first
                assert sizes[-1] == last
                assert all(s == middle for s in sizes[1:-1])
                assert sum(sizes) == total

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleProblemError):
            arc_counts(5, 3)

    def test_single_stratum_rejected(self):
        with pytest.raises(ValueError) as info:
            arc_counts(10, 1)
        assert str(info.value) == "arc counts are defined for L >= 2, got L=1"


class TestAttachCosts:
    def test_worked_example_costs(self):
        """Costs on the 9-unit example: stratum (2,4,4) costs 4, (2,4,4,8)
        costs 76/3, (8,10,10,10,15,15) costs 52, (10,10,10,15,15) 37.5."""
        ft = desk_table()
        g = attach_costs(build_layered_graph(5, 2), build_prefix_moments(ft))
        costs = {(a.tail, a.head): a.cost for layer in g.layers for a in layer}
        assert costs[(1, 3)] == pytest.approx(4.0, rel=1e-12)
        assert costs[(1, 4)] == pytest.approx(76 / 3, rel=1e-12)
        assert costs[(3, 6)] == pytest.approx(52.0, rel=1e-12)
        assert costs[(4, 6)] == pytest.approx(37.5, rel=1e-12)

    def test_constant_y_costs_all_zero(self):
        ft = table_from_pairs([(x, 5.0) for x in range(1, 9)])
        g = attach_costs(build_layered_graph(8, 3), build_prefix_moments(ft))
        assert all(a.cost == 0.0 for layer in g.layers for a in layer)

    def test_structure_preserved(self):
        ft = desk_table()
        bare = build_layered_graph(5, 2)
        costed = attach_costs(bare, build_prefix_moments(ft))
        assert [(a.tail, a.head, a.layer) for layer in bare.layers for a in layer] == [
            (a.tail, a.head, a.layer) for layer in costed.layers for a in layer
        ]
        assert all(a.cost is not None for layer in costed.layers for a in layer)

    def test_group_count_mismatch_rejected(self):
        ft = desk_table()
        with pytest.raises(ValueError):
            attach_costs(build_layered_graph(8, 3), build_prefix_moments(ft))

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("data", ["random", "tie-heavy"])
    def test_every_arc_cost_is_its_segment_cost(self, data, seed):
        """The view reads the table: each arc carries the very float
        unit_cost(segment_stats(...)) gives."""
        rng = random.Random(seed)
        L = rng.randint(2, 6)
        K = rng.randint(2 * L, 60)
        if data == "random":
            pairs = random_pairs(rng, L, k_max=K, k_min=K)
        else:
            pairs = tie_heavy_pairs(rng, K)
        pm = build_prefix_moments(table_from_pairs(pairs))
        graph = attach_costs(build_layered_graph(K, L), pm)
        arcs = [a for layer in graph.layers for a in layer]
        assert len(arcs) == arc_counts(K, L)[3]
        assert [a.cost for a in arcs] == [
            unit_cost(segment_stats(pm, a.tail, a.head)) for a in arcs
        ]

    def test_attach_costs_and_solve_build_no_arc(self, monkeypatch):
        """Arcs exist only when the layers are read: building, costing and
        solving the acceptance instance's graph never constructs one."""

        def no_arc(*args):
            raise AssertionError("an Arc was built")

        pm = build_prefix_moments(skewed_table())
        monkeypatch.setattr(stratopt.graph, "Arc", no_arc)
        graph = attach_costs(build_layered_graph(pm.K, 5), pm)
        assert solve(graph).nodes == (1, 38, 83, 132, 196, 273)
        with pytest.raises(AssertionError, match="an Arc was built"):
            graph.layers


# from the least subnormal to 1e300, thick around 1.34e154 where y^2 overflows
EXTREME_SCALES = (
    5e-324, 1e-310, 1e-200, 1e-160, 1e-20, 1.0, 3.0, 1e20, 1e150,
    1e153, 6e153, 1e154, 1.2e154, 1e155, 1e200, 1e300,
)

# group 1..2 costs 4 * 6.8e153^2, past the float range; group 1..5 holds
# y total 1.59e154, whose square is too; the squared total must win
BOTH_OVERFLOWS = (
    (1, -6.8e153), (2, 6.8e153), (3, 5.3e153), (4, 5.3e153), (5, 5.3e153),
    (6, 0.0), (7, 0.0),
)

# at L = 3 the row of tail 5 costs group 5..6 past the float range at an
# inner head, and its one squared y total that overflows, 1.59e154 over
# groups 5..9, is the last stratum's, appended after the inner heads; the
# squared total must still win, and rows 1, 3 and 4 overflow nowhere
LAST_STRATUM_OVERFLOWS = (
    (1, 0.0), (2, 0.0), (3, 0.0), (4, 0.0), (5, -6.8e153), (6, 6.8e153),
    (7, 5.3e153), (8, 5.3e153), (9, 5.3e153),
)


def cost_table_corpus():
    """Seeded (label, pairs, L) inputs: random and tie-heavy tables, y
    shifted by 1e6 to 1e15 so that sums of squares cancel, y of every float
    magnitude and both signs, y whose squares sum to just under the float
    range so that costs and squared totals overflow, and two tables that
    overflow both ways in one row, one of them only in its last stratum."""
    rng = random.Random(20261018)
    for _ in range(60):
        L = rng.randint(1, 6)
        K = rng.randint(2 * L, 40)
        yield "random", random_pairs(rng, L, k_max=K, k_min=K), L
        yield "tie-heavy", tie_heavy_pairs(rng, K), L
    for _ in range(120):
        L = rng.randint(1, 4)
        K = rng.randint(2 * L, 30)
        shift = rng.choice((1e6, 1e9, 1e12, 1e15))
        pairs = random_pairs(rng, L, k_max=K, k_min=K)
        yield "shifted", [(x, shift + y) for x, y in pairs], L
    for _ in range(300):
        L = rng.randint(1, 3)
        K = rng.randint(2 * L, 12)
        pool = rng.choices(EXTREME_SCALES, k=rng.randint(1, 3))
        pairs = [
            (x, rng.choice((-1, 1)) * rng.choice(pool) * rng.choice((1.0, 0.5, 0.25)))
            for x in range(1, K + 1)
            for _ in range(rng.randint(1, 2))
        ]
        yield "extreme", pairs, L
    for _ in range(60):
        L = rng.randint(1, 3)
        K = rng.randint(2 * L, 10)
        weights = [rng.random() for _ in range(K)]
        scale = 0.999 * sys.float_info.max / sum(weights)
        pairs = [
            (x, rng.choice((-1, 1)) * math.sqrt(w * scale))
            for x, w in enumerate(weights, start=1)
        ]
        yield "near-overflow", pairs, L
    yield "both-overflows", BOTH_OVERFLOWS, 2
    yield "last-stratum-overflows", LAST_STRATUM_OVERFLOWS, 3


def table_bits(costing):
    """The table costing() returns as .hex() strings, so that signed zeros
    count, or the error it raised as (type, text)."""
    try:
        rows, final = costing()
    except DataError as exc:
        return type(exc), str(exc)
    return (
        [[cost.hex() for cost in row] for row in rows],
        [None if cost is None else cost.hex() for cost in final],
    )


class TestCostTableBits:
    def test_every_cost_and_error_is_the_per_segment_routes(self):
        """One float pass per row changes no bit of any cost and no error:
        the corpus must clamp sums of squares, cost subnormals, and raise
        both overflow messages, one with a squared total that overflows
        after a cost that does in the same row."""
        seen = {"clamped": 0, "subnormal": 0, "squared": 0, "cost": 0}
        mismatches = []
        for label, pairs, L in cost_table_corpus():
            try:
                pm = build_prefix_moments(table_from_pairs(pairs))
            except DataError:
                continue
            bounds = layer_bounds(pm.K, L)
            clamped: list[tuple[int, int]] = []
            expected = table_bits(lambda: reference_cost_table(pm, bounds, clamped))
            if table_bits(lambda: cost_table(pm, bounds)) != expected:
                mismatches.append((label, pairs, L))
            seen["clamped"] += len(clamped)
            if expected[0] is DataError:
                seen["squared" if "squared" in expected[1] else "cost"] += 1
                if label == "both-overflows":
                    assert expected[1] == (
                        "y values too large: the squared y total of groups "
                        "1..5 overflows a float"
                    )
                if label == "last-stratum-overflows":
                    assert expected[1] == (
                        "y values too large: the squared y total of groups "
                        "5..9 overflows a float"
                    )
            else:
                rows, final = expected
                seen["subnormal"] += sum(
                    0.0 < float.fromhex(cost) < sys.float_info.min
                    for cost in (*(c for row in rows for c in row), *filter(None, final))
                )
        assert mismatches == []
        assert min(seen.values()) > 0, seen


class TestDumpArcs:
    """The arc listing a graph's layers give, every arc with its cost."""

    def test_one_line_per_arc(self):
        arcs = [arc for layer in build_layered_graph(8, 3).layers for arc in layer]
        assert len(arcs) == arc_counts(8, 3)[3]
        assert arcs[0] == Arc(tail=1, head=3, layer=1, cost=None)

    def test_costed_dump_carries_costs(self):
        ft = desk_table()
        g = attach_costs(build_layered_graph(5, 2), build_prefix_moments(ft))
        first = g.layers[0][0]
        assert (first.layer, first.tail, first.head) == (1, 1, 3)
        assert first.cost == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("data", ["random", "tie-heavy"])
    def test_costed_dump_matches_a_unit_derived_listing(self, data, seed):
        """Bit for bit the costs taken through exact 2^-1074 units and back,
        as when the table held units."""
        rng = random.Random(55_000 + seed)
        L = rng.randint(2, 6)
        K = rng.randint(2 * L, 60)
        if data == "random":
            pairs = random_pairs(rng, L, k_max=K, k_min=K)
        else:
            pairs = tie_heavy_pairs(rng, K)
        pm = build_prefix_moments(table_from_pairs(pairs))
        listing = [
            (h, i, j, units_to_float(exact_cost_units(unit_cost(segment_stats(pm, i, j)))).hex())
            for h, (tails, first_head, head_stop) in enumerate(layer_bounds(K, L), start=1)
            for i in tails
            for j in range(max(i + 2, first_head), head_stop)
        ]
        layers = attach_costs(build_layered_graph(K, L), pm).layers
        assert [
            (arc.layer, arc.tail, arc.head, arc.cost.hex()) for layer in layers for arc in layer
        ] == listing


class TestPathCounts:
    def test_paths_equal_composition_counts(self):
        """The number of source to terminal paths with one arc per layer
        must match the closed-form count of feasible splits."""
        for L in range(2, 7):
            for K in range(2 * L, 25):
                g = build_layered_graph(K, L)
                assert count_paths(g) == count_solutions(K, L)
