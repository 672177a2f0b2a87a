"""Counting, enumeration, and exhaustive-search tests."""

from __future__ import annotations

import random
import sys
import tracemalloc

import pytest

import stratopt.graph
import stratopt.oracle
from stratopt import (
    ConsistencyError,
    DataError,
    InfeasibleProblemError,
    InvalidSpecError,
    OracleTooLargeError,
    ProblemSpec,
    brute_force_solve,
    build_prefix_moments,
    count_solutions,
    enumerate_compositions,
    solve_problem,
)
from stratopt.graph import cost_table, layer_bounds
from stratopt.oracle import _exact_units, _walk_compositions

from helpers import (
    desk_table,
    nodes_from_composition,
    random_instance,
    random_pairs,
    reference_brute_force_solve,
    reference_variance,
    reference_walk_compositions,
    table_from_pairs,
    tie_heavy_pairs,
    units_table,
)


class TestCountSolutions:
    def test_known_counts(self):
        """comb(94, 4) = 3049501 and comb(994, 4) = 40430556376, both
        checked by long multiplication."""
        assert count_solutions(100, 5) == 3_049_501
        assert count_solutions(1000, 5) == 40_430_556_376

    def test_minimal_feasible_is_unique(self):
        assert count_solutions(4, 2) == 1
        assert count_solutions(12, 6) == 1

    def test_single_stratum(self):
        assert count_solutions(2, 1) == 1
        assert count_solutions(9, 1) == 1

    @pytest.mark.parametrize("K,L", [(3, 2), (1, 1), (11, 6), (0, 1)])
    def test_infeasible_counts_zero(self, K, L):
        assert count_solutions(K, L) == 0

    def test_exact_at_large_sizes(self):
        """Cross-checked against the factorial ratio in pure integers."""
        import math

        K, L = 500, 10
        expected = math.factorial(K - L - 1) // (
            math.factorial(L - 1) * math.factorial(K - 2 * L)
        )
        assert count_solutions(K, L) == expected
        assert count_solutions(10_000, 2) == 9_997

    def test_bad_stratum_count_rejected(self):
        with pytest.raises(ValueError):
            count_solutions(10, 0)

    def test_grid_matches_enumeration(self):
        for L in range(1, 7):
            for K in range(2 * L, 25):
                assert count_solutions(K, L) == sum(
                    1 for _ in enumerate_compositions(K, L)
                )


class TestEnumerateCompositions:
    def test_eight_into_three_lexicographic(self):
        assert list(enumerate_compositions(8, 3)) == [
            (2, 2, 4),
            (2, 3, 3),
            (2, 4, 2),
            (3, 2, 3),
            (3, 3, 2),
            (4, 2, 2),
        ]

    def test_five_into_two(self):
        assert list(enumerate_compositions(5, 2)) == [(2, 3), (3, 2)]

    def test_bad_stratum_count_rejected_on_first_next(self):
        """A generator: the call itself raises nothing."""
        compositions = enumerate_compositions(10, 0)
        with pytest.raises(ValueError) as info:
            next(compositions)
        assert str(info.value) == "stratum count must be at least 1, got L=0"

    def test_minimal(self):
        assert list(enumerate_compositions(4, 2)) == [(2, 2)]

    def test_single_stratum(self):
        assert list(enumerate_compositions(7, 1)) == [(7,)]

    def test_infeasible_is_empty(self):
        assert list(enumerate_compositions(5, 3)) == []

    def test_parts_always_feasible(self):
        for L in range(1, 6):
            for K in range(2 * L, 20):
                for widths in enumerate_compositions(K, L):
                    assert len(widths) == L
                    assert sum(widths) == K
                    assert all(w >= 2 for w in widths)


class TestBruteForceSolve:
    def test_worked_example(self):
        ft = desk_table()
        sol = brute_force_solve(ft, ProblemSpec(L=2, n=3, N=9))
        assert sol.nodes == (1, 3, 6)
        assert sol.boundaries == (4.0,)
        assert sol.variance == pytest.approx(112.0, rel=1e-12)

    def test_constant_y_ties_resolve_to_first_composition(self):
        ft = table_from_pairs([(x, 5.0) for x in range(1, 9)])
        sol = brute_force_solve(ft, ProblemSpec(L=3, n=4, N=8))
        assert sol.nodes == (1, 3, 5, 9)

    def test_single_stratum(self):
        ft = desk_table()
        sol = brute_force_solve(ft, ProblemSpec(L=1, n=3, N=9))
        assert sol.nodes == (1, 6)
        assert sol.variance == pytest.approx(391.5, rel=1e-12)

    def test_cap_exceeded_names_count_and_cap(self):
        rng = random.Random(0)
        ft = table_from_pairs((i + rng.random(), 1.0) for i in range(25))
        with pytest.raises(OracleTooLargeError, match=r"1140.*\b100\b"):
            brute_force_solve(ft, ProblemSpec(L=4, n=5, N=25), cap=100)

    def test_infeasible_rejected(self):
        ft = desk_table()
        with pytest.raises(InfeasibleProblemError):
            brute_force_solve(ft, ProblemSpec(L=3, n=3, N=9))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_fraction_exact_reference(self, seed):
        """The winner must also win when every composition is scored from
        raw rows with statistics.variance (exact fractions inside)."""
        rng = random.Random(9_000 + seed)
        L = rng.choice([2, 3])
        pairs = random_pairs(rng, L, k_max=12)
        ft = table_from_pairs(pairs)
        spec = ProblemSpec(L=L, n=max(1, ft.N // 4), N=ft.N)

        scored = [
            (reference_variance(pairs, widths, spec), widths)
            for widths in enumerate_compositions(ft.K, L)
        ]
        best_reference = min(scored)
        sol = brute_force_solve(ft, spec)
        assert sol.nodes == nodes_from_composition(best_reference[1])
        assert sol.variance == pytest.approx(best_reference[0], rel=1e-9)

    def test_population_size_mismatch_rejected(self):
        ft = desk_table()
        with pytest.raises(InvalidSpecError):
            brute_force_solve(ft, ProblemSpec(L=2, n=3, N=10))

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_walk_must_score_every_composition(self, monkeypatch, L):
        """A count of scored compositions other than count_solutions means
        the walk skipped or repeated some."""
        counted = stratopt.oracle.count_solutions
        monkeypatch.setattr(
            stratopt.oracle, "count_solutions", lambda *shape: counted(*shape) + 1
        )
        ft = random_instance(random.Random(L), L, k_max=10, k_min=10)
        with pytest.raises(ConsistencyError, match="scored"):
            brute_force_solve(ft, ProblemSpec(L=L, n=3, N=ft.N))

    @pytest.mark.parametrize(
        "L,K,data",
        [
            pytest.param(L, K, data, id=f"L{L}-{shape}-{data}")
            for L in range(1, 6)
            for shape, K in (
                ("K2L", 2 * L),
                ("K2L+1", 2 * L + 1),
                ("K24", 24),
                ("K40", 40),
                ("Krandom", None),
            )
            for data in ("random", "ties")
        ],
    )
    def test_matches_per_composition_reference(self, L, K, data):
        """Identical nodes, unit cost and variance to scoring each
        composition on its own, segment by segment; K = 2L and L <= 2 start
        the walk at the last-two-strata pass. This is what checks the cost
        table's row layout, which the oracle shares with the solver."""
        rng = random.Random(f"{L}:{K}:{data}")
        if K is None:
            K = rng.randint(2 * L + 2, 23)
        if data == "random":
            pairs = random_pairs(rng, L, k_max=K, k_min=K)
        else:
            pairs = tie_heavy_pairs(rng, K)
        ft = table_from_pairs(pairs)
        assert ft.K == K
        spec = ProblemSpec(L=L, n=max(1, ft.N // 3), N=ft.N)
        sol = brute_force_solve(ft, spec)
        reference = reference_brute_force_solve(ft, spec)
        assert sol.nodes == reference.nodes
        assert sol.total_unit_cost == reference.total_unit_cost
        assert sol.variance == reference.variance

    def test_costs_each_table_row_once(self, monkeypatch):
        """One float pass per cost-table row, at most K + L of them, instead
        of one call per distinct segment; the self-check costs its strata
        through segment_stats, not through that pass."""
        ft = random_instance(random.Random(40), 3, k_max=40, k_min=40)
        rows, final = cost_table(build_prefix_moments(ft), layer_bounds(ft.K, 3))
        tails = [i for i in range(ft.K + 1) if rows[i] or final[i] is not None]
        calls = []
        cost_row = stratopt.graph._cost_row

        def counting(prefix, i, stop, last):
            calls.append(i)
            return cost_row(prefix, i, stop, last)

        monkeypatch.setattr(stratopt.graph, "_cost_row", counting)
        brute_force_solve(ft, ProblemSpec(L=3, n=10, N=ft.N))
        assert calls == tails
        assert 0 < len(tails) <= ft.K + 3

    def test_two_strata_on_many_distinct_values(self):
        """L = 2 scores K - 3 compositions; the oracle handles K = 20,000
        and agrees with the solver."""
        rng = random.Random(20_000)
        ft = table_from_pairs(
            [(float(x), rng.lognormvariate(0.0, 1.0)) for x in range(20_000)]
            + [(float(x), 1.0) for x in range(20_000)]
        )
        spec = ProblemSpec(L=2, n=100, N=ft.N)
        sol = brute_force_solve(ft, spec)
        reference = solve_problem(ft, spec)
        assert sol.nodes == reference.nodes
        assert sol.total_unit_cost == reference.total_unit_cost

    def test_two_strata_memory_linear_in_K(self):
        """At L = 2 the arcs and the compositions are both linear in K, so
        the oracle's memory must be too: a table or slice list with a slot
        per (i, j) pair would take over 30 MB at K = 3000."""
        rng = random.Random(3000)
        ft = table_from_pairs(
            [(float(x), rng.lognormvariate(0.0, 1.0)) for x in range(3000) for _ in range(2)]
        )
        spec = ProblemSpec(L=2, n=100, N=ft.N)
        tracemalloc.start()
        try:
            brute_force_solve(ft, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20


def _full_rows(K: int, L: int, cost):
    """A cost table in the cost_table layout with every row running to head
    K-1 and every last-stratum tail filled, each entry cost."""
    rows = [[cost] * max(0, K - t - 2) for t in range(K + 1)]
    final = [cost if 2 * L - 1 <= j <= K - 1 else None for j in range(K + 1)]
    return rows, final


class TestGroupedWalk:
    """The walk groups prefixes by their last node and scores narrow units;
    the per-prefix walk over 2^-1074 units in tests/helpers.py is its
    reference."""

    def test_matches_the_per_prefix_walk(self):
        """2,100 seeded tables, random and tie-heavy, L from 1 to 7 and K
        from 2L to 30 (26 for L >= 6): the same nodes, the same number of
        compositions scored."""
        rng = random.Random(2026)
        for case in range(2100):
            L = case % 7 + 1
            K = rng.randint(2 * L, 30 if L < 6 else 26)
            if case % 2:
                pairs = random_pairs(rng, L, k_max=K, k_min=K)
            else:
                pairs = tie_heavy_pairs(rng, K)
            ft = table_from_pairs(pairs)
            table = cost_table(build_prefix_moments(ft), layer_bounds(K, L))
            ref_nodes, _, ref_scored = reference_walk_compositions(
                *units_table(table), K, L
            )
            walked = _walk_compositions(*_exact_units(*table), K, L)
            assert walked == (ref_nodes, ref_scored), (case, K, L)

    def test_tie_across_groups_goes_to_the_smaller_nodes(self):
        """(1, 3, 9, 11, 13, 15) and (1, 5, 7, 11, 13, 15) tie at the
        minimum. The prefix (1, 5, 7) is scored first, in the group of last
        node 7; the lexicographically smaller (1, 3, 9) comes later, in the
        group of 9, and must still win."""
        K, L = 14, 5
        rows, final = _full_rows(K, L, 100)
        for (t, h), cost in {
            (1, 3): 3, (3, 9): 4, (9, 11): 2,
            (1, 5): 1, (5, 7): 6, (7, 11): 2,
            (11, 13): 5,
        }.items():
            rows[t][h - t - 2] = cost
        final[13] = 7
        nodes, scored = (1, 3, 9, 11, 13, 15), count_solutions(K, L)
        assert reference_walk_compositions(rows, final, K, L) == (nodes, 21, scored)
        assert _walk_compositions(rows, final, K, L) == (nodes, scored)

    def test_matches_the_per_prefix_walk_at_deep_L(self):
        """320 seeded tables, random and tie-heavy, L from 7 to 10 and K
        from 2L to 2L + 10: the same nodes, the same number of compositions
        scored. Groups with more prefixes than flat entries are common
        only at this depth."""
        rng = random.Random(1807)
        for case in range(320):
            L = case % 4 + 7
            K = rng.randint(2 * L, 2 * L + 10)
            if case % 2:
                pairs = random_pairs(rng, L, k_max=K, k_min=K)
            else:
                pairs = tie_heavy_pairs(rng, K)
            ft = table_from_pairs(pairs)
            table = cost_table(build_prefix_moments(ft), layer_bounds(K, L))
            ref_nodes, _, ref_scored = reference_walk_compositions(
                *units_table(table), K, L
            )
            walked = _walk_compositions(*_exact_units(*table), K, L)
            assert walked == (ref_nodes, ref_scored), (case, K, L)

    @pytest.mark.parametrize(
        "K,side",
        [
            pytest.param(20, "pass-per-prefix"),
            pytest.param(17, "pass-per-flat-entry"),
            pytest.param(18, "two-least-flat-entries"),
        ],
    )
    def test_tie_within_a_group_goes_to_the_smaller_nodes(self, K, side):
        """The prefixes (1, 5, 7, 11) and (1, 3, 9, 11) of the group of last
        node 11 tie, and both continue through 13 and 15 at the minimum.
        The group lists the prefixes through 7 before those through 9, so
        the lexicographically smaller (1, 3, 9, 11) comes later and must
        still win. The group holds 15 prefixes against 15 flat entries at
        K = 20 and 3 at K = 17, the two sides an earlier walk chose between.
        At K = 18 the continuation through 14 and 16 ties with that through
        13 and 15, later in the group's (i, j) order, so the first least
        flat entry must win as well."""
        L = 6
        rows, final = _full_rows(K, L, 100)
        for (t, h), cost in {
            (1, 3): 3, (3, 9): 4, (9, 11): 2,
            (1, 5): 1, (5, 7): 6, (7, 11): 2,
            (11, 13): 5, (13, 15): 5,
        }.items():
            rows[t][h - t - 2] = cost
        final[15] = 7
        if side == "two-least-flat-entries":
            rows[11][14 - 11 - 2], rows[14][16 - 14 - 2], final[16] = 5, 5, 7
        prefixes, flat_entries = count_solutions(10, 3), count_solutions(K - 10, 3)
        assert (prefixes <= flat_entries) == (side == "pass-per-prefix")
        nodes, scored = (1, 3, 9, 11, 13, 15, K + 1), count_solutions(K, L)
        assert reference_walk_compositions(rows, final, K, L) == (nodes, 26, scored)
        assert _walk_compositions(rows, final, K, L) == (nodes, scored)

    @pytest.mark.parametrize(
        "arcs,finals,nodes",
        [
            pytest.param(
                {(1, 3): 10, (3, 9): 20, (1, 5): 20, (5, 9): 10, (9, 11): 5},
                {11: 5},
                (1, 3, 9, 11, 15),
                id="two-prefixes-of-one-group",
            ),
            pytest.param(
                {(1, 3): 10, (3, 5): 20, (5, 7): 5, (5, 9): 5},
                {7: 5, 9: 5},
                (1, 3, 5, 7, 15),
                id="two-least-suffixes-of-one-group",
            ),
            pytest.param(
                {(1, 5): 10, (5, 7): 20, (7, 11): 5, (1, 3): 10, (3, 9): 20, (9, 11): 5},
                {11: 5},
                (1, 3, 9, 11, 15),
                id="two-groups",
            ),
        ],
    )
    def test_four_strata_ties_go_to_the_smaller_nodes(self, arcs, finals, nodes):
        """K = 14, L = 4, every arc 100 units but a few: two compositions
        tie at 40 units, every other one costs more. At L = 4 a group is
        the two-stratum prefixes ending at a, in ascending order of their
        middle node, and the last-two list of a. Within the group of 9,
        (1, 3, 9) comes before (1, 5, 9); within the group of 5, the split
        at 7 comes before that at 9; and the group of 7, holding
        (1, 5, 7, 11, 15), is scored before the group of 9, holding the
        smaller (1, 3, 9, 11, 15). The smaller composition must win each
        tie."""
        K, L = 14, 4
        rows, final = _full_rows(K, L, 100)
        for (t, h), cost in arcs.items():
            rows[t][h - t - 2] = cost
        for j, cost in finals.items():
            final[j] = cost
        scored = count_solutions(K, L)
        assert reference_walk_compositions(rows, final, K, L) == (nodes, 40, scored)
        assert _walk_compositions(rows, final, K, L) == (nodes, scored)

    @pytest.mark.parametrize("K,L", [(22, 7), (30, 9), (32, 8)])
    def test_every_composition_avoiding_one_arc_ties(self, K, L):
        """Every arc costs 100 units but 1 -> 3, at 200: every composition
        that does not start with that arc ties, in nearly every prefix of
        every group, and (1, 4, 6, ..., 2L, K + 1) wins. The reference walks
        the largest of these in about 0.2 s."""
        rows, final = _full_rows(K, L, 100)
        rows[1][0] = 200
        nodes, scored = (1, *range(4, 2 * L + 1, 2), K + 1), count_solutions(K, L)
        assert reference_walk_compositions(rows, final, K, L) == (nodes, 100 * L, scored)
        assert _walk_compositions(rows, final, K, L) == (nodes, scored)

    @pytest.mark.parametrize(
        "K,L,costs",
        [
            pytest.param(9, 3, (0.0, -0.0, 5e-324, 1e300, 9.9e299, 1.5e300), id="subnormal-and-1e300"),
            pytest.param(12, 4, (1e-10, 1e300, 0.0, 7e299, 3.0), id="too-wide-for-floats"),
            pytest.param(10, 2, (5e-324, 1e-320, 0.0, -0.0, 2.5e-323), id="subnormal-only"),
            pytest.param(13, 5, (0.0, -0.0, 0.1, 0.2, 0.3), id="plain"),
        ],
    )
    def test_exact_at_the_extremes(self, K, L, costs):
        """Costs cycling through zeros, the least subnormal and values near
        1e300: the nodes and composition count of the reference walk. A
        table holding the least subnormal takes 2^-1074 units."""
        rows, final = _full_rows(K, L, 0.0)
        cycle = iter(costs * (K * K))
        rows = [[next(cycle) for _ in row] for row in rows]
        final = [None if cost is None else next(cycle) for cost in final]
        units, final_units = _exact_units(rows, final)
        reference_units = units_table((rows, final))
        if 5e-324 in costs:
            assert units == reference_units[0]
        ref_nodes, _, ref_scored = reference_walk_compositions(*reference_units, K, L)
        assert _walk_compositions(units, final_units, K, L) == (ref_nodes, ref_scored)

    def test_total_past_the_float_range_raises(self):
        """y = -B, B, -B, B with B = sqrt(0.225 * max float): each of the
        two strata costs 0.9 * max float, so their total lies beyond the
        float range."""
        message = "^y values too large: a total cost overflows a float$"
        B = (0.225 * sys.float_info.max) ** 0.5
        ft = table_from_pairs([(float(x), B if x % 2 else -B) for x in range(4)])
        with pytest.raises(DataError, match=message):
            brute_force_solve(ft, ProblemSpec(L=2, n=1, N=4))

    def test_three_strata_memory(self):
        """At K = 400, L = 3 the walk holds the units table and the
        last-two lists, each about K^2/2 narrow integers; a group's suffix
        list is the last-two list of its node, not a copy. Its tracemalloc
        peak must stay below that of the per-prefix walk over 2^-1074 units
        on this input: 16,857,616 bytes on CPython 3.11."""
        rng = random.Random(400)
        ft = table_from_pairs(
            [(float(x), rng.lognormvariate(0.0, 1.0)) for x in range(400) for _ in range(2)]
        )
        spec = ProblemSpec(L=3, n=100, N=ft.N)
        tracemalloc.start()
        try:
            brute_force_solve(ft, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16_857_616

    def test_three_strata_memory_forms_each_suffix_list_when_read(self):
        """At L = 3 each last-two list is read by one group only, so it is
        formed when that group is scored, not all before the first group.
        Tracemalloc peaks on this input, CPython 3.11: 6,209,588 bytes;
        7,435,400 when every last-two list is held from the start."""
        rng = random.Random(400)
        ft = table_from_pairs(
            [(float(x), rng.lognormvariate(0.0, 1.0)) for x in range(400) for _ in range(2)]
        )
        spec = ProblemSpec(L=3, n=100, N=ft.N)
        tracemalloc.start()
        try:
            brute_force_solve(ft, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6_800_000

    def test_nine_strata_memory(self):
        """At K = 34, L = 9 (735,471 compositions) the walk holds integer
        prefix totals for one depth and one group, never every group or a
        node tuple per prefix. Tracemalloc peaks on CPython 3.11: 1,859,352
        bytes; 3,786,384 for the walk that listed every prefix as a tuple;
        4,241,348 when every group's totals are kept; 5,610,928 when each
        group also holds its prefixes' node tuples."""
        rng = random.Random(34)
        ft = table_from_pairs(
            [(float(x), rng.lognormvariate(0.0, 1.0)) for x in range(34) for _ in range(2)]
        )
        spec = ProblemSpec(L=9, n=20, N=ft.N)
        assert count_solutions(ft.K, spec.L) == 735_471
        tracemalloc.start()
        try:
            brute_force_solve(ft, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20
