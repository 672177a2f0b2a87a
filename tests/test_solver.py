"""Path solver and report translation tests."""

from __future__ import annotations

import math
import random
import re
import sys
import tracemalloc
from functools import partial

import pytest

import stratopt.graph
import stratopt.oracle
import stratopt.solver
from stratopt import (
    ConsistencyError,
    DataError,
    InfeasibleProblemError,
    InvalidSpecError,
    LayeredGraph,
    PathSolution,
    ProblemSpec,
    attach_costs,
    brute_force_solve,
    build_layered_graph,
    build_prefix_moments,
    path_to_solution,
    segment_stats,
    solve,
    solve_problem,
    unit_cost,
    variance_factor,
)
from stratopt.graph import cost_table, layer_bounds
from stratopt.moments import exact_cost_units
from stratopt.oracle import _exact_units
from stratopt.solver import _cheapest_path

from helpers import (
    desk_table,
    exact_brute_force_nodes,
    exact_dp_nodes,
    nodes_from_composition,
    random_composition,
    random_instance,
    random_pairs,
    reference_cheapest_path,
    skewed_table,
    table_from_pairs,
    tie_heavy_pairs,
    units_table,
    units_to_float,
)

# a pair of units at -B and B costs N_h * S2_h = 0.9 * sys.float_info.max
OVERFLOW_B = (0.225 * sys.float_info.max) ** 0.5
# C^2 is large enough for prefix differences of y^2 to lose every unit
CANCEL_C = (0.2 * sys.float_info.max) ** 0.5


@pytest.fixture(scope="module")
def desk():
    ft = desk_table()
    return ft, build_prefix_moments(ft)


class TestSolve:
    def test_worked_example_path(self, desk):
        """Splitting after value 4 costs 4 + 52 = 56, beating the only
        alternative at 76/3 + 37.5."""
        ft, pm = desk
        g = attach_costs(build_layered_graph(5, 2), pm)
        path = solve(g)
        assert path.nodes == (1, 3, 6)
        assert path.total_unit_cost == pytest.approx(56.0, rel=1e-12)

    def test_uncosted_graph_rejected(self, desk):
        with pytest.raises(ValueError):
            solve(build_layered_graph(5, 2))

    def test_constant_y_breaks_ties_lexicographically(self):
        """All arcs cost exactly zero, so the smallest node sequence wins."""
        ft = table_from_pairs([(x, 5.0) for x in range(1, 9)])
        g = attach_costs(build_layered_graph(8, 3), build_prefix_moments(ft))
        assert solve(g).nodes == (1, 3, 5, 9)

    def test_minimal_graph_unique_path(self):
        ft = table_from_pairs([(x, float(x)) for x in range(1, 7)])
        g = attach_costs(build_layered_graph(6, 3), build_prefix_moments(ft))
        assert solve(g).nodes == (1, 3, 5, 7)


def table_with_costs(K, L, cost):
    """A table laid out as cost_table lays out K groups and L strata, with
    cost(i, j) as the cost of every segment (i, j)."""
    ft = table_from_pairs((x, x) for x in range(K))
    rows, final = cost_table(build_prefix_moments(ft), layer_bounds(K, L))
    rows = [[cost(i, i + 2 + k) for k in range(len(row))] for i, row in enumerate(rows)]
    final = [None if c is None else cost(i, K + 1) for i, c in enumerate(final)]
    return rows, final


def assert_matches_unit_dp(K, L, table):
    bounds = layer_bounds(K, L)
    assert _cheapest_path(bounds, *table) == reference_cheapest_path(
        bounds, *units_table(table)
    )[0]


# costs that misorder or tie under float rounding, and subnormal costs
NEAR_TIE_COSTS = (0.0, 2**-54, 2**-53, 3 * 2**-54, 0.5, 0.5 + 2**-53, 1.0, 1.0 + 2**-52)
SUBNORMAL_COSTS = (0.0, 5e-324, 1e-323, 2**-1070, 2**-1022 - 2**-1074, 2**-1022, 1e-310)


class TestCertifiedPath:
    """The float dynamic program with its exact tie certificate must return
    the nodes of the dynamic program run wholly in exact units, and the
    reports carry its exact total rounded once."""

    @pytest.mark.parametrize("block", range(30))
    def test_matches_unit_dp(self, block):
        """1500 seeded instances, random and tie-heavy, K <= 60, through
        solve_problem and through solve on the costed graph: L 2-6 in
        blocks 0-19, L 2-12 in blocks 20-29."""
        for seed in range(50 * block, 50 * block + 50):
            rng = random.Random(606_000 + seed)
            L = rng.randint(2, 6 if block < 20 else 12)
            if seed % 2:
                ft = random_instance(rng, L, 60)
            else:
                ft = table_from_pairs(tie_heavy_pairs(rng, rng.randint(2 * L, 60)))
            bounds = layer_bounds(ft.K, L)
            pm = build_prefix_moments(ft)
            nodes, units = reference_cheapest_path(
                bounds, *units_table(cost_table(pm, bounds))
            )
            total = units_to_float(units).hex()
            sol = solve_problem(ft, ProblemSpec(L=L, n=max(1, ft.N // 4), N=ft.N))
            path = solve(attach_costs(build_layered_graph(ft.K, L), pm))
            assert (sol.nodes, sol.total_unit_cost.hex()) == (nodes, total)
            assert (path.nodes, path.total_unit_cost.hex()) == (nodes, total)

    @pytest.mark.parametrize(
        "K,L,costs,nodes",
        [
            # both chains cost exactly 1 + 2^-52; the second sums to 1.0
            pytest.param(
                7, 3,
                {(1, 3): 1.0 + 2**-52, (3, 5): 0.0, (5, 8): 0.0,
                 (1, 4): 2**-53, (4, 6): 2**-53, (6, 8): 1.0},
                (1, 3, 5, 8), id="tie-goes-to-the-leftmost",
            ),
            # 1 + 2^-52 exactly sums to 1.0; 1 + 3 * 2^-54 sums to 1 + 2^-52
            pytest.param(
                7, 3,
                {(1, 3): 2**-53, (3, 5): 2**-53, (5, 8): 1.0,
                 (1, 4): 1.0, (4, 6): 2**-53, (6, 8): 2**-54},
                (1, 4, 6, 8), id="strict-order-reversed",
            ),
            # four additions each lose 2^-53: a tie two ulps apart in floats
            pytest.param(
                11, 5,
                {(1, 3): 1.0 + 2**-51, (3, 5): 0.0, (5, 7): 0.0, (7, 9): 0.0, (9, 12): 0.0,
                 (1, 4): 2**-53, (4, 6): 2**-53, (6, 8): 2**-53, (8, 10): 2**-53,
                 (10, 12): 1.0},
                (1, 3, 5, 7, 9, 12), id="tie-after-four-roundings",
            ),
        ],
    )
    def test_float_rounding_misorders_the_exact_order(self, K, L, costs, nodes):
        """Two chains whose float sums order them otherwise than their exact
        sums; every other segment costs 10."""
        table = table_with_costs(K, L, lambda i, j: costs.get((i, j), 10.0))
        units = sum(exact_cost_units(costs[arc]) for arc in zip(nodes, nodes[1:]))
        assert solve(LayeredGraph(K, L, table)) == PathSolution(nodes, units_to_float(units))
        assert_matches_unit_dp(K, L, table)

    @pytest.mark.parametrize(
        "palette", [NEAR_TIE_COSTS, SUBNORMAL_COSTS], ids=["near-tie", "subnormal"]
    )
    @pytest.mark.parametrize("seed", range(10))
    def test_hand_built_tables(self, palette, seed):
        """Costs drawn from a few values that float sums tie or misorder,
        or from subnormals, where the bound's own product rounds."""
        rng = random.Random(616_000 + seed)
        for _ in range(20):
            L = rng.randint(2, 6)
            K = rng.randint(2 * L, 2 * L + 12)
            table = table_with_costs(K, L, lambda i, j: rng.choice(palette))
            assert_matches_unit_dp(K, L, table)

    @pytest.mark.parametrize("seed", range(5))
    def test_every_float_total_overflows(self, seed):
        """Finite costs whose every path total overflows to inf in floats:
        every head is resolved in exact units, and the total is refused."""
        rng = random.Random(626_000 + seed)
        L = rng.randint(3, 5)
        K = rng.randint(2 * L, 2 * L + 10)
        big = sys.float_info.max
        table = table_with_costs(K, L, lambda i, j: rng.uniform(0.6, 0.9) * big)
        assert_matches_unit_dp(K, L, table)
        with pytest.raises(DataError, match="y values too large"):
            solve(LayeredGraph(K, L, table))

    def test_exact_conversions_linear_in_K(self, monkeypatch):
        """On random data, only the chosen chains and the few heads the
        float totals cannot order are converted to exact units: at most
        (L + 1) * K conversions, against one per table entry (36,292 here)
        when the whole table is held in units."""
        calls = 0
        convert = exact_cost_units

        def counting(cost):
            nonlocal calls
            calls += 1
            return convert(cost)

        monkeypatch.setattr(stratopt.solver, "exact_cost_units", counting)
        rng = random.Random(272)
        ft = table_from_pairs(
            [(float(x), rng.lognormvariate(0.0, 1.0)) for x in range(272) for _ in range(3)]
        )
        spec = ProblemSpec(L=5, n=100, N=ft.N)
        sol = solve_problem(ft, spec)
        assert calls <= (spec.L + 1) * ft.K
        monkeypatch.undo()
        bounds = layer_bounds(ft.K, spec.L)
        table = cost_table(build_prefix_moments(ft), bounds)
        assert sol.nodes == reference_cheapest_path(bounds, *units_table(table))[0]

    def test_certifies_only_the_rows_the_path_needs(self, monkeypatch):
        """On random data the tie certificate (one math.nextafter per
        certified row) runs on the few rows the answer path can pass
        through, not on every (layer, tail): at most 2L rows, against 790
        (layer, tail) pairs on this table. test_exact_conversions_linear_in_K
        checks the nodes on the same table."""
        calls = 0
        nextafter = math.nextafter

        def counting(x, y):
            nonlocal calls
            calls += 1
            return nextafter(x, y)

        rng = random.Random(272)
        ft = table_from_pairs(
            [(float(x), rng.lognormvariate(0.0, 1.0)) for x in range(272) for _ in range(3)]
        )
        spec = ProblemSpec(L=5, n=100, N=ft.N)
        monkeypatch.setattr(math, "nextafter", counting)
        solve_problem(ft, spec)
        monkeypatch.undo()
        assert 1 <= calls <= 2 * spec.L

    def test_resolution_depth_does_not_grow_with_L(self):
        """L = 700 strata over equally spaced x with y = x, where many heads
        tie: resolving them in exact units stays iterative, so no
        RecursionError, and the nodes are the unit dynamic program's."""
        L = 700
        K = 2 * L + 10
        ft = table_from_pairs([(float(x), float(x)) for x in range(K) for _ in range(2)])
        sol = solve_problem(ft, ProblemSpec(L=L, n=L, N=ft.N))
        bounds = layer_bounds(K, L)
        table = cost_table(build_prefix_moments(ft), bounds)
        assert sol.nodes == reference_cheapest_path(bounds, *units_table(table))[0]

    def test_memory_of_a_float_table(self):
        """K = 1000, L = 5: about 0.5 million table entries. As floats they
        peak near 16 MB traced; held as ~1100-bit integer units they took
        over 80 MB."""
        rng = random.Random(1000)
        ft = table_from_pairs(
            [(float(x), rng.lognormvariate(0.0, 1.0)) for x in range(1000) for _ in range(2)]
        )
        spec = ProblemSpec(L=5, n=100, N=ft.N)
        tracemalloc.start()
        try:
            sol = solve_problem(ft, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20
        assert sol.nodes == (1, 411, 413, 555, 558, 1001)


class TestTableHandOff:
    """solve_problem keeps the cost table it built for a check of the same
    problem, and no more than that one table."""

    @pytest.mark.parametrize("ties", [False, True], ids=["random", "ties"])
    @pytest.mark.parametrize("L", range(1, 7))
    def test_solve_keeps_its_table_unmutated(self, L, ties):
        """The kept rows and final equal a fresh cost_table entry for entry,
        bit for bit: _cheapest_path only reads its rows, so the check scores
        the table as costed, not as the dynamic program left it."""
        rng = random.Random(f"{L}:{ties}")
        if ties:
            ft = table_from_pairs(tie_heavy_pairs(rng, 2 * L + 12))
        else:
            ft = random_instance(rng, L, k_max=2 * L + 12, k_min=2 * L + 12)
        solve_problem(ft, ProblemSpec(L=L, n=L, N=ft.N))
        [kept] = stratopt.solver._kept
        pm, (rows, final) = kept.pm, kept.table
        assert pm == build_prefix_moments(ft)
        fresh_rows, fresh_final = cost_table(pm, layer_bounds(ft.K, L))

        def bits(costs):
            return [None if cost is None else cost.hex() for cost in costs]

        assert list(map(bits, rows)) == list(map(bits, fresh_rows))
        assert bits(final) == bits(fresh_final)

    def test_kept_table_goes_before_the_next_is_costed(self):
        """Solving A then B, same K and L, peaks under 1.5 times solving B
        alone: A's table is dropped before B's is built, where holding both
        would come near twice B's peak."""
        rng = random.Random(400)

        def table():
            return table_from_pairs(
                [(float(x), rng.lognormvariate(0.0, 1.0)) for x in range(400) for _ in range(2)]
            )

        first, second = table(), table()
        spec = ProblemSpec(L=3, n=100, N=second.N)

        def peak(*tables):
            stratopt.solver._kept.clear()
            tracemalloc.start()
            try:
                for ft in tables:
                    solve_problem(ft, spec)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                stratopt.solver._kept.clear()

        alone = peak(second)
        assert peak(first, second) < 1.5 * alone

    def test_a_solve_keeps_its_table(self, desk):
        """With the next test, checks that every test starts with nothing
        kept, whatever the test before it solved."""
        ft, _ = desk
        solve_problem(ft, ProblemSpec(L=2, n=3, N=9))
        assert stratopt.solver._kept

    def test_the_next_test_starts_with_nothing_kept(self):
        assert not stratopt.solver._kept


class TestPathToSolution:
    def test_worked_example_report(self, desk):
        ft, pm = desk
        spec = ProblemSpec(L=2, n=3, N=9)
        path = PathSolution((1, 3, 6), 56.0)
        sol = path_to_solution(path, pm, ft, spec)
        assert sol.boundaries == (4.0,)
        assert tuple(r.size for r in sol.strata) == (3, 6)
        assert tuple(r.sample_size for r in sol.strata) == (1, 2)
        assert tuple(r.sample_fraction for r in sol.strata) == (1.0, 2.0)
        assert sol.strata[0].variance == pytest.approx(4 / 3, rel=1e-12)
        assert sol.strata[1].variance == pytest.approx(26 / 3, rel=1e-12)
        assert sol.strata[0].y_total == pytest.approx(10.0, rel=1e-12)
        assert sol.strata[1].y_total == pytest.approx(68.0, rel=1e-12)
        assert sol.total_unit_cost == pytest.approx(56.0, rel=1e-12)
        assert sol.variance == pytest.approx(112.0, rel=1e-12)
        assert sol.cv == pytest.approx(100.0 * math.sqrt(sol.variance) / 78.0, rel=1e-12)
        assert round(sol.cv, 2) == 13.57
        assert sol.N == 9
        assert sol.K == 5

    def test_variance_equals_factor_times_unit_cost(self, desk):
        ft, pm = desk
        spec = ProblemSpec(L=2, n=3, N=9)
        sol = path_to_solution(PathSolution((1, 3, 6), 56.0), pm, ft, spec)
        assert sol.variance == variance_factor(spec) * sol.total_unit_cost

    def test_forced_alternative_path(self, desk):
        """Splitting after value 8 instead gives strata of 4 and 5 units and
        a worse variance of 2 * (76/3 + 37.5)."""
        ft, pm = desk
        spec = ProblemSpec(L=2, n=3, N=9)
        cost = unit_cost(segment_stats(pm, 1, 4)) + unit_cost(segment_stats(pm, 4, 6))
        sol = path_to_solution(PathSolution((1, 4, 6), cost), pm, ft, spec)
        assert sol.boundaries == (8.0,)
        assert tuple(r.size for r in sol.strata) == (4, 5)
        assert sol.variance == pytest.approx(2 * (76 / 3 + 37.5), rel=1e-12)

    def test_census_variance_and_cv_are_zero(self, desk):
        ft, pm = desk
        spec = ProblemSpec(L=2, n=9, N=9)
        sol = path_to_solution(PathSolution((1, 3, 6), 56.0), pm, ft, spec)
        assert sol.variance == 0.0
        assert sol.cv == 0.0

    def test_path_must_span_all_groups(self, desk):
        ft, pm = desk
        spec = ProblemSpec(L=2, n=3, N=9)
        with pytest.raises(ValueError):
            path_to_solution(PathSolution((1, 3, 5), 0.0), pm, ft, spec)

    @pytest.mark.parametrize("nodes", [(), (1,)], ids=["empty", "source-only"])
    def test_path_of_no_arc_is_refused(self, desk, nodes):
        """A path with no arc spans no group: a ValueError names it, not an
        IndexError from reading its first node."""
        ft, pm = desk
        spec = ProblemSpec(L=2, n=3, N=9)
        message = rf"^path {re.escape(str(nodes))} does not span groups 1\.\.5$"
        with pytest.raises(ValueError, match=message):
            path_to_solution(PathSolution(nodes, 0.0), pm, ft, spec)

    @pytest.mark.parametrize(
        "nodes,stratum",
        [
            pytest.param((1, 2, 6), "stratum 1 runs from node 1 to node 2", id="first"),
            pytest.param((1, 3, 4, 6), "stratum 2 runs from node 3 to node 4", id="middle"),
        ],
    )
    def test_stratum_of_one_group_is_rejected(self, nodes, stratum):
        """No arc of the graph spans a single group, so no path with such a
        stratum is reported, even where each group holds two units."""
        ft = table_from_pairs((x, x) for x in (1, 1, 2, 2, 3, 3, 4, 4, 5, 5))
        pm = build_prefix_moments(ft)
        spec = ProblemSpec(L=len(nodes) - 1, n=4, N=10)
        with pytest.raises(ValueError, match=f"^{stratum}; a stratum spans at least two groups$"):
            path_to_solution(PathSolution(nodes, 0.0), pm, ft, spec)

    def test_arc_count_must_match_spec(self, desk):
        ft, pm = desk
        spec = ProblemSpec(L=3, n=3, N=9)
        with pytest.raises(ValueError):
            path_to_solution(PathSolution((1, 3, 6), 56.0), pm, ft, spec)

    def test_population_size_must_match_spec(self, desk):
        ft, pm = desk
        spec = ProblemSpec(L=2, n=3, N=10)
        with pytest.raises(InvalidSpecError, match=r"^stratum sizes sum to 9, expected N=10$"):
            path_to_solution(PathSolution((1, 3, 6), 56.0), pm, ft, spec)

    @pytest.mark.parametrize(
        "field,tamper,match",
        [
            pytest.param("cum_y2", 500.0, "cost mismatch", id="cum_y2"),
            pytest.param("cum_count", 1, "unit counts disagree", id="cum_count"),
        ],
    )
    def test_self_check_catches_corrupted_moments(self, desk, field, tamper, match):
        """Tampering with one cumulative square, or one cumulative count,
        must trip the independent recomputation."""
        ft, pm = desk
        column = getattr(pm, field)
        corrupted = pm._replace(
            **{field: column[:2] + (column[2] + tamper,) + column[3:]}
        )
        spec = ProblemSpec(L=2, n=3, N=9)
        with pytest.raises(ConsistencyError, match=match):
            path_to_solution(PathSolution((1, 3, 6), 56.0), corrupted, ft, spec)

    def test_elapsed_is_zero_without_a_search(self, desk):
        """path_to_solution times no search, so its elapsed is 0.0."""
        ft, pm = desk
        spec = ProblemSpec(L=2, n=3, N=9)
        assert path_to_solution(PathSolution((1, 3, 6), 56.0), pm, ft, spec).elapsed == 0.0

    def test_path_total_beyond_float_range_is_a_data_error(self):
        """Each stratum (-B, B) costs 0.9 * sys.float_info.max; the two
        summed overflow a float."""
        ft = table_from_pairs(zip(range(1, 5), (-OVERFLOW_B, OVERFLOW_B) * 2))
        pm = build_prefix_moments(ft)
        spec = ProblemSpec(L=2, n=2, N=4)
        with pytest.raises(DataError, match="y values too large: a total cost"):
            path_to_solution(PathSolution((1, 3, 5), 0.0), pm, ft, spec)


class TestSolveProblem:
    def test_worked_example_end_to_end(self):
        ft = desk_table()
        sol = solve_problem(ft, ProblemSpec(L=2, n=3, N=9))
        assert sol.nodes == (1, 3, 6)
        assert sol.boundaries == (4.0,)
        assert tuple(r.size for r in sol.strata) == (3, 6)
        assert sol.variance == pytest.approx(112.0, rel=1e-12)
        assert 0.0 <= sol.elapsed < 60.0

    def test_single_stratum(self):
        """L=1 skips the graph: variance is 2 * 9 * 21.75 = 391.5."""
        ft = desk_table()
        sol = solve_problem(ft, ProblemSpec(L=1, n=3, N=9))
        assert sol.nodes == (1, 6)
        assert sol.boundaries == ()
        assert tuple(r.size for r in sol.strata) == (9,)
        assert tuple(r.sample_size for r in sol.strata) == (3,)
        assert sol.variance == pytest.approx(391.5, rel=1e-12)

    def test_single_stratum_census(self):
        ft = desk_table()
        sol = solve_problem(ft, ProblemSpec(L=1, n=9, N=9))
        assert sol.variance == 0.0
        assert sol.cv == 0.0

    def test_too_few_distinct_values_rejected(self):
        ft = desk_table()
        with pytest.raises(InfeasibleProblemError):
            solve_problem(ft, ProblemSpec(L=3, n=3, N=9))

    def test_single_distinct_value_rejected_even_for_one_stratum(self):
        ft = table_from_pairs([(7.0, 7.0)] * 3)
        with pytest.raises(InfeasibleProblemError):
            solve_problem(ft, ProblemSpec(L=1, n=1, N=3))

    def test_population_size_mismatch_rejected(self):
        ft = desk_table()
        with pytest.raises(InvalidSpecError):
            solve_problem(ft, ProblemSpec(L=2, n=3, N=10))

    @pytest.mark.parametrize(
        "search", [solve_problem, partial(brute_force_solve, cap=0)], ids=["solver", "oracle"]
    )
    def test_spec_is_checked_against_its_table_before_any_work(self, monkeypatch, search):
        """Both searches reject a spec that does not fit its table before
        any prefix moments or cost table exist, the oracle before its cap
        too; K < 2L is reported before a mismatched N."""

        def no_work(*args):
            raise AssertionError("work started before the spec was checked")

        # check_problem builds the prefix moments of both searches
        monkeypatch.setattr(stratopt.solver, "build_prefix_moments", no_work)
        for module in (stratopt.solver, stratopt.oracle):
            monkeypatch.setattr(module, "cost_table", no_work)
        ft = desk_table()
        with pytest.raises(InvalidSpecError, match=r"^spec N=10 does not match table N=9$"):
            search(ft, ProblemSpec(L=2, n=3, N=10))
        with pytest.raises(InfeasibleProblemError):
            search(ft, ProblemSpec(L=3, n=3, N=10))

    @pytest.mark.parametrize("strata,nodes", [(2, (1, 9, 11)), (3, (1, 7, 9, 11))])
    def test_cancelled_sum_of_squares_is_not_a_consistency_error(self, strata, nodes):
        """Groups 1 and 2 hold -C and C with C^2 = 0.2 * sys.float_info.max,
        and eight 1.0 follow. Prefix differences over the 1.0 groups cancel to
        a sum of squares below zero; the cost is clamped to 0 and the answer
        is the exact optimum of the input floats."""
        pairs = list(zip(range(1, 11), (-CANCEL_C, CANCEL_C) + (1.0,) * 8))
        ft = table_from_pairs(pairs)
        spec = ProblemSpec(L=strata, n=5, N=10)
        sol = solve_problem(ft, spec)
        assert sol.nodes == nodes
        assert brute_force_solve(ft, spec).nodes == nodes
        assert exact_brute_force_nodes(pairs, strata) == nodes

    @pytest.mark.parametrize(
        "seed,strata,k_min,k_max",
        [pytest.param(1_000 + seed, (2, 3, 4), 0, 25, id=str(seed)) for seed in range(30)]
        + [pytest.param(101_000 + seed, (2, 3), 40, 200, id=f"K40-200-{seed}") for seed in range(8)],
    )
    def test_matches_exhaustive_oracle(self, seed, strata, k_min, k_max):
        """Same boundaries and variance (1e-9 relative) as scoring every
        feasible split. K up to 200 at L <= 3 checks the cost table far past
        the small cases while the enumeration stays cheap."""
        rng = random.Random(seed)
        L = rng.choice(strata)
        ft = random_instance(rng, L, k_max, k_min)
        n = max(1, ft.N // 5)
        spec = ProblemSpec(L=L, n=n, N=ft.N)
        fast = solve_problem(ft, spec)
        slow = brute_force_solve(ft, spec)
        assert fast.boundaries == slow.boundaries
        assert fast.nodes == slow.nodes
        assert fast.variance == pytest.approx(slow.variance, rel=1e-9)
        assert sum(r.size for r in fast.strata) == ft.N

    # the trailing seeds reproduce cases where float summation used to make
    # the dynamic program and the enumeration break an exact tie differently
    @pytest.mark.parametrize(
        "seed,strata,k_min,k_max",
        [
            pytest.param(42_000 + seed, (2, 3, 4), 0, 12, id=str(seed))
            for seed in (*range(40), 121, 905, 2466, 2507, 3408, 4432, 4851)
        ]
        + [pytest.param(142_000 + seed, (2, 3), 40, 200, id=f"K40-200-{seed}") for seed in range(8)],
    )
    def test_matches_oracle_on_tie_heavy_data(self, seed, strata, k_min, k_max):
        """y drawn from {1, 2} makes many splits share a cost exactly; both
        routes must still land on the identical node sequence. Guards the
        exact-integer cost accumulation: with plain float sums the dynamic
        program and the enumeration can break such ties differently."""
        rng = random.Random(seed)
        L = rng.choice(strata)
        K = rng.randint(max(2 * L, k_min), k_max)
        ft = table_from_pairs(tie_heavy_pairs(rng, K))
        spec = ProblemSpec(L=L, n=max(1, ft.N // 3), N=ft.N)
        fast = solve_problem(ft, spec)
        slow = brute_force_solve(ft, spec)
        assert fast.nodes == slow.nodes
        assert fast.variance == slow.variance

    def test_never_builds_the_graph(self, monkeypatch):
        """The layered graph is an inspection view: solve_problem reaches the
        acceptance answer with the graph functions replaced by ones that
        raise, and agrees with the graph route."""
        ft = skewed_table(n_units=900, k_distinct=272)
        spec = ProblemSpec(L=5, n=100, N=900)
        pm = build_prefix_moments(ft)
        via_graph = solve(attach_costs(build_layered_graph(ft.K, spec.L), pm))

        def unavailable(*args):
            raise AssertionError("solve_problem built the layered graph")

        for module in (stratopt.graph, stratopt.solver):
            for name in ("build_layered_graph", "attach_costs"):
                monkeypatch.setattr(module, name, unavailable, raising=False)
        sol = solve_problem(ft, spec)
        assert sol.nodes == via_graph.nodes == (1, 38, 83, 132, 196, 273)

    def test_two_strata_memory_linear_in_K(self):
        """At L = 2 there are 2(K - 3) arcs, so the cost table must stay
        linear in K: padding each last-layer row out to its head K+1 would
        take over 30 MB at K = 3000."""
        rng = random.Random(3000)
        ft = table_from_pairs(
            [(float(x), rng.lognormvariate(0.0, 1.0)) for x in range(3000) for _ in range(2)]
        )
        spec = ProblemSpec(L=2, n=100, N=ft.N)
        tracemalloc.start()
        try:
            sol = solve_problem(ft, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        assert sol.nodes == brute_force_solve(ft, spec).nodes

    @pytest.mark.parametrize("seed", range(5))
    def test_beats_random_feasible_splits(self, seed):
        rng = random.Random(7_000 + seed)
        L = rng.choice([2, 3, 4])
        pairs = random_pairs(rng, L)
        ft = table_from_pairs(pairs)
        spec = ProblemSpec(L=L, n=max(1, ft.N // 4), N=ft.N)
        best = solve_problem(ft, spec)
        pm = build_prefix_moments(ft)
        for _ in range(200):
            widths = random_composition(rng, ft.K, L)
            nodes = nodes_from_composition(widths)
            cost = sum(
                unit_cost(segment_stats(pm, i, j)) for i, j in zip(nodes, nodes[1:])
            )
            variance = variance_factor(spec) * cost
            assert best.variance <= variance * (1.0 + 1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_scaling_y_by_two_scales_variance_by_four(self, seed):
        rng = random.Random(3_000 + seed)
        L = rng.choice([2, 3])
        pairs = random_pairs(rng, L)
        scaled = [(x, 2.0 * y) for x, y in pairs]
        spec = ProblemSpec(L=L, n=5, N=len(pairs))
        base = solve_problem(table_from_pairs(pairs), spec)
        double = solve_problem(table_from_pairs(scaled), spec)
        assert double.nodes == base.nodes
        assert double.variance == 4.0 * base.variance

    @pytest.mark.parametrize("seed", range(5))
    def test_scaling_y_generally(self, seed):
        rng = random.Random(4_000 + seed)
        factor = 3.7
        L = rng.choice([2, 3])
        pairs = random_pairs(rng, L)
        scaled = [(x, factor * y) for x, y in pairs]
        spec = ProblemSpec(L=L, n=5, N=len(pairs))
        base = solve_problem(table_from_pairs(pairs), spec)
        stretched = solve_problem(table_from_pairs(scaled), spec)
        assert stretched.nodes == base.nodes
        assert stretched.variance == pytest.approx(
            factor * factor * base.variance, rel=1e-9
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_translating_y_changes_nothing(self, seed):
        rng = random.Random(5_000 + seed)
        L = rng.choice([2, 3])
        pairs = random_pairs(rng, L)
        shifted = [(x, y + 250.0) for x, y in pairs]
        spec = ProblemSpec(L=L, n=5, N=len(pairs))
        base = solve_problem(table_from_pairs(pairs), spec)
        moved = solve_problem(table_from_pairs(shifted), spec)
        assert moved.nodes == base.nodes
        assert moved.variance == pytest.approx(base.variance, rel=1e-6)

    @pytest.mark.parametrize(
        "shift",
        [
            0.0,
            pytest.param(
                1e10,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="float prefix moments cancel under a large shift "
                    "of y (ROADMAP: exact moments)",
                ),
            ),
        ],
    )
    def test_shifted_y_matches_exact_brute_force(self, shift):
        """Thirty small instances, each with y shifted by the same constant,
        must give the node sequence that scoring every composition in exact
        rationals gives. Unshifted they all do; shifted by 1e10 they all
        exit 0 with other nodes, as the float costs lose the spread of y
        under the shift."""
        rng = random.Random(12)
        wrong = []
        for _ in range(30):
            L = rng.randint(2, 3)
            K = rng.randint(8, 14)
            pairs = [
                (x, y + shift) for x, y in random_pairs(rng, L, k_max=K, k_min=K)
            ]
            ft = table_from_pairs(pairs)
            nodes = solve_problem(ft, ProblemSpec(L=L, n=2, N=ft.N)).nodes
            if nodes != exact_brute_force_nodes(pairs, L):
                wrong.append((K, L, nodes))
        assert wrong == []

    @pytest.mark.parametrize("e", [-500, -300, 300, 450])
    def test_power_of_two_scaling_of_y_is_exact(self, e):
        """Scaling y by 2^e scales every float in the cost route by 2^(2e)
        exactly while it stays in the normal range, so 300 instances give
        the unscaled nodes and CV, and a total and variance of exactly 2^(2e)
        times the unscaled ones."""
        rng = random.Random(9)
        mismatched = []
        for _ in range(300):
            K = rng.randint(4, 40)
            L = rng.randint(1, min(6, K // 2))
            pairs = [
                (x, rng.lognormvariate(4.0, 0.75))
                for x in range(K)
                for _ in range(rng.randint(1, 3))
            ]
            spec = ProblemSpec(L=L, n=max(1, len(pairs) // 4), N=len(pairs))
            base = solve_problem(table_from_pairs(pairs), spec)
            scaled = solve_problem(
                table_from_pairs((x, math.ldexp(y, e)) for x, y in pairs), spec
            )
            if (
                scaled.nodes != base.nodes
                or scaled.cv != base.cv
                or scaled.total_unit_cost != math.ldexp(base.total_unit_cost, 2 * e)
                or scaled.variance != math.ldexp(base.variance, 2 * e)
            ):
                mismatched.append((K, L, base.nodes, scaled.nodes))
        assert mismatched == []

    @pytest.mark.parametrize("scale", [1e-160, 1e-162])
    def test_subnormal_squares_pass_the_self_check(self, scale):
        """At y ~ 1e-160 every y^2 falls below 2^-1022, where products and
        quotients round to absolute steps of 2^-1074 that no relative
        tolerance covers. 400 such inputs solve without a consistency
        error. Their least positive costs are too small for the oracle's
        narrow units, so it scores every table in 2^-1074 units, and finds
        the solver's nodes and total."""
        rng = random.Random(5)
        failed = []
        for _ in range(400):
            K = rng.randint(4, 12)
            pairs = [
                (x, rng.lognormvariate(4.0, 0.75) * scale)
                for x in range(K)
                for _ in range(rng.randint(1, 3))
            ]
            L = rng.randint(1, K // 2)
            ft = table_from_pairs(pairs)
            spec = ProblemSpec(L=L, n=1, N=ft.N)
            try:
                solved = solve_problem(ft, spec)
                checked = brute_force_solve(ft, spec)
            except ConsistencyError as exc:
                failed.append(str(exc))
                continue
            table = cost_table(build_prefix_moments(ft), layer_bounds(ft.K, L))
            if (
                _exact_units(*table)[0] != units_table(table)[0]
                or checked.nodes != solved.nodes
                or checked.total_unit_cost != solved.total_unit_cost
            ):
                failed.append((K, L, solved.nodes, checked.nodes))
        assert failed == []

    def test_boundaries_are_interior_distinct_values(self):
        rng = random.Random(99)
        ft = random_instance(rng, 3)
        sol = solve_problem(ft, ProblemSpec(L=3, n=10, N=ft.N))
        assert len(sol.boundaries) == 2
        assert list(sol.boundaries) == sorted(sol.boundaries)
        assert set(sol.boundaries) <= set(ft.q)
        assert sol.boundaries[-1] < ft.q[-1]


class TestExactDP:
    """helpers.exact_dp_nodes, the reference dynamic program in exact
    rationals from the unit floats, against the exhaustive exact scorer and
    against the solver where float costs are known to be exact enough."""

    @pytest.mark.parametrize("kind", ["lognormal", "tie-heavy", "shifted-1e10"])
    def test_matches_exact_brute_force(self, kind):
        """70 seeded tables per kind, L 1-4, K <= 12. Tie-heavy tables make
        exact ties, which both break toward the smallest node sequence; a
        shift of y by 1e10 is where float prefix moments cancel."""
        rng = random.Random(f"exact-dp:{kind}")
        wrong = []
        for _ in range(70):
            L = rng.randint(1, 4)
            if kind == "tie-heavy":
                pairs = tie_heavy_pairs(rng, rng.randint(2 * L, 12))
            else:
                pairs = random_pairs(rng, L, k_max=12)
            if kind == "shifted-1e10":
                pairs = [(x, y + 1e10) for x, y in pairs]
            nodes = exact_dp_nodes(pairs, L)
            if nodes != exact_brute_force_nodes(pairs, L):
                wrong.append((L, pairs, nodes))
        assert wrong == []

    def test_solver_is_exactly_optimal_on_the_acceptance_instance(self):
        """K = 272, L = 5, y = x: the solver's nodes are the exactly
        cheapest and smallest. The pairs are rebuilt from the table, each x
        once per unit, as y = x leaves nothing else in them."""
        ft = skewed_table(n_units=900, k_distinct=272)
        pairs = [(x, x) for x, count in zip(ft.q, ft.count) for _ in range(count)]
        nodes = solve_problem(ft, ProblemSpec(L=5, n=100, N=900)).nodes
        assert exact_dp_nodes(pairs, 5) == nodes == (1, 38, 83, 132, 196, 273)
