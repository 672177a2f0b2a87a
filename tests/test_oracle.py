"""Counting, enumeration, and exhaustive-search tests."""

from __future__ import annotations

import math
import random
import sys
import traceback
import tracemalloc
from functools import cache

import pytest

import stratopt.graph
import stratopt.oracle
import stratopt.solver
from stratopt import (
    ConsistencyError,
    DataError,
    InfeasibleProblemError,
    InvalidSpecError,
    OracleTooLargeError,
    ProblemSpec,
    attach_costs,
    brute_force_solve,
    build_frequency_table,
    build_layered_graph,
    build_prefix_moments,
    count_solutions,
    solve_problem,
)
from stratopt.graph import cost_table, layer_bounds
from stratopt.oracle import _exact_units, _lists, _priced, _walk_compositions

from helpers import (
    desk_table,
    enumerate_compositions,
    nodes_from_composition,
    population_from_pairs,
    random_instance,
    random_pairs,
    reference_brute_force_solve,
    reference_variance,
    reference_walk_compositions,
    table_from_pairs,
    tie_heavy_pairs,
    units_table,
)


# the per-composition reference corpus: (L, K, data), K None for a K drawn
# from the case's own seed
PER_COMPOSITION_CASES = [
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
]


def per_composition_problem(L, K, data):
    """The table and spec of one case of PER_COMPOSITION_CASES."""
    rng = random.Random(f"{L}:{K}:{data}")
    if K is None:
        K = rng.randint(2 * L + 2, 23)
    if data == "random":
        pairs = random_pairs(rng, L, k_max=K, k_min=K)
    else:
        pairs = tie_heavy_pairs(rng, K)
    ft = table_from_pairs(pairs)
    assert ft.K == K
    return ft, ProblemSpec(L=L, n=max(1, ft.N // 3), N=ft.N)


def count_cost_rows(monkeypatch) -> list[int]:
    """The tails of the cost-table rows costed from now on, in the order
    they are handed to the row kernel."""
    calls = []
    cost_rows = stratopt.graph._cost_rows

    def counting(prefix, tails, stops, last):
        calls.extend(tails)
        return cost_rows(prefix, tails, stops, last)

    monkeypatch.setattr(stratopt.graph, "_cost_rows", counting)
    return calls


def table_tails(rows, final) -> list[int]:
    """The tails that hold a row of a cost table, in ascending order."""
    return [i for i in range(len(rows)) if rows[i] or final[i] is not None]


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
        assert 0.0 < sol.elapsed < 60.0

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

    @pytest.mark.parametrize("side", [False, True], ids=["prefix", "suffix"])
    def test_scored_counts_the_lists_formed(self, monkeypatch, side):
        """scored is counted from the lists the walk forms, not from their
        sizes in closed form: one total dropped from one prefix list, or
        from one suffix list, leaves compositions unscored."""
        lists = stratopt.oracle._lists
        dropped = []

        def dropping(rows, d, below, nodes, suffix=False):
            for totals in lists(rows, d, below, nodes, suffix):
                if suffix == side and not dropped and len(totals) > 1:
                    dropped.append(totals.pop())
                yield totals

        monkeypatch.setattr(stratopt.oracle, "_lists", dropping)
        ft = random_instance(random.Random(5), 5, k_max=16, k_min=16)
        with pytest.raises(ConsistencyError, match="scored"):
            brute_force_solve(ft, ProblemSpec(L=5, n=5, N=ft.N))
        assert dropped

    @pytest.mark.parametrize("L,K,data", PER_COMPOSITION_CASES)
    def test_matches_per_composition_reference(self, L, K, data):
        """Identical nodes, unit cost and variance to scoring each
        composition on its own, segment by segment; K = 2L and L <= 2 start
        the walk at the last-two-strata pass. This is what checks the cost
        table's row layout, which the oracle shares with the solver."""
        ft, spec = per_composition_problem(L, K, data)
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
        tails = table_tails(rows, final)
        calls = count_cost_rows(monkeypatch)
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


class TestTableHandOff:
    """A check right after a solve of the same problem takes the cost table
    that solve kept; every other check costs its own."""

    @staticmethod
    def problem(seed: int = 40):
        ft = random_instance(random.Random(seed), 3, k_max=40, k_min=40)
        return ft, ProblemSpec(L=3, n=10, N=ft.N)

    @pytest.mark.parametrize(
        "before",
        ["solve", "solve-other-moments", "solve-other-L", "attach-costs", "second-check"],
    )
    def test_rows_a_check_costs(self, monkeypatch, before):
        """Right after a solve of its problem the check costs no row. After
        a solve of other moments or of another L, after attach_costs alone,
        and after a check that took the table, it costs every row itself,
        each once."""
        ft, spec = self.problem()
        pm = build_prefix_moments(ft)
        tails = table_tails(*cost_table(pm, layer_bounds(ft.K, spec.L)))
        if before == "solve-other-moments":
            other, other_spec = self.problem(seed=41)
            assert other.K == ft.K and build_prefix_moments(other) != pm
            solve_problem(other, other_spec)
        elif before == "solve-other-L":
            solve_problem(ft, ProblemSpec(L=4, n=10, N=ft.N))
        elif before == "attach-costs":
            attach_costs(build_layered_graph(ft.K, spec.L), pm)
        else:
            solved = solve_problem(ft, spec)
            if before == "second-check":
                brute_force_solve(ft, spec)
        calls = count_cost_rows(monkeypatch)
        checked = brute_force_solve(ft, spec)
        assert calls == ([] if before == "solve" else tails)
        if before == "solve":
            assert checked.nodes == solved.nodes
            assert checked.total_unit_cost == solved.total_unit_cost

    @pytest.mark.parametrize("L,K,data", PER_COMPOSITION_CASES)
    def test_check_after_its_solve_matches_the_check_alone(self, monkeypatch, L, K, data):
        ft, spec = per_composition_problem(L, K, data)
        alone = brute_force_solve(ft, spec)
        solve_problem(ft, spec)
        calls = count_cost_rows(monkeypatch)
        after = brute_force_solve(ft, spec)
        assert calls == []
        assert after.nodes == alone.nodes
        assert after.total_unit_cost == alone.total_unit_cost
        assert after.variance == alone.variance

    @pytest.mark.parametrize("outcome", ["taken", "built", "refused", "rejected"])
    def test_no_table_stays_kept_after_a_check(self, outcome):
        """Whether the check takes the kept table, costs its own, refuses
        over its cap or rejects its spec, it leaves no table kept."""
        ft, spec = self.problem()
        solve_problem(*self.problem(seed=41 if outcome == "built" else 40))
        assert stratopt.solver._kept
        if outcome == "refused":
            with pytest.raises(OracleTooLargeError):
                brute_force_solve(ft, spec, cap=0)
        elif outcome == "rejected":
            with pytest.raises(InvalidSpecError):
                brute_force_solve(ft, ProblemSpec(L=3, n=10, N=ft.N + 1))
        else:
            brute_force_solve(ft, spec)
        assert not stratopt.solver._kept


def count_calls(monkeypatch, module, name) -> list:
    """The argument tuples of every call to module.name from now on."""
    calls = []
    function = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestOutcomeHandOff:
    """A check handed the very table and an equal spec of the solve just
    run takes that solve's validated problem and report along with its
    table; a check of an equal but distinct table repeats the work."""

    @staticmethod
    def problem(L: int, ties: bool):
        rng = random.Random(f"outcome:{L}:{ties}")
        if ties:
            pairs = tie_heavy_pairs(rng, 2 * L + 12)
        else:
            pairs = random_pairs(rng, L, k_max=2 * L + 12, k_min=2 * L + 12)
        population = population_from_pairs(pairs)
        ft = build_frequency_table(population)
        return population, ft, ProblemSpec(L=L, n=L, N=ft.N)

    @staticmethod
    def repeated_work(monkeypatch):
        """Calls that validate, cost or report a problem, by name."""
        return {
            "build_prefix_moments": count_calls(monkeypatch, stratopt.solver, "build_prefix_moments"),
            "_cost_rows": count_cost_rows(monkeypatch),
            "segment_stats_direct": count_calls(monkeypatch, stratopt.solver, "segment_stats_direct"),
        }

    @pytest.mark.parametrize("same_spec", [True, False], ids=["same-spec", "equal-spec"])
    @pytest.mark.parametrize("ties", [False, True], ids=["random", "ties"])
    @pytest.mark.parametrize("L", range(1, 7))
    def test_check_after_its_solve_repeats_none_of_its_work(self, monkeypatch, L, ties, same_spec):
        """No validation, no costing and no self-check: the check returns
        the solve's report, equal in every field but elapsed."""
        _, ft, spec = self.problem(L, ties)
        solved = solve_problem(ft, spec)
        work = self.repeated_work(monkeypatch)
        checked = brute_force_solve(ft, spec if same_spec else ProblemSpec(*spec))
        assert work == {name: [] for name in work}
        assert checked._replace(elapsed=0.0) == solved._replace(elapsed=0.0)
        assert checked.elapsed > 0.0
        assert not stratopt.solver._kept

    @pytest.mark.parametrize("ties", [False, True], ids=["random", "ties"])
    def test_check_of_an_equal_table_validates_and_costs_its_own(self, monkeypatch, ties):
        """A table rebuilt from the same population equals the solved one
        but is another object: the check validates it, costs every row and
        self-checks every stratum, and reports what the solve reported."""
        L = 3
        population, ft, spec = self.problem(L, ties)
        twin = build_frequency_table(population)
        assert twin == ft and twin is not ft
        solved = solve_problem(ft, spec)
        tails = table_tails(*cost_table(build_prefix_moments(ft), layer_bounds(ft.K, L)))
        work = self.repeated_work(monkeypatch)
        checked = brute_force_solve(twin, spec)
        assert len(work["build_prefix_moments"]) == 1
        assert work["_cost_rows"] == tails
        assert len(work["segment_stats_direct"]) == L
        assert checked._replace(elapsed=0.0) == solved._replace(elapsed=0.0)
        assert not stratopt.solver._kept

    def test_check_whose_walk_finds_other_nodes_reports_them(self, monkeypatch):
        """Where the walk lands off the solve's nodes, the check self-checks
        and reports its own nodes, not the kept report."""
        L = 3
        _, ft, spec = self.problem(L, False)
        solved = solve_problem(ft, spec)
        other = (1, 3, 5, ft.K + 1)
        assert other != solved.nodes
        walk = stratopt.oracle._walk_compositions
        monkeypatch.setattr(
            stratopt.oracle,
            "_walk_compositions",
            lambda rows, final, K, L: (other, walk(rows, final, K, L)[1]),
        )
        direct = count_calls(monkeypatch, stratopt.solver, "segment_stats_direct")
        checked = brute_force_solve(ft, spec)
        assert checked.nodes == other
        assert len(direct) == L
        expected = stratopt.solver._report(other, build_prefix_moments(ft), ft, spec)
        assert checked._replace(elapsed=0.0) == expected
        assert not stratopt.solver._kept

    @pytest.mark.parametrize("over", [True, False], ids=["count-over-cap", "count-at-cap"])
    def test_outcome_kept_only_where_a_default_cap_check_can_take_it(self, monkeypatch, over):
        """With the default cap the solver reads set one below
        count_solutions(K, L), the solve keeps nothing, and a check with a
        cap of the count validates, costs every row and self-checks every
        stratum itself; with the cap at the count the outcome is kept and
        the check repeats none of that work. Both report what the solve
        reported."""
        L = 3
        _, ft, spec = self.problem(L, False)
        count = count_solutions(ft.K, L)
        monkeypatch.setattr(stratopt.solver, "DEFAULT_ORACLE_CAP", count - 1 if over else count)
        tails = table_tails(*cost_table(build_prefix_moments(ft), layer_bounds(ft.K, L)))
        solved = solve_problem(ft, spec)
        assert len(stratopt.solver._kept) == (not over)
        work = self.repeated_work(monkeypatch)
        checked = brute_force_solve(ft, spec, cap=count)
        if over:
            assert len(work["build_prefix_moments"]) == 1
            assert work["_cost_rows"] == tails
            assert len(work["segment_stats_direct"]) == L
        else:
            assert work == {name: [] for name in work}
        assert checked._replace(elapsed=0.0) == solved._replace(elapsed=0.0)
        assert not stratopt.solver._kept

    def test_a_solve_no_default_cap_check_can_take_keeps_nothing(self):
        """K = 60, L = 8 has comb(51, 7) = 115,775,100 compositions, above
        the default cap of 10^7, so its solve keeps no table."""
        ft = random_instance(random.Random(60), 8, k_max=60, k_min=60)
        assert count_solutions(ft.K, 8) == 115_775_100
        solve_problem(ft, ProblemSpec(L=8, n=16, N=ft.N))
        assert not stratopt.solver._kept

    def test_a_solve_that_raises_keeps_nothing(self, monkeypatch):
        """The outcome is kept only once the report has returned, so a check
        after a failed solve validates and costs its own."""
        _, ft, spec = self.problem(3, False)

        def failing(*args):
            raise ConsistencyError("report refused")

        monkeypatch.setattr(stratopt.solver, "_report", failing)
        with pytest.raises(ConsistencyError, match="report refused"):
            solve_problem(ft, spec)
        assert not stratopt.solver._kept


def _full_rows(K: int, L: int, cost):
    """A cost table in the cost_table layout with every row running to head
    K-1 and every last-stratum tail filled, each entry cost."""
    rows = [[cost] * max(0, K - t - 2) for t in range(K + 1)]
    final = [cost if 2 * L - 1 <= j <= K - 1 else None for j in range(K + 1)]
    return rows, final


def _count_searches(monkeypatch) -> tuple[list, list]:
    """Patch the walk's search for a tied path to record each call's
    arguments, and each row entry it reads, by iteration or by index."""
    calls: list = []
    reads: list = []
    first = stratopt.oracle._first

    class CountedRow(list):
        def __iter__(self):
            for cost in list.__iter__(self):
                reads.append(cost)
                yield cost

        def __getitem__(self, at):
            reads.append(at)
            return list.__getitem__(self, at)

    def counting(rows, final, *args):
        calls.append(args)
        return first(list(map(CountedRow, rows)), final, *args)

    monkeypatch.setattr(stratopt.oracle, "_first", counting)
    return calls, reads


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
        scored. Prefixes hold three or four strata, then comes the middle
        stratum, and from L = 8 on suffixes hold four or five strata, which
        no shallower case reaches: their lists take more than one step, and
        the search for the smallest least suffix of b spans four or five
        strata."""
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
        """The paths (1, 5, 7, 11) and (1, 3, 9, 11) tie, and both continue
        through 13 and 15 at the minimum. Split around one middle stratum,
        they fall in the groups of 7 and 9, and the group of 7 is scored
        first, so the lexicographically smaller (1, 3, 9, 11) comes later
        and must still win. At K = 20 and 17 the three-stratum prefixes and
        suffixes around 11 number 15 against 15 and 3, the two sides an
        earlier walk chose between. At K = 18 the suffix of 11 through 14
        and 16 ties with that through 13 and 15, later in 11's list, so the
        first least suffix must win as well."""
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
        the one-stratum prefix ending at a, every middle arc a -> b, and
        the two-stratum suffixes of each b. (1, 3, 9) and (1, 5, 9) fall in
        the groups of 3 and 5; the suffixes of 5 list the split at 7 before
        that at 9; and (1, 3, 9, 11, 15) and (1, 5, 7, 11, 15) fall in the
        groups of 3 and 5 again. The smaller composition must win each
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

    def test_tie_floor_skips_groups_above_the_best_nodes(self, monkeypatch):
        """At K = 34, L = 9 every composition ties, and every group after
        the first has a floor above the best nodes, so only the first is
        followed up: one search for its prefix, ending at 9, and one for
        the suffix of its smallest b, 11. Each takes the first head at
        every level, and they read 7 row entries in all. A walk that
        followed up every tied group made 34 searches; one whose search
        went on through every tied path read 1,143 entries."""
        K, L = 34, 9
        rows, final = _full_rows(K, L, 100)
        calls, reads = _count_searches(monkeypatch)
        nodes = (1, *range(3, 2 * L, 2), K + 1)
        assert _walk_compositions(rows, final, K, L) == (nodes, count_solutions(K, L))
        assert len(calls) == 2
        assert len(reads) <= 16

    def test_ties_within_groups_unrank_few_prefixes(self, monkeypatch):
        """At K = 34, L = 9, every arc 100 units but 1 -> 3 at 200, every
        composition that avoids that arc ties, and each of the 16 groups
        from node 10 on is followed up with two searches. Each ends at its
        first tied path. Below the head 3 a prefix passes its target only
        at its last stratum, so the prefix searches read 2,168 row entries
        in all and the suffix searches 48. A search that went on through
        every tied path read 15,636."""
        K, L = 34, 9
        rows, final = _full_rows(K, L, 100)
        rows[1][0] = 200
        calls, reads = _count_searches(monkeypatch)
        nodes = (1, *range(4, 2 * L + 1, 2), K + 1)
        assert _walk_compositions(rows, final, K, L) == (nodes, count_solutions(K, L))
        assert len(calls) == 32
        assert len(reads) < 5_000

    def test_tied_paths_last_in_each_side_list(self):
        """K = 34, L = 9, every arc 2 units but 1 -> n for n >= 11 and the
        last stratum from 31 on, each 0: a composition reaches the least
        total only with both, so each side's tied paths come after nearly
        every other path its search tries, with heads ascending. The walk
        must still match the reference."""
        K, L = 34, 9
        rows, final = _full_rows(K, L, 2)
        for n in range(K // 3, K):
            rows[1][n - 3] = 0
        final[K - 3 : K] = [0] * 3
        nodes, scored = (1, 11, *range(13, 24, 2), 31, K + 1), count_solutions(K, L)
        assert reference_walk_compositions(rows, final, K, L) == (nodes, 14, scored)
        assert _walk_compositions(rows, final, K, L) == (nodes, scored)

    def test_deep_sides_need_no_recursion(self):
        """At K = 401, L = 200 each side holds about 100 strata, and the
        check runs with at most 50 frames of stack to spare: a search that
        recursed once a stratum would raise RecursionError. It must agree
        with the solver."""
        K, L = 401, 200
        rng = random.Random(K)
        ft = table_from_pairs(
            [(float(x), float(rng.randint(0, 9))) for x in range(K) for _ in range(2)]
        )
        spec = ProblemSpec(L=L, n=L * 2, N=ft.N)
        solved = solve_problem(ft, spec)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(traceback.extract_stack()) + 50)
        try:
            checked = brute_force_solve(ft, spec)
        finally:
            sys.setrecursionlimit(limit)
        assert checked.nodes == solved.nodes

    @pytest.mark.parametrize(
        "cheap,nodes",
        [
            pytest.param(
                ((9, 11, 14, 17), (9, 13, 16, 19)), (9, 11, 14, 17), id="second-node"
            ),
            pytest.param(
                ((9, 11, 15, 19), (9, 11, 14, 17)), (9, 11, 14, 17), id="third-node"
            ),
            pytest.param(
                ((9, 11, 14, 19), (9, 11, 14, 17)), (9, 11, 14, 17), id="fourth-node"
            ),
        ],
    )
    def test_eight_strata_tie_goes_to_the_smaller_suffix(self, cheap, nodes):
        """K = 22, L = 8, every arc 100 units but those of the path
        (1, 3, 5, 7, 9) and of two suffixes from 9, each of four strata and
        10 units an arc: two compositions tie at 80 units, both in the
        group of 7 with the middle arc 7 -> 9, and every other one costs
        more. The suffixes first differ at their second, third or fourth
        node; the suffix list of 9 holds the smaller first, and it must
        win."""
        K, L = 22, 8
        rows, final = _full_rows(K, L, 100)
        for t, h in zip((1, 3, 5, 7), (3, 5, 7, 9)):
            rows[t][h - t - 2] = 10
        for suffix in cheap:
            for t, h in zip(suffix, suffix[1:]):
                rows[t][h - t - 2] = 10
            final[suffix[-1]] = 10
        nodes, scored = (1, 3, 5, 7, *nodes, K + 1), count_solutions(K, L)
        assert reference_walk_compositions(rows, final, K, L) == (nodes, 80, scored)
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

    @pytest.mark.parametrize(
        "largest,narrow",
        [
            pytest.param((2 - 2**-52) * 2.0**971, True, id="largest-product-finite"),
            pytest.param(2.0**972, False, id="largest-product-overflows"),
        ],
    )
    def test_unit_switch_at_the_float_range(self, largest, narrow):
        """The least positive cost is 1.0, so the unit is 2^-52. Below the
        switch the largest cost times 2^52 is the largest finite float and
        the table is held in narrow units; at 2^972 that product overflows
        and the whole table takes 2^-1074 units. Either way the walk
        matches the reference."""
        K, L = 14, 5
        rng = random.Random(972)
        rows, final = _full_rows(K, L, 0.0)
        rows = [[float(rng.randrange(1, 1000)) for _ in row] for row in rows]
        final = [None if cost is None else float(rng.randrange(1, 1000)) for cost in final]
        rows[1][0], rows[3][1], final[K - 1] = 1.0, 0.0, largest
        units, final_units = _exact_units(rows, final)
        reference_units = units_table((rows, final))
        if narrow:
            assert largest * 2.0**52 == sys.float_info.max
            assert final_units[K - 1] == int(sys.float_info.max)
            assert units == [[int(cost) << 52 for cost in row] for row in rows]
        else:
            assert (units, final_units) == reference_units
        ref_nodes, _, ref_scored = reference_walk_compositions(*reference_units, K, L)
        assert _walk_compositions(units, final_units, K, L) == (ref_nodes, ref_scored)

    def test_prefix_lists_are_laid_out_by_count(self):
        """In a seeded K = 24 unit table, the d-stratum list at node t holds
        count_solutions(t - 1, d) totals, and the block of end node s sits
        at [comb(s-d-1, d-1), comb(s-d, d-1)): the (d-1)-stratum list at s
        plus the step s -> t, whatever t is: every prefix once. The walk
        counts the compositions it covers from these lengths."""
        K = 24
        rng = random.Random(24)
        rows = [[rng.randrange(1000) for _ in row] for row in _full_rows(K, 1, 0)[0]]
        # the one-stratum prefix ending at s is the arc 1 -> s, held by node
        # as its one total
        heads = [0, 0, 0, *rows[1]]
        totals = {s: [rows[1][s - 3]] for s in range(3, K)}
        for d in range(2, 8):
            ends = range(2 * d + 1, K)
            level = dict(zip(ends, _lists(rows, d, heads, ends)))
            for t, at_t in level.items():
                assert len(at_t) == count_solutions(t - 1, d), (d, t)
                for s in range(2 * d - 1, t - 1):
                    block = at_t[math.comb(s - d - 1, d - 1) : math.comb(s - d, d - 1)]
                    step = rows[s][t - s - 2]
                    assert block == [total + step for total in totals[s]], (d, t, s)
            heads = [[]] * ends.start + list(level.values())
            totals = level

    def test_suffix_lists_are_laid_out_by_count(self):
        """In a seeded K = 24 unit table, the d-stratum list from node i
        holds count_solutions(K + 1 - i, d) totals, and the block of the
        next node j sits at [c - comb(K+2-j-d, d-1), c - comb(K+1-j-d, d-1))
        with c = comb(K-i-d, d-1): the step i -> j plus the (d-1)-stratum
        list from j: every suffix once. The walk counts the compositions it
        covers from these lengths."""
        K = 24
        rng = random.Random(24)
        rows, final = _full_rows(K, 1, 0)
        rows = [[rng.randrange(1000) for _ in row] for row in rows]
        final = [None if cost is None else rng.randrange(1000) for cost in final]
        # the one-stratum suffix from j is the last stratum j..K, held by
        # node as its one total
        tails = final[:-1]
        totals = {j: [final[j]] for j in range(1, K)}
        for d in range(2, 8):
            starts = range(1, K + 2 - 2 * d)
            level = dict(zip(starts, _lists(rows, d, tails, starts, True)))
            for i, at_i in level.items():
                assert len(at_i) == count_solutions(K + 1 - i, d), (d, i)
                c = math.comb(K - i - d, d - 1)
                for j in range(i + 2, K + 4 - 2 * d):
                    block = at_i[
                        c - math.comb(K + 2 - j - d, d - 1) : c - math.comb(K + 1 - j - d, d - 1)
                    ]
                    step = rows[i][j - i - 2]
                    assert block == [step + total for total in totals[j]], (d, i, j)
            tails = [[]] * starts.start + list(level.values())
            totals = level

    @pytest.mark.parametrize("L", range(3, 12))
    def test_priced_lists_are_the_least_and_length_of_the_lists_formed(self, L):
        """On seeded unit tables, random and tie-heavy, for both sides and
        every depth d of an L-stratum path, _priced gives at each node the
        min and len of the d-stratum list _lists forms there, and 0 and 0
        before the first node such a list reaches; at d = 1 the one-stratum
        totals and 1. The reference lists are formed by plain recursion."""
        rng = random.Random(f"priced:{L}")
        for case in range(4):
            K = rng.randint(2 * L, 2 * L + 6)
            if case % 2:
                pairs = random_pairs(rng, L, k_max=K, k_min=K)
            else:
                pairs = tie_heavy_pairs(rng, K)
            table = cost_table(build_prefix_moments(table_from_pairs(pairs)), layer_bounds(K, L))
            rows, final = _exact_units(*table)

            def span(c):
                # the nodes a c-stratum prefix of an L-stratum path ends at,
                # where its suffix of L - c strata starts
                return range(2 * c + 1, K + 2 - 2 * (L - c))

            @cache
            def prefixes(d, t):
                if d == 1:
                    return (rows[1][t - 3],)
                return tuple(
                    total + rows[s][t - s - 2]
                    for s in range(2 * d - 1, t - 1)
                    for total in prefixes(d - 1, s)
                )

            @cache
            def suffixes(d, i):
                if d == 1:
                    return (final[i],)
                return tuple(
                    rows[i][j - i - 2] + total
                    for j in range(i + 2, K + 4 - 2 * d)
                    for total in suffixes(d - 1, j)
                )

            for suffix, ones, formed in (
                (False, [0, 0, 0, *rows[1]], prefixes),
                (True, final[:-1], suffixes),
            ):
                for d in range(1, L):
                    nodes = span(L - d if suffix else d)
                    lows, lengths = _priced(rows, ones, d, L, suffix)
                    assert len(lows) == len(lengths) == nodes.stop, (K, suffix, d)
                    if d == 1:
                        assert all(lengths[n] == 1 for n in nodes), (K, suffix)
                        assert [lows[n] for n in nodes] == [ones[n] for n in nodes], (K, suffix)
                        continue
                    # the (d-1)-stratum lists by node, as _lists takes them
                    below = ones
                    if d > 2:
                        before = span(L - d + 1 if suffix else d - 1)
                        below = [[]] * before.start + [list(formed(d - 1, n)) for n in before]
                    lists = [list(formed(d, n)) for n in nodes]
                    assert list(_lists(rows, d, below, nodes, suffix)) == lists, (K, suffix, d)
                    assert lows[: nodes.start] == lengths[: nodes.start] == [0] * nodes.start
                    assert [lows[n] for n in nodes] == list(map(min, lists)), (K, suffix, d)
                    assert [lengths[n] for n in nodes] == list(map(len, lists)), (K, suffix, d)

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
        """At K = 400, L = 3 the walk holds the units table, about K^2/2
        narrow integers, and one group's priced middle arcs, each the arc
        a -> b plus the last stratum from b. Its tracemalloc peak must stay
        below that of the per-prefix walk over 2^-1074 units on this input:
        16,857,616 bytes on CPython 3.11."""
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
        """At L = 3 each group's priced middle arcs, a -> b plus the last
        stratum from b, are read by that group only, so they are formed
        when it is scored, not all before the first group. Tracemalloc
        peaks on this input, CPython 3.11: 6,205,212 bytes, the same when
        each group's last two strata were its suffix list; 7,435,400 when
        every such list is held from the start."""
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
        totals for one depth of each side, the least total and size of each
        suffix list, and one group, never every group or a node tuple per
        prefix. Tracemalloc peaks on CPython 3.11: 212,316 bytes with four
        prefix strata, the middle stratum and four suffix strata; 736,460
        when the suffix list of every split node was held whole, four
        prefix strata against five suffix strata; 1,840,676 when the suffix
        held at most three strata and the prefix six; 3,786,384 for the
        walk that listed every prefix as a tuple; 4,241,348 when every
        group's totals are kept; 5,610,928 when each group also holds its
        prefixes' node tuples."""
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

    def test_nine_strata_memory_with_balanced_sides(self):
        """The input of test_nine_strata_memory: with four prefix strata,
        the middle stratum and four suffix strata a group's prefixes and
        each suffix list hold at most 969 totals, and the tracemalloc peak
        stays under 1 MiB (212,316 bytes on CPython 3.11; 736,460 with four
        prefix strata against five suffix strata, whose lists held up to
        4,845 totals); 1,840,676 when the suffix held at most three strata
        and a group's six-stratum prefixes up to 20,349."""
        rng = random.Random(34)
        ft = table_from_pairs(
            [(float(x), rng.lognormvariate(0.0, 1.0)) for x in range(34) for _ in range(2)]
        )
        spec = ProblemSpec(L=9, n=20, N=ft.N)
        tracemalloc.start()
        try:
            brute_force_solve(ft, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_two_middle_arcs_from_one_node_tie(self):
        """K = 14, L = 5, every arc 100 units but those of
        (1, 3, 5, 7, 11, 15) and (1, 3, 5, 9, 11, 15), which tie at 60
        units: the same prefix ending at 5, then the middle arc 5 -> 7 or
        5 -> 9, each at the same least total once the least suffix of its
        b is added. The smaller b must win."""
        K, L = 14, 5
        rows, final = _full_rows(K, L, 100)
        for (t, h), cost in {
            (1, 3): 10, (3, 5): 10,
            (5, 7): 10, (7, 11): 20,
            (5, 9): 20, (9, 11): 10,
        }.items():
            rows[t][h - t - 2] = cost
        final[11] = 10
        nodes, scored = (1, 3, 5, 7, 11, 15), count_solutions(K, L)
        assert reference_walk_compositions(rows, final, K, L) == (nodes, 60, scored)
        assert _walk_compositions(rows, final, K, L) == (nodes, scored)

    def test_nine_strata_walk_memory_holds_one_side_at_a_time(self):
        """At K = 50, L = 9 the walk alone, on a units table built before
        tracing starts, holds the deeper lists of one side at a time: the
        prefix side's are dropped once its lists are priced, before the
        suffix side's are formed. Tracemalloc peaks on CPython 3.11:
        935,288 bytes; 1,257,924 when the three-stratum lists of both sides
        were held while the four-stratum lists were priced."""
        K, L = 50, 9
        ft = table_from_pairs(random_pairs(random.Random(5009), L, K, K))
        units = _exact_units(*cost_table(build_prefix_moments(ft), layer_bounds(K, L)))
        tracemalloc.start()
        try:
            _, scored = _walk_compositions(*units, K, L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scored == count_solutions(K, L)
        assert peak < 1_100_000

    def test_seven_strata_walk_memory(self):
        """At K = 40, L = 7 the walk alone, on a units table built before
        tracing starts, keeps of each suffix list only its least total and
        its size. Tracemalloc peaks on CPython 3.11: 82,352 bytes with three
        prefix strata, the middle stratum and three suffix strata; 541,908
        when the suffix list of every split node was held whole, three
        prefix strata against four suffix strata."""
        K, L = 40, 7
        rng = random.Random(K)
        ft = table_from_pairs(
            [(float(x), rng.lognormvariate(0.0, 1.0)) for x in range(K) for _ in range(2)]
        )
        units = _exact_units(*cost_table(build_prefix_moments(ft), layer_bounds(K, L)))
        tracemalloc.start()
        try:
            _, scored = _walk_compositions(*units, K, L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scored == count_solutions(K, L)
        assert peak < 250_000
