"""Path solver and report translation tests."""

from __future__ import annotations

import math
import random
import tracemalloc

import pytest

import stratopt.graph
import stratopt.solver
from stratopt import (
    ConsistencyError,
    InfeasibleProblemError,
    InvalidSpecError,
    PathSolution,
    PrefixMoments,
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

from helpers import (
    desk_table,
    nodes_from_composition,
    random_composition,
    random_instance,
    random_pairs,
    skewed_table,
    table_from_pairs,
    tie_heavy_pairs,
)


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

    def test_arc_count_must_match_spec(self, desk):
        ft, pm = desk
        spec = ProblemSpec(L=3, n=3, N=9)
        with pytest.raises(ValueError):
            path_to_solution(PathSolution((1, 3, 6), 56.0), pm, ft, spec)

    def test_population_size_must_match_spec(self, desk):
        ft, pm = desk
        spec = ProblemSpec(L=2, n=3, N=10)
        with pytest.raises(InvalidSpecError):
            path_to_solution(PathSolution((1, 3, 6), 56.0), pm, ft, spec)

    def test_self_check_catches_corrupted_moments(self, desk):
        """Tampering with one cumulative square must trip the independent
        recomputation."""
        ft, pm = desk
        corrupted = PrefixMoments(
            pm.cum_count,
            pm.cum_y,
            pm.cum_y2[:2] + (pm.cum_y2[2] + 500.0,) + pm.cum_y2[3:],
        )
        spec = ProblemSpec(L=2, n=3, N=9)
        with pytest.raises(ConsistencyError):
            path_to_solution(PathSolution((1, 3, 6), 56.0), corrupted, ft, spec)


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

    def test_boundaries_are_interior_distinct_values(self):
        rng = random.Random(99)
        ft = random_instance(rng, 3)
        sol = solve_problem(ft, ProblemSpec(L=3, n=10, N=ft.N))
        assert len(sol.boundaries) == 2
        assert list(sol.boundaries) == sorted(sol.boundaries)
        assert set(sol.boundaries) <= set(ft.q)
        assert sol.boundaries[-1] < ft.q[-1]
