"""Segment statistics, variance formulas, allocation, and CV tests.

The worked example used throughout is the multiset (2,4,4,8,10,10,10,15,15)
with y = x. Its prefix arrays, checked by hand, are
counts (0,1,3,4,7,9), sums (0,2,10,18,48,78), squares (0,4,36,100,400,850).
"""

from __future__ import annotations

import itertools
import math
import pickle
import random
import re
import statistics
from fractions import Fraction

import pytest

from stratopt import (
    DataError,
    FrequencyTable,
    InfeasibleAllocationError,
    DegenerateAllocationError,
    InvalidSpecError,
    Population,
    ProblemSpec,
    UndefinedCVError,
    UndefinedVarianceError,
    allocate_neyman,
    allocate_proportional,
    attach_costs,
    brute_force_solve,
    build_frequency_table,
    build_layered_graph,
    build_prefix_moments,
    coefficient_of_variation,
    segment_stats,
    segment_stats_direct,
    solve_problem,
    total_variance_proportional,
    unit_cost,
    variance_factor,
    variance_general,
)

from stratopt.moments import exact_cost_units

from helpers import desk_table, table_from_pairs


@pytest.fixture(scope="module")
def desk():
    ft = desk_table()
    return ft, build_prefix_moments(ft)


class TestPrefixMoments:
    def test_worked_example_arrays(self, desk):
        _, pm = desk
        assert pm.cum_count == (0, 1, 3, 4, 7, 9)
        assert pm.cum_y == (0.0, 2.0, 10.0, 18.0, 48.0, 78.0)
        assert pm.cum_y2 == (0.0, 4.0, 36.0, 100.0, 400.0, 850.0)
        assert pm.K == 5

    def test_leading_zeros(self, desk):
        _, pm = desk
        assert pm.cum_count[0] == 0
        assert pm.cum_y[0] == 0.0
        assert pm.cum_y2[0] == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_two_pass_over_raw_values(self, seed):
        """Prefix differences agree with the sample variance of the raw
        segment, which statistics.variance forms in exact rationals and
        rounds once, to 1e-9 relative, for tables of up to 500 groups."""
        rng = random.Random(seed)
        k = rng.randint(50, 500)
        groups = []
        for g in range(k):
            ys = [rng.lognormvariate(2.0, 1.0) for _ in range(rng.randint(1, 4))]
            groups.append((float(g), ys))
        pairs = [(x, y) for x, ys in groups for y in ys]
        ft = table_from_pairs(pairs)
        pm = build_prefix_moments(ft)
        assert pm.K == k

        for _ in range(20):
            i = rng.randint(1, k - 1)
            j = rng.randint(i + 1, k)
            stats = segment_stats(pm, i, j + 1)
            raw = [y for _, ys in groups[i - 1 : j] for y in ys]
            assert stats.n_pop == len(raw)
            assert stats.y_total == pytest.approx(sum(raw), rel=1e-12)
            if len(raw) > 1:
                expected = statistics.variance(raw)
                assert stats.s2 == pytest.approx(expected, rel=1e-9)


# fields no population tabulates into, with the message each table gets
MALFORMED_TABLES = [
    pytest.param(
        ((1.0, 2.0, 3.0, 4.0), (1, 0, 0, 1), (1.0, 0.0, 0.0, 4.0), (1.0, 0.0, 0.0, 16.0)),
        r"^group 2 \(x=2\.0\) holds 0 units, fewer than 1$",
        id="empty-group",
    ),
    pytest.param(
        ((1.0, 2.0, 3.0, 4.0), (2, 1, -1, 2), (2.0, 2.0, -3.0, 8.0), (2.0, 4.0, -9.0, 32.0)),
        r"^group 3 \(x=3\.0\) holds -1 units, fewer than 1$",
        id="negative-count",
    ),
    pytest.param(
        ((4.0, 3.0, 2.0, 1.0), (1, 1, 1, 1), (4.0, 3.0, 2.0, 1.0), (16.0, 9.0, 4.0, 1.0)),
        r"^x does not ascend strictly: group 2 \(x=3\.0\) follows x=4\.0$",
        id="descending-x",
    ),
    pytest.param(
        ((1.0, 2.0, 2.0, 3.0), (1, 1, 1, 1), (1.0, 2.0, 2.0, 3.0), (1.0, 4.0, 4.0, 9.0)),
        r"^x does not ascend strictly: group 3 \(x=2\.0\) follows x=2\.0$",
        id="repeated-x",
    ),
    pytest.param(
        ((1.0, 2.0, 3.0, 4.0), (1, True, 1, 1), (1.0, 2.0, 3.0, 4.0), (1.0, 4.0, 9.0, 16.0)),
        r"^group 2 \(x=2\.0\) holds True units, not an integer$",
        id="bool-count",
    ),
    pytest.param(
        ((1.0, 2.0, 3.0, 4.0), (1.5, 1, 1, 1), (1.0, 2.0, 3.0, 4.0), (1.0, 4.0, 9.0, 16.0)),
        r"^group 1 \(x=1\.0\) holds 1\.5 units, not an integer$",
        id="float-count",
    ),
    pytest.param(
        ((1.0, 2.0, 3.0, 4.0), (2.0, 1, 1, 1), (2.0, 2.0, 3.0, 4.0), (2.0, 4.0, 9.0, 16.0)),
        r"^group 1 \(x=1\.0\) holds 2\.0 units, not an integer$",
        id="whole-float-count",
    ),
    pytest.param(
        ((1.0, 2.0, 3.0, 4.0), (1, 1, 1, 1), (1.0, math.nan, 3.0, 4.0), (1.0, 4.0, 9.0, 16.0)),
        r"^y values too large or not numbers in group 2 \(x=2\.0\)$",
        id="nan-y-total",
    ),
    pytest.param(
        ((1.0, 2.0, 3.0, 4.0), (1, 1, 1, 1), (1.0, 2.0, 3.0, 4.0), (1.0, 4.0, math.nan, 16.0)),
        r"^y values too large or not numbers in group 3 \(x=3\.0\)$",
        id="nan-squared-total",
    ),
    pytest.param(
        ((1.0, 2.0, 3.0, 4.0), (1, 1, 2, 1), (1.0, 2.0, 3e154, 4.0), (1.0, 4.0, math.inf, 16.0)),
        r"^y values too large or not numbers in group 3 \(x=3\.0\)$",
        id="infinite-squared-total",
    ),
    pytest.param(
        ((1.0, 2.0, 3.0, 4.0), (1, 1, 1, 1), (1.0, 2.0, 3.0, 4.0), (1.0, -4.0, 9.0, 16.0)),
        r"^group 2 \(x=2\.0\) has a squared y total of -4\.0, below 0$",
        id="negative-squared-total",
    ),
    pytest.param(
        ((1.0, 2.0, 3.0, 4.0), (2, 2, 2, 2), (10.0, 2.0, 3.0, 4.0), (1.0, 2.0, 4.5, 8.0)),
        r"^group 1 \(x=1\.0\) has y_sumsq=1\.0 < y_sum\^2/count=50\.0$",
        id="squared-total-below-the-mean-square",
    ),
    pytest.param(
        ((1.0, 2.0, 3.0, math.inf), (1, 1, 1, 1), (1.0, 2.0, 3.0, 4.0), (1.0, 4.0, 9.0, 16.0)),
        r"^group 4 has a non-finite x=inf$",
        id="infinite-x",
    ),
    # no later x compares with a lone x
    pytest.param(
        ((math.nan,), (1,), (1.0,), (1.0,)),
        r"^group 1 has a non-finite x=nan$",
        id="lone-nan-x",
    ),
    pytest.param(
        ((1.0, 2.0, 3.0, 4.0), (1, 1, 1, 1), (1.0, 2.0, 3.0), (1.0, 4.0, 9.0, 16.0)),
        r"^frequency table fields differ in length: "
        r"\{'q': 4, 'count': 4, 'y_sum': 3, 'y_sumsq': 4\}$",
        id="unequal-lengths",
    ),
]

# a table some population tabulates into, for copies to start from
VALID_FIELDS = ((1.0, 2.0), (1, 2), (1.0, 4.0), (1.0, 8.0))


class TestMalformedTable:
    """A FrequencyTable checks its fields whenever one is made, so fields
    that are not a frequency table never reach a search: every route from
    them raises a DataError naming the first bad group."""

    @pytest.mark.parametrize("fields,message", MALFORMED_TABLES)
    @pytest.mark.parametrize(
        "route",
        [
            pytest.param(lambda fields: FrequencyTable(*fields), id="built"),
            pytest.param(
                lambda fields: FrequencyTable(*VALID_FIELDS)._replace(
                    **dict(zip(FrequencyTable._fields, fields))
                ),
                id="_replace",
            ),
            pytest.param(lambda fields: FrequencyTable._make(fields), id="_make"),
            # a table made around the checks still meets them when unpickled
            pytest.param(
                lambda fields: pickle.loads(pickle.dumps(tuple.__new__(FrequencyTable, fields))),
                id="pickle",
            ),
            # the searches and attach_costs are handed the table as built
            pytest.param(
                lambda fields: solve_problem(FrequencyTable(*fields), ProblemSpec(L=2, n=1, N=4)),
                id="solver",
            ),
            pytest.param(
                lambda fields: brute_force_solve(
                    FrequencyTable(*fields), ProblemSpec(L=2, n=1, N=4)
                ),
                id="oracle",
            ),
            pytest.param(
                lambda fields: brute_force_solve(
                    FrequencyTable(*fields), ProblemSpec(L=2, n=1, N=4), cap=0
                ),
                id="oracle-under-a-zero-cap",
            ),
            pytest.param(
                lambda fields: attach_costs(
                    build_layered_graph(4, 2), build_prefix_moments(FrequencyTable(*fields))
                ),
                id="attach_costs",
            ),
        ],
    )
    def test_every_route_raises_a_data_error(self, route, fields, message):
        with pytest.raises(DataError, match=message):
            route(fields)

    @pytest.mark.parametrize("count", [1.5, 2.0])
    def test_float_count_raises_a_data_error(self, count):
        """A count of 1.5 or of 2.0 is not a number of units, even where
        the counts total a whole N: the table refuses to be built."""
        with pytest.raises(DataError, match=rf"^group 1 \(x=1\.0\) holds {count} units, not an integer$"):
            FrequencyTable(
                (1.0, 2.0, 3.0, 4.0), (count, 1, 1, 1), (1.0, 2.0, 3.0, 4.0), (1.0, 4.0, 9.0, 16.0)
            )

    @pytest.mark.parametrize("search", [solve_problem, brute_force_solve], ids=["solver", "oracle"])
    def test_whole_float_count_raises_before_the_search(self, search):
        """Counts (2.0, 1, 1, 1) total N = 5, which a spec can match, yet
        no search starts: the table refuses to be built."""
        with pytest.raises(DataError, match=r"^group 1 \(x=1\.0\) holds 2\.0 units, not an integer$"):
            search(
                FrequencyTable(
                    (1.0, 2.0, 3.0, 4.0), (2.0, 1, 1, 1), (2.0, 2.0, 3.0, 4.0), (2.0, 4.0, 9.0, 16.0)
                ),
                ProblemSpec(L=2, n=2, N=5),
            )

    @pytest.mark.parametrize("seed", range(20))
    def test_tabulated_tables_pass(self, seed):
        """Seeded populations with repeated x, both zeros, negatives and
        subnormals tabulate into tables the checks accept."""
        rng = random.Random(seed)
        pool = [-0.0, 0.0, 5e-324, -5e-324, -3.5, 1.0, 2.0, 1e300, -1e300]
        pool += [rng.uniform(-10.0, 10.0) for _ in range(20)]
        groups = {}
        for _ in range(rng.randint(1, 60)):
            groups.setdefault(rng.choice(pool), []).append(rng.uniform(-5.0, 5.0))
        ft = build_frequency_table(Population(groups))
        assert build_prefix_moments(ft).K == len(groups)


class TestSegmentStats:
    def test_first_three_groups(self, desk):
        """Groups 1..3 cover (2,4,4,8): mean 4.5, sum of squares 19,
        so s2 = 19/3."""
        _, pm = desk
        stats = segment_stats(pm, 1, 4)
        assert stats.n_pop == 4
        assert stats.s2 == pytest.approx(19 / 3, rel=1e-12)
        assert stats.y_total == pytest.approx(18.0, rel=1e-12)

    def test_last_two_groups(self, desk):
        """Groups 4..5 cover (10,10,10,15,15): s2 = 30/4 = 7.5."""
        _, pm = desk
        stats = segment_stats(pm, 4, 6)
        assert stats.n_pop == 5
        assert stats.s2 == pytest.approx(7.5, rel=1e-12)
        assert stats.y_total == pytest.approx(60.0, rel=1e-12)

    def test_full_range(self, desk):
        """All nine units: 850 - 78^2/9 = 174, s2 = 174/8 = 21.75."""
        _, pm = desk
        stats = segment_stats(pm, 1, 6)
        assert stats.n_pop == 9
        assert stats.s2 == pytest.approx(21.75, rel=1e-12)

    def test_single_unit_segment_raises(self, desk):
        _, pm = desk
        with pytest.raises(UndefinedVarianceError):
            segment_stats(pm, 1, 2)

    def test_constant_y_segment_has_zero_s2(self):
        ft = table_from_pairs([(1.0, 7.0), (1.0, 7.0), (1.0, 7.0), (2.0, 9.0)])
        pm = build_prefix_moments(ft)
        assert segment_stats(pm, 1, 2).s2 == 0.0

    @pytest.mark.parametrize("bounds", [(0, 2), (2, 2), (3, 2), (1, 7)])
    def test_bounds_validated(self, desk, bounds):
        _, pm = desk
        with pytest.raises(ValueError):
            segment_stats(pm, *bounds)

    def test_direct_route_agrees(self, desk):
        ft, pm = desk
        for i, j in [(1, 4), (4, 6), (1, 6), (2, 5)]:
            fast = segment_stats(pm, i, j)
            slow = segment_stats_direct(ft, i, j)
            assert fast.n_pop == slow.n_pop
            assert fast.s2 == pytest.approx(slow.s2, rel=1e-12)
            assert fast.y_total == pytest.approx(slow.y_total, rel=1e-12)

    def test_direct_route_single_unit_raises(self, desk):
        ft, _ = desk
        with pytest.raises(UndefinedVarianceError):
            segment_stats_direct(ft, 1, 2)

    def test_squared_total_overflow_raises(self):
        """Each y^2 (~3.6e307) and their sum fit a float, but the square of
        the segment's y total (~5.8e308) does not."""
        ft = table_from_pairs(zip((1, 2, 3, 4), (6e153, 6.01e153, 6.02e153, 6.03e153)))
        pm = build_prefix_moments(ft)
        with pytest.raises(DataError) as info:
            segment_stats(pm, 1, 5)
        assert str(info.value) == (
            "y values too large: the squared y total of groups 1..4 overflows a float"
        )

    def test_direct_route_bounds_validated(self):
        ft = table_from_pairs((x, x) for x in (1, 2, 3, 4))
        with pytest.raises(ValueError) as info:
            segment_stats_direct(ft, 0, 3)
        assert str(info.value) == "segment (0, 3) outside 1 <= i < j <= 5"


class TestUnitCost:
    def test_worked_example_costs(self, desk):
        """N_h * S2_h: 4 * 19/3 = 76/3 and 5 * 7.5 = 37.5."""
        _, pm = desk
        assert unit_cost(segment_stats(pm, 1, 4)) == pytest.approx(76 / 3, rel=1e-12)
        assert unit_cost(segment_stats(pm, 4, 6)) == pytest.approx(37.5, rel=1e-12)
        assert unit_cost(segment_stats(pm, 1, 3)) == pytest.approx(4.0, rel=1e-12)
        assert unit_cost(segment_stats(pm, 3, 6)) == pytest.approx(52.0, rel=1e-12)


class TestProblemSpec:
    def test_valid(self):
        spec = ProblemSpec(L=2, n=3, N=9)
        assert spec.fpc is True

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"L": 0, "n": 3, "N": 9},
            {"L": 2, "n": 0, "N": 9},
            {"L": 2, "n": 10, "N": 9},
            {"L": 2, "n": 3, "N": 0},
            {"L": 2.0, "n": 3, "N": 9},
            {"L": 2, "n": 3.0, "N": 9},
            {"L": 2, "n": 3, "N": 9.0},
            {"L": 2, "n": "3", "N": 9},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidSpecError):
            ProblemSpec(**kwargs)

    def test_non_integer_names_its_field(self):
        with pytest.raises(InvalidSpecError, match=r"^n must be an integer, got 3\.0$"):
            ProblemSpec(L=2, n=3.0, N=9)

    @pytest.mark.parametrize("fpc", ["False", None, 0, 1, 2.5])
    def test_fpc_must_be_a_bool(self, fpc):
        """A value that is only truthy or falsy would pick the correction
        silently: "False" would apply it and None would drop it."""
        message = rf"^fpc must be a bool, got {re.escape(repr(fpc))}$"
        with pytest.raises(InvalidSpecError, match=message):
            ProblemSpec(L=2, n=3, N=9, fpc=fpc)

    @pytest.mark.parametrize(
        "values",
        [{"L": True, "n": 1, "N": 2}, {"L": 1, "n": True, "N": 2}, {"L": 1, "n": 1, "N": True}],
        ids=["L", "n", "N"],
    )
    def test_counts_must_not_be_bools(self, values):
        """A bool is an Integral, yet True read as 1 would solve a spec no
        caller meant, as L=True would solve one stratum."""
        name = next(name for name, value in values.items() if value is True)
        with pytest.raises(InvalidSpecError, match=rf"^{name} must be an integer, got True$"):
            ProblemSpec(**values)

    @pytest.mark.parametrize(
        "change",
        [{"L": 2.0}, {"L": True}, {"L": 0}, {"N": 0}, {"n": 0}, {"n": 10}, {"fpc": "False"}],
        ids=["non-integer-L", "bool-L", "L-below-1", "N-below-1", "n-below-1", "n-above-N", "non-bool-fpc"],
    )
    @pytest.mark.parametrize("route", ["_replace", "_make", "pickle"])
    def test_copies_are_checked_as_construction_is(self, change, route):
        """A spec copied by _replace or _make, or unpickled, is checked
        again, raising the message that building it raises."""
        spec = ProblemSpec(L=2, n=3, N=9)
        values = {**spec._asdict(), **change}
        with pytest.raises(InvalidSpecError) as built:
            ProblemSpec(**values)
        # bytes that hold a bad spec: its fields set without the checks
        unchecked = tuple.__new__(ProblemSpec, values.values())
        copy = {
            "_replace": lambda: spec._replace(**change),
            "_make": lambda: ProblemSpec._make(values.values()),
            "pickle": lambda: pickle.loads(pickle.dumps(unchecked)),
        }[route]
        with pytest.raises(InvalidSpecError) as copied:
            copy()
        assert str(copied.value) == str(built.value)

    def test_valid_copies_round_trip(self):
        spec = ProblemSpec(L=2, n=3, N=9, fpc=False)
        for copy in (spec._replace(), ProblemSpec._make(spec), pickle.loads(pickle.dumps(spec))):
            assert type(copy) is ProblemSpec
            assert copy == spec
        assert spec._replace(n=9) == ProblemSpec(L=2, n=9, N=9, fpc=False)


class TestVarianceFormulas:
    def test_worked_example_variance(self):
        """Costs (4, 52) with N=9, n=3: (9/3) * (1 - 3/9) * 56 = 112."""
        spec = ProblemSpec(L=2, n=3, N=9)
        assert total_variance_proportional([4.0, 52.0], spec) == pytest.approx(
            112.0, rel=1e-12
        )

    def test_census_variance_is_zero(self):
        spec = ProblemSpec(L=2, n=9, N=9)
        assert total_variance_proportional([4.0, 52.0], spec) == 0.0

    def test_without_replacement_correction_dropped(self):
        """Without the correction the factor is N/n alone: 3 * 56 = 168."""
        spec = ProblemSpec(L=2, n=3, N=9, fpc=False)
        assert total_variance_proportional([4.0, 52.0], spec) == pytest.approx(
            168.0, rel=1e-12
        )

    def test_variance_factor(self):
        assert variance_factor(ProblemSpec(L=2, n=3, N=9)) == pytest.approx(2.0)
        assert variance_factor(ProblemSpec(L=2, n=3, N=9, fpc=False)) == pytest.approx(3.0)

    def test_empty_costs_rejected(self):
        with pytest.raises(ValueError):
            total_variance_proportional([], ProblemSpec(L=1, n=1, N=2))

    @pytest.mark.parametrize("cost", [math.nan, -1.0, math.inf], ids=["nan", "negative", "inf"])
    def test_costs_must_be_finite_and_nonnegative(self, cost):
        """A NaN, negative or infinite cost would give a NaN, understated or
        infinite variance."""
        with pytest.raises(ValueError, match=r"^costs must be nonempty, finite and nonnegative"):
            total_variance_proportional([3.0, cost], ProblemSpec(L=2, n=3, N=9))

    def test_general_formula_single_stratum(self):
        """9^2 * (21.75 / 3) * (1 - 3/9) = 391.5."""
        spec = ProblemSpec(L=1, n=3, N=9)
        result = variance_general([(9, 21.75, 3.0)], spec)
        assert result == pytest.approx(391.5, rel=1e-12)

    @pytest.mark.parametrize("fpc", [True, False])
    @pytest.mark.parametrize("seed", range(10))
    def test_general_formula_matches_proportional_form(self, seed, fpc):
        """With the exact fractional allocation n_h = n * N_h / N the general
        per-stratum formula collapses to the proportional one, to 1e-12
        relative."""
        rng = random.Random(seed)
        layers = rng.randint(1, 8)
        sizes = [rng.randint(2, 500) for _ in range(layers)]
        s2s = [rng.lognormvariate(0.0, 2.0) for _ in range(layers)]
        total_n = sum(sizes)
        n = rng.randint(1, total_n)
        spec = ProblemSpec(L=layers, n=n, N=total_n, fpc=fpc)

        fractional, _ = allocate_proportional(sizes, spec)
        general = variance_general(
            list(zip(sizes, s2s, fractional)), spec
        )
        proportional = total_variance_proportional(
            [size * s2 for size, s2 in zip(sizes, s2s)], spec
        )
        if proportional == 0.0:
            assert general == pytest.approx(0.0, abs=1e-9)
        else:
            assert general == pytest.approx(proportional, rel=1e-12)

    def test_zero_allocation_rejected(self):
        spec = ProblemSpec(L=2, n=3, N=9)
        with pytest.raises(InfeasibleAllocationError):
            variance_general([(4, 1.0, 0.0), (5, 1.0, 3.0)], spec)

    def test_oversized_allocation_rejected(self):
        spec = ProblemSpec(L=1, n=3, N=9)
        with pytest.raises(InfeasibleAllocationError):
            variance_general([(4, 1.0, 5.0)], spec)

    def test_nan_allocation_rejected(self):
        """NaN compares false both ways, so it must fail the range test, not
        slip past two one-sided tests into a NaN variance."""
        spec = ProblemSpec(L=1, n=3, N=9)
        with pytest.raises(InfeasibleAllocationError, match=r"^stratum sample size nan outside"):
            variance_general([(9, 1.0, math.nan)], spec)

    @pytest.mark.parametrize("s2", [math.nan, -1.0, math.inf], ids=["nan", "negative", "inf"])
    def test_dispersion_must_be_finite_and_nonnegative(self, s2):
        """A NaN, negative or infinite S2_h would give a NaN, understated or
        infinite variance."""
        spec = ProblemSpec(L=2, n=3, N=9)
        with pytest.raises(ValueError, match=r"^stratum dispersion S2_h must be finite"):
            variance_general([(4, 1.0, 1.0), (5, s2, 2.0)], spec)

    def test_no_strata_rejected(self):
        spec = ProblemSpec(L=1, n=3, N=9)
        with pytest.raises(ValueError) as info:
            variance_general([], spec)
        assert str(info.value) == "per_stratum must be nonempty"


class TestAllocateProportional:
    def test_worked_example(self):
        spec = ProblemSpec(L=2, n=3, N=9)
        fractional, rounded = allocate_proportional((3, 6), spec)
        assert fractional == (1.0, 2.0)
        assert rounded == (1, 2)

    @pytest.mark.parametrize(
        "sizes,n,expected",
        [
            ((262, 168, 50, 8), 100, (54, 34, 10, 2)),
            ((447, 104, 24, 10), 100, (76, 18, 4, 2)),
            ((680, 130, 16, 16), 100, (81, 15, 2, 2)),
            ((245, 150, 74, 14, 5), 100, (50, 31, 15, 3, 1)),
            ((405, 128, 31, 16, 5), 100, (69, 22, 5, 3, 1)),
            ((633, 135, 43, 16, 15), 100, (75, 16, 5, 2, 2)),
        ],
    )
    def test_known_allocations(self, sizes, n, expected):
        """Hand-checked largest-remainder roundings for six stratified
        populations of sizes 488, 585, and 842."""
        spec = ProblemSpec(L=len(sizes), n=n, N=sum(sizes))
        _, rounded = allocate_proportional(sizes, spec)
        assert rounded == expected

    def test_remainder_tie_prefers_lower_index(self):
        spec = ProblemSpec(L=2, n=1, N=2)
        _, rounded = allocate_proportional((1, 1), spec)
        assert rounded == (1, 0)

    @pytest.mark.parametrize("seed", range(10))
    def test_rounding_properties(self, seed):
        """Rounded sizes sum to n and sit within one unit of the exact
        share."""
        rng = random.Random(seed)
        layers = rng.randint(1, 9)
        sizes = [rng.randint(1, 400) for _ in range(layers)]
        n = rng.randint(1, sum(sizes))
        spec = ProblemSpec(L=layers, n=n, N=sum(sizes))
        fractional, rounded = allocate_proportional(sizes, spec)
        assert sum(rounded) == n
        assert all(abs(r - f) < 1.0 for r, f in zip(rounded, fractional))
        assert all(0 <= r <= size for r, size in zip(rounded, sizes))

    def test_size_sum_must_match_n(self):
        with pytest.raises(InvalidSpecError):
            allocate_proportional((3, 5), ProblemSpec(L=2, n=3, N=9))


def largest_remainder(sizes, n):
    """Hamilton's method in exact rationals: each stratum gets the floor of
    its share n * N_h / N, and the seats left over go one each to the largest
    remainders, equal remainders to the lower index."""
    N = sum(sizes)
    shares = [Fraction(n * size, N) for size in sizes]
    seats = [math.floor(share) for share in shares]
    order = sorted(range(len(sizes)), key=lambda h: (seats[h] - shares[h], h))
    for h in order[: n - sum(seats)]:
        seats[h] += 1
    return tuple(seats)


class TestLargestRemainderInIntegers:
    def test_every_allocation_of_a_small_grid(self):
        """L 2-4, each N_h in 2-7 and every n: 26,568 allocations, of which
        float remainders misrounded 162 exact ties. The shares keep the
        float expression n * N_h / N bit for bit."""
        checked = 0
        for L in (2, 3, 4):
            for sizes in itertools.product(range(2, 8), repeat=L):
                N = sum(sizes)
                for n in range(1, N + 1):
                    spec = ProblemSpec(L=L, n=n, N=N)
                    fractional, rounded = allocate_proportional(sizes, spec)
                    assert rounded == largest_remainder(sizes, n), (sizes, n)
                    assert fractional == tuple(n * size / N for size in sizes)
                    checked += 1
        assert checked == 26_568

    @pytest.mark.parametrize(
        "sizes,n,expected",
        [
            # remainders 1/3 each; the float remainders put the third first
            ((2, 2, 14), 3, (1, 0, 2)),
            # remainders 1/3 each after floors (2, 5, 6, 2)
            ((6, 16, 19, 7), 16, (2, 6, 6, 2)),
            # n * N_h beyond 2^53: the float shares round the remainders
            # 0.4999999995 and 0.5000000005 both to 1/2
            ((1_000_000_007, 1_000_000_001), 666_666_669, (333_333_335, 333_333_334)),
        ],
        ids=["equal-thirds", "golden-57", "beyond-2^53"],
    )
    def test_float_misrounded_cases(self, sizes, n, expected):
        spec = ProblemSpec(L=len(sizes), n=n, N=sum(sizes))
        _, rounded = allocate_proportional(sizes, spec)
        assert rounded == expected == largest_remainder(sizes, n)
        assert all(type(size) is int for size in rounded)

    def test_sizes_must_be_integers(self):
        with pytest.raises(
            InvalidSpecError, match=r"^stratum sizes must be integers, got \(3\.0, 6\)$"
        ):
            allocate_proportional((3.0, 6), ProblemSpec(L=2, n=3, N=9))

    def test_sizes_must_not_be_bools(self):
        """A bool is an Integral, yet True would read as a stratum of one."""
        with pytest.raises(
            InvalidSpecError, match=r"^stratum sizes must be integers, got \(True, 9\)$"
        ):
            allocate_proportional([True, 9], ProblemSpec(L=2, n=4, N=10))

    def test_sizes_must_not_be_negative(self):
        with pytest.raises(
            InvalidSpecError, match=r"^stratum sizes must be nonnegative, got \(-1, 11\)$"
        ):
            allocate_proportional([-1, 11], ProblemSpec(L=2, n=4, N=10))


class TestAllocateNeyman:
    def test_equal_dispersion_splits_proportionally(self):
        assert allocate_neyman((5, 5), (1.0, 1.0), 4) == (2.0, 2.0)

    def test_worked_example_shares(self):
        """Strata (2,4,4,8) and (10,10,10,15,15): shares 1.271 and 1.729."""
        shares = allocate_neyman((4, 5), (math.sqrt(19 / 3), math.sqrt(7.5)), 3)
        weight_1 = 4 * math.sqrt(19 / 3)
        weight_2 = 5 * math.sqrt(7.5)
        assert shares[0] == pytest.approx(3 * weight_1 / (weight_1 + weight_2), rel=1e-12)
        assert sum(shares) == pytest.approx(3.0, rel=1e-12)
        assert (round(shares[0], 3), round(shares[1], 3)) == (1.271, 1.729)

    def test_zero_dispersion_stratum_gets_nothing(self):
        assert allocate_neyman((5, 5), (0.0, 2.0), 6) == (0.0, 6.0)

    def test_all_zero_dispersion_rejected(self):
        with pytest.raises(DegenerateAllocationError):
            allocate_neyman((5, 5), (0.0, 0.0), 6)

    @pytest.mark.parametrize("sd", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"])
    def test_dispersion_must_be_finite_and_nonnegative(self, sd):
        """No share is returned as NaN: a NaN or infinite dispersion is
        refused, as is a negative one, which would give a negative share."""
        with pytest.raises(ValueError, match=r"^dispersions must be finite and nonnegative"):
            allocate_neyman((5, 5), (sd, 1.0), 4)

    @pytest.mark.parametrize(
        "sizes,message",
        [
            pytest.param((5, -5), r"nonnegative, got \(5, -5\)", id="negative"),
            pytest.param((-5, 5), r"nonnegative, got \(-5, 5\)", id="negative-first"),
            pytest.param((True, 5), r"integers, got \(True, 5\)", id="bool"),
            pytest.param((5.0, 5), r"integers, got \(5\.0, 5\)", id="float"),
        ],
    )
    def test_sizes_must_be_nonnegative_integers(self, sizes, message):
        """The sizes are refused as allocate_proportional refuses them:
        (-5, 5) would give the shares (-4.0, 8.0), and True would read as
        a stratum of one."""
        with pytest.raises(InvalidSpecError, match=rf"^stratum sizes must be {message}$"):
            allocate_neyman(sizes, (1.0, 2.0), 4)

    @pytest.mark.parametrize(
        "n", [-4, 0, True, False, 4.0, "4"], ids=["negative", "zero", "true", "false", "float", "str"]
    )
    def test_sample_size_must_be_an_integer_of_at_least_one(self, n):
        """An n of -4 would give the shares (-2.0, -2.0), and True would
        read as 1."""
        with pytest.raises(
            InvalidSpecError,
            match=rf"^sample size must be an integer of at least 1, got {re.escape(repr(n))}$",
        ):
            allocate_neyman((5, 5), (1.0, 1.0), n)


class TestCoefficientOfVariation:
    def test_worked_example(self):
        """100 * sqrt(112) / 78 = 13.5680, so 13.57 at two decimals."""
        cv = coefficient_of_variation(112.0, 78.0)
        assert cv == pytest.approx(100.0 * math.sqrt(112.0) / 78.0, rel=1e-15)
        assert round(cv, 2) == 13.57

    def test_simple_value(self):
        assert coefficient_of_variation(4.0, 200.0) == pytest.approx(1.0)

    def test_negative_total_gives_the_mirror_cv(self):
        """y and -y have the same variance, so the same CV, never negative."""
        assert coefficient_of_variation(112.0, -78.0) == coefficient_of_variation(112.0, 78.0)

    def test_zero_variance(self):
        assert coefficient_of_variation(0.0, 78.0) == 0.0

    def test_zero_total_rejected(self):
        with pytest.raises(UndefinedCVError):
            coefficient_of_variation(1.0, 0.0)

    @pytest.mark.parametrize("total", [5e-324, -5e-324])
    def test_total_too_close_to_zero_rejected(self, total):
        """100 * sqrt(4) / 5e-324 overflows a float."""
        with pytest.raises(UndefinedCVError, match="too close to zero"):
            coefficient_of_variation(4.0, total)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            coefficient_of_variation(-1.0, 78.0)

    def test_nan_variance_rejected(self):
        """A NaN variance is the variance's fault, not the total's."""
        with pytest.raises(ValueError, match=r"^variance must be finite and nonnegative, got nan$"):
            coefficient_of_variation(math.nan, 3.0)

    def test_infinite_variance_rejected(self):
        """An infinite variance is the variance's fault, not the total's."""
        with pytest.raises(ValueError, match=r"^variance must be finite and nonnegative, got inf$"):
            coefficient_of_variation(math.inf, 3.0)

    @pytest.mark.parametrize("total", [math.nan, math.inf, -math.inf])
    def test_total_that_is_not_finite_rejected(self, total):
        """A NaN total is not one too close to zero, and an infinite one
        does not make the CV 0."""
        with pytest.raises(ValueError, match=rf"^population total must be finite, got {total}$"):
            coefficient_of_variation(4.0, total)


class TestTransformationLaws:
    @pytest.mark.parametrize("seed", range(5))
    def test_translation_leaves_s2_alone(self, seed):
        rng = random.Random(seed)
        pairs = [(i, rng.lognormvariate(0.0, 1.0)) for i in range(40) for _ in range(2)]
        shifted = [(x, y + 250.0) for x, y in pairs]
        pm = build_prefix_moments(table_from_pairs(pairs))
        pm_shifted = build_prefix_moments(table_from_pairs(shifted))
        for i, j in [(1, 41), (5, 20), (30, 41)]:
            a = segment_stats(pm, i, j)
            b = segment_stats(pm_shifted, i, j)
            assert b.s2 == pytest.approx(a.s2, rel=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_scaling_by_two_is_exact(self, seed):
        """Doubling y is exact in binary, so s2 must scale by exactly 4."""
        rng = random.Random(seed)
        pairs = [(i, rng.lognormvariate(0.0, 1.0)) for i in range(30)]
        scaled = [(x, 2.0 * y) for x, y in pairs]
        pm = build_prefix_moments(table_from_pairs(pairs))
        pm_scaled = build_prefix_moments(table_from_pairs(scaled))
        for i, j in [(1, 31), (4, 17)]:
            assert segment_stats(pm_scaled, i, j).s2 == 4.0 * segment_stats(pm, i, j).s2

    @pytest.mark.parametrize("seed", range(5))
    def test_scaling_general(self, seed):
        rng = random.Random(seed)
        factor = 3.7
        pairs = [(i, rng.lognormvariate(0.0, 1.0)) for i in range(30)]
        scaled = [(x, factor * y) for x, y in pairs]
        pm = build_prefix_moments(table_from_pairs(pairs))
        pm_scaled = build_prefix_moments(table_from_pairs(scaled))
        for i, j in [(1, 31), (4, 17)]:
            assert segment_stats(pm_scaled, i, j).s2 == pytest.approx(
                factor * factor * segment_stats(pm, i, j).s2, rel=1e-9
            )


class TestExactCostUnits:
    """Floats embed exactly into integer units, making cost sums exact."""

    @pytest.mark.parametrize("value", [0.0, 1.0, 0.1, 4.0, 76.0 / 3.0, 37.5, 2.0**-1060])
    def test_round_trip(self, value):
        assert Fraction(exact_cost_units(value), 1 << 1074) == Fraction(value)

    def test_sum_is_order_independent(self):
        rng = random.Random(7)
        costs = [rng.lognormvariate(0.0, 4.0) for _ in range(50)]
        units = [exact_cost_units(c) for c in costs]
        forward = sum(units)
        rng.shuffle(units)
        assert sum(units) == forward
        # and rounding the exact sum once matches the correctly rounded fsum
        assert float(Fraction(forward, 1 << 1074)) == math.fsum(costs)

    def test_sum_matches_float_semantics(self):
        # 0.1 + 0.2 in exact units reproduces the true sum, not float(0.3)
        total = float(Fraction(exact_cost_units(0.1) + exact_cost_units(0.2), 1 << 1074))
        assert total == 0.1 + 0.2
        assert total != 0.3
