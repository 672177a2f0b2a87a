"""Loader and distinct-value grouping tests."""

from __future__ import annotations

import io
import math
import random
import tracemalloc

import pytest

from stratopt import (
    DataError,
    EmptyPopulationError,
    InputSchemaError,
    Population,
    build_frequency_table,
    load_population,
)

from helpers import DESK_CSV, table_from_pairs


class TestLoadPopulation:
    def test_y_defaults_to_x(self):
        pop = load_population(io.StringIO("x\n5\n7\n"))
        assert pop.groups == {5.0: [5.0], 7.0: [7.0]}

    def test_named_y_column(self):
        pop = load_population(io.StringIO("x,y\n2,20\n1,10\n"), "x", "y")
        assert pop.groups == {2.0: [20.0], 1.0: [10.0]}

    def test_ties_keep_input_order_of_y(self):
        """Groups are keyed in first-appearance order; each keeps its y
        values in input order."""
        pop = load_population(io.StringIO("x,y\n5,1\n3,9\n5,2\n"), "x", "y")
        assert list(pop.groups.items()) == [(5.0, [1.0, 2.0]), (3.0, [9.0])]

    def test_tab_delimiter(self):
        pop = load_population(io.StringIO("x\ty\n1\t10\n2\t20\n"), "x", "y", delimiter="\t")
        assert pop.groups == {1.0: [10.0], 2.0: [20.0]}

    def test_scientific_notation(self):
        pop = load_population(io.StringIO("x\n1e3\n2.5e-1\n"))
        assert pop.groups == {1000.0: [1000.0], 0.25: [0.25]}

    def test_single_row_is_a_valid_load(self):
        pop = load_population(io.StringIO("x\n5\n"))
        assert pop.N == 1

    def test_missing_x_column(self):
        with pytest.raises(InputSchemaError, match="'size'"):
            load_population(io.StringIO("x\n1\n"), x_column="size")

    def test_missing_y_column(self):
        with pytest.raises(InputSchemaError, match="'y'"):
            load_population(io.StringIO("x\n1\n"), "x", "y")

    def test_unparsable_cell_names_the_row(self):
        with pytest.raises(DataError, match="row 3"):
            load_population(io.StringIO("x\n1\nbogus\n2\n"))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(DataError, match="row 2"):
            load_population(io.StringIO(f"x\n{bad}\n1\n"))

    def test_short_row_names_the_row(self):
        with pytest.raises(DataError, match="row 2"):
            load_population(io.StringIO("x,y\n1\n"), "x", "y")

    @pytest.mark.parametrize(
        "text,columns",
        [
            pytest.param('x\n"1\n"\nbogus\n', ("x",), id="bad-cell"),
            pytest.param('x,y\n"1\n",2\n3\n', ("x", "y"), id="missing-column"),
        ],
    )
    def test_row_number_is_the_line_after_a_multiline_field(self, text, columns):
        """A quoted field spanning lines 2-3 must not shift the number of
        the bad record on line 4 back to its record count, 3."""
        with pytest.raises(DataError, match="^row 4: "):
            load_population(io.StringIO(text), *columns)

    def test_empty_input(self):
        with pytest.raises(EmptyPopulationError):
            load_population(io.StringIO(""))

    def test_header_only(self):
        with pytest.raises(EmptyPopulationError):
            load_population(io.StringIO("x\n"))

    def test_blank_lines_skipped(self):
        pop = load_population(io.StringIO("x\n1\n\n2\n"))
        assert pop.N == 2

    def test_memory_holds_values_not_row_objects(self):
        """100k rows over 50 distinct x: the loaded groups hold one float per
        y and the table K entries, so the traced peak stays near 3 MB; one
        object per row plus a sorted copy of all rows would take over 11 MB."""
        rng = random.Random(50)
        text = "x,y\n" + "".join(
            f"{rng.randrange(50)},{rng.random()!r}\n" for _ in range(100_000)
        )
        source = io.StringIO(text)
        tracemalloc.start()
        try:
            ft = build_frequency_table(load_population(source, "x", "y"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20
        assert (ft.K, ft.N) == (50, 100_000)


class TestBuildFrequencyTable:
    def test_sorts_ascending_by_x(self):
        ft = build_frequency_table(load_population(io.StringIO("x\n3\n1\n2\n")))
        assert ft.q == (1.0, 2.0, 3.0)

    def test_worked_example_aggregates(self):
        """Multiset (2,4,4,8,10,10,10,15,15) with y = x.

        Group sums by hand: y_sum = (2, 8, 8, 30, 30) and
        y_sumsq = (4, 32, 64, 300, 450).
        """
        pop = load_population(io.StringIO(DESK_CSV))
        ft = build_frequency_table(pop)
        assert ft.q == (2.0, 4.0, 8.0, 10.0, 15.0)
        assert ft.count == (1, 2, 1, 3, 2)
        assert ft.y_sum == (2.0, 8.0, 8.0, 30.0, 30.0)
        assert ft.y_sumsq == (4.0, 32.0, 64.0, 300.0, 450.0)
        assert ft.K == 5
        assert ft.N == 9

    def test_all_values_equal(self):
        ft = table_from_pairs([(7.0, 7.0)] * 4)
        assert ft.q == (7.0,)
        assert ft.count == (4,)
        assert ft.y_sum == (28.0,)
        assert ft.K == 1

    def test_grouping_is_exact_not_epsilon(self):
        near = math.nextafter(1.0, 2.0)
        ft = table_from_pairs([(1.0, 1.0), (near, 1.0)])
        assert ft.K == 2
        assert ft.count == (1, 1)

    def test_y_sum_equals_value_times_count_when_y_is_x(self):
        ft = table_from_pairs([(x, x) for x in (3, 3, 3, 9, 9)])
        assert ft.y_sum == (9.0, 18.0)
        assert all(s == q * c for q, c, s in zip(ft.q, ft.count, ft.y_sum))

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_and_permutation_invariance(self, seed):
        rng = random.Random(seed)
        xs = [rng.choice([1.5, 2.0, 2.5, 7.0, 11.25]) for _ in range(30)]
        pairs = [(x, rng.random()) for x in xs]
        ft = table_from_pairs(pairs)

        expanded = [q for q, c in zip(ft.q, ft.count) for _ in range(c)]
        assert expanded == sorted(xs)
        assert ft.N == len(xs)
        assert list(ft.q) == sorted(set(xs))

        rng.shuffle(pairs)
        assert table_from_pairs(pairs) == ft

    @pytest.mark.parametrize("first,second", [("-0.0", "0.0"), ("0.0", "-0.0")])
    def test_signed_zeros_share_one_group_keyed_by_the_first(self, first, second):
        text = f"x\n{first}\n{second}\n1\n2\n"
        ft = build_frequency_table(load_population(io.StringIO(text)))
        assert ft.q == (0.0, 1.0, 2.0)
        assert ft.count == (2, 1, 1)
        assert math.copysign(1.0, ft.q[0]) == math.copysign(1.0, float(first))

    def test_empty_population_rejected(self):
        with pytest.raises(EmptyPopulationError):
            build_frequency_table(Population({}))
